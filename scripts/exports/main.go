// Command exports lists the declarations no entry point reaches. Run from
// the repository root (go run ./scripts/exports), it type-checks the non-test
// packages below it, a nested module whose path extends the root's included,
// and prints every exported name or method that no other package's non-test
// code references, and every other name that no non-test code references,
// and every exported field of an exported *Config, *Options or *Policy
// struct that no non-test code sets, unless scripts/exports/allow.txt lists
// it; then every allowlist key that matches nothing, and each budgeted
// allowlist section that holds too many keys. It exits 1 if it printed
// anything. A method is used when its type implements an interface whose
// method is called anywhere, or one of an imported standard package; a type
// is used when a used signature, field, variable or constant names it. A
// field is set by a composite-literal key, or by an assignment, an
// increment or its address taken outside its own package.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	const allow = "scripts/exports/allow.txt"
	bad := unlisted(".", allow)
	text, _ := os.ReadFile(allow)
	for _, b := range []budget{seamBudget, fieldBudget} {
		if msg := b.over(string(text)); msg != "" {
			bad = append(bad, allow+": "+msg)
		}
	}
	if len(bad) > 0 {
		fmt.Println(strings.Join(bad, "\n"))
		os.Exit(1)
	}
}

// budget caps an allowlist section: the most keys under a heading that
// starts with heading.
type budget struct {
	heading string
	max     int
}

var (
	// seamBudget: exported names kept in production code only because
	// another package's tests drive them.
	seamBudget = budget{"# Test seams", 4}
	// fieldBudget: config fields no entry point sets.
	fieldBudget = budget{"# Config fields no entry point sets", 3}
)

// over describes the section of text b caps if it holds more than b.max
// keys, with the keys, and is "" otherwise.
func (b budget) over(text string) string {
	keys := section(text, b.heading)
	if len(keys) <= b.max {
		return ""
	}
	return fmt.Sprintf("%d keys under %q, budget %d:\n%s", len(keys), b.heading, b.max, strings.Join(keys, "\n"))
}

// section returns the keys of an allowlist section: the key lines under a
// heading that starts with heading, up to the next heading.
func section(text, heading string) []string {
	var keys []string
	in := false
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") {
			in = strings.HasPrefix(line, heading)
		} else if key, _, _ := strings.Cut(line, " "); in && key != "" {
			keys = append(keys, key)
		}
	}
	return keys
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scan returns the sorted entries of the module at root, each "key (why)"
// with key the package's path in the module, a dot and Name or Type.Method.
func scan(root string) ([]string, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod, fset := strings.Fields(string(gomod) + " module")[1], token.NewFileSet()
	pkgs, infos, std := map[string]*types.Package{}, map[*types.Package]*types.Info{}, importer.ForCompiler(fset, "source", nil)
	written := map[types.Object]bool{} // the fields non-test code sets
	var load importerFunc
	load = func(path string) (*types.Package, error) {
		if rel, ours := strings.CutPrefix(path, mod); !ours || rel != "" && rel[0] != '/' {
			return std.Import(path)
		} else if p, done := pkgs[path]; done {
			return p, nil
		}
		bp, _ := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, mod)), 0)
		var fs []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		p, err := (&types.Config{Importer: load}).Check(path, fset, fs, info)
		pkgs[path], infos[p] = p, info
		for _, f := range fs {
			markWrites(f, info, p, written)
		}
		return p, err
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		} else if n := d.Name(); dir != root && (n == "testdata" || n[0] == '.' || n[0] == '_') {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, dir)
		_, err = load(strings.TrimSuffix(mod+"/"+filepath.ToSlash(rel), "/."))
		return err
	})
	if err != nil {
		return nil, err
	}

	// called holds each method called through an interface, beside that
	// interface, and every method of an imported standard interface.
	outside, anywhere, called := map[types.Object]bool{}, map[types.Object]bool{}, map[[2]any]bool{}
	addIface := func(t types.Type) {
		for i := 0; i < t.Underlying().(*types.Interface).NumMethods(); i++ {
			called[[2]any{t, t.Underlying().(*types.Interface).Method(i)}] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	var named []types.Type // pointers to the module's non-generic types
	for pkg, info := range infos {
		for _, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin() // a generic function's declaration
			}
			anywhere[obj], outside[obj] = true, outside[obj] || obj.Pkg() != pkg
		}
		for _, sel := range info.Selections {
			if sel.Kind() != types.FieldVal && types.IsInterface(sel.Recv()) {
				called[[2]any{sel.Recv(), sel.Obj()}] = true
			}
		}
		for _, imp := range pkg.Imports() {
			for _, name := range imp.Scope().Names() {
				if obj := imp.Scope().Lookup(name); pkgs[imp.Path()] == nil && obj.Exported() && types.IsInterface(obj.Type()) {
					addIface(obj.Type())
				}
			}
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) && tn.Type().(*types.Named).TypeParams() == nil {
				named = append(named, types.NewPointer(tn.Type()))
			}
		}
	}
	// A method behind such an interface counts as referenced from outside.
	for _, t := range named {
		for c := range called {
			m := c[1].(*types.Func)
			if s := types.NewMethodSet(t).Lookup(m.Pkg(), m.Name()); s != nil && types.Implements(t, c[0].(types.Type).Underlying().(*types.Interface)) {
				outside[s.Obj()], anywhere[s.Obj()] = true, true
			}
		}
	}
	for obj := range outside {
		markTypes(obj.Type(), outside)
	}

	var out []string
	for pkg := range infos {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), mod), "/")
		report := func(obj types.Object, key string, public bool) {
			if !anywhere[obj] && key != "main" {
				out = append(out, rel+"."+key+" (unused)")
			} else if public && obj.Exported() && !outside[obj] && anywhere[obj] {
				out = append(out, rel+"."+key+" (only its own package)")
			}
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			report(obj, name, pkg.Name() != "main")
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				for i := 0; i < tn.Type().(*types.Named).NumMethods(); i++ {
					m := tn.Type().(*types.Named).Method(i)
					report(m, name+"."+m.Name(), pkg.Name() != "main" && obj.Exported())
				}
				if st, ok := tn.Type().Underlying().(*types.Struct); ok && pkg.Name() != "main" && obj.Exported() && configType(name) {
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); f.Exported() && !written[f] {
							out = append(out, rel+"."+name+"."+f.Name()+" (config field no entry point sets)")
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// configType reports whether a struct type's name marks it as settings:
// a name ending in Config, Options or Policy.
func configType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")
}

// markWrites marks in written every field that f, a file of package p,
// sets: by a composite-literal key, or, when the field is another
// package's, on the left of an assignment or increment or by taking its
// address (flag.IntVar(&c.F, …)). A package assigning its own field
// (c.Users = 20) or handing its address to a helper (resolve(&p.F, 16))
// only fills a default.
func markWrites(f *ast.File, info *types.Info, p *types.Package, written map[types.Object]bool) {
	field := func(e ast.Expr, inOwnPkg bool) {
		var obj types.Object
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident: // a composite-literal key
			obj = info.Uses[x]
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				obj = sel.Obj()
			}
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() && (inOwnPkg || v.Pkg() != p) {
			written[v] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.KeyValueExpr:
			field(x.Key, true)
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				field(lhs, false)
			}
		case *ast.IncDecStmt:
			field(x.X, false)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				field(x.X, false)
			}
		}
		return true
	})
}

// markTypes marks the defined types t names through pointers, slices, arrays,
// map values, channels and signatures, not through a defined type.
func markTypes(t types.Type, used map[types.Object]bool) {
	switch t := t.(type) {
	case *types.Named:
		used[t.Origin().Obj()] = true
	case interface{ Elem() types.Type }:
		markTypes(t.Elem(), used)
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				markTypes(tuple.At(i).Type(), used)
			}
		}
	}
}

// unlisted returns the entries of the module at root the allowlist does not
// excuse, and its keys that match no entry. A line is a key and its reason.
func unlisted(root, allow string) []string {
	entries, err := scan(root)
	text, _ := os.ReadFile(allow)
	if err != nil {
		return []string{"exports: " + err.Error()}
	}
	reasons, bad := map[string]string{}, []string(nil)
	for _, line := range strings.Split(string(text), "\n") {
		if key, reason, _ := strings.Cut(strings.TrimSpace(line), " "); key != "" && key[0] != '#' {
			reasons[key] = strings.TrimSpace(reason)
		}
	}
	for _, e := range entries {
		key, _, _ := strings.Cut(e, " ")
		if reasons[key] == "" { // not listed, or listed without a reason
			bad = append(bad, e)
		}
		delete(reasons, key)
	}
	for key := range reasons {
		bad = append(bad, key+" (allowlisted, but no such entry)")
	}
	sort.Strings(bad)
	return bad
}
