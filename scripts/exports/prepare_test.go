package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnePreparePath holds internal/cell to one prepare path: its non-test
// code other than reference.go neither evaluates the radio model through
// its interfaces (Radio.Throughput.Throughput, Radio.Power.EnergyPerKB) —
// the engine derives a slot's physics from its link rows through
// radio.Link — nor tests a link window against nil. reference.go, the
// analytic arm the differential tests compare against, must still make
// both calls, so a matcher that finds nothing fails too.
func TestOnePreparePath(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "cell")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var inReference []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, hit := range preparePathHits(fset, f) {
			if name == "reference.go" {
				inReference = append(inReference, hit)
			} else {
				t.Errorf("%s: outside reference.go", hit)
			}
		}
	}
	for _, call := range []string{"Radio.Throughput.Throughput", "Radio.Power.EnergyPerKB"} {
		found := false
		for _, hit := range inReference {
			found = found || strings.HasSuffix(hit, call)
		}
		if !found {
			t.Errorf("reference.go: no %s found; is the matcher still right?", call)
		}
	}
}

// preparePathHits lists, as "file:line: what", every selector of f ending
// in Radio.Throughput.Throughput or Radio.Power.EnergyPerKB and every
// comparison of a value named win with nil.
func preparePathHits(fset *token.FileSet, f *ast.File) []string {
	var hits []string
	ast.Inspect(f, func(n ast.Node) bool {
		var what string
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if p := selectorPath(x); strings.HasSuffix(p, "Radio.Throughput.Throughput") || strings.HasSuffix(p, "Radio.Power.EnergyPerKB") {
				what = p
			}
		case *ast.BinaryExpr:
			if (x.Op == token.EQL || x.Op == token.NEQ) && (winNil(x.X, x.Y) || winNil(x.Y, x.X)) {
				what = "win " + x.Op.String() + " nil"
			}
		}
		if what != "" {
			hits = append(hits, fset.Position(n.Pos()).String()+": "+what)
		}
		return true
	})
	return hits
}

// selectorPath spells a selector chain such as s.cfg.Radio.Power.EnergyPerKB.
func selectorPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return selectorPath(x.X) + "." + x.Sel.Name
	}
	return "?"
}

// winNil reports whether a is a value named win (a variable or a field)
// and b is nil.
func winNil(a, b ast.Expr) bool {
	if id, ok := b.(*ast.Ident); !ok || id.Name != "nil" {
		return false
	}
	switch x := a.(type) {
	case *ast.Ident:
		return x.Name == "win"
	case *ast.SelectorExpr:
		return x.Sel.Name == "win"
	}
	return false
}

// TestOneEntryPoint holds every closed run outside internal/cell to one
// engine entry point, the bounded cell.OpenSim: no non-test Go file
// outside internal/cell and benchmark/ names cell.New or cell.Simulator.
// benchmark/ still builds the closed engine directly, so a matcher that
// finds nothing there fails too.
func TestOneEntryPoint(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	inBenchmark := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == filepath.Join("internal", "cell") || d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, hit := range closedEngineHits(fset, f) {
			if strings.HasPrefix(rel, "benchmark"+string(filepath.Separator)) {
				inBenchmark++
			} else {
				t.Errorf("%s: a closed run outside internal/cell builds the closed engine; build a bounded cell.OpenSim", hit)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inBenchmark == 0 {
		t.Error("benchmark/: no cell.New or cell.Simulator found; is the matcher still right?")
	}
}

// closedEngineHits lists, as "file:line: what", every selector of f that
// names New or Simulator of the package imported from
// jointstream/internal/cell, under whatever name f imports it.
func closedEngineHits(fset *token.FileSet, f *ast.File) []string {
	name := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"jointstream/internal/cell"` {
			name = "cell"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" {
		return nil
	}
	var hits []string
	ast.Inspect(f, func(n ast.Node) bool {
		if x, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := x.X.(*ast.Ident); ok && id.Name == name && (x.Sel.Name == "New" || x.Sel.Name == "Simulator") {
				hits = append(hits, fset.Position(n.Pos()).String()+": "+name+"."+x.Sel.Name)
			}
		}
		return true
	})
	return hits
}
