package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestFixture runs the scan over testdata: package a declares one case of
// each kind and package b uses them.
func TestFixture(t *testing.T) {
	got, err := scan("testdata")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a.Config.Assigned (config field no entry point sets)",
		"a.Config.Defaulted (config field no entry point sets)",
		"a.Config.Unset (config field no entry point sets)",
		"a.Dead (unused)",
		"a.Own (only its own package)",
		"a.TestOnly (unused)",
		"a.unused (unused)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scan(testdata):\n got %q\nwant %q", got, want)
	}

	allow := filepath.Join(t.TempDir(), "allow.txt")
	text := "# comment\na.Dead no caller yet\na.Own\na.gone was deleted\n"
	if err := os.WriteFile(allow, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	got = unlisted("testdata", allow)
	want = []string{
		"a.Config.Assigned (config field no entry point sets)",
		"a.Config.Defaulted (config field no entry point sets)",
		"a.Config.Unset (config field no entry point sets)",
		"a.Own (only its own package)", // listed without a reason
		"a.TestOnly (unused)",
		"a.gone (allowlisted, but no such entry)",
		"a.unused (unused)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unlisted:\n got %q\nwant %q", got, want)
	}
}

// TestRepoExports is the gate: every entry of the repository's scan is in
// allow.txt, and every allow.txt key is still an entry.
func TestRepoExports(t *testing.T) {
	if bad := unlisted(filepath.Join("..", ".."), "allow.txt"); len(bad) > 0 {
		t.Errorf("scripts/exports: delete, unexport or move to an export_test.go each entry below, or list it in allow.txt with its reason; drop stale keys:\n%s",
			strings.Join(bad, "\n"))
	}
}

// TestSeamsFixture: section reads the keys under the named heading only,
// up to the next heading, blank lines and all.
func TestSeamsFixture(t *testing.T) {
	text := "# Reference\na.Ref why\n\n# Test seams tests drive\na.S1 why\n\na.S2 why\n# Other\na.O why\n"
	if got, want := section(text, "# Test seams"), []string{"a.S1", "a.S2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("section: got %q, want %q", got, want)
	}
	if got := (budget{"# Test seams", 1}).over(text); !strings.HasPrefix(got, `2 keys under "# Test seams", budget 1`) {
		t.Errorf("over: got %q", got)
	}
}

// TestRepoSeamBudget is the second gate: allow.txt's test-seam section
// holds at most seamBudget.max keys.
func TestRepoSeamBudget(t *testing.T) {
	holdBudget(t, seamBudget, "make each the package's own test, an option the entry points use, or a deletion")
}

// TestRepoConfigFieldBudget is the third: allow.txt lists at most
// fieldBudget.max config fields that no entry point sets.
func TestRepoConfigFieldBudget(t *testing.T) {
	holdBudget(t, fieldBudget, "make each a constant, a setting an entry point uses, or a deletion")
}

func holdBudget(t *testing.T, b budget, fix string) {
	text, err := os.ReadFile("allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	if msg := b.over(string(text)); msg != "" {
		t.Errorf("allow.txt: %s\n%s", fix, msg)
	}
}
