package analysis

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestUnusedFixture(t *testing.T) {
	diags := runFixture(t, "unused", Unused)
	if len(diags) != 14 {
		t.Errorf("got %d diagnostics, want 14:\n%s", len(diags), diagnosticSummary(diags))
	}
}

func TestUnusedReportsAnUnimportedPackageOnce(t *testing.T) {
	runFixture(t, "unusedlib", Unused)
}

// Unused.Packages is a hand-kept list, and a package missing from it is
// one whose dead names nothing reports. Hold it to the module's tree:
// every directory with non-test Go files, except benchmark/ (whose
// references only pin) and analyzer fixtures.
func TestUnusedCoversEveryPackage(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var want []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root && (name == "testdata" || name == "benchmark" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		pkg := "sessiondir"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		if !seen[pkg] {
			seen[pkg] = true
			want = append(want, pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := append([]string(nil), Unused.Packages...)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Unused.Packages =\n  %v\nbut the module's packages are\n  %v", got, want)
	}
}
