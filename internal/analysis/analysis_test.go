package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelect(t *testing.T) {
	cases := []struct {
		only, skip string
		wantNames  []string
		wantErr    bool
	}{
		{"", "", []string{"detrand", "maporder", "lockscope", "looplock", "errdrop", "metricname", "atomicfield"}, false},
		{"detrand", "", []string{"detrand"}, false},
		{"maporder,errdrop", "", []string{"maporder", "errdrop"}, false},
		{"metricname,atomicfield", "", []string{"metricname", "atomicfield"}, false},
		{"", "errdrop", []string{"detrand", "maporder", "lockscope", "looplock", "metricname", "atomicfield"}, false},
		{"", "detrand, maporder", []string{"lockscope", "looplock", "errdrop", "metricname", "atomicfield"}, false},
		{"nosuch", "", nil, true},
		{"", "nosuch", nil, true},
		{"detrand", "errdrop", nil, true}, // -only and -skip are exclusive
		{"", "detrand,maporder,lockscope,looplock,errdrop,metricname,atomicfield", nil, true}, // empty selection
	}
	for _, c := range cases {
		got, err := Select(c.only, c.skip)
		if c.wantErr {
			if err == nil {
				t.Errorf("Select(%q, %q): expected error, got %d analyzers", c.only, c.skip, len(got))
			}
			continue
		}
		if err != nil {
			t.Errorf("Select(%q, %q): %v", c.only, c.skip, err)
			continue
		}
		names := make([]string, len(got))
		for i, a := range got {
			names[i] = a.Name
		}
		if len(names) != len(c.wantNames) {
			t.Errorf("Select(%q, %q) = %v, want %v", c.only, c.skip, names, c.wantNames)
			continue
		}
		for i := range names {
			if names[i] != c.wantNames[i] {
				t.Errorf("Select(%q, %q) = %v, want %v", c.only, c.skip, names, c.wantNames)
				break
			}
		}
	}
}

func TestRegistryNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
		if len(a.Packages) == 0 {
			t.Errorf("analyzer %q targets no packages", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
}

// TestDiagnosticJSONShape pins the -json output contract for tooling.
func TestDiagnosticJSONShape(t *testing.T) {
	d := Diagnostic{Analyzer: "detrand", File: "x.go", Line: 3, Col: 7, Message: "m"}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"analyzer":"detrand","file":"x.go","line":3,"col":7,"message":"m"}`
	if string(raw) != want {
		t.Errorf("JSON = %s, want %s", raw, want)
	}
	if s := d.String(); s != "x.go:3:7: detrand: m" {
		t.Errorf("String() = %q", s)
	}
}

// TestRepoIsClean runs the full analyzer suite over this repository —
// the same gate as `make lint` — so `go test ./...` alone catches a
// determinism or concurrency violation introduced anywhere in the tree.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunModule(l, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
