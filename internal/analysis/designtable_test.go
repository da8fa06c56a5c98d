package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDesignAnalyzerTableMatchesScopes keeps DESIGN.md §9's
// analyzer/packages table equal to what the gate checks: every analyzer
// has a row; an analyzer with Packages lists exactly those paths in its
// packages column (backticked, module-relative, `.` for the root), and
// one without reads "every package" there, with no path.
func TestDesignAnalyzerTableMatchesScopes(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(design), "| analyzer | packages | rule |")
	if !ok {
		t.Fatal("DESIGN.md has no `| analyzer | packages | rule |` table")
	}
	const module = "sessiondir"
	backticked := regexp.MustCompile("`([^`]+)`")
	rows := map[string]string{} // analyzer name → its packages cell
	// Past the header's own line and the |---| rule.
	for _, line := range strings.Split(table, "\n")[2:] {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			break // end of the table
		}
		rows[strings.Trim(strings.TrimSpace(cells[1]), "`")] = strings.TrimSpace(cells[2])
	}
	for _, a := range All() {
		cell, ok := rows[a.Name]
		if !ok {
			t.Errorf("DESIGN.md §9 has no row for %q", a.Name)
			continue
		}
		delete(rows, a.Name)
		var got []string
		for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
			pkg := module
			if m[1] != "." {
				pkg += "/" + m[1]
			}
			got = append(got, pkg)
		}
		if a.Packages == nil {
			if !strings.HasPrefix(cell, "every package") || got != nil {
				t.Errorf("DESIGN.md §9 row %q reads %q, but the analyzer runs on every package", a.Name, cell)
			}
			continue
		}
		want := append([]string(nil), a.Packages...)
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("DESIGN.md §9 row %q lists\n  %v\nbut the analyzer covers\n  %v", a.Name, got, want)
		}
	}
	for name := range rows {
		t.Errorf("DESIGN.md §9 has a row for %q, which is not a registered analyzer", name)
	}
}
