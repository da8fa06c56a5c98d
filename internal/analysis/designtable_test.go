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
// has a row, and the backticked paths in a row's packages column are
// exactly that analyzer's Packages (module-relative, `.` for the root).
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
	rows := map[string][]string{}
	for _, line := range strings.Split(table, "\n")[2:] { // past the header's own line and the |---| rule
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			break // end of the table
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		for _, m := range backticked.FindAllStringSubmatch(cells[2], -1) {
			pkg := module
			if m[1] != "." {
				pkg += "/" + m[1]
			}
			rows[name] = append(rows[name], pkg)
		}
	}
	for _, a := range All() {
		got, want := rows[a.Name], append([]string(nil), a.Packages...)
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("DESIGN.md §9 row %q lists\n  %v\nbut the analyzer covers\n  %v", a.Name, got, want)
		}
		delete(rows, a.Name)
	}
	for name := range rows {
		t.Errorf("DESIGN.md §9 has a row for %q, which is not a registered analyzer", name)
	}
}
