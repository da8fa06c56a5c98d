package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runFixture loads testdata/src/<name>, runs the analyzers over it (with
// waiver processing, ignoring their package targeting), and checks the
// resulting diagnostics against the fixture's `// want "regexp"`
// comments, analysistest-style: every diagnostic must match a want on
// its line, and every want must be hit by a diagnostic. It returns the
// diagnostics for additional assertions.
func runFixture(t *testing.T, name string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	l := newLoader(filepath.Join("testdata", "src"), "fixture")
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	diags := RunFixture(l, pkg, analyzers...)
	checkWants(t, pkg, diags)
	return diags
}

type wantKey struct {
	file string
	line int
}

// wantRE matches the expectation marker inside a comment's text. It may
// be the whole comment (`// want "re"`) or ride behind other content,
// as on a waiver line (`//mclint:x // want "re"`).
var wantRE = regexp.MustCompile("(?:^|\\s)want\\s+((?:[\"`].*)$)")

func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := wantKey{pos.Filename, pos.Line}
				for _, pat := range parseWantPatterns(t, pos.Filename, pos.Line, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}

	matched := map[wantKey][]bool{}
	for _, d := range diags {
		key := wantKey{d.File, d.Line}
		res := wants[key]
		if matched[key] == nil {
			matched[key] = make([]bool, len(res))
		}
		found := false
		for i, re := range res {
			if !matched[key][i] && re.MatchString(d.Message) {
				matched[key][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic (no matching want): %s: %s", d, d.Analyzer, d.Message)
		}
	}
	for key, res := range wants {
		for i, re := range res {
			if matched[key] == nil || !matched[key][i] {
				t.Errorf("%s:%d: no diagnostic matched want %q", key.file, key.line, re)
			}
		}
	}
}

// parseWantPatterns splits `"re1" "re2"` (double- or backquoted) into
// the individual regexp sources.
func parseWantPatterns(t *testing.T, file string, line int, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var pat string
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '"' && s[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern %q", file, line, s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", file, line, s[:end+1], err)
			}
			pat, s = unq, s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern %q", file, line, s)
			}
			pat, s = s[1:end+1], s[end+2:]
		default:
			t.Fatalf("%s:%d: want patterns must be quoted, got %q", file, line, s)
		}
		out = append(out, pat)
		s = strings.TrimSpace(s)
	}
	return out
}

// diagnosticSummary is a debugging aid for failed fixture assertions.
func diagnosticSummary(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&sb, "  %s\n", d)
	}
	return sb.String()
}
