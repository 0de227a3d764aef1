package analysis

// analysistest-style harness: each analyzer has a testdata/<name>/
// directory holding one package of deliberately broken Go source. A
// // want "regexp" comment on a line asserts the analyzer reports exactly
// there, with a message matching the regexp; multiple quoted regexps on one
// want comment assert multiple findings on that line. The harness fails on
// any unexpected diagnostic and on any unmatched want.
//
// Testdata packages type-check against the real repository's export data
// (built once per test binary with `go list -export -deps ./...` from the
// module root), so fixtures may import repro/internal/stream and the
// standard library exactly like production code.

import (
	"bytes"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var wantQuoted = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

// moduleRoot resolves the repository root from the test's working directory
// (the package directory, two levels down).
func moduleRoot(t *testing.T) string {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(out.String())
	if gomod == "" || gomod == "/dev/null" {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

// repoExports builds (once) the importPath → export-data map for every
// repository package and its dependencies.
func repoExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		var pkgs []listedPkg
		pkgs, exportsErr = goList(moduleRoot(t), []string{"./..."})
		exportsMap = make(map[string]string, len(pkgs))
		for _, p := range pkgs {
			if p.Export != "" {
				exportsMap[p.ImportPath] = p.Export
			}
		}
	})
	if exportsErr != nil {
		t.Fatalf("building export map: %v", exportsErr)
	}
	return exportsMap
}

// wantSpec is one expected finding parsed from a // want comment.
type wantSpec struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// runTestdata type-checks testdata/<dir>, runs the analyzer, and matches
// findings against the fixture's want comments.
func runTestdata(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkgDir := filepath.Join("testdata", dir)
	matches, err := filepath.Glob(filepath.Join(pkgDir, "*.go"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no fixture sources in %s (err=%v)", pkgDir, err)
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, repoExports(t))
	files, pkg, info, err := typeCheck(fset, "repro/internal/analysis/testdata/"+dir, "", matches, imp)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}

	// Collect want expectations from comments.
	var wants []*wantSpec
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				specs := wantQuoted.FindAllStringSubmatch(text, -1)
				if len(specs) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range specs {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &wantSpec{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	diags, err := RunAnalyzers([]*Analyzer{a}, fset, files, pkg, info)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	for _, d := range diags {
		if w := matchWant(wants, d.Pos.Filename, d.Pos.Line, d.Message); w != nil {
			w.used = true
			continue
		}
		t.Errorf("unexpected finding %s:%d: %s", d.Pos.Filename, d.Pos.Line, d.Message)
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}
}

// matchWant returns the first unused want on (file, line) whose regexp
// matches message.
func matchWant(wants []*wantSpec, file string, line int, message string) *wantSpec {
	for _, w := range wants {
		if !w.used && w.file == file && w.line == line && w.re.MatchString(message) {
			return w
		}
	}
	return nil
}
