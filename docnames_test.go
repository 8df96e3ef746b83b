package ear_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docTestName matches a test, benchmark or fuzz function named in prose; a
// trailing * names every function with that prefix.
var docTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)

// definedTestFunc matches the declaration of a test, benchmark or fuzz
// function.
var definedTestFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)

// TestDocsNameRealTests fails when DESIGN.md, README.md or EXPERIMENTS.md
// names a Test, Benchmark or Fuzz function that no _test.go file in the
// repository defines, so a rename or a deletion cannot leave the docs
// pointing at nothing.
func TestDocsNameRealTests(t *testing.T) {
	defined := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedTestFunc.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("found no test function in the repository")
	}
	matches := func(name string) bool {
		prefix, ok := strings.CutSuffix(name, "*")
		if !ok {
			return defined[name]
		}
		for d := range defined {
			if strings.HasPrefix(d, prefix) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range docTestName.FindAllString(line, -1) {
				if !matches(name) {
					t.Errorf("%s:%d names %s, which no _test.go defines", doc, i+1, name)
				}
			}
		}
	}
}
