package ear_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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

var (
	// backticked is a code span of Markdown.
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// docPath is a code span naming a file or directory of the repository:
	// one under internal/, cmd/, examples/ or benchmark/, or a Go, assembly,
	// JSON, Markdown, YAML or shell file, bare or under part of its path.
	docPath = regexp.MustCompile(`^(?:\./)?(?:(?:internal|cmd|examples|benchmark)/[\w./-]*|[\w./-]*\.(?:go|s|json|md|yml|sh))$`)
	// docIdent is a code span naming a Go identifier, qualified or not, with
	// an optional call's arguments or a pointer star.
	docIdent = regexp.MustCompile(`^\*?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?$`)
	// lineCite is a citation by line number, which the next edit moves.
	lineCite = regexp.MustCompile(`\b[\w./-]+\.(?:go|s|md|yml|json|sh):\d+`)
	// designCite is a citation of DESIGN.md sections: the quoted names that
	// follow the file's name, with a comma, parentheses or neither.
	designCite = regexp.MustCompile(`DESIGN\.md[,:]?\s*\(?\s*((?:"[^"]+"(?:\s*(?:,|;|and)\s*)?)+)`)
	// selfCite is a reference inside DESIGN.md to one of its own sections.
	selfCite = regexp.MustCompile(`\bsee "([^"]+)"`)
	quoted   = regexp.MustCompile(`"([^"]+)"`)
	heading  = regexp.MustCompile(`(?m)^#+\s+(.+)$`)
	bold     = regexp.MustCompile(`\*\*([^*]+)\*\*`)
	// commentBreak is a line break inside a comment, a Go or a YAML one.
	commentBreak = regexp.MustCompile(`\n\s*(?://|#)?\s*`)
	// asmFunc declares a function in a Go assembly file.
	asmFunc = regexp.MustCompile(`(?m)^TEXT\s+·(\w+)`)
)

// outsideNames are names DESIGN.md cites in code spans that no file of this
// repository declares because another system does.
var outsideNames = map[string]bool{
	"considerLoad": true, // HDFS's check that skips busy DataNodes
}

// outsideQualifiers are the standard library packages, and the testing
// receivers t and m, whose members DESIGN.md names.
var outsideQualifiers = map[string]bool{
	"context": true, "os": true, "rand": true, "runtime": true, "sync": true,
	"synctest": true, "time": true, "t": true, "m": true,
}

// TestDocsNameRealTests fails when DESIGN.md, README.md or EXPERIMENTS.md
// names a Test, Benchmark or Fuzz function that no _test.go file in the
// repository defines, so a rename or a deletion cannot leave the docs
// pointing at nothing. DESIGN.md is held further: every path and Go name it
// puts in a code span exists, it cites no line numbers, and every citation of
// one of its sections, in the docs, the Go comments, CI and the build notes,
// names a heading or a bold label it has.
func TestDocsNameRealTests(t *testing.T) {
	defined := make(map[string]bool)
	declared := make(map[string]bool)
	inPackage := make(map[string]map[string]bool) // package name → its names
	var files []string
	goSources := make(map[string][]byte)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() {
			return nil
		}
		files = append(files, filepath.ToSlash(path))
		switch {
		case strings.HasSuffix(path, ".go"):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			goSources[filepath.ToSlash(path)] = src
			for _, m := range definedTestFunc.FindAllSubmatch(src, -1) {
				defined[string(m[1])] = true
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declaredIn(f, declared)
			pkg := strings.TrimSuffix(f.Name.Name, "_test")
			if inPackage[pkg] == nil {
				inPackage[pkg] = make(map[string]bool)
			}
			declaredIn(f, inPackage[pkg])
		case strings.HasSuffix(path, ".s"):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range asmFunc.FindAllSubmatch(src, -1) {
				declared[string(m[1])] = true
			}
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
	read := func(doc string) string {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		for i, line := range strings.Split(read(doc), "\n") {
			for _, name := range docTestName.FindAllString(line, -1) {
				if !matches(name) {
					t.Errorf("%s:%d names %s, which no _test.go defines", doc, i+1, name)
				}
			}
		}
	}

	design := read("DESIGN.md")
	exists := func(p string) bool {
		p = strings.TrimPrefix(strings.TrimSuffix(p, "/..."), "./")
		if _, err := os.Stat(p); err == nil {
			return true
		}
		for _, f := range files {
			if strings.HasSuffix(f, "/"+p) {
				return true
			}
		}
		return false
	}
	for i, line := range strings.Split(design, "\n") {
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			span := m[1]
			if docPath.MatchString(span) {
				if !exists(span) {
					t.Errorf("DESIGN.md:%d names the path %s, which does not exist", i+1, span)
				}
				continue
			}
			id := docIdent.FindStringSubmatch(span)
			if id == nil || !strings.ContainsAny(id[1], "ABCDEFGHIJKLMNOPQRSTUVWXYZ") ||
				!strings.ContainsAny(id[1], "abcdefghijklmnopqrstuvwxyz") {
				continue // not a Go name, or an all-caps word
			}
			parts := strings.Split(id[1], ".")
			if outsideQualifiers[parts[0]] || outsideNames[id[1]] {
				continue
			}
			if names := inPackage[parts[0]]; names != nil && len(parts) > 1 {
				// A package's member must be declared in that package.
				if !names[parts[1]] {
					t.Errorf("DESIGN.md:%d names %s, and package %s declares no %s", i+1, span, parts[0], parts[1])
				}
				parts = parts[2:]
			}
			for _, p := range parts {
				if !declared[p] {
					t.Errorf("DESIGN.md:%d names %s, and no .go or .s file declares %s", i+1, span, p)
				}
			}
		}
		for _, cite := range lineCite.FindAllString(line, -1) {
			t.Errorf("DESIGN.md:%d cites %s by line number", i+1, cite)
		}
	}

	labels := make(map[string]bool)
	for _, m := range heading.FindAllStringSubmatch(design, -1) {
		labels[label(m[1])] = true
	}
	for _, m := range bold.FindAllStringSubmatch(design, -1) {
		labels[label(m[1])] = true
	}
	for _, m := range selfCite.FindAllStringSubmatch(design, -1) {
		if !labels[label(m[1])] {
			t.Errorf("DESIGN.md refers to its section %q, which it does not have", m[1])
		}
	}
	citing := map[string]string{
		"README.md":                read("README.md"),
		"EXPERIMENTS.md":           read("EXPERIMENTS.md"),
		"ROADMAP.md":               read("ROADMAP.md"),
		".github/workflows/ci.yml": read(".github/workflows/ci.yml"),
	}
	if src, err := os.ReadFile(".claude/skills/verify/SKILL.md"); err == nil {
		citing[".claude/skills/verify/SKILL.md"] = string(src)
	}
	for path, src := range goSources {
		if path != "docnames_test.go" { // whose patterns are not citations
			citing[path] = string(src)
		}
	}
	for doc, src := range citing {
		src = commentBreak.ReplaceAllString(src, " ")
		for _, m := range designCite.FindAllStringSubmatch(src, -1) {
			for _, q := range quoted.FindAllStringSubmatch(m[1], -1) {
				if !labels[label(q[1])] {
					t.Errorf("%s cites DESIGN.md, %q, which is no heading or bold label of it", doc, q[1])
				}
			}
		}
	}
}

// declaredIn adds to declared every name f declares: its package, functions,
// methods, types, constants, variables, struct fields, interface methods,
// parameters, results and the variables of := and range.
func declaredIn(f *ast.File, declared map[string]bool) {
	declared[f.Name.Name] = true
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			declared[n.Name.Name] = true
		case *ast.TypeSpec:
			declared[n.Name.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declared[id.Name] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				declared[id.Name] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						declared[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						declared[id.Name] = true
					}
				}
			}
		}
		return true
	})
}

// label normalises a heading, a bold label or a cited section name: spaces
// collapsed, trailing punctuation dropped.
func label(s string) string {
	return strings.TrimRight(strings.Join(strings.Fields(s), " "), ".:")
}
