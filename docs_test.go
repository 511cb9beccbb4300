package hbspk

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameOnlyTestsThatExist holds README.md, DESIGN.md,
// EXPERIMENTS.md, the verify skill's notes and every Go comment outside
// benchmark/ (testdata included) to the module's own tests: a name of
// the form Test…, Benchmark…, Fuzz… or Example… there must be one a
// _test.go file declares, and a name with a trailing * must prefix one.
// README.md, DESIGN.md and EXPERIMENTS.md are also held to the root
// package: each hbspk.Name there must be one a non-test file of the root
// package declares. CHANGES.md and ROADMAP.md are history and are not
// read.
func TestDocsNameOnlyTestsThatExist(t *testing.T) {
	declared := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)[\[(]`)
	named := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*\*?`)
	rootNamed := regexp.MustCompile(`\bhbspk\.([A-Z]\w*)`)

	type line struct {
		where, text string
		api         bool // a document held to the root package's names
	}
	var lines []line
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range strings.Split(string(b), "\n") {
			lines = append(lines, line{doc + ":" + strconv.Itoa(i+1), text, !strings.HasPrefix(doc, ".")})
		}
	}
	have, root := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path == ".git":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range declared.FindAllSubmatch(src, -1) {
				have[string(m[1])] = true
			}
		} else if filepath.Dir(path) == "." {
			f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						root[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							root[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								root[n.Name] = true
							}
						}
					}
				}
			}
		}
		if strings.HasPrefix(filepath.ToSlash(path), "benchmark/") {
			return nil
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.COMMENT {
				continue
			}
			first := fset.Position(pos).Line
			for i, text := range strings.Split(lit, "\n") {
				lines = append(lines, line{path + ":" + strconv.Itoa(first+i), text, false})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(have) == 0 || len(root) == 0 {
		t.Fatal("no test function or root declaration found: the walk read nothing")
	}
	var names []string
	for name := range have {
		names = append(names, name)
	}
	sort.Strings(names)
	exists := func(name string) bool {
		prefix, isPrefix := strings.CutSuffix(name, "*")
		if !isPrefix {
			return have[name]
		}
		i := sort.SearchStrings(names, prefix)
		return i < len(names) && strings.HasPrefix(names[i], prefix)
	}
	for _, l := range lines {
		for _, name := range named.FindAllString(l.text, -1) {
			if !exists(name) {
				t.Errorf("%s names %s, which no _test.go file declares", l.where, name)
			}
		}
		if !l.api {
			continue
		}
		for _, m := range rootNamed.FindAllStringSubmatch(l.text, -1) {
			if !root[m[1]] {
				t.Errorf("%s names hbspk.%s, which the root package does not declare", l.where, m[1])
			}
		}
	}
}
