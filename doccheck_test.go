package morphstore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedSymbolsDocumented is the doc-lint gate over the public API and
// the engine-internal packages a contributor navigates first (the revive
// `exported` rule, implemented with go/ast so it runs in plain `go test`
// with zero dependencies): every exported top-level identifier of the gated
// packages must carry a doc comment, so that `go doc` on each reads as a
// complete reference. Methods are exempt (the type's doc carries the
// contract). CI runs this test as an explicit step; see
// .github/workflows/ci.yml.
func TestExportedSymbolsDocumented(t *testing.T) {
	// The gated packages: the public root plus the internals the
	// observability and execution layers span.
	dirs := []string{".", "internal/metrics", "internal/ops", "internal/core", "internal/qerr", "internal/delta", "internal/dict", "internal/ingest", "internal/wal"}
	var missing []string
	for _, dir := range dirs {
		missing = append(missing, undocumentedIn(t, dir)...)
	}
	if len(missing) > 0 {
		t.Errorf("exported identifiers without doc comments:\n  %s", strings.Join(missing, "\n  "))
	}
}

// undocumentedIn parses one package directory and returns a report line for
// every exported top-level identifier lacking a doc comment.
func undocumentedIn(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Base(dir)
	if dir == "." {
		want = "morphstore"
	}
	pkg, ok := pkgs[want]
	if !ok {
		t.Fatalf("package %s not found in %s", want, dir)
	}
	var missing []string
	report := func(pos token.Pos, what, name string) {
		missing = append(missing, fset.Position(pos).String()+": "+what+" "+name)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() && d.Doc == nil {
					report(d.Pos(), "func", d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok == token.IMPORT {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
							report(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						// A const/var is documented by its declaration's doc
						// (which for a grouped block is the block comment —
						// the Go convention for enum lists) or per spec (doc
						// or line comment).
						if d.Doc != nil || s.Doc != nil || s.Comment != nil {
							continue
						}
						for _, name := range s.Names {
							if name.IsExported() {
								report(name.Pos(), "const/var", name.Name)
							}
						}
					}
				}
			}
		}
	}
	return missing
}

// TestNoDeprecatedMarkers keeps the public root and internal/core at one way
// to do each thing: a name that would earn a "// Deprecated:" marker there is
// deleted together with its in-repo callers instead of kept as a second path.
func TestNoDeprecatedMarkers(t *testing.T) {
	for _, dir := range []string{".", "internal/core"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				if strings.Contains(line, "// Deprecated:") {
					t.Errorf("%s:%d: deprecated name kept in non-test code: %s", file, i+1, strings.TrimSpace(line))
				}
			}
		}
	}
}
