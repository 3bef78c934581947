package faultpoint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryPointHasASite: the chaos suites arm whatever Points returns, so a
// point that is not listed there, or that no code hits, silently tests
// nothing. Every package-level newPoint variable must be listed in points,
// and each must be hit somewhere in the module's non-test code: as the
// receiver of a Hit/MustHit call, or as the argument of a function that
// hits its *faultpoint.Point parameter.
func TestEveryPointHasASite(t *testing.T) {
	fset := token.NewFileSet()
	own := parseDir(t, fset, ".")
	declared, listed := map[string]bool{}, map[string]bool{}
	for _, f := range own {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				s := spec.(*ast.ValueSpec)
				for i, v := range s.Values {
					if call, ok := v.(*ast.CallExpr); ok && isIdent(call.Fun, "newPoint") {
						declared[s.Names[i].Name] = true
					}
					if lit, ok := v.(*ast.CompositeLit); ok && s.Names[i].Name == "points" {
						for _, elt := range lit.Elts {
							if id, ok := elt.(*ast.Ident); ok {
								listed[id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	if len(declared) != len(Points()) {
		t.Fatalf("found %d newPoint variables, Points() returns %d", len(declared), len(Points()))
	}
	for name := range declared {
		if !listed[name] {
			t.Errorf("point %s is not listed in points", name)
		}
	}

	files := moduleFiles(t, fset, filepath.Join("..", ".."))
	// Functions that hit a *faultpoint.Point parameter count as sites for
	// the points passed to them.
	helpers := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && hitsParam(fn) {
				helpers[fn.Name.Name] = true
			}
		}
	}
	hit := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Hit" || sel.Sel.Name == "MustHit") {
				if name := pointRef(sel.X); name != "" {
					hit[name] = true
				}
			}
			if id, ok := call.Fun.(*ast.Ident); ok && helpers[id.Name] {
				for _, arg := range call.Args {
					if name := pointRef(arg); name != "" {
						hit[name] = true
					}
				}
			}
			return true
		})
	}
	var unhit []string
	for name := range declared {
		if !hit[name] {
			unhit = append(unhit, name)
		}
	}
	sort.Strings(unhit)
	if len(unhit) > 0 {
		t.Errorf("points with no Hit/MustHit site in non-test code: %s", strings.Join(unhit, ", "))
	}
}

// parseDir parses the non-test Go files of one directory.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// moduleFiles parses the non-test Go files of the module rooted at root,
// skipping nested modules, hidden directories and testdata.
func moduleFiles(t *testing.T, fset *token.FileSet, root string) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root {
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		files = append(files, parseDir(t, fset, path)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// hitsParam reports whether fn calls Hit or MustHit on one of its
// *faultpoint.Point parameters.
func hitsParam(fn *ast.FuncDecl) bool {
	params := map[string]bool{}
	for _, field := range fn.Type.Params.List {
		star, ok := field.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		if sel, ok := star.X.(*ast.SelectorExpr); ok && isIdent(sel.X, "faultpoint") && sel.Sel.Name == "Point" {
			for _, n := range field.Names {
				params[n.Name] = true
			}
		}
	}
	found := false
	if len(params) > 0 && fn.Body != nil {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Hit" || sel.Sel.Name == "MustHit") {
				if id, ok := sel.X.(*ast.Ident); ok && params[id.Name] {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// pointRef returns X for the expression faultpoint.X, "" for anything else.
func pointRef(e ast.Expr) string {
	if sel, ok := e.(*ast.SelectorExpr); ok && isIdent(sel.X, "faultpoint") {
		return sel.Sel.Name
	}
	return ""
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
