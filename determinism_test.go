package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// simPackages are the packages whose code runs inside the simulation: a
// range over a Go map there visits keys in a random order, so any effect
// of that order on the event schedule would break determinism.
var simPackages = []string{"sim", "core", "order", "fabric", "ssd", "blockdev", "stack"}

// mapRangeAllowed names the functions allowed to range over a map, each
// because it sorts what it collects before anything reads it.
var mapRangeAllowed = map[string]bool{
	"ssd.(*SSD).DurableLBAs": true,
}

// TestNoMapRangeInSimulation type-checks the non-test files of every
// simulation package and fails on any `for … range` over a map-typed
// expression outside the allow-list: simulation state is iterated in key
// order by construction (DESIGN.md §1).
func TestNoMapRangeInSimulation(t *testing.T) {
	fset := token.NewFileSet()
	imp := &srcImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{}}
	var found []string
	for _, name := range simPackages {
		files, err := parseDir(fset, filepath.Join("internal", name))
		if err != nil {
			t.Fatal(err)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check("repro/internal/"+name, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", name, err)
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
						return true
					}
					if site := funcName(name, fn); !mapRangeAllowed[site] {
						found = append(found, fmt.Sprintf("%s: %s ranges over a map", fset.Position(rs.Pos()), site))
					}
					return true
				})
			}
		}
	}
	sort.Strings(found)
	for _, s := range found {
		t.Error(s)
	}
}

// funcName renders a function as pkg.Func or pkg.(*Recv).Method.
func funcName(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	star := ""
	if s, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", s.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	return fmt.Sprintf("%s.(%s%s).%s", pkg, star, recv.(*ast.Ident).Name, fn.Name.Name)
}

// parseDir parses the non-test Go files of one package directory.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		n := e.Name()
		if !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// srcImporter type-checks this module's packages from their source and
// hands every other import to the standard library's source importer.
type srcImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package
}

func (s *srcImporter) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, "repro/")
	if !ok {
		return s.std.Import(path)
	}
	if p := s.pkgs[path]; p != nil {
		return p, nil
	}
	files, err := parseDir(s.fset, filepath.FromSlash(rel))
	if err != nil {
		return nil, err
	}
	p, err := (&types.Config{Importer: s}).Check(path, s.fset, files, nil)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = p
	return p, nil
}
