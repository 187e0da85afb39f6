package storage_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// storageInterfaces is the whole interface surface of the package: the read
// contract (DESIGN.md §18).
var storageInterfaces = map[string]bool{"Backend": true}

// parseNonTest parses every non-test Go file under root, skipping the
// benchmark module and dot-directories, and calls visit with each file's
// slash-separated path relative to root.
func parseNonTest(t *testing.T, root string, visit func(rel string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(rel, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// layerConstructors are the constructors of the layers above a leaf: outside
// each layer's own package, only the chain table (internal/chain) calls them.
var layerConstructors = map[string]bool{
	"tiering.NewBackend":          true,
	"storage.NewResilientBackend": true,
	"trace.NewRecorder":           true,
}

// TestStorageSurface keeps the extension lattice from growing back: the
// package declares exactly its one interface, nothing discovers a storage
// capability by type assertion, and no builder wires a layer by hand. A new per-request
// capability belongs in Request / Response; a new layer implements Read +
// Size, becomes a row of chain.Layers and joins the conformance table.
func TestStorageSurface(t *testing.T) {
	declared := map[string]bool{}
	var assertions, handWired []string
	parseNonTest(t, "../..", func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		inStorage := dir == "internal/storage"
		// storageType reports the storage type an assertion names: qualified
		// anywhere, or one of the package's own interfaces inside it.
		storageType := func(e ast.Expr) (string, bool) {
			if star, ok := e.(*ast.StarExpr); ok {
				e = star.X
			}
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "storage" {
					return sel.Sel.Name, true
				}
			}
			if id, ok := e.(*ast.Ident); ok && inStorage && storageInterfaces[id.Name] {
				return id.Name, true
			}
			return "", false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && dir != "internal/chain" {
					if pkg, ok := sel.X.(*ast.Ident); ok && layerConstructors[pkg.Name+"."+sel.Sel.Name] {
						handWired = append(handWired, rel+": "+pkg.Name+"."+sel.Sel.Name)
					}
				}
			case *ast.TypeSpec:
				if _, ok := n.Type.(*ast.InterfaceType); ok && inStorage {
					declared[n.Name.Name] = true
				}
			case *ast.TypeAssertExpr:
				if n.Type != nil { // nil is the x.(type) of a type switch
					if name, ok := storageType(n.Type); ok {
						assertions = append(assertions, rel+": "+name)
					}
				}
			case *ast.TypeSwitchStmt:
				for _, clause := range n.Body.List {
					for _, e := range clause.(*ast.CaseClause).List {
						if name, ok := storageType(e); ok {
							assertions = append(assertions, rel+": case "+name)
						}
					}
				}
			}
			return true
		})
	})
	for name := range declared {
		if !storageInterfaces[name] {
			t.Errorf("internal/storage declares interface %s: the read surface is Backend; carry per-request capabilities in Request/Response instead", name)
		}
	}
	for name := range storageInterfaces {
		if !declared[name] {
			t.Errorf("internal/storage no longer declares interface %s", name)
		}
	}
	if len(assertions) != 0 {
		t.Errorf("type assertions to storage types in non-test code = %q, want none", assertions)
	}
	if len(handWired) != 0 {
		t.Errorf("layer constructors called outside internal/chain = %q: fold chain.Layers instead", handWired)
	}
}
