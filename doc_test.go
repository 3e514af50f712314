package repro_test

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

// mentionRE matches a qualified Go mention in prose: a lower-case package
// name, an exported identifier, and optionally one member (`core.Config`,
// `mpc.Cluster.Ask`, `harness.Options.CheckEvery`). An exported second
// segment is what tells a mention from a file name (`forest.go`) or a
// bench metric (`snapshot.full_bytes`).
var mentionRE = regexp.MustCompile(`(^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)

// TestDocMentions resolves every qualified identifier the docs name against
// the declarations of the module, so a rename or a deletion fails here
// instead of leaving a dangling mention. The docs are README.md, the verify
// skill and every doc.go outside bench/ (which only a benchmark change may
// edit). A mention resolves when its package declares the name at package
// level, or declares the type and the member: a method (value or pointer
// receiver), a struct field or an interface method. Test files count.
func TestDocMentions(t *testing.T) {
	decls := map[string]map[string]bool{} // package name → declared names
	docs := []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if d.Name() == "doc.go" && !strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
			docs = append(docs, path)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// An external test package declares into the package it tests.
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		collectDecls(f, decls[pkg])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	mentions := 0
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range mentionRE.FindAllStringSubmatch(line, -1) {
				names, ok := decls[m[2]]
				if !ok {
					continue
				}
				mentions++
				want := m[3]
				if m[4] != "" && !names[m[3]+"."+m[4]] {
					want = m[3] + "." + m[4]
				}
				if !names[want] {
					t.Errorf("%s:%d: %s.%s names no declaration", doc, i+1, m[2], want)
				}
			}
		}
	}
	if mentions == 0 {
		t.Fatal("no qualified mention found in the docs: the scan is broken")
	}
}

// collectDecls records f's package-level names, and Type.Member for its
// methods, struct fields and interface methods.
func collectDecls(f *ast.File, names map[string]bool) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
			} else {
				names[recvType(d.Recv.List[0].Type)+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					var fields *ast.FieldList
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields
					case *ast.InterfaceType:
						fields = ty.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							names[s.Name.Name+"."+n.Name] = true
						}
						if len(fl.Names) == 0 { // embedded: the field is the type name
							names[s.Name.Name+"."+recvType(fl.Type)] = true
						}
					}
				}
			}
		}
	}
}

// recvType returns the bare type name of a receiver or embedded field:
// `*T`, `T[K]` and `pkg.T` all give T.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
