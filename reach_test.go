package dxbsp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllow lists exported internal functions and methods that no
// binary, example or benchmark calls but that stay, each with its reason.
// A key is "pkg.Func" or "pkg.Type.Method", with pkg the directory under
// internal/.
var reachAllow = map[string]string{
	"sim.RunReference":                "independent per-clock oracle the engine tests compare against",
	"sim.NewEngine":                   "event engine kept as the oracle the lockstep walk is checked against",
	"qrqw.SlowdownBoundLowExpansion":  "Theorem 5.1; the F8 test checks simulated slowdowns against it",
	"qrqw.StepTimeBoundHighExpansion": "Theorem 5.2; the F9 test checks simulated slowdowns against it",
	"tablefmt.Table.NumRows":          "accessor the experiments tests use to size rendered tables",
}

// implicitMethods are method names the standard library calls through an
// interface (error, fmt.Stringer, errors.Is/As, json.Marshaler, sort and
// heap), so no selector in this module names the call.
var implicitMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// reachDecl is one package-level function, method or variable.
type reachDecl struct {
	key  string    // "importpath.Name" or "importpath.Type.Method"
	node ast.Node  // walked for references once the declaration is reached
	file *ast.File // for resolving import names
	pkg  string    // import path of the declaring package
}

// TestEveryInternalExportIsReached fails on any exported function or
// method under internal/ that nothing reaches from cmd/, examples/ or
// bench/. Reachability is by name over non-test files: a package-level
// function or variable is reached through an unqualified identifier in
// its own package or a pkg.Name selector, and a method through any
// selector with its name, whatever the receiver.
func TestEveryInternalExportIsReached(t *testing.T) {
	const module = "dxbsp"
	fset := token.NewFileSet()
	var decls []*reachDecl
	byKey := map[string][]*reachDecl{}   // functions and variables
	methods := map[string][]*reachDecl{} // by method name
	var roots []*reachDecl
	add := func(d *reachDecl, method string, root bool) {
		decls = append(decls, d)
		if method != "" {
			methods[method] = append(methods[method], d)
		} else {
			byKey[d.key] = append(byKey[d.key], d)
		}
		if root {
			roots = append(roots, d)
		}
	}
	err := filepath.WalkDir(".", func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			if n := de.Name(); path != "." && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := module
		if dir != "." {
			pkg = module + "/" + dir
		}
		top := strings.SplitN(dir, "/", 2)[0]
		root := top == "cmd" || top == "examples" || top == "bench"
		for _, decl := range f.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				d := &reachDecl{key: pkg + "." + dd.Name.Name, node: dd, file: f, pkg: pkg}
				method := ""
				if dd.Recv != nil {
					method = dd.Name.Name
					d.key = pkg + "." + recvName(dd.Recv.List[0].Type) + "." + method
				}
				add(d, method, root || (dd.Recv == nil && dd.Name.Name == "init"))
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(&reachDecl{key: pkg + "." + n.Name, node: s, file: f, pkg: pkg}, "", root || n.Name == "_")
						}
					case *ast.TypeSpec:
						// Types are always walked: their field and
						// method-set references cost nothing to keep.
						add(&reachDecl{key: pkg + "." + s.Name.Name, node: s, file: f, pkg: pkg}, "", true)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reached := map[*reachDecl]bool{}
	work := append([]*reachDecl(nil), roots...)
	for _, d := range roots {
		reached[d] = true
	}
	mark := func(ds []*reachDecl) {
		for _, d := range ds {
			if !reached[d] {
				reached[d] = true
				work = append(work, d)
			}
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		imports := map[string]string{}
		for _, im := range d.file.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				mark(methods[x.Sel.Name])
				if id, ok := x.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						mark(byKey[p+"."+x.Sel.Name])
						return false
					}
				}
			case *ast.Ident:
				mark(byKey[d.pkg+"."+x.Name])
			}
			return true
		})
	}

	var dead []string
	for _, d := range decls {
		rel, ok := strings.CutPrefix(d.key, module+"/internal/")
		if !ok || reached[d] {
			continue
		}
		fn, isFunc := d.node.(*ast.FuncDecl)
		if !isFunc || !fn.Name.IsExported() {
			continue
		}
		if fn.Recv != nil && implicitMethods[fn.Name.Name] {
			continue
		}
		if _, ok := reachAllow[rel]; ok {
			continue
		}
		dead = append(dead, rel)
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("exported %s is reached from no binary, example or benchmark: delete it, move it into a test file, or allowlist it with a reason", k)
	}
	for k := range reachAllow {
		found := false
		for _, d := range decls {
			if strings.TrimPrefix(d.key, module+"/internal/") == k {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("allowlisted %s no longer exists: drop its entry", k)
		}
	}
}

// recvName returns the type name of a method receiver, without pointer
// or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
