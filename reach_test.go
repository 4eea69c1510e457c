package dxbsp

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
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
// interface the value was converted to (error, fmt.Stringer, errors.Is/As,
// json.Marshaler, sort and heap), so no call in this module names them.
// Every method with one of these names is walked as a root.
var implicitMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// reachPkg is one type-checked package of the module.
type reachPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// reachImporter type-checks the module's own packages from their non-test
// files, once each, so that every package resolves a reference to the
// same object; the standard library comes from the source importer.
type reachImporter struct {
	fset *token.FileSet
	dirs map[string]string // module import path -> directory
	pkgs map[string]*reachPkg
	std  types.Importer
}

func (im *reachImporter) Import(path string) (*types.Package, error) {
	dir, ok := im.dirs[path]
	if !ok {
		return im.std.Import(path)
	}
	if p := im.pkgs[path]; p != nil {
		return p.types, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: im}
	if p.types, err = conf.Check(path, im.fset, p.files, p.info); err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p.types, nil
}

// TestEveryInternalExportIsReached fails on any exported function or
// method under internal/ that no binary, example or benchmark reaches.
// The walk is typed (go/types): it starts at every main package's main,
// every init, every blank package-level variable and every method the
// standard library may call implicitly, and follows each resolved use of
// a function, method, package-level variable or type. A method called on
// a concrete type reaches only that type's method; one called through an
// interface reaches the method of each implementing module type that
// reached code names.
func TestEveryInternalExportIsReached(t *testing.T) {
	const module = "dxbsp"
	fset := token.NewFileSet()
	im := &reachImporter{fset: fset, dirs: map[string]string{}, pkgs: map[string]*reachPkg{},
		std: importer.ForCompiler(fset, "source", nil)}
	err := filepath.WalkDir(".", func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() {
			return nil
		}
		if n := de.Name(); path != "." && (n == "testdata" || strings.HasPrefix(n, ".")) {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			dir := filepath.ToSlash(path)
			if dir == "." {
				im.dirs[module] = path
			} else {
				im.dirs[module+"/"+dir] = path
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(im.dirs))
	for p := range im.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := im.Import(p); err != nil {
			t.Fatalf("type-checking %s: %v", p, err)
		}
	}

	// Every function, method, package-level variable and type, with the
	// node walked once it is reached.
	type decl struct {
		node ast.Node
		info *types.Info
	}
	decls := map[types.Object]decl{}
	var roots []types.Object
	for _, path := range paths {
		p := im.pkgs[path]
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch dd := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[dd.Name]
					decls[obj] = decl{dd, p.info}
					isMain := dd.Recv == nil && dd.Name.Name == "main" && p.types.Name() == "main"
					if isMain || (dd.Recv == nil && dd.Name.Name == "init") || (dd.Recv != nil && implicitMethods[dd.Name.Name]) {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, spec := range dd.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							decls[p.info.Defs[s.Name]] = decl{s, p.info}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								obj := p.info.Defs[n]
								decls[obj] = decl{s, p.info}
								if n.Name == "_" { // initialised for its effect; nothing names it
									roots = append(roots, obj)
								}
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if _, ok := decls[obj]; ok && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	// An interface call reaches its method on every live type, a module
	// type that reached code names, whose value or pointer implements the
	// interface; a type that turns live later picks up the calls made so
	// far.
	type ifaceCall struct {
		m     *types.Func
		iface *types.Interface
	}
	var calls []ifaceCall
	var live []*types.Named
	called := map[*types.Func]bool{}
	dispatch := func(n *types.Named, c ifaceCall) {
		var recv types.Type = n
		if !types.Implements(recv, c.iface) {
			if recv = types.NewPointer(n); !types.Implements(recv, c.iface) {
				return
			}
		}
		if obj, _, _ := types.LookupFieldOrMethod(recv, true, c.m.Pkg(), c.m.Name()); obj != nil {
			mark(obj)
		}
	}
	for _, obj := range roots {
		mark(obj)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if n, ok := obj.Type().(*types.Named); ok && !types.IsInterface(n) {
			if _, isType := obj.(*types.TypeName); isType {
				live = append(live, n)
				for _, c := range calls {
					dispatch(n, c)
				}
			}
		}
		d := decls[obj]
		ast.Inspect(d.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch u := d.info.Uses[id].(type) {
			case *types.Func:
				recv := u.Type().(*types.Signature).Recv()
				if recv == nil || !types.IsInterface(recv.Type()) {
					mark(u)
				} else if !called[u] {
					called[u] = true
					c := ifaceCall{u, recv.Type().Underlying().(*types.Interface)}
					calls = append(calls, c)
					for _, n := range live {
						dispatch(n, c)
					}
				}
			case *types.Var:
				if u.Pkg() != nil && u.Parent() == u.Pkg().Scope() {
					mark(u)
				}
			case *types.TypeName:
				mark(u)
			}
			return true
		})
	}

	keys := map[string]bool{}
	var dead []string
	for obj := range decls {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		rel, ok := strings.CutPrefix(fn.Pkg().Path(), module+"/internal/")
		if !ok {
			continue
		}
		key := rel + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			key = rel + "." + recvName(recv.Type()) + "." + fn.Name()
		}
		keys[key] = true
		if reached[obj] || !fn.Exported() {
			continue
		}
		if _, ok := reachAllow[key]; ok {
			continue
		}
		dead = append(dead, key)
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("exported %s is reached from no binary, example or benchmark: delete it, move it into a test file, or allowlist it with a reason", k)
	}
	for k := range reachAllow {
		if !keys[k] {
			t.Errorf("allowlisted %s no longer exists: drop its entry", k)
		}
	}
}

// recvName returns the type name of a method receiver, without pointer
// or type parameters.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return "?"
}
