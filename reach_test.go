package parmm

import (
	"go/ast"
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

// reachAllowed names the internal declarations that no non-test file
// reaches but that stay, each with its reason: helpers the tests of several
// packages share, and the equal-block collective wrappers the fuzz target
// and the root benchmarks call.
var reachAllowed = map[string]string{
	"internal/collective.Group.AllGather":     "BenchmarkCollectiveAllGather and FuzzAllGatherReduceScatterDuality gather equal blocks with it",
	"internal/collective.Group.ReduceScatter": "FuzzAllGatherReduceScatterDuality reduce-scatters equal chunks with it",
	"internal/kkt.Residuals.Max":              "core's Lemma 2 certificate test and kkt's tests bound the largest KKT residual",
	"internal/machine.TrafficMatrix.Words":    "algs' fiber-locality test and machine's trace test read per-pair traffic",
	"internal/matrix.Dense.Equal":             "algs, caps and matrix tests compare products with it",
	"internal/matrix.Indexed":                 "caps and matrix tests check data placement with position-encoded entries",
}

// TestReachable type-checks every non-test package of the module together
// with the bench/ module that drives it, and fails naming each package-level
// declaration under internal/ that no non-test code reaches. Everything
// outside internal/ (commands, examples, bench/ and the public facade) is a
// root, as are init functions; a declaration is reached when a reached
// declaration refers to it. A method of a reached type is also reached when
// it implements a method of an interface that reached code names, since a
// dynamic call names only the interface's method. For the interfaces of
// the standard library, whose callers are not type-checked here,
// satisfying the interface is enough.
func TestReachable(t *testing.T) {
	fset := token.NewFileSet()
	l := &reachLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*reachPkg{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	// bench/ is the module repro/bench, so directory paths name every
	// package of both modules.
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, p := range pkgs {
			ip := "repro"
			if path != "." {
				ip += "/" + filepath.ToSlash(path)
			}
			rp := &reachPkg{path: ip}
			for _, f := range p.Files {
				rp.files = append(rp.files, f)
			}
			sort.Slice(rp.files, func(i, j int) bool { return rp.files[i].Pos() < rp.files[j].Pos() })
			l.pkgs[ip] = rp
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range l.pkgs {
		if _, err := l.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	// Nodes are the internal declarations; edges run from a declaration to
	// everything its syntax refers to.
	edges := map[types.Object][]types.Object{}
	nodes := map[types.Object]string{}
	var roots []types.Object
	refs := func(n ast.Node) []types.Object {
		var out []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := l.info.Uses[id]; o != nil {
					out = append(out, reachOrigin(o))
				}
			}
			return true
		})
		return out
	}
	for _, p := range l.pkgs {
		internal := strings.HasPrefix(p.path, "repro/internal/")
		for _, f := range p.files {
			if !internal {
				roots = append(roots, refs(f)...)
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					o := l.info.Defs[d.Name]
					if d.Recv == nil && d.Name.Name == "init" {
						roots = append(roots, refs(d)...)
						continue
					}
					nodes[o] = reachName(o)
					edges[o] = refs(d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							o := l.info.Defs[s.Name]
							nodes[o] = reachName(o)
							edges[o] = refs(s)
						case *ast.ValueSpec:
							r := refs(s)
							for _, n := range s.Names {
								if o := l.info.Defs[n]; o != nil && n.Name != "_" {
									nodes[o] = reachName(o)
									edges[o] = r
								}
							}
						}
					}
				}
			}
		}
	}

	var ifaces []*types.Interface
	seenIface := map[*types.Interface]bool{}
	addIface := func(tp types.Type) {
		if it, ok := tp.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, tv := range l.info.Types {
		addIface(tv.Type)
	}
	seenPkg := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range l.pkgs {
		walk(p.pkg)
	}
	// moduleMethod reports whether m was declared in this module (or in
	// bench/), rather than in the standard library.
	moduleMethod := func(m *types.Func) bool {
		return m.Pkg() != nil && (m.Pkg().Path() == "repro" || strings.HasPrefix(m.Pkg().Path(), "repro/"))
	}
	// implementing lists tn's methods that implement the methods ms of it,
	// when tn satisfies it.
	implementing := func(tn *types.TypeName, it *types.Interface, ms []*types.Func) []types.Object {
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			return nil
		}
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, it) {
			return nil
		}
		var out []types.Object
		for _, im := range ms {
			if m, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name()); m != nil {
				out = append(out, reachOrigin(m))
			}
		}
		return out
	}
	mark := func(roots []types.Object) map[types.Object]bool {
		reached := map[types.Object]bool{}
		var reachedTypes []*types.TypeName
		work := append([]types.Object(nil), roots...)
		for len(work) > 0 {
			o := work[len(work)-1]
			work = work[:len(work)-1]
			if reached[o] {
				continue
			}
			reached[o] = true
			work = append(work, edges[o]...)
			switch o := o.(type) {
			case *types.TypeName:
				reachedTypes = append(reachedTypes, o)
				for _, it := range ifaces {
					var ms []*types.Func
					for i := 0; i < it.NumMethods(); i++ {
						if m := it.Method(i); !moduleMethod(m) || reached[m] {
							ms = append(ms, m)
						}
					}
					work = append(work, implementing(o, it, ms)...)
				}
			case *types.Func:
				// A named interface method: every reached type that
				// satisfies its interface now reaches its implementation.
				recv := o.Type().(*types.Signature).Recv()
				if recv == nil || !moduleMethod(o) {
					break
				}
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					for _, tn := range reachedTypes {
						work = append(work, implementing(tn, it, []*types.Func{o})...)
					}
				}
			}
		}
		return reached
	}

	// Allowlisted helpers are roots too, so what they use counts as
	// reached; an allowlist entry that live code reaches is stale.
	live := mark(roots)
	allowed := append([]types.Object(nil), roots...)
	declared := map[string]bool{}
	for o, name := range nodes {
		if _, ok := reachAllowed[name]; ok {
			declared[name] = true
			if live[o] {
				t.Errorf("allowlisted %s is reached; drop it from reachAllowed", name)
			}
			allowed = append(allowed, o)
		}
	}
	for name := range reachAllowed {
		if !declared[name] {
			t.Errorf("allowlisted %s is not declared; drop it from reachAllowed", name)
		}
	}
	reached := mark(allowed)
	var dead []string
	for o, name := range nodes {
		if !reached[o] {
			dead = append(dead, fset.Position(o.Pos()).String()+": "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is declared but no non-test code reaches it", d)
	}
}

type reachPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
}

// reachLoader type-checks module packages from the parsed files, into one
// shared types.Info, and hands every other import to the standard importer.
type reachLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*reachPkg
	info *types.Info
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.pkg == nil {
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path, l.fset, p.files, l.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

// reachOrigin maps an instantiated generic function, method or field back
// to its declaration.
func reachOrigin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// reachName renders a declaration as internal/pkg.Name or
// internal/pkg.Type.Method.
func reachName(o types.Object) string {
	pkg := strings.TrimPrefix(o.Pkg().Path(), "repro/")
	if f, ok := o.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			return pkg + "." + t.(*types.Named).Obj().Name() + "." + o.Name()
		}
	}
	return pkg + "." + o.Name()
}
