package harmony

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnly is every function of internal/ and the facade that no driver
// reaches and that stays anyway, with the reason. A function only a test
// calls is otherwise deleted with its test.
var testOnly = map[string]string{
	// The facade's online-admission pair: the library's callers drive it,
	// the commands reach the same master methods through internal/ctl.
	"(*harmony.Master).Enqueue": "public API",
	"(*harmony.Master).Cancel":  "public API",
	// Test probes: read-only windows on state a test must see.
	"(*harmony/internal/simtime.Engine).Step":          "probe",
	"(*harmony/internal/simtime.Engine).RunAll":        "probe",
	"(*harmony/internal/simtime.Engine).Halt":          "probe",
	"(*harmony/internal/sim.resource).idle":            "probe",
	"(*harmony/internal/obs.Recorder).LastSeq":         "probe",
	"(*harmony/internal/metrics.UtilRecorder).AddBusy": "probe",
	"(*harmony/internal/subtask.Executor).QueueDepths": "probe",
	"(*harmony/internal/subtask.Executor).Stats":       "probe",
	"(*harmony/internal/memstore.Store).StallSeconds":  "probe",
	"(*harmony/internal/profile.Store).Len":            "probe",
	"(*harmony/internal/worker.blockCache).stats":      "probe",
	"(*harmony/internal/rpc.Server).Addr":              "probe",
	"harmony/internal/exp.Concurrency":                 "probe (saves what SetConcurrency overwrites)",
}

// testOnlyFields is every option field (see TestEveryOptionHasADriver)
// that no driver writes and that stays anyway, with the reason. A field
// every caller leaves alone otherwise carries one value and goes.
var testOnlyFields = map[string]string{
	"harmony/internal/sim.Config.DisablePipelining": "the one switch that isolates §IV-A pipelining in TestHarmonyPipeliningAblation",
	"harmony/internal/core.Options.CPUWeight":       "the v1 snapshot schema and its fixtures carry cpu_weight",
	"harmony.TrainingConfig.LearningRate":           "a job hyperparameter; POST /v1/jobs sets the same mlapp.Config field",
}

// module type-checks the repository's non-test Go from source: harmony/...
// import paths resolve to directories under the root (which is also what
// benchmarks/go.mod's replace says), everything else is the standard
// library.
type module struct {
	fset *token.FileSet
	std  types.Importer
	info *types.Info
	pkgs map[string]*types.Package
	decl map[string][]*ast.File // import path -> its files
}

func (m *module) Import(path string) (*types.Package, error) {
	if path != "harmony" && !strings.HasPrefix(path, "harmony/") {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(".", strings.TrimPrefix(strings.TrimPrefix(path, "harmony"), "/"))
	parsed, err := parser.ParseDir(m.fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range parsed {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	m.pkgs[path], m.decl[path] = pkg, files
	return pkg, err
}

// driverWalk is what a walk from the drivers (every function under cmd/,
// examples/ and benchmarks/, plus inits, package-level initializers and
// methods that satisfy an interface) reaches through uses.
type driverWalk struct {
	m       *module
	bodies  map[*types.Func]ast.Node
	kept    []ast.Node                     // the functions testOnly names
	driven  map[*types.Func]bool           // reached from the drivers
	reached map[*types.Func]bool           // ... or from a testOnly function
	owner   map[*types.Var]*types.TypeName // struct field -> its type
	options map[*types.Var]string          // option field -> its name
	written map[*types.Var]bool            // fields a driven function writes
}

var (
	walkOnce sync.Once
	walked   *driverWalk
	walkErr  error
)

// drivers walks the module once for the tests that read the walk.
func drivers(t *testing.T) *driverWalk {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	walkOnce.Do(func() { walked, walkErr = walkDrivers() })
	if walkErr != nil {
		t.Fatal(walkErr)
	}
	return walked
}

func walkDrivers() (*driverWalk, error) {
	fset := token.NewFileSet()
	m := &module{
		fset: fset, std: importer.ForCompiler(fset, "source", nil),
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}},
		pkgs: map[string]*types.Package{}, decl: map[string][]*ast.File{},
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(filepath.Join(path, "*.go")); len(src) == 0 {
			return nil
		}
		if _, err := m.Import(filepath.ToSlash(filepath.Join("harmony", path))); err != nil {
			return fmt.Errorf("type-check %s: %v", path, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Interfaces a method can be called through: the module's own, its
	// direct imports' and error.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	collect := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	w := &driverWalk{
		m: m, bodies: map[*types.Func]ast.Node{}, reached: map[*types.Func]bool{},
		owner: map[*types.Var]*types.TypeName{}, options: map[*types.Var]string{}, written: map[*types.Var]bool{},
	}
	for path, p := range m.pkgs {
		collect(p)
		for _, imp := range p.Imports() {
			collect(imp)
		}
		facade := path == "harmony" || strings.HasPrefix(path, "harmony/internal/")
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			option := facade && tn.Exported() && (strings.HasSuffix(name, "Options") ||
				strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Experiment"))
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				w.owner[f] = tn
				if option && f.Exported() {
					w.options[f] = path + "." + name + "." + f.Name()
				}
			}
		}
	}

	var roots []ast.Node
	for path, files := range m.decl {
		driver := strings.HasPrefix(path, "harmony/cmd/") || strings.HasPrefix(path, "harmony/examples/") ||
			path == "harmony/benchmarks"
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					roots = append(roots, d) // package-level initializers run at load
					continue
				}
				fn := m.info.Defs[fd.Name].(*types.Func)
				w.bodies[fn] = fd
				if driver || (fd.Recv == nil && fd.Name.Name == "init") || satisfies(fn, ifaces) {
					roots = append(roots, fd)
				} else if testOnly[fn.FullName()] != "" {
					w.kept = append(w.kept, fd)
				}
			}
		}
	}
	w.walk(roots, w.written)
	w.driven = maps.Clone(w.reached)
	w.walk(slices.Clone(w.kept), nil) // what a testOnly function calls is as alive as it is
	return w, nil
}

// walk marks every function the nodes of queue (which it consumes)
// reach through uses and, if writes is not nil, every struct field they
// write: a composite-literal key (each field, for an unkeyed literal), or
// a selector assigned to, incremented or decremented. A method does not
// write its own type's fields: a default its withDefaults fills in is not
// a caller choosing a value.
func (w *driverWalk) walk(queue []ast.Node, writes map[*types.Var]bool) {
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		var self *types.TypeName // the receiver's type
		if fd, ok := n.(*ast.FuncDecl); ok {
			fn := w.m.info.Defs[fd.Name].(*types.Func)
			w.reached[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				self = t.(*types.Named).Obj()
			}
		}
		write := func(obj types.Object) {
			if f, ok := obj.(*types.Var); ok && writes != nil && f.IsField() {
				if f = f.Origin(); self == nil || w.owner[f] != self {
					writes[f] = true
				}
			}
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if fn, ok := w.m.info.Uses[n].(*types.Func); ok {
					if fn = fn.Origin(); !w.reached[fn] && w.bodies[fn] != nil {
						w.reached[fn] = true
						queue = append(queue, w.bodies[fn])
					}
				}
			case *ast.CompositeLit:
				if st, ok := w.m.info.Types[n].Type.Underlying().(*types.Struct); ok {
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							write(w.m.info.Uses[kv.Key.(*ast.Ident)])
						} else {
							write(st.Field(i))
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok {
						write(w.m.info.Uses[sel.Sel])
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					write(w.m.info.Uses[sel.Sel])
				}
			}
			return true
		})
	}
}

// TestEveryFunctionHasADriver fails on any function of internal/ or the
// facade the walk from the drivers does not reach: nothing outside a test
// can run it, so it is deleted or named in testOnly with a reason.
func TestEveryFunctionHasADriver(t *testing.T) {
	w := drivers(t)
	var dead, stale []string
	named := map[string]bool{}
	for _, n := range w.kept {
		fn := w.m.info.Defs[n.(*ast.FuncDecl).Name].(*types.Func)
		if named[fn.FullName()] = true; w.driven[fn] {
			stale = append(stale, fn.FullName()+" (a driver reaches it)")
		}
	}
	for name := range testOnly {
		if !named[name] {
			stale = append(stale, name+" (no such function, or it satisfies an interface)")
		}
	}
	for fn := range w.bodies {
		if path := fn.Pkg().Path(); !w.reached[fn] && (path == "harmony" || strings.HasPrefix(path, "harmony/internal/")) {
			dead = append(dead, fn.FullName()+"  "+w.m.fset.Position(fn.Pos()).String())
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	if len(dead) > 0 {
		t.Errorf("%d functions no driver under cmd/, examples/ or benchmarks/ reaches (delete them, or name them in testOnly):\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("testOnly is out of date:\n  %s", strings.Join(stale, "\n  "))
	}
}

// TestEveryOptionHasADriver fails on any exported field of an exported
// option struct (a name that is or ends in Options, Config or Experiment)
// of internal/ or the facade that no function the drivers reach writes:
// every run sees the one value its zero or its default gives, so the
// field becomes a constant or goes, or is named in testOnlyFields with a
// reason.
func TestEveryOptionHasADriver(t *testing.T) {
	w := drivers(t)
	var unset, stale []string
	named := map[string]bool{}
	for f, name := range w.options {
		switch {
		case testOnlyFields[name] != "":
			if named[name] = true; w.written[f] {
				stale = append(stale, name+" (a driver writes it)")
			}
		case !w.written[f]:
			unset = append(unset, name+"  "+w.m.fset.Position(f.Pos()).String())
		}
	}
	for name := range testOnlyFields {
		if !named[name] {
			stale = append(stale, name+" (no such option field)")
		}
	}
	sort.Strings(unset)
	sort.Strings(stale)
	if len(unset) > 0 {
		t.Errorf("%d option fields no driver under cmd/, examples/ or benchmarks/ writes (make them constants, or name them in testOnlyFields):\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("testOnlyFields is out of date:\n  %s", strings.Join(stale, "\n  "))
	}
}

// satisfies reports whether fn is a method that one of the interfaces
// declares and fn's receiver type implements — it can then run through an
// interface value without being named.
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(recv.Type(), it) {
				return true
			}
		}
	}
	return false
}
