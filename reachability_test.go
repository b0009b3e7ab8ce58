package harmony

import (
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

// testOnly is every function of internal/ and the facade that no driver
// reaches and that stays anyway, with the reason. A function only a test
// calls is otherwise deleted with its test.
var testOnly = map[string]string{
	// The fault-recovery API: safety code, its drivers are failures.
	"(*harmony/internal/master.Master).Checkpoint":   "fault recovery",
	"(*harmony/internal/master.Master).RecoverJob":   "fault recovery",
	"(*harmony/internal/master.Master).RemoveWorker": "fault recovery",
	"(*harmony.Master).Checkpoint":                   "fault recovery (facade)",
	"(*harmony.Master).RecoverJob":                   "fault recovery (facade)",
	"(*harmony.Master).RemoveWorker":                 "fault recovery (facade)",
	// The facade's online-admission pair: the library's callers drive it,
	// the commands reach the same master methods through internal/ctl.
	"(*harmony.Master).Enqueue": "public API",
	"(*harmony.Master).Cancel":  "public API",
	// Test probes: read-only windows on state a test must see.
	"(*harmony/internal/master.Master).QueueDepth":     "probe",
	"(*harmony.Master).QueueDepth":                     "probe (facade)",
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
	// Held back by the test floor: each of these has tests of its own in
	// the suite a PR may only thin by a few, and PR 21 spent that on the
	// parameter plane. Delete them with those tests (ISSUE 21, satellite 2).
	"harmony/internal/cluster.New":                     "cluster_test.go",
	"(*harmony/internal/cluster.Cluster).Spec":         "cluster_test.go",
	"(*harmony/internal/cluster.Cluster).Size":         "cluster_test.go",
	"(*harmony/internal/cluster.Cluster).Free":         "cluster_test.go",
	"(*harmony/internal/cluster.Cluster).Allocated":    "cluster_test.go",
	"(*harmony/internal/cluster.Cluster).Alloc":        "cluster_test.go",
	"(*harmony/internal/cluster.Cluster).Release":      "cluster_test.go",
	"(*harmony/internal/cluster.Cluster).Owner":        "cluster_test.go",
	"(*harmony/internal/cluster.Cluster).Owners":       "cluster_test.go",
	"(harmony/internal/cluster.MachineSpec).Validate":  "TestSpecValidate",
	"harmony/internal/memmodel.Check":                  "TestCheck",
	"harmony/internal/exp.scaleJobs":                   "TestScaleJobsHelper",
	"harmony/internal/trace.MeanInterarrival":          "TestMeanInterarrivalEdge",
	"harmony/internal/trace.Burstiness":                "TestBurstinessPoissonNearOne",
	"(harmony/internal/profile.Metrics).TcpuAt":        "TestTcpuAtClampsDoP",
	"(harmony/internal/profile.Metrics).IterSecondsAt": "profile_test.go",
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

// TestEveryFunctionHasADriver walks uses from every function under cmd/,
// examples/ and benchmarks/, plus inits, package-level initializers and
// methods that satisfy an interface, and fails on any function of
// internal/ or the facade the walk does not reach: nothing outside a test
// can run it, so it is deleted or named in testOnly with a reason.
func TestEveryFunctionHasADriver(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	fset := token.NewFileSet()
	m := &module{
		fset: fset, std: importer.ForCompiler(fset, "source", nil),
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		pkgs: map[string]*types.Package{}, decl: map[string][]*ast.File{},
	}
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
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
			t.Fatalf("type-check %s: %v", path, err)
		}
		return nil
	})

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
	for _, p := range m.pkgs {
		collect(p)
		for _, imp := range p.Imports() {
			collect(imp)
		}
	}

	bodies := map[*types.Func]ast.Node{}
	var roots, kept []ast.Node
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
				bodies[fn] = fd
				if driver || (fd.Recv == nil && fd.Name.Name == "init") || satisfies(fn, ifaces) {
					roots = append(roots, fd)
				} else if testOnly[fn.FullName()] != "" {
					kept = append(kept, fd)
				}
			}
		}
	}
	reached := map[*types.Func]bool{}
	walk := func(queue []ast.Node) {
		for len(queue) > 0 {
			n := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if fd, ok := n.(*ast.FuncDecl); ok {
				reached[m.info.Defs[fd.Name].(*types.Func)] = true
			}
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := m.info.Uses[id].(*types.Func); ok {
						if fn = fn.Origin(); !reached[fn] && bodies[fn] != nil {
							reached[fn] = true
							queue = append(queue, bodies[fn])
						}
					}
				}
				return true
			})
		}
	}
	walk(roots)
	var dead, stale []string
	named := map[string]bool{}
	for _, n := range kept {
		fn := m.info.Defs[n.(*ast.FuncDecl).Name].(*types.Func)
		if named[fn.FullName()] = true; reached[fn] {
			stale = append(stale, fn.FullName()+" (a driver reaches it)")
		}
	}
	for name := range testOnly {
		if !named[name] {
			stale = append(stale, name+" (no such function, or it satisfies an interface)")
		}
	}
	walk(kept) // what a testOnly function calls is as alive as it is
	for fn := range bodies {
		if path := fn.Pkg().Path(); !reached[fn] && (path == "harmony" || strings.HasPrefix(path, "harmony/internal/")) {
			dead = append(dead, fn.FullName()+"  "+fset.Position(fn.Pos()).String())
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
