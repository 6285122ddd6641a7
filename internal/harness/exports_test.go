package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyExports is the export census: every exported function or method
// declared in module repro (the root package, internal/, cmd/ and examples/)
// that no non-test code of either module calls, with the test that observes
// through it and, in parentheses, why it stays without a caller. A call is
// resolved by go/types, not by name (see census). Unexported functions and
// methods are held to the same rule with no rows at all: one only tests reach
// is deleted, and its test reads what it read directly. An export no test
// uses either is deleted, not listed; so is one whose test can observe
// through other API. Moving a row's body into a test helper removes nothing.
var testOnlyExports = map[string]string{
	"chaos.Scenario.Spec":                "chaos: TestSpecRoundTrip (the canonical text form ROADMAP items 3 and 4b consume)",
	"invariant.MergeConvergence":         "harness: TestAdaptiveParsimDeterminism (ReformConvergence of a sharded audit; only that test shards an adaptive run)",
	"membership.MemberInfo.Attr":         "core: TestUpdateValuePropagates (the read side of update_value; no program reads one attribute yet)",
	"membership.Publisher.Info":          "harness: TestEverySchemePublishesAlike (the own record before Start, when no directory holds it)",
	"netsim.Endpoint.GrayLag":            "chaos: TestRepeatApplyStride (reads back what SetGrayLag installed; netsim reads the field)",
	"netsim.Endpoint.Joined":             "core: TestChannelOverride (reads back a subscription; netsim reads its own sets)",
	"netsim.Network.WANBytes":            "netsim: TestWANByteAccounting (the quantity the proxy protocol minimises, for ROADMAP item 4c)",
	"tamp.MService.DeleteValue":          "tamp: TestUpdateAndDeleteValue (the paper's delete_value)",
	"tamp.MService.Leave":                "tamp: TestGracefulLeavePublicAPI (core.Node.Leave's only way in)",
	"topology.Random":                    "core: TestPropertyRandomTopologyConvergence (the random topologies of ROADMAP item 11c)",
	"topology.Topology.MinTTL":           "topology: TestFigure4NonTransitive (one pair's TTL scope, Fig. 4; netsim and the LP partition ask MulticastScope)",
	"topology.Topology.MulticastLatency": "topology: TestScopeLatencies (one pair's latency; netsim reads MulticastScope's)",
}

// TestExportCensus holds module repro's functions and methods to the census,
// as an exact set: each has a caller outside tests, in repro or in bench/, or
// a row. bench/'s own declarations are not held (bench/ is frozen). The table
// only shrinks.
func TestExportCensus(t *testing.T) {
	const rule = "a function or method needs a caller outside tests: delete it, or, if it is exported, " +
		"list it in testOnlyExports (internal/harness/exports_test.go) with the test that needs it and why nothing else calls it"
	m := loadRepro(t)
	decls, used := m.census("repro")
	var problems []string
	for name := range decls {
		if !used[name] && testOnlyExports[name] == "" {
			problems = append(problems, name+" has no caller outside tests: "+rule)
		}
	}
	for name := range testOnlyExports {
		switch {
		case !decls[name]:
			problems = append(problems, name+" is in testOnlyExports but no longer declared: delete its row")
		case used[name]:
			problems = append(problems, name+" is in testOnlyExports but has a caller now: delete its row")
		case !token.IsExported(name[strings.LastIndexByte(name, '.')+1:]):
			problems = append(problems, name+" is unexported: it takes no row; delete it")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
	if limit := 12; len(testOnlyExports) > limit {
		t.Errorf("testOnlyExports has %d rows, more than the %d it was cut to: %s", len(testOnlyExports), limit, rule)
	}
}

// TestCensusResolvesByObject runs the census over the module in
// testdata/census, whose comments say what each declaration checks, and
// over a directory that holds no module, which is an error.
//
// Mutant: a held method counts as used when any used method has its name.
// Mutant: a use inside the declaration's own body counts.
// Mutant: the standard library's exported interfaces count for nothing.
// Mutant: anonymous interfaces in the checked code are not matched.
// Mutant: a use is not mapped through Func.Origin.
func TestCensusResolvesByObject(t *testing.T) {
	if _, err := loadModule(t.TempDir()); err == nil || !strings.Contains(err.Error(), "go list") {
		t.Errorf("census of an empty directory: err = %v, want go list's", err)
	}
	m, err := loadModule("testdata/census")
	if err != nil {
		t.Fatal(err)
	}
	decls, used := m.census("census")
	var got []string
	for name := range decls {
		if !used[name] {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	if want := []string{"census.B.Name", "census.recurse"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("census of testdata/census reports %v, want %v", got, want)
	}
}

var repro struct {
	once sync.Once
	m    *module
	err  error
}

// loadRepro type-checks module repro and the bench/ module once per test
// binary, for the export and knob censuses.
func loadRepro(t *testing.T) *module {
	t.Helper()
	repro.once.Do(func() {
		root, err := filepath.Abs("../..")
		if err == nil {
			repro.m, repro.err = loadModule(root, filepath.Join(root, "bench"))
		} else {
			repro.err = err
		}
	})
	if repro.err != nil {
		t.Fatal(repro.err)
	}
	return repro.m
}

// module is the packages of one or more modules, type-checked from source.
type module struct {
	root string // the first directory loaded
	fset *token.FileSet
	pkgs []*srcPkg         // in dependency order
	std  map[string]string // each standard-library package listed, to its export file
}

type srcPkg struct {
	mod   string // module path
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadModule lists each directory's packages with their dependencies (go list
// -deps -export), reads the standard library from its export files, and
// type-checks every other package from source, in list order. A package two
// directories list is checked once. The go command runs offline.
func loadModule(dirs ...string) (*module, error) {
	m := &module{root: dirs[0], fset: token.NewFileSet(), std: map[string]string{}}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(m.fset, "gc", func(p string) (io.ReadCloser, error) {
		if m.std[p] == "" {
			return nil, fmt.Errorf("no export data for %s", p)
		}
		return os.Open(m.std[p])
	})
	imp := importerFunc(func(p string) (*types.Package, error) {
		if pkg := checked[p]; pkg != nil {
			return pkg, nil
		}
		return std.Import(p)
	})
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-mod=readonly", "GOWORK=off")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(&stdout); ; {
			var p struct {
				ImportPath, Dir, Export string
				Standard                bool
				GoFiles                 []string
				Module                  *struct{ Path string }
			}
			if err := dec.Decode(&p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, fmt.Errorf("go list in %s: %v", dir, err)
			}
			if p.Standard {
				m.std[p.ImportPath] = p.Export
				continue
			}
			if checked[p.ImportPath] != nil {
				continue
			}
			sp := &srcPkg{info: &types.Info{
				Types:     map[ast.Expr]types.TypeAndValue{},
				Defs:      map[*ast.Ident]types.Object{},
				Uses:      map[*ast.Ident]types.Object{},
				Instances: map[*ast.Ident]types.Instance{},
			}}
			if p.Module != nil {
				sp.mod = p.Module.Path
			}
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				sp.files = append(sp.files, f)
			}
			conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
			pkg, err := conf.Check(p.ImportPath, m.fset, sp.files, sp.info)
			if err != nil {
				return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
			}
			sp.types, checked[p.ImportPath] = pkg, pkg
			m.pkgs = append(m.pkgs, sp)
		}
	}
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// census returns every function and method declared in module mod (main and
// init excepted), keyed "pkg.Func" or "pkg.Type.Method", and marks those with
// a caller in the checked code. A use is an identifier go/types resolves to
// the declaration (through Func.Origin, so promoted methods and generic
// receivers count) outside the declaration's own body, so recursion is no
// caller. A method is also used when its type implements an interface whose
// method of that name is used: any interface type in the checked code, named
// or anonymous, and every interface a directly imported standard-library
// package exports, and error, whose methods all count as used.
func (m *module) census(mod string) (decls, used map[string]bool) {
	type span struct{ pos, end token.Pos }
	held := map[*types.Func]span{}
	uses := map[*types.Func]bool{}
	stdImports := map[*types.Package]bool{}
	for _, p := range m.pkgs {
		for _, im := range p.types.Imports() {
			if _, ok := m.std[im.Path()]; ok {
				stdImports[im] = true
			}
		}
		if p.mod != mod {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && p.types.Name() == "main") {
					continue
				}
				held[p.info.Defs[fd.Name].(*types.Func)] = span{fd.Pos(), fd.End()}
			}
		}
	}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if s, ok := held[fn]; !ok || id.Pos() < s.pos || id.Pos() >= s.end {
					uses[fn] = true
				}
			}
		}
	}

	// Resolve used interface methods to the concrete methods they reach.
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seen[it] && it.NumMethods() > 0 {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for pkg := range stdImports {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
					for i := 0; i < it.NumMethods(); i++ {
						uses[it.Method(i)] = true
					}
				}
			}
		}
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	addIface(errIface)
	uses[errIface.Method(0)] = true
	var concrete []types.Type
	for _, p := range m.pkgs {
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
		for _, in := range p.info.Instances {
			if _, ok := in.Type.(*types.Named); ok {
				concrete = append(concrete, in.Type)
			}
		}
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				addIface(tn.Type())
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					concrete = append(concrete, n)
				}
			}
		}
	}
	for _, it := range ifaces {
		var want []*types.Func
		for i := 0; i < it.NumMethods(); i++ {
			if uses[it.Method(i)] {
				want = append(want, it.Method(i))
			}
		}
		if len(want) == 0 {
			continue
		}
		for _, t := range concrete {
			if types.IsInterface(t) || !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
				continue
			}
			for _, im := range want {
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), false, im.Pkg(), im.Name())
				if fn, ok := obj.(*types.Func); ok {
					uses[fn.Origin()] = true
				}
			}
		}
	}

	decls, used = map[string]bool{}, map[string]bool{}
	for fn := range held {
		key := funcKey(fn)
		decls[key] = true
		if uses[fn] {
			used[key] = true
		}
	}
	return decls, used
}

// funcKey names a function "pkg.Func" or a method "pkg.Type.Method", by
// package name, or by the last element of its path for a main package.
func funcKey(fn *types.Func) string {
	pkg := fn.Pkg().Name()
	if pkg == "main" {
		pkg = path.Base(fn.Pkg().Path())
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return pkg + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
}
