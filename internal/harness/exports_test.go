package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports is the export census: every exported function or method
// of internal/ and the root package that no non-test file of the module
// (bench/, cmd/ and examples/ included) names, with the test that observes
// through it. Everything else exported has a caller; an export no test uses
// either is deleted, not listed.
var testOnlyExports = map[string]string{
	"chaos.Scenario.Spec":                "chaos: TestSpecRoundTrip",
	"config.ParseFile":                   "config: TestParseFileRoundTrip",
	"core.Config.DeadAfter":              "core: TestFailureDetectionAndConvergence",
	"core.Node.SetInfo":                  "core: TestSetInfoPreservesIdentityAndIncarnation",
	"gossip.Node.FailTimeout":            "gossip: TestFailureDetectionSlowerThanHeartbeat",
	"invariant.MergeConvergence":         "harness: TestAdaptiveParsimDeterminism",
	"membership.FormatPartitions":        "membership: TestFormatPartitions",
	"membership.MemberInfo.Attr":         "core: TestUpdateValuePropagates",
	"netsim.Endpoint.GrayLag":            "chaos: TestRepeatApplyStride",
	"netsim.Endpoint.Joined":             "core: TestChannelOverride",
	"netsim.Network.WANBytes":            "netsim: TestWANByteAccounting",
	"parsim.Coordinator.EngineOf":        "parsim: TestBoundaryActionsRunAtExactTime",
	"proxy.Proxy.RemoteSummary":          "proxy: TestRemoteDCTimeout",
	"service.Runtime.LoadCache":          "service: TestLoadPushSkipsPolling",
	"sim.Engine.Pending":                 "sim: TestPending",
	"sim.Timer.Pending":                  "sim: TestTimerStop",
	"tamp.MClient.ChangesSince":          "tamp: TestChangesSincePublicAPI",
	"topology.MarkSetOf":                 "netsim: TestLinkProfileComposesWithGlobal",
	"topology.Random":                    "core: TestPropertyRandomTopologyConvergence",
	"topology.Topology.MinTTL":           "topology: TestFigure4NonTransitive",
	"topology.Topology.MulticastLatency": "topology: TestScopeLatencies",
}

// TestExportCensus holds the module's test-only exports to the census, as an
// exact set. A reference is syntactic: a function counts as named where a
// file of another package selects it through an import of its package, or a
// file of its own package uses it bare; a method, wherever any file selects
// its name. The table only shrinks.
func TestExportCensus(t *testing.T) {
	const rule = "an exported function or method needs a caller outside tests: " +
		"delete it, unexport it, or list it in testOnlyExports (internal/harness/exports_test.go) with the test that needs it"
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	decls, used := exportCensus(t, root)
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
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
	if limit := 21; len(testOnlyExports) > limit {
		t.Errorf("testOnlyExports has %d rows, more than the %d it was cut to: %s", len(testOnlyExports), limit, rule)
	}
}

// exportCensus parses every non-test Go file under root. decls holds the
// exported functions and methods of the root package and internal/, keyed
// "pkg.Func" or "pkg.Type.Method"; used marks those some file names.
func exportCensus(t *testing.T, root string) (decls, used map[string]bool) {
	type fn struct{ dir, key string }
	var funcs, methods []fn
	selected := map[string]bool{}     // every selector name in the module
	qualified := map[[2]string]bool{} // {import path, name} selected through an import
	bare := map[[2]string]bool{}      // {package dir, name} used unqualified
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		dir := filepath.ToSlash(rel)
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		notBare := map[*ast.Ident]bool{} // declared names and selected ones
		if dir == "." || dir == "internal" || strings.HasPrefix(dir, "internal/") {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				notBare[fd.Name] = true
				if fd.Recv == nil {
					funcs = append(funcs, fn{dir, f.Name.Name + "." + fd.Name.Name})
				} else {
					methods = append(methods, fn{dir, f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				notBare[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					qualified[[2]string{imports[x.Name], n.Sel.Name}] = true
				}
			case *ast.Ident:
				if !notBare[n] {
					bare[[2]string{dir, n.Name}] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	decls, used = map[string]bool{}, map[string]bool{}
	for _, f := range funcs {
		decls[f.key] = true
		name := f.key[strings.LastIndexByte(f.key, '.')+1:]
		ip := "repro"
		if f.dir != "." {
			ip += "/" + f.dir
		}
		if qualified[[2]string{ip, name}] || bare[[2]string{f.dir, name}] {
			used[f.key] = true
		}
	}
	for _, m := range methods {
		decls[m.key] = true
		if selected[m.key[strings.LastIndexByte(m.key, '.')+1:]] {
			used[m.key] = true
		}
	}
	return decls, used
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
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
