package harness

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// seamExceptions is every object a seam rule lets through, each with its
// reason. Like every object a rule names, each must resolve.
var seamExceptions = map[string]string{
	// Wire layout.
	"internal/wire.decInfoList": "the read direction of a run of member records, which Decode validates " +
		"in one walk and keeps in place instead of building (codec.infos calls it)",
	"internal/wire.skipInfo": "that walk: a validate-only pass with a fast path for records that publish " +
		"nothing, held to the full decode by FuzzDecode's and FuzzGossipView's reference checks",
	"internal/wire.skipKVs": "the same walk over a record's attributes, held by the same reference checks",
	// Peer state.
	"internal/membership.Table.wild": "the table's own fallback for IDs outside the dense window",
	"internal/rapid.subjectState.reports": "observer -> report time, nested per subject: keyed by edge, " +
		"like rapid's alertSeen",
}

// peerPackages are the packages whose struct fields the peer-state rule holds.
var peerPackages = []string{"internal/core", "internal/rapid", "internal/proxy", "internal/loadinfo",
	"internal/alltoall", "internal/gossip", "internal/membership"}

// TestSeams holds the non-test code of module repro to the design's "one
// place for each decision" (DESIGN.md), one rule per decision, each
// resolved by go/types object rather than by text, on the census's load.
func TestSeams(t *testing.T) {
	for _, p := range loadRepro(t).seams("repro") {
		t.Error(p)
	}
}

// TestSeamsResolveByObject runs the rules over the module in testdata/seams,
// which mirrors repro's package paths in miniature and marks each line a
// rule must report with a "// want <rule>..." comment, naming the rule once
// per report (each rule has a case a text grep catches and one it misses),
// and over testdata/census, which holds none of the objects the rules name.
//
// Mutant: the scheme rule skips composite-literal elements.
// Mutant: the verb rule matches only string literals, not named constants.
// Mutant: the wire rule reads parameters only, not the receiver.
// Mutant: the peer-state rule skips embedded fields.
// Mutant: the peer-state rule matches map types only as written, not by underlying type.
// Mutant: the daemon rule reads only increments.
// Mutant: the shared-state rule matches the spelling sync.Pool, not the object.
// Mutant: an exception that does not resolve is dropped silently.
func TestSeamsResolveByObject(t *testing.T) {
	root, err := filepath.Abs("testdata/seams")
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	want, got := map[string]int{}, map[string]int{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			src, err := os.ReadFile(m.fset.Position(f.Pos()).Filename)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				if _, rules, ok := strings.Cut(line, "// want "); ok {
					for _, rule := range strings.Fields(rules) {
						want[fmt.Sprintf("%s:%d: %s", relFile(root, m.fset, f.Pos()), i+1, rule)]++
					}
				}
			}
		}
	}
	for _, p := range m.seams("seams") {
		parts := strings.SplitN(p, ": ", 3)
		got[strings.Join(parts[:min(2, len(parts))], ": ")]++
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("testdata/seams: %s reported %d times, want %d", k, got[k], want[k])
		}
	}
	for k := range got {
		if want[k] == 0 {
			t.Errorf("testdata/seams: %s is reported but not wanted", k)
		}
	}

	census, err := filepath.Abs("testdata/census")
	if err != nil {
		t.Fatal(err)
	}
	if m, err = loadModule(census); err != nil {
		t.Fatal(err)
	}
	gone := []string{"internal/harness.Scheme", "internal/chaos.verbs", "internal/harness.figures",
		"internal/wire.reader", "internal/wire.codec", "internal/membership.NodeID",
		"internal/membership.MemberInfo.Incarnation", "internal/membership.InfoPrefix.Incarnation", "sync.Pool"}
	for ref := range seamExceptions {
		gone = append(gone, ref)
	}
	var names []string
	for _, p := range m.seams("census") {
		ref, _, _ := strings.Cut(p, " does not resolve")
		names = append(names, ref)
	}
	sort.Strings(gone)
	if !slices.Equal(names, gone) {
		t.Errorf("seams over testdata/census report %q, want each named object once, unresolved: %q", names, gone)
	}
}

// seams runs the seven rules over the packages of module mod and returns
// what breaks them, sorted: "file:line: rule: what", the file relative to
// the module root, and "<object> does not resolve" for each object a rule
// names that is not there: a rule over a name that is gone would pass
// forever.
func (m *module) seams(mod string) []string {
	s := &seamCheck{module: m, mod: mod, allowed: map[types.Object]bool{}}
	for ref := range seamExceptions {
		if obj := target[types.Object](s, ref); obj != nil {
			s.allowed[obj] = true
		}
	}
	s.scheme()
	s.verb()
	s.figure()
	s.wireLayout()
	s.peerState()
	s.daemon()
	s.sharedState()
	sort.Strings(s.problems)
	return s.problems
}

type seamCheck struct {
	*module
	mod      string
	allowed  map[types.Object]bool // the resolved seamExceptions
	problems []string
}

// scheme: what a scheme is lives in internal/harness/scheme.go alone. A
// Scheme constant (or its String()) compared with == or !=, used as a case,
// or listed in a composite literal anywhere else is a second copy of that
// decision.
func (s *seamCheck) scheme() {
	scheme := target[*types.TypeName](s, "internal/harness.Scheme")
	if scheme == nil {
		return
	}
	s.files(func(p *srcPkg, f *ast.File, file string) {
		if file == "internal/harness/scheme.go" {
			return
		}
		isConst := func(e ast.Expr) bool {
			e = ast.Unparen(e)
			if call, ok := e.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					e = sel.X
				}
			}
			tv := p.info.Types[e]
			return tv.Value != nil && types.Identical(tv.Type, scheme.Type())
		}
		s.compared(f, true, isConst, "scheme",
			"a Scheme constant compared, cased on or listed outside internal/harness/scheme.go: "+
				"read a field of the scheme's descriptor, or keep the list beside the table")
	})
}

// verb: what a chaos verb is lives in internal/chaos/verbs.go alone. A
// string constant equal to a verb name (read from the verbs table) compared
// with == or != or used as a case anywhere else is a second copy of a row.
func (s *seamCheck) verb() {
	names := s.tableNames("internal/chaos.verbs", "name")
	if names == nil {
		return
	}
	s.files(func(p *srcPkg, f *ast.File, file string) {
		if file == "internal/chaos/verbs.go" {
			return
		}
		s.compared(f, false, func(e ast.Expr) bool { return names[constString(p, e)] }, "verb",
			"a verb name compared or cased on outside internal/chaos/verbs.go: read the verb's row instead")
	})
}

// figure: what a figure is lives in internal/harness/figure.go alone, and
// cmd/ is a loop over its rows. A string constant in cmd/ equal to a row's
// Name is a second copy of that row. (A call to one figure's function from
// cmd/ does not compile: they are unexported.)
func (s *seamCheck) figure() {
	names := s.tableNames("internal/harness.figures", "Name")
	if names == nil {
		return
	}
	s.files(func(p *srcPkg, f *ast.File, file string) {
		if !strings.HasPrefix(file, "cmd/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && names[constString(p, e)] {
				s.report(e.Pos(), "figure", "a figure name in cmd/: read it from harness.Figures()")
				return false
			}
			return true
		})
	})
}

// wireLayout: a packet body's layout is stated once, as its type's body
// method over a codec (internal/wire/doc.go). A wire function or method
// named enc*, dec* or skip* with a reader or codec receiver or parameter
// states a layout a second time.
func (s *seamCheck) wireLayout() {
	reader := target[*types.TypeName](s, "internal/wire.reader")
	codec := target[*types.TypeName](s, "internal/wire.codec")
	if reader == nil || codec == nil {
		return
	}
	s.files(func(p *srcPkg, f *ast.File, file string) {
		if p.types != reader.Pkg() {
			return
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !strings.HasPrefix(fd.Name.Name, "enc") && !strings.HasPrefix(fd.Name.Name, "dec") &&
				!strings.HasPrefix(fd.Name.Name, "skip") {
				continue
			}
			fn := p.info.Defs[fd.Name].(*types.Func)
			if s.allowed[fn] {
				continue
			}
			sig := fn.Type().(*types.Signature)
			vars := []*types.Var{sig.Recv()}
			for i := 0; i < sig.Params().Len(); i++ {
				vars = append(vars, sig.Params().At(i))
			}
			for _, v := range vars {
				if v == nil {
					continue
				}
				t := v.Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if n, ok := t.(*types.Named); ok && (n.Obj() == reader || n.Obj() == codec) {
					s.report(fd.Name.Pos(), "wire", "a second statement of a packet layout: write it in the kind's body method")
					break
				}
			}
		}
	})
}

// peerState: what a daemon knows about peer p is one record in a
// membership.Table (DESIGN.md, "Per-peer state"). A struct field of a
// scheme package whose type is, underneath, a map keyed by NodeID keeps a
// second one.
func (s *seamCheck) peerState() {
	id := target[*types.TypeName](s, "internal/membership.NodeID")
	if id == nil {
		return
	}
	for _, p := range s.pkgs {
		if !slices.Contains(peerPackages, strings.TrimPrefix(p.types.Path(), s.mod+"/")) {
			continue
		}
		for name, obj := range p.info.Defs {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() || s.allowed[v] {
				continue
			}
			if m, ok := v.Type().Underlying().(*types.Map); ok && types.Identical(m.Key(), id.Type()) {
				s.report(name.Pos(), "peer", "a NodeID-keyed map field: store it in the package's membership.Table record")
			}
		}
	}
}

// daemon: a node's start begins a new life of its own record, decided in
// membership.Self.Begin alone. An assignment, op-assignment or
// increment/decrement of a membership Incarnation field anywhere outside
// internal/membership is a second copy of that decision. Building a record
// with a literal, or lending the field's address to the wire codec, is not.
func (s *seamCheck) daemon() {
	fields := map[types.Object]bool{}
	for _, ref := range []string{"internal/membership.MemberInfo.Incarnation", "internal/membership.InfoPrefix.Incarnation"} {
		if v := target[*types.Var](s, ref); v != nil {
			fields[v] = true
		}
	}
	s.files(func(p *srcPkg, f *ast.File, file string) {
		if strings.HasPrefix(file, "internal/membership/") {
			return
		}
		written := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if v, ok := p.info.Uses[sel.Sel].(*types.Var); ok && fields[v.Origin()] {
					s.report(sel.Sel.Pos(), "daemon", "an Incarnation written outside internal/membership: "+
						"start the node through membership.Self.Begin")
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					written(e)
				}
			case *ast.IncDecStmt:
				written(n.X)
			}
			return true
		})
	})
}

// sharedState: no package-level variable changes at run time; a buffer
// that outlives one call belongs to an owner (a node, an LP's free lists, a
// layer). A sync.Pool is such a variable, and its per-P caches make what a
// run allocates depend on the scheduler. No code of the module uses one.
func (s *seamCheck) sharedState() {
	pool := target[*types.TypeName](s, "sync.Pool")
	if pool == nil {
		return
	}
	s.files(func(p *srcPkg, f *ast.File, _ string) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] == pool {
				s.report(id.Pos(), "shared", "sync.Pool in non-test code: give the buffer an owner instead")
			}
			return true
		})
	})
}

// target resolves ref, a package path relative to the module root (or a
// standard-library package's own path), then an object of that package,
// then any fields or methods, each after a dot, to an object of kind T. If
// it does not, that is a problem, and target returns T's zero value.
func target[T types.Object](s *seamCheck, ref string) T {
	slash := strings.LastIndexByte(ref, '/') + 1
	dot := slash + strings.IndexByte(ref[slash:], '.')
	pkgPath, names := ref[:dot], strings.Split(ref[dot+1:], ".")
	var obj types.Object
	for _, p := range s.pkgs {
		if p.types.Path() == s.mod+"/"+pkgPath {
			obj = p.types.Scope().Lookup(names[0])
		}
		for _, im := range p.types.Imports() {
			if im.Path() == pkgPath && s.std[pkgPath] != "" {
				obj = im.Scope().Lookup(names[0])
			}
		}
	}
	for _, name := range names[1:] {
		if obj == nil {
			break
		}
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), name)
	}
	found, ok := obj.(T)
	if !ok {
		s.problems = append(s.problems, ref+" does not resolve: a seam rule names it "+
			"(internal/harness/seams_test.go); point the rule at its new name or delete the rule")
	}
	return found
}

// tableNames reads the constant string each row of the package-level table
// ref gives its field key, from the composite literal that initialises it.
func (s *seamCheck) tableNames(ref, key string) map[string]bool {
	table := target[*types.Var](s, ref)
	if table == nil {
		return nil
	}
	names := map[string]bool{}
	for _, p := range s.pkgs {
		if p.types != table.Pkg() {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				vs, ok := n.(*ast.ValueSpec)
				if !ok || len(vs.Values) != len(vs.Names) {
					return !ok
				}
				for i, id := range vs.Names {
					lit, _ := vs.Values[i].(*ast.CompositeLit)
					if lit == nil || p.info.Defs[id] != table {
						continue
					}
					for _, row := range lit.Elts {
						row, _ := row.(*ast.CompositeLit)
						if row == nil {
							continue
						}
						for _, e := range row.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok && fmt.Sprint(kv.Key) == key {
								names[constString(p, kv.Value)] = true
							}
						}
					}
				}
				return false
			})
		}
	}
	delete(names, "")
	if len(names) == 0 {
		s.problems = append(s.problems, ref+" does not resolve: its literal has no row with a constant "+key)
		return nil
	}
	return names
}

// files calls fn for every file of the module's packages, with its path
// relative to the module root.
func (s *seamCheck) files(fn func(p *srcPkg, f *ast.File, file string)) {
	for _, p := range s.pkgs {
		if p.mod != s.mod {
			continue
		}
		for _, f := range p.files {
			fn(p, f, relFile(s.root, s.fset, f.Pos()))
		}
	}
}

// compared reports each expression of f that match accepts and that is an
// operand of == or !=, a case of an expression switch, or, with lists, a
// key or element of a composite literal.
func (s *seamCheck) compared(f *ast.File, lists bool, match func(ast.Expr) bool, rule, what string) {
	check := func(es ...ast.Expr) {
		for _, e := range es {
			if match(e) {
				s.report(e.Pos(), rule, what)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				check(n.X, n.Y)
			}
		case *ast.CaseClause:
			check(n.List...)
		case *ast.CompositeLit:
			if !lists {
				break
			}
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					check(kv.Key, kv.Value)
				} else {
					check(e)
				}
			}
		}
		return true
	})
}

func (s *seamCheck) report(pos token.Pos, rule, what string) {
	file, line := relFile(s.root, s.fset, pos), s.fset.Position(pos).Line
	s.problems = append(s.problems, fmt.Sprintf("%s:%d: %s: %s", file, line, rule, what))
}

// constString is e's value if e is a constant string expression, else "".
func constString(p *srcPkg, e ast.Expr) string {
	if tv := p.info.Types[e]; tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value)
	}
	return ""
}

// relFile is the slash-separated path of pos's file relative to root.
func relFile(root string, fset *token.FileSet, pos token.Pos) string {
	file, _ := filepath.Rel(root, fset.Position(pos).Filename)
	return filepath.ToSlash(file)
}
