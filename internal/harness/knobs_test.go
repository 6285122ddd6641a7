package harness

import (
	"go/ast"
	"go/types"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	tamp "repro"
	"repro/internal/alltoall"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/invariant"
	"repro/internal/parsim"
	"repro/internal/rapid"
	"repro/internal/service"
	"repro/internal/traffic"
)

// optionStructs is every struct in the tree whose fields are options.
var optionStructs = []any{
	rapid.Config{}, alltoall.Config{}, gossip.Config{}, service.Config{},
	traffic.Options{}, core.Config{}, invariant.Options{}, parsim.Config{},
	tamp.AppConfig{},
	Options{}, AccuracyOptions{}, ChaosOptions{}, TrafficOptions{}, ScaleOptions{},
}

// knobs is the census: every exported field of every option struct, with who
// gives it more than one value. "fence" rows are single-valued today and kept
// on purpose (bench/ is frozen; deployment addresses, the config file and the
// public AppConfig stay configurable). A value only tests change is an
// unexported field its package's tests set, not a row. Nothing is added here
// without the two callers the rule below asks for. Each file or cmd/ or
// examples/ package a row names must write the field, unless its clause says
// it takes the default (see namedWriters); go/types resolves the writes.
var knobs = map[string]string{
	"rapid.Config.HeartbeatPad": "harness/scheme.go: 228-byte target; bench/micro/micro.go: default (unpadded)",
	"rapid.Config.DCOf":         "harness/scheme.go: the rapid and rapid+dc rows",
	"rapid.Config.Seeds":        "deployment address",

	"alltoall.Config.Channel":      "deployment address",
	"alltoall.Config.TTL":          "harness/scheme.go, bench/perf/world.go: topology diameter; bench/micro/micro.go: default",
	"alltoall.Config.HeartbeatPad": "harness/scheme.go, bench/perf/world.go: 228-byte target; bench/micro/micro.go: default (unpadded)",

	"gossip.Config.Fanout":       "harness/ablations.go: abl-fanout",
	"gossip.Config.ExpectedSize": "harness/scheme.go: the cell's host count",
	"gossip.Config.Seeds":        "deployment address",
	"gossip.Config.EntryPad":     "harness/scheme.go: 228-byte target; harness/ablations.go: abl-fanout unpadded",

	"service.Config.RequestTimeout": "harness/fig14.go: 500 ms; every other caller: 2 s",
	"service.Config.ProxyAddr":      "proxy.Deploy: each host's own DC through the VIP table",
	"service.Config.EnableLoadPush": "app.go: AppConfig.EnableLoadPush",

	"traffic.Options.Sessions":   "harness/traffic.go: 1000; bench/perf/sim.go: a million",
	"traffic.Options.Service":    "harness/traffic.go, bench/perf/sim.go: the name they registered",
	"traffic.Options.Partitions": "harness/traffic.go, bench/perf/sim.go: the partition space they registered",
	"traffic.Options.Think":      "bench/perf/sim.go: a minute; harness/traffic.go: default",
	"traffic.Options.OpenOver":   "bench/perf/sim.go: its ramp; harness/traffic.go: default",
	"traffic.Options.HedgeAfter": "harness/traffic.go: the traffic-hedge variants",

	"core.Config.BaseChannel":       "mservice config file (MCAST_PORT); deployment address",
	"core.Config.ChannelOverride":   "deployment address",
	"core.Config.MaxTTL":            "mservice config file (MAX_TTL); harness/scheme.go, bench/perf/world.go: topology diameter",
	"core.Config.HeartbeatInterval": "mservice config file (MCAST_FREQ); examples/realudp: real-time scaling",
	"core.Config.MaxLoss":           "mservice config file (MAX_LOSS); harness/ablations.go: abl-maxloss; examples/realudp",
	"core.Config.PiggybackDepth":    "harness/ablations.go: abl-piggyback",
	"core.Config.HeartbeatPad":      "harness/scheme.go: 228-byte target; harness/ablations.go, harness/fig14.go: unpadded",
	"core.Config.Adaptive":          "core/config.go: AdaptiveDefaults, for harness/scheme.go's adaptive rows; static rows: default",
	"core.Config.ReformChannelBase": "deployment address; core/config.go: AdaptiveDefaults, for harness/scheme.go's adaptive rows",

	"invariant.Options.Interval":    "harness/cell.go: 1 s; harness/scale.go, bench/perf/sim.go: 10 s",
	"invariant.Options.Deadline":    "harness/cell.go, harness/scale.go, bench/perf/sim.go: per run",
	"invariant.Options.PurgeBound":  "harness/cell.go, harness/scale.go, bench/perf/sim.go: per scheme and size",
	"invariant.Options.LeaderGrace": "fence: bench/perf/sim.go writes it (ChaosLeaderGrace at every caller)",
	"invariant.Options.IntraDCOnly": "harness/cell.go: federated rows only",
	"invariant.Options.EventDriven": "fence: bench/perf/sim.go writes it (true at every caller; ROADMAP item 12)",
	"invariant.Options.Observers":   "harness/parsim.go: one shard per LP; serial runs: nil",
	"invariant.Options.GroupBounds": "harness/cell.go: reform-audited rows only",
	"invariant.Options.FaultEnd":    "harness/cell.go: per scenario",

	"parsim.Config.Engines":   "harness/parsim.go: per run (not a tuning value)",
	"parsim.Config.Net":       "harness/parsim.go: per run (not a tuning value)",
	"parsim.Config.Lookahead": "harness/parsim.go: derived from the partition",
	"parsim.Config.Workers":   "harness/parsim.go: ScaleOptions.LPs (cmd/tampbench -lps)",

	"tamp.AppConfig.EnableLoadPush": "examples/loadbalance: on and off",

	"harness.Options.Seed":     "cmd/tampbench: -seed",
	"harness.Options.PerGroup": "cmd/tampbench: -pergroup",
	"harness.Options.Sizes":    "cmd/tampbench: -sizes",
	"harness.Options.LossProb": "cmd/tampbench: -loss (through Env's embedded Options)",
	"harness.Options.Sweep":    "cmd/tampbench: -workers, -v",

	"harness.AccuracyOptions.Seed":  "harness/figure.go: -seed",
	"harness.AccuracyOptions.Sweep": "harness/figure.go: -workers",

	"harness.ChaosOptions.Seed":      "harness/figure.go: -seed; bench/perf/chaos.go",
	"harness.ChaosOptions.Scenarios": "bench/perf/chaos.go: the toy slice; harness/figure.go: default (all)",
	"harness.ChaosOptions.Sweep":     "harness/figure.go: -workers; bench/perf/chaos.go: one worker",

	"harness.TrafficOptions.Seed":       "harness/figure.go: -seed",
	"harness.TrafficOptions.Scenarios":  "harness/traffic.go: the traffic and traffic-hedge rows",
	"harness.TrafficOptions.HedgeAfter": "harness/traffic.go: the traffic-hedge variants",
	"harness.TrafficOptions.Sweep":      "harness/figure.go: -workers",

	"harness.ScaleOptions.Seed":   "harness/figure.go: -seed",
	"harness.ScaleOptions.Groups": "harness/scale.go: scale (50) and scale4k (200)",
	"harness.ScaleOptions.LPs":    "harness/figure.go: Env.LPs (cmd/tampbench -lps) and the parsim row's 1, 2, 4",
	"harness.ScaleOptions.Sweep":  "harness/figure.go: -workers",
}

// TestKnobCensus holds the option structs to the census, as an exact set.
func TestKnobCensus(t *testing.T) {
	const rule = "an option is justified when two callers that are neither tests nor examples need different values: " +
		"name them in the knobs table (internal/harness/knobs_test.go), or make it a constant in the package that owns it"
	have := map[string]bool{}
	for _, v := range optionStructs {
		ty := reflect.TypeOf(v)
		for i := 0; i < ty.NumField(); i++ {
			if f := ty.Field(i); f.IsExported() {
				have[ty.String()+"."+f.Name] = true
			}
		}
	}
	var problems []string
	for name := range have {
		if knobs[name] == "" {
			problems = append(problems, name+" is a new option: "+rule)
		}
	}
	for name := range knobs {
		if !have[name] {
			problems = append(problems, name+" is in the knobs table but no longer a field: delete its row")
		}
	}
	writes := loadRepro(t).fieldWrites()
	for name, who := range knobs {
		for _, w := range namedWriters(who) {
			if !writes[name][w] {
				problems = append(problems, name+": its row names "+w+", which does not write it: "+
					"name the files that do, or say the named caller takes the default")
			}
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
	// The census went 157 -> 104 -> 87 -> 77 -> 66 -> 65 -> 61 -> 60; the table only shrinks.
	if len(knobs) > 60 {
		t.Errorf("the knobs table has %d rows, more than the 60 it was cut to: %s", len(knobs), rule)
	}
}

// namedWriters returns the files and package directories a knobs row names
// as writers, relative to the repository root. A row is clauses split by
// "; ", each "writers: what they set" or a bare description; writers are
// split by ", ". A name counts when it is a .go file (under internal/ unless
// it starts bench/ or has no directory) or a cmd/ or examples/ package, and
// its clause does not say it takes the default. "deployment address" and
// the config-file rows name no writer.
func namedWriters(row string) []string {
	var out []string
	for _, clause := range strings.Split(row, "; ") {
		names, what, _ := strings.Cut(clause, ": ")
		if strings.HasPrefix(what, "default") {
			continue
		}
		for _, name := range strings.Split(names, ", ") {
			switch {
			case strings.HasPrefix(name, "cmd/"), strings.HasPrefix(name, "examples/"),
				strings.HasSuffix(name, ".go") && (strings.HasPrefix(name, "bench/") || !strings.Contains(name, "/")):
				out = append(out, name)
			case strings.HasSuffix(name, ".go"):
				out = append(out, "internal/"+name)
			}
		}
	}
	return out
}

// fieldWrites maps each field of a named struct of module repro, keyed
// "pkg.Type.Field", to the files (and their directories, relative to the
// repository root) that write it: by assignment, increment or
// composite-literal key, resolved by go/types.
func (m *module) fieldWrites() map[string]map[string]bool {
	keys := map[*types.Var]string{}
	for _, p := range m.pkgs {
		if p.mod != "repro" {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						keys[st.Field(i)] = p.types.Name() + "." + name + "." + st.Field(i).Name()
					}
				}
			}
		}
	}
	writes := map[string]map[string]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			file, _ := filepath.Rel(m.root, m.fset.Position(f.Pos()).Filename)
			file = filepath.ToSlash(file)
			note := func(id *ast.Ident) {
				v, _ := p.info.Uses[id].(*types.Var)
				if key := keys[v]; key != "" {
					if writes[key] == nil {
						writes[key] = map[string]bool{}
					}
					writes[key][file], writes[key][path.Dir(file)] = true, true
				}
			}
			lhs := func(e ast.Expr) {
				if sel, ok := e.(*ast.SelectorExpr); ok {
					note(sel.Sel)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						lhs(e)
					}
				case *ast.IncDecStmt:
					lhs(n.X)
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								note(id)
							}
						}
					}
				}
				return true
			})
		}
	}
	return writes
}
