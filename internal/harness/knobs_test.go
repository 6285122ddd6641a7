package harness

import (
	"reflect"
	"sort"
	"testing"

	tamp "repro"
	"repro/internal/alltoall"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/parsim"
	"repro/internal/rapid"
	"repro/internal/service"
	"repro/internal/traffic"
)

// optionStructs is every struct in the tree whose fields are options.
var optionStructs = []any{
	rapid.Config{}, alltoall.Config{}, gossip.Config{}, service.Config{},
	traffic.Options{}, core.Config{}, invariant.Options{}, parsim.Config{}, metrics.DiffOptions{},
	tamp.AppConfig{},
	Options{}, AccuracyOptions{}, ChaosOptions{}, TrafficOptions{}, ScaleOptions{},
}

// knobs is the census: every exported field of every option struct, with who
// gives it more than one value. "fence" rows are single-valued today and kept
// on purpose (bench/ is frozen; deployment addresses, the config file and the
// public AppConfig stay configurable). A value only tests change is an
// unexported field its package's tests set, not a row. Nothing is added here
// without the two callers the rule below asks for.
var knobs = map[string]string{
	"rapid.Config.HeartbeatPad": "harness/scheme.go: 228-byte target; bench/micro/micro.go: unpadded",
	"rapid.Config.DCOf":         "harness/scheme.go: the rapid and rapid+dc rows",
	"rapid.Config.Seeds":        "deployment address",

	"alltoall.Config.Channel":      "deployment address",
	"alltoall.Config.TTL":          "harness/scheme.go, bench/perf/world.go: topology diameter; bench/micro/micro.go: default",
	"alltoall.Config.HeartbeatPad": "harness/scheme.go, bench/perf/world.go: 228-byte target; bench/micro/micro.go: unpadded",

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
	"core.Config.Adaptive":          "harness/scheme.go: the static and adaptive rows (core.AdaptiveDefaults)",
	"core.Config.ReformChannelBase": "deployment address; harness/scheme.go: the static and adaptive rows",

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
	"parsim.Config.Workers":   "cmd/tampbench: -lps",

	"metrics.DiffOptions.WallFactor": "cmd/tampbench: -diff-wall",

	"tamp.AppConfig.EnableLoadPush": "examples/loadbalance: on and off",

	"harness.Options.Seed":     "cmd/tampbench: -seed",
	"harness.Options.PerGroup": "cmd/tampbench: -pergroup",
	"harness.Options.Sizes":    "cmd/tampbench: -sizes",
	"harness.Options.LossProb": "cmd/tampbench: -loss (through Env's embedded Options)",
	"harness.Options.Sweep":    "cmd/tampbench: -workers, -v",

	"harness.AccuracyOptions.Seed":  "harness/figure.go: -seed",
	"harness.AccuracyOptions.Sweep": "harness/figure.go: -workers",

	"harness.ChaosOptions.Seed":      "harness/figure.go: -seed; bench/perf/chaos.go",
	"harness.ChaosOptions.Scenarios": "bench/perf/chaos.go: the toy slice; harness/figure.go: all",
	"harness.ChaosOptions.Sweep":     "harness/figure.go: -workers; bench/perf/chaos.go: one worker",

	"harness.TrafficOptions.Seed":       "harness/figure.go: -seed",
	"harness.TrafficOptions.Scenarios":  "harness/traffic.go: the traffic and traffic-hedge rows",
	"harness.TrafficOptions.HedgeAfter": "harness/traffic.go: the traffic-hedge variants",
	"harness.TrafficOptions.Sweep":      "harness/figure.go: -workers",

	"harness.ScaleOptions.Seed":   "harness/figure.go: -seed",
	"harness.ScaleOptions.Groups": "harness/scale.go: scale (50) and scale4k (200)",
	"harness.ScaleOptions.LPs":    "cmd/tampbench: -lps; harness/figure.go: the parsim row's 1, 2, 4",
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
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
	// The census went 157 -> 104 -> 87 -> 77 -> 66 -> 65 -> 61; the table only shrinks.
	if len(knobs) > 61 {
		t.Errorf("the knobs table has %d rows, more than the 61 it was cut to: %s", len(knobs), rule)
	}
}
