package core_test

import (
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/core"
)

// TestEventEngineSweep is the core-level half of the event-scheduler A/B
// guarantee (internal/pipeline owns the fault/recovery and telemetry axes):
// for every workload archetype × machine preset, a run on the event-driven
// calendar must be bit-identical to a run on the plain per-cycle loop —
// same statistics, same architectural registers, same halt status — with
// the lockstep oracle checking every useful commit on both sides. The
// presets carry Check=true, so any divergence inside either scheduler (not
// just between them) fails the run on its own.
func TestEventEngineSweep(t *testing.T) {
	benches := smallBenchmarks()
	if testing.Short() {
		benches = benches[:2]
	}
	// The differential presets plus one table-sharing machine: shared
	// predictor tables carry cross-context traffic the other presets lack.
	sharing := core.MTVPSharing(4, config.PredVPQStride, config.ShareShared)
	sharing.Check, sharing.MaxInsts, sharing.MaxCycles = true, 50_000_000, 200_000_000
	presets := append(differentialPresets(), struct {
		name string
		cfg  config.Config
	}{"mtvp4-vpq-shared", sharing})
	for _, bench := range benches {
		bench := bench
		t.Run(bench.Name, func(t *testing.T) {
			for _, p := range presets {
				run := func(cycle bool) *core.Result {
					c := p.cfg
					c.DisableEventQueue = cycle
					prog, image := bench.Build(7)
					res, err := core.Run(c, prog, image)
					if err != nil {
						t.Fatalf("%s cycle=%v: %v", p.name, cycle, err)
					}
					return res
				}
				ev := run(false)
				cyc := run(true)

				if !ev.Halted || !cyc.Halted {
					t.Fatalf("%s: halted diverges or false: event=%v cycle=%v",
						p.name, ev.Halted, cyc.Halted)
				}
				if ev.Stats != cyc.Stats {
					t.Errorf("%s: stats diverge:\nevent: %+v\ncycle: %+v",
						p.name, ev.Stats, cyc.Stats)
				}
				if ev.RegsOK != cyc.RegsOK || ev.Regs != cyc.Regs {
					t.Errorf("%s: architectural registers diverge", p.name)
				}
				if ev.Checked != ev.Stats.Committed || cyc.Checked != cyc.Stats.Committed {
					t.Errorf("%s: oracle verified event=%d/%d cycle=%d/%d commits",
						p.name, ev.Checked, ev.Stats.Committed,
						cyc.Checked, cyc.Stats.Committed)
				}
			}
		})
	}
}
