package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/isa"
	"mtvp/internal/stats"
	"mtvp/internal/telemetry"
	"mtvp/internal/workload"
)

// TestEventQueueUnit pins the calendar's container behaviour: min ordering,
// O(1) same-cycle dedup, horizon clamping, and drain-at-or-before.
func TestEventQueueUnit(t *testing.T) {
	q := &eventQueue{}

	q.add(50, 10)
	q.add(30, 10)
	q.add(50, 10) // duplicate: absorbed by the mark ring
	q.add(40, 10)
	if q.depth() != 3 {
		t.Fatalf("depth = %d, want 3 (duplicate not deduped?)", q.depth())
	}
	if q.deduped != 1 {
		t.Fatalf("deduped = %d, want 1", q.deduped)
	}
	if q.heap[0] != 30 {
		t.Fatalf("min = %d, want 30", q.heap[0])
	}

	q.drain(40)
	if q.depth() != 1 || q.heap[0] != 50 {
		t.Fatalf("after drain(40): depth=%d min=%v, want one entry at 50", q.depth(), q.heap)
	}
	if q.fired != 2 {
		t.Fatalf("fired = %d, want 2", q.fired)
	}

	// A far edge clamps to the horizon; the hop slot still dedups.
	q.add(1_000_000, 100)
	if q.heap[len(q.heap)-1] != 100+eqWindow && q.heap[0] != 100+eqWindow {
		t.Fatalf("far edge not clamped to horizon: %v", q.heap)
	}
	q.add(2_000_000, 100) // different far cycle, same clamped hop
	if q.depth() != 2 {
		t.Fatalf("clamped hops not deduped: depth=%d heap=%v", q.depth(), q.heap)
	}

	// Slot aliasing across the ring must not dedup distinct cycles.
	q2 := &eventQueue{}
	q2.add(eqWindow/2, 1)
	q2.drain(eqWindow / 2)
	q2.add(eqWindow/2+eqWindow, eqWindow) // same slot, later cycle
	if q2.depth() != 1 {
		t.Fatalf("stale mark swallowed a later cycle in the same slot: depth=%d", q2.depth())
	}

	// Pop order over a shuffled batch must be sorted.
	q3 := &eventQueue{}
	for _, c := range []int64{9, 3, 7, 1, 8, 2, 6, 4, 5} {
		q3.add(c, 0)
	}
	prev := int64(-1)
	for q3.depth() > 0 {
		c := q3.popTop()
		if c < prev {
			t.Fatalf("pop order not sorted: %d after %d", c, prev)
		}
		prev = c
	}
}

// abOutcome is everything the scheduler A/B suite compares: the full stats
// counter set (including Cycles), architectural registers, halt status, the
// telemetry time series, and any structured abort.
type abOutcome struct {
	st      stats.Stats
	regs    [isa.NumRegs]uint64
	regsOK  bool
	halted  bool
	now     int64
	points  []telemetry.Point
	skipped uint64
	errStr  string
}

// runAB runs bench under cfg (whose DisableEventQueue picks the scheduler)
// with a telemetry probe attached; check arms the inert-cycle check.
func runAB(t *testing.T, cfg config.Config, bench workload.Benchmark, check bool) abOutcome {
	t.Helper()
	prog, image := bench.Build(1)
	st := &stats.Stats{}
	eng, err := New(&cfg, prog, image, st)
	if err != nil {
		t.Fatal(err)
	}
	eng.evqCheck = check
	sampler := telemetry.NewSampler(0)
	eng.SetTelemetry(telemetry.NewMachine(nil, sampler))
	out := abOutcome{}
	if err := eng.Run(); err != nil {
		// Structured aborts (fault.Report) are outcomes too and must be
		// identical across schedulers.
		out.errStr = err.Error()
	}
	eng.FinishTelemetry()
	out.st = *st
	out.regs, out.regsOK = eng.ArchRegs()
	out.halted = eng.Halted()
	out.now = eng.now
	out.points = sampler.Points()
	out.skipped = eng.skipped
	return out
}

func compareAB(t *testing.T, a, b abOutcome) {
	t.Helper()
	if a.st != b.st {
		t.Errorf("stats diverge:\n%+v\n%+v", a.st, b.st)
	}
	if a.now != b.now {
		t.Errorf("final cycle diverges: %d vs %d", a.now, b.now)
	}
	if a.regsOK != b.regsOK || a.regs != b.regs {
		t.Errorf("architectural registers diverge:\nok=%v %v\nok=%v %v",
			a.regsOK, a.regs, b.regsOK, b.regs)
	}
	if a.halted != b.halted {
		t.Errorf("halted diverges: %v vs %v", a.halted, b.halted)
	}
	if a.errStr != b.errStr {
		t.Errorf("run error diverges:\n%q\n%q", a.errStr, b.errStr)
	}
	if !reflect.DeepEqual(a.points, b.points) {
		t.Errorf("telemetry time series diverge: %d points vs %d", len(a.points), len(b.points))
		for i := range a.points {
			if i < len(b.points) && a.points[i] != b.points[i] {
				t.Errorf("first divergent point %d:\n%+v\n%+v", i, a.points[i], b.points[i])
				break
			}
		}
	}
}

// abCases is the archetype sweep both scheduler equivalence tests walk:
// miss-heavy single-thread (long idle stretches), deep MTVP speculation
// (spawn/confirm/kill and window edges), a run-to-HALT workload (the final
// cycle count is observable, so the schedulers must agree on the finishing
// cycle exactly), and two fault-injection profiles (recovery-watchdog
// deadlines, IQ sticks, memory jitter as first-class events).
func abCases() []struct {
	name   string
	cycles uint64
	cfg    func() config.Config
	bench  workload.Benchmark
} {
	return []struct {
		name   string
		cycles uint64
		cfg    func() config.Config
		bench  workload.Benchmark
	}{
		{
			name:   "miss-heavy-baseline",
			cycles: 400_000,
			cfg:    config.Baseline,
			bench: workload.PointerChase("ab-miss", workload.INT, workload.ChaseParams{
				Nodes: 1 << 18, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 10, BodyOps: 4, Iters: 1 << 40,
			}),
		},
		{
			name:   "deep-speculation-mtvp8",
			cycles: 150_000,
			cfg:    func() config.Config { return mtvpOracleCfg(8) },
			bench: workload.PointerChase("ab-spec", workload.INT, workload.ChaseParams{
				Nodes: 1 << 16, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 30, BodyOps: 8, Iters: 1 << 40,
			}),
		},
		{
			// Runs to HALT inside the budget: Stats.Cycles is set by the
			// finishing cycle itself, pinning the no-jump-after-finish rule.
			name:   "halting-baseline",
			cycles: 1 << 40,
			cfg:    config.Baseline,
			bench: workload.PointerChase("ab-halt", workload.INT, workload.ChaseParams{
				Nodes: 256, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 20, BodyOps: 4, Iters: 30,
			}),
		},
		{
			name:   "fault-monsoon-mtvp4",
			cycles: 200_000,
			cfg: func() config.Config {
				cfg := mtvpOracleCfg(4)
				cfg.Faults.Profile = "monsoon"
				cfg.Faults.Seed = 1234
				return cfg
			},
			bench: workload.PointerChase("ab-monsoon", workload.INT, workload.ChaseParams{
				Nodes: 1 << 16, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 30, BodyOps: 8, Iters: 1 << 40,
			}),
		},
		{
			// Wedged issue-queue slots outlive the watchdog, so recovery
			// (unstick, deadlock break, backoff) must fire on identical
			// cycles under both schedulers.
			name:   "recovery-ladder-stuck-iq",
			cycles: 400_000,
			cfg: func() config.Config {
				cfg := mtvpOracleCfg(4)
				cfg.Faults.Profile = "stuck-iq-storm"
				cfg.Faults.Seed = 99
				return cfg
			},
			bench: workload.PointerChase("ab-stuck", workload.INT, workload.ChaseParams{
				Nodes: 1 << 16, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 30, BodyOps: 8, Iters: 1 << 40,
			}),
		},
	}
}

// TestEventQueueIsInvisible is the event engine's A/B guarantee: for every
// archetype, the event-driven scheduler must be bit-identical to the plain
// per-cycle loop — statistics (including the final cycle count),
// architectural registers, telemetry time series, and structured aborts.
// The calendar jump must actually engage or the comparison is vacuous.
func TestEventQueueIsInvisible(t *testing.T) {
	for _, c := range abCases() {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg()
			cfg.MaxInsts = 1 << 62
			cfg.MaxCycles = c.cycles

			event := runAB(t, cfg, c.bench, false)
			cfg.DisableEventQueue = true
			cycle := runAB(t, cfg, c.bench, false)

			if event.skipped == 0 {
				t.Errorf("event scheduler never jumped (skipped = 0); comparison is vacuous")
			}
			if cycle.skipped != 0 {
				t.Errorf("per-cycle loop skipped %d cycles", cycle.skipped)
			}
			if c.name == "halting-baseline" && !event.halted {
				t.Errorf("halting case did not halt; finishing-cycle pin is vacuous")
			}
			compareAB(t, event, cycle)
		})
	}
}

// TestEventScheduleCrossCheck runs every archetype twice on the event
// engine: once in production, once with the inert-cycle check armed, which
// executes every cycle the calendar would skip and panics if one changes
// machine state. The check must follow the production schedule exactly:
// the cycles it verifies are the cycles production skips, and the two runs
// are bit-identical.
func TestEventScheduleCrossCheck(t *testing.T) {
	for _, c := range abCases() {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg()
			cfg.MaxInsts = 1 << 62
			cfg.MaxCycles = c.cycles

			prod := runAB(t, cfg, c.bench, false)
			checked := runAB(t, cfg, c.bench, true)

			if checked.skipped != prod.skipped || prod.skipped == 0 {
				t.Errorf("verified %d inert cycles, production skips %d; want equal and nonzero",
					checked.skipped, prod.skipped)
			}
			t.Logf("%d cycles verified inert", checked.skipped)
			compareAB(t, checked, prod)
		})
	}
}

// FuzzEventSchedule fuzzes workload shape, machine size, and fault seeding,
// asserting the calendar never sleeps past a ready stage (the inert-cycle
// check panics on a lost wakeup) and that the event run matches a run of
// the same machine on the plain per-cycle loop exactly.
func FuzzEventSchedule(f *testing.F) {
	f.Add(uint8(2), uint16(256), uint8(60), uint8(30), uint8(4), uint8(0), uint32(1))
	f.Add(uint8(4), uint16(1024), uint8(20), uint8(10), uint8(8), uint8(1), uint32(7))
	f.Add(uint8(8), uint16(4096), uint8(80), uint8(50), uint8(2), uint8(2), uint32(42))
	f.Add(uint8(1), uint16(64), uint8(0), uint8(0), uint8(1), uint8(3), uint32(9))

	profiles := []string{"none", "monsoon", "stuck-iq-storm", "mem-jitter", "spawn-storm"}

	f.Fuzz(func(t *testing.T, contexts uint8, nodes uint16, seqPct, reusePct, bodyOps, profIdx uint8, seed uint32) {
		nctx := int(contexts%7) + 2 // mtvpOracleCfg needs >= 2 contexts
		nn := int(nodes)
		if nn < 16 {
			nn = 16
		}
		params := workload.ChaseParams{
			Nodes: nn, NodeBytes: 64, PoolSize: 8,
			DominantPct: 50, ReusePct: int(reusePct % 50), SeqPct: int(seqPct % 100),
			BodyOps: int(bodyOps%12) + 1, Iters: 1 << 40,
		}
		bench := workload.PointerChase(fmt.Sprintf("fuzz-%d", seed), workload.INT, params)

		cfg := mtvpOracleCfg(nctx)
		cfg.MaxInsts = 1 << 62
		cfg.MaxCycles = 60_000
		cfg.Faults.Profile = profiles[int(profIdx)%len(profiles)]
		cfg.Faults.Seed = uint64(seed)

		event := runAB(t, cfg, bench, true) // inert-cycle check armed
		cfg.DisableEventQueue = true
		cycle := runAB(t, cfg, bench, false)
		compareAB(t, event, cycle)
	})
}

// BenchmarkEventQueue micro-benchmarks the calendar's three hot operations:
// near-edge enqueue (mark-ring accept), duplicate enqueue (dedup hit), and
// the fire-and-requeue cycle of a sliding schedule.
func BenchmarkEventQueue(b *testing.B) {
	b.Run("enqueue", func(b *testing.B) {
		q := &eventQueue{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := int64(i)
			q.add(now+1+int64(i%700), now)
			q.drain(now)
		}
	})
	b.Run("dedup", func(b *testing.B) {
		q := &eventQueue{}
		q.add(1<<20, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.add(1<<20, 0) // always a mark-ring hit
		}
	})
	b.Run("requeue", func(b *testing.B) {
		// A sliding window of 64 in-flight completions, one firing and one
		// scheduled per step — the steady-state shape of a busy machine.
		q := &eventQueue{}
		for i := int64(0); i < 64; i++ {
			q.add(i+1, 0)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := int64(i)
			q.drain(now)
			q.add(now+64, now)
		}
	})
}
