package pipeline

import (
	"runtime"
	"testing"

	"mtvp/internal/asm"
	"mtvp/internal/config"
	"mtvp/internal/isa"
	"mtvp/internal/mem"
	"mtvp/internal/stats"
	"mtvp/internal/workload"
)

// missRing builds a load-only pointer ring far larger than the L3, so every
// chase step is a full memory-latency miss with nothing else in flight: the
// steady state is one long idle stretch per load, all of it skipped.
// No stores means the functional overlay never grows, which is what lets the
// idle regime hold a zero-allocation steady state.
func missRing(nodes int) (*isa.Program, *mem.Memory) {
	const nodeBytes = 64
	const base = uint64(0x100000)
	r := mem.NewRand(7)
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	for i := nodes - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	addr := func(i int) uint64 { return base + uint64(i)*nodeBytes }
	m := mem.New()
	for i := 0; i < nodes; i++ {
		m.Store(addr(perm[i]), 8, addr(perm[(i+1)%nodes]))
	}

	b := asm.New("miss-ring")
	b.Liu(isa.R1, addr(perm[0]))
	b.Label("loop")
	b.Ld(isa.R1, isa.R1, 0)
	b.Addi(isa.R2, isa.R2, 1)
	b.J("loop")
	b.Halt()
	return b.MustBuild(), m
}

// TestZeroAllocSteadyState pins the hot loop's allocation behaviour: once
// the engine is warm (slices at capacity, uop pool populated, overlay keys
// touched, calendar heap at depth), a simulated cycle must not allocate at
// all — neither on the commit-every-cycle path nor on the calendar's
// idle-skipping path. The pin is exact: the process's heap-object count
// must not move across measureCycles warm cycles.
func TestZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("warmup is a few hundred ms per case")
	}
	const measureCycles = 20_000

	cases := []struct {
		name  string
		build func() (*isa.Program, *mem.Memory)
		warm  int
		parks bool // the case must exercise issue wakeup (park and unpark)
	}{
		{
			// DL1-resident chase, commits nearly every cycle: exercises
			// fetch/dispatch/issue/commit and uop recycling. Stores revisit
			// the same node addresses, so the overlay map stops growing
			// after the first traversal.
			name: "hit-heavy",
			build: func() (*isa.Program, *mem.Memory) {
				return workload.PointerChase("zeroalloc-hit", workload.INT, workload.ChaseParams{
					Nodes: 256, NodeBytes: 64, PoolSize: 8,
					DominantPct: 60, ReusePct: 30, SeqPct: 90, BodyOps: 12, Iters: 1 << 40,
				}).Build(1)
			},
			warm:  80_000,
			parks: true,
		},
		{
			// Load-only miss ring: ~1000 idle cycles per chase step, all
			// skipped — pins the calendar's jump path itself.
			name:  "miss-idle",
			build: func() (*isa.Program, *mem.Memory) { return missRing(1 << 17) },
			warm:  80_000,
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := config.Baseline()
			cfg.MaxInsts = 1 << 62
			cfg.MaxCycles = 1 << 40
			// The stride prefetcher's stream-tracking maps churn entries;
			// it stays on in benchmarks but is out of scope for the
			// zero-alloc pin.
			cfg.Prefetch.Enabled = false
			prog, image := c.build()
			st := &stats.Stats{}
			eng, err := New(&cfg, prog, image, st)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.warm; i++ {
				if stop, err := eng.runCycle(); err != nil || stop {
					t.Fatalf("warmup ended early at cycle %d: stop=%v err=%v", eng.now, stop, err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < measureCycles; i++ {
				if stop, err := eng.runCycle(); err != nil || stop {
					t.Fatalf("measured run ended early at cycle %d: stop=%v err=%v", eng.now, stop, err)
				}
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("steady state allocates: %d heap objects over %d cycles", n, measureCycles)
			}
			if st.Committed == 0 {
				t.Fatal("workload committed nothing; the steady state measured is vacuous")
			}
			if c.parks && !everParked(eng) {
				t.Fatal("no uop ever parked on a producer; the issue wakeup path went unmeasured")
			}
		})
	}
}

// everParked reports whether any pooled uop has ever held a parked waiter:
// waiters only grows at a park, and allocUop keeps its backing array.
func everParked(e *Engine) bool {
	for _, u := range e.slotUops {
		if cap(u.waiters) > 0 {
			return true
		}
	}
	return false
}
