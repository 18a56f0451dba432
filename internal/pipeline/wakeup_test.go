package pipeline

import (
	"testing"

	"mtvp/internal/asm"
	"mtvp/internal/config"
	"mtvp/internal/isa"
	"mtvp/internal/mem"
	"mtvp/internal/trace"
)

// Issue wakeup edges. A waiting uop whose producer has no result parks on
// that producer and leaves the issue scan; the producer's transition to
// stDone, stCommitted or stSquashed hands it back. Each case below parks a
// consumer, releases it by one edge, and pins the cycle on which the
// consumer issues. The pinned cycles are those of the full per-cycle
// rescan this mechanism replaced, so a missed or late wakeup moves them.

const (
	wakeBase  = uint64(0x100000) // cold lines: every first touch misses to memory
	wakeBase2 = uint64(0x900000)
)

// parkSpan is one park of a watched uop, observed at cycle boundaries.
type parkSpan struct {
	seq      uint64
	from     int64    // first cycle boundary it was seen parked
	onPC     int64    // PC of the producer it parked on
	released uopState // producer's state when the park ended
	open     bool     // still parked when the run ended
}

// wakeRun is one hand-driven run: every executed cycle is followed by the
// test's poke (which may act on the machine as a stage would) and by a
// sample of the watched PC's parks.
type wakeRun struct {
	t     *testing.T
	e     *Engine
	tr    *trace.Collector
	pc    int64
	spans []parkSpan
	last  map[uint64]*uop // watched seq -> producer it was last seen parked on
}

func newWakeRun(t *testing.T, cfg config.Config, prog *isa.Program, image *mem.Memory, watchPC int64) *wakeRun {
	t.Helper()
	cfg.Prefetch.Enabled = false
	cfg.MaxInsts = 1 << 40
	cfg.MaxCycles = 200_000
	e, err := New(&cfg, prog, image, newStats())
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Collector{}
	e.SetTracer(tr)
	return &wakeRun{t: t, e: e, tr: tr, pc: watchPC, last: map[uint64]*uop{}}
}

// run executes cycles until the program halts, calling poke after each.
func (w *wakeRun) run(poke func(e *Engine)) {
	w.t.Helper()
	for !w.e.finished {
		stop, err := w.e.runCycle()
		if err != nil {
			w.t.Fatal(err)
		}
		if stop {
			w.t.Fatalf("run stopped at cycle %d before HALT", w.e.now)
		}
		if poke != nil {
			poke(w.e)
		}
		w.sample()
	}
	for i := range w.spans {
		if w.last[w.spans[i].seq] != nil && w.spans[i].released == 0 {
			w.spans[i].open = true
		}
	}
}

func (w *wakeRun) sample() {
	for _, u := range w.e.slotUops {
		if u.pooled || u.ex.PC != w.pc || u.state < stWaiting {
			continue
		}
		var cur *uop
		if u.state == stWaiting {
			cur = parkedOnOf(u)
		}
		prev := w.last[u.seq]
		if cur == prev {
			continue
		}
		if prev != nil {
			w.spans[len(w.spans)-1].released = prev.state
		}
		if cur != nil {
			w.spans = append(w.spans, parkSpan{seq: u.seq, from: w.e.now, onPC: cur.ex.PC})
		}
		w.last[u.seq] = cur
	}
}

// issues returns the cycles on which the uop seq issued, in order.
func (w *wakeRun) issues(seq uint64) []int64 {
	var cs []int64
	for _, ev := range w.tr.ByKind(trace.KIssue) {
		if ev.Seq == seq {
			cs = append(cs, ev.Cycle)
		}
	}
	return cs
}

// find returns the in-flight uop at pc (the youngest, if several).
func (w *wakeRun) find(pc int64) *uop {
	var got *uop
	for _, u := range w.e.slotUops {
		if !u.pooled && u.ex.PC == pc && u.state != stCommitted && u.state != stSquashed &&
			(got == nil || u.seq > got.seq) {
			got = u
		}
	}
	return got
}

// watchedSeq returns the seq of the only dynamic instance of the watched PC.
func (w *wakeRun) watchedSeq() uint64 {
	w.t.Helper()
	var seqs []uint64
	for _, ev := range w.tr.ByKind(trace.KDispatch) {
		if ev.PC == w.pc {
			seqs = append(seqs, ev.Seq)
		}
	}
	if len(seqs) != 1 {
		w.t.Fatalf("watched pc %d dispatched %d times, want 1", w.pc, len(seqs))
	}
	return seqs[0]
}

// expectIssue asserts the watched instance issued exactly once, at want.
func (w *wakeRun) expectIssue(seq uint64, want int64) {
	w.t.Helper()
	if got := w.issues(seq); len(got) != 1 || got[0] != want {
		w.t.Errorf("consumer seq %d issued at cycles %v, want [%d]", seq, got, want)
	}
}

// expectParks asserts the watched instance's parks, producer PC and
// releasing state, in order.
func (w *wakeRun) expectParks(seq uint64, want ...parkSpan) {
	w.t.Helper()
	var got []parkSpan
	for _, s := range w.spans {
		if s.seq == seq {
			got = append(got, parkSpan{onPC: s.onPC, released: s.released, open: s.open})
		}
	}
	if len(got) != len(want) {
		w.t.Fatalf("consumer seq %d parks %+v, want %+v", seq, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			w.t.Errorf("consumer seq %d park %d = %+v, want %+v", seq, i, got[i], want[i])
		}
	}
}

func parkedOnOf(u *uop) *uop { return u.parkedOn }

// missConsumer is `ld r1 <- cold line; addi r2 <- r1+1`: the addi (pc 2)
// parks on the load (pc 1) for a full memory round trip.
func missConsumer() (*isa.Program, *mem.Memory) {
	m := mem.New()
	m.Store(wakeBase, 8, 41)
	b := asm.New("wake-miss")
	b.Liu(isa.R10, wakeBase) // 0
	b.Ld(isa.R1, isa.R10, 0) // 1
	b.Addi(isa.R2, isa.R1, 1)
	b.Halt()
	return b.MustBuild(), m
}

func TestIssueWakeup(t *testing.T) {
	t.Run("complete", func(t *testing.T) {
		for _, perCycle := range []bool{false, true} {
			cfg := config.Baseline()
			cfg.DisableEventQueue = perCycle
			prog, image := missConsumer()
			w := newWakeRun(t, cfg, prog, image, 2)
			w.run(nil)
			seq := w.watchedSeq()
			w.expectParks(seq, parkSpan{onPC: 1, released: stDone})
			w.expectIssue(seq, wantCompleteIssue)
		}
	})

	t.Run("commit", func(t *testing.T) {
		// A producer commits only from stDone, and stDone already released
		// its waiters; nothing can park on a ready producer. The commit
		// edge therefore never finds a live waiter: pin that, on a chain
		// whose every link parks on its predecessor.
		m := mem.New()
		m.Store(wakeBase, 8, 41)
		b := asm.New("wake-chain")
		b.Liu(isa.R10, wakeBase)  // 0
		b.Ld(isa.R1, isa.R10, 0)  // 1
		b.Muli(isa.R2, isa.R1, 3) // 2
		b.Muli(isa.R3, isa.R2, 5) // 3
		b.Addi(isa.R4, isa.R3, 1) // 4
		b.Halt()
		prog := b.MustBuild()
		w := newWakeRun(t, config.Baseline(), prog, m, 4)
		commits := 0
		w.e.commitHook = func(u *uop) {
			commits++
			for _, s := range u.waiters {
				if c := w.e.slotUops[s]; c.parkedOn == u && c.state == stWaiting {
					t.Errorf("seq %d committed holding parked waiter seq %d", u.seq, c.seq)
				}
			}
		}
		w.run(nil)
		seq := w.watchedSeq()
		w.expectParks(seq, parkSpan{onPC: 3, released: stDone})
		w.expectIssue(seq, wantCommitIssue)
		if commits == 0 {
			t.Fatal("nothing committed")
		}
	})

	t.Run("squash", func(t *testing.T) {
		// The machine's kill paths squash a producer's in-thread
		// consumers with it, so the edge is driven directly: squash the
		// load the consumer is parked on, as killOne would, and the
		// consumer must issue on the next cycle.
		cfg := config.Baseline()
		cfg.DisableEventQueue = true
		prog, image := missConsumer()
		w := newWakeRun(t, cfg, prog, image, 2)
		var squashedAt int64
		w.run(func(e *Engine) {
			if squashedAt != 0 {
				return
			}
			if c := w.find(2); c != nil && c.state == stWaiting && e.now == c.dispatchCycle+20 {
				e.squashUop(w.find(1))
				squashedAt = e.now
			}
		})
		if squashedAt == 0 {
			t.Fatal("the producer was never squashed")
		}
		seq := w.watchedSeq()
		w.expectParks(seq, parkSpan{onPC: 1, released: stSquashed})
		w.expectIssue(seq, squashedAt+1)
		w.expectIssue(seq, wantSquashIssue)
	})

	t.Run("stvp-reissue", func(t *testing.T) {
		// A last-value-predicted load (pc 3) sees 7 on every iteration but
		// the last, which returns 8. Its consumer, a divide (pc 4), issues
		// early on the predicted value. The add (pc 6) waits on the divide
		// and on a second cold load (pc 5) issued right after the first.
		// On the last iteration the misprediction sends the divide back to
		// stWaiting while the add is parked on the second load; when that
		// load returns, the add re-checks, re-parks on the reissued divide,
		// and issues when the divide completes again.
		const iters = 300
		m := mem.New()
		for i := uint64(0); i < iters; i++ {
			v := uint64(7)
			if i == iters-1 {
				v = 8
			}
			m.Store(wakeBase+i*4096, 8, v)
			m.Store(wakeBase2+i*4096, 8, i)
		}
		b := asm.New("wake-stvp")
		b.Liu(isa.R10, wakeBase)  // 0
		b.Liu(isa.R11, wakeBase2) // 1
		b.Li(isa.R9, iters)       // 2
		b.Label("loop")
		b.Ld(isa.R1, isa.R10, 0)      // 3
		b.Div(isa.R2, isa.R1, isa.R1) // 4
		b.Ld(isa.R4, isa.R11, 0)      // 5
		b.Add(isa.R5, isa.R2, isa.R4) // 6
		b.Addi(isa.R10, isa.R10, 4096)
		b.Addi(isa.R11, isa.R11, 4096)
		b.Addi(isa.R9, isa.R9, -1)
		b.Bne(isa.R9, isa.R0, "loop")
		b.Halt()
		cfg := config.Baseline().WithSTVP(config.PredLastValue, config.SelAlways)
		w := newWakeRun(t, cfg, b.MustBuild(), m, 6)
		w.run(nil)
		var divSeq uint64
		var reissuedAt int64
		for _, ev := range w.tr.ByKind(trace.KReissue) {
			if ev.PC == 4 {
				divSeq, reissuedAt = ev.Seq, ev.Cycle
			}
		}
		if divSeq == 0 {
			t.Fatal("the divide was never reissued; no misprediction reached it")
		}
		seq := divSeq + 2
		var reparked bool
		for _, s := range w.spans {
			if s.seq == seq && s.onPC == 4 && s.from >= reissuedAt {
				reparked = s.released == stDone
			}
		}
		if !reparked {
			t.Errorf("add seq %d never re-parked on the reissued divide (reissue at cycle %d): %+v",
				seq, reissuedAt, w.spans)
		}
		w.expectIssue(seq, wantReissueIssue)
	})

	t.Run("forward", func(t *testing.T) {
		// The load (pc 4) forwards from a store (pc 3) whose data comes
		// from a cold load (pc 2): its address is ready early, so it parks
		// on the forwarding store, not on a register producer.
		m := mem.New()
		m.Store(wakeBase2, 8, 41)
		b := asm.New("wake-fwd")
		b.Liu(isa.R10, wakeBase)  // 0
		b.Liu(isa.R11, wakeBase2) // 1
		b.Ld(isa.R5, isa.R11, 0)  // 2
		b.Sd(isa.R5, isa.R10, 0)  // 3
		b.Ld(isa.R6, isa.R10, 0)  // 4
		b.Halt()
		w := newWakeRun(t, config.Baseline(), b.MustBuild(), m, 4)
		w.run(nil)
		seq := w.watchedSeq()
		var last parkSpan
		for _, s := range w.spans {
			if s.seq == seq {
				last = s
			}
		}
		if last.onPC != 3 || last.released != stDone {
			t.Errorf("forwarding load's last park %+v, want on the store (pc 3) released at stDone", last)
		}
		w.expectIssue(seq, wantForwardIssue)
	})

	t.Run("iqstick", func(t *testing.T) {
		// The consumer is wedged at dispatch, as an injected IQStick
		// fault does. A stuck uop stays a candidate whatever its
		// producers, so it never parks until unstickQueues clears it;
		// then it parks on the outstanding load (early) or issues at
		// once (late, the load already back).
		for _, c := range []struct {
			name    string
			unstick int64 // cycles after dispatch
			parks   []parkSpan
			want    int64
		}{
			{"early", 50, []parkSpan{{onPC: 1, released: stDone}}, wantStickEarlyIssue},
			{"late", 3000, nil, wantStickLateIssue},
		} {
			t.Run(c.name, func(t *testing.T) {
				cfg := config.Baseline()
				cfg.DisableEventQueue = true
				prog, image := missConsumer()
				w := newWakeRun(t, cfg, prog, image, 2)
				var stuck *uop
				var stuckGen uint32
				var unstuckAt int64
				w.run(func(e *Engine) {
					c2 := w.find(2)
					if stuck == nil && c2 != nil && c2.state == stWaiting {
						stuck, stuckGen = c2, c2.gen
						e.setStuckUntil(c2, e.now+100_000)
						e.wake(c2.stuckUntil)
					}
					if stuck != nil && unstuckAt == 0 && e.now == stuck.dispatchCycle+c.unstick {
						if stuck.gen != stuckGen || stuck.state != stWaiting {
							t.Fatalf("stuck consumer left the queue before the unstick")
						}
						if !e.unstickQueues() {
							t.Fatal("unstickQueues found no stuck slot")
						}
						unstuckAt = e.now
					}
				})
				seq := w.watchedSeq()
				for _, s := range w.spans {
					if s.seq == seq && s.from <= unstuckAt {
						t.Errorf("consumer parked at cycle %d while stuck (unstuck at %d)", s.from, unstuckAt)
					}
				}
				w.expectParks(seq, c.parks...)
				w.expectIssue(seq, c.want)
			})
		}
	})
}

// Issue cycles of the watched consumers, as the full per-cycle rescan of
// every queue slot produced them.
const (
	wantCompleteIssue   = 2018
	wantCommitIssue     = 2024
	wantSquashIssue     = 1037
	wantReissueIssue    = 11136
	wantForwardIssue    = 2019
	wantStickEarlyIssue = 2018
	wantStickLateIssue  = 4017
)
