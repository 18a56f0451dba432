package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"mtvp/internal/core"
	"mtvp/internal/stats"
	"mtvp/internal/telemetry"
)

// mode selects how a cell is run.
type mode int

const (
	// plain is the measured configuration: Benchmark.Build plus core.Run.
	plain mode = iota
	// checked adds the lockstep oracle and invariant auditor (Config.Check).
	checked
	// traced runs under pprof labels through core.RunInstrumented with a
	// telemetry probe, and records runtime/metrics deltas around the run.
	traced
)

// cellRun is one completed cell: its statistics and the host time spent in
// each public call.
type cellRun struct {
	stats stats.Stats
	build time.Duration // Benchmark.Build
	run   time.Duration // core.Run (or RunSpec on the fabric, build included)
	total time.Duration // the whole cell

	// Traced cells only.
	allocBytes   uint64 // /gc/heap/allocs:bytes across core.Run
	allocObjects uint64 // /gc/heap/allocs:objects across core.Run
	peakHeap     uint64 // peak /memory/classes/heap/objects:bytes during core.Run
	evFired      int64  // calendar entries fired
	evDeduped    int64  // enqueues absorbed by the dedup ring
	evDepth      int64  // entries still pending at the end
}

// runCell builds the cell's workload image and simulates it. ctx
// cancellation stops the simulation at the engine's next observer poll.
func runCell(ctx context.Context, c cell, m mode) (cellRun, error) {
	if m != traced {
		return simulate(ctx, c, m)
	}
	var r cellRun
	var err error
	pprof.Do(ctx, pprof.Labels("workload", c.workload, "cell", c.key), func(ctx context.Context) {
		r, err = simulate(ctx, c, m)
	})
	return r, err
}

func simulate(ctx context.Context, c cell, m mode) (cellRun, error) {
	cfg := c.cfg
	cfg.Check = m == checked
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	cfg.Observe = func(_, _ uint64) bool {
		if m == traced {
			metrics.Read(heap)
			peak = max(peak, heap[0].Value.Uint64())
		}
		return ctx.Err() == nil
	}

	start := time.Now()
	prog, image := c.bench.Build(c.seed)
	built := time.Now()
	var (
		res  *core.Result
		err  error
		r    cellRun
		mach *telemetry.Machine
	)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	if m == traced {
		mach = telemetry.NewMachine(telemetry.NewRegistry(), nil)
		metrics.Read(allocs)
		r.allocBytes, r.allocObjects = allocs[0].Value.Uint64(), allocs[1].Value.Uint64()
		res, err = core.RunInstrumented(cfg, prog, image, core.Instruments{Machine: mach})
	} else {
		res, err = core.Run(cfg, prog, image)
	}
	done := time.Now()
	if err != nil {
		return cellRun{}, fmt.Errorf("%s on %s: %w", c.bench.Name, c.preset, err)
	}
	if m == traced {
		metrics.Read(allocs)
		r.allocBytes = allocs[0].Value.Uint64() - r.allocBytes
		r.allocObjects = allocs[1].Value.Uint64() - r.allocObjects
		r.peakHeap = peak
		r.evFired = mach.EventQFired.Value()
		r.evDeduped = mach.EventQDeduped.Value()
		r.evDepth = mach.EventQDepth.Value()
	}
	r.stats = res.Stats
	r.build, r.run, r.total = built.Sub(start), done.Sub(built), done.Sub(start)
	return r, nil
}

// digest is the SHA-256 of every Stats counter, by name, in declaration
// order: two runs of one cell must produce the same digest.
func digest(st *stats.Stats) string {
	h := sha256.New()
	for _, c := range st.Counters() {
		fmt.Fprintf(h, "%s=%d\n", c.Name, c.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}
