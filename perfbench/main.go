// Command perfbench is the repository's campaign benchmark. It runs one
// paper-style sweep workload as repeated closed-batch campaigns — every
// cell queued up front, a pool of at most two workers — through the
// harness and core.Run, or through an in-process fabric coordinator, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 they are the per-layer ones, from a run that also
// profiles the CPU and instruments every core.Run. Every run checks its
// outputs: an oracle-checked pass over every cell, one Stats digest per
// cell across all repetitions, and, on the fabric workload, fabric results
// against the local harness. Any violation makes the run exit non-zero.
//
// Build and run it from the repository root with run.sh, which keeps the
// build inside the checkout:
//
//	bash perfbench/run.sh --workload sweep-speculative --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: sweep-resident | sweep-membound | sweep-speculative | sweep-fabric")
	seed := fs.Uint64("seed", 1, "workload seed (1 is the tuning seed; 2 is held out)")
	seconds := fs.Int("seconds", 15, "how long the timed campaigns run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for profiles and per-cell results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d: %v\n", *name, *seconds, *trace, err)
		return 2
	}
	cells, err := w.cells(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	b := &bench{
		w: w, cells: cells, seed: *seed, dir: dir,
		window:  time.Duration(*seconds) * time.Second,
		workers: w.poolSize(),
		ref:     map[string]string{},
		out:     stdout,
	}
	var metrics []metric
	if *trace == 1 {
		metrics, err = b.perLayer()
	} else {
		metrics, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return b.finish(metrics)
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// bench is one benchmark run of one workload at one seed.
type bench struct {
	w       workloadDef
	cells   []cell
	seed    uint64
	dir     string
	window  time.Duration
	workers int
	out     io.Writer

	campaigns []*campaign
	ref       map[string]string // cell key → Stats digest of its first completed run
	attempts  int
	failed    int
	problems  []string
}

// record folds one campaign into the run's correctness ledger: its attempts
// and failures, and every cell's Stats digest against the first one seen.
func (b *bench) record(c *campaign) {
	b.campaigns = append(b.campaigns, c)
	b.attempts += c.attempts
	b.failed += len(c.failures)
	b.problems = append(b.problems, c.failures...)
	for _, cl := range b.cells {
		r, ok := c.cells[cl.key]
		if !ok {
			continue
		}
		d := digest(&r.stats)
		if want, seen := b.ref[cl.key]; !seen {
			b.ref[cl.key] = d
		} else if d != want {
			b.failed++
			b.problems = append(b.problems, fmt.Sprintf("%s: Stats digest %s differs from %s", cl.key, d[:12], want[:12]))
		}
	}
	if missing := len(b.cells) - len(c.cells) - len(c.failures); missing > 0 {
		b.failed += missing
		b.problems = append(b.problems, fmt.Sprintf("%d cell(s) returned no result", missing))
	}
}

// repeat runs one warm-up campaign, then campaigns until the window has
// passed and at least minReps have completed. Every campaign is recorded
// for the correctness gate; only the timed ones are returned. The
// process's peak resident set restarts after the warm-up, so that it
// covers the timed campaigns alone.
func (b *bench) repeat(run runner, m mode, window time.Duration, minReps int) ([]*campaign, error) {
	warm, err := run(context.Background(), b.cells, m)
	if err != nil {
		return nil, err
	}
	b.record(warm)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var out []*campaign
	start := time.Now()
	for len(out) < minReps || time.Since(start) < window {
		c, err := run(context.Background(), b.cells, m)
		if err != nil {
			return nil, err
		}
		b.record(c)
		out = append(out, c)
	}
	return out, nil
}

// setup builds every distinct workload image once and, on the fabric
// workload, brings up the coordinator and a worker agent with the given
// number of slots. It returns the pool (nil for local workloads), the
// set-up time, and the host time Benchmark.Build took.
func (b *bench) setup(slots int) (*fabricPool, time.Duration, time.Duration, error) {
	start := time.Now()
	build := buildAll(b.cells)
	var pool *fabricPool
	if b.w.fabric {
		var err error
		if pool, err = startFabric(b.dir, slots); err != nil {
			return nil, 0, 0, fmt.Errorf("fabric start-up: %w", err)
		}
	}
	return pool, time.Since(start), build, nil
}

func (b *bench) runner(pool *fabricPool, workers int) runner {
	if pool != nil {
		return pool.runner(b.seed)
	}
	return localRunner(workers)
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 3

// endToEnd measures the end-to-end metrics with tracing off.
func (b *bench) endToEnd() ([]metric, error) {
	var (
		setups []float64
		pool   *fabricPool
		build  time.Duration
	)
	for i := 0; i < setupReps; i++ {
		if pool != nil {
			pool.close()
		}
		p, d, bt, err := b.setup(b.workers)
		if err != nil {
			return nil, err
		}
		pool, build = p, bt
		setups = append(setups, d.Seconds())
	}
	reps, err := b.repeat(b.runner(pool, b.workers), plain, b.window, 3)
	if pool != nil {
		pool.close()
	}
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := b.gate(); err != nil {
		return nil, err
	}

	// cell_max_s is the slowest cell by its median time over the campaigns,
	// so one descheduled attempt does not set it.
	var cellTimes []float64
	perCell := map[string][]float64{}
	var cells int
	var wall time.Duration
	for _, c := range reps {
		for k, r := range c.cells {
			cellTimes = append(cellTimes, r.total.Seconds())
			perCell[k] = append(perCell[k], r.total.Seconds())
		}
		cells += len(c.cells)
		wall += c.wall
	}
	slowest := 0.0
	for _, v := range perCell {
		slowest = math.Max(slowest, median(v))
	}
	ms := []metric{
		// Total over total, not a median of campaigns: on the fabric a
		// campaign's wall is quantized by the client's poll period.
		{"cells_per_s", float64(cells) / wall.Seconds(), "1/s"},
		{"cell_p50_s", median(cellTimes), "s"},
		{"cell_max_s", slowest, "s"},
		{"peak_rss_mb", rss, "MB"},
		{"ok_ratio", b.okRatio(), "ratio"},
		{"setup_s", median(setups), "s"},
	}
	fmt.Fprintf(b.out, "campaigns %d  cells/campaign %d  insts/cell %d  workers %d\n",
		len(reps), len(b.cells), b.w.insts, b.workers)
	fmt.Fprintf(b.out, "failed_ratio %.6f  (%d failed of %d attempts)\n", 1-b.okRatio(), b.failed, b.attempts)
	for _, m := range b.timedLayers(reps, build) {
		fmt.Fprintf(b.out, "layer %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	return ms, nil
}

// The traced run gives phasePool of its window to the measured pool with
// tracing off, and the rest to one worker alternating untraced and traced
// campaigns, so that host-speed drift hits both sides of
// tracing_overhead_pct alike.
const (
	phasePool     = 0.40
	tracedMinReps = 2
	bytesPerMB    = 1 << 20
)

// perLayer is the traced run: the per-layer timings of the measured pool,
// then one worker alternating untraced and traced campaigns. Each traced
// campaign runs under its own CPU profile; the profiles are folded by layer
// together.
func (b *bench) perLayer() ([]metric, error) {
	pool, _, build, err := b.setup(b.workers)
	if err != nil {
		return nil, err
	}
	reps, err := b.repeat(b.runner(pool, b.workers), plain, scale(b.window, phasePool), tracedMinReps)
	if pool != nil {
		pool.close()
		pool = nil
	}
	if err != nil {
		return nil, err
	}
	ms := b.timedLayers(reps, build)

	if b.w.fabric {
		if pool, err = startFabric(b.dir, 1); err != nil {
			return nil, err
		}
		defer pool.close()
	}
	one := b.runner(pool, 1)
	var untraced, tracedReps []*campaign
	var profiles []string
	start := time.Now()
	for len(tracedReps) < tracedMinReps || time.Since(start) < scale(b.window, 1-phasePool) {
		u, err := one(context.Background(), b.cells, plain)
		if err != nil {
			return nil, err
		}
		b.record(u)
		untraced = append(untraced, u)

		profile := filepath.Join(b.dir, fmt.Sprintf("cpu-%d.pprof", len(profiles)+1))
		t, err := b.profiled(one, profile)
		if err != nil {
			return nil, err
		}
		b.record(t)
		tracedReps = append(tracedReps, t)
		profiles = append(profiles, profile)
	}
	fd, err := foldProfile(profiles)
	if err != nil {
		return nil, err
	}
	if err := b.gate(); err != nil {
		return nil, err
	}

	ms = append(ms, b.tracedLayers(untraced, tracedReps, fd)...)
	ms = append(ms, simCounts(b.campaigns[0])...)
	return ms, b.writeCells(tracedReps, fd)
}

// profiled runs one traced campaign under a CPU profile written to path,
// with the workload as a pprof label.
func (b *bench) profiled(run runner, path string) (*campaign, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var c *campaign
	pprof.Do(context.Background(), pprof.Labels("workload", b.w.name), func(ctx context.Context) {
		c, err = run(ctx, b.cells, traced)
	})
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return c, err
}

// timedLayers are the per-layer timings taken at public calls on every
// run. build is the set-up's Benchmark.Build time, used on the fabric
// workload where RunSpec builds inside the timed call.
func (b *bench) timedLayers(reps []*campaign, build time.Duration) []metric {
	var builds, runs, idle, queue, lease, report, tails []float64
	var runTime time.Duration
	var committed, cycles uint64
	for _, c := range reps {
		var sumBuild, sumRun, sumTotal time.Duration
		for _, r := range c.cells {
			sumBuild += r.build
			sumRun += r.run
			sumTotal += r.total
			committed += r.stats.Committed
			cycles += r.stats.Cycles
		}
		if b.w.fabric {
			sumBuild = build
		}
		runTime += sumRun
		builds = append(builds, sumBuild.Seconds())
		runs = append(runs, sumRun.Seconds())
		idle = append(idle, (time.Duration(c.workers)*c.wall - sumTotal).Seconds())
		queue = append(queue, c.queueMS...)
		lease = append(lease, c.leaseMS...)
		report = append(report, c.reportMS...)
		tails = append(tails, c.waitTail.Seconds())
	}
	return []metric{
		{"workload.build_s", median(builds), "s"},
		{"pipeline.run_s", median(runs), "s"},
		{"pipeline.sim_minsts_per_s", float64(committed) / runTime.Seconds() / 1e6, "Minst/s"},
		{"pipeline.host_ns_per_sim_cycle", float64(runTime.Nanoseconds()) / float64(cycles), "ns"},
		{"harness.idle_worker_s", median(idle), "s"},
		{"dispatch.queue_ms_p50", median(queue), "ms"},
		{"dispatch.lease_ms_p50", median(lease), "ms"},
		{"dispatch.report_ms_p50", median(report), "ms"},
		{"dispatch.wait_tail_s", median(tails), "s"},
	}
}

// tracedLayers are the traced run's CPU shares, memory around each
// core.Run, event-calendar counts and tracing overhead.
func (b *bench) tracedLayers(untraced, tracedReps []*campaign, fd *fold) []metric {
	var ms []metric
	share := func(d time.Duration) float64 { return 100 * float64(d) / float64(fd.total) }
	var pipe, sim time.Duration
	for _, l := range cpuLayers {
		d := fd.layer[l]
		if strings.HasPrefix(l, "pipeline.") {
			pipe += d
		}
		if simulatorLayer(l) {
			sim += d
		}
		ms = append(ms, metric{"cpu." + l, share(d), "%"})
	}
	var tracedWall time.Duration
	var uw, tw []float64
	for _, c := range untraced {
		uw = append(uw, c.wall.Seconds())
	}
	for _, c := range tracedReps {
		tw = append(tw, c.wall.Seconds())
		tracedWall += c.wall
	}
	ms = append(ms,
		metric{"cpu.pipeline", share(pipe), "%"},
		metric{"cpu.simulator_pct_of_wall", 100 * float64(sim) / float64(tracedWall), "%"},
		metric{"tracing_overhead_pct", 100 * (median(tw)/median(uw) - 1), "%"},
	)

	var allocBytes, allocObjects, peak, committed uint64
	var fired, deduped, depth int64
	var n int
	for _, c := range tracedReps {
		for _, r := range c.cells {
			allocBytes += r.allocBytes
			allocObjects += r.allocObjects
			peak = max(peak, r.peakHeap)
			committed += r.stats.Committed
			n++
		}
	}
	for _, r := range tracedReps[0].cells {
		fired += r.evFired
		deduped += r.evDeduped
		depth += r.evDepth
	}
	return append(ms,
		metric{"pipeline.alloc_mb_per_cell", float64(allocBytes) / float64(n) / bytesPerMB, "MB"},
		metric{"pipeline.allocs_per_kinst", float64(allocObjects) / (float64(committed) / 1000), "count"},
		metric{"pipeline.peak_heap_mb", float64(peak) / bytesPerMB, "MB"},
		metric{"pipeline.events.fired", float64(fired), "count"},
		// Base: every enqueue attempt, i.e. entries fired, entries still
		// pending, and enqueues the dedup ring absorbed.
		metric{"pipeline.events.dedup_ratio", ratio(float64(deduped), float64(fired+depth+deduped)), "ratio"},
	)
}

// gate is the untimed correctness pass: every distinct cell once on the
// local harness under the lockstep oracle (Config.Check). Its Stats
// digests must equal those of every timed repetition — on the fabric
// workload this is the fabric/local comparison.
func (b *bench) gate() error {
	c, err := localRunner(maxWorkers())(context.Background(), b.cells, checked)
	if err != nil {
		return fmt.Errorf("checked pass: %w", err)
	}
	b.record(c)
	return nil
}

func (b *bench) okRatio() float64 {
	return float64(b.attempts-b.failed) / float64(b.attempts)
}

// campaignDigest is the SHA-256 over every cell's key and Stats digest in
// key order: identical digests mean bit-identical simulation.
func (b *bench) campaignDigest() string {
	keys := make([]string, 0, len(b.ref))
	for k := range b.ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, b.ref[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// finish prints the digest, every metric, and the result line.
func (b *bench) finish(ms []metric) int {
	correct := b.failed == 0
	fmt.Fprintf(b.out, "workload %s  seed %d  digest %s\n", b.w.name, b.seed, b.campaignDigest())
	for _, p := range b.problems {
		fmt.Fprintln(b.out, "FAIL", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, b.attempts, b.failed, map[string]value{}}
	for _, m := range ms {
		fmt.Fprintf(b.out, "%-34s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	if err := b.writeCampaigns(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(b.dir, "result.json"), append(line, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(b.out, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// writeCampaigns writes every campaign the run made, in order: its wall
// time and each cell's host time.
func (b *bench) writeCampaigns() error {
	type row struct {
		WallS   float64            `json:"wall_s"`
		Workers int                `json:"workers"`
		CellS   map[string]float64 `json:"cell_s"`
	}
	rows := make([]row, len(b.campaigns))
	for i, c := range b.campaigns {
		rows[i] = row{c.wall.Seconds(), c.workers, map[string]float64{}}
		for k, r := range c.cells {
			rows[i].CellS[k] = r.total.Seconds()
		}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.dir, "campaigns.json"), append(data, '\n'), 0o644)
}

// writeCells writes the per-cell record of the traced run beside the raw
// profile: Stats digest, host times, and CPU time by the pprof cell label.
func (b *bench) writeCells(reps []*campaign, fd *fold) error {
	type row struct {
		Key       string  `json:"key"`
		Digest    string  `json:"digest"`
		TotalS    float64 `json:"total_s"`
		BuildS    float64 `json:"build_s"`
		RunS      float64 `json:"run_s"`
		CPUS      float64 `json:"cpu_s"`
		Committed uint64  `json:"committed"`
		Cycles    uint64  `json:"cycles"`
		PeakHeapM float64 `json:"peak_heap_mb"`
	}
	var rows []row
	for _, c := range b.cells {
		r := reps[0].cells[c.key]
		rows = append(rows, row{
			Key: c.key, Digest: b.ref[c.key],
			TotalS: r.total.Seconds(), BuildS: r.build.Seconds(), RunS: r.run.Seconds(),
			CPUS:      fd.cell[c.key].Seconds() / float64(len(reps)),
			Committed: r.stats.Committed, Cycles: r.stats.Cycles,
			PeakHeapM: float64(r.peakHeap) / bytesPerMB,
		})
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.dir, "cells.json"), append(data, '\n'), 0o644)
}

// resetPeakRSS restarts the process's peak resident set size (VmHWM) from
// its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("peak RSS reset: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }
