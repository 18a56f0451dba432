package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"mtvp/internal/experiments"
	"mtvp/internal/fabric"
	"mtvp/internal/harness"
	"mtvp/internal/obs"
	"mtvp/internal/stats"
)

// campaign is one closed batch: every cell queued up front, run to the end.
type campaign struct {
	wall     time.Duration
	workers  int                // pool size (harness workers or fabric slots)
	cells    map[string]cellRun // completed cells by key
	attempts int
	failures []string // one line per failed attempt

	// Dispatch timings per cell, in ms: queued → picked up by a worker,
	// picked up → result recorded, returned by the worker → recorded.
	queueMS, leaseMS, reportMS []float64
	// waitTail is the time from the last recorded result to the caller
	// seeing the campaign complete.
	waitTail time.Duration
}

// runner runs one campaign of cells in the given mode.
type runner func(ctx context.Context, cells []cell, m mode) (*campaign, error)

// localRunner runs campaigns on the harness worker pool with no retries, so
// a flaky cell shows as a failed attempt.
func localRunner(workers int) runner {
	return func(ctx context.Context, cells []cell, m mode) (*campaign, error) {
		var (
			mu       sync.Mutex
			started  = map[string]time.Time{}
			returned = map[string]time.Time{}
			lastDone time.Time
			camp     = &campaign{workers: workers, cells: map[string]cellRun{}}
		)
		jobs := make([]harness.Job[cellRun], len(cells))
		for i, c := range cells {
			c := c
			jobs[i] = harness.Job[cellRun]{Key: c.key, Seed: c.seed,
				Run: func(ctx context.Context, _ *harness.Heartbeat) (cellRun, error) {
					r, err := runCell(ctx, c, m)
					mu.Lock()
					returned[c.key] = time.Now()
					mu.Unlock()
					return r, err
				}}
		}
		start := time.Now()
		onEvent := func(ev harness.Event) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case harness.EventStart:
				started[ev.Key] = now
				camp.queueMS = append(camp.queueMS, ms(now.Sub(start)))
			case harness.EventDone, harness.EventFail:
				camp.leaseMS = append(camp.leaseMS, ms(now.Sub(started[ev.Key])))
				camp.reportMS = append(camp.reportMS, ms(now.Sub(returned[ev.Key])))
				lastDone = now
			}
		}
		res, err := harness.Run(ctx, harness.Config{Name: "perfbench", Workers: workers, OnEvent: onEvent}, jobs)
		end := time.Now()
		if res == nil {
			return nil, err
		}
		camp.wall = end.Sub(start)
		camp.waitTail = end.Sub(lastDone)
		camp.attempts = res.Summary.Attempts
		for k, r := range res.Results {
			camp.cells[k] = r
		}
		for _, f := range res.Summary.Failures {
			camp.failures = append(camp.failures, f.String())
		}
		return camp, nil
	}
}

// token authenticates the benchmark's own loopback fabric.
const token = "perfbench"

// fabricPool is an in-process fabric: a coordinator behind its HTTP server
// on loopback, one worker agent running experiments.RunSpec, and a client.
// Poll periods and lease TTL are the mtvpd defaults.
type fabricPool struct {
	co      *fabric.Coordinator
	srv     *fabric.Server
	client  *fabric.Client
	journal string
	slots   int
	stop    context.CancelFunc
	done    chan struct{}

	mu       sync.Mutex
	mode     mode
	runs     map[string]cellRun
	returned map[string]time.Time // when the worker's RunFunc returned
	cells    map[string]cell
	next     int // campaign counter: every submit gets a fresh campaign identity
}

// startFabric brings the fabric up and returns once the worker agent has
// contacted the coordinator. Journals go to a fresh directory under dir.
func startFabric(dir string, slots int) (*fabricPool, error) {
	journal, err := os.MkdirTemp(dir, "fabric-journal-")
	if err != nil {
		return nil, err
	}
	co, err := fabric.NewCoordinator(fabric.CoordinatorConfig{JournalDir: journal})
	if err != nil {
		return nil, err
	}
	srv, err := fabric.NewServer(co, fabric.ServerConfig{Addr: "127.0.0.1:0", Token: token})
	if err != nil {
		co.Close()
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	p := &fabricPool{
		co: co, srv: srv, client: fabric.NewClient(srv.URL(), token),
		journal: journal, slots: slots, stop: stop, done: make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		fabric.RunWorker(ctx, fabric.WorkerConfig{
			Coordinator: srv.URL(), Token: token, Name: "perfbench-worker",
			Slots: slots, Run: p.runSpec,
		})
	}()
	for len(co.Fleet()) == 0 {
		select {
		case <-p.done:
			p.close()
			return nil, fmt.Errorf("fabric worker exited during start-up")
		case <-time.After(time.Millisecond):
		}
	}
	return p, nil
}

// close stops the worker, waits for it, and shuts the coordinator down.
func (p *fabricPool) close() {
	p.stop()
	<-p.done
	p.srv.Close()
	p.co.Close()
	os.RemoveAll(p.journal)
}

// cellResult mirrors the experiments package's journal form of a cell, the
// payload experiments.RunSpec returns.
type cellResult struct {
	IPC   float64     `json:"ipc"`
	Stats stats.Stats `json:"stats"`
}

// runSpec is the worker's RunFunc. Plain campaigns run experiments.RunSpec,
// timed as a whole; traced campaigns run the benchmark's own instrumented
// cell, which produces the same payload.
func (p *fabricPool) runSpec(ctx context.Context, spec fabric.JobSpec, progress func(cycles, commits uint64)) (json.RawMessage, error) {
	p.mu.Lock()
	m, c := p.mode, p.cells[spec.Key]
	p.mu.Unlock()
	var (
		raw json.RawMessage
		r   cellRun
		err error
	)
	if m == traced {
		r, err = runCell(ctx, c, traced)
		if err == nil {
			raw, err = json.Marshal(cellResult{IPC: r.stats.UsefulIPC(), Stats: r.stats})
		}
	} else {
		start := time.Now()
		raw, err = experiments.RunSpec(ctx, spec, progress)
		r.run = time.Since(start)
		r.total = r.run
	}
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.runs[spec.Key] = r
	p.returned[spec.Key] = time.Now()
	p.mu.Unlock()
	return raw, nil
}

// runner submits each campaign to the coordinator and waits for it the way
// a sweep client does.
func (p *fabricPool) runner(seed uint64) runner {
	return func(ctx context.Context, cells []cell, m mode) (*campaign, error) {
		specs := make([]fabric.JobSpec, len(cells))
		byKey := make(map[string]cell, len(cells))
		for i, c := range cells {
			specs[i] = fabric.JobSpec{Key: c.key, Bench: c.bench.Name, Preset: c.preset, Seed: c.seed, Config: c.cfg}
			byKey[c.key] = c
		}
		p.mu.Lock()
		p.mode, p.cells, p.runs, p.returned = m, byKey, map[string]cellRun{}, map[string]time.Time{}
		p.next++
		name := fmt.Sprintf("%s-%d", cells[0].workload, p.next)
		// Client.Wait restarts its poll-jitter stream on every call. With
		// one seed, every campaign would poll at the same offsets from its
		// submit and its wall time would snap to the same poll; a seed per
		// campaign spreads the polls as independent clients would.
		p.client.JitterSeed = seed<<20 | uint64(p.next)
		p.mu.Unlock()

		start := time.Now()
		sub, err := p.client.Submit(ctx, fabric.CampaignSpec{
			Name:        name,
			Fingerprint: fmt.Sprintf("insts=%d seed=%d", cells[0].cfg.MaxInsts, seed),
			Jobs:        specs,
		})
		if err != nil {
			return nil, fmt.Errorf("submit: %w", err)
		}
		var final fabric.CampaignStatus
		res, err := p.client.Wait(ctx, sub.ID, func(st fabric.CampaignStatus) { final = st })
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("wait: %w", err)
		}
		tl, err := p.client.Timeline(ctx, sub.ID, 0)
		if err != nil {
			return nil, fmt.Errorf("timeline: %w", err)
		}

		camp := &campaign{wall: end.Sub(start), workers: p.slots, cells: map[string]cellRun{}}
		// Every requeue (lost lease, reported failure) and every rejected
		// result is one failed attempt beyond a cell's first.
		camp.attempts = len(specs) + final.Requeues + final.Corrupt
		for i := 0; i < final.Requeues+final.Corrupt; i++ {
			camp.failures = append(camp.failures, fmt.Sprintf("%s: requeued or rejected attempt", name))
		}
		for _, f := range res.Failures {
			camp.failures = append(camp.failures, f.String())
		}
		p.mu.Lock()
		runs, returned := p.runs, p.returned
		p.mu.Unlock()
		for key, raw := range res.Results {
			var cr cellResult
			if err := json.Unmarshal(raw, &cr); err != nil {
				camp.failures = append(camp.failures, fmt.Sprintf("%s: undecodable result: %v", key, err))
				continue
			}
			r := runs[key]
			r.stats = cr.Stats
			camp.cells[key] = r
		}
		var lastEnd time.Time
		for _, s := range tl.Spans {
			if s.End.IsZero() {
				continue
			}
			d := ms(s.End.Sub(s.Start))
			switch s.Kind {
			case obs.KindQueue:
				camp.queueMS = append(camp.queueMS, d)
			case obs.KindLease:
				camp.leaseMS = append(camp.leaseMS, d)
			case obs.KindReport:
				// The coordinator stamps a report at receipt; delivery
				// started when the worker's RunFunc returned.
				if t, ok := returned[s.Key]; ok {
					camp.reportMS = append(camp.reportMS, ms(s.Start.Sub(t)))
				}
			case obs.KindCell:
				if s.End.After(lastEnd) {
					lastEnd = s.End
				}
			}
		}
		if !lastEnd.IsZero() {
			camp.waitTail = end.Sub(lastEnd)
		}
		return camp, nil
	}
}

// buildAll builds every distinct workload image once and returns the host
// time Benchmark.Build took in total.
func buildAll(cells []cell) time.Duration {
	var total time.Duration
	for _, c := range images(cells) {
		start := time.Now()
		c.bench.Build(c.seed)
		total += time.Since(start)
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
