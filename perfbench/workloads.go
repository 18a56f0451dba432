package main

import (
	"fmt"
	"runtime"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/workload"
)

// machine is one column of a sweep: a label for the cell key and the
// machine configuration (instruction budget and seed not yet applied).
type machine struct {
	label string
	cfg   config.Config
}

// group is a benchmarks × machines block of cells.
type group struct {
	benches  []string
	machines []machine
}

// workloadDef is one benchmark workload: a closed batch of sweep cells run
// as one campaign, at a fixed useful-instruction budget per cell.
type workloadDef struct {
	name   string
	insts  uint64
	groups []group
	// images is how many workload seeds each benchmark × machine cell runs
	// at, derived from the run's seed. How costly a cell is depends on the
	// generated program (which loads run away under speculation, how large
	// the image is), so one run spreads its cost over several images.
	images int
	// fabric submits the campaign to an in-process fabric coordinator
	// instead of running it on the local harness pool.
	fabric bool
	// slots is the pool size: harness workers, or the fabric worker
	// agent's slots. 0 means maxWorkers.
	slots int
}

// maxWorkers is the largest pool: min(nproc, 2), the mtvpreport -jobs
// default on a 2-vCPU host.
func maxWorkers() int { return min(runtime.NumCPU(), 2) }

func (w workloadDef) poolSize() int {
	if w.slots > 0 {
		return w.slots
	}
	return maxWorkers()
}

func baseline() machine { return machine{"base", core.Baseline()} }

func wangFranklin(label string, contexts int) machine {
	if contexts == 0 {
		return machine{label, core.STVP(config.PredWangFranklin, config.SelILPPred)}
	}
	return machine{label, core.MTVP(contexts, config.PredWangFranklin, config.SelILPPred)}
}

func oracleLimit(contexts int) machine {
	return machine{fmt.Sprintf("mtvp%d", contexts), core.MTVPOracleLimit(contexts)}
}

// workloads are chosen so that each simulator layer is exercised by one
// workload and bypassed by another (shares from traced runs on a 2-vCPU
// host; README.md has the figures):
//
//   - sweep-resident: cache-resident kernels that rarely spawn. Pipeline
//     stage work takes two thirds of the CPU; the store buffer and the event
//     calendar's skips barely run.
//   - sweep-membound: 1000-cycle misses let the calendar skip most cycles;
//     image building takes as much CPU as the pipeline. No spawns, so
//     store-buffer overlays stay shallow.
//   - sweep-speculative: Figure 1's oracle machines with an unbounded store
//     buffer. Spawn/confirm/kill churn keeps stores in per-byte overlays and
//     the store buffer takes the largest CPU share. Stream kernels, because
//     they spawn alike at every seed; the blocked kernels' runaway cell
//     moves from seed to seed.
//   - sweep-fabric: short baseline cells over the whole suite through an
//     in-process fabric coordinator. Dispatch waits and image building take
//     the wall; simulator changes should not move it. One slot, so the
//     coordinator, its HTTP server, the client's polls and the collector
//     have the second CPU and do not stretch the cells they time.
var workloads = []workloadDef{
	{
		name:   "sweep-resident",
		insts:  100_000,
		images: 2,
		groups: []group{{
			benches:  []string{"crafty", "eon r", "mesa", "twolf", "gcc 1", "gcc 2", "gcc e", "gcc i", "perlbmk"},
			machines: []machine{baseline(), wangFranklin("mtvp8", 8)},
		}},
	},
	{
		name:   "sweep-membound",
		insts:  50_000,
		images: 3,
		groups: []group{{
			benches:  []string{"mcf", "art 1", "equake", "ammp", "parser", "vpr r", "gzip g", "bzip p", "swim", "lucas"},
			machines: []machine{baseline(), wangFranklin("stvp", 0)},
		}},
	},
	{
		name:   "sweep-speculative",
		insts:  60_000,
		images: 2,
		groups: []group{
			{
				benches:  []string{"swim", "applu", "apsi", "mgrid"},
				machines: []machine{oracleLimit(2), oracleLimit(4), oracleLimit(8)},
			},
			{
				benches:  []string{"mcf", "parser", "vpr r"},
				machines: []machine{wangFranklin("mtvp8-wf", 8)},
			},
		},
	},
	{
		name:   "sweep-fabric",
		insts:  5_000,
		images: 2,
		fabric: true,
		slots:  1,
		groups: []group{{
			benches:  workload.Names(),
			machines: []machine{baseline()},
		}},
	},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// cell is one sweep cell with its machine fully resolved.
type cell struct {
	key      string
	workload string
	seed     uint64 // workload build seed
	bench    workload.Benchmark
	preset   string
	cfg      config.Config
}

// cells expands the workload into its cells with the instruction budget
// and the workload seeds of run seed s applied: s itself, then
// s+imageStride, s+2·imageStride, …. The queue holds the whole suite at
// one image, then at the next, so that two images of one cell do not sit
// side by side and run at once: on sweep-speculative two copies of its
// heaviest cell running together set the peak resident set in some
// campaigns only.
func (w workloadDef) cells(s uint64) ([]cell, error) {
	var out []cell
	for i := 0; i < w.images; i++ {
		seed := s + uint64(i)*imageStride
		for _, g := range w.groups {
			for _, name := range g.benches {
				b, err := workload.ByName(name)
				if err != nil {
					return nil, err
				}
				for _, m := range g.machines {
					cfg := m.cfg
					cfg.MaxInsts = w.insts
					cfg.Seed = seed
					out = append(out, cell{
						key:      fmt.Sprintf("%s/%s/%s/s%d", w.name, b.Name, m.label, seed),
						workload: w.name,
						seed:     seed,
						bench:    b,
						preset:   m.label,
						cfg:      cfg,
					})
				}
			}
		}
	}
	return out, nil
}

// imageStride separates the workload seeds of one run, so that runs at
// nearby seeds share no image.
const imageStride = 1000

// images returns one cell per distinct workload image (benchmark and
// seed), in first-use order.
func images(cells []cell) []cell {
	seen := map[string]bool{}
	var out []cell
	for _, c := range cells {
		id := fmt.Sprintf("%s/%d", c.bench.Name, c.seed)
		if !seen[id] {
			seen[id] = true
			out = append(out, c)
		}
	}
	return out
}
