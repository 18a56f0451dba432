package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path"
	"regexp"
	"strings"
	"time"
)

// pipelineFiles are the pipeline source files that get a CPU layer of their
// own; the rest of the package folds into cpu.pipeline.engine.
var pipelineFiles = map[string]string{
	"fetch": "fetch", "dispatch": "dispatch", "issue": "issue", "complete": "complete",
	"commit": "commit", "recover": "recover", "events": "events", "pool": "pool",
	"uop": "pool", "thread": "thread", "engine": "engine",
}

// packageLayers maps the other mtvp/internal packages to their layer.
// Packages not listed fold into cpu.other.
var packageLayers = map[string]string{
	"storebuf": "storebuf", "mem": "mem", "workload": "workload", "asm": "workload",
	"vpred": "vpred", "crit": "vpred", "bpred": "bpred", "cache": "cache",
	"prefetch": "prefetch", "isa": "isa", "harness": "harness", "experiments": "harness",
	"fabric": "fabric", "obs": "fabric", "telemetry": "telemetry",
}

// cpuLayers lists every CPU layer the fold reports, in output order.
var cpuLayers = []string{
	"pipeline.fetch", "pipeline.dispatch", "pipeline.issue", "pipeline.complete",
	"pipeline.commit", "pipeline.recover", "pipeline.events", "pipeline.pool",
	"pipeline.thread", "pipeline.engine",
	"storebuf", "mem", "workload", "vpred", "bpred", "cache", "prefetch", "isa",
	"harness", "fabric", "telemetry", "runtime.gc", "other",
}

// simulatorLayer reports whether a layer is part of the modelled machine:
// the pipeline, its memory system and predictors, and the functional ISA.
// Image building (workload), campaign dispatch, tracing instruments, the Go
// runtime and everything else are not.
func simulatorLayer(layer string) bool {
	if strings.HasPrefix(layer, "pipeline.") {
		return true
	}
	switch layer {
	case "storebuf", "mem", "vpred", "bpred", "cache", "prefetch", "isa":
		return true
	}
	return false
}

// frameRE splits a `pprof -traces -lines` frame into function and source
// file. Function names of generic instantiations may contain spaces, so the
// file is taken from the end of the line.
var frameRE = regexp.MustCompile(`^(.*\S)\s+(\S+\.(?:go|s)):\d+(?:\s+\(inline\))?$`)

// layerOf names the layer of one stack frame, or "" for frames outside
// mtvp/internal (the Go runtime, the standard library, this benchmark).
func layerOf(frame string) string {
	fn, file := frame, ""
	if m := frameRE.FindStringSubmatch(frame); m != nil {
		fn, file = m[1], m[2]
	}
	const prefix = "mtvp/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	pkg := rest[:strings.IndexAny(rest+".", "./")]
	if pkg == "pipeline" {
		if path.Base(file) == "telemetry.go" {
			return "telemetry" // the traced run's own probe feed
		}
		if l, ok := pipelineFiles[strings.TrimSuffix(path.Base(file), ".go")]; ok {
			return "pipeline." + l
		}
		return "pipeline.engine"
	}
	if l, ok := packageLayers[pkg]; ok {
		return l
	}
	return "other"
}

// gcFrames mark stacks of the collector's own goroutines.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// fold is a CPU profile folded by layer: each sample is charged to the
// innermost mtvp/internal frame of its stack, so map, malloc and GC-assist
// work lands on the layer that called it (image building excepted, see
// stackLayer).
type fold struct {
	total time.Duration
	layer map[string]time.Duration
	cell  map[string]time.Duration // by the pprof "cell" label
}

// foldProfile runs `go tool pprof -traces -lines` on the profiles, which it
// merges, and folds their stacks. The toolchain's pprof is used because no
// third-party profile parser is available offline.
func foldProfile(profiles []string) (*fold, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces", "-lines"}, profiles...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

// parseTraces folds pprof's -traces text: stacks separated by dashed
// lines, label lines ("key:  value") first, then the frames, leaf first,
// the first one prefixed by the sample value.
func parseTraces(text []byte) (*fold, error) {
	f := &fold{layer: map[string]time.Duration{}, cell: map[string]time.Duration{}}
	var (
		weight time.Duration
		frames []string
		cell   string
	)
	flush := func() {
		if weight != 0 {
			f.total += weight
			f.layer[stackLayer(frames)] += weight
			if cell != "" {
				f.cell[cell] += weight
			}
		}
		weight, frames, cell = 0, nil, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody {
			continue
		}
		s := strings.TrimSpace(line)
		if s == "" {
			continue
		}
		if weight == 0 {
			v, rest, _ := strings.Cut(s, " ")
			if key, ok := strings.CutSuffix(v, ":"); ok {
				if key == "cell" {
					cell = strings.TrimSpace(rest)
				}
				continue
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			weight = d
			s = strings.TrimSpace(rest)
		}
		frames = append(frames, s)
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if f.total == 0 {
		return nil, fmt.Errorf("pprof traces: profile holds no samples")
	}
	return f, nil
}

// stackLayer charges one stack (leaf first) to a layer: the innermost
// mtvp/internal frame's, except that everything under the workload package
// is image building, charged to workload even where it calls into mem.
func stackLayer(frames []string) string {
	layer := ""
	for _, fr := range frames {
		l := layerOf(fr)
		if l == "workload" {
			return l
		}
		if layer == "" {
			layer = l
		}
	}
	if layer != "" {
		return layer
	}
	for _, fr := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(fr, g+" ") || fr == g {
				return "runtime.gc"
			}
		}
	}
	return "other"
}
