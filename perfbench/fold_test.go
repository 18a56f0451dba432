package main

import (
	"testing"
	"time"
)

const tracesText = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 70ms (6.00%)
-----------+-------------------------------------------------------
      cell:  sweep-speculative/swim/mtvp8/s1
  workload:  sweep-speculative
      20ms   internal/runtime/maps.(*Map).getWithKeySmall /go/src/internal/runtime/maps/map.go:100
             runtime.mapaccess2 /go/src/runtime/map_swiss.go:50
             mtvp/internal/storebuf.(*Overlay).loadByte /repo/internal/storebuf/storebuf.go:120 (inline)
             mtvp/internal/pipeline.(*Engine).issueOne /repo/internal/pipeline/issue.go:88
-----------+-------------------------------------------------------
      10ms   mtvp/internal/pipeline.(*Engine).compactQueue /repo/internal/pipeline/uop.go:70 (inline)
             mtvp/internal/pipeline.(*Engine).issue /repo/internal/pipeline/issue.go:40
-----------+-------------------------------------------------------
      10ms   mtvp/internal/pipeline.(*Engine).telemetryGauges /repo/internal/pipeline/telemetry.go:51
-----------+-------------------------------------------------------
      10ms   mtvp/internal/harness.attempt[go.shape.struct { main.stats mtvp/internal/stats.Stats }].func2 /repo/internal/harness/harness.go:310
-----------+-------------------------------------------------------
      10ms   mtvp/internal/mem.(*Memory).Store /repo/internal/mem/mem.go:70
             mtvp/internal/workload.buildStream /repo/internal/workload/archetypes.go:300
             mtvp/internal/workload.Benchmark.Build /repo/internal/workload/workload.go:46
-----------+-------------------------------------------------------
      10ms   runtime.scanobject /go/src/runtime/mgcmark.go:1400
             runtime.gcDrain /go/src/runtime/mgcmark.go:1200
             runtime.gcBgMarkWorker.func2 /go/src/runtime/mgc.go:1400
             runtime.gcBgMarkWorker /go/src/runtime/mgc.go:1350
-----------+-------------------------------------------------------
`

func TestParseTracesFoldsByInnermostRepositoryFrame(t *testing.T) {
	f, err := parseTraces([]byte(tracesText))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"storebuf":      20 * time.Millisecond, // map work charged to its caller
		"pipeline.pool": 10 * time.Millisecond, // uop.go folds into pool
		"telemetry":     10 * time.Millisecond,
		"harness":       10 * time.Millisecond, // generic shape with spaces
		"runtime.gc":    10 * time.Millisecond,
		"workload":      10 * time.Millisecond, // image building, mem frames included
	}
	if f.total != 70*time.Millisecond {
		t.Errorf("total = %v, want 70ms", f.total)
	}
	for l, d := range want {
		if f.layer[l] != d {
			t.Errorf("layer %s = %v, want %v (all: %v)", l, f.layer[l], d, f.layer)
		}
	}
	if got := f.cell["sweep-speculative/swim/mtvp8/s1"]; got != 20*time.Millisecond {
		t.Errorf("cell label time = %v, want 20ms", got)
	}
}

func TestParseTracesRejectsEmptyProfile(t *testing.T) {
	if _, err := parseTraces([]byte("File: x\n-----------+---\n")); err == nil {
		t.Fatal("want an error for a profile with no samples")
	}
}
