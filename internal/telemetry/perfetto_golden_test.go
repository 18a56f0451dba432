package telemetry

import (
	"os"
	"strings"
	"testing"

	"mtvp/internal/trace"
)

// perfettoGoldenEvents covers every track-naming path of the exporter: the
// first track (which also names the process), a parent track first named
// by a spawn's flow arrow, a kill, a commit instant and the machine track.
func perfettoGoldenEvents() []trace.Event {
	return []trace.Event{
		{Cycle: 10, Kind: trace.KSpawn, Thread: 1, Order: 5, PC: -1, Peer: 0, PeerOrder: 2, HasPeer: true},
		{Cycle: 12, Kind: trace.KCommit, Thread: 0, Order: 2, Seq: 7, PC: 3, Text: "ld r1"},
		{Cycle: 14, Kind: trace.KSpawn, Thread: 2, Order: 6, PC: -1},
		{Cycle: 30, Kind: trace.KConfirm, Thread: 1, Order: 5, PC: -1},
		{Cycle: 31, Kind: trace.KKill, Thread: 2, Order: 6, PC: -1},
		{Cycle: 40, Kind: trace.KCancel, Thread: -1, PC: -1, Text: "canceled by observer"},
	}
}

// TestPerfettoExportGolden pins the exporter's output byte for byte,
// metadata events included, against testdata/perfetto_golden.json.
func TestPerfettoExportGolden(t *testing.T) {
	var b strings.Builder
	s := NewPerfettoSink(&b)
	for _, ev := range perfettoGoldenEvents() {
		s.Emit(ev)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/perfetto_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("export differs from golden:\ngot:  %s\nwant: %s", got, want)
	}
}
