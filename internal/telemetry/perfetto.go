package telemetry

import (
	"fmt"
	"io"

	"mtvp/internal/trace"
)

// PerfettoSink exports the pipeline event stream in the Chrome trace-event
// JSON format, loadable by Perfetto (ui.perfetto.dev) and chrome://tracing.
//
// Mapping:
//   - Each hardware context renders as one track (pid 0, tid = context id,
//     named "ctx N" via thread_name metadata). One simulated cycle is one
//     microsecond of trace time.
//   - A speculative thread's lifetime is a duration slice on its context's
//     track: opened at KSpawn, closed at KConfirm or KKill.
//   - Spawn→confirm/kill causality renders as flow arrows: a flow starts on
//     the parent's track at the spawn cycle and finishes on the child's
//     track where the speculation resolves (the flow id is the child's
//     unique speculation order).
//   - Every other event kind renders as a thread-scoped instant.
//
// The JSON is streamed through a TraceWriter: NewPerfettoSink writes the
// object prefix, Emit appends events, Close writes the suffix. A sink that
// is never Closed is not valid JSON.
type PerfettoSink struct {
	tw    *TraceWriter
	named map[int]bool  // context tracks already given a thread_name
	open  map[int64]int // speculation order -> tid of an open spawn slice
}

// machineTID is the synthetic track for machine-level events that carry no
// context (trace events with Thread < 0, e.g. an observer cancellation).
const machineTID = 1 << 20

// NewPerfettoSink returns a sink streaming Chrome trace-event JSON to w.
func NewPerfettoSink(w io.Writer) *PerfettoSink {
	return &PerfettoSink{
		tw:    NewTraceWriter(w),
		named: map[int]bool{},
		open:  map[int64]int{},
	}
}

func (s *PerfettoSink) write(te TraceEvent) { s.tw.Emit(te) }

// nameTrack emits the one-time metadata events naming a context's track;
// the first track named also names the process.
func (s *PerfettoSink) nameTrack(tid int) {
	if s.named[tid] {
		return
	}
	s.named[tid] = true
	process := ""
	if len(s.named) == 1 {
		process = "mtvp machine"
	}
	label := fmt.Sprintf("ctx %d", tid)
	if tid == machineTID {
		label = "machine"
	}
	s.tw.NameTrack(process, tid, label)
}

// Emit implements trace.Tracer.
func (s *PerfettoSink) Emit(ev trace.Event) {
	tid := ev.Thread
	if tid < 0 {
		tid = machineTID
	}
	s.nameTrack(tid)
	ts := ev.Cycle // 1 cycle = 1 us of trace time

	args := map[string]any{"order": ev.Order}
	if ev.Text != "" {
		args["text"] = ev.Text
	}
	if ev.Seq != 0 {
		args["seq"] = ev.Seq
	}
	if ev.PC >= 0 {
		args["pc"] = ev.PC
	}

	switch ev.Kind {
	case trace.KSpawn:
		// Lifetime slice on the child's track...
		s.write(TraceEvent{Name: fmt.Sprintf("spec o%d", ev.Order), Ph: "B",
			TS: ts, PID: 0, TID: tid, Cat: "spec", Args: args})
		s.open[ev.Order] = tid
		// ...and a flow arrow from the spawning parent's track.
		if ev.HasPeer {
			ptid := ev.Peer
			s.nameTrack(ptid)
			s.write(TraceEvent{Name: "spawn", Ph: "s", TS: ts, PID: 0, TID: ptid,
				Cat: "spawn", ID: ev.Order})
		} else {
			s.write(TraceEvent{Name: "spawn", Ph: "s", TS: ts, PID: 0, TID: tid,
				Cat: "spawn", ID: ev.Order})
		}
	case trace.KConfirm, trace.KKill:
		s.write(TraceEvent{Name: ev.Kind.String(), Ph: "i", TS: ts, PID: 0, TID: tid,
			Cat: "spec", S: "t", Args: args})
		if openTID, ok := s.open[ev.Order]; ok {
			delete(s.open, ev.Order)
			s.write(TraceEvent{Name: fmt.Sprintf("spec o%d", ev.Order), Ph: "E",
				TS: ts, PID: 0, TID: openTID})
			s.write(TraceEvent{Name: "spawn", Ph: "f", BP: "e", TS: ts, PID: 0,
				TID: tid, Cat: "spawn", ID: ev.Order})
		}
	default:
		s.write(TraceEvent{Name: ev.Kind.String(), Ph: "i", TS: ts, PID: 0, TID: tid,
			Cat: "pipe", S: "t", Args: args})
	}
}

// Close ends the stream: open lifetime slices are deliberately left
// unclosed — Perfetto renders them as running to the end of the trace,
// which is exactly what an unresolved speculation at run end is.
func (s *PerfettoSink) Close() error { return s.tw.Close() }

// Err returns the first write or encoding error, if any.
func (s *PerfettoSink) Err() error { return s.tw.Err() }
