package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
)

// TraceEvent is one Chrome trace-event object. Field names follow the
// trace-event format spec. It is the shared wire type for every trace
// exporter in the tree: the pipeline PerfettoSink and the fabric's
// campaign trace endpoint both emit these through a TraceWriter.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"` // complete events (ph "X")
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceWriter streams a Chrome trace-event JSON document to an io.Writer:
// NewTraceWriter writes the object prefix, Emit appends events (managing
// commas), Close writes the suffix and flushes. A writer that is never
// Closed has not produced valid JSON. Errors are sticky: the first failure
// is kept and every later call is a no-op, so callers may emit
// unconditionally and check Err (or Close) once.
type TraceWriter struct {
	w   *bufio.Writer
	n   int
	err error
}

// NewTraceWriter returns a writer streaming Chrome trace-event JSON to w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	t := &TraceWriter{w: bufio.NewWriter(w)}
	_, t.err = t.w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	return t
}

// Emit appends one trace event.
func (t *TraceWriter) Emit(te TraceEvent) {
	if t.err != nil {
		return
	}
	b, err := json.Marshal(te)
	if err != nil {
		t.err = err
		return
	}
	if t.n > 0 {
		if err := t.w.WriteByte(','); err != nil {
			t.err = err
			return
		}
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return
	}
	t.n++
}

// NameTrack emits the metadata events that label track tid of process 0:
// its thread_name and a thread_sort_index equal to tid, so tracks sort by
// id. A non-empty process also names the process first (the event is
// attributed to tid); exporters pass it with their first track only.
func (t *TraceWriter) NameTrack(process string, tid int, name string) {
	if process != "" {
		t.Emit(TraceEvent{Name: "process_name", Ph: "M", PID: 0, TID: tid,
			Args: map[string]any{"name": process}})
	}
	t.Emit(TraceEvent{Name: "thread_name", Ph: "M", PID: 0, TID: tid,
		Args: map[string]any{"name": name}})
	t.Emit(TraceEvent{Name: "thread_sort_index", Ph: "M", PID: 0, TID: tid,
		Args: map[string]any{"sort_index": tid}})
}

// Close writes the JSON suffix and flushes. The writer must not be used
// afterwards.
func (t *TraceWriter) Close() error {
	if t.err != nil {
		return t.err
	}
	if _, err := t.w.WriteString("]}"); err != nil {
		return err
	}
	return t.w.Flush()
}

// Err returns the first write or encoding error, if any.
func (t *TraceWriter) Err() error { return t.err }
