package obs

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// traceGoldenSpans is buildRun's two-worker campaign plus one open cell
// and lease, so the golden covers closed, open and instant spans and both
// flow-arrow kinds.
func traceGoldenSpans() []Span {
	spans := buildRun("c")
	trc := TraceID("c", "k3")
	return append(spans,
		Span{Trace: trc, ID: SpanID(trc, KindCell, 0), Kind: KindCell, Key: "k3",
			Start: time.Unix(2000, 0)},
		Span{Trace: trc, ID: SpanID(trc, KindLease, 1), Kind: KindLease, Key: "k3",
			Worker: "w-fast", Attempt: 1, Start: time.Unix(2000, 0)},
		Span{Trace: trc, ID: SpanID(trc, KindVerify, 0), Kind: KindVerify, Key: "k3",
			Start: time.Unix(2000, 5e6), End: time.Unix(2000, 5e6)},
	)
}

// TestWriteTraceGolden pins WriteTrace's output byte for byte, metadata
// events included, against testdata/trace_golden.json.
func TestWriteTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "golden", traceGoldenSpans(), time.Unix(2001, 0)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/trace_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from golden:\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}
}
