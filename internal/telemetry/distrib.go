// Cross-process span records and stitched-trace export.
//
// The in-process tracer (trace.go) measures one process against its own
// monotonic clock. Distributed tracing needs the opposite trade: spans
// from three processes (client, proxy, backend) must land on one
// timeline, so SpanRecord timestamps are absolute wall-clock
// nanoseconds (time.Now().UnixNano()). On a single host — the only
// deployment the fleet targets — that is one clock, and the 24-byte
// fixed encoding rides inside traced response frames without
// allocation.
//
// WriteStitchedTrace merges SpanRecords from any number of processes
// into Chrome trace_event JSON: pid = originating process (ProcClient /
// ProcProxy / ProcBackend, with process_name metadata), tid = low bits
// of the trace id so concurrent requests get separate rows, and every
// event carries args.trace_id for post-hoc grouping (the obs-smoke CI
// gate groups on it with jq).
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Process ids for SpanRecord.Proc. Doubles as the Chrome-trace pid.
const (
	ProcClient  uint8 = 1
	ProcProxy   uint8 = 2
	ProcBackend uint8 = 3
)

// Pipeline stages for SpanRecord.Stage, in downstream order. Each
// process only emits its own stages; the stitched view interleaves
// them by start time.
const (
	StageRPC      uint8 = 1 // client: issue -> completion (whole round trip)
	StageFlush    uint8 = 2 // client: issue -> flushed onto the socket
	StageAdmit    uint8 = 3 // proxy: frame parsed -> inflight slot acquired
	StageRingWalk uint8 = 4 // proxy: slot acquired -> issued to a backend
	StageForward  uint8 = 5 // proxy: first-attempt issue -> upstream completion
	StageRetry    uint8 = 6 // proxy: failover reissue -> upstream completion
	StageQueue    uint8 = 7 // backend: conn admit -> kernel entry
	StageKernel   uint8 = 9 // backend: polynomial kernel evaluation (8 is retired)
)

var procNames = [...]string{ProcClient: "client", ProcProxy: "proxy", ProcBackend: "backend"}

var stageNames = [...]string{
	StageRPC:      "rpc",
	StageFlush:    "flush",
	StageAdmit:    "admit",
	StageRingWalk: "ringwalk",
	StageForward:  "forward",
	StageRetry:    "retry",
	StageQueue:    "queue",
	StageKernel:   "kernel",
}

// ProcName returns the display name for a process id ("proc#N" for
// unknown ids, so forward-compatible dumps still render).
func ProcName(proc uint8) string {
	if int(proc) < len(procNames) && procNames[proc] != "" {
		return procNames[proc]
	}
	return "proc#" + strconv.Itoa(int(proc))
}

// SpanName returns the stitched display name, e.g. "backend.kernel".
func SpanName(proc, stage uint8) string {
	sn := ""
	if int(stage) < len(stageNames) {
		sn = stageNames[stage]
	}
	if sn == "" {
		sn = "stage#" + strconv.Itoa(int(stage))
	}
	return ProcName(proc) + "." + sn
}

// SpanRecord is one pipeline-stage measurement, encoded as 24 bytes on
// the wire (u64 start, u64 dur, u8 proc, u8 stage, 6 reserved).
type SpanRecord struct {
	Start int64 // wall clock, ns since the Unix epoch
	Dur   int64 // ns
	Proc  uint8
	Stage uint8
}

// StitchedSpan is a SpanRecord tagged with the trace id it belongs to,
// ready for cross-process merge.
type StitchedSpan struct {
	TraceID uint64
	Span    SpanRecord
}

// WriteStitchedTrace renders spans (from any mix of processes and
// traces) as one Chrome trace_event JSON document. Timestamps are
// rebased to the earliest span so the timeline starts at zero; each
// event's args.trace_id ("0x…") groups the spans of one request.
func WriteStitchedTrace(w io.Writer, spans []StitchedSpan) error {
	sorted := append([]StitchedSpan(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].TraceID != sorted[j].TraceID {
			return sorted[i].TraceID < sorted[j].TraceID
		}
		return sorted[i].Span.Start < sorted[j].Span.Start
	})
	var t0 int64
	seen := [4]bool{}
	for i, s := range sorted {
		if i == 0 || s.Span.Start < t0 {
			t0 = s.Span.Start
		}
		if int(s.Span.Proc) < len(seen) {
			seen[s.Span.Proc] = true
		}
	}

	bw := &errWriter{w: w}
	bw.str(`{"traceEvents":[`)
	first := true
	for proc := range seen {
		if !seen[proc] {
			continue
		}
		if !first {
			bw.str(",")
		}
		first = false
		fmt.Fprintf(bw, `{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
			proc, strconv.Quote(ProcName(uint8(proc))))
	}
	for _, s := range sorted {
		if !first {
			bw.str(",")
		}
		first = false
		// tid: fold the trace id into a small row key so each in-flight
		// request renders on its own track within the process lane.
		tid := (s.TraceID ^ s.TraceID>>16) & 0x3ff
		fmt.Fprintf(bw, `{"ph":"X","pid":%d,"tid":%d,"name":%s,"ts":%s,"dur":%s,"args":{"trace_id":"0x%x"}}`,
			s.Span.Proc, tid, strconv.Quote(SpanName(s.Span.Proc, s.Span.Stage)),
			microString(s.Span.Start-t0), microString(s.Span.Dur), s.TraceID)
	}
	bw.str(`],"displayTimeUnit":"ns"}`)
	return bw.err
}
