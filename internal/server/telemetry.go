// Server observability on the shared internal/telemetry registry.
//
// Every counter lives in a telemetry.Registry, which gives the daemon
// a Prometheus /metrics endpoint, midpoint-interpolated percentiles
// (within −25%/+50%, documented on telemetry.Histogram.Quantile), and
// one registry that other layers (oracle cache, runtime kernels) can
// export through. /metrics is the one metrics surface.
package server

import (
	"net/http"
	"net/http/pprof"

	"rlibm32/internal/telemetry"
)

// funcMetrics is the per-(type, function) handle block, resolved once
// at construction so the request path performs no lookups.
type funcMetrics struct {
	Requests *telemetry.Counter   // eval requests accepted for this key
	Values   *telemetry.Counter   // total values evaluated
	Busy     *telemetry.Counter   // requests shed with StatusBusy
	lat      *telemetry.Histogram // request latency ns (submit → results ready)
}

// Metrics aggregates server-wide and per-function instruments on one
// telemetry registry. The per-key map is built once at construction
// (from the libm registry), so readers never need a lock.
type Metrics struct {
	reg   *telemetry.Registry
	byKey map[batchKey]*funcMetrics

	Conns         *telemetry.Gauge   // currently open connections
	Accepted      *telemetry.Counter // connections accepted since start
	Requests      *telemetry.Counter // eval requests (all keys)
	Malformed     *telemetry.Counter // malformed frames (connection closed)
	ErrFrames     *telemetry.Counter // error responses sent (any non-OK status)
	Batches       *telemetry.Counter // kernel calls (one per evaluated request)
	BatchedValues *telemetry.Counter // values across all kernel calls
	TracedFrames  *telemetry.Counter // request frames carrying a nonzero trace id

	batchSize    *telemetry.Histogram // values per kernel call
	shedValues   *telemetry.Counter   // values refused by admission control
	writevs      *telemetry.Counter   // scatter-gather flushes to client sockets
	writevFrames *telemetry.Counter   // response frames across all flushes
	writevBytes  *telemetry.Counter   // response bytes across all flushes
	draining     *telemetry.Gauge     // 1 while a graceful drain is running
	drains       *telemetry.Counter   // graceful drains completed
	drainNs      *telemetry.Gauge     // duration of the last completed drain
	flightDumps  *telemetry.Counter   // flight-recorder anomaly dumps written
}

func newMetrics(keys []batchKey) *Metrics {
	reg := telemetry.NewRegistry()
	m := &Metrics{
		reg:   reg,
		byKey: make(map[batchKey]*funcMetrics, len(keys)),
		Conns: reg.Gauge("rlibmd_connections",
			"currently open client connections"),
		Accepted: reg.Counter("rlibmd_connections_accepted_total",
			"connections accepted since start"),
		Requests: reg.Counter("rlibmd_requests_total",
			"eval requests across all functions"),
		Malformed: reg.Counter("rlibmd_malformed_frames_total",
			"malformed frames (connection closed)"),
		ErrFrames: reg.Counter("rlibmd_error_frames_total",
			"error responses sent (any non-OK status)"),
		Batches: reg.Counter("rlibmd_batches_total",
			"kernel calls, one per evaluated request"),
		BatchedValues: reg.Counter("rlibmd_batched_values_total",
			"values across all kernel calls"),
		TracedFrames: reg.Counter("rlibmd_traced_frames_total",
			"request frames carrying a nonzero trace id"),
		batchSize: reg.Histogram("rlibmd_batch_size",
			"values per kernel call (power-of-two buckets)"),
		shedValues: reg.Counter("rlibmd_shed_values_total",
			"values refused by admission control (BUSY)"),
		writevs: reg.Counter("rlibmd_writev_total",
			"scatter-gather flushes to client sockets"),
		writevFrames: reg.Counter("rlibmd_writev_frames_total",
			"response frames across all scatter-gather flushes"),
		writevBytes: reg.Counter("rlibmd_writev_bytes_total",
			"response bytes across all scatter-gather flushes"),
		draining: reg.Gauge("rlibmd_draining",
			"1 while a graceful drain is in progress"),
		drains: reg.Counter("rlibmd_drains_total",
			"graceful drains completed"),
		drainNs: reg.Gauge("rlibmd_drain_duration_ns",
			"duration of the last completed graceful drain"),
		flightDumps: reg.Counter("rlibmd_flight_dumps_total",
			"flight-recorder anomaly dumps written"),
	}
	for _, k := range keys {
		typ, name := TypeVariant(k.typ), k.name
		m.byKey[k] = &funcMetrics{
			Requests: reg.Counter("rlibmd_func_requests_total",
				"eval requests per function", "type", typ, "func", name),
			Values: reg.Counter("rlibmd_func_values_total",
				"values evaluated per function", "type", typ, "func", name),
			Busy: reg.Counter("rlibmd_func_busy_total",
				"requests shed with BUSY per function", "type", typ, "func", name),
			lat: reg.Histogram("rlibmd_request_latency_ns",
				"request latency, submit to results ready, in nanoseconds",
				"type", typ, "func", name),
		}
	}
	return m
}

// Registry exposes the underlying telemetry registry so the daemon can
// attach more exporters (oracle cache stats, runtime kernel counters)
// to the same /metrics page.
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// forKey returns the handle block for a dispatch key (nil for keys
// outside the registry — callers count those under ErrFrames only).
func (m *Metrics) forKey(k batchKey) *funcMetrics { return m.byKey[k] }

// AdminHandler serves the observability surface: Prometheus text
// format at /metrics (this server's registry) and the standard
// /debug/pprof endpoints.
func (m *Metrics) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", m.reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
