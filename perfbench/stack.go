package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rlibm32/internal/server"
	"rlibm32/internal/server/proxy"
	"rlibm32/internal/telemetry"
)

// stack is a set of serving tiers running inside this process on
// ephemeral 127.0.0.1 ports: rlibmd backends, optionally an rlibmproxy
// in front of them, and the workload's client connections to the front
// tier.
type stack struct {
	servers  []*server.Server
	backends []string // backend listen addresses
	proxy    *proxy.Proxy
	front    string // address the workload's connections dial
	conns    []*server.Client
	serving  sync.WaitGroup
}

// startStack brings the tiers up and returns once every endpoint has
// answered Ping: each backend directly, and the front tier on every
// workload connection.
func startStack(backends int, withProxy bool, conns int) (*stack, error) {
	st := &stack{}
	for i := 0; i < backends; i++ {
		s := server.New(server.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("listen for rlibmd: %w", err)
		}
		st.servers = append(st.servers, s)
		st.backends = append(st.backends, ln.Addr().String())
		st.serve(func() error { return s.Serve(ln) })
	}
	st.front = st.backends[0]
	if withProxy {
		p, err := proxy.New(proxy.Config{Backends: st.backends, Logf: func(string, ...any) {}})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("start rlibmproxy: %w", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("listen for rlibmproxy: %w", err)
		}
		st.proxy = p
		st.front = ln.Addr().String()
		st.serve(func() error { return p.Serve(ln) })
	}
	for _, addr := range st.backends {
		c, err := server.Dial(addr)
		if err == nil {
			err = c.Ping()
			c.Close()
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("ping rlibmd %s: %w", addr, err)
		}
	}
	for i := 0; i < conns; i++ {
		c, err := server.Dial(st.front)
		if err == nil {
			st.conns = append(st.conns, c)
			err = c.Ping()
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("ping %s: %w", st.front, err)
		}
	}
	return st, nil
}

func (st *stack) serve(serve func() error) {
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		// Serve returns ErrServerClosed after Shutdown; anything else has
		// already failed the Ping that start waits for.
		_ = serve()
	}()
}

// close tears the tiers down front to back and waits until every Serve
// loop has returned.
func (st *stack) close() {
	for _, c := range st.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.proxy != nil {
		st.proxy.Shutdown(ctx)
	}
	for _, s := range st.servers {
		s.Shutdown(ctx)
	}
	st.serving.Wait()
}

// admins returns the admin handlers of the daemons: backends first,
// then the proxy if present.
func (st *stack) admins() []http.Handler {
	var hs []http.Handler
	for _, s := range st.servers {
		hs = append(hs, s.AdminHandler())
	}
	if st.proxy != nil {
		hs = append(hs, st.proxy.AdminHandler())
	}
	return hs
}

// scrape reads one daemon's /metrics Prometheus text through its admin
// handler, in process.
func scrape(h http.Handler) ([]telemetry.Sample, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	return telemetry.ParseText(rec.Body)
}

// promSum sums every series of one metric name.
func promSum(ss []telemetry.Sample, name string) float64 {
	var v float64
	for _, s := range ss {
		if s.Name == name {
			v += s.Value
		}
	}
	return v
}

// promBuckets adds the per-bucket (not cumulative) counts of histogram
// name, summed over its label sets, into into. The exposition skips
// empty buckets, so each label set is de-accumulated on its own.
func promBuckets(ss []telemetry.Sample, name string, into map[float64]float64) error {
	type bucket struct{ le, cum float64 }
	series := map[string][]bucket{}
	for _, s := range ss {
		if s.Name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Label("le"), 64)
		if err != nil {
			return fmt.Errorf("%s: bad le %q", name, s.Label("le"))
		}
		var id []string
		for k, v := range s.Labels {
			if k != "le" {
				id = append(id, k+"="+v)
			}
		}
		sort.Strings(id)
		k := strings.Join(id, ",")
		series[k] = append(series[k], bucket{le, s.Value})
	}
	for _, bs := range series {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		prev := 0.0
		for _, b := range bs {
			into[b.le] += b.cum - prev
			prev = b.cum
		}
	}
	return nil
}

// histDelta returns the q-quantiles of histogram name over the samples
// between two scrapes of the same daemons, using the daemons' own
// midpoint rule (telemetry.HistQuantile). Zero when nothing was observed.
func histDelta(before, after [][]telemetry.Sample, name string, qs ...float64) ([]float64, error) {
	b, a := map[float64]float64{}, map[float64]float64{}
	for i := range after {
		if err := promBuckets(before[i], name, b); err != nil {
			return nil, err
		}
		if err := promBuckets(after[i], name, a); err != nil {
			return nil, err
		}
	}
	les := make([]float64, 0, len(a))
	for le := range a {
		les = append(les, le)
	}
	sort.Float64s(les)
	cum := map[float64]float64{}
	run := 0.0
	for _, le := range les {
		run += a[le] - b[le]
		cum[le] = run
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = telemetry.HistQuantile(cum, q)
	}
	return out, nil
}

// snap is the process and daemon state at one window edge.
type snap struct {
	at       time.Time
	cpu      time.Duration // process user+sys CPU
	maxRSSMB float64       // the process's peak resident set so far, MiB
	allocs   float64       // heap allocations since start
	gcCPU    float64       // estimated GC CPU seconds since start
	procCPU  float64       // estimated total CPU seconds since start
	prom     [][]telemetry.Sample
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// takeSnap records the window edge; with daemons it also scrapes each
// one's /metrics.
func takeSnap(daemons []http.Handler) (snap, error) {
	s := snap{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	ms := make([]metrics.Sample, len(rtSamples))
	copy(ms, rtSamples)
	metrics.Read(ms)
	s.allocs = float64(ms[0].Value.Uint64())
	s.gcCPU = ms[1].Value.Float64()
	s.procCPU = ms[2].Value.Float64()
	for _, h := range daemons {
		ss, err := scrape(h)
		if err != nil {
			return s, err
		}
		s.prom = append(s.prom, ss)
	}
	return s, nil
}
