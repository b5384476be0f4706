package proxy

import (
	"sync/atomic"
	"time"

	"rlibm32/internal/server"
	"rlibm32/internal/telemetry"
)

// backend is one rlibmd replica: its address, its lazily dialed
// pipelined connection pool, and its health state.
//
// Health transitions are asymmetric by design:
//
//   - Ejection is fast. Either the active prober sees FailAfter
//     consecutive probe failures, or the data path reports
//     PassiveFailAfter consecutive transport errors — whichever trips
//     first pulls the backend out of the ring.
//   - Re-admission is slow and active-only: OkAfter consecutive
//     successful probes (the hysteresis gate). A flapping backend that
//     answers one probe does not get traffic back; the data path never
//     re-admits, so a half-recovered replica cannot flap in and out on
//     the strength of a lucky request.
type backend struct {
	addr string
	idx  int // position in Proxy.backends and in ring bitmasks
	pool *server.Pool
	m    *backendMetrics

	healthy atomic.Bool

	// Prober-goroutine state (only the prober reads or writes these).
	consecFail int
	consecOK   int

	// passiveFails counts consecutive data-path transport errors; any
	// forward success resets it. Written by forwarding goroutines.
	passiveFails atomic.Int64
}

// reportFailure records a data-path transport error against the
// backend, ejecting it once PassiveFailAfter consecutive errors
// accumulate — much faster than waiting out FailAfter probe rounds
// when a replica dies under load.
func (bk *backend) reportFailure(p *Proxy) {
	bk.m.Errors.Inc()
	if bk.passiveFails.Add(1) >= int64(p.cfg.PassiveFailAfter) {
		p.eject(bk, "data-path errors")
	}
}

// reportSuccess resets the passive failure streak.
func (bk *backend) reportSuccess() {
	if bk.passiveFails.Load() != 0 {
		bk.passiveFails.Store(0)
	}
}

// eject masks the backend out of the ring. Idempotent under races:
// only the winning CAS counts the transition. An ejection is exactly
// the moment the preceding traffic is interesting, so it fires a
// flight-recorder dump (rate-limited inside TriggerDump).
func (p *Proxy) eject(bk *backend, why string) {
	if bk.healthy.CompareAndSwap(true, false) {
		bk.m.Ejections.Inc()
		bk.m.Healthy.Set(0)
		p.flight.Record(&telemetry.WideEvent{Kind: telemetry.EvEject, Note: bk.addr})
		p.flight.TriggerDump("backend-ejection")
		p.logf("proxy: backend %s ejected (%s)", bk.addr, why)
	}
}

// readmit unmasks the backend. Called only by the prober, after the
// hysteresis gate.
func (p *Proxy) readmit(bk *backend) {
	if bk.healthy.CompareAndSwap(false, true) {
		bk.passiveFails.Store(0)
		bk.m.Readmissions.Inc()
		bk.m.Healthy.Set(1)
		p.flight.Record(&telemetry.WideEvent{Kind: telemetry.EvReadmit, Note: bk.addr})
		p.logf("proxy: backend %s re-admitted", bk.addr)
	}
}

// probe is the per-backend health loop: ping on a dedicated connection
// (never the data-path pools, so an overloaded pool cannot fail a
// probe and a probe cannot steal a data slot) at ProbeInterval, and
// feed the hysteresis counters. A non-OK ping status — notably
// SHUTDOWN from a draining backend — counts as a failure, so a fleet
// member announcing drain is ejected before its listener closes.
func (p *Proxy) probe(bk *backend) {
	defer p.probeWG.Done()
	t := time.NewTicker(p.cfg.ProbeInterval)
	defer t.Stop()
	var c *server.Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	for {
		select {
		case <-p.probeStop:
			return
		case <-t.C:
		}
		bk.m.Probes.Inc()
		ok := false
		if c == nil || c.Broken() {
			fresh, err := server.DialTimeout(bk.addr, p.cfg.ProbeTimeout)
			if err == nil {
				c = fresh
			}
		}
		if c != nil && !c.Broken() {
			ok = c.Ping() == nil
		}
		if ok {
			bk.consecOK++
			bk.consecFail = 0
			if !bk.healthy.Load() && bk.consecOK >= p.cfg.OkAfter {
				p.readmit(bk)
			}
			continue
		}
		bk.m.ProbeFails.Inc()
		bk.consecFail++
		bk.consecOK = 0
		if c != nil {
			c.Close()
			c = nil
		}
		if bk.healthy.Load() && bk.consecFail >= p.cfg.FailAfter {
			p.eject(bk, "probe failures")
		}
	}
}
