// Package proxy implements rlibmproxy: the routing tier that scales
// rlibmd from one process to a fault-tolerant fleet.
//
// The proxy speaks the same length-prefixed wire protocol as rlibmd on
// both sides. Each downstream eval frame is routed by its
// (function, type) key over a consistent-hash ring of backends and
// forwarded through a pipelined server.Client, so one downstream
// connection fans out across the fleet while responses come back out
// of order (paired by request id) and are re-framed with the
// downstream caller's own id.
//
// Because every rlibmd evaluation is pure and bit-exact (the RLIBM-32
// correctness contract), requests are perfectly idempotent: the proxy
// may retry a frame on another replica after a transport failure — or
// even evaluate it twice during a race — without any client-visible
// effect beyond latency. That idempotence is what makes the aggressive
// retry/failover policy here safe to the bit.
//
// Ring invariants (see ring.go): the ring is built once from the
// configured backend set and never moves; health transitions only mask
// backends in and out. Ejecting a backend therefore reroutes exactly
// the keys it owned (to their successors) and re-admission restores
// exactly those keys — no unrelated key ever changes owner, so backend
// caches stay warm across failures elsewhere in the fleet.
package proxy

import (
	"hash/fnv"
	"sort"
)

// hash64 places bytes on the ring circle: FNV-1a with murmur3's 64-bit
// finalizer, so inputs that differ only in their last bytes (the
// virtual-node suffixes of one address) still spread around the
// circle. It is seedless, so placement is a function of the backend
// list alone: every proxy in front of one fleet, and every restart,
// sends a key to the same backend and keeps its caches warm.
func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashKey places a (type, function) routing key on the ring circle.
func hashKey(typ uint8, name string) uint64 {
	return hash64(append([]byte{typ}, name...))
}

// ringPoint is one virtual node: a position on the circle owned by a
// backend index.
type ringPoint struct {
	hash uint64
	idx  int // index into the proxy's backend slice
}

// ring is the static consistent-hash circle. It is immutable after
// construction: health changes mask backends during walks instead of
// rebuilding, which is what keeps in-flight work (walking a ring it
// already resolved) valid across ejections and re-admissions.
type ring struct {
	points []ringPoint
	n      int // number of distinct backends
}

// vnodesPerBackend spreads each backend around the circle so the keys
// of an ejected backend scatter across several successors instead of
// dogpiling one.
const defaultVNodes = 64

// buildRing places vnodes virtual nodes per backend on the circle.
func buildRing(addrs []string, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	r := &ring{n: len(addrs), points: make([]ringPoint, 0, len(addrs)*vnodes)}
	for i, addr := range addrs {
		for v := 0; v < vnodes; v++ {
			h := hash64(append([]byte(addr+"#"), byte(v), byte(v>>8)))
			r.points = append(r.points, ringPoint{hash: h, idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

// walk visits the distinct backend indices for key hash h in replica
// order — the owner first, then each successor — calling yield until
// it returns false or every backend has been offered. This ordering is
// the failover sequence: retry number k of a frame goes to the k-th
// distinct backend clockwise from its key.
func (r *ring) walk(h uint64, yield func(idx int) bool) {
	if len(r.points) == 0 {
		return
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var seen uint64 // backend sets are small (≤64); a bitmask suffices
	found := 0
	for i := 0; i < len(r.points) && found < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen&(1<<uint(p.idx)) != 0 {
			continue
		}
		seen |= 1 << uint(p.idx)
		found++
		if !yield(p.idx) {
			return
		}
	}
}

// owner returns the first backend index for h (the key's home replica).
func (r *ring) owner(h uint64) int {
	out := -1
	r.walk(h, func(idx int) bool { out = idx; return false })
	return out
}
