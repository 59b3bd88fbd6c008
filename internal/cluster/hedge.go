package cluster

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// hedgeWindow is the per-route latency reservoir size: big enough that
// the P99 estimate has a tail sample or two, small enough that the
// deadline adapts within a couple hundred requests of a load shift.
const hedgeWindow = 128

// recomputeEvery bounds how often the P99 is re-derived from the
// window: sorting 128 samples every record would dominate the hot
// path, every 32 records it is noise.
const recomputeEvery = 32

// minSamples is how much history a route needs before the adaptive
// deadline replaces the conservative MaxDelay default.
const minSamples = 8

// tracker maintains one route's adaptive hedge deadline: a ring of
// recent winning-attempt latencies whose clamped P99 is cached in an
// atomic for lock-free reads on the send path.
type tracker struct {
	mu     sync.Mutex
	window [hedgeWindow]int64
	sorted [hedgeWindow]int64 // recompute scratch: the reply path never allocates
	n      int                // samples stored (≤ hedgeWindow)
	idx    int                // next write position
	since  int                // records since the last recompute

	cached atomic.Int64 // current deadline, ns; 0 = no history yet
}

// trackerKey identifies one route's latency window. Legacy
// (method-less v2) traffic gets its own bit above the 16-bit method
// space: it shares the wire method value 0 with routed method-0 calls
// but can have an unrelated latency profile, and folding the two into
// one window would skew both adaptive deadlines.
func trackerKey(method uint16, legacy bool) uint32 {
	k := uint32(method)
	if legacy {
		k |= 1 << 16
	}
	return k
}

// trackerFor returns the route's tracker, creating it on first use.
func (c *Cluster) trackerFor(method uint16, legacy bool) *tracker {
	key := trackerKey(method, legacy)
	if t, ok := c.trackers.Load(key); ok {
		return t.(*tracker)
	}
	t, _ := c.trackers.LoadOrStore(key, &tracker{})
	return t.(*tracker)
}

// record folds one winning attempt's latency into the window and
// periodically refreshes the cached deadline.
func (t *tracker) record(d time.Duration, cfg HedgeConfig) {
	ns := d.Nanoseconds()
	t.mu.Lock()
	t.window[t.idx] = ns
	t.idx = (t.idx + 1) % hedgeWindow
	if t.n < hedgeWindow {
		t.n++
	}
	t.since++
	if t.since >= recomputeEvery || (t.cached.Load() == 0 && t.n >= minSamples) {
		t.since = 0
		t.recomputeLocked(cfg)
	}
	t.mu.Unlock()
}

// recomputeLocked re-derives the cached deadline: the window's P99,
// clamped to [MinDelay, MaxDelay]. Caller holds t.mu.
func (t *tracker) recomputeLocked(cfg HedgeConfig) {
	if t.n < minSamples {
		return
	}
	sorted := t.sorted[:t.n]
	copy(sorted, t.window[:t.n])
	slices.Sort(sorted)
	rank := (99*t.n + 99) / 100 // ceil(0.99 * n)
	if rank > t.n {
		rank = t.n
	}
	p99 := sorted[rank-1]
	if min := cfg.MinDelay.Nanoseconds(); p99 < min {
		p99 = min
	}
	if max := cfg.MaxDelay.Nanoseconds(); p99 > max {
		p99 = max
	}
	t.cached.Store(p99)
}

// delay returns the route's current hedge deadline: the cached adaptive
// P99, or MaxDelay while the route has no history (hedge conservatively
// until the latency profile is known).
func (t *tracker) delay(cfg HedgeConfig) time.Duration {
	if d := t.cached.Load(); d > 0 {
		return time.Duration(d)
	}
	return cfg.MaxDelay
}
