// Package cluster is the front tier of a zygos deployment: one Cluster
// fans a single Caller-shaped stream of requests out over N backend
// runtimes, picking backends by live load, hedging slow requests
// against a second replica, and routing keyed operations onto a
// consistent-hash ring.
//
// The three tail-latency mechanisms compose the "tail at scale" recipe
// on top of the paper's single-node work-conserving scheduler:
//
//   - Balancing: round-robin, power-of-two-choices, or join-shortest-
//     queue over a score combining the client's own in-flight count with
//     the backend's self-reported scheduling depth (carried back as
//     piggybacked health frames, see proto.MethodHealth). Reported
//     depth decays after DepthTTL so a silent backend is judged only by
//     local knowledge.
//
//   - Hedging: a request outstanding past an adaptive per-route P99
//     deadline is duplicated to a second backend; the first final reply
//     wins and the loser is discarded on arrival. Application-level
//     errors (wire StatusError) are final replies and win; transport
//     errors instead fail over to a fresh backend.
//
//   - Replica routing: a KeyFunc extracts the key and read/write
//     direction from a payload; reads go to the least-loaded of the
//     key's R ring owners, writes fan out to all owners with the
//     primary's reply returned. Writes are never hedged (duplicating a
//     non-idempotent operation is not a latency optimization).
package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"zygos/internal/proto"
)

var (
	// ErrNoBackends reports a cluster with no (eligible) backends.
	ErrNoBackends = errors.New("cluster: no backends")
	// ErrClusterClosed reports calls on a closed cluster; requests still
	// in flight when Close runs settle with it too, so every callback
	// fires exactly once even across shutdown.
	ErrClusterClosed = errors.New("cluster: closed")
	// ErrClosed is the pre-hardening name for ErrClusterClosed.
	ErrClosed = ErrClusterClosed
	// ErrNoSubscriptions reports a subscription call on a cluster: push
	// topics live on a backend, so subscribe there (or relay the topic).
	ErrNoSubscriptions = errors.New("cluster: subscriptions are per backend")
)

// Policy selects how the balancer spreads unkeyed requests.
type Policy int

const (
	// RoundRobin rotates through backends, load-blind. The baseline.
	RoundRobin Policy = iota
	// P2C picks two backends at random and sends to the less loaded —
	// near-JSQ tail behaviour at O(1) cost and without herding.
	P2C
	// JSQ scans every backend and sends to the least loaded.
	JSQ
)

// String names the policy as accepted by ParsePolicy.
func (p Policy) String() string {
	switch p {
	case P2C:
		return "p2c"
	case JSQ:
		return "jsq"
	default:
		return "rr"
	}
}

// ParsePolicy maps a flag string to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "rr", "roundrobin", "round-robin":
		return RoundRobin, nil
	case "p2c", "power-of-two":
		return P2C, nil
	case "jsq", "shortest-queue":
		return JSQ, nil
	}
	return RoundRobin, errors.New("cluster: unknown policy " + s)
}

// KeyFunc extracts the routing key from a method-routed request.
// Returning ok=false leaves the request unkeyed (balanced across all
// backends); write=true routes it to every ring owner of the key.
type KeyFunc func(method uint16, payload []byte) (key []byte, write, ok bool)

// HedgeConfig parameterizes request hedging.
type HedgeConfig struct {
	// Enabled turns hedging on.
	Enabled bool
	// MinDelay floors the adaptive hedge deadline; defaults to 100µs.
	// It bounds the duplicate-send rate when the route is uniformly
	// fast.
	MinDelay time.Duration
	// MaxDelay caps the deadline and is also the deadline used before
	// a route has latency history; defaults to 20ms.
	MaxDelay time.Duration
}

// Config parameterizes a Cluster.
type Config struct {
	// Policy is the unkeyed balancing policy; defaults to P2C.
	Policy Policy
	// Hedge configures duplicate requests past the adaptive deadline.
	Hedge HedgeConfig
	// Replicas is the number of ring owners per key; 0 or 1 with a nil
	// KeyFunc disables keyed routing.
	Replicas int
	// KeyFunc extracts routing keys; nil disables keyed routing.
	KeyFunc KeyFunc
	// DepthTTL bounds how long a piggybacked depth report keeps
	// counting toward a backend's score; defaults to 10ms.
	DepthTTL time.Duration
	// CallTimeout is the default per-request deadline: a request with no
	// final reply after this long settles with proto.ErrCallTimeout,
	// even against a blackholed backend. 0 means no deadline (the
	// pre-hardening behaviour); per-call CallTimeout/CallMethodTimeout
	// override it.
	CallTimeout time.Duration
	// Breaker parameterizes per-backend health tracking; the zero value
	// enables it with defaults.
	Breaker BreakerConfig
	// NoReadFallback keeps keyed reads pinned to their ring owners even
	// when every owner is tripped Down. Default (false): a keyed read
	// whose owners are all unhealthy falls back to any healthy backend —
	// potentially stale, but bounded staleness beats unavailability for
	// most kv reads.
	NoReadFallback bool
	// MaxClusterDepth is the front-tier admission limit: a new request
	// is shed with a StatusShed *proto.StatusError — before any backend
	// sees a byte of it — once the summed cluster load (client-side
	// in-flight plus fresh self-reported backend depths) exceeds it.
	// Shedding at the front tier is strictly cheaper than at the
	// backends: the refused request consumes no socket write, no
	// backend parse, and no scheduler slot anywhere in the fleet. The
	// shed message carries a retry-after hint. 0 disables.
	MaxClusterDepth int
}

const (
	defaultMinHedge = 100 * time.Microsecond
	defaultMaxHedge = 20 * time.Millisecond
	defaultDepthTTL = 10 * time.Millisecond
	// maxAttempts bounds sends per logical request: the primary plus
	// one rescue (hedge or failover).
	maxAttempts = 2
)

// Backend is one member runtime of the cluster: its connection plus the
// live load signals the balancer scores it by.
type Backend struct {
	name string
	c    proto.Doer

	// inflight is the client-side count of requests outstanding on
	// this backend — knowledge the balancer always has, even before
	// the first health frame arrives.
	inflight atomic.Int64
	// depth/depthAt hold the backend's last self-reported scheduling
	// depth (piggybacked health frame) and its arrival time.
	depth   atomic.Uint32
	depthAt atomic.Int64

	// br is the per-backend circuit breaker (see breaker.go). Zero value
	// is Up.
	br breaker
}

// Name returns the identifier the backend was added under.
func (b *Backend) Name() string { return b.name }

// NoteDepth records a depth report; transports with OnDepth hooks are
// wired to it automatically.
func (b *Backend) NoteDepth(d uint32) {
	b.depth.Store(d)
	b.depthAt.Store(nanotime())
}

func nanotime() int64 { return time.Now().UnixNano() }

// score is the balancer's load estimate: local in-flight plus the
// reported depth while it is fresh.
func (b *Backend) score(now, ttl int64) int64 {
	s := b.inflight.Load()
	if at := b.depthAt.Load(); at > 0 && now-at <= ttl {
		s += int64(b.depth.Load())
	}
	return s
}

// Balancer picks backends by policy over the live score. It is
// stateless apart from the rotation counter and the RNG word, both
// lock-free, so Pick is safe from any goroutine.
type Balancer struct {
	policy Policy
	ttl    int64

	rr  atomic.Uint64
	rng atomic.Uint64
}

// NewBalancer returns a balancer with the given policy; depthTTL <= 0
// defaults to 10ms.
func NewBalancer(policy Policy, depthTTL time.Duration) *Balancer {
	if depthTTL <= 0 {
		depthTTL = defaultDepthTTL
	}
	return &Balancer{policy: policy, ttl: int64(depthTTL)}
}

// rand is a lock-free splitmix64 step: an atomic add of the golden
// gamma followed by the stateless mix64 finalizer, so concurrent
// pickers never contend on a mutex for randomness.
func (bl *Balancer) rand() uint64 {
	return mix64(bl.rng.Add(0x9E3779B97F4A7C15))
}

func excluded(b *Backend, exclude []*Backend) bool {
	for _, e := range exclude {
		if e == b {
			return true
		}
	}
	return false
}

// ineligible reports whether b is out of the running: already tried by
// this request, or rejected by the health predicate.
func ineligible(b *Backend, exclude []*Backend, skip func(*Backend) bool) bool {
	return excluded(b, exclude) || (skip != nil && skip(b))
}

// Pick selects a backend from bs by policy, skipping exclude (backends
// already tried by this request). Returns nil if none is eligible.
func (bl *Balancer) Pick(bs []*Backend, exclude []*Backend) *Backend {
	return bl.pick(bs, exclude, nil)
}

// pick is Pick with a health predicate: backends for which skip returns
// true are treated like excluded ones.
func (bl *Balancer) pick(bs []*Backend, exclude []*Backend, skip func(*Backend) bool) *Backend {
	n := len(bs)
	if n == 0 {
		return nil
	}
	switch bl.policy {
	case P2C:
		if n-len(exclude) > 2 {
			now := nanotime()
			r := bl.rand()
			i := int(r % uint64(n))
			j := int((r >> 32) % uint64(n-1))
			if j >= i {
				j++
			}
			a, b := bs[i], bs[j]
			if ineligible(a, exclude, skip) {
				a = nil
			}
			if ineligible(b, exclude, skip) {
				b = nil
			}
			switch {
			case a == nil && b == nil:
				return bl.least(bs, exclude, skip)
			case a == nil:
				return b
			case b == nil:
				return a
			}
			if b.score(now, bl.ttl) < a.score(now, bl.ttl) {
				return b
			}
			return a
		}
		// Too few distinct candidates for a random pair; degrade to a
		// full scan.
		return bl.least(bs, exclude, skip)
	case JSQ:
		return bl.least(bs, exclude, skip)
	default: // RoundRobin
		start := bl.rr.Add(1)
		for k := 0; k < n; k++ {
			b := bs[int((start+uint64(k))%uint64(n))]
			if !ineligible(b, exclude, skip) {
				return b
			}
		}
		return nil
	}
}

// Least returns the lowest-score backend in bs, skipping exclude.
func (bl *Balancer) Least(bs []*Backend, exclude []*Backend) *Backend {
	return bl.least(bs, exclude, nil)
}

// least is Least with a health predicate.
func (bl *Balancer) least(bs []*Backend, exclude []*Backend, skip func(*Backend) bool) *Backend {
	now := nanotime()
	var best *Backend
	var bestScore int64
	for _, b := range bs {
		if ineligible(b, exclude, skip) {
			continue
		}
		s := b.score(now, bl.ttl)
		if best == nil || s < bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// Cluster fans requests out over its backends. It is itself a Doer with
// the full proto.Calls surface (structurally a zygos.Caller), so
// applications swap a single-server client for a cluster without code
// changes, and tiers stack.
type Cluster struct {
	proto.Calls
	cfg Config
	bal *Balancer

	mu   sync.Mutex   // guards Add/Remove rebuilding the view below
	view atomic.Value // *membership

	trackers sync.Map // trackerKey (uint32) → *tracker
	closed   atomic.Bool

	// opMu guards ops, the registry of undecided requests. Close settles
	// every registered op with ErrClusterClosed — cancelling its hedge
	// and deadline timers — instead of relying on transport teardown to
	// fail them eventually (or never, for a blackholed backend).
	opMu sync.Mutex
	ops  map[*op]struct{}

	nCalls        atomic.Uint64
	nHedges       atomic.Uint64
	nHedgeWins    atomic.Uint64
	nFailovers    atomic.Uint64
	nLosers       atomic.Uint64
	nReplicaErrs  atomic.Uint64
	nBrTrips      atomic.Uint64
	nBrProbes     atomic.Uint64
	nBrReadmits   atomic.Uint64
	nDeadlines    atomic.Uint64
	nReadFallback atomic.Uint64
	nShed         atomic.Uint64
}

// New creates an empty cluster; wire members in with Add.
func New(cfg Config) *Cluster {
	if cfg.Hedge.MinDelay <= 0 {
		cfg.Hedge.MinDelay = defaultMinHedge
	}
	if cfg.Hedge.MaxDelay <= 0 {
		cfg.Hedge.MaxDelay = defaultMaxHedge
	}
	if cfg.DepthTTL <= 0 {
		cfg.DepthTTL = defaultDepthTTL
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Breaker.Threshold <= 0 {
		cfg.Breaker.Threshold = defaultBrThreshold
	}
	if cfg.Breaker.Cooldown <= 0 {
		cfg.Breaker.Cooldown = defaultBrCooldown
	}
	if cfg.Breaker.ProbeTimeout <= 0 {
		cfg.Breaker.ProbeTimeout = defaultBrProbeTimeout
	}
	c := &Cluster{
		cfg: cfg,
		bal: NewBalancer(cfg.Policy, cfg.DepthTTL),
		ops: make(map[*op]struct{}),
	}
	c.Calls = proto.Calls{Doer: c}
	c.view.Store(&membership{})
	return c
}

// membership is one immutable (backends, ring) snapshot. Bundling the
// two in a single atomic value means a lookup can never pair a ring with
// a differently-sized backend slice — which, after Remove, would resolve
// vnode indices out of range.
type membership struct {
	bs   []*Backend
	ring *hashRing
}

// Add registers a backend under name. If the transport is a
// proto.DepthReporter (all zygos clients are), the balancer is
// subscribed to its piggybacked depth reports. Safe to call while the
// cluster is serving; in-flight picks use the previous membership
// snapshot.
func (c *Cluster) Add(name string, d proto.Doer) *Backend {
	b := &Backend{name: name, c: d}
	if ds, ok := d.(proto.DepthReporter); ok {
		ds.OnDepth(b.NoteDepth)
	}
	c.mu.Lock()
	old := c.Backends()
	bs := make([]*Backend, len(old), len(old)+1)
	copy(bs, old)
	bs = append(bs, b)
	c.view.Store(&membership{bs: bs, ring: buildRing(bs)})
	c.mu.Unlock()
	return b
}

// Remove drops the backend registered under name from the membership:
// the ring is rebuilt and no new picks will select it, but requests
// already dispatched to it complete normally. The removed Backend is
// returned so the caller can Close its transport once drained (the
// cluster does not, since the caller may own pooled connections shared
// elsewhere); nil if no backend has that name.
func (c *Cluster) Remove(name string) *Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.Backends()
	var removed *Backend
	bs := make([]*Backend, 0, len(old))
	for _, b := range old {
		if removed == nil && b.name == name {
			removed = b
			continue
		}
		bs = append(bs, b)
	}
	if removed != nil {
		c.view.Store(&membership{bs: bs, ring: buildRing(bs)})
	}
	return removed
}

// Backends returns the current membership snapshot.
func (c *Cluster) Backends() []*Backend {
	return c.view.Load().(*membership).bs
}

// Stats is a snapshot of the cluster's tail-management counters.
type Stats struct {
	// Calls counts logical requests accepted.
	Calls uint64
	// Hedges counts duplicate sends issued past the hedge deadline.
	Hedges uint64
	// HedgeWins counts requests whose hedge attempt produced the
	// winning reply.
	HedgeWins uint64
	// Failovers counts re-sends after a transport-level failure.
	Failovers uint64
	// Losers counts final replies that arrived after another attempt
	// had already won and were discarded.
	Losers uint64
	// ReplicaWriteFailures counts secondary replica writes lost to
	// transport errors. The logical reply is driven by the primary
	// alone, so without this counter a dropped secondary write — and
	// the stale reads it causes on that replica — would be invisible.
	ReplicaWriteFailures uint64
	// BreakerTrips counts backend transitions to Down.
	BreakerTrips uint64
	// BreakerProbes counts half-open probe requests claimed against
	// cooled-down backends.
	BreakerProbes uint64
	// BreakerReadmits counts Down/Probe backends restored to Up by a
	// successful reply.
	BreakerReadmits uint64
	// DeadlinesExpired counts requests settled with ErrCallTimeout.
	DeadlinesExpired uint64
	// ReadFallbacks counts keyed reads served by a non-owner because
	// every ring owner was tripped Down.
	ReadFallbacks uint64
	// Shed counts requests rejected by front-tier admission
	// (Config.MaxClusterDepth) before reaching any backend.
	Shed uint64
	// Backends is the per-member load view.
	Backends []BackendStats
}

// BackendStats is one backend's slice of the cluster load view.
type BackendStats struct {
	Name     string
	Inflight int64
	Depth    uint32
	// DepthAge is how long ago the depth report arrived; negative if
	// none ever has.
	DepthAge time.Duration
	// State is the breaker state: "up", "down", or "probe".
	State string
	// Fails is the consecutive transport-failure streak.
	Fails int32
}

// Stats snapshots the counters.
func (c *Cluster) Stats() Stats {
	bs := c.Backends()
	s := Stats{
		Calls:                c.nCalls.Load(),
		Hedges:               c.nHedges.Load(),
		HedgeWins:            c.nHedgeWins.Load(),
		Failovers:            c.nFailovers.Load(),
		Losers:               c.nLosers.Load(),
		ReplicaWriteFailures: c.nReplicaErrs.Load(),
		BreakerTrips:         c.nBrTrips.Load(),
		BreakerProbes:        c.nBrProbes.Load(),
		BreakerReadmits:      c.nBrReadmits.Load(),
		DeadlinesExpired:     c.nDeadlines.Load(),
		ReadFallbacks:        c.nReadFallback.Load(),
		Shed:                 c.nShed.Load(),
		Backends:             make([]BackendStats, len(bs)),
	}
	now := nanotime()
	for i, b := range bs {
		age := time.Duration(-1)
		if at := b.depthAt.Load(); at > 0 {
			age = time.Duration(now - at)
		}
		s.Backends[i] = BackendStats{
			Name:     b.name,
			Inflight: b.inflight.Load(),
			Depth:    b.depth.Load(),
			DepthAge: age,
			State:    b.State(),
			Fails:    b.br.fails.Load(),
		}
	}
	return s
}

// Close settles every in-flight request with ErrClusterClosed —
// cancelling pending hedge and deadline timers so none can fire into a
// dead cluster — then closes the backend connections. Every callback
// still fires exactly once; replies racing Close are dropped as losers.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	// Snapshot under opMu: trackOp re-checks closed under the same lock,
	// so an op missing from this snapshot was either already settled or
	// refused registration — nothing slips between.
	c.opMu.Lock()
	pending := make([]*op, 0, len(c.ops))
	for o := range c.ops {
		pending = append(pending, o)
	}
	c.opMu.Unlock()
	for _, o := range pending {
		o.mu.Lock()
		if o.done {
			o.mu.Unlock()
			continue
		}
		o.settleLocked()
		o.cb(nil, ErrClusterClosed)
	}
	for _, b := range c.Backends() {
		if cl, ok := b.c.(interface{ Close() }); ok {
			cl.Close()
		}
	}
}

// trackOp registers an undecided op for settlement at Close. It returns
// false — and the op must not dispatch — when the cluster is already
// closed; checking under opMu closes the race against Close's snapshot.
func (c *Cluster) trackOp(o *op) bool {
	c.opMu.Lock()
	if c.closed.Load() {
		c.opMu.Unlock()
		return false
	}
	c.ops[o] = struct{}{}
	c.opMu.Unlock()
	return true
}

func (c *Cluster) untrackOp(o *op) {
	c.opMu.Lock()
	delete(c.ops, o)
	c.opMu.Unlock()
}

// pickFor selects the next backend for a request: least-loaded among
// the key's owners when the request is keyed, policy pick otherwise —
// in both cases preferring breaker-healthy backends.
//
// probe marks primary picks: a cooled-down Down backend may claim the
// request as its half-open probe, and when every candidate is tripped
// the pick falls through to health-blind (the attempt doubles as an
// early probe rather than inventing a fail-fast mode primaries never
// had). Rescue picks (hedges, failovers) instead return nil when
// nothing healthy remains — duplicating a request onto a backend known
// to be down is pure waste.
//
// fallback lets a keyed read escape to any healthy non-owner when every
// ring owner is down; writes never set it (a write landing off-ring is
// silent data misplacement).
func (c *Cluster) pickFor(owners []*Backend, tried []*Backend, probe, fallback bool) *Backend {
	keyed := len(owners) > 0
	pool := owners
	if !keyed {
		pool = c.Backends()
	}
	if c.cfg.Breaker.Disabled {
		return c.rawPick(pool, tried, keyed)
	}
	if probe {
		now := nanotime()
		for _, b := range pool {
			if !excluded(b, tried) && c.tryClaimProbe(b, now) {
				return b
			}
		}
	}
	if b := c.healthyPick(pool, tried, keyed); b != nil {
		return b
	}
	if keyed && fallback && !c.cfg.NoReadFallback {
		if b := c.healthyPick(c.Backends(), tried, false); b != nil {
			c.nReadFallback.Add(1)
			return b
		}
	}
	if probe {
		return c.rawPick(pool, tried, keyed)
	}
	return nil
}

func (c *Cluster) rawPick(pool, tried []*Backend, keyed bool) *Backend {
	if keyed {
		return c.bal.Least(pool, tried)
	}
	return c.bal.Pick(pool, tried)
}

func (c *Cluster) healthyPick(pool, tried []*Backend, keyed bool) *Backend {
	if keyed {
		return c.bal.least(pool, tried, brUnhealthy)
	}
	return c.bal.pick(pool, tried, brUnhealthy)
}

// route resolves keyed routing for a request: the owner set and whether
// it is a write (fan out, never hedge).
func (c *Cluster) route(method uint16, legacy bool, payload []byte) (owners []*Backend, write bool) {
	kf := c.cfg.KeyFunc
	if kf == nil || legacy {
		return nil, false
	}
	key, w, ok := kf(method, payload)
	if !ok {
		return nil, false
	}
	mv := c.view.Load().(*membership)
	if mv.ring == nil {
		return nil, false
	}
	return mv.ring.owners(key, c.cfg.Replicas, mv.bs), w
}

// op is one logical request in flight: up to maxAttempts sends racing,
// first final reply wins.
type op struct {
	c       *Cluster
	method  uint16
	legacy  bool
	payload []byte // cluster-owned copy: rescue sends outlive the caller's slice
	cb      func(resp []byte, err error)
	owners  []*Backend // non-nil restricts rescue picks to the replica set

	// fallback permits keyed-read escape to a non-owner when every owner
	// is tripped Down; never set for writes.
	fallback bool

	// deadline is the op's absolute deadline (zero = none). Every
	// dispatch — primary, hedge, or failover — stamps the budget
	// *remaining* at that moment onto the wire, so time already burned
	// queueing or waiting out the hedge delay is not re-granted to the
	// backend.
	deadline time.Time

	mu          sync.Mutex
	done        bool
	attempts    int
	outstanding int
	tried       []*Backend
	timer       *time.Timer // hedge
	dtimer      *time.Timer // deadline
}

// dispatch issues one attempt to b. On synchronous error the callback
// will never run for this attempt; the caller owns the bookkeeping.
func (o *op) dispatch(b *Backend, isHedge bool) error {
	b.inflight.Add(1)
	start := time.Now()
	call := proto.Call{
		Method:  o.method,
		Legacy:  o.legacy,
		Payload: o.payload,
		Done:    func(resp []byte, err error) { o.finish(b, isHedge, start, resp, err) },
	}
	if !o.deadline.IsZero() {
		call.Budget = time.Until(o.deadline)
		if call.Budget <= 0 {
			// Already out of budget: stamp the floor instead of omitting
			// the extension (no budget means *unlimited* on the wire), so
			// the backend sheds it as expired-on-arrival for free.
			call.Budget = time.Microsecond
		}
	}
	err := b.c.Do(call)
	if err != nil {
		b.inflight.Add(-1)
		// A synchronous refusal means the transport already knows the
		// peer is unreachable (dial backoff, closed manager): trip now so
		// later picks — including this op's own rescues — skip it.
		o.c.noteBackendFailure(b, true)
	}
	return err
}

// finish is every attempt's completion. Exactly one final reply reaches
// o.cb; late finals are counted as losers and dropped, transport
// failures fail over while attempts remain.
func (o *op) finish(b *Backend, isHedge bool, start time.Time, resp []byte, err error) {
	b.inflight.Add(-1)
	final := err == nil || isStatusErr(err)
	if final {
		o.c.noteBackendSuccess(b)
	} else {
		o.c.noteBackendFailure(b, false)
	}
	o.mu.Lock()
	o.outstanding--
	if o.done {
		o.mu.Unlock()
		if final {
			o.c.nLosers.Add(1)
		}
		return
	}
	if final {
		o.settleLocked()
		o.c.trackerFor(o.method, o.legacy).record(time.Since(start), o.c.cfg.Hedge)
		if isHedge {
			o.c.nHedgeWins.Add(1)
		}
		o.cb(resp, err)
		return
	}
	// Transport failure. If another attempt is still racing, let it
	// decide the outcome; otherwise fail over once, then give up.
	if o.outstanding > 0 {
		o.mu.Unlock()
		return
	}
	if o.attempts < maxAttempts && !o.c.closed.Load() {
		if nb := o.c.pickFor(o.owners, o.tried, false, o.fallback); nb != nil {
			o.attempts++
			o.outstanding++
			o.tried = append(o.tried, nb)
			o.mu.Unlock()
			o.c.nFailovers.Add(1)
			if o.dispatch(nb, false) != nil {
				o.noteDispatchFailed(err)
			}
			return
		}
	}
	o.settleLocked()
	o.cb(nil, err)
}

// isStatusErr reports whether err is an application-level StatusError —
// a valid final reply, as opposed to a transport failure.
func isStatusErr(err error) bool {
	var se *proto.StatusError
	return errors.As(err, &se)
}

// noteDispatchFailed is the bookkeeping for an attempt whose dispatch
// failed synchronously after it had been counted outstanding (the
// transport callback will never run for it). If another attempt is
// still racing it decides the outcome; otherwise rescue while the
// attempt budget lasts, and failing that settle the op with err so
// o.cb still fires exactly once. Without the settle, a hedge refused
// synchronously (e.g. dial backoff) after the primary's transport
// failure would leave the op undecided and a blocking Call hung
// forever.
func (o *op) noteDispatchFailed(err error) {
	o.mu.Lock()
	for {
		o.outstanding--
		if o.done || o.outstanding > 0 {
			o.mu.Unlock()
			return
		}
		if o.attempts >= maxAttempts || o.c.closed.Load() {
			break
		}
		nb := o.c.pickFor(o.owners, o.tried, false, o.fallback)
		if nb == nil {
			break
		}
		o.attempts++
		o.outstanding++
		o.tried = append(o.tried, nb)
		o.mu.Unlock()
		o.c.nFailovers.Add(1)
		if o.dispatch(nb, false) == nil {
			return
		}
		o.mu.Lock()
	}
	o.settleLocked()
	o.cb(nil, err)
}

// settleLocked marks the op decided, stops its hedge and deadline
// timers, and deregisters it from the Close registry. Caller holds
// o.mu; it is released here so cb runs lock-free. (The registry lock is
// only taken after o.mu is dropped, so settle and Close can never
// deadlock against each other.)
func (o *op) settleLocked() {
	o.done = true
	if o.timer != nil {
		o.timer.Stop()
	}
	if o.dtimer != nil {
		o.dtimer.Stop()
	}
	o.mu.Unlock()
	o.c.untrackOp(o)
}

// fireHedge runs on the hedge timer: the primary is outstanding past
// the route's deadline, so race a duplicate on a second backend.
func (o *op) fireHedge() {
	o.mu.Lock()
	if o.done || o.attempts >= maxAttempts || o.c.closed.Load() {
		o.mu.Unlock()
		return
	}
	nb := o.c.pickFor(o.owners, o.tried, false, o.fallback)
	if nb == nil {
		o.mu.Unlock()
		return
	}
	o.attempts++
	o.outstanding++
	o.tried = append(o.tried, nb)
	o.mu.Unlock()
	o.c.nHedges.Add(1)
	if err := o.dispatch(nb, true); err != nil {
		o.noteDispatchFailed(err)
	}
}

// fireDeadline runs on the deadline timer: the op has no final reply
// within its budget, so settle with ErrCallTimeout now. Attempts still
// racing resolve as losers; a blackholed backend cannot hold the caller
// hostage.
func (o *op) fireDeadline() {
	o.mu.Lock()
	if o.done {
		o.mu.Unlock()
		return
	}
	o.c.nDeadlines.Add(1)
	o.settleLocked()
	o.cb(nil, proto.ErrCallTimeout)
}

// effTimeout resolves a per-call deadline override against the
// configured default: d > 0 wins, d == 0 inherits Config.CallTimeout,
// and d < 0 forces no deadline.
func (c *Cluster) effTimeout(d time.Duration) time.Duration {
	if d != 0 {
		if d < 0 {
			return 0
		}
		return d
	}
	return c.cfg.CallTimeout
}

// Do is the cluster's one entry point: it admits the call, then sends
// it as a one-way or as a logical request (see sendAsync). Call.Budget
// is the per-call deadline override (see effTimeout). Subscription calls
// are refused with ErrNoSubscriptions.
func (c *Cluster) Do(call proto.Call) error {
	if c.closed.Load() {
		return ErrClusterClosed
	}
	if call.Kind != 0 {
		return ErrNoSubscriptions
	}
	if len(call.Payload) > proto.MaxPayload {
		return proto.ErrPayloadTooLarge
	}
	if err := c.admit(); err != nil {
		return err
	}
	c.nCalls.Add(1)
	if call.OneWay {
		return c.sendOneWay(call)
	}
	return c.sendAsync(call)
}

// sendAsync routes a request, replicates writes, arms the hedge and
// deadline timers, dispatches the primary, and fails over synchronous
// refusals.
func (c *Cluster) sendAsync(call proto.Call) error {
	method, legacy, payload := call.Method, call.Legacy, call.Payload
	owners, write := c.route(method, legacy, payload)
	if write && len(owners) > 1 {
		// Replicate to the secondaries now — transports encode
		// synchronously, so the caller's payload is still valid — and
		// drive the logical reply off the primary alone. A secondary
		// send lost to a transport error (StatusError means the write
		// reached the backend) is counted: the primary's reply hides it
		// from the caller, and reads route to any owner.
		for _, sb := range owners[1:] {
			sb.inflight.Add(1)
			rb := sb
			cb := func(_ []byte, err error) {
				rb.inflight.Add(-1)
				if err != nil && !isStatusErr(err) {
					c.nReplicaErrs.Add(1)
					c.noteBackendFailure(rb, false)
				} else {
					c.noteBackendSuccess(rb)
				}
			}
			if err := sb.c.Do(proto.Call{Method: method, Payload: payload, Done: cb}); err != nil {
				rb.inflight.Add(-1)
				c.nReplicaErrs.Add(1)
				c.noteBackendFailure(rb, true)
			}
		}
		owners = owners[:1:1]
	}
	o := &op{
		c:        c,
		method:   method,
		legacy:   legacy,
		payload:  append([]byte(nil), payload...),
		cb:       call.Done,
		owners:   owners,
		fallback: len(owners) > 0 && !write,
	}
	b := c.pickFor(owners, nil, true, o.fallback)
	if b == nil {
		return ErrNoBackends
	}
	if !c.trackOp(o) {
		return ErrClusterClosed
	}
	// Arm the timers under o.mu: both fire callbacks take the lock
	// before touching the op, so holding it across the assignments
	// orders them against a timer that fires immediately.
	o.mu.Lock()
	o.attempts = 1
	o.outstanding = 1
	o.tried = append(o.tried, b)
	if c.cfg.Hedge.Enabled && !write {
		delay := c.trackerFor(method, legacy).delay(c.cfg.Hedge)
		o.timer = time.AfterFunc(delay, o.fireHedge)
	}
	if t := c.effTimeout(call.Budget); t > 0 {
		o.deadline = time.Now().Add(t)
		o.dtimer = time.AfterFunc(t, o.fireDeadline)
	}
	o.mu.Unlock()
	err := o.dispatch(b, false)
	if err == nil {
		return nil
	}
	// The primary transport refused synchronously; try one failover
	// before surfacing the error (the callback has not and will not
	// run for the refused attempt).
	o.mu.Lock()
	o.outstanding--
	if o.outstanding > 0 { // a hedge raced in already; let it decide
		o.mu.Unlock()
		return nil
	}
	if o.done { // a hedge raced in and already completed the op
		o.mu.Unlock()
		return nil
	}
	nb := c.pickFor(owners, o.tried, false, o.fallback)
	if nb == nil || o.attempts >= maxAttempts {
		o.settleLocked()
		return err
	}
	o.attempts++
	o.outstanding++
	o.tried = append(o.tried, nb)
	o.mu.Unlock()
	c.nFailovers.Add(1)
	if derr := o.dispatch(nb, false); derr != nil {
		o.mu.Lock()
		o.outstanding--
		if o.done || o.outstanding > 0 {
			o.mu.Unlock()
			return nil
		}
		o.settleLocked()
		return derr
	}
	return nil
}

// admit is the front-tier admission gate: with MaxClusterDepth set, a
// request is refused with a StatusShed *proto.StatusError (carrying a
// retry-after hint) once the fleet-wide load estimate exceeds the
// limit. The estimate is the same score the balancer routes on — local
// in-flight plus fresh self-reported depths — summed over the
// membership, all atomic reads.
func (c *Cluster) admit() error {
	limit := int64(c.cfg.MaxClusterDepth)
	if limit <= 0 {
		return nil
	}
	bs := c.Backends()
	now := nanotime()
	ttl := int64(c.cfg.DepthTTL)
	var depth int64
	for _, b := range bs {
		depth += b.score(now, ttl)
	}
	if depth <= limit {
		return nil
	}
	c.nShed.Add(1)
	// Drain-time estimate at a nominal 100µs per queued request spread
	// over the fleet; clamped like the server-side hint.
	per := 100 * time.Microsecond
	n := len(bs)
	if n < 1 {
		n = 1
	}
	hint := time.Duration(depth-limit) * per / time.Duration(n)
	if hint < 50*time.Microsecond {
		hint = 50 * time.Microsecond
	}
	if hint > 10*time.Millisecond {
		hint = 10 * time.Millisecond
	}
	return &proto.StatusError{
		Code: proto.StatusShed,
		Msg:  proto.FormatRetryAfter(hint, "cluster admission: fleet depth exceeded"),
	}
}

// sendOneWay routes a fire-and-forget request: keyed writes fan out to
// every owner, everything else goes to one picked backend.
func (c *Cluster) sendOneWay(call proto.Call) error {
	owners, write := c.route(call.Method, call.Legacy, call.Payload)
	if write && len(owners) > 1 {
		var err error
		for i, b := range owners {
			if e := b.c.Do(call); e != nil {
				c.noteBackendFailure(b, true)
				if i > 0 {
					c.nReplicaErrs.Add(1)
				}
				if err == nil {
					err = e
				}
			}
		}
		return err
	}
	var tried []*Backend
	for attempt := 0; attempt < maxAttempts; attempt++ {
		b := c.pickFor(owners, tried, attempt == 0, !write && len(owners) > 0)
		if b == nil {
			if attempt == 0 {
				return ErrNoBackends
			}
			break
		}
		err := b.c.Do(call)
		if err == nil {
			return nil
		}
		// A one-way send fails only synchronously; the transport is
		// refusing writes to this peer right now.
		c.noteBackendFailure(b, true)
		tried = append(tried, b)
		if attempt == maxAttempts-1 {
			return err
		}
		c.nFailovers.Add(1)
	}
	return ErrNoBackends
}

// EnforcesBudget implements proto.BudgetEnforcer: the op-level deadline
// timer settles a budgeted call (and counts it in DeadlinesExpired), so
// blocking calls through the cluster wait on the op alone.
func (c *Cluster) EnforcesBudget() {}
