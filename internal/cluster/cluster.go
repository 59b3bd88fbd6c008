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
//
// Every send of a logical request is an attempt launched by op.launch:
// the primary (the only pick that may claim a half-open breaker probe),
// then at most one rescue — a hedge past the deadline while the primary
// is out, or a failover once a transport failure leaves nothing
// outstanding. A send the transport refuses synchronously never reaches
// its callback, so launch rescues it at once as a failover while the
// attempt budget lasts. When nothing is outstanding and nothing more can
// be sent the op settles exactly once: its timers stop, it leaves the
// Close registry, and one outcome is delivered — to Do's caller if no
// attempt ever got out, to Done otherwise. One-way sends take the same
// path without timers, registry or reply.
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
// lock-free, so choose is safe from any goroutine.
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

// choose selects a backend from bs, passing over exclude (backends this
// request already tried) and any for which skip reports true; nil if
// none is eligible. A keyed request takes the least-loaded of its
// replica set; others go by policy.
func (bl *Balancer) choose(bs, exclude []*Backend, keyed bool, skip func(*Backend) bool) *Backend {
	n := len(bs)
	if !keyed && bl.policy == RoundRobin {
		start := bl.rr.Add(1)
		for k := 0; k < n; k++ {
			b := bs[int((start+uint64(k))%uint64(n))]
			if !ineligible(b, exclude, skip) {
				return b
			}
		}
		return nil
	}
	// P2C compares a random pair; with too few distinct candidates for
	// one, or neither of the pair eligible, it degrades to the full scan.
	if !keyed && bl.policy == P2C && n-len(exclude) > 2 {
		r := bl.rand()
		i := int(r % uint64(n))
		j := int((r >> 32) % uint64(n-1))
		if j >= i {
			j++
		}
		a, b := bs[i], bs[j]
		okA, okB := !ineligible(a, exclude, skip), !ineligible(b, exclude, skip)
		switch {
		case okA && okB:
			now := nanotime()
			if b.score(now, bl.ttl) < a.score(now, bl.ttl) {
				return b
			}
			return a
		case okA:
			return a
		case okB:
			return b
		}
	}
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
		o.call.Done(nil, ErrClusterClosed)
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
		return c.bal.choose(pool, tried, keyed, nil)
	}
	if probe {
		now := nanotime()
		for _, b := range pool {
			if !excluded(b, tried) && c.tryClaimProbe(b, now) {
				return b
			}
		}
	}
	if b := c.bal.choose(pool, tried, keyed, brUnhealthy); b != nil {
		return b
	}
	if keyed && fallback && !c.cfg.NoReadFallback {
		if b := c.bal.choose(c.Backends(), tried, false, brUnhealthy); b != nil {
			c.nReadFallback.Add(1)
			return b
		}
	}
	if probe {
		return c.bal.choose(pool, tried, keyed, nil)
	}
	return nil
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
	c *Cluster
	// call is the caller's request. Its Done receives the op's one
	// outcome; a request's Payload is a cluster-owned copy, since rescue
	// sends outlive the caller's slice.
	call   proto.Call
	owners []*Backend // non-nil restricts rescue picks to the replica set

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

// attemptKind says why an attempt is sent.
type attemptKind uint8

const (
	primary  attemptKind = iota // the first send; may claim a half-open probe
	hedge                       // a duplicate raced past the hedge deadline
	failover                    // a rescue once nothing else is outstanding
)

// launch sends one attempt of kind k — the only place an attempt is
// counted — and rescues a synchronous refusal as a failover while the
// attempt budget lasts. A failover waits until nothing else is
// outstanding: a racing attempt decides first. The caller holds o.mu;
// launch releases it. Once nothing is outstanding and nothing more can
// be sent, launch settles the op and returns the error to deliver
// (cause, or the last refusal), which the caller hands to Do's caller or
// to Done; nil means the op is still in flight or already delivered.
func (o *op) launch(k attemptKind, cause error) error {
	for {
		var b *Backend
		if !o.done && (k != failover || o.outstanding == 0) &&
			o.attempts < maxAttempts && !o.c.closed.Load() {
			b = o.c.pickFor(o.owners, o.tried, k == primary, o.fallback)
		}
		if b == nil {
			if o.done || o.outstanding > 0 {
				o.mu.Unlock()
				return nil
			}
			o.settleLocked()
			return cause
		}
		o.attempts++
		o.outstanding++
		o.tried = append(o.tried, b)
		o.mu.Unlock()
		switch k {
		case hedge:
			o.c.nHedges.Add(1)
		case failover:
			o.c.nFailovers.Add(1)
		}
		err := o.dispatch(b, k)
		if err == nil {
			return nil
		}
		o.mu.Lock()
		o.outstanding--
		k, cause = failover, err
	}
}

// dispatch issues one attempt to b: the op's call with the deadline
// budget remaining now and, for a request, a Done that reports to
// finish.
func (o *op) dispatch(b *Backend, k attemptKind) error {
	call := o.call
	if !call.OneWay {
		start := time.Now()
		call.Done = func(resp []byte, err error) { o.finish(b, k, start, resp, err) }
	}
	if !o.deadline.IsZero() {
		// Once the budget is gone, stamp the floor instead of omitting the
		// extension (no budget means *unlimited* on the wire), so the
		// backend sheds it as expired-on-arrival for free.
		call.Budget = max(time.Until(o.deadline), time.Microsecond)
	}
	return o.c.send(b, call)
}

// send issues call to b and counts it in b's in-flight load until
// noteReply (for a one-way, until the write returns). A synchronous
// refusal — Done will never run — means the transport already knows the
// peer is unreachable (dial backoff, closed manager): b trips now, so
// later picks, this op's own rescues included, skip it.
func (c *Cluster) send(b *Backend, call proto.Call) error {
	b.inflight.Add(1)
	err := b.c.Do(call)
	if err != nil || call.OneWay {
		b.inflight.Add(-1)
	}
	if err != nil {
		c.noteBackendFailure(b, true)
	}
	return err
}

// noteReply closes one request sent to b: its in-flight count drops and
// its breaker sees the verdict. It reports whether err is a final reply
// — nil or an application-level StatusError — rather than a transport
// failure.
func (c *Cluster) noteReply(b *Backend, err error) bool {
	b.inflight.Add(-1)
	var se *proto.StatusError
	if err != nil && !errors.As(err, &se) {
		c.noteBackendFailure(b, false)
		return false
	}
	c.noteBackendSuccess(b)
	return true
}

// finish is every request attempt's completion. The first final reply
// reaches Done; later finals are counted as losers and dropped, and a
// transport failure fails over (see launch).
func (o *op) finish(b *Backend, k attemptKind, start time.Time, resp []byte, err error) {
	final := o.c.noteReply(b, err)
	o.mu.Lock()
	o.outstanding--
	if !final {
		if err := o.launch(failover, err); err != nil {
			o.call.Done(nil, err)
		}
		return
	}
	if o.done {
		o.mu.Unlock()
		o.c.nLosers.Add(1)
		return
	}
	o.settleLocked()
	o.c.trackerFor(o.call.Method, o.call.Legacy).record(time.Since(start), o.c.cfg.Hedge)
	if k == hedge {
		o.c.nHedgeWins.Add(1)
	}
	o.call.Done(resp, err)
}

// settleLocked marks the op decided, stops its hedge and deadline
// timers, and deregisters it from the Close registry. Caller holds
// o.mu; it is released here so Done runs lock-free. (The registry lock is
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
	if err := o.launch(hedge, nil); err != nil {
		o.call.Done(nil, err)
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
	o.call.Done(nil, proto.ErrCallTimeout)
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

// Do is the cluster's one entry point: it admits the call, replicates a
// keyed write to its secondaries, and launches the primary attempt — at
// once for a one-way, through sendAsync for a request. A one-way
// therefore reports its primary's send result, as a request does.
// Call.Budget is the per-call deadline override (see effTimeout).
// Subscription calls are refused with ErrNoSubscriptions.
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
	owners, write := c.route(call.Method, call.Legacy, call.Payload)
	if write && len(owners) > 1 {
		c.replicate(call, owners[1:])
		owners = owners[:1:1]
	}
	o := &op{c: c, call: call, owners: owners, fallback: len(owners) > 0 && !write}
	o.mu.Lock()
	if call.OneWay {
		// A one-way is over once written: no reply to race, so no timers
		// and no registry entry, and every send happens inside this call,
		// so the caller's payload needs no copy.
		return o.launch(primary, ErrNoBackends)
	}
	return c.sendAsync(o, c.cfg.Hedge.Enabled && !write)
}

// sendAsync registers a request op for Close, arms its hedge and
// deadline timers, and launches its primary. The caller holds o.mu:
// Close and both timer callbacks take it before touching the op, so
// none can act on it half built.
func (c *Cluster) sendAsync(o *op, hedged bool) error {
	if !c.trackOp(o) {
		o.mu.Unlock()
		return ErrClusterClosed
	}
	o.call.Payload = append([]byte(nil), o.call.Payload...)
	if hedged {
		delay := c.trackerFor(o.call.Method, o.call.Legacy).delay(c.cfg.Hedge)
		o.timer = time.AfterFunc(delay, o.fireHedge)
	}
	if t := c.effTimeout(o.call.Budget); t > 0 {
		o.deadline = time.Now().Add(t)
		o.dtimer = time.AfterFunc(t, o.fireDeadline)
	}
	o.call.Budget = 0 // dispatch stamps what remains of the deadline
	return o.launch(primary, ErrNoBackends)
}

// replicate sends a keyed write to the key's secondary owners, before
// the primary goes out: transports encode synchronously, so the caller's
// payload is still valid, and the logical outcome is the primary's
// alone. A secondary write lost to a refusal or a transport failure is
// counted in ReplicaWriteFailures — the primary's outcome hides it from
// the caller, and reads route to any owner.
func (c *Cluster) replicate(call proto.Call, secondaries []*Backend) {
	for _, b := range secondaries {
		rc := proto.Call{Method: call.Method, Payload: call.Payload, OneWay: call.OneWay}
		if !rc.OneWay {
			rc.Done = func(_ []byte, err error) {
				if !c.noteReply(b, err) {
					c.nReplicaErrs.Add(1)
				}
			}
		}
		if c.send(b, rc) != nil {
			c.nReplicaErrs.Add(1)
		}
	}
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

// EnforcesBudget implements proto.BudgetEnforcer: the op-level deadline
// timer settles a budgeted call (and counts it in DeadlinesExpired), so
// blocking calls through the cluster wait on the op alone.
func (c *Cluster) EnforcesBudget() {}
