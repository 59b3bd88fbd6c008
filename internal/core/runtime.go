// Package core implements the ZygOS execution model as a real Go runtime:
// a fixed pool of per-core workers, each owning an ingress ring (the "NIC
// ring"), a single-producer/multi-consumer ready ring of ready
// connections (the shuffle queue), and a remote-syscall stack through
// which work executed elsewhere ships the connection's state-machine
// advance back to the home core. Replies themselves transmit eagerly
// from whichever worker produced them: the per-connection TX sequencer
// (completion tokens, transmitted strictly in order) has no core
// affinity, so ordered transmission needs no trip home.
//
// Architecture (mirroring §4 of the paper):
//
//   - The lower networking layer is the per-connection frame parser, run
//     under the home worker's kernel lock (coherency-free in the paper; a
//     single-threaded critical section here).
//   - The shuffle layer is Worker.ready: connections holding at least
//     one undelivered event, present exactly once while in StateReady.
//     The home worker consumes it; idle remote workers steal from it in
//     batches.
//   - The execution layer runs the application Handler with exclusive
//     connection ownership, so back-to-back requests on one connection
//     are handled — and answered — in order without app-level locking.
//
// The scheduling fabric is lock-free on every hot edge: the ingress ring
// is a bounded MPSC ring with spin-then-park producers, the shuffle
// queue is a Chase-Lev-style stealing ring with steal-half batching, the
// remote-syscall queue is an intrusive MPSC stack drained in one atomic
// swap, and idle workers park on an eventcount — they sleep until work
// actually arrives instead of polling on a timer.
//
// A transport can make each worker its own network poller (the paper's
// per-core network stack run to completion, §4.2) through the Poller
// hook: a worker harvests its own socket set at the top of every loop
// iteration, parks inside the transport's Wait instead of on its
// channel, and — when idle — harvests the socket set of a worker stuck
// in application code before proxying its kernel step. The ingress ring
// stays between harvest and parse: proxiers need its MPSC safety, and it
// is a few tens of nanoseconds per segment. What the hook must uphold:
// a worker never blocks on its own ingress ring (TryIngressOwned), one
// harvester per socket set at a time, a notify reaches a worker
// whichever way it sleeps (see parker), and DetachPoller returns only
// once no worker is inside the hook, so the transport can close its
// descriptors. Transports that feed the rings from goroutines of their
// own (memnet, tcpnet's portable pollers) use Ingress and never attach.
//
// Go cannot deliver preemptive IPIs to a goroutine, so the paper's
// exit-less IPI is substituted by kernel proxying: when the home worker is
// stuck in a long application handler, any idle worker may acquire the
// home's kernel lock and run its bounded kernel step (parse ingress,
// replenish the shuffle queue, advance connection state machines) on its
// behalf. The
// schedule this produces is the one the IPI produces in the paper: pending
// kernel work on a busy core happens promptly instead of waiting for the
// handler to finish. Setting Config.DisableProxy reproduces the paper's
// cooperative "no interrupts" variant.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zygos/internal/bufpool"
	"zygos/internal/nicsim"
	"zygos/internal/proto"
)

// Handler processes one request event. Implementations complete each
// event through Ctx.Reply or Ctx.Error — synchronously, or later via
// Ctx.Detach — and replies are transmitted in event order per connection
// regardless of which worker or goroutine completed them.
type Handler interface {
	Serve(ctx *Ctx, conn *Conn, msg proto.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx *Ctx, conn *Conn, msg proto.Message)

// Serve implements Handler.
func (f HandlerFunc) Serve(ctx *Ctx, conn *Conn, msg proto.Message) { f(ctx, conn, msg) }

// Poller is the hook through which a transport lets each worker poll its
// own sockets, so the home path is wait → read → parse → handler → write
// on one goroutine with no hand-off (the paper's per-core network stack,
// §4.2). The transport keeps one socket set per worker and registers a
// connection with the set of its Home(). All three methods take a worker
// index below Cores().
//
// Poll and Wait are called only by worker goroutines, bracketed so that
// DetachPoller can wait for them to return; Wake is called by whoever
// publishes work and may arrive at any time, including after the detach,
// so the transport guards it against its own teardown.
type Poller interface {
	// Poll harvests the worker's socket set without blocking: readable
	// bytes go to the runtime through TryIngressOwned, writable sockets
	// resume their parked egress. A worker polls its own set at the top
	// of every loop iteration; an idle worker polls the set of a worker
	// stuck in application code on its behalf. At most one caller reads a
	// set at a time — a concurrent call returns false at once. It reports
	// whether anything was harvested.
	Poll(worker int) bool
	// Wait blocks the calling worker until its socket set is ready, a
	// socket set it watches on a neighbour's behalf receives data, Wake
	// is called for it, or the timeout passes; it reports whether it
	// timed out. It must not leave a runnable goroutine stranded behind
	// the blocked thread.
	Wait(worker int, timeout time.Duration) bool
	// Wake makes the worker's current or next Wait return. It never
	// blocks.
	Wake(worker int)
}

// pollerRef boxes the interface for atomic.Pointer.
type pollerRef struct{ Poller }

// ErrIngressFull is returned by TryIngressOwned when the home ingress
// ring has no free slot; the caller keeps the segment.
var ErrIngressFull = errors.New("core: ingress ring is full")

// Config parameterizes a Runtime.
type Config struct {
	// Cores is the number of worker goroutines (the paper's dataplane
	// cores). Defaults to runtime.GOMAXPROCS(0).
	Cores int
	// Handler is the application; required.
	Handler Handler
	// DisableStealing turns off the shuffle layer's work stealing,
	// degenerating into a shared-nothing, IX-style partitioned dataplane
	// (used as an ablation and baseline).
	DisableStealing bool
	// DisableProxy turns off the IPI-analogue kernel proxying, giving the
	// paper's cooperative "ZygOS (no interrupts)" variant.
	DisableProxy bool
	// ParkInterval is the idle watchdog: parked workers are woken on
	// demand by the eventcount when work arrives, and this bounds how
	// long one sleeps before a defensive rescan regardless. Defaults to
	// 100µs.
	ParkInterval time.Duration
	// IngressCap bounds each worker's ingress ring (segments, rounded up
	// to a power of two); pushes beyond it block the transport reader,
	// providing backpressure. Defaults to 4096.
	IngressCap int
	// LockOSThread pins each worker goroutine to an OS thread.
	LockOSThread bool
	// DepthFrames piggybacks a health frame carrying the runtime's
	// current scheduling depth (Depths().Load()) onto every egress reply
	// batch bound for a v3-speaking peer. Clients without a depth hook
	// drop the frame for free; a cluster tier's balancer routes on it.
	DepthFrames bool
	// OnExpired, when set, is invoked with the wire method of every
	// event shed at dispatch because its deadline budget had already
	// expired (StatusDeadlineExceeded). It runs on the activation hot
	// path and must be cheap — the server layer uses it for per-route
	// expiry accounting.
	OnExpired func(method uint16)
	// OnConnClosed, when set, is invoked once with the connection's ID
	// when it closes (transport teardown, poison, or explicit
	// CloseConn). The server layer uses it to unhook the connection's
	// pub-sub subscriptions from the fan-out bus. May be called from
	// any goroutine; must not block.
	OnConnClosed func(id uint64)
}

// Stats is a snapshot of runtime counters.
type Stats struct {
	Events   uint64 // application events executed
	Steals   uint64 // events executed by a non-home worker
	Proxies  uint64 // kernel steps run on another worker's behalf (IPI analogue)
	Conns    uint64 // connections created over the runtime's lifetime
	Detached uint64 // events whose handlers detached their reply
	Parks    uint64 // times a worker committed to an eventcount sleep
	Wakes    uint64 // demand wakes delivered to parked workers
	Expired  uint64 // events shed at dispatch with an already-expired deadline budget

	PushQueued  uint64 // v4 PUSH frames accepted into subscription rings
	PushSent    uint64 // v4 PUSH frames handed to transport writers
	PushDropped uint64 // v4 PUSH frames evicted (drop-oldest) or refused (disconnect/oversize)
	Subs        int64  // live push subscriptions (gauge)
}

// Runtime is a ZygOS-style work-conserving scheduler instance.
type Runtime struct {
	cfg     Config
	rss     *nicsim.RSS
	workers []*Worker
	handler Handler

	events      atomic.Uint64
	steals      atomic.Uint64
	proxies     atomic.Uint64
	connSeq     atomic.Uint64
	sigSeq      atomic.Uint64
	detachTotal atomic.Uint64
	parks       atomic.Uint64
	wakes       atomic.Uint64
	expired     atomic.Uint64
	// detachedN counts detached events whose Completion has not resolved
	// yet; quiescence (and therefore Flush) waits for them.
	detachedN atomic.Int64
	// parsedN/completedN count events parsed off the wire and completion
	// tokens resolved; their difference is the runtime-wide backlog of
	// admitted-but-unanswered requests (queued, executing, or detached),
	// the signal admission control sheds on.
	parsedN    atomic.Int64
	completedN atomic.Int64
	// segsLive counts pooled segment buffers currently owned by the
	// runtime or leased to transports — the alloc-guard teardown tests
	// assert it returns to zero after Close.
	segsLive atomic.Int64
	// Push-egress counters (see push.go).
	pushQueued  atomic.Uint64
	pushSent    atomic.Uint64
	pushDropped atomic.Uint64
	subsLive    atomic.Int64
	// spinning counts workers currently awake in the steal scan. It
	// throttles demand wakes the way Go's own scheduler throttles wakep:
	// while somebody is already scanning, freshly published work will be
	// found by them — waking a second worker just burns context
	// switches. Lost-wakeup safe because a scanner that gives up
	// decrements spinning before its park-time recheck of every depth
	// counter: a publisher that skipped the wake after seeing
	// spinning>0 published its depth first, so the recheck sees it.
	spinning atomic.Int32

	// poller is the attached transport hook, nil while workers park on
	// their channels (before a transport attaches, after it detaches, and
	// for transports that feed the ingress rings from their own
	// goroutines).
	poller atomic.Pointer[pollerRef]

	running atomic.Bool
	wg      sync.WaitGroup
}

// New creates and starts a runtime. Callers must Close it.
func New(cfg Config) (*Runtime, error) {
	if cfg.Handler == nil {
		return nil, errors.New("core: Config.Handler is required")
	}
	if cfg.Cores <= 0 {
		cfg.Cores = runtime.GOMAXPROCS(0)
	}
	if cfg.ParkInterval <= 0 {
		cfg.ParkInterval = 100 * time.Microsecond
	}
	if cfg.IngressCap <= 0 {
		cfg.IngressCap = 4096
	}
	rt := &Runtime{
		cfg:     cfg,
		rss:     nicsim.NewRSS(cfg.Cores),
		handler: cfg.Handler,
	}
	for i := 0; i < cfg.Cores; i++ {
		rt.workers = append(rt.workers, newWorker(rt, i))
	}
	rt.running.Store(true)
	for _, w := range rt.workers {
		rt.wg.Add(1)
		go w.run()
	}
	return rt, nil
}

// Close stops all workers and waits for them to exit. In-flight handler
// invocations complete; undelivered events are discarded and their
// pooled buffers returned.
func (rt *Runtime) Close() {
	if !rt.running.CompareAndSwap(true, false) {
		return
	}
	for _, w := range rt.workers {
		w.ec.notify()
		w.ingress.notFull.notify()
	}
	rt.wg.Wait()
}

// AttachPoller installs the transport hook: from now on every worker
// polls its socket set at the top of its loop and parks inside p.Wait.
// Only one poller can be attached at a time; it reports false if another
// already is. Workers asleep on their channels are woken so that they
// re-park where socket readiness can reach them.
func (rt *Runtime) AttachPoller(p Poller) bool {
	if !rt.poller.CompareAndSwap(nil, &pollerRef{p}) {
		return false
	}
	for _, w := range rt.workers {
		w.ec.notify()
	}
	return true
}

// DetachPoller removes the hook installed by AttachPoller and returns
// once no worker is inside p.Poll or p.Wait, so the transport may close
// the descriptors behind them (a descriptor number reused under a
// blocked wait would be silent corruption). Workers go back to parking
// on their channels. A p that is not the attached poller is ignored.
func (rt *Runtime) DetachPoller(p Poller) {
	parkers := make([]*parker, len(rt.workers))
	for i, w := range rt.workers {
		parkers[i] = &w.ec
	}
	detachPoller(&rt.poller, parkers, p)
}

// Proxying reports whether idle workers act on other workers' behalf
// (stealing and kernel proxying both enabled). A transport has its idle
// workers watch their neighbours' socket sets only then.
func (rt *Runtime) Proxying() bool {
	return !rt.cfg.DisableStealing && !rt.cfg.DisableProxy
}

// Cores returns the number of workers.
func (rt *Runtime) Cores() int { return len(rt.workers) }

// Backlog returns the number of events parsed off the wire whose reply
// has not completed yet — queued in per-connection event queues,
// executing in handlers, or detached. It is the queue depth admission
// control sheds on.
func (rt *Runtime) Backlog() int64 {
	b := rt.parsedN.Load() - rt.completedN.Load()
	if b < 0 {
		return 0
	}
	return b
}

// DepthSnapshot is the cheap load signal the health piggyback stamps on
// the wire: a handful of atomic reads, no locks taken and nothing
// allocated, safe on the TX hot path where a full Stats() (which builds
// per-route maps at the server layer) would not be.
type DepthSnapshot struct {
	// Backlog is the number of admitted-but-unanswered requests: parsed
	// off the wire, not yet replied (queued, executing, or detached).
	Backlog int64
	// Ingress is the number of raw stream segments sitting in worker
	// ingress rings, not yet parsed — arrivals the Backlog cannot see
	// yet.
	Ingress int
	// Ready is the number of connections currently queued in ready
	// rings awaiting an executor.
	Ready int
}

// Load flattens the snapshot into the single wire-friendly depth figure
// the health frame carries: admitted backlog plus not-yet-parsed
// ingress, clamped to uint32.
func (d DepthSnapshot) Load() uint32 {
	l := d.Backlog + int64(d.Ingress)
	if l < 0 {
		return 0
	}
	if l > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(l)
}

// Depths returns the runtime's instantaneous scheduling depths. Unlike
// Stats it is allocation-free and touches only atomic counters, so the
// reply hot path (the depth piggyback) and polling balancers can call
// it per batch without perturbing the workload being measured.
func (rt *Runtime) Depths() DepthSnapshot {
	d := DepthSnapshot{Backlog: rt.Backlog()}
	for _, w := range rt.workers {
		d.Ingress += w.ingress.Len()
		d.Ready += w.ready.Len()
	}
	return d
}

// Stats returns a snapshot of the runtime counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Events:   rt.events.Load(),
		Steals:   rt.steals.Load(),
		Proxies:  rt.proxies.Load(),
		Conns:    rt.connSeq.Load(),
		Detached: rt.detachTotal.Load(),
		Parks:    rt.parks.Load(),
		Wakes:    rt.wakes.Load(),
		Expired:  rt.expired.Load(),

		PushQueued:  rt.pushQueued.Load(),
		PushSent:    rt.pushSent.Load(),
		PushDropped: rt.pushDropped.Load(),
		Subs:        rt.subsLive.Load(),
	}
}

// SegmentsLive reports how many pooled segment buffers the runtime
// currently owns (queued in ingress rings or leased to transports via
// GetSegment). The teardown stress tests assert it returns to zero after
// Close — a nonzero residue means a buffer leaked out of the pool cycle.
func (rt *Runtime) SegmentsLive() int64 { return rt.segsLive.Load() }

// NewConn registers a connection whose replies are written to wr. The
// connection's home worker is chosen by RSS hashing of its identifier,
// exactly as the NIC steers a flow in the paper.
func (rt *Runtime) NewConn(wr ReplyWriter) *Conn {
	id := rt.connSeq.Add(1)
	c := &Conn{
		id:     id,
		home:   rt.rss.Queue(id),
		wr:     wr,
		rt:     rt,
		txWait: make(map[uint64][]byte),
	}
	return c
}

// Ingress delivers raw stream bytes from a transport reader into the
// connection's home ingress ring. The bytes are copied (into a pooled
// segment buffer), so callers may reuse their read buffer immediately.
// It blocks when the ring is full (transport backpressure) and returns
// an error after Close.
func (rt *Runtime) Ingress(c *Conn, data []byte) error {
	return rt.IngressOwned(c, append(rt.GetSegment(len(data)), data...))
}

// GetSegment returns a pooled, zero-length buffer with capacity at least
// n, suitable for handing to IngressOwned. Transport readers use it to
// read directly into runtime-owned memory, eliminating the ingress copy.
// A segment that ends up not being ingressed must go back through
// PutSegment.
func (rt *Runtime) GetSegment(n int) []byte {
	rt.segsLive.Add(1)
	return bufpool.Get(n)
}

// PutSegment returns a segment obtained from GetSegment that was never
// handed to IngressOwned (a transport reader's parting buffer, say) to
// the pool.
func (rt *Runtime) PutSegment(b []byte) { rt.putSegment(b) }

// putSegment is the single return path for segment buffers; it keeps the
// live-segment accounting exact.
func (rt *Runtime) putSegment(b []byte) {
	rt.segsLive.Add(-1)
	bufpool.Put(b)
}

// IngressOwned is Ingress without the copy: ownership of data (which
// must come from GetSegment) transfers to the runtime unconditionally —
// even on error — and the buffer returns to the segment pool once the
// kernel step has parsed it. It blocks when the home ingress ring is
// full and returns an error after Close.
func (rt *Runtime) IngressOwned(c *Conn, data []byte) error {
	if err := rt.admitSegment(c, data); err != nil {
		return err
	}
	return rt.workers[c.home].pushIngress(segment{conn: c, data: data})
}

// admitSegment refuses a segment for a closed runtime or connection,
// returning it to the pool.
func (rt *Runtime) admitSegment(c *Conn, data []byte) error {
	if !rt.running.Load() {
		rt.putSegment(data)
		return errRuntimeClosed
	}
	if c.closed.Load() {
		rt.putSegment(data)
		return fmt.Errorf("core: conn %d is closed", c.id)
	}
	return nil
}

// TryIngressOwned is IngressOwned for a worker harvesting a socket set:
// it never blocks — a worker that waited on its own ingress ring would
// wait for itself. When the home ring is full it returns ErrIngressFull
// and the caller keeps data (and stops reading: the bytes stay in the
// socket, and TCP's window is the backpressure); on any other error the
// segment has been returned to the pool. No other worker is woken: the
// caller is a worker, and its next step is the kernel step that parses
// what it pushed.
func (rt *Runtime) TryIngressOwned(c *Conn, data []byte) error {
	if err := rt.admitSegment(c, data); err != nil {
		return err
	}
	w := rt.workers[c.home]
	if !w.ingress.tryPush(c, data) {
		return ErrIngressFull
	}
	w.signal()
	w.selfDrainIfClosed()
	return nil
}

// CloseConn marks the connection closed. Events already queued are still
// delivered; subsequent Ingress calls fail. Safe to call multiple times.
//
// Closing also returns the connection's pooled memory: the TX scratch
// immediately (txMu serializes against an in-flight completeBatch, and
// a batch that observes the closed flag frees its own buffer), and the
// parse buffer via a nil-data pill through the home ingress ring — the
// parser is owned by the home worker's drain loop, so the release must
// ride the same ring as every other parser touch rather than race it.
func (rt *Runtime) CloseConn(c *Conn) {
	if c.closed.Swap(true) {
		return
	}
	c.ShrinkIdle()
	c.teardownPush()
	if f := rt.cfg.OnConnClosed; f != nil {
		f(c.id)
	}
	w := rt.workers[c.home]
	for i := 0; i < 8; i++ {
		if w.ingress.tryPush(c, nil) {
			w.signal()
			w.selfDrainIfClosed()
			return
		}
		// Ring momentarily full: yield to the draining worker and retry.
		// If every retry fails the pill is dropped — the drain loop also
		// releases a closed connection's parse buffer when any later
		// segment of it drains, so at worst one pooled block stays out
		// for a connection that went quiet with a full home ring.
		runtime.Gosched()
	}
}

// Flush blocks until every event ingressed before the call has been
// executed and its replies written, or the timeout elapses. It is a
// testing/shutdown aid, not a fast path.
func (rt *Runtime) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if rt.quiescent() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (rt *Runtime) quiescent() bool {
	if rt.detachedN.Load() != 0 {
		return false
	}
	// The per-worker scan below is not atomic: an executor can pick work
	// up from a worker the scan has not reached yet after the scan read
	// its own counters as zero. The parse/completion ledger closes that
	// window — an admitted event keeps parsedN ahead of completedN from
	// the kernel step that parsed it until its reply (or discard) is
	// produced, no matter which queues or local buffers carry it in
	// between — so in-flight application work is visible here even when
	// the scan races it.
	if rt.parsedN.Load() != rt.completedN.Load() {
		return false
	}
	for _, w := range rt.workers {
		if !w.quiescent() {
			return false
		}
	}
	return true
}

// tryProxy is the IPI analogue: run the target worker's kernel step on
// its behalf so pending ingress parsing, shuffle replenishment, and
// remote completions do not wait for it. The kernel lock is the only
// safety requirement — it serializes the step no matter who runs it —
// so the proxy is not restricted to targets stuck in application code:
// a home worker wedged outside the handler (say, blocked on a stalled
// peer's egress backpressure) can be proxied too, keeping its other
// connections live. A healthy target parses under its own kernel lock,
// so the TryLock naturally fails instead of duelling with it. Safe from
// any goroutine — idle workers and detached-reply resolvers both use it.
func (rt *Runtime) tryProxy(target *Worker) bool {
	if !target.kernelMu.TryLock() {
		return false
	}
	rt.proxies.Add(1)
	did := target.kernelStep()
	target.kernelMu.Unlock()
	return did
}

// wakeOther delivers a demand wake to one parked worker other than self,
// round-robin, so freshly published stealable or proxyable work is
// picked up without any worker polling. Workers that are awake are
// skipped — they will find the work on their own loop — and if nobody is
// parked there is nobody to wake.
func (rt *Runtime) wakeOther(self int) {
	n := len(rt.workers)
	if n <= 1 {
		return
	}
	if rt.cfg.DisableStealing {
		// A woken worker could not act: stealing is off, and proxying is
		// only reachable through the steal scan. Let it sleep.
		return
	}
	if rt.spinning.Load() > 0 {
		// A worker is already awake and scanning; it will find the work.
		return
	}
	start := int(rt.sigSeq.Add(1)) % n
	for i := 0; i < n; i++ {
		k := (start + i) % n
		if k == self {
			continue
		}
		w := rt.workers[k]
		if !w.ec.waiting.Load() {
			continue
		}
		if w.ec.notify() {
			rt.wakes.Add(1)
			return
		}
	}
}

// stealOrder fills order with a random permutation of worker indexes,
// excluding self, using the worker-local source.
func (rt *Runtime) stealOrder(rng *rand.Rand, self int, order []int) []int {
	order = order[:0]
	for i := range rt.workers {
		if i != self {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
