package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"zygos/internal/proto"
)

// errRuntimeClosed is returned to transport readers blocked on a full
// ingress ring when the runtime shuts down.
var errRuntimeClosed = errors.New("core: runtime is closed")

// segment is one chunk of raw stream bytes from a transport reader,
// queued on the home worker's ingress ring (the software NIC ring). The
// data buffer is owned by the runtime from enqueue until the kernel step
// has fed it to the parser, at which point it returns to the pool.
type segment struct {
	conn *Conn
	data []byte
}

// compsBuf is a pooled batch of completion tokens. Activations and
// detached resolvers fill one, the TX flush empties it, and it cycles
// back through the pool.
type compsBuf struct {
	s []completion
}

var compsPool = sync.Pool{New: func() any { return new(compsBuf) }}

func getComps() *compsBuf { return compsPool.Get().(*compsBuf) }

func putComps(cb *compsBuf) {
	for i := range cb.s {
		cb.s[i] = completion{}
	}
	cb.s = cb.s[:0]
	compsPool.Put(cb)
}

// ctxPool recycles per-event contexts. Detached contexts are never
// pooled: their Completion handle may outlive the activation
// arbitrarily, and a recycled Ctx under a live handle would complete
// someone else's event.
var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// stealBatchMax caps how many connections one steal takes. Steal-half
// amortizes the victim's head CAS over a batch; the thief executes only
// the first and re-publishes the rest in its own ready ring, so the cap
// bounds transfer bookkeeping, not execution latency.
const stealBatchMax = 4

// Worker is one scheduling core. Its three queues are lock-free: the
// ingress ring (bounded MPSC), the ready ring (the shuffle queue — SPMC
// with batched stealing), and the remote stack (MPSC, swap-drained).
// kernelMu serializes this core's kernel step — it is the single-
// consumer guarantee for the ingress ring and the single-producer
// guarantee for the ready ring, and idle workers TryLock it to proxy
// the step (the IPI analogue). The worker parks when no work is visible
// anywhere and sleeps until a publisher wakes it — inside the transport's
// Wait when a Poller is attached (socket readiness wakes it directly),
// on its parker channel otherwise.
type Worker struct {
	rt *Runtime
	id int

	// ingress: multi-producer (transport readers, or whichever worker is
	// harvesting this worker's socket set), drained by the kernel step.
	// Bounded; reader goroutines spin-then-park when full, harvesting
	// workers stop reading instead (TryIngressOwned).
	ingress ingressRing

	// kernelMu serializes this core's kernel step (remote state-machine
	// advances + ingress parsing). Idle workers TryLock it to proxy the
	// step — the IPI analogue.
	kernelMu sync.Mutex

	// remote: state-machine advances shipped home by stolen activations
	// and lock-dodging home finalizes.
	remote remoteStack

	// ready is the shuffle queue: connections holding at least one
	// undelivered event, present exactly once while StateReady.
	ready readyRing

	// ec is what this worker parks on and is woken through. The watchdog
	// — the timeout of every sleep — bounds how stale a parked worker's
	// view can get for work no depth counter or watched socket set shows
	// it (a victim wedged outside application code). It backs off
	// exponentially across consecutive fruitless fires (parkBackoff,
	// reset whenever real work runs), so an idle server converges to ~100
	// timed wakes per second per worker instead of polling at the
	// ParkInterval. watchdogPass is set by a timed-out sleep and consumed
	// by the steal scan that follows it.
	ec           parker
	parkBackoff  time.Duration
	watchdogPass bool

	rng        *rand.Rand
	order      []int
	stolen     [stealBatchMax]*Conn // stealBatch scratch
	drainBuf   [drainBatch]segment  // kernel-step ingress drain scratch (kernelMu-guarded)
	readyBatch []*Conn              // kernel-step EDF publication scratch (kernelMu-guarded)
	inApp      atomic.Bool          // executing application code (IPI-interruptible)
	active     atomic.Int32         // activations + kernel steps in flight (quiescence)
}

// drainBatch is how many ingress segments one kernel-step sweep takes at
// a time: large enough to amortize the ring's consume-index update,
// small enough to keep the step's working set and latency bounded.
const drainBatch = 256

func newWorker(rt *Runtime, id int) *Worker {
	w := &Worker{
		rt:  rt,
		id:  id,
		rng: rand.New(rand.NewSource(int64(id)*7919 + 1)),
	}
	w.ingress.init(rt.cfg.IngressCap)
	w.ready.init()
	w.ec.init(id, &rt.poller)
	return w
}

func (w *Worker) run() {
	defer w.rt.wg.Done()
	for w.rt.running.Load() {
		if w.homeWork() {
			w.parkBackoff = 0
			continue
		}
		if !w.rt.cfg.DisableStealing && w.stealWork() {
			w.parkBackoff = 0
			continue
		}
		w.park()
	}
	// Final drain: resolve state-machine advances shipped while this
	// worker was exiting and return queued buffers to their pools. Late
	// producers that observe the runtime closed after publishing run
	// this drain themselves, so nothing is stranded.
	w.kernelMu.Lock()
	w.shutdownDrain()
	w.kernelMu.Unlock()
}

// pollSockets harvests worker target's socket set (w's own, or that of a
// worker w is proxying for) into target's ingress ring, when a transport
// Poller is attached. home is Poller.Poll's: w's own loop-top poll.
func (w *Worker) pollSockets(target int, home bool) bool {
	p := w.ec.acquirePoller()
	if p == nil {
		return false
	}
	did := p.Poll(target, home)
	w.ec.releasePoller()
	return did
}

// homeWork runs one iteration of the home loop: harvest this worker's
// own sockets, the kernel step (flush remote completions, parse ingress
// into the ready ring), then one activation from the local ready ring.
func (w *Worker) homeWork() bool {
	did := w.pollSockets(w.id, true)
	if w.kernelMu.TryLock() {
		if w.kernelStep() {
			did = true
		}
		w.kernelMu.Unlock()
	}
	// The active bracket must open before the pop: from the instant a
	// connection leaves the ready ring its events are invisible to every
	// depth counter, and quiescence (Flush) must not be observable in
	// that window.
	w.active.Add(1)
	if c := w.ready.popOne(); c != nil {
		w.activate(c)
		w.active.Add(-1)
		return true
	}
	w.active.Add(-1)
	return did
}

// drainRemote detaches and processes every state-machine advance in the
// remote stack, reporting whether any was processed. Caller holds
// kernelMu (finalizeLocked may push to the ready ring). Nothing here can
// block — reply bytes never travel through this queue — so holding the
// kernel lock across the drain cannot wedge the core behind a stalled
// peer. Shared by the kernel step and the shutdown drain so op handling
// cannot diverge between them.
func (w *Worker) drainRemote() bool {
	did := false
	for op := w.remote.drain(); op != nil; {
		next := op.next
		did = true
		w.finalizeLocked(op.conn)
		putRemoteOp(op)
		op = next
	}
	return did
}

// kernelStep executes this core's bounded kernel work. The caller must
// hold kernelMu; the caller may be another worker proxying on this core's
// behalf. It reports whether it made progress.
func (w *Worker) kernelStep() bool {
	// Count the step as in-flight work: events drained from ingress are
	// invisible to the queue counters until they are republished in the
	// ready ring, and quiescence must not be observable in between.
	w.active.Add(1)
	defer w.active.Add(-1)
	did := false

	// Remote state-machine advances first (§4.5 handler duty 2): requeue
	// or idle the connections whose activations ended elsewhere. One
	// atomic swap detaches the whole stack.
	if w.drainRemote() {
		did = true
	}

	// Network stack: drain ingress, parse frames, enqueue ready
	// connections (§4.5 handler duty 1). The step is bounded to one lap
	// of the ring so a proxier cannot be pinned here by a fast producer.
	for budget := len(w.ingress.slots); budget > 0; {
		n := w.ingress.drainInto(w.drainBuf[:])
		if n == 0 {
			break
		}
		budget -= n
		did = true
		// The batch's slots are free from this moment: unpark producers
		// blocked on the full ring now, so they refill concurrently with
		// the parse below instead of sleeping out the whole step. Cheap
		// when nobody is parked (two atomic ops).
		w.ingress.notFull.notify()
		// One arrival timestamp per drained batch: segments pushed while
		// an earlier batch of this sweep was parsing must not inherit its
		// (older) snapshot, or their queue delay reads inflated.
		now := time.Now()
		for i := 0; i < n; i++ {
			sg := w.drainBuf[i]
			w.drainBuf[i] = segment{}
			c := sg.conn
			if sg.data == nil {
				// CloseConn's parser-release pill: the connection is
				// closed and this loop owns its parser, so the pooled
				// parse block goes home here. Payload views held by
				// still-queued events keep the block alive until those
				// messages are released.
				c.parser.ReleaseBuffer()
				continue
			}
			c.parser.Feed(sg.data)
			w.rt.putSegment(sg.data)
			events := 0
			for {
				m, ok, err := c.parser.Next()
				if err != nil {
					// Malformed stream: poison the connection and close its
					// transport. Events already queued still drain; the parse
					// buffer goes back to the pool. The parser's error stays
					// sticky, so segments still queued behind the malformed one
					// feed into a dead parser instead of being re-interpreted
					// from an arbitrary mid-stream offset.
					c.poison()
					c.parser.ReleaseBuffer()
					break
				}
				if !ok {
					break
				}
				if m.Ver == 3 && !c.sawV3.Load() {
					// The peer speaks v3: it may now be sent piggybacked
					// health frames. Check-then-set keeps the steady state
					// a read, not a contended store per frame.
					c.sawV3.Store(true)
				}
				// A frame-carried deadline budget becomes an absolute
				// deadline at arrival; the scheduler orders ready
				// connections by it and sheds events already past it.
				var dl int64
				if m.Budget != 0 {
					dl = now.Add(time.Duration(m.Budget) * time.Microsecond).UnixNano()
				}
				c.pcbMu.Lock()
				seq := c.seqAlloc
				c.seqAlloc++
				c.pcb = append(c.pcb, event{msg: m, seq: seq, at: now, deadline: dl})
				if dl != 0 {
					if cur := c.edfDeadline.Load(); cur == 0 || dl < cur {
						c.edfDeadline.Store(dl)
					}
				}
				c.pcbMu.Unlock()
				w.rt.parsedN.Add(1)
				events++
			}
			if c.closed.Load() {
				// Closed while bytes were still in flight (the pill may
				// have been dropped on a full ring): release here instead.
				// Parsed events above still deliver; only the partial
				// trailing frame, which can never complete, is dropped.
				c.parser.ReleaseBuffer()
			}
			if events > 0 && ConnState(c.state.Load()) == StateIdle {
				// Transition to Ready now (under kernelMu, which also
				// dedups a connection hit by several segments of this
				// batch) but defer the ring push: the whole batch publishes
				// together below, sorted earliest-deadline-first, so a µs
				// budget parsed behind an ms scan still dispatches first.
				c.state.Store(int32(StateReady))
				w.readyBatch = append(w.readyBatch, c)
			}
		}
		if len(w.readyBatch) > 0 {
			w.publishReady()
		}
	}
	return did
}

// publishReady pushes the kernel step's batch of newly-ready
// connections into the ready ring in earliest-deadline-first order.
// Within one drain batch every event shares an arrival timestamp, so
// deadline order IS budget order — the EDF sort is what lets a
// microsecond-budget GET overtake a millisecond-budget scan that
// arrived in the same sweep (the paper's bimodal-2 pathology).
// Connections without deadlines keep FIFO order after all
// deadline-carrying ones (stable insertion sort). Caller holds
// kernelMu; every connection in the batch is already StateReady.
func (w *Worker) publishReady() {
	batch := w.readyBatch
	if len(batch) > 1 {
		for i := 1; i < len(batch); i++ {
			c := batch[i]
			k := c.edfKey()
			j := i
			for j > 0 && batch[j-1].edfKey() > k {
				batch[j] = batch[j-1]
				j--
			}
			batch[j] = c
		}
	}
	for i, c := range batch {
		w.ready.push(c)
		batch[i] = nil
	}
	w.readyBatch = batch[:0]
	w.signal()
	if w.ready.Len() > 1 || w.inApp.Load() {
		// More work than the home worker can start right now (or it is
		// stuck in application code): wake one parked worker to steal or
		// proxy.
		w.rt.wakeOther(w.id)
	}
}

// finalizeLocked advances the Figure 5 state machine after an activation
// ends: back to ready (and re-queued) if events arrived meanwhile, else
// idle. Caller holds the home worker's kernelMu; w is the home worker.
func (w *Worker) finalizeLocked(c *Conn) {
	c.pcbMu.Lock()
	pend := len(c.pcb)
	c.pcbMu.Unlock()
	if pend > 0 {
		if !w.rt.running.Load() {
			// Shutdown: no executor will ever take this connection again;
			// release its queued events' buffer leases instead of
			// stranding them in the ring.
			w.discardConn(c)
			return
		}
		c.state.Store(int32(StateReady))
		w.ready.push(c)
		w.signal()
		w.rt.wakeOther(w.id)
		return
	}
	c.state.Store(int32(StateIdle))
}

// activate runs the handler over the events present at dequeue time with
// exclusive connection ownership (§4.3 ordering semantics). Each event
// carries a completion token; synchronous replies are batched and
// resolved through the TX sequencer at activation end — by the executing
// worker, home or thief alike — while detached events resolve later
// through their Completion handles. Per-event contexts and the
// completion batch come from pools; a synchronous event's parse-buffer
// lease is released here, after its handler has returned.
func (w *Worker) activate(c *Conn) {
	w.active.Add(1)
	defer w.active.Add(-1)

	home := w.rt.workers[c.home]
	stolen := w != home

	// Take the whole queue, leaving the previously drained backing array
	// in its place: the two slices ping-pong between producer and
	// consumer, so steady-state activations allocate nothing. The EDF
	// cache resets with it — events arriving after this point set it
	// afresh under the same lock.
	c.pcbMu.Lock()
	evs := c.pcb
	c.pcb = c.pcbSpare[:0]
	c.pcbSpare = nil
	c.edfDeadline.Store(0)
	c.pcbMu.Unlock()

	cb := getComps()
	// One timestamp serves the whole batch: a handler's queue delay is
	// measured to activation start, and another clock read per event
	// would cost more than the rest of the dispatch bookkeeping.
	started := time.Now()
	startedNanos := started.UnixNano()
	w.inApp.Store(true)
	clockStale := false
	for _, ev := range evs {
		w.rt.events.Add(1)
		if stolen {
			w.rt.steals.Add(1)
		}
		x := ctxPool.Get().(*Ctx)
		x.worker, x.conn, x.stolen, x.ev = w, c, stolen, ev
		x.started = started
		x.detached, x.done, x.frames = false, false, nil
		if ev.deadline != 0 && clockStale {
			// A handler already ran in this batch, so the batch-start
			// clock may be arbitrarily stale — a µs budget pipelined
			// behind a ms handler on the same connection must still
			// expire. One extra clock read per budgeted event that
			// follows real work is the price of honoring the budget.
			startedNanos = time.Now().UnixNano()
			clockStale = false
		}
		if ev.deadline != 0 && ev.deadline <= startedNanos {
			// Expired on arrival: the client has already given up on this
			// reply, so running the handler would burn service time on
			// dead work while live requests queue behind it. Complete
			// with StatusDeadlineExceeded without dispatching (one-way
			// events simply advance the sequencer).
			_ = x.Error(proto.StatusDeadlineExceeded, "deadline budget exhausted before dispatch")
			w.rt.expired.Add(1)
			if f := w.rt.cfg.OnExpired; f != nil {
				f(ev.msg.Method)
			}
		} else {
			w.rt.handler.Serve(x, c, ev.msg)
			clockStale = true
		}
		x.mu.Lock()
		if x.detached {
			// The Completion handle owns this token (and the Ctx) now; it
			// resolves straight through the TX sequencer whenever the
			// application completes it, releasing the payload lease then.
			x.mu.Unlock()
			continue
		}
		if !x.done {
			// A handler that never replied is a one-way event; count its
			// completion here (replied events were counted in complete).
			x.done = true
			w.rt.completedN.Add(1)
		}
		frames := x.frames
		x.frames = nil
		x.mu.Unlock()
		cb.s = append(cb.s, completion{seq: ev.seq, frames: frames})
		// The reply is encoded and the handler has returned: the event's
		// view into the parse buffer ends here.
		x.ev.msg.Release()
		x.worker, x.conn = nil, nil
		x.ev = event{}
		ctxPool.Put(x)
	}
	w.inApp.Store(false)

	// Hand the drained backing array back for the producer to refill.
	for i := range evs {
		evs[i] = event{}
	}
	c.pcbMu.Lock()
	if c.pcbSpare == nil {
		c.pcbSpare = evs[:0]
	}
	c.pcbMu.Unlock()

	if !stolen {
		// Home execution: eager TX on the home core, then the state
		// transition under our own kernel lock. If a proxier holds it,
		// ship a bare fin through the remote stack instead of blocking —
		// the lock holder (or our next loop iteration) resolves it.
		c.completeBatch(cb.s)
		putComps(cb)
		if w.kernelMu.TryLock() {
			w.finalizeLocked(c)
			w.kernelMu.Unlock()
		} else {
			shipRemote(w, c)
		}
		return
	}

	// Stolen execution. The paper ships the whole remote batched syscall
	// home because a stolen core cannot touch the home core's NIC TX
	// queue without coherence traffic (§4.2 step b); our TX sequencer
	// has no such ownership — txMu orders concurrent resolvers and
	// tokens fix the transmit order — so the thief transmits eagerly
	// right here, shaving a kernel-step round trip off every stolen
	// reply. Only the PCB state-machine advance still ships home: the
	// Busy→{Ready,Idle} transition and any re-queue must happen under
	// the home's kernel lock (the ready ring's single-producer side).
	c.completeBatch(cb.s)
	putComps(cb)
	shipRemote(home, c)
	if !w.rt.cfg.DisableProxy {
		w.rt.tryProxy(home)
	}
	// The runtime may have closed while we were executing, after the home
	// worker's final drain — in which case we just published into a dead
	// stack and must drain it ourselves.
	home.selfDrainIfClosed()
}

// stealWork is the idle loop (§5): scan other workers' depth counters —
// plain atomic loads, no locks — steal a batch from the first victim
// with queued connections, else proxy a stuck worker: harvest its socket
// set and run its kernel step over undrained ingress or unflushed remote
// completions, in randomized victim order.
//
// The scan runs under the Runtime.spinning announcement, which throttles
// publishers' demand wakes while this worker is already looking. The
// announcement is strictly scoped to the scan itself: it drops (with a
// compensating wake — the wakep handoff) before any stolen handler or
// proxied kernel step runs, so a thief busy in application code never
// suppresses wakes for work it is not going to find.
func (w *Worker) stealWork() bool {
	watchdog := w.watchdogPass
	w.watchdogPass = false
	w.rt.spinning.Add(1)
	w.order = w.rt.stealOrder(w.rng, w.id, w.order)
	for _, v := range w.order {
		victim := w.rt.workers[v]
		if victim.ready.Len() == 0 {
			continue
		}
		// Bracket the steal with the active counter before the batch
		// leaves the victim's ring: connections held in the local buffer
		// are invisible to every depth counter, and quiescence (Flush)
		// must not be observable while they are in transit.
		w.active.Add(1)
		n := victim.ready.stealBatch(w.stolen[:])
		if n == 0 {
			w.active.Add(-1)
			continue
		}
		w.doneSpinning()
		// EDF within the batch: execute the earliest-deadline connection
		// first. The batch left the victim's ring in FIFO order, but a
		// steal is exactly the moment a backlog exists — the moment
		// deadline order matters most.
		if n > 1 {
			min := 0
			for i := 1; i < n; i++ {
				if w.stolen[i].edfKey() < w.stolen[min].edfKey() {
					min = i
				}
			}
			w.stolen[0], w.stolen[min] = w.stolen[min], w.stolen[0]
		}
		// Re-publish everything beyond the first in our own ready ring
		// (Go's steal-half-into-own-runq pattern): the batch amortizes
		// the victim's head CAS, but connections pinned in this worker's
		// local buffer would be unreachable if the first activation
		// blocks — a stalled handler or a peer exerting egress
		// backpressure must not add its stall to unrelated stolen
		// connections. In our own ring they stay visible to the home
		// loop, to other thieves, and to quiescence accounting. Our
		// kernelMu guards our ring's producer side; if a proxier holds
		// it, fall back to executing the batch serially. The surplus is
		// pushed in EDF order too, so our ring's FIFO pop preserves it.
		if n > 1 && w.kernelMu.TryLock() {
			for i := 2; i < n; i++ {
				c := w.stolen[i]
				k := c.edfKey()
				j := i
				for j > 1 && w.stolen[j-1].edfKey() > k {
					w.stolen[j] = w.stolen[j-1]
					j--
				}
				w.stolen[j] = c
			}
			for i := 1; i < n; i++ {
				w.stolen[i].state.Store(int32(StateReady))
				w.ready.push(w.stolen[i])
				w.stolen[i] = nil
			}
			w.kernelMu.Unlock()
			w.rt.wakeOther(w.id)
			n = 1
		}
		for i := 0; i < n; i++ {
			w.activate(w.stolen[i])
			w.stolen[i] = nil
		}
		w.active.Add(-1)
		return true
	}
	if !w.rt.cfg.DisableProxy {
		for _, v := range w.order {
			victim := w.rt.workers[v]
			// A victim stuck in application code cannot poll its sockets:
			// harvest them for it, so the bytes become ingress segments the
			// proxied kernel step below can parse. On a watchdog pass every
			// victim is polled — one wedged outside application code (blocked
			// on a stalled peer's egress backpressure) has no flag to show it.
			if victim.inApp.Load() || watchdog {
				w.pollSockets(v, false)
			}
			if victim.ingress.Len() == 0 && !victim.remote.nonEmpty() {
				continue
			}
			// Retract the announcement before the victim's kernel step
			// runs: the step publishes ready connections whose demand
			// wakes must not be suppressed by our own scan gate.
			w.doneSpinning()
			if w.rt.tryProxy(victim) {
				return true
			}
			// Lost the TryLock race (the victim, or another worker, is
			// mid-step there); re-announce and keep scanning.
			w.rt.spinning.Add(1)
		}
	}
	w.rt.spinning.Add(-1)
	return false
}

// doneSpinning retracts this worker's scan announcement because it found
// work to run, and issues a compensating wake: anything published while
// the announcement suppressed demand wakes — including leftovers of the
// batch just stolen — is handed to another parked worker instead of
// waiting out its watchdog. (wakeOther re-checks the gate, so if another
// scanner is still out there the wake is skipped and they inherit the
// obligation.)
func (w *Worker) doneSpinning() {
	w.rt.spinning.Add(-1)
	w.rt.wakeOther(w.id)
}

// pushIngress queues a raw segment, blocking while the ring is full
// (transport backpressure). It fails once the runtime closes. Ownership
// of the segment's buffer passes to the runtime either way: on error it
// is returned to the pool here.
func (w *Worker) pushIngress(sg segment) error {
	if err := w.ingress.push(w, sg.conn, sg.data); err != nil {
		w.rt.putSegment(sg.data)
		return err
	}
	w.signal()
	if w.inApp.Load() {
		// The home core is busy in application code; wake a parked worker
		// so an idle one can steal or proxy promptly.
		w.rt.wakeOther(w.id)
	}
	// If close raced the publish, the worker's final drain may have run
	// before our segment landed; drain it ourselves rather than strand
	// the buffer.
	w.selfDrainIfClosed()
	return nil
}

// signal wakes the worker if it is parked; it never blocks. Wakes are
// counted only when a parked worker was actually woken.
func (w *Worker) signal() {
	if w.ec.notify() {
		w.rt.wakes.Add(1)
	}
}

// maxParkBackoff caps the watchdog interval an idle worker backs off
// to; demand wakes carry all real work, so the watchdog only guards
// against protocol bugs and can be this lazy.
const maxParkBackoff = 10 * time.Millisecond

// park sleeps until a publisher's wake. The eventcount protocol makes
// the sleep race-free: prepare announces the waiter, the work recheck
// runs under that announcement, and every publisher makes its work
// visible in a depth counter before notifying — so either the recheck
// sees the work or the wait observes the generation change. With a
// transport Poller attached the sleep is the transport's Wait, which
// socket readiness ends as well. ParkInterval survives as a watchdog
// rescan bound, not the wake mechanism, and a watchdog fire that found
// nothing doubles the next interval (up to maxParkBackoff) so idle
// workers go quiet instead of polling.
func (w *Worker) park() {
	g := w.ec.prepare()
	if w.parkWorkVisible() || !w.rt.running.Load() {
		w.ec.cancel()
		return
	}
	if w.parkBackoff < w.rt.cfg.ParkInterval {
		w.parkBackoff = w.rt.cfg.ParkInterval
	}
	w.rt.parks.Add(1)
	w.watchdogPass = w.ec.sleep(g, w.parkBackoff)
	if w.watchdogPass {
		// Watchdog wake, not demand: nothing arrived while we slept, so
		// the next fruitless sleep may be longer. (parkBackoff resets in
		// the run loop the moment any work executes.)
		w.parkBackoff *= 2
		if limit := max(maxParkBackoff, w.rt.cfg.ParkInterval); w.parkBackoff > limit {
			w.parkBackoff = limit
		}
	}
}

// parkWorkVisible scans the depth counters a parked worker could act on:
// its own three queues, other workers' ready rings (stealable), and —
// when proxying is enabled — the undrained ingress/remote queues of
// workers stuck in application code.
func (w *Worker) parkWorkVisible() bool {
	if w.ingress.Len() > 0 || w.remote.nonEmpty() || w.ready.Len() > 0 {
		return true
	}
	if w.rt.cfg.DisableStealing {
		return false
	}
	for _, v := range w.rt.workers {
		if v == w {
			continue
		}
		if v.ready.Len() > 0 {
			return true
		}
		// Proxyable work keeps us awake only when the victim is stuck in
		// application code. A transient backlog on a healthy worker must
		// NOT count — it would busy-spin every idle worker against the
		// victim's own in-progress kernel step. A victim wedged outside
		// both app code and its kernel step (blocked on a stalled peer's
		// egress backpressure) is instead reached by the watchdog, whose
		// backed-off rescans run the depth-gated proxy scan within
		// maxParkBackoff.
		if !w.rt.cfg.DisableProxy && v.inApp.Load() &&
			(v.ingress.Len() > 0 || v.remote.nonEmpty()) {
			return true
		}
	}
	return false
}

// selfDrainIfClosed runs this worker's shutdown drain when the runtime
// has closed. It is the late-publisher handoff every post-close race
// resolves through: whichever goroutine observes the closed runtime
// after publishing (a transport reader's segment, a stolen activation's
// fin, a detached completion) drains the queues itself, so nothing is
// stranded behind a worker that already ran its final drain.
func (w *Worker) selfDrainIfClosed() {
	if w.rt.running.Load() {
		return
	}
	w.kernelMu.Lock()
	w.shutdownDrain()
	w.kernelMu.Unlock()
}

// shutdownDrain returns every queued resource once the runtime has
// closed: remote completions resolve (their replies are already
// encoded), undrained ingress segments go back to the segment pool
// unparsed, and ready connections' undelivered events release their
// parse-buffer leases. Caller holds kernelMu. It is idempotent and may
// be run by the exiting worker, by a late producer, or by a detached
// resolver — whoever observes the closed runtime last.
func (w *Worker) shutdownDrain() {
	w.drainRemote()
	for {
		sg, ok := w.ingress.pop()
		if !ok {
			break
		}
		if sg.data == nil {
			// CloseConn's parser-release pill; it owns no segment.
			sg.conn.parser.ReleaseBuffer()
			continue
		}
		w.rt.putSegment(sg.data)
	}
	// Unblock any producers still parked on the full ring; they will
	// observe the closed runtime and fail their push.
	w.ingress.notFull.notify()
	for {
		c := w.ready.popOne()
		if c == nil {
			break
		}
		w.discardConn(c)
	}
}

// discardConn drops a connection's undelivered events at shutdown,
// releasing their parse-buffer leases and settling the backlog
// accounting, and parks the state machine at Idle.
func (w *Worker) discardConn(c *Conn) {
	c.pcbMu.Lock()
	evs := c.pcb
	c.pcb = nil
	c.pcbMu.Unlock()
	for i := range evs {
		evs[i].msg.Release()
		evs[i] = event{}
		w.rt.completedN.Add(1)
	}
	c.state.Store(int32(StateIdle))
}

// quiescent reports whether this worker has no queued or in-flight work.
func (w *Worker) quiescent() bool {
	return w.ingress.Len() == 0 &&
		!w.remote.nonEmpty() &&
		w.ready.Len() == 0 &&
		w.active.Load() == 0
}
