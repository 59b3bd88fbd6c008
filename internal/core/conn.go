package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"zygos/internal/bufpool"
	"zygos/internal/proto"
)

// ErrCompleted is returned by Ctx and Completion reply methods when the
// event's reply has already been produced.
var ErrCompleted = errors.New("core: reply already completed")

// ConnState is the Figure 5 connection state machine.
type ConnState int32

// Connection states. A connection is present in its home worker's shuffle
// queue exactly once when StateReady, and never otherwise.
const (
	StateIdle  ConnState = iota // no pending events, not being processed
	StateReady                  // pending events, awaiting an executor
	StateBusy                   // exclusively owned by an executing worker
)

// String implements fmt.Stringer.
func (s ConnState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateReady:
		return "ready"
	case StateBusy:
		return "busy"
	}
	return "invalid"
}

// ReplyWriter is where a connection's framed replies are written. Writes
// are serialized by the connection's TX sequencer, so implementations
// need not be concurrency-safe against the runtime's own calls, only
// against Close. The frame slice is a reused batch buffer valid only for
// the duration of the call: implementations that cannot transmit
// synchronously must copy it before returning.
type ReplyWriter interface {
	WriteReply(frame []byte) error
}

// TransportCloser is optionally implemented by ReplyWriters that can
// tear down their underlying transport. The runtime invokes it when a
// malformed stream poisons the connection, so a hostile or broken peer
// is disconnected instead of silently ignored.
type TransportCloser interface {
	CloseTransport()
}

// event is one parsed request together with its completion token: the
// per-connection sequence number that fixes its reply's transmit order,
// and the arrival timestamp middleware uses for queue-delay accounting.
type event struct {
	msg proto.Message
	seq uint64
	at  time.Time
	// deadline is the event's absolute deadline in unixNanos form (zero =
	// none), derived at parse time from the frame's FlagDeadline budget:
	// arrival + budget. The scheduler orders ready connections by it
	// (earliest first) and sheds events already past it at dispatch.
	deadline int64
}

// completion is one resolved token: the frames to transmit when seq's
// turn comes. Nil frames advance the sequencer without transmitting
// (one-way requests and handlers that never reply).
type completion struct {
	seq    uint64
	frames []byte
}

// Conn is the runtime's view of one client connection: the protocol
// control block of the paper, holding the parser, the per-connection event
// queue, the state machine, and the reply sequencer.
type Conn struct {
	id   uint64
	home int
	rt   *Runtime
	wr   ReplyWriter

	closed atomic.Bool

	// sawV3 latches once the peer has sent a v3 frame, proving it parses
	// v3 headers: only such peers may be sent piggybacked health frames
	// (a v1/v2-only peer would choke on the Magic3 header).
	sawV3 atomic.Bool

	// parser is touched only under the home worker's kernel lock.
	parser proto.Parser

	// pcb is the per-connection event queue (single producer: the home
	// kernel step; single consumer: the owning activation), guarded by
	// pcbMu exactly like the paper's per-PCB spinlock. seqAlloc assigns
	// completion tokens in parse order under the same lock. pcbSpare is
	// the drained slice of the previous activation, swapped back in so
	// the queue's backing array is reused instead of reallocated.
	pcbMu    sync.Mutex
	pcb      []event
	pcbSpare []event
	seqAlloc uint64

	// edfDeadline caches the earliest absolute deadline (unixNanos) among
	// the connection's queued events — zero when none carries one (zero
	// sorts last: "no deadline" is the most patient class). Written under
	// pcbMu alongside the queue; read lock-free by the scheduler to order
	// ready connections earliest-deadline-first. It is advisory (a stale
	// read only costs ordering quality, never correctness), so the
	// relaxed read is safe.
	edfDeadline atomic.Int64

	// state is the Figure 5 state machine, stored atomically. Every
	// transition to Ready accompanies a ready-ring push and runs under
	// that ring's kernel lock (the home worker's for parse/finalize, a
	// thief's own for re-published steal-batch surplus); the Ready→Busy
	// transition is owned by whichever consumer won the ring's head CAS,
	// and Busy connections are owned exclusively by their executor. That
	// split is what lets reads — and the steal path — skip locks
	// entirely.
	state atomic.Int32

	// The TX sequencer: replies may complete out of order (stolen
	// activations, detached handlers), but are transmitted strictly in
	// token order. txWait holds completed-but-blocked reply frames;
	// txNext is the next token allowed on the wire. Writes to wr happen
	// under txMu, which serializes and orders them. txBuf is the reused
	// per-connection egress scratch all in-order frames coalesce into.
	txMu   sync.Mutex
	txNext uint64
	txWait map[uint64][]byte
	txBuf  []byte

	// Push-subscription state (see push.go): the subscription table,
	// the round-robin cursor the flusher fair-queues with, and the
	// CAS-guarded on-demand flusher flag. subsDown latches once
	// teardownPush has run so late Subscribe calls can't resurrect
	// state on a closing connection.
	subMu        sync.Mutex
	subs         map[uint32]*PushSub
	subList      []*PushSub
	subRR        int
	subsDown     bool
	pushFlushing atomic.Bool
}

// ID returns the connection identifier.
func (c *Conn) ID() uint64 { return c.id }

// Home returns the index of the connection's home worker (its RSS queue).
func (c *Conn) Home() int { return c.home }

// Closed reports whether the connection has been closed.
func (c *Conn) Closed() bool { return c.closed.Load() }

// pending reports the current event-queue depth.
func (c *Conn) pending() int {
	c.pcbMu.Lock()
	defer c.pcbMu.Unlock()
	return len(c.pcb)
}

// edfKey is the connection's scheduling key for earliest-deadline-first
// ordering: its cached earliest deadline, with "no deadline" mapped to
// the far future so deadline-free traffic yields to deadline-carrying
// traffic but keeps FIFO order among itself.
func (c *Conn) edfKey() int64 {
	if d := c.edfDeadline.Load(); d != 0 {
		return d
	}
	return 1<<63 - 1
}

// State returns the connection's current scheduling state (an atomic
// snapshot; transitions are ordered by the home worker's kernel lock and
// the ready ring's head CAS).
func (c *Conn) State() ConnState {
	return ConnState(c.state.Load())
}

// maxTxRetain bounds the egress scratch a connection keeps between
// flushes; a burst that grew it larger returns it to the shared pool.
const maxTxRetain = 64 << 10

// completeBatch resolves a batch of completion tokens and transmits every
// reply the sequencer now allows, coalesced into a single frame batch in
// token order. It is safe to call from any goroutine; txMu orders
// concurrent resolvers. Frame buffers are returned to the pool once
// their bytes are in the batch.
func (c *Conn) completeBatch(comps []completion) {
	if len(comps) == 0 {
		return
	}
	c.txMu.Lock()
	defer c.txMu.Unlock()
	if c.txBuf == nil {
		c.txBuf = bufpool.Get(256)
	}
	out := c.txBuf[:0]
	// Fast path: with nothing parked out of order, a batch whose tokens
	// are exactly the next expected sequence numbers (the overwhelmingly
	// common case — synchronous activations complete in event order)
	// coalesces straight into the egress batch without touching the map.
	i := 0
	if len(c.txWait) == 0 {
		for ; i < len(comps) && comps[i].seq == c.txNext; i++ {
			c.txNext++
			if f := comps[i].frames; f != nil {
				out = append(out, f...)
				bufpool.Put(f)
			}
		}
	}
	for _, e := range comps[i:] {
		c.txWait[e.seq] = e.frames
	}
	for len(c.txWait) > 0 {
		f, ok := c.txWait[c.txNext]
		if !ok {
			break
		}
		delete(c.txWait, c.txNext)
		c.txNext++
		if f != nil {
			out = append(out, f...)
			bufpool.Put(f)
		}
	}
	closed := c.closed.Load()
	if len(out) > 0 && !closed {
		if c.rt.cfg.DepthFrames && c.sawV3.Load() {
			// Piggyback the runtime's current scheduling depth on the
			// tail of the batch — one fixed 20-byte frame per flush, read
			// from atomic counters, so a tail-aware balancer on the other
			// end routes on live queue depth without a polling RPC.
			out = proto.AppendHealthFrame(out, c.rt.Depths().Load())
		}
		_ = c.wr.WriteReply(out) // teardown races are benign
	}
	if cap(out) <= maxTxRetain && !closed && c.rt.running.Load() {
		c.txBuf = out[:0]
	} else {
		// Oversized burst, closed connection, or closing runtime: no
		// point retaining per-connection scratch any longer.
		bufpool.Put(out)
		c.txBuf = nil
	}
}

// ShrinkIdle releases the connection's retained TX scratch back to the
// shared pool. Transports call it for connections quiet past an idle
// threshold, so a million parked connections pin no per-connection
// egress memory; the next burst simply re-leases from the pool.
func (c *Conn) ShrinkIdle() {
	c.txMu.Lock()
	if c.txBuf != nil {
		bufpool.Put(c.txBuf)
		c.txBuf = nil
	}
	c.txMu.Unlock()
}

// poison marks the connection's stream malformed: no further ingress is
// accepted and, when the transport supports it, the underlying connection
// is closed so the peer sees the rejection instead of a stall. Events
// already queued still drain.
func (c *Conn) poison() {
	if c.closed.CompareAndSwap(false, true) {
		if tc, ok := c.wr.(TransportCloser); ok {
			tc.CloseTransport()
		}
		// Return the retained TX scratch: the last completeBatch ran
		// before closed was set and kept it for reuse. A batch racing
		// this release re-leases and then frees it itself on seeing
		// closed, so the buffer goes home on every interleaving.
		c.ShrinkIdle()
		c.teardownPush()
		if f := c.rt.cfg.OnConnClosed; f != nil {
			f(c.id)
		}
	}
}

// Ctx is the per-event context handed to the Handler: the completion
// token's reply side. Exactly one reply is produced per event — through
// Reply or Error, synchronously or after Detach — and the runtime
// transmits it in event order through the connection's TX sequencer,
// regardless of which worker or goroutine completes it.
type Ctx struct {
	worker  *Worker
	conn    *Conn
	stolen  bool
	ev      event
	started time.Time // activation start, shared by the batch

	// mu guards the completion state: a detached event may be completed
	// from any goroutine, concurrently with the activation loop.
	mu       sync.Mutex
	detached bool
	done     bool
	frames   []byte // stashed sync reply, consumed by the activation loop
}

// Reply completes the event with a successful (StatusOK) reply carrying
// payload. It returns ErrCompleted if a reply was already produced.
func (x *Ctx) Reply(payload []byte) error {
	return x.complete(proto.StatusOK, payload)
}

// Error completes the event with a wire-level error status; msg travels
// as the reply payload. A code of StatusOK is coerced to StatusAppError
// so an error reply is always distinguishable from success. For peers
// still speaking the v1 framing the status byte cannot travel; they see
// a v1 reply whose payload is msg.
func (x *Ctx) Error(code uint8, msg string) error {
	if code == proto.StatusOK {
		code = proto.StatusAppError
	}
	return x.complete(code, []byte(msg))
}

// Detach releases the event from its activation: the handler may return
// immediately — freeing the worker to run or steal other events — and the
// returned Completion completes the reply later, from any goroutine. The
// reply is still delivered in request order through the connection's TX
// sequencer. Detach must be called from within the handler invocation;
// calling it after the reply was produced yields a Completion whose
// methods return ErrCompleted.
func (x *Ctx) Detach() *Completion {
	x.mu.Lock()
	if x.done && !x.detached {
		// Too late to detach: the reply exists and the activation loop
		// will recycle this Ctx, so the handle must not reference it.
		x.mu.Unlock()
		return &completedHandle
	}
	if !x.detached {
		x.detached = true
		x.worker.rt.detachedN.Add(1)
		x.worker.rt.detachTotal.Add(1)
	}
	x.mu.Unlock()
	return &Completion{x: x}
}

// completedHandle is the shared dead Completion returned when Detach is
// called after the reply was already produced.
var completedHandle = Completion{}

// Detached reports whether the event has been detached from its
// activation. The server glue uses it to decide whether per-request
// state may be recycled when the handler returns.
func (x *Ctx) Detached() bool {
	x.mu.Lock()
	d := x.detached
	x.mu.Unlock()
	return d
}

// Worker returns the index of the worker executing this activation; useful
// for per-core sharding inside applications.
func (x *Ctx) Worker() int { return x.worker.id }

// Stolen reports whether this activation runs on a non-home worker.
func (x *Ctx) Stolen() bool { return x.stolen }

// ArrivedAt returns when the event was parsed off the wire on the home
// core — the timestamp queue-delay middleware measures from.
func (x *Ctx) ArrivedAt() time.Time { return x.ev.at }

// QueueDelay returns how long the event waited between arrival and the
// start of its activation — the paper's scheduling-delay metric. The
// activation timestamp is taken once per batch, so reading it here costs
// no clock call; events pipelined behind earlier ones in the same batch
// report the shared batch start, deliberately excluding predecessors'
// handler time (service order, not scheduling — end-to-end latency
// middleware captures it).
func (x *Ctx) QueueDelay() time.Duration { return x.started.Sub(x.ev.at) }

// Seq returns the event's completion token: its per-connection sequence
// number, which is also its guaranteed reply position.
func (x *Ctx) Seq() uint64 { return x.ev.seq }

// Deadline returns the event's absolute deadline — derived at parse
// time from the frame's deadline budget — and whether one was carried.
func (x *Ctx) Deadline() (time.Time, bool) {
	if x.ev.deadline == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, x.ev.deadline), true
}

// complete produces the event's reply exactly once and routes it to the
// TX sequencer: synchronous completions are stashed for the activation
// loop to batch, detached completions resolve inline through the
// sequencer from whatever goroutine completed them.
// The reply frame is encoded into a pooled buffer that the TX sequencer
// returns to the pool after coalescing it into the egress batch.
func (x *Ctx) complete(status uint8, payload []byte) error {
	x.mu.Lock()
	if x.done {
		x.mu.Unlock()
		return ErrCompleted
	}
	x.done = true
	// The event's reply exists from this moment; count it out of the
	// admission backlog per event, not per activation batch, so a long
	// pipelined activation releases depth as it progresses.
	x.worker.rt.completedN.Add(1)
	detached := x.detached
	var frames []byte
	if x.ev.msg.Flags&proto.FlagOneWay == 0 {
		// A reply that cannot be represented in the frame's length field
		// would corrupt the whole connection; degrade it to a wire error
		// the client can at least diagnose.
		if len(payload) > proto.MaxPayload {
			status = proto.StatusInternal
			payload = []byte(proto.ErrPayloadTooLarge.Error())
		}
		// The reply mirrors the request's frame version and echoes its
		// method, so a client can attribute replies per operation without
		// tracking IDs. v4 control frames (SUBSCRIBE/UNSUBSCRIBE) get
		// their kind and subscription ID echoed the same way.
		reply := proto.Message{
			ID:      x.ev.msg.ID,
			Payload: payload,
			Status:  status,
			Method:  x.ev.msg.Method,
			Ver:     x.ev.msg.Ver,
			Kind:    x.ev.msg.Kind,
			SubID:   x.ev.msg.SubID,
		}
		frames = proto.AppendMessage(bufpool.Get(proto.FrameSizeMsg(reply)), reply)
	}
	if !detached {
		x.frames = frames
		x.mu.Unlock()
		return nil
	}
	// The frame is encoded (the request payload has been copied into it),
	// so the detached event's hold on the parse buffer can end here. The
	// activation loop releases synchronous events itself: their payload
	// stays valid for the whole handler invocation.
	x.ev.msg.Release()
	x.mu.Unlock()
	x.resolveDetached(frames)
	return nil
}

// resolveDetached resolves a detached completion token directly through
// the connection's TX sequencer. No trip through the scheduler is
// needed: txMu orders concurrent resolvers and the token fixes the
// transmit position, the connection's state machine advanced when its
// activation ended, and if the transport exerts backpressure it blocks
// this resolver goroutine — the producer of the reply — rather than a
// scheduler worker. detachedN (which Flush waits on) drops only after
// the reply is on its way.
func (x *Ctx) resolveDetached(frames []byte) {
	rt := x.worker.rt
	c := x.conn
	cb := getComps()
	cb.s = append(cb.s, completion{seq: x.ev.seq, frames: frames})
	c.completeBatch(cb.s)
	putComps(cb)
	rt.detachedN.Add(-1)
}

// Completion is a detached event's reply handle. It is safe to use from
// any goroutine; exactly one Reply or Error wins, later calls return
// ErrCompleted. A handle with no context (Detach after the reply was
// already produced) always returns ErrCompleted.
type Completion struct {
	x *Ctx
}

// Reply completes the detached event with a successful reply.
func (co *Completion) Reply(payload []byte) error {
	if co.x == nil {
		return ErrCompleted
	}
	return co.x.Reply(payload)
}

// Error completes the detached event with a wire-level error status.
func (co *Completion) Error(code uint8, msg string) error {
	if co.x == nil {
		return ErrCompleted
	}
	return co.x.Error(code, msg)
}
