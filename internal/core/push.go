package core

import (
	"runtime"
	"sync"
	"time"

	"zygos/internal/bufpool"
	"zygos/internal/proto"
)

// Push egress: server-initiated v4 PUSH frames ride a per-connection
// fair queue *behind* the batching reply writer. Each subscription owns
// a bounded ring of pre-encoded frames; publishers append without ever
// blocking (drop-oldest evicts, disconnect reaps), and an on-demand
// flusher goroutine drains the connection's subscriptions round-robin
// in bounded chunks, holding txMu only per chunk so RPC reply batches
// interleave freely. Before each chunk the flusher defers to the
// transport's egress backlog, so push traffic queues here — where it
// can be dropped per policy — instead of filling the transport's
// staging buffer ahead of RPC replies.

// Backpressure policies (mirroring pubsub wire values; duplicated here
// so core does not import pubsub).
const (
	// PushDropOldest evicts the oldest queued frame to admit a new one
	// when the subscription's ring is full, counting the drop.
	PushDropOldest uint8 = 0
	// PushDisconnect closes the subscriber's connection when its ring
	// overflows.
	PushDisconnect uint8 = 1
)

const (
	// defaultPushQueue is the per-subscription ring capacity (frames)
	// when the subscriber does not request one.
	defaultPushQueue = 256
	// maxPushQueue caps what a subscriber may request.
	maxPushQueue = 1 << 15
	// pushChunk bounds the bytes coalesced per flusher write — one txMu
	// hold transmits at most this much push traffic before RPC replies
	// get a turn at the lock.
	pushChunk = 32 << 10
	// pushWindow is the transport egress backlog above which the
	// flusher waits (without holding txMu) before writing more push
	// traffic: replies already staged drain first, and a stalled peer's
	// push frames pile up in the droppable rings rather than in
	// transport memory.
	pushWindow = 128 << 10
)

// EgressBacklogger is optionally implemented by ReplyWriters that can
// report how many bytes are staged but not yet on the wire. The push
// flusher uses it to keep push traffic from racing ahead of RPC replies
// into the transport buffer.
type EgressBacklogger interface {
	EgressBacklog() int
}

// PushSub is one live subscription's egress ring on a connection:
// bounded, never blocking the publisher, drained by the connection's
// push flusher in round-robin turns.
type PushSub struct {
	conn   *Conn
	id     uint32
	topic  uint16
	policy uint8

	mu     sync.Mutex
	q      [][]byte // pre-encoded v4 PUSH frames, ring over q[head:head+n]
	head   int
	n      int
	drops  uint64
	closed bool
}

// ID returns the subscription's wire identifier.
func (s *PushSub) ID() uint32 { return s.id }

// Topic returns the subscription's topic (the v4 method field).
func (s *PushSub) Topic() uint16 { return s.topic }

// Drops reports how many frames this subscription has evicted under the
// drop-oldest policy.
func (s *PushSub) Drops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops
}

// Queued reports how many frames are waiting in the ring.
func (s *PushSub) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Push encodes one published frame as a v4 PUSH and queues it for
// egress. It never blocks: a full ring either evicts its oldest frame
// (drop-oldest, counted) or reaps the connection (disconnect). Returns
// false if the frame was not queued (closed subscription, dropped
// frame under disconnect policy).
func (s *PushSub) Push(frameID uint32, payload []byte) bool {
	if len(payload) > proto.MaxPayload {
		// Unrepresentable in the v4 length field; count as a drop rather
		// than corrupt the stream.
		s.mu.Lock()
		s.drops++
		s.mu.Unlock()
		s.conn.rt.pushDropped.Add(1)
		return false
	}
	m := proto.Message{
		ID:      uint64(frameID),
		Ver:     4,
		Method:  s.topic,
		SubID:   s.id,
		Kind:    proto.KindPush,
		Payload: payload,
	}
	frame := proto.AppendMessage(bufpool.Get(proto.FrameSizeMsg(m)), m)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		bufpool.Put(frame)
		return false
	}
	disconnect := false
	if s.n == len(s.q) {
		if s.policy == PushDisconnect {
			s.closed = true
			disconnect = true
			bufpool.Put(frame)
		} else {
			// Evict the oldest queued frame to admit the new one.
			old := s.q[s.head]
			s.q[s.head] = nil
			s.head = (s.head + 1) % len(s.q)
			s.n--
			s.drops++
			bufpool.Put(old)
			s.conn.rt.pushDropped.Add(1)
		}
	}
	if !disconnect {
		s.q[(s.head+s.n)%len(s.q)] = frame
		s.n++
	}
	s.mu.Unlock()
	if disconnect {
		// The consumer cannot keep up and asked to be cut off rather
		// than be lossy. Reap outside the ring lock: CloseConn runs the
		// full teardown (flusher exit, queue release, bus cleanup hook).
		s.conn.rt.pushDropped.Add(1)
		if tc, ok := s.conn.wr.(TransportCloser); ok {
			tc.CloseTransport()
		}
		s.conn.rt.CloseConn(s.conn)
		return false
	}
	s.conn.rt.pushQueued.Add(1)
	s.conn.kickPushFlusher()
	return true
}

// teardown empties the ring and marks the subscription closed,
// returning its frames to the pool. Called with the conn's subMu held.
func (s *PushSub) teardown() {
	s.mu.Lock()
	s.closed = true
	for i := 0; i < s.n; i++ {
		idx := (s.head + i) % len(s.q)
		bufpool.Put(s.q[idx])
		s.q[idx] = nil
	}
	s.n = 0
	s.head = 0
	s.mu.Unlock()
}

// popInto moves up to budget bytes of queued frames into out, returning
// the extended buffer and whether the ring still has frames.
func (s *PushSub) popInto(out []byte, budget int) ([]byte, bool) {
	s.mu.Lock()
	for s.n > 0 {
		f := s.q[s.head]
		// Always move at least one frame per turn, even oversized ones;
		// otherwise a frame larger than the budget would wedge the ring.
		if len(out) > 0 && len(out)+len(f) > budget {
			break
		}
		out = append(out, f...)
		bufpool.Put(f)
		s.q[s.head] = nil
		s.head = (s.head + 1) % len(s.q)
		s.n--
		s.conn.rt.pushSent.Add(1)
		if len(out) >= budget {
			break
		}
	}
	more := s.n > 0
	s.mu.Unlock()
	return out, more
}

// Subscribe registers a push subscription on the connection. The id is
// chosen by the subscriber (it demultiplexes PUSH frames client-side)
// and must be unique per connection; a duplicate returns nil.
func (c *Conn) Subscribe(id uint32, topic uint16, policy uint8, qcap int) *PushSub {
	if qcap <= 0 {
		qcap = defaultPushQueue
	}
	if qcap > maxPushQueue {
		qcap = maxPushQueue
	}
	s := &PushSub{
		conn:   c,
		id:     id,
		topic:  topic,
		policy: policy,
		q:      make([][]byte, qcap),
	}
	c.subMu.Lock()
	if c.closed.Load() || c.subsDown {
		c.subMu.Unlock()
		return nil
	}
	if c.subs == nil {
		c.subs = make(map[uint32]*PushSub)
	}
	if _, dup := c.subs[id]; dup {
		c.subMu.Unlock()
		return nil
	}
	c.subs[id] = s
	c.subList = append(c.subList, s)
	c.subMu.Unlock()
	c.rt.subsLive.Add(1)
	return s
}

// Unsubscribe retires the subscription with the given id, discarding
// any queued frames. Returns the retired subscription, or nil if none
// matched.
func (c *Conn) Unsubscribe(id uint32) *PushSub {
	c.subMu.Lock()
	s := c.subs[id]
	if s == nil {
		c.subMu.Unlock()
		return nil
	}
	delete(c.subs, id)
	for i, o := range c.subList {
		if o == s {
			c.subList = append(c.subList[:i], c.subList[i+1:]...)
			break
		}
	}
	s.teardown()
	c.subMu.Unlock()
	c.rt.subsLive.Add(-1)
	return s
}

// Subscription returns the live subscription with the given id, if any.
func (c *Conn) Subscription(id uint32) *PushSub {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return c.subs[id]
}

// teardownPush retires every subscription and releases queued frames;
// called once from the connection close paths.
func (c *Conn) teardownPush() {
	c.subMu.Lock()
	if c.subsDown {
		c.subMu.Unlock()
		return
	}
	c.subsDown = true
	n := len(c.subList)
	for _, s := range c.subList {
		s.teardown()
	}
	c.subs = nil
	c.subList = nil
	c.subMu.Unlock()
	if n > 0 {
		c.rt.subsLive.Add(-int64(n))
	}
}

// kickPushFlusher starts the connection's push flusher if it is not
// already running: the classic CAS-guarded on-demand drainer — at most
// one flusher goroutine per connection, existing only while there is
// push traffic to move.
func (c *Conn) kickPushFlusher() {
	if c.pushFlushing.CompareAndSwap(false, true) {
		go c.pushFlushLoop()
	}
}

// hasQueuedPush reports whether any subscription ring holds frames.
func (c *Conn) hasQueuedPush() bool {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	for _, s := range c.subList {
		s.mu.Lock()
		n := s.n
		s.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// gatherPushChunk coalesces up to pushChunk bytes of queued frames into
// a pooled buffer, taking from the connection's subscriptions in
// round-robin order so one firehose topic cannot monopolize the egress
// quota. Returns nil when every ring is empty.
func (c *Conn) gatherPushChunk() []byte {
	c.subMu.Lock()
	if len(c.subList) == 0 {
		c.subMu.Unlock()
		return nil
	}
	var out []byte
	n := len(c.subList)
	start := c.subRR % n
	for i := 0; i < n && len(out) < pushChunk; i++ {
		s := c.subList[(start+i)%n]
		if out == nil {
			out = bufpool.Get(pushChunk)[:0]
		}
		var more bool
		out, more = s.popInto(out, pushChunk)
		if len(out) >= pushChunk {
			// This subscription used up the chunk; the next one starts
			// after it unless it still has traffic (then it keeps its
			// turn position — round-robin advances by whole rings).
			_ = more
			c.subRR = (start + i + 1) % n
			break
		}
		c.subRR = (start + i + 1) % n
	}
	c.subMu.Unlock()
	if len(out) == 0 {
		if out != nil {
			bufpool.Put(out)
		}
		return nil
	}
	return out
}

// pushFlushLoop drains queued push frames until every ring is empty,
// then exits; kickPushFlusher restarts it on the next enqueue. Each
// iteration writes at most pushChunk bytes under txMu — RPC reply
// batches from completeBatch interleave between chunks — and defers to
// the transport's staged backlog before taking the lock, so push bytes
// wait in their droppable rings instead of ahead of replies in
// transport memory.
func (c *Conn) pushFlushLoop() {
	for {
		if c.closed.Load() || !c.rt.running.Load() {
			c.pushFlushing.Store(false)
			return
		}
		chunk := c.gatherPushChunk()
		if chunk == nil {
			c.pushFlushing.Store(false)
			// Recheck–re-CAS: an enqueue that raced the empty gather saw
			// flushing still true and skipped its kick; claim the flag
			// back if so.
			if !c.hasQueuedPush() || !c.pushFlushing.CompareAndSwap(false, true) {
				return
			}
			continue
		}
		// Fair-queuing gate: let staged RPC replies drain below the push
		// window before adding push bytes behind them. Waiting here holds
		// no locks — publishers keep appending (or dropping) and
		// completeBatch keeps transmitting.
		if bl, ok := c.wr.(EgressBacklogger); ok {
			for bl.EgressBacklog() > pushWindow {
				if c.closed.Load() || !c.rt.running.Load() {
					bufpool.Put(chunk)
					c.pushFlushing.Store(false)
					return
				}
				time.Sleep(20 * time.Microsecond)
				runtime.Gosched()
			}
		}
		c.txMu.Lock()
		if !c.closed.Load() {
			_ = c.wr.WriteReply(chunk)
		}
		c.txMu.Unlock()
		bufpool.Put(chunk)
	}
}
