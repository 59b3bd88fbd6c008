package proto

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrDispatcherClosed is delivered to callbacks still pending when a
// Dispatcher shuts down.
var ErrDispatcherClosed = errors.New("proto: dispatcher closed")

// Dispatcher matches response messages to outstanding requests by ID. It
// is the client-side counterpart of the runtime: transports feed it raw
// response bytes and it invokes the callback registered for each ID,
// converting non-OK wire statuses into *StatusError so both client
// types surface typed errors identically.
//
// The resp slice passed to a callback is a view into the dispatcher's
// pooled parse buffer and is valid only for the duration of the
// callback; callbacks that retain it must copy. It is safe for
// concurrent use.
type Dispatcher struct {
	// feedMu serializes Feed (and with it the parser and the ready
	// scratch), so callbacks run without holding mu and the scratch list
	// is reused without allocation.
	feedMu sync.Mutex
	parser Parser
	ready  []readyReply

	mu      sync.Mutex
	pending map[uint64]func(resp []byte, err error)
	nextID  uint64
	closed  bool

	// push maps subscription IDs to handlers for server-initiated v4
	// PUSH frames, which carry no request ID and demultiplex by SubID
	// alongside the reply pending map.
	push map[uint32]func(frameID uint32, payload []byte)

	// depthFn, when set, receives the queue depth carried by piggybacked
	// health frames (reserved MethodHealth, request ID 0) the server
	// appends to its reply batches. Without a hook the frames are
	// dropped like any other unknown-ID reply. Stored atomically so Feed
	// reads it without taking the registry lock.
	depthFn atomic.Pointer[func(depth uint32)]
}

// readyReply is one decoded response matched to its callback, staged so
// the callback can run outside the registry lock. Exactly one of cb and
// pushCB is set: replies resolve pending requests, pushes invoke the
// subscription handler.
type readyReply struct {
	cb     func(resp []byte, err error)
	pushCB func(frameID uint32, payload []byte)
	m      Message
}

// NewDispatcher returns an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{pending: make(map[uint64]func(resp []byte, err error))}
}

// Register allocates a request ID and installs cb to receive its
// response payload. cb is invoked exactly once: with the response (or a
// *StatusError for non-OK wire statuses), or with an error if the
// dispatcher closes first. The resp slice is valid only during the
// callback.
func (d *Dispatcher) Register(cb func(resp []byte, err error)) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrDispatcherClosed
	}
	return d.registerLocked(cb), nil
}

func (d *Dispatcher) registerLocked(cb func(resp []byte, err error)) uint64 {
	d.nextID++
	d.pending[d.nextID] = cb
	return d.nextID
}

// Issue is the single Call-to-Message mapping every transport sends
// through. It refuses a payload no frame can carry, picks the frame
// version — v4 for subscription control, v2 for legacy calls, v3
// otherwise — stamps the wire budget, and registers the reply callback
// (and, for a SUBSCRIBE, the push handler; for an UNSUBSCRIBE it drops
// it). The transport encodes and writes the returned message; if the
// write fails it reports through Fail.
func (d *Dispatcher) Issue(c Call) (Message, error) {
	if len(c.Payload) > MaxPayload {
		return Message{}, ErrPayloadTooLarge
	}
	m := Message{Method: c.Method, Payload: c.Payload, Budget: BudgetMicros(c.Budget)}
	switch {
	case c.Kind != 0:
		m.Ver, m.Kind, m.SubID = 4, c.Kind, c.SubID
	case c.Legacy:
		m.Method, m.Ver = 0, 2
	default:
		m.Ver = 3
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return Message{}, ErrDispatcherClosed
	}
	if c.OneWay {
		d.mu.Unlock()
		m.Flags = FlagOneWay
		return m, nil
	}
	switch c.Kind {
	case KindSubscribe:
		if d.push == nil {
			d.push = make(map[uint32]func(frameID uint32, payload []byte))
		}
		d.push[c.SubID] = c.Push
		// A refused subscription must not keep its handler installed.
		done, sub := c.Done, c.SubID
		c.Done = func(resp []byte, err error) {
			if err != nil {
				d.dropPush(sub)
			}
			done(resp, err)
		}
	case KindUnsubscribe:
		delete(d.push, c.SubID)
	}
	m.ID = d.registerLocked(c.Done)
	d.mu.Unlock()
	return m, nil
}

// Fail withdraws a message Issue registered but the transport could not
// send, and returns err for Do to report — or nil when the dispatcher
// has already handed the call's callback its outcome (it closed under
// the failed send), so every failure reaches the caller exactly once.
func (d *Dispatcher) Fail(m Message, err error) error {
	if m.Flags&FlagOneWay != 0 {
		return err
	}
	d.mu.Lock()
	_, pending := d.pending[m.ID]
	delete(d.pending, m.ID)
	if m.Kind == KindSubscribe {
		delete(d.push, m.SubID)
	}
	d.mu.Unlock()
	if !pending {
		return nil
	}
	return err
}

// dropPush removes the handler for subscription id. Pushes already
// staged in a concurrent Feed may still be delivered once.
func (d *Dispatcher) dropPush(id uint32) {
	d.mu.Lock()
	delete(d.push, id)
	d.mu.Unlock()
}

// SetDepthFunc installs f to receive the server's queue depth from
// piggybacked health frames (one call per Feed that saw at least one,
// with the newest depth). Passing nil uninstalls. Safe to call
// concurrently with Feed; f must be cheap and must not call back into
// the dispatcher.
func (d *Dispatcher) SetDepthFunc(f func(depth uint32)) {
	if f == nil {
		d.depthFn.Store(nil)
		return
	}
	d.depthFn.Store(&f)
}

// Feed parses raw response bytes and dispatches completed messages.
// Responses with unknown IDs are dropped (late replies after timeout).
// After Close, Feed discards its input without touching the parser, so
// a straggling reply can never re-lease a pooled parse block that
// ReleaseParser already returned.
func (d *Dispatcher) Feed(data []byte) error {
	d.feedMu.Lock()
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		d.feedMu.Unlock()
		return nil
	}
	d.parser.Feed(data)
	ready := d.ready[:0]
	var err error
	var depth uint32
	sawDepth := false
	d.mu.Lock()
	for {
		m, ok, perr := d.parser.Next()
		if perr != nil {
			err = perr
			break
		}
		if !ok {
			break
		}
		if m.Ver == 3 && m.Method == MethodHealth && m.ID == 0 {
			// Piggybacked health frame: not a reply, never registered.
			// Keep only the newest depth in this batch.
			if dv, hok := DecodeHealthPayload(m.Payload); hok {
				depth, sawDepth = dv, true
			}
			m.Release()
			continue
		}
		if m.Ver == 4 && m.Kind == KindPush {
			// Server-initiated push: demultiplex by subscription ID, not
			// request ID (the v4 ID field carries the published frame's
			// identifier instead).
			if h, found := d.push[m.SubID]; found {
				ready = append(ready, readyReply{pushCB: h, m: m})
			} else {
				m.Release()
			}
			continue
		}
		if cb, found := d.pending[m.ID]; found {
			delete(d.pending, m.ID)
			ready = append(ready, readyReply{cb: cb, m: m})
		} else {
			m.Release()
		}
	}
	d.mu.Unlock()
	if sawDepth {
		if f := d.depthFn.Load(); f != nil {
			(*f)(depth)
		}
	}
	// Invoke outside the registry lock: callbacks may re-enter Register.
	for i := range ready {
		r := &ready[i]
		switch {
		case r.pushCB != nil:
			r.pushCB(uint32(r.m.ID), r.m.Payload)
		case r.m.Status != StatusOK:
			r.cb(nil, &StatusError{Code: r.m.Status, Msg: string(r.m.Payload)})
		default:
			r.cb(r.m.Payload, nil)
		}
		r.m.Release()
		*r = readyReply{}
	}
	d.ready = ready[:0]
	d.feedMu.Unlock()
	return err
}

// Pending reports the number of outstanding requests.
func (d *Dispatcher) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

// Close fails all outstanding requests with ErrDispatcherClosed and
// rejects future registrations. It is idempotent.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	cbs := make([]func(resp []byte, err error), 0, len(d.pending))
	for id, cb := range d.pending {
		delete(d.pending, id)
		cbs = append(cbs, cb)
	}
	d.mu.Unlock()
	for _, cb := range cbs {
		cb(nil, ErrDispatcherClosed)
	}
}

// ReleaseParser returns the dispatcher's pooled parse block after
// Close; outstanding payload views keep the underlying memory alive
// until their messages are released. Call it from the transport's
// teardown path (read-loop exit, CloseTransport) once no more useful
// Feeds will happen — Close must already have been called, which is
// what stops a late Feed from re-leasing a block afterwards.
//
// A Feed may still be in flight on another goroutine (or this call may
// sit inside one of that Feed's callbacks), so the release defers to a
// goroutine rather than block on the feed lock: the in-flight Feed
// finishes, then the block goes home.
func (d *Dispatcher) ReleaseParser() {
	if d.feedMu.TryLock() {
		d.parser.ReleaseBuffer()
		d.feedMu.Unlock()
		return
	}
	go func() {
		d.feedMu.Lock()
		d.parser.ReleaseBuffer()
		d.feedMu.Unlock()
	}()
}
