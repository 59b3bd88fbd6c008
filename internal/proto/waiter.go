package proto

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCallTimeout is returned by deadline-bounded blocking calls whose
// reply did not arrive in time. The late reply, if it ever lands, is
// discarded at the waiter without touching the caller's buffer.
var ErrCallTimeout = errors.New("proto: call deadline exceeded")

// waitResult carries one reply from the dispatcher callback to the
// blocked caller.
type waitResult struct {
	resp []byte
	err  error
}

// Waiter lifecycle states. A waiter starts pending; the transport
// callback CASes pending→delivering to claim delivery, and Abandon or a
// deadline expiry CASes pending→abandoned to disclaim it. Exactly one
// side wins, which is what makes a timed-out call safe: the late
// callback loses the CAS and drops its reply (a view into a pooled
// parse buffer the dispatcher releases as usual) instead of appending
// into a buffer the caller has already taken back.
const (
	waitPending uint32 = iota
	waitDelivering
	waitAbandoned
)

// Waiter is a pooled rendezvous for blocking calls built on the async
// Do primitive: it owns a reusable one-slot channel and a pre-bound
// callback, so a closed-loop Call/CallInto round trip performs no
// allocations at steady state.
//
// Usage (see Calls.roundTrip): w := GetWaiter(buf); set Call.Done to
// w.Callback(); if Do failed call w.Abandon(), otherwise return w.Wait()
// (or w.WaitTimeout(d) for a deadline-bounded call).
type Waiter struct {
	ch    chan waitResult
	buf   []byte
	cb    func(resp []byte, err error)
	state atomic.Uint32
}

var waiterPool = sync.Pool{New: func() any {
	w := &Waiter{ch: make(chan waitResult, 1)}
	// Bind the method value once; reusing it across calls keeps the
	// callback allocation out of the hot path.
	w.cb = w.deliver
	return w
}}

// GetWaiter returns a waiter that will append the reply payload to buf
// (which may be nil to allocate a fresh reply slice).
func GetWaiter(buf []byte) *Waiter {
	w := waiterPool.Get().(*Waiter)
	w.buf = buf
	w.state.Store(waitPending)
	return w
}

// Callback returns the function to use as Call.Done. It copies the
// reply out of the transport's parse buffer, so the reply outlives the
// callback scope.
func (w *Waiter) Callback() func(resp []byte, err error) { return w.cb }

func (w *Waiter) deliver(resp []byte, err error) {
	if !w.state.CompareAndSwap(waitPending, waitDelivering) {
		// Abandoned (send failure or deadline expiry): the reply is
		// dropped here; the transport still owns and releases resp.
		return
	}
	if err != nil {
		w.ch <- waitResult{nil, err}
		return
	}
	w.ch <- waitResult{append(w.buf, resp...), nil}
}

// Wait blocks for the reply and returns the waiter to the pool.
func (w *Waiter) Wait() ([]byte, error) {
	r := <-w.ch
	w.buf = nil
	waiterPool.Put(w)
	return r.resp, r.err
}

// WaitTimeout blocks for the reply at most d; d <= 0 means no deadline.
// On expiry it returns ErrCallTimeout immediately and the waiter is
// retired unpooled — its callback stays bound to this dead instance, so
// a straggling reply can never be delivered into a recycled waiter
// serving some other call (the ID-demux corruption a naive pool reuse
// would invite).
func (w *Waiter) WaitTimeout(d time.Duration) ([]byte, error) {
	if d <= 0 {
		return w.Wait()
	}
	t := time.NewTimer(d)
	select {
	case r := <-w.ch:
		t.Stop()
		w.buf = nil
		waiterPool.Put(w)
		return r.resp, r.err
	case <-t.C:
	}
	if !w.state.CompareAndSwap(waitPending, waitAbandoned) {
		// The callback won the race and is committed to (or already done)
		// sending; take the reply rather than dropping a delivered result.
		r := <-w.ch
		w.buf = nil
		waiterPool.Put(w)
		return r.resp, r.err
	}
	w.buf = nil
	return nil, ErrCallTimeout
}

// Abandon discards a waiter whose callback may still fire (the send
// failed after registration). The waiter is intentionally NOT pooled: a
// late callback must land in this instance, not in a recycled one.
func (w *Waiter) Abandon() {
	if w.state.CompareAndSwap(waitPending, waitAbandoned) {
		w.buf = nil
	}
}
