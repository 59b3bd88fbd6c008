// Package pubsub implements the server-side fan-out bus behind the v4
// streaming frames: a CAN-bus-style frame mux where subscribers register
// filter predicates over a topic's 32-bit frame identifiers — exact ID,
// masked ID, ID range, or an arbitrary func — and each published frame
// fans out to every matching subscription.
//
// The bus is deliberately transport-agnostic: a subscription's deliver
// function is just a callback. The runtime layer points it at a
// per-connection push queue (fair-queued behind the batching egress
// writer); tests point it at slices. Delivery is synchronous with
// Publish — the deliver callback must never block, which the runtime's
// queue-append (drop-oldest, never-blocking) guarantees — and the
// published Frame's payload is only valid for the duration of the
// callback; a deliverer that retains it must copy.
package pubsub

import (
	"sync"
	"sync/atomic"
)

// Frame is one published datum: a topic (sharing the wire method ID
// space), a 32-bit frame identifier filters match on, and an opaque
// payload. The payload is owned by the publisher and valid only for the
// duration of the Publish call.
type Frame struct {
	Topic   uint16
	ID      uint32
	Payload []byte
}

// Filter kinds. The numeric values travel on the wire in SUBSCRIBE
// payloads (see wire.go); FilterFunc is server-side only — a predicate
// func cannot be serialized, so it is rejected by the wire encoder and
// used directly against a Bus in-process.
const (
	// FilterAll matches every frame on the topic.
	FilterAll uint8 = 0
	// FilterExact matches frames whose ID equals the filter's ID.
	FilterExact uint8 = 1
	// FilterMask matches frames for which frame.ID & Mask == ID & Mask —
	// the classic CAN acceptance filter.
	FilterMask uint8 = 2
	// FilterRange matches frames with Lo <= ID <= Hi, inclusive.
	FilterRange uint8 = 3
	// FilterFunc matches frames for which Fn returns true. Not wire-
	// encodable.
	FilterFunc uint8 = 4
)

// Filter selects which of a topic's frames a subscription receives.
// The zero value is FilterAll.
type Filter struct {
	Kind uint8
	// ID is the exact identifier (FilterExact) or the reference the mask
	// applies to (FilterMask).
	ID uint32
	// Mask selects the ID bits that must match (FilterMask).
	Mask uint32
	// Lo and Hi bound the inclusive identifier range (FilterRange).
	Lo, Hi uint32
	// Fn is the arbitrary predicate (FilterFunc); it must be fast and
	// must not retain the frame's payload.
	Fn func(Frame) bool
}

// Exact returns a FilterExact for id.
func Exact(id uint32) Filter { return Filter{Kind: FilterExact, ID: id} }

// Mask returns a FilterMask accepting frames whose ID agrees with id on
// the bits selected by mask.
func Mask(id, mask uint32) Filter { return Filter{Kind: FilterMask, ID: id, Mask: mask} }

// Range returns a FilterRange accepting frame IDs in [lo, hi].
func Range(lo, hi uint32) Filter { return Filter{Kind: FilterRange, Lo: lo, Hi: hi} }

// Func returns a FilterFunc wrapping fn. Server-side only.
func Func(fn func(Frame) bool) Filter { return Filter{Kind: FilterFunc, Fn: fn} }

// Match reports whether the filter accepts fr. Unknown kinds match
// nothing.
func (f Filter) Match(fr Frame) bool {
	switch f.Kind {
	case FilterAll:
		return true
	case FilterExact:
		return fr.ID == f.ID
	case FilterMask:
		return fr.ID&f.Mask == f.ID&f.Mask
	case FilterRange:
		return fr.ID >= f.Lo && fr.ID <= f.Hi
	case FilterFunc:
		return f.Fn != nil && f.Fn(fr)
	}
	return false
}

// Sub is one live subscription on a Bus.
type Sub struct {
	bus     *Bus
	topic   uint16
	filter  Filter
	deliver func(Frame)
	// closed flips once on Unsubscribe; a concurrent Publish that
	// already snapshotted the topic's subscriber list checks it before
	// delivering, so a retired subscription stops receiving promptly
	// even while the copy-on-write list still carries it.
	closed atomic.Bool
}

// Unsubscribe retires the subscription: no further frames are
// delivered, and the bus forgets it. Idempotent.
func (s *Sub) Unsubscribe() {
	if s.closed.Swap(true) {
		return
	}
	s.bus.remove(s)
}

// Bus is the filter-matching fan-out mux. Subscription lists are
// copy-on-write per topic: Publish snapshots the topic's list under a
// read lock and fans out lock-free, so a slow (or huge) fan-out never
// blocks subscribe/unsubscribe and vice versa.
type Bus struct {
	mu     sync.RWMutex
	topics map[uint16][]*Sub

	published atomic.Uint64
	delivered atomic.Uint64
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{topics: make(map[uint16][]*Sub)}
}

// Subscribe registers deliver to receive frames on topic accepted by
// filter. deliver runs synchronously inside Publish and must not block;
// the frame payload is valid only for the duration of the call.
func (b *Bus) Subscribe(topic uint16, filter Filter, deliver func(Frame)) *Sub {
	s := &Sub{bus: b, topic: topic, filter: filter, deliver: deliver}
	b.mu.Lock()
	old := b.topics[topic]
	subs := make([]*Sub, len(old)+1)
	copy(subs, old)
	subs[len(old)] = s
	b.topics[topic] = subs
	b.mu.Unlock()
	return s
}

// remove drops s from its topic's copy-on-write list.
func (b *Bus) remove(s *Sub) {
	b.mu.Lock()
	old := b.topics[s.topic]
	subs := make([]*Sub, 0, len(old))
	for _, o := range old {
		if o != s {
			subs = append(subs, o)
		}
	}
	if len(subs) == 0 {
		delete(b.topics, s.topic)
	} else {
		b.topics[s.topic] = subs
	}
	b.mu.Unlock()
}

// Publish fans fr out to every matching subscription on its topic and
// returns the number of deliveries. It never blocks on subscribers: the
// deliver callbacks are required to be non-blocking (the runtime's are
// bounded queue appends).
func (b *Bus) Publish(fr Frame) int {
	b.published.Add(1)
	b.mu.RLock()
	subs := b.topics[fr.Topic]
	b.mu.RUnlock()
	n := 0
	for _, s := range subs {
		if s.closed.Load() || !s.filter.Match(fr) {
			continue
		}
		s.deliver(fr)
		n++
	}
	if n > 0 {
		b.delivered.Add(uint64(n))
	}
	return n
}

// Subscribers reports how many live subscriptions topic currently has.
func (b *Bus) Subscribers(topic uint16) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.topics[topic])
}

// Stats is a snapshot of the bus counters.
type Stats struct {
	// Published counts Publish calls.
	Published uint64
	// Delivered counts frame deliveries summed over subscriptions (one
	// frame fanned out to k subscribers counts k).
	Delivered uint64
	// Subscriptions is the current live subscription count.
	Subscriptions int
}

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() Stats {
	st := Stats{Published: b.published.Load(), Delivered: b.delivered.Load()}
	b.mu.RLock()
	for _, subs := range b.topics {
		st.Subscriptions += len(subs)
	}
	b.mu.RUnlock()
	return st
}
