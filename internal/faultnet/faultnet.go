// Package faultnet injects reproducible faults into the RPC stack so
// failure-domain behavior — deadlines, circuit breakers, hedge settling,
// buffer accounting — can be proven under test rather than asserted.
//
// Two wrapping layers compose with the rest of the tree:
//
//   - WrapCaller wraps any transport's Do primitive (memnet client,
//     tcpnet client, managed caller, cluster) and injects call-level
//     faults: dist-driven added latency, blackholed peers (the callback
//     never fires — what a wedged server looks like), mid-call connection
//     resets (server executes, reply lost), dropped replies, and
//     depth-frame loss.
//   - WrapConn / WrapListener wrap a net.Conn / net.Listener and inject
//     byte-level faults on the write path: added latency, partial writes,
//     corrupt frames, and mid-write resets. Wrapped conns intentionally do
//     not implement syscall.Conn, so a tcpnet server routes them to its
//     portable fallback poller and a tcpnet client reads them through a
//     plain read loop — no epoll assumptions are violated.
//
// Every injector is a pure function of Plan.Seed plus the op sequence, so
// a failing chaos run replays exactly from its logged seed. A Script hook
// can pin specific ops to specific faults when a test needs a scheduled
// interleaving instead of a probabilistic one.
package faultnet

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"zygos/internal/dist"
	"zygos/internal/proto"
)

// ErrInjectedReset is the error a faulted call or write observes when the
// plan resets the connection mid-call: from the caller's view the request
// may or may not have executed, exactly like a real TCP RST.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// Action is one injected fault decision.
type Action int

const (
	// Pass forwards the op unmodified.
	Pass Action = iota
	// Delay adds Plan.Latency (or DefaultDelay) before the op completes.
	Delay
	// Partial splits a conn write into two segments with a gap between
	// them (conn layer only; a caller-level Partial is treated as Pass).
	Partial
	// Reset fails the op with ErrInjectedReset after the request has been
	// forwarded: the peer executes it but the reply is lost.
	Reset
	// Blackhole swallows the op entirely — the request is never forwarded
	// and the callback never fires (caller layer; conns treat it as Reset).
	Blackhole
	// DropReply forwards the request but discards the reply, without an
	// error — a one-way packet-loss fault only a deadline can unstick
	// (caller layer only).
	DropReply
	// Corrupt flips one byte of a conn write so the peer sees a truncated
	// or garbage frame (conn layer only).
	Corrupt
)

// DefaultDelay is the injected latency when Plan.Latency is nil.
const DefaultDelay = 200 * time.Microsecond

// Plan is a seeded fault schedule. Zero-value probabilities inject
// nothing; Script, when set, is consulted first and its decision wins
// whenever ok is true.
type Plan struct {
	Seed int64

	// Per-op fault probabilities in [0,1], evaluated in order: reset,
	// blackhole, drop-reply, corrupt, partial, delay.
	PReset     float64
	PBlackhole float64
	PDropReply float64
	PCorrupt   float64
	PPartial   float64
	PDelay     float64

	// PDropDepth drops piggybacked depth reports at the caller layer,
	// starving the balancer of load signal.
	PDropDepth float64

	// Latency samples the added delay for Delay actions (nanoseconds);
	// nil means DefaultDelay.
	Latency dist.Dist

	// Script, when non-nil, pins op n (0-based, per wrapper) to an
	// action. Return ok=false to fall through to the probabilities.
	Script func(op uint64) (a Action, ok bool)
}

// Stats counts injected faults, for test assertions.
type Stats struct {
	Ops         uint64
	Delays      uint64
	Partials    uint64
	Resets      uint64
	Blackholes  uint64
	DropReplies uint64
	Corrupts    uint64
	DropDepths  uint64
}

// injector makes seeded fault decisions. The rng is guarded by mu so one
// injector can serve concurrent ops deterministically *in aggregate*
// (the exact op→fault mapping under concurrency depends on arrival
// order, but the fault mix does not).
type injector struct {
	plan Plan

	mu  sync.Mutex
	rng *rand.Rand
	op  uint64

	delays      atomic.Uint64
	partials    atomic.Uint64
	resets      atomic.Uint64
	blackholes  atomic.Uint64
	dropReplies atomic.Uint64
	corrupts    atomic.Uint64
	dropDepths  atomic.Uint64
}

func newInjector(plan Plan) *injector {
	return &injector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// decide picks the action for the next op and, for Delay, its duration.
func (in *injector) decide() (Action, time.Duration) {
	in.mu.Lock()
	n := in.op
	in.op++
	// One roll per op even when a Script decides, so a given seed
	// replays the same probabilistic tail regardless of Script edits.
	roll := in.rng.Float64()
	lat := int64(DefaultDelay)
	if in.plan.Latency != nil {
		lat = in.plan.Latency.Sample(in.rng)
	}
	in.mu.Unlock()

	if in.plan.Script != nil {
		if a, ok := in.plan.Script(n); ok {
			return in.note(a), time.Duration(lat)
		}
	}
	p := &in.plan
	switch {
	case roll < p.PReset:
		return in.note(Reset), 0
	case roll < p.PReset+p.PBlackhole:
		return in.note(Blackhole), 0
	case roll < p.PReset+p.PBlackhole+p.PDropReply:
		return in.note(DropReply), 0
	case roll < p.PReset+p.PBlackhole+p.PDropReply+p.PCorrupt:
		return in.note(Corrupt), 0
	case roll < p.PReset+p.PBlackhole+p.PDropReply+p.PCorrupt+p.PPartial:
		return in.note(Partial), 0
	case roll < p.PReset+p.PBlackhole+p.PDropReply+p.PCorrupt+p.PPartial+p.PDelay:
		return in.note(Delay), time.Duration(lat)
	}
	return Pass, 0
}

func (in *injector) note(a Action) Action {
	switch a {
	case Delay:
		in.delays.Add(1)
	case Partial:
		in.partials.Add(1)
	case Reset:
		in.resets.Add(1)
	case Blackhole:
		in.blackholes.Add(1)
	case DropReply:
		in.dropReplies.Add(1)
	case Corrupt:
		in.corrupts.Add(1)
	}
	return a
}

// dropDepth decides whether one depth report is lost.
func (in *injector) dropDepth() bool {
	if in.plan.PDropDepth <= 0 {
		return false
	}
	in.mu.Lock()
	drop := in.rng.Float64() < in.plan.PDropDepth
	in.mu.Unlock()
	if drop {
		in.dropDepths.Add(1)
	}
	return drop
}

func (in *injector) stats() Stats {
	in.mu.Lock()
	ops := in.op
	in.mu.Unlock()
	return Stats{
		Ops:         ops,
		Delays:      in.delays.Load(),
		Partials:    in.partials.Load(),
		Resets:      in.resets.Load(),
		Blackholes:  in.blackholes.Load(),
		DropReplies: in.dropReplies.Load(),
		Corrupts:    in.corrupts.Load(),
		DropDepths:  in.dropDepths.Load(),
	}
}

// FaultyCaller wraps an inner transport with call-level fault
// injection. It implements Do, and every calling form through the
// embedded proto.Calls — blocking forms included, so a deadline-bounded
// call against a blackholed peer returns ErrCallTimeout — plus the
// OnDepth pass-through the cluster tier probes for, so it is a drop-in
// backend.
type FaultyCaller struct {
	proto.Calls
	inner proto.Doer
	in    *injector
}

// WrapCaller wraps inner with the faults described by plan.
func WrapCaller(inner proto.Doer, plan Plan) *FaultyCaller {
	f := &FaultyCaller{inner: inner, in: newInjector(plan)}
	f.Calls = proto.Calls{Doer: f}
	return f
}

// FaultStats returns the injected-fault counters so far.
func (f *FaultyCaller) FaultStats() Stats { return f.in.stats() }

// Do applies the caller-level fault model to one call and forwards it
// to the inner transport.
func (f *FaultyCaller) Do(c proto.Call) error {
	a, lat := f.in.decide()
	if c.OneWay {
		switch a {
		case Blackhole, DropReply:
			return nil
		case Reset:
			return ErrInjectedReset
		}
		return f.inner.Do(c)
	}
	done := c.Done
	switch a {
	case Blackhole:
		// Wedged peer: the request vanishes and the callback never
		// fires. Only a deadline above us can unstick the op.
		return nil
	case Reset:
		// The request is forwarded (the peer executes it) but the
		// connection "dies" before the reply: the real reply is
		// discarded and the caller observes a reset shortly after.
		c.Done = func([]byte, error) {}
		if err := f.inner.Do(c); err != nil {
			return err
		}
		time.AfterFunc(DefaultDelay, func() { done(nil, ErrInjectedReset) })
		return nil
	case DropReply:
		// Forwarded, executed, reply lost without any signal.
		c.Done = func([]byte, error) {}
	case Delay:
		// The reply is held back by lat. resp is a view into the
		// transport's parse buffer, which is recycled once the real
		// callback returns — so it must be copied before deferring.
		c.Done = func(resp []byte, err error) {
			var cp []byte
			if resp != nil {
				cp = append(cp, resp...)
			}
			time.AfterFunc(lat, func() { done(cp, err) })
		}
	}
	return f.inner.Do(c)
}

// Close closes the inner transport, if it can be closed.
func (f *FaultyCaller) Close() {
	if c, ok := f.inner.(interface{ Close() }); ok {
		c.Close()
	}
}

// OnDepth forwards depth reports from the inner transport, dropping a
// PDropDepth fraction so tests can starve the balancer of load signal.
// It is a no-op if the inner transport reports no depth.
func (f *FaultyCaller) OnDepth(fn func(depth uint32)) {
	ds, ok := f.inner.(proto.DepthReporter)
	if !ok {
		return
	}
	ds.OnDepth(func(depth uint32) {
		if f.in.dropDepth() {
			return
		}
		fn(depth)
	})
}
