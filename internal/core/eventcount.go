package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// eventcount is the wake-on-demand primitive the scheduler's idle paths
// are built on: a waiter count plus a generation word. It replaces both
// the timer-polled park loop (idle workers) and the ingress condition
// variable (transport readers blocked on a full ring) with the classic
// prepare/recheck/commit protocol:
//
//	g := ec.prepare()          // announce intent to sleep
//	if workVisible() {         // recheck under the announcement
//	    ec.cancel()
//	    ... do the work
//	}
//	ec.wait(g)                 // sleep until a notify after prepare
//
// Publishers make their work visible (a counter increment, a ring slot
// publish) and then call notify. Because prepare increments the waiter
// count before the recheck, and notify bumps the generation before
// inspecting the waiter count, every interleaving either lets the
// recheck observe the work or lets wait observe the generation change —
// a wakeup can be spurious but never lost.
//
// The fast path costs publishers one atomic increment and one atomic
// load: when nobody is parked (the common case under load), notify never
// touches the mutex. The mutex+cond pair underneath exists only to give
// committed waiters something to block on; it is uncontended by design.
type eventcount struct {
	gen     atomic.Uint64 // bumped by every notify
	waiters atomic.Int32  // waiters between prepare and wait-return

	mu   sync.Mutex
	cond *sync.Cond
}

func (ec *eventcount) init() {
	ec.cond = sync.NewCond(&ec.mu)
}

// prepare announces this goroutine as a prospective waiter and returns
// the generation to pass to wait. The caller must recheck its wait
// condition between prepare and wait, and call exactly one of cancel or
// wait afterwards.
func (ec *eventcount) prepare() uint64 {
	ec.waiters.Add(1)
	return ec.gen.Load()
}

// cancel retracts a prepare without sleeping.
func (ec *eventcount) cancel() {
	ec.waiters.Add(-1)
}

// wait blocks until a notify lands after the prepare that returned g.
// Returns immediately if one already has.
func (ec *eventcount) wait(g uint64) {
	ec.mu.Lock()
	for ec.gen.Load() == g {
		ec.cond.Wait()
	}
	ec.mu.Unlock()
	ec.waiters.Add(-1)
}

// notify wakes every current waiter and reports whether there was at
// least one to wake. Publishers must make their work visible before
// calling it.
func (ec *eventcount) notify() bool {
	ec.gen.Add(1)
	if ec.waiters.Load() == 0 {
		return false
	}
	ec.mu.Lock()
	ec.cond.Broadcast()
	ec.mu.Unlock()
	return true
}

// parker is the single-waiter specialization of the eventcount, used for
// worker parking. The protocol is identical — prepare, recheck the work
// condition, then wait — but the sleep primitive is a one-token channel
// instead of a mutex+cond pair, which makes redundant notifies nearly
// free: once a wake token is pending, further notifies are a failed
// non-blocking send. That matters on the ingress fast path, where a
// burst of pushes lands while the just-woken worker is still waiting for
// a CPU.
//
// A worker whose runtime has a transport Poller attached sleeps inside
// the transport's Wait (its socket set plus a wake descriptor) instead
// of on the channel, so socket readiness wakes it with no goroutine in
// between. The same token then doubles as the dedupe flag for the
// transport's Wake: only the notify that deposits the token pays for the
// wake syscall. A transport may attach or detach at any moment, so a
// notify must reach the owner whichever way it sleeps. The rules that
// keep this lost-wakeup-free without the watchdog (TestParkerModel and
// its neighbours exercise them):
//
//   - A notifier deposits the token and only then loads the poller; a
//     sleeper loads the poller and only then looks for the token, taking
//     one it finds as its wake. Whichever side runs second sees the
//     other, so a notify that loaded no poller because it raced an attach
//     has left a token the sleeper sees, and one that raced a detach is
//     covered by the detach's own unconditional Wake. A stale token — one
//     left by a cancelled prepare, possibly with no Wake behind it — costs
//     a spurious pass through the rescan the same way, never a sleep that
//     every later notify is deduped against.
//   - A sleeper that finds a token never carries on into Wait, and the
//     token behind the wake that ended a Wait is cleared only after Wait
//     has returned — after the wake descriptor was read. Clearing a token
//     and then waiting would let a notify land a token and a Wake that
//     the in-flight Wait swallows, leaving the flag set with nothing
//     armed.
//   - Every return from sleep is followed by a full rescan of the
//     depth counters in the worker loop; the token carries no payload.
type parker struct {
	gen     atomic.Uint64
	waiting atomic.Bool
	ch      chan struct{}

	// id is the owner's worker index, poller the runtime-wide transport
	// hook (nil inside while no transport is attached).
	id     int
	poller *atomic.Pointer[pollerRef]
	// pollerUse brackets the owner goroutine's calls into the transport
	// Poller; detachPoller waits for it to reach zero.
	pollerUse atomic.Int32

	// timer is the watchdog of a channel sleep (a poller sleep passes
	// the interval to Wait instead); timerFired tells its wakes from
	// demand wakes.
	timer      *time.Timer
	timerFired atomic.Bool
}

func (p *parker) init(id int, poller *atomic.Pointer[pollerRef]) {
	p.ch = make(chan struct{}, 1)
	p.id = id
	p.poller = poller
	p.timer = time.AfterFunc(time.Hour, func() {
		p.timerFired.Store(true)
		p.notify()
	})
	p.timer.Stop()
}

// prepare announces the owner as a prospective sleeper and returns the
// generation to pass to sleep. Exactly one of cancel or sleep must
// follow, after rechecking the wait condition.
func (p *parker) prepare() uint64 {
	p.waiting.Store(true)
	return p.gen.Load()
}

// cancel retracts a prepare without sleeping.
func (p *parker) cancel() {
	p.waiting.Store(false)
}

// acquirePoller returns the attached transport hook, or nil. A non-nil
// result must be paired with releasePoller once the call into it has
// returned: the bracket opens before the hook is loaded, so a detach
// that swapped the hook out and then read the bracket as zero knows the
// owner can no longer enter the old hook. Owner goroutine only.
func (p *parker) acquirePoller() Poller {
	p.pollerUse.Add(1)
	if ref := p.poller.Load(); ref != nil {
		return ref.Poller
	}
	p.pollerUse.Add(-1)
	return nil
}

func (p *parker) releasePoller() { p.pollerUse.Add(-1) }

// sleep blocks until a notify lands after the prepare that returned g,
// or for at most timeout, and reports whether it was the timeout that
// ended it. It sleeps in the transport's Wait when a Poller is attached
// — socket readiness ends that sleep too — and on the channel otherwise.
func (p *parker) sleep(g uint64, timeout time.Duration) bool {
	if pl := p.acquirePoller(); pl != nil {
		timedOut := p.waitPoller(pl, timeout)
		p.releasePoller()
		return timedOut
	}
	p.timerFired.Store(false)
	p.timer.Reset(timeout)
	// Stale wake tokens from earlier notifies cause a spurious pass
	// through the caller's recheck loop, never a missed sleep.
	for p.gen.Load() == g {
		<-p.ch
	}
	p.waiting.Store(false)
	p.timer.Stop()
	return p.timerFired.Swap(false)
}

// waitPoller is the poller half of sleep; pl was loaded after prepare.
func (p *parker) waitPoller(pl Poller, timeout time.Duration) bool {
	select {
	case <-p.ch:
		// A token with possibly no Wake behind it (deposited before the
		// transport attached, or left by a cancelled prepare): take it as
		// the wake it stands for.
		p.waiting.Store(false)
		return false
	default:
	}
	timedOut := pl.Wait(p.id, timeout)
	p.waiting.Store(false)
	select {
	case <-p.ch:
	default:
	}
	return timedOut
}

// notify wakes the owner if it is (or is about to be) parked, whichever
// way it sleeps: the token wakes a channel sleeper, and the one notify
// that deposited it also pays for the transport's Wake when a Poller is
// attached. It reports whether this call deposited the token — redundant
// notifies while one is pending return false and cost two atomic loads.
func (p *parker) notify() bool {
	p.gen.Add(1)
	if !p.waiting.Load() {
		return false
	}
	select {
	case p.ch <- struct{}{}:
	default:
		return false
	}
	if ref := p.poller.Load(); ref != nil {
		ref.Wake(p.id)
	}
	return true
}

// detachPoller swaps pl out of the hook the parkers share and returns
// once none of their owners is inside it. It reports false, having done
// nothing, if pl is not the attached poller.
func detachPoller(hook *atomic.Pointer[pollerRef], parkers []*parker, pl Poller) bool {
	ref := hook.Load()
	if ref == nil || ref.Poller != pl || !hook.CompareAndSwap(ref, nil) {
		return false
	}
	for {
		busy := false
		for _, p := range parkers {
			if p.pollerUse.Load() != 0 {
				// Inside Wait (or about to be, having loaded the hook before
				// the swap): wake it unconditionally — a notify that now
				// loads a nil hook deposits a channel token only.
				busy = true
				pl.Wake(p.id)
			}
		}
		if !busy {
			return true
		}
		time.Sleep(20 * time.Microsecond)
	}
}
