package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// modelPoller is the reference the park/wake protocol is checked
// against: a transport's Wait/Wake written the obvious way, one mutex
// and one condition variable per worker and a sticky wake flag (the
// eventfd). It also polices the teardown invariant — once detachPoller
// has returned, no owner may be inside Wait or Poll.
type modelPoller struct {
	name    string
	mu      []sync.Mutex
	cond    []*sync.Cond
	woken   []bool
	inside  []atomic.Int32
	retired atomic.Bool // set after detachPoller returned
	errs    chan string
}

func newModelPoller(name string, n int, errs chan string) *modelPoller {
	m := &modelPoller{
		name: name, errs: errs,
		mu: make([]sync.Mutex, n), cond: make([]*sync.Cond, n),
		woken: make([]bool, n), inside: make([]atomic.Int32, n),
	}
	for i := range m.cond {
		m.cond[i] = sync.NewCond(&m.mu[i])
	}
	return m
}

func (m *modelPoller) fail(format string, args ...any) {
	select {
	case m.errs <- m.name + ": " + fmt.Sprintf(format, args...):
	default:
	}
}

func (m *modelPoller) Poll(worker int) bool {
	m.inside[worker].Add(1)
	if m.retired.Load() {
		m.fail("worker %d entered Poll after the detach returned", worker)
	}
	m.inside[worker].Add(-1)
	return false
}

// Wait sleeps until Wake; the model has no sockets and no timeout, so a
// wake the protocol loses is a hang the test's deadline reports.
func (m *modelPoller) Wait(worker int, _ time.Duration) bool {
	m.inside[worker].Add(1)
	defer m.inside[worker].Add(-1)
	if m.retired.Load() {
		m.fail("worker %d entered Wait after the detach returned", worker)
	}
	m.mu[worker].Lock()
	for !m.woken[worker] {
		m.cond[worker].Wait()
	}
	m.woken[worker] = false
	m.mu[worker].Unlock()
	return false
}

func (m *modelPoller) Wake(worker int) {
	m.mu[worker].Lock()
	m.woken[worker] = true
	m.cond[worker].Signal()
	m.mu[worker].Unlock()
}

// TestParkerModel drives the parker through randomized interleavings of
// everything that can happen to it — publish+notify from several
// goroutines, prepare/recheck/cancel/sleep by the owner, transports
// attaching and detaching under its feet — with the watchdog out of
// reach (the sleep timeout is an hour). The owner follows the worker
// loop's contract: every return from sleep goes back to the rescan. The
// properties checked: no published item is left unconsumed while its
// owner sleeps (a lost wake shows as a hang), nothing is consumed twice
// or invented, and no owner is inside a poller once its detach returned.
func TestParkerModel(t *testing.T) {
	const (
		workers    = 3
		publishers = 4
	)
	perPublisher := 4000
	if testing.Short() {
		perPublisher = 500
	}
	var hook atomic.Pointer[pollerRef]
	parkers := make([]*parker, workers)
	pending := make([]atomic.Int64, workers)
	consumed := make([]atomic.Int64, workers)
	for i := range parkers {
		parkers[i] = new(parker)
		parkers[i].init(i, &hook)
	}
	errs := make(chan string, 16)
	var stop atomic.Bool

	var owners sync.WaitGroup
	for i := 0; i < workers; i++ {
		owners.Add(1)
		go func(i int) {
			defer owners.Done()
			p := parkers[i]
			rng := rand.New(rand.NewSource(int64(i) + 1))
			for !stop.Load() {
				// The loop top is the rescan: it runs after every wake.
				if n := pending[i].Swap(0); n > 0 {
					consumed[i].Add(n)
					continue
				}
				if pl := p.acquirePoller(); pl != nil {
					pl.Poll(i)
					p.releasePoller()
				}
				g := p.prepare()
				if rng.Intn(4) == 0 {
					runtime.Gosched() // widen the prepare→recheck window
				}
				if pending[i].Load() > 0 || stop.Load() {
					p.cancel()
					continue
				}
				p.sleep(g, time.Hour)
			}
		}(i)
	}

	var pubs sync.WaitGroup
	for k := 0; k < publishers; k++ {
		pubs.Add(1)
		go func(k int) {
			defer pubs.Done()
			rng := rand.New(rand.NewSource(int64(k) + 100))
			for n := 0; n < perPublisher; n++ {
				i := rng.Intn(workers)
				pending[i].Add(1) // publish, then notify
				parkers[i].notify()
				switch rng.Intn(8) {
				case 0:
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				case 1, 2:
					runtime.Gosched()
				}
			}
		}(k)
	}

	// stuck reports a worker that holds published work without consuming
	// it for two seconds: asleep with work visible.
	stuck := func() string {
		for i := range pending {
			before := consumed[i].Load()
			deadline := time.Now().Add(2 * time.Second)
			for pending[i].Load() > 0 && consumed[i].Load() == before {
				if time.Now().After(deadline) {
					return fmt.Sprintf("lost wake: worker %d asleep with %d items visible (waiting=%v token=%d poller attached=%v)",
						i, pending[i].Load(), parkers[i].waiting.Load(), len(parkers[i].ch), hook.Load() != nil)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		return ""
	}

	// Transports come and go while all of that runs. Most phases are a
	// few hundred microseconds, to land the switch inside the protocol's
	// windows; every so often one is held long enough that a sleeper
	// wedged by the switch stays wedged until the check at its end (the
	// next detach or attach would otherwise wake it and hide the bug).
	togglerDone := make(chan struct{})
	go func() {
		defer close(togglerDone)
		rng := rand.New(rand.NewSource(7))
		phase := func() {
			if rng.Intn(25) != 0 {
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				return
			}
			time.Sleep(20 * time.Millisecond)
			if e := stuck(); e != "" {
				errs <- e
			}
		}
		for gen := 0; !stop.Load(); gen++ {
			m := newModelPoller(fmt.Sprintf("poller#%d", gen), workers, errs)
			if !hook.CompareAndSwap(nil, &pollerRef{m}) {
				errs <- "attach found a poller still attached"
				return
			}
			for _, p := range parkers {
				p.notify() // as Runtime.AttachPoller does
			}
			phase()
			if !detachPoller(&hook, parkers, m) {
				errs <- "detach did not find its poller"
				return
			}
			m.retired.Store(true)
			for i := range m.inside {
				if m.inside[i].Load() != 0 {
					m.fail("worker %d still inside after the detach returned", i)
				}
			}
			phase()
		}
	}()

	pubs.Wait()
	total := int64(publishers * perPublisher)
	deadline := time.Now().Add(20 * time.Second)
	for {
		var got int64
		for i := range consumed {
			got += consumed[i].Load()
		}
		if got == total {
			break
		}
		if got > total {
			t.Fatalf("consumed %d of %d published items", got, total)
		}
		select {
		case e := <-errs:
			t.Fatal(e)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d items consumed; %s", got, total, stuck())
		}
		time.Sleep(time.Millisecond)
	}

	stop.Store(true)
	<-togglerDone
	for _, p := range parkers {
		p.notify()
	}
	owners.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// TestParkerStaleTokenAcrossAttach pins the one token that has no Wake
// behind it: deposited while no transport was attached and left behind
// by a cancelled prepare. A sleeper that carried it into a poller's Wait
// would never be woken again — every later notify finds the token
// pending and skips the Wake.
func TestParkerStaleTokenAcrossAttach(t *testing.T) {
	var hook atomic.Pointer[pollerRef]
	p := new(parker)
	p.init(0, &hook)

	p.prepare()
	if !p.notify() {
		t.Fatal("notify to a prepared parker must deposit the token")
	}
	p.cancel() // the recheck saw the work; the token stays behind

	errs := make(chan string, 4)
	m := newModelPoller("poller", 1, errs)
	hook.Store(&pollerRef{m})

	slept := make(chan struct{})
	go func() {
		defer close(slept)
		g := p.prepare()
		p.sleep(g, time.Hour) // must take the stale token as a wake
		g = p.prepare()
		p.sleep(g, time.Hour) // a clean sleep: needs the notify below
	}()
	for i := 0; i < 2000; i++ {
		select {
		case <-slept:
			return
		case e := <-errs:
			t.Fatal(e)
		default:
		}
		p.notify()
		time.Sleep(time.Millisecond)
	}
	t.Fatal("sleeper wedged in the poller's Wait behind a stale token")
}
