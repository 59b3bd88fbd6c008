package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"zygos"
)

// ringSize bounds the requests outstanding on one connection; an
// open-loop request that would exceed it is counted unsent.
const ringSize = 1 << 15

// drainTimeout is how long a phase waits for replies after its last
// send, so a wedged server ends the run instead of hanging it.
const drainTimeout = 2 * time.Second

// conn is one generator connection. Each phase has exactly one sender
// per connection — the pacing thread in an open loop, the connection's
// reader goroutine in a closed loop — and replies on a connection arrive
// in request order, so ordinals pair the two sides without a lock.
type conn struct {
	g     *generator
	cl    *zygos.TCPClient
	cb    func(resp []byte, err error)
	sent  atomic.Uint64 // requests sent since dial
	recvd atomic.Uint64 // replies or errors received
	ring  [ringSize]int32

	// reader-owned; the main goroutine reads them once the phase drained
	errs, wrong, gets, hits int64
}

type generator struct {
	w     workload
	clk   clock
	conns []*conn
	// ph is replaced only while nothing is in flight.
	ph *phase
	// sendErr holds the first failed send of a closed loop.
	sendErr atomic.Pointer[error]
}

// phase is one stretch of load over one table.
type phase struct {
	tab *table

	// Open loop: stamps by table index, ordinal on its connection.
	sendAt, recvAt []int64
	ord            []uint32
	unsent         int64

	// Closed loop: window requests outstanding per connection, issued
	// from the table cyclically until limit requests (0: until stop).
	window  int
	limit   int64
	next    atomic.Int64
	stop    atomic.Bool
	start   int64
	buckets []atomic.Int64 // completions per closedBucket since start
}

const closedBucket = 100 * time.Millisecond

// countedLoopTimeout bounds a closed loop that runs for a count of
// requests (preload, warm-up) rather than for a time.
const countedLoopTimeout = 30 * time.Second

func (g *generator) dial(addr string) error {
	for i := 0; i < g.w.conns; i++ {
		// Sequential dials: the server's accept order, and so each
		// connection's ID and home core, is the dial order.
		cl, err := zygos.DialClient(addr, 5*time.Second)
		if err != nil {
			return fmt.Errorf("dial %s: %w", addr, err)
		}
		c := &conn{g: g, cl: cl}
		c.cb = c.onReply
		g.conns = append(g.conns, c)
	}
	return nil
}

func (g *generator) close() {
	for _, c := range g.conns {
		c.cl.Close()
	}
	g.conns = nil
}

func (c *conn) onReply(resp []byte, err error) {
	ph := c.g.ph
	now := c.g.clk.now()
	o := c.recvd.Load()
	i := int(c.ring[o%ringSize])
	ok := false
	if err != nil {
		c.errs++
	} else {
		var hit bool
		ok, hit = ph.tab.check(i, resp)
		if !ok {
			c.wrong++
		}
		if ph.tab.kind == kindKV && !ph.tab.isSet[i] {
			c.gets++
			if hit {
				c.hits++
			}
		}
	}
	if ph.window == 0 {
		if ok {
			ph.recvAt[i] = now
		}
	} else {
		if b := (now - ph.start) / int64(closedBucket); ok && b >= 0 && b < int64(len(ph.buckets)) {
			ph.buckets[b].Add(1)
		}
		c.refill(ph, ph.window, o+1)
	}
	// Last: once every connection's recvd has caught up with its sent,
	// the main goroutine reads what was recorded above and moves on to
	// the next phase, so nothing may be written or sent after this.
	c.recvd.Store(o + 1)
}

// send issues table entry i as the connection's next request.
func (c *conn) send(t *table, i int) error {
	o := c.sent.Load()
	c.ring[o%ringSize] = int32(i)
	c.sent.Store(o + 1)
	return c.cl.SendMethodAsync(t.method(i), t.payload(i), c.cb)
}

// refill tops the connection up to upTo outstanding requests, recvd of
// its requests having been answered.
func (c *conn) refill(ph *phase, upTo int, recvd uint64) {
	for !ph.stop.Load() && c.sent.Load()-recvd < uint64(upTo) {
		k := ph.next.Add(1) - 1
		if ph.limit > 0 && k >= ph.limit {
			return
		}
		if err := c.send(ph.tab, int(k%int64(ph.tab.n))); err != nil {
			c.g.sendErr.CompareAndSwap(nil, &err)
			ph.stop.Store(true)
			return
		}
	}
}

// outstanding is the number of requests sent and not yet answered.
func (g *generator) outstanding() int64 {
	var n int64
	for _, c := range g.conns {
		n += int64(c.sent.Load() - c.recvd.Load())
	}
	return n
}

// drain waits for every outstanding reply. Replies still missing after
// drainTimeout end the run: their late arrival would be matched against
// the next phase's table.
func (g *generator) drain() error {
	deadline := time.Now().Add(drainTimeout)
	for g.outstanding() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d requests unanswered %v after the last send", g.outstanding(), drainTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if e := g.sendErr.Load(); e != nil {
		return fmt.Errorf("send: %w", *e)
	}
	return nil
}

// tally is a phase's outcome counts.
type tally struct {
	attempted, errs, wrong, unsent, gets, hits int64
}

func (t tally) failed() int64 { return t.errs + t.wrong + t.unsent }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.errs += o.errs
	t.wrong += o.wrong
	t.unsent += o.unsent
	t.gets += o.gets
	t.hits += o.hits
}

// collect moves the connections' reader-side counts into a tally. Call
// it after drain.
func (g *generator) collect(attempted, unsent int64) tally {
	t := tally{attempted: attempted, unsent: unsent}
	for _, c := range g.conns {
		t.errs, t.wrong, t.gets, t.hits = t.errs+c.errs, t.wrong+c.wrong, t.gets+c.gets, t.hits+c.hits
		c.errs, c.wrong, c.gets, c.hits = 0, 0, 0, 0
	}
	return t
}

// closedLoop keeps window requests outstanding on every connection,
// for d or until limit requests were issued, whichever is set. The
// reader goroutines do the sending; the caller only starts and stops
// them.
func (g *generator) closedLoop(tab *table, window int, limit int64, d time.Duration) (*phase, tally, error) {
	ph := &phase{tab: tab, window: window, limit: limit, start: g.clk.now()}
	ph.buckets = make([]atomic.Int64, int(d/closedBucket))
	g.ph = ph
	for _, c := range g.conns {
		// One request only: its reply makes the reader goroutine the
		// connection's sender, and there must never be two.
		c.refill(ph, 1, c.recvd.Load())
	}
	if limit > 0 {
		deadline := time.Now().Add(countedLoopTimeout)
		for ph.next.Load() < limit && !ph.stop.Load() && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
	} else {
		time.Sleep(d)
	}
	ph.stop.Store(true)
	if err := g.drain(); err != nil {
		return nil, tally{}, err
	}
	issued := ph.next.Load()
	if limit > 0 {
		if issued < limit {
			return nil, tally{}, fmt.Errorf("closed loop issued %d of %d requests in %v", issued, limit, countedLoopTimeout)
		}
		issued = limit // connections that found the count used up overshot it
	}
	return ph, g.collect(issued, 0), nil
}

// openLoop sends the whole table on its Poisson schedule from the
// calling goroutine, which must hold a locked OS thread: no allocation,
// lock or Go-scheduler yield on the send path beyond the client call.
func (g *generator) openLoop(tab *table, start int64) (*phase, tally, error) {
	ph := &phase{tab: tab,
		sendAt: make([]int64, tab.n), recvAt: make([]int64, tab.n), ord: make([]uint32, tab.n)}
	g.ph = ph
	for i := 0; i < tab.n; i++ {
		g.clk.sleepUntil(start + tab.due[i])
		c := g.conns[tab.conn[i]]
		o := c.sent.Load()
		if o-c.recvd.Load() >= ringSize {
			ph.unsent++
			continue
		}
		ph.ord[i] = uint32(o)
		ph.sendAt[i] = g.clk.now()
		if err := c.send(tab, i); err != nil {
			return nil, tally{}, fmt.Errorf("send: %w", err)
		}
	}
	if err := g.drain(); err != nil {
		return nil, tally{}, err
	}
	return ph, g.collect(int64(tab.n), ph.unsent), nil
}
