// Package tcpnet adapts the runtime to real TCP sockets using only the
// standard library, with a run-to-completion, connection-scalable data
// plane: on Linux each runtime worker polls its own sockets, so a
// request's home path is epoll_wait → read → parse → handler → write on
// one OS thread with no goroutine or thread hand-off, and the transport
// runs no goroutines beyond one accept loop per listener and the
// registry sweeper — independent of the connection count.
//
// Worker-owned socket sets (Linux). The transport keeps one epoll socket
// set per runtime worker and registers a connection with the set of its
// RSS home, Conn.Home(). It attaches to the runtime as its core.Poller:
// a worker harvests its own set, non-blocking, at the top of every loop
// iteration, and when it has nothing to do it sleeps inside its wait set
// — its socket set, a wake eventfd, and, edge-triggered, the socket sets
// of the other workers — instead of on a Go channel. Data arriving for a
// worker that is stuck in application code therefore wakes an idle
// worker, which harvests that set on the owner's behalf and then proxies
// and steals as usual: the paper's idle loop polling a remote core's NIC
// queue (§5), driven by the kernel instead of by a third thread. The
// sockets stay registered with Go's netpoller too; only the egress
// backpressure path waits on that side. Reads and writes go directly to
// the connection fds, always inside SyscallConn callbacks so teardown
// can never race an in-flight syscall onto a recycled fd.
//
// Invariants of that design:
//
//   - In a process that only serves, a blocked worker blocks in a raw
//     epoll_wait — the cheapest wake there is — and keeps its P. It
//     yields first, so nothing already runnable is left behind on that
//     P, but a goroutine that Go's netpoller makes runnable while every
//     worker is blocked that way waits for sysmon to take a P back, up
//     to ~10ms on a mostly idle process. The accept loops are such
//     goroutines: a new connection can wait that long to be accepted,
//     so its first round trip is slow while later ones are not. In a
//     process that also holds client connections of this package (whose
//     read loops wait on Go's netpoller and need a P the moment a reply
//     lands) a worker parks in Go's netpoller instead and holds no P at
//     all (sockSet.wait).
//   - One reader per socket set at a time (owner or proxier, TryLock),
//     one read per readiness event, level-triggered, so a firehose
//     connection cannot starve its siblings.
//   - A worker never blocks on its own ingress ring: a harvest pushes
//     with core.Runtime.TryIngressOwned and, when the ring is full, stops
//     reading and leaves the bytes in the socket — epoll re-reports them
//     and TCP's window is the backpressure.
//   - Wakes are lost-wakeup-free without the watchdog (core's parker
//     documents the protocol), and the eventfd is read before the dedupe
//     token is cleared.
//   - Server.Close detaches from the runtime, which returns once no
//     worker is inside Poll or Wait, and only then closes the epoll and
//     eventfd descriptors.
//
// Everywhere else — and on Linux for a listener that yields connections
// without syscall access, for a second transport sharing a runtime, or
// when WithPortablePoller forces it for test coverage — portable poller
// goroutines scan their connections with short read deadlines and feed
// the ingress rings through the blocking Runtime.Ingress path; same
// state machine, worse constants.
//
// Ingress: a harvest leases read segments from the runtime's pool and
// hands large reads over zero-copy (ownership transfers, the set leases
// a fresh segment); small reads are copied so the retained scratch is
// per-set, not per-connection — an idle connection pins no read-buffer
// memory at all, by construction.
//
// Egress: the runtime coalesces in-order completions into one
// WriteReply batch; WriteReply stages the batch in the connection's
// pending buffer and the calling goroutine becomes the writer if none
// is active, draining with nonblocking writes. A stalled peer parks the
// connection's egress — write readiness is armed in the socket set
// (EPOLLOUT on Linux) and whichever worker harvests the set resumes the
// drain — instead of pinning a flusher goroutine. Append order is
// transmit order, so the per-connection reply ordering guarantee
// survives, and the staging buffer is bounded by a high-water mark that
// blocks WriteReply (the same backpressure a synchronous socket write
// used to provide). A writer blocked there drives the drain itself,
// parked in Go's netpoller, so it never depends on a worker — possibly
// itself — being free to service the EPOLLOUT.
//
// The server also keeps a connection registry with idle-memory
// accounting: a sweeper shrinks quiet connections' retained egress
// scratch (transport staging and the runtime's TX batch buffer) back to
// the shared pool, and — when an idle timeout is configured — reaps
// connections quiet past the deadline.
package tcpnet

import (
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"zygos/internal/core"
)

// readBufSize is the poller-owned read buffer leased from the segment
// pool and handed to the kernel.
const readBufSize = 64 << 10

// readHandoffSize is the read size at which a poller hands its whole
// buffer to the runtime zero-copy instead of copying into a right-sized
// pooled segment; below it the copy is cheaper than churning another
// readBufSize lease through the pool.
const readHandoffSize = 8 << 10

// closeDrainTimeout bounds how long Server.Close waits for staged
// egress to drain before severing the sockets.
const closeDrainTimeout = 500 * time.Millisecond

// poller multiplexes read and write readiness for the connections homed
// on one runtime worker: a worker-owned socket set, or a portable poller
// goroutine. addConn registers a connection; armWrite (called with the
// connection's mutex held) asks for write-readiness notification after a
// short write; delConn removes a connection during teardown (idempotent,
// called without the connection's mutex); close stops the poller's
// goroutine, if it has one, and waits for it.
type poller interface {
	addConn(sc *serverConn) error
	armWrite(sc *serverConn)
	disarmWrite(sc *serverConn)
	delConn(sc *serverConn)
	close()
}

// options collects Server construction knobs.
type options struct {
	forcePortable bool
	idleTimeout   time.Duration
	idleAfter     time.Duration
	sweepInterval time.Duration
}

// Option configures a Server.
type Option func(*options)

func defaultOptions() options {
	return options{
		idleAfter:     5 * time.Second,
		sweepInterval: time.Second,
	}
}

// NetStats is a snapshot of the transport's connection registry.
type NetStats struct {
	// Open is the number of currently open connections.
	Open int
	// Idle is how many open connections have been quiet past the idle
	// threshold (WithIdleThreshold, default 5s).
	Idle int
	// Accepted counts connections ever accepted.
	Accepted uint64
	// Reaped counts connections closed by the idle-timeout reaper
	// (WithIdleTimeout; zygos.Config.IdleTimeout).
	Reaped uint64
	// Pollers is the number of poll sets: one per runtime worker —
	// worker-owned socket sets on Linux (no goroutines), portable poller
	// goroutines elsewhere — plus the shared portable fallback once a
	// connection without a raw fd has needed it.
	Pollers int
	// AcceptShards is the number of listeners currently being served
	// (one accept-loop goroutine each) — with ListenShards, the
	// SO_REUSEPORT accept shard count.
	AcceptShards int
	// EgressBytesResident is the total capacity of per-connection egress
	// staging buffers currently retained — the transport's idle-memory
	// accounting figure.
	EgressBytesResident int64
}

// Server accepts TCP connections and feeds them to a runtime.
type Server struct {
	rt  *core.Runtime
	opt options

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	pollers   []poller // indexed by runtime worker
	stopSets  func()   // detaches and closes worker-owned socket sets, if any
	fallback  poller   // portable poller for fd-less conns on Linux, lazily created
	started   bool
	closed    bool
	sweepStop chan struct{}
	sweepDone chan struct{}

	accepted atomic.Uint64
	reaped   atomic.Uint64
}

// NewServer binds a server to a runtime. No goroutines start until the
// first Serve call.
func NewServer(rt *core.Runtime, opts ...Option) *Server {
	s := &Server{
		rt:        rt,
		opt:       defaultOptions(),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*serverConn]struct{}),
	}
	for _, o := range opts {
		o(&s.opt)
	}
	return s
}

// WithPortablePoller forces the portable deadline-scan poller even where
// an OS readiness facility is available; tests use it to cover the
// fallback path on Linux.
func WithPortablePoller() Option {
	return func(o *options) { o.forcePortable = true }
}

// WithIdleTimeout enables idle-connection reaping: connections with no
// wire activity for d are closed by the sweeper and their pooled
// buffers returned. Zero (the default) disables reaping.
func WithIdleTimeout(d time.Duration) Option {
	return func(o *options) { o.idleTimeout = d }
}

// WithIdleThreshold sets how long a connection must be quiet before the
// sweeper counts it idle and parks its retained buffers (default 5s).
func WithIdleThreshold(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.idleAfter = d
		}
	}
}

// WithSweepInterval sets the registry sweeper's scan period (default
// 1s). Tests shorten it to exercise reaping quickly.
func WithSweepInterval(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.sweepInterval = d
		}
	}
}

// startLocked brings up the registry sweeper on first use. The poll sets
// come up with the first connection that needs them (pollerForLocked).
// Caller holds s.mu.
func (s *Server) startLocked() {
	if s.started {
		return
	}
	s.started = true
	s.sweepStop = make(chan struct{})
	s.sweepDone = make(chan struct{})
	go s.sweep()
}

// Serve accepts connections on l until l is closed or Close is called.
// It always returns a non-nil error (net.ErrClosed after Close). Serve
// may be called concurrently with different listeners — that is how
// accept sharding works: one Serve loop per ListenShards listener.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.startLocked()
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return net.ErrClosed
			}
			return err
		}
		if err := s.addConn(nc); err != nil {
			nc.Close()
			if err == net.ErrClosed {
				return err
			}
		}
	}
}

// addConn registers an accepted connection with the runtime, the
// registry, and a poller.
func (s *Server) addConn(nc net.Conn) error {
	if tc, ok := nc.(*net.TCPConn); ok {
		// Microsecond-scale RPC cannot afford Nagle delays.
		_ = tc.SetNoDelay(true)
	}
	sc := &serverConn{srv: s, nc: nc, fd: -1}
	sc.cond = sync.NewCond(&sc.mu)
	sc.touch()
	if !s.opt.forcePortable {
		if scc, ok := nc.(syscall.Conn); ok {
			if rc, err := scc.SyscallConn(); err == nil {
				if fd, ok := rawFD(rc); ok {
					sc.rc, sc.fd = rc, fd
				}
			}
		}
	}
	// The core connection must exist before the poller can deliver the
	// first read AND before the conn is published to the registry: the
	// sweeper walks the registry and dereferences sc.cc, so assigning it
	// after publication races (a fast sweep tick could even see nil).
	// NewConn only allocates — on the closed path below the orphan holds
	// no runtime references and is simply collected.
	sc.cc = s.rt.NewConn(sc)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	p := s.pollerForLocked(sc)
	sc.p = p
	s.conns[sc] = struct{}{}
	s.accepted.Add(1)
	s.mu.Unlock()
	if err := p.addConn(sc); err != nil {
		sc.teardown()
	}
	return nil
}

// pollerForLocked assigns a connection to the poll set of its home
// worker when the connection supports the platform poller, the shared
// portable fallback otherwise. The per-worker sets are built — and, on
// Linux, attached to the runtime — by the first connection assigned to
// them: until the transport has a socket for the workers to watch they
// keep parking on their channels, inside the Go scheduler, which is
// kinder to the process's other goroutines than a thread blocked in
// epoll_wait. Caller holds s.mu.
func (s *Server) pollerForLocked(sc *serverConn) poller {
	if sc.fd < 0 && !s.pollersArePortable() {
		if s.fallback == nil {
			s.fallback = newPortablePoller(s)
		}
		return s.fallback
	}
	if s.pollers == nil {
		s.pollers = newPollerSet(s, s.rt.Cores())
	}
	return s.pollers[sc.cc.Home()]
}

// pollersArePortable reports whether the per-worker poll sets are (or
// will be) the portable implementation: non-Linux builds, forced
// portable mode, epoll setup failure, or a runtime whose poller hook is
// already taken.
func (s *Server) pollersArePortable() bool {
	if s.pollers == nil {
		return s.opt.forcePortable || !platformPoller
	}
	_, ok := s.pollers[0].(*portablePoller)
	return ok
}

// removeConn deletes a connection from the registry; teardown calls it
// exactly once per connection.
func (s *Server) removeConn(sc *serverConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
}

// snapshotConns returns the current connection set.
func (s *Server) snapshotConns() []*serverConn {
	s.mu.Lock()
	out := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		out = append(out, sc)
	}
	s.mu.Unlock()
	return out
}

// sweep is the registry sweeper: every sweepInterval it parks idle
// connections' retained buffers, and — when an idle timeout is
// configured — reaps connections quiet past the deadline.
func (s *Server) sweep() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.opt.sweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		for _, sc := range s.snapshotConns() {
			quiet := time.Duration(now - sc.lastActive.Load())
			if s.opt.idleTimeout > 0 && quiet > s.opt.idleTimeout {
				s.reaped.Add(1)
				sc.teardown()
				continue
			}
			if quiet > s.opt.idleAfter {
				sc.shrinkIdle()
			}
		}
	}
}

// NetStats snapshots the connection registry.
func (s *Server) NetStats() NetStats {
	s.mu.Lock()
	st := NetStats{
		Open:         len(s.conns),
		Accepted:     s.accepted.Load(),
		Reaped:       s.reaped.Load(),
		Pollers:      len(s.pollers),
		AcceptShards: len(s.listeners),
	}
	if s.fallback != nil {
		st.Pollers++
	}
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	now := time.Now().UnixNano()
	for _, sc := range conns {
		if time.Duration(now-sc.lastActive.Load()) > s.opt.idleAfter {
			st.Idle++
		}
		sc.mu.Lock()
		st.EgressBytesResident += int64(cap(sc.pending))
		sc.mu.Unlock()
	}
	return st
}

// Close stops accepting, drains staged egress briefly so already
// completed replies reach the wire, then tears down all connections,
// the sweeper, and the poll sets — worker-owned sets are detached from
// the runtime, which waits for every worker to leave them, before their
// descriptors close.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	started := s.started
	pollers := s.pollers
	stopSets := s.stopSets
	fallback := s.fallback
	s.mu.Unlock()

	conns := s.snapshotConns()
	deadline := time.Now().Add(closeDrainTimeout)
	for _, sc := range conns {
		sc.drainEgress(deadline)
	}
	for _, sc := range conns {
		sc.teardown()
	}
	if started {
		close(s.sweepStop)
		<-s.sweepDone
		for _, p := range pollers {
			p.close()
		}
		if fallback != nil {
			fallback.close()
		}
		if stopSets != nil {
			stopSets()
		}
	}
}
