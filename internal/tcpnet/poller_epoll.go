//go:build linux

package tcpnet

import (
	"errors"
	"math"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"zygos/internal/core"
)

// platformPoller reports whether this build has a raw-fd poller.
const platformPoller = true

// newPollerSet builds the platform pollers, one per runtime worker:
// worker-owned epoll socket sets on Linux, attached to the runtime as
// its core.Poller. It degrades to the portable scan pollers if the
// server forces portable mode, if epoll setup fails, or if the runtime
// already has another transport's poller attached.
func newPollerSet(s *Server, n int) []poller {
	if s.opt.forcePortable {
		return newPortableSet(s, n)
	}
	ws, err := newWorkerSets(s, n)
	if err != nil {
		return newPortableSet(s, n)
	}
	if !s.rt.AttachPoller(ws) {
		ws.closeFDs()
		return newPortableSet(s, n)
	}
	// Teardown quiesces before closing: once DetachPoller returns no
	// worker is inside Poll or Wait, so no descriptor number can be
	// reused under a blocked epoll_wait.
	s.stopSets = func() {
		s.rt.DetachPoller(ws)
		ws.closeFDs()
	}
	out := make([]poller, n)
	for i, ss := range ws.sets {
		out[i] = ss
	}
	return out
}

// rawFD extracts the integer fd behind a RawConn; the value is used only
// as an epoll registration key — every syscall on it goes through a
// SyscallConn callback, which pins the fd against close/reuse.
func rawFD(rc syscall.RawConn) (int, bool) {
	fd := -1
	if err := rc.Control(func(f uintptr) { fd = int(f) }); err != nil || fd < 0 {
		return -1, false
	}
	return fd, true
}

// sysWriteStep performs one nonblocking write on the raw fd (Go marks
// its socket fds O_NONBLOCK). It reports bytes written and whether the
// socket would block.
func sysWriteStep(rc syscall.RawConn, buf []byte) (int, bool, error) {
	var n int
	var werr error
	if cerr := rc.Control(func(fd uintptr) { n, werr = syscall.Write(int(fd), buf) }); cerr != nil {
		return 0, false, cerr
	}
	if n < 0 {
		n = 0
	}
	switch werr {
	case nil:
		return n, false, nil
	case syscall.EAGAIN, syscall.EINTR:
		// EINTR rides the readiness path too: the socket is still
		// writable, so the armed poller retries immediately.
		return n, true, nil
	default:
		return n, false, werr
	}
}

// sysWriteWait writes buf to the raw fd, parking the calling goroutine in
// Go's netpoller (where the socket is still registered) while the socket
// is not writable. It returns once at least one byte is written or the
// socket fails.
func sysWriteWait(rc syscall.RawConn, buf []byte) (int, error) {
	var n int
	var werr error
	cerr := rc.Write(func(fd uintptr) bool {
		n, werr = syscall.Write(int(fd), buf)
		return werr != syscall.EAGAIN
	})
	if cerr != nil {
		return 0, cerr
	}
	if n < 0 {
		n = 0
	}
	if werr == syscall.EINTR {
		werr = nil
	}
	return n, werr
}

// sockSet is one runtime worker's share of the transport: the sockets of
// the connections whose Home() is that worker, in an epoll instance of
// their own (sockEp, level-triggered), and the worker's wait set
// (waitEp): its sockEp, a wake eventfd, and — edge-triggered — the
// sockEps of the other workers, so that data arriving for a worker stuck
// in application code wakes an idle one, which harvests that set on the
// owner's behalf (the paper's idle-loop poll of a remote NIC queue,
// kernel-driven). No goroutine belongs to a set: the worker is the
// poller.
//
// It coexists with Go's netpoller — the sockets remain registered there
// too, and the egress backpressure path waits on that side. One read is
// issued per readiness event so a firehose connection cannot starve its
// siblings; remaining data simply re-reports, level-triggered.
type sockSet struct {
	s      *Server
	sockEp int
	waitEp int
	wakeFd int

	// goEp is how Go's netpoller sees the wait set: an epoll instance of
	// its own, registered there for good, that holds waitEp only while
	// the owner parks through the netpoller (goArmed) — a wait set
	// registered there directly would have every arrival wake a Go
	// scheduler thread for nothing while the owner blocks in epoll_wait
	// itself. deadline is the read deadline last set on it. Owner only.
	goEp     *os.File
	goRC     syscall.RawConn
	goReady  func(uintptr) bool // goRC.Read's callback, built once
	goArmed  bool
	deadline time.Time

	mu    sync.Mutex
	conns map[int32]*serverConn // keyed by fd (the epoll event payload)

	// readMu admits one harvester at a time — the owning worker or a
	// worker proxying for it — and guards everything a harvest touches.
	readMu sync.Mutex
	events []syscall.EpollEvent
	buf    []byte // leased read scratch, handed off on big reads
	// stash is a segment that was read but found the home ingress ring
	// full. Nothing more is read from the set until it has been pushed:
	// the bytes behind it wait in their sockets.
	stash     []byte
	stashConn *serverConn

	waitEvents []syscall.EpollEvent // owner only

	// wakeMu orders Wake, which any goroutine may call at any time,
	// against closing the eventfd.
	wakeMu sync.Mutex
	closed bool
}

// workerSets is the transport's core.Poller: one sockSet per runtime
// worker.
type workerSets struct {
	sets []*sockSet
}

func newWorkerSets(s *Server, n int) (*workerSets, error) {
	ws := &workerSets{}
	fail := func(err error) (*workerSets, error) {
		ws.closeFDs()
		return nil, err
	}
	for i := 0; i < n; i++ {
		ss := &sockSet{
			s: s, sockEp: -1, waitEp: -1, wakeFd: -1,
			conns:      make(map[int32]*serverConn),
			events:     make([]syscall.EpollEvent, 128),
			waitEvents: make([]syscall.EpollEvent, n+1),
		}
		ws.sets = append(ws.sets, ss)
		var err error
		if ss.sockEp, err = syscall.EpollCreate1(syscall.EPOLL_CLOEXEC); err != nil {
			return fail(err)
		}
		if ss.waitEp, err = syscall.EpollCreate1(syscall.EPOLL_CLOEXEC); err != nil {
			return fail(err)
		}
		// eventfd2's flags are the open(2) ones.
		fd, _, errno := syscall.Syscall(syscall.SYS_EVENTFD2, 0, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
		if errno != 0 {
			return fail(errno)
		}
		ss.wakeFd = int(fd)
		if err := ss.openGoEp(); err != nil {
			return fail(err)
		}
	}
	watched := 0
	if s.rt.Proxying() {
		watched = min(n-1, maxWatched)
	}
	for i, ss := range ws.sets {
		if err := epollAdd(ss.waitEp, ss.sockEp, syscall.EPOLLIN); err != nil {
			return fail(err)
		}
		if err := epollAdd(ss.waitEp, ss.wakeFd, syscall.EPOLLIN); err != nil {
			return fail(err)
		}
		for k := 1; k <= watched; k++ {
			other := ws.sets[(i+k)%n]
			// Edge-triggered: one report per arrival, consumed by the
			// wait that returns it. Whether to act on it is the steal
			// scan's decision (it polls the set only if the owner is
			// stuck in application code).
			if err := epollAdd(ss.waitEp, other.sockEp, syscall.EPOLLIN|epollET); err != nil {
				return fail(err)
			}
		}
	}
	return ws, nil
}

// openGoEp creates goEp and proves the nesting works on this kernel by
// arming and disarming it once.
func (ss *sockSet) openGoEp() error {
	fd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return err
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return err
	}
	// A descriptor in non-blocking mode is registered with the netpoller
	// by NewFile; SetReadDeadline fails if that did not take.
	ss.goEp = os.NewFile(uintptr(fd), "zygos-waitset")
	if err := ss.goEp.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	if ss.goRC, err = ss.goEp.SyscallConn(); err != nil {
		return err
	}
	// What the netpoller reports is goEp; what is consumed is the wait
	// set beneath it.
	ss.goReady = func(uintptr) bool {
		n, err := syscall.EpollWait(ss.waitEp, ss.waitEvents, 0)
		if err != nil {
			return true // EINTR: treat as a wake
		}
		ss.drainWake(n)
		return n > 0
	}
	if err := ss.armGo(true); err != nil {
		return err
	}
	return ss.armGo(false)
}

// armGo puts waitEp into goEp or takes it out.
func (ss *sockSet) armGo(on bool) error {
	if ss.goArmed == on {
		return nil
	}
	var err error
	cerr := ss.goRC.Control(func(fd uintptr) {
		if on {
			err = epollAdd(int(fd), ss.waitEp, syscall.EPOLLIN)
		} else {
			err = syscall.EpollCtl(int(fd), syscall.EPOLL_CTL_DEL, ss.waitEp, nil)
		}
	})
	if cerr != nil {
		return cerr
	}
	if err == nil {
		ss.goArmed = on
	}
	return err
}

// maxWatched bounds how many neighbours' socket sets one worker's wait
// set watches (the next maxWatched workers, cyclically), and with it how
// many sleeping workers one arrival wakes: every watcher is woken from
// the kernel's receive path, idle owner or not, so watching everyone
// would charge each packet a wake per core on a large machine. A stuck
// worker none of whose watchers is idle is still reached by the watchdog
// pass of the steal scan.
const maxWatched = 8

// epollET is EPOLLET as the uint32 EpollEvent.Events wants (the syscall
// package's constant is a negative int).
const epollET = 1 << 31

func epollAdd(epfd, fd int, events uint32) error {
	ev := syscall.EpollEvent{Events: events, Fd: int32(fd)}
	return syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, fd, &ev)
}

// closeFDs closes every descriptor of every set and returns the read
// scratch. The caller guarantees no worker is inside Poll or Wait
// (construction failure, or after core.Runtime.DetachPoller returned).
func (ws *workerSets) closeFDs() {
	for _, ss := range ws.sets {
		ss.wakeMu.Lock()
		ss.closed = true
		if ss.wakeFd >= 0 {
			syscall.Close(ss.wakeFd)
		}
		ss.wakeMu.Unlock()
		if ss.goEp != nil {
			ss.goEp.Close()
		}
		if ss.waitEp >= 0 {
			syscall.Close(ss.waitEp)
		}
		if ss.sockEp >= 0 {
			syscall.Close(ss.sockEp)
		}
		ss.readMu.Lock()
		if ss.buf != nil {
			ss.s.rt.PutSegment(ss.buf)
			ss.buf = nil
		}
		if ss.stash != nil {
			ss.s.rt.PutSegment(ss.stash)
			ss.stash, ss.stashConn = nil, nil
		}
		ss.readMu.Unlock()
	}
}

// Poll implements core.Poller.
func (ws *workerSets) Poll(worker int) bool { return ws.sets[worker].poll() }

// Wait implements core.Poller.
func (ws *workerSets) Wait(worker int, timeout time.Duration) bool {
	return ws.sets[worker].wait(timeout)
}

// Wake implements core.Poller.
func (ws *workerSets) Wake(worker int) { ws.sets[worker].wake() }

func (ss *sockSet) addConn(sc *serverConn) error {
	// Register in the lookup table before epoll so an event firing
	// between the two finds its connection. A previous tenant of the same
	// fd number has necessarily been torn down (the fd was closed to be
	// reused), so overwriting is correct.
	ss.mu.Lock()
	ss.conns[int32(sc.fd)] = sc
	ss.mu.Unlock()
	var ctlErr error
	err := sc.rc.Control(func(fd uintptr) {
		ctlErr = epollAdd(ss.sockEp, int(fd), syscall.EPOLLIN)
	})
	if err == nil {
		err = ctlErr
	}
	if err != nil {
		ss.delConn(sc)
		return err
	}
	return nil
}

// armWrite adds EPOLLOUT to the connection's event mask; called with
// sc.mu held, which serializes it against disarm and teardown.
func (ss *sockSet) armWrite(sc *serverConn) {
	if sc.armed {
		return
	}
	ss.ctlMod(sc, syscall.EPOLLIN|syscall.EPOLLOUT)
	sc.armed = true
}

func (ss *sockSet) disarmWrite(sc *serverConn) {
	if !sc.armed {
		return
	}
	ss.ctlMod(sc, syscall.EPOLLIN)
	sc.armed = false
}

func (ss *sockSet) ctlMod(sc *serverConn, events uint32) {
	ev := syscall.EpollEvent{Events: events, Fd: int32(sc.fd)}
	_ = sc.rc.Control(func(fd uintptr) {
		_ = syscall.EpollCtl(ss.sockEp, syscall.EPOLL_CTL_MOD, int(fd), &ev)
	})
}

func (ss *sockSet) delConn(sc *serverConn) {
	ss.mu.Lock()
	if cur, ok := ss.conns[int32(sc.fd)]; ok && cur == sc {
		delete(ss.conns, int32(sc.fd))
	}
	ss.mu.Unlock()
	// Best effort: closing the fd deregisters it anyway.
	_ = sc.rc.Control(func(fd uintptr) {
		_ = syscall.EpollCtl(ss.sockEp, syscall.EPOLL_CTL_DEL, int(fd), nil)
	})
}

// close is a no-op: a set owns no goroutine to stop, and its descriptors
// are closed together (Server.stopSets) once the runtime has let go of
// them.
func (ss *sockSet) close() {}

// wake makes the owner's current or next wait return.
func (ss *sockSet) wake() {
	one := [8]byte{1}
	ss.wakeMu.Lock()
	if !ss.closed {
		// EAGAIN means the counter is at its ceiling: it is readable.
		_, _ = syscall.Write(ss.wakeFd, one[:])
	}
	ss.wakeMu.Unlock()
}

// wait blocks the owning worker until its wait set is ready or the
// timeout passes, and reports whether it was the timeout. Which member
// fired does not matter to the caller — every return is followed by the
// worker's full rescan — except that the wake eventfd is read back to
// zero.
//
// How it blocks is chosen by what this process is. A process that only
// serves blocks its workers in a raw epoll_wait: the kernel wakes the
// worker's own thread, and nothing sits between the wire and the handler
// (waitRaw). But a thread blocked in a raw syscall keeps its P until
// sysmon takes it back, up to 10ms later when the process is mostly
// idle, and with every worker asleep that way a goroutine made runnable
// by Go's netpoller or a timer finds no P to run on. A process that
// also holds client connections of this package — a proxy's backend
// sockets, a test's or a benchmark's in-process clients — has such
// goroutines by construction (the clients' read loops), and measured
// over loopback its round trips went from ~250µs to ~5ms. There the
// workers park in Go's netpoller instead (waitNetpoller): a few
// microseconds and three short syscalls more per park, no P held.
func (ss *sockSet) wait(timeout time.Duration) bool {
	if clientReaders.Load() > 0 {
		return ss.waitNetpoller(timeout)
	}
	return ss.waitRaw(timeout)
}

// drainWake reads the wake eventfd back to zero if it is among the n
// events just returned.
func (ss *sockSet) drainWake(n int) {
	for i := 0; i < n; i++ {
		if int(ss.waitEvents[i].Fd) == ss.wakeFd {
			var cnt [8]byte
			_, _ = syscall.Read(ss.wakeFd, cnt[:])
		}
	}
}

func (ss *sockSet) waitRaw(timeout time.Duration) bool {
	_ = ss.armGo(false)
	// epoll_wait has millisecond resolution; round up so a sub-millisecond
	// watchdog interval does not become a busy poll.
	ms := (timeout + time.Millisecond - 1) / time.Millisecond
	if ms > math.MaxInt32 {
		ms = -1
	}
	// Whatever is runnable on this P's queue would wait behind the
	// blocked thread with the P: yield first, so that this goroutine
	// goes to the back of the global queue and blocks only once the
	// local queue has drained. (Measured on echo-sparse, the same wait
	// without the yield costs 190µs of CPU per request instead of 50;
	// pinning the worker to its thread instead costs 100.)
	runtime.Gosched()
	n, err := syscall.EpollWait(ss.waitEp, ss.waitEvents, int(ms))
	if err != nil {
		// EINTR: treat as a wake. Anything else cannot be retried
		// usefully; the rescan and the watchdog carry on.
		return false
	}
	ss.drainWake(n)
	return n == 0
}

func (ss *sockSet) waitNetpoller(timeout time.Duration) bool {
	if err := ss.armGo(true); err != nil {
		return ss.waitRaw(timeout)
	}
	// The watchdog interval is a bound, not an appointment: one deadline
	// serves every park that ends before it, so the timer is touched once
	// per interval rather than once per park.
	if now := time.Now(); ss.deadline.Sub(now) < timeout {
		ss.deadline = now.Add(2 * timeout)
		_ = ss.goEp.SetReadDeadline(ss.deadline)
	}
	if err := ss.goRC.Read(ss.goReady); err != nil {
		ss.deadline = time.Time{}
		return errors.Is(err, os.ErrDeadlineExceeded)
	}
	return false
}

// poll harvests the set without blocking: a stashed segment first, then
// one read per readable socket and one drain resume per writable one. It
// reports whether it moved anything.
func (ss *sockSet) poll() bool {
	if !ss.readMu.TryLock() {
		return false
	}
	defer ss.readMu.Unlock()
	did := false
	if ss.stash != nil {
		if !ss.pushSegment(ss.stashConn, ss.stash) {
			return false
		}
		did = true
	}
	n, err := syscall.EpollWait(ss.sockEp, ss.events, 0)
	if err != nil {
		return did
	}
	for i := 0; i < n; i++ {
		ev := &ss.events[i]
		ss.mu.Lock()
		sc := ss.conns[ev.Fd]
		ss.mu.Unlock()
		if sc == nil {
			continue
		}
		did = true
		if ev.Events&syscall.EPOLLOUT != 0 {
			sc.pollWritable()
		}
		if ev.Events&(syscall.EPOLLIN|syscall.EPOLLHUP|syscall.EPOLLERR) != 0 {
			ss.readConn(sc)
			if ss.stash != nil {
				break
			}
		}
	}
	return did
}

// readConn issues one nonblocking read and routes the result: data to
// the runtime (zero-copy for big reads), EOF or error to teardown,
// EAGAIN onward. The read rides a SyscallConn callback so a concurrent
// teardown cannot recycle the fd mid-syscall. Caller holds readMu.
func (ss *sockSet) readConn(sc *serverConn) {
	if ss.buf == nil {
		b := ss.s.rt.GetSegment(readBufSize)
		ss.buf = b[:cap(b)]
	}
	var n int
	var rerr error
	cerr := sc.rc.Control(func(fd uintptr) { n, rerr = syscall.Read(int(fd), ss.buf) })
	if cerr != nil {
		sc.teardown()
		return
	}
	if rerr == syscall.EAGAIN || rerr == syscall.EINTR {
		return
	}
	if n <= 0 {
		// Zero-byte read (EOF) or a hard error: the peer is gone.
		sc.teardown()
		return
	}
	sc.touch()
	var seg []byte
	if n >= readHandoffSize {
		seg, ss.buf = ss.buf[:n], nil
	} else {
		seg = append(ss.s.rt.GetSegment(n), ss.buf[:n]...)
	}
	ss.pushSegment(sc, seg)
}

// pushSegment hands one segment to the runtime without blocking. A full
// ring leaves it in the stash and reports false; a dead connection or
// runtime (the runtime has taken the segment back) tears the connection
// down. Caller holds readMu.
func (ss *sockSet) pushSegment(sc *serverConn, seg []byte) bool {
	err := ss.s.rt.TryIngressOwned(sc.cc, seg)
	if errors.Is(err, core.ErrIngressFull) {
		ss.stash, ss.stashConn = seg, sc
		return false
	}
	ss.stash, ss.stashConn = nil, nil
	if err != nil {
		sc.teardown()
	}
	return true
}
