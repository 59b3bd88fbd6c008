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

// sysWriteStep performs one nonblocking write of buf on the
// connection's raw fd (Go marks its socket fds O_NONBLOCK). It reports
// bytes written and whether the socket would block. The syscall runs in
// the connection's writeFn, built once, so a write allocates nothing;
// its operand and results travel in fields that only the drain's single
// writer (sc.writing) touches.
func sysWriteStep(sc *serverConn, buf []byte) (int, bool, error) {
	if sc.writeFn == nil {
		sc.writeFn = func(fd uintptr) { sc.wn, sc.werr = syscall.Write(int(fd), sc.wbuf) }
	}
	sc.wbuf = buf
	cerr := sc.rc.Control(sc.writeFn)
	n, werr := sc.wn, sc.werr
	sc.wbuf = nil
	if cerr != nil {
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
// the connections whose Home() is that worker, and the epoll instances
// the worker polls them through. Every member socket is registered
// directly in three kinds of set:
//
//   - sockEp, level-triggered: the harvest view. A non-blocking wait on
//     it finds every readable member; a worker proxying for the owner
//     harvests through it, and so does the owner when it has reason to
//     think its last wait did not show everything.
//   - the owner's waitEp, level-triggered and EPOLLEXCLUSIVE, tagged as a
//     member (memberTag) so the owner knows which events it can read
//     straight away.
//   - the waitEp of each watcher — the maxWatched workers before this one,
//     cyclically — edge-triggered and EPOLLEXCLUSIVE: data arriving for a
//     worker stuck in application code wakes an idle one, which harvests
//     the set on the owner's behalf (the paper's idle-loop poll of a
//     remote NIC queue, kernel-driven).
//
// The owner's entry comes first on the socket's wait queue, and exclusive
// entries stop the kernel's wake walk at the first epoll instance a
// thread is blocked on: an arrival wakes the owner if it is waiting,
// otherwise the first waiting watcher, never both, and is queued (not
// woken) everywhere before that. The owner's blocking wait returns the
// member events that ended it, and its next home poll reads exactly those
// sockets; the non-blocking wait on sockEp runs only when something says
// more is waiting (poll). Anything that lands while the owner is busy is
// still queued in its level-triggered waitEp and ends its next wait at
// once.
//
// Write readiness lives in wrEp, which holds the sockets whose egress is
// parked (EPOLLOUT) and is itself nested in sockEp and waitEp: exclusive
// entries cannot be modified, so arming a write adds to wrEp rather than
// changing a socket's entry. waitEp also holds the wake eventfd. No
// goroutine belongs to a set: the worker is the poller.
//
// It coexists with Go's netpoller — the sockets remain registered there
// too, and the egress backpressure path waits on that side. One read is
// issued per readiness event so a firehose connection cannot starve its
// siblings; remaining data simply re-reports, level-triggered.
type sockSet struct {
	s        *Server
	sockEp   int
	waitEp   int
	wrEp     int
	wakeFd   int
	watchers []*sockSet // the sets whose waitEp also holds this set's sockets

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
	readMu   sync.Mutex
	events   []syscall.EpollEvent
	wrEvents []syscall.EpollEvent
	buf      []byte        // leased read scratch, handed off on big reads
	readFn   func(uintptr) // reads buf into rn/rerr; built once
	rn       int
	rerr     error
	// more asks the next home poll for the non-blocking wait on sockEp:
	// a read filled the buffer, an events array came back full, or a
	// segment was stashed — readiness the owner's wait may not show.
	more bool
	// stash is a segment that was read but found the home ingress ring
	// full. Nothing more is read from the set until it has been pushed:
	// the bytes behind it wait in their sockets.
	stash     []byte
	stashConn *serverConn

	// waitEvents[:ready] are the member events the owner's last wait
	// returned and no poll has harvested yet; waitFull says that wait
	// filled the array. Owner only.
	waitEvents []syscall.EpollEvent
	ready      int
	waitFull   bool

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

// harvestEvents sizes a set's event arrays: how many readiness events one
// wait or poll takes at a time.
const harvestEvents = 128

func newWorkerSets(s *Server, n int) (*workerSets, error) {
	ws := &workerSets{}
	fail := func(err error) (*workerSets, error) {
		ws.closeFDs()
		return nil, err
	}
	for i := 0; i < n; i++ {
		ss := &sockSet{
			s: s, sockEp: -1, waitEp: -1, wrEp: -1, wakeFd: -1,
			conns:      make(map[int32]*serverConn),
			events:     make([]syscall.EpollEvent, harvestEvents),
			wrEvents:   make([]syscall.EpollEvent, 32),
			waitEvents: make([]syscall.EpollEvent, harvestEvents),
		}
		ss.readFn = func(fd uintptr) { ss.rn, ss.rerr = syscall.Read(int(fd), ss.buf) }
		ws.sets = append(ws.sets, ss)
		var err error
		for _, ep := range []*int{&ss.sockEp, &ss.waitEp, &ss.wrEp} {
			if *ep, err = syscall.EpollCreate1(syscall.EPOLL_CLOEXEC); err != nil {
				return fail(err)
			}
		}
		// eventfd2's flags are the open(2) ones.
		fd, _, errno := syscall.Syscall(syscall.SYS_EVENTFD2, 0, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
		if errno != 0 {
			return fail(errno)
		}
		ss.wakeFd = int(fd)
		// The eventfd's entry is exclusive only to prove that this kernel
		// takes EPOLLEXCLUSIVE (Linux 4.5+): one that refuses it fails the
		// set-up here, and the transport falls back to the portable
		// pollers.
		if err := epollAdd(ss.waitEp, ss.wakeFd, syscall.EPOLLIN|epollExclusive, 0); err != nil {
			return fail(err)
		}
		if err := epollAdd(ss.waitEp, ss.wrEp, syscall.EPOLLIN, memberTag); err != nil {
			return fail(err)
		}
		if err := epollAdd(ss.sockEp, ss.wrEp, syscall.EPOLLIN, 0); err != nil {
			return fail(err)
		}
		if err := ss.openGoEp(); err != nil {
			return fail(err)
		}
	}
	watched := 0
	if s.rt.Proxying() {
		watched = min(n-1, maxWatched)
	}
	for i, ss := range ws.sets {
		for k := 1; k <= watched; k++ {
			ss.watchers = append(ss.watchers, ws.sets[(i-k+n)%n])
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
		ss.collect(n)
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
			err = epollAdd(int(fd), ss.waitEp, syscall.EPOLLIN, 0)
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

// maxWatched bounds how many neighbours watch one worker's sockets (the
// maxWatched workers before it, cyclically), and with it the epoll
// registrations per socket (2 + watched, besides Go's netpoller) and the
// epoll_ctl calls an accept costs. An arrival wakes at most one worker
// whatever the bound. A stuck worker none of whose watchers is idle is
// still reached by the watchdog pass of the steal scan.
const maxWatched = 8

// Event bits the syscall package spells as negative ints or lacks,
// typed as the uint32 EpollEvent.Events wants.
const (
	epollET        = 1 << 31
	epollExclusive = 1 << 28
)

// memberTag marks, in EpollEvent.Pad, the wait-set entries of a worker's
// own set (its sockets and wrEp) as opposed to a watched neighbour's
// sockets and the wake eventfd.
const memberTag = 1

func epollAdd(epfd, fd int, events uint32, tag int32) error {
	ev := syscall.EpollEvent{Events: events, Fd: int32(fd), Pad: tag}
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
		for _, ep := range []int{ss.waitEp, ss.sockEp, ss.wrEp} {
			if ep >= 0 {
				syscall.Close(ep)
			}
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
func (ws *workerSets) Poll(worker int, home bool) bool { return ws.sets[worker].poll(home) }

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
		// The owner's exclusive entry goes on the socket's wait queue
		// before any watcher's: it is the one the wake walk tries first.
		ctlErr = epollAdd(ss.sockEp, int(fd), syscall.EPOLLIN, 0)
		if ctlErr == nil {
			ctlErr = epollAdd(ss.waitEp, int(fd), syscall.EPOLLIN|epollExclusive, memberTag)
		}
		for _, w := range ss.watchers {
			if ctlErr == nil {
				ctlErr = epollAdd(w.waitEp, int(fd), syscall.EPOLLIN|epollET|epollExclusive, 0)
			}
		}
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

// armWrite puts the connection in wrEp for write readiness; called with
// sc.mu held, which serializes it against disarm and teardown.
func (ss *sockSet) armWrite(sc *serverConn) {
	if sc.armed {
		return
	}
	_ = sc.rc.Control(func(fd uintptr) { _ = epollAdd(ss.wrEp, int(fd), syscall.EPOLLOUT, 0) })
	sc.armed = true
}

func (ss *sockSet) disarmWrite(sc *serverConn) {
	if !sc.armed {
		return
	}
	_ = sc.rc.Control(func(fd uintptr) { _ = syscall.EpollCtl(ss.wrEp, syscall.EPOLL_CTL_DEL, int(fd), nil) })
	sc.armed = false
}

// delConn forgets the connection. Its epoll entries need no removal:
// teardown closes the socket next, which takes it out of every set.
func (ss *sockSet) delConn(sc *serverConn) {
	ss.mu.Lock()
	if cur, ok := ss.conns[int32(sc.fd)]; ok && cur == sc {
		delete(ss.conns, int32(sc.fd))
	}
	ss.mu.Unlock()
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
// timeout passes, and reports whether it was the timeout. The member
// events that ended it are kept for the next home poll (collect); a
// watched neighbour's event is only a wake — the steal scan that follows
// decides whether to act on it.
//
// How it blocks is chosen by what this process is. A process that only
// serves blocks its workers in a raw epoll_wait: the kernel wakes the
// worker's own thread, and nothing sits between the wire and the handler
// (waitRaw). But a thread blocked in a raw syscall keeps its P until
// sysmon takes it back, up to 10ms later when the process is mostly
// idle, and with every worker asleep that way a goroutine made runnable
// by Go's netpoller or a timer finds no P to run on. Every serving
// process has one such goroutine per listener, its accept loop, so
// there a new connection's first request can wait that long
// (accepting inside the worker sets would end it). A process that
// also holds client connections of this package (a proxy's backend
// sockets, a test's or a benchmark's in-process clients) has them on
// every round trip, in the clients' read loops, and measured over
// loopback its round trips went from ~250µs to ~5ms. There the
// workers park in Go's netpoller instead (waitNetpoller): a few
// microseconds and three short syscalls more per park, no P held. No
// thread blocks on a wait set itself then, so the exclusive entries do
// not stop the wake walk and every watcher parked that way is woken too.
func (ss *sockSet) wait(timeout time.Duration) bool {
	if clientReaders.Load() > 0 {
		return ss.waitNetpoller(timeout)
	}
	return ss.waitRaw(timeout)
}

// collect takes the n events a wait returned: it reads the wake eventfd
// back to zero if it is among them and keeps the member events, in
// place, for the next home poll.
func (ss *sockSet) collect(n int) {
	k := 0
	for i := 0; i < n; i++ {
		ev := ss.waitEvents[i]
		switch {
		case int(ev.Fd) == ss.wakeFd:
			var cnt [8]byte
			_, _ = syscall.Read(ss.wakeFd, cnt[:])
		case ev.Pad == memberTag:
			ss.waitEvents[k] = ev
			k++
		}
	}
	ss.ready = k
	ss.waitFull = n == len(ss.waitEvents)
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
	ss.collect(n)
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

// poll harvests the set without blocking and reports whether it moved
// anything: a stashed segment first, then one read per readable socket
// and one drain resume per writable one. The owner's home poll reads the
// member events its last wait returned and skips the wait on sockEp
// unless more is set — whatever arrived since is queued in its waitEp and
// ends its next wait at once. A proxier's poll waits on sockEp.
func (ss *sockSet) poll(home bool) bool {
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
	if home {
		evs := ss.waitEvents[:ss.ready]
		ss.ready = 0
		if ss.waitFull {
			ss.waitFull, ss.more = false, true
		}
		if ss.harvest(evs) {
			did = true
		}
		if !ss.more || ss.stash != nil {
			return did
		}
	}
	ss.more = false
	n, err := syscall.EpollWait(ss.sockEp, ss.events, 0)
	if err != nil {
		ss.more = true
		return did
	}
	if n == len(ss.events) {
		ss.more = true
	}
	return ss.harvest(ss.events[:n]) || did
}

// harvest acts on readiness events of member sockets (and of wrEp). It
// stops at a stash. Caller holds readMu.
func (ss *sockSet) harvest(evs []syscall.EpollEvent) bool {
	did := false
	for i := range evs {
		fd := evs[i].Fd
		if int(fd) == ss.wrEp {
			if ss.pollWrites() {
				did = true
			}
			continue
		}
		ss.mu.Lock()
		sc := ss.conns[fd]
		ss.mu.Unlock()
		if sc == nil {
			continue
		}
		did = true
		ss.readConn(sc)
		if ss.stash != nil {
			break
		}
	}
	return did
}

// pollWrites resumes the parked drains whose sockets are writable.
// Caller holds readMu.
func (ss *sockSet) pollWrites() bool {
	n, err := syscall.EpollWait(ss.wrEp, ss.wrEvents, 0)
	if err != nil {
		ss.more = true
		return false
	}
	if n == len(ss.wrEvents) {
		ss.more = true
	}
	did := false
	for i := 0; i < n; i++ {
		ss.mu.Lock()
		sc := ss.conns[ss.wrEvents[i].Fd]
		ss.mu.Unlock()
		if sc != nil {
			sc.pollWritable()
			did = true
		}
	}
	return did
}

// readConn issues one nonblocking read and routes the result: data to
// the runtime (zero-copy for big reads), EOF or error to teardown,
// EAGAIN onward. The read rides a SyscallConn callback so a concurrent
// teardown cannot recycle the fd mid-syscall; the callback is the set's
// readFn, so a read allocates nothing. Caller holds readMu.
func (ss *sockSet) readConn(sc *serverConn) {
	if ss.buf == nil {
		b := ss.s.rt.GetSegment(readBufSize)
		ss.buf = b[:cap(b)]
	}
	cerr := sc.rc.Control(ss.readFn)
	n, rerr := ss.rn, ss.rerr
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
	if n == len(ss.buf) {
		ss.more = true // the socket may hold more than one read took
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
		// The harvest stops here; whatever it left unread needs the full
		// wait on sockEp once the stash has gone.
		ss.stash, ss.stashConn, ss.more = seg, sc, true
		return false
	}
	ss.stash, ss.stashConn = nil, nil
	if err != nil {
		sc.teardown()
	}
	return true
}
