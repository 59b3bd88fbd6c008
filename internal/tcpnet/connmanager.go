package tcpnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zygos/internal/bufpool"
	"zygos/internal/proto"
)

// ErrManagerClosed is returned by ConnManager and ManagedCaller
// operations after the manager shuts down.
var ErrManagerClosed = errors.New("tcpnet: conn manager closed")

// ErrDialBackoff is wrapped into errors returned while a socket is
// sitting out its redial backoff after a failed dial: the send fails
// fast instead of re-dialing a known-dead backend on every request.
var ErrDialBackoff = errors.New("tcpnet: redial backing off")

// Redial backoff bounds: the first retry waits about dialBackoffBase
// (jittered ±50% so a dead backend's callers don't redial in
// lockstep), doubling per consecutive failure up to dialBackoffMax.
const (
	dialBackoffBase = 20 * time.Millisecond
	dialBackoffMax  = 2 * time.Second
)

// ConnManager multiplexes many logical callers onto a small fixed set
// of TCP connections. A load generator (or an application tier) with
// thousands of logical clients would otherwise hold thousands of
// sockets and reader goroutines; the manager holds at most `sockets` of
// each, assigns callers round-robin, and coalesces small concurrent
// requests from co-located callers into single write syscalls.
//
// Reply matching is per socket: each physical connection owns a
// Dispatcher, request IDs are allocated from it, and every caller on
// that socket shares it — the v1/v2/v3 reply-matching semantics are
// exactly those of a dedicated Client.
//
// Ownership rules: NewCaller hands out a view, not a connection —
// closing a ManagedCaller only fails that caller's future sends and
// never closes the shared socket (other callers keep using it). Closing
// the manager closes every socket and fails every outstanding request.
// Sockets are dialed lazily on a caller's first send and redialed on a
// later send after a socket-level failure.
type ConnManager struct {
	addr    string
	timeout time.Duration
	socks   []*managedSock
	next    atomic.Uint64
	closed  atomic.Bool
	dials   atomic.Uint64
}

// NewConnManager creates a manager holding at most sockets physical
// connections to addr. Sockets are dialed lazily.
func NewConnManager(addr string, sockets int, timeout time.Duration) *ConnManager {
	if sockets < 1 {
		sockets = 1
	}
	m := &ConnManager{addr: addr, timeout: timeout, socks: make([]*managedSock, sockets)}
	for i := range m.socks {
		m.socks[i] = &managedSock{m: m}
	}
	return m
}

// NewCaller returns a logical caller multiplexed onto one of the
// manager's sockets (round-robin assignment).
func (m *ConnManager) NewCaller() (*ManagedCaller, error) {
	if m.closed.Load() {
		return nil, ErrManagerClosed
	}
	i := m.next.Add(1) - 1
	c := &ManagedCaller{sock: m.socks[i%uint64(len(m.socks))]}
	c.Calls = proto.Calls{Doer: c}
	return c, nil
}

// Dials reports how many TCP dial attempts the manager has made over
// its lifetime — successful or not. Tests use it to prove redial
// backoff is rate-limiting dial storms against a dead backend.
func (m *ConnManager) Dials() uint64 { return m.dials.Load() }

// OnDepth installs f on every socket to receive the server's scheduling
// depth from piggybacked health frames; the hook survives redials.
// Passing nil uninstalls. f must be cheap — it runs on read loops.
func (m *ConnManager) OnDepth(f func(depth uint32)) {
	for _, ms := range m.socks {
		ms.setDepthFunc(f)
	}
}

// Sockets reports how many physical connections are currently dialed.
func (m *ConnManager) Sockets() int {
	n := 0
	for _, ms := range m.socks {
		ms.mu.Lock()
		if ms.nc != nil {
			n++
		}
		ms.mu.Unlock()
	}
	return n
}

// Close tears down every socket; outstanding requests fail and future
// operations return ErrManagerClosed.
func (m *ConnManager) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	for _, ms := range m.socks {
		ms.close(ErrManagerClosed)
	}
}

// managedSock is one physical connection: a lazily dialed socket, its
// reply dispatcher, and the write-coalescing stage. The first sender
// becomes the flusher and keeps writing while co-located callers append
// — many small concurrent requests leave in one syscall, the gather
// batching a per-caller socket could never provide.
type managedSock struct {
	m *ConnManager

	mu       sync.Mutex
	nc       net.Conn
	disp     *proto.Dispatcher
	pending  []byte
	spare    []byte
	flushing bool
	err      error

	// onDepth is the depth hook re-installed on each redial's fresh
	// dispatcher.
	onDepth func(depth uint32)

	// Redial backoff: after a failed dial, sends before nextDial fail
	// fast with the sticky dial error instead of dialing again. The
	// window grows exponentially with consecutive failures and is
	// jittered so a fleet of callers doesn't synchronize its redials
	// into a dial storm when the backend comes back.
	dialFails int
	nextDial  time.Time
	dialErr   error
}

// ensureDialedLocked dials the socket on first use (and redials after a
// failure). Caller holds ms.mu; the dial happens under it, which only
// ever stalls co-located callers during connection setup. While a
// failed dial's backoff window is open, sends fail fast with the sticky
// dial error — a dead backend costs its callers one jittered dial per
// window, not one per request.
func (ms *managedSock) ensureDialedLocked() error {
	if ms.m.closed.Load() {
		return ErrManagerClosed
	}
	if ms.nc != nil {
		return nil
	}
	if !ms.nextDial.IsZero() && time.Now().Before(ms.nextDial) {
		return fmt.Errorf("%w (until %s): %w",
			ErrDialBackoff, ms.nextDial.Format("15:04:05.000"), ms.dialErr)
	}
	ms.m.dials.Add(1)
	nc, err := net.DialTimeout("tcp", ms.m.addr, ms.m.timeout)
	if err != nil {
		// Exponential backoff with ±50% jitter: window = base<<fails,
		// capped, then scaled by a uniform factor in [0.5, 1.5).
		ms.dialFails++
		window := dialBackoffBase << (ms.dialFails - 1)
		if window > dialBackoffMax || window <= 0 {
			window = dialBackoffMax
		}
		window = time.Duration(float64(window) * (0.5 + rand.Float64()))
		ms.nextDial = time.Now().Add(window)
		ms.dialErr = err
		return err
	}
	ms.dialFails = 0
	ms.nextDial = time.Time{}
	ms.dialErr = nil
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	ms.nc = nc
	ms.disp = proto.NewDispatcher()
	ms.disp.SetDepthFunc(ms.onDepth)
	ms.err = nil
	clientReaders.Add(1)
	go ms.readLoop(nc, ms.disp)
	return nil
}

// readLoop feeds one socket's replies to its dispatcher; it is the only
// per-socket goroutine, shared by every caller on the socket.
func (ms *managedSock) readLoop(nc net.Conn, disp *proto.Dispatcher) {
	defer clientReaders.Add(-1)
	buf := make([]byte, readBufSize)
	for {
		n, err := nc.Read(buf)
		if n > 0 {
			if derr := disp.Feed(buf[:n]); derr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	ms.mu.Lock()
	if ms.nc == nc {
		ms.failLocked(net.ErrClosed)
	}
	ms.mu.Unlock()
	disp.Close()
	disp.ReleaseParser()
}

// failLocked marks the socket dead and closes it; a later send redials.
// Staged bytes are dropped — they carry the dead dispatcher's request
// IDs and must not leak onto a redialed socket. Caller holds ms.mu.
func (ms *managedSock) failLocked(err error) {
	if ms.nc != nil {
		ms.nc.Close()
		ms.nc = nil
	}
	ms.pending = ms.pending[:0]
	if ms.err == nil {
		ms.err = err
	}
}

// close tears the socket down for good (manager shutdown).
func (ms *managedSock) close(err error) {
	ms.mu.Lock()
	disp := ms.disp
	ms.failLocked(err)
	ms.mu.Unlock()
	if disp != nil {
		disp.Close()
	}
}

// setDepthFunc installs the depth hook on the live dispatcher and
// remembers it for every redial's fresh one.
func (ms *managedSock) setDepthFunc(f func(depth uint32)) {
	ms.mu.Lock()
	ms.onDepth = f
	if ms.disp != nil {
		ms.disp.SetDepthFunc(f)
	}
	ms.mu.Unlock()
}

// do issues one call on the socket, dialing first if needed: the
// socket's current dispatcher registers it, and the encoded frame is
// staged for the flush-combining write. The bytes are copied into the
// coalescing buffer, so the frame returns to the pool immediately.
func (ms *managedSock) do(call proto.Call) error {
	ms.mu.Lock()
	if err := ms.ensureDialedLocked(); err != nil {
		ms.mu.Unlock()
		return err
	}
	disp := ms.disp
	ms.mu.Unlock()
	m, err := disp.Issue(call)
	if err != nil {
		return err
	}
	frame := proto.AppendMessage(bufpool.Get(proto.FrameSizeMsg(m)), m)
	err = ms.send(frame)
	bufpool.Put(frame)
	if err != nil {
		return disp.Fail(m, err)
	}
	return nil
}

// send stages frame and flushes the socket: if a flusher is already
// active the bytes ride its next write; otherwise the caller becomes
// the flusher and loops until co-located callers stop appending.
func (ms *managedSock) send(frame []byte) error {
	ms.mu.Lock()
	if err := ms.ensureDialedLocked(); err != nil {
		ms.mu.Unlock()
		return err
	}
	ms.pending = append(ms.pending, frame...)
	if ms.flushing {
		ms.mu.Unlock()
		return nil
	}
	ms.flushing = true
	nc := ms.nc
	for ms.err == nil && len(ms.pending) > 0 {
		buf := ms.pending
		ms.pending = ms.spare[:0]
		ms.spare = nil
		ms.mu.Unlock()
		_, werr := nc.Write(buf)
		ms.mu.Lock()
		ms.spare = buf[:0]
		if werr != nil {
			disp := ms.disp
			ms.disp = nil
			ms.failLocked(werr)
			ms.flushing = false
			ms.mu.Unlock()
			if disp != nil {
				disp.Close()
			}
			return werr
		}
	}
	err := ms.err
	ms.flushing = false
	ms.mu.Unlock()
	return err
}

// ManagedCaller is one logical caller multiplexed over a ConnManager
// socket. Its calling surface is proto.Calls over Do, the same as
// Client's; see ConnManager for the ownership rules. Subscriptions ride
// the caller's socket and do not survive a redial: a socket-level
// failure drops the dispatcher and with it every push handler, so
// subscribers must re-subscribe after transport errors.
type ManagedCaller struct {
	proto.Calls
	sock   *managedSock
	closed atomic.Bool
}

// OnDepth installs f on this caller's socket to receive the server's
// scheduling depth from piggybacked health frames; the hook survives
// redials and is shared by every caller on the socket (last installer
// wins). Passing nil uninstalls.
func (c *ManagedCaller) OnDepth(f func(depth uint32)) { c.sock.setDepthFunc(f) }

// Do issues the call on the caller's socket. After Close it is refused
// with net.ErrClosed; after the manager closes, with ErrManagerClosed.
func (c *ManagedCaller) Do(call proto.Call) error {
	if c.closed.Load() {
		return net.ErrClosed
	}
	return c.sock.do(call)
}

// Close retires the logical caller: its future sends fail. The shared
// socket stays open for the manager's other callers; replies to this
// caller's still-outstanding requests are delivered normally.
func (c *ManagedCaller) Close() {
	c.closed.Store(true)
}
