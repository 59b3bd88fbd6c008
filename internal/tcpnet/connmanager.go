package tcpnet

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"zygos/internal/proto"
)

// ErrManagerClosed is returned by ConnManager and ManagedCaller
// operations after the manager shuts down.
var ErrManagerClosed = errors.New("tcpnet: conn manager closed")

// ConnManager multiplexes many logical callers onto a small fixed set
// of TCP connections. A load generator (or an application tier) with
// thousands of logical clients would otherwise hold thousands of
// sockets and reader goroutines; the manager holds at most `sockets` of
// each, assigns callers round-robin, and coalesces small concurrent
// requests from co-located callers into single write syscalls.
//
// Each socket is the same client socket a Client is built on — one
// read loop, one Dispatcher numbering its calls, one flush-combining
// write stage — with a dialer added: reply matching is exactly a
// dedicated Client's, and a call's frame can only leave on the socket
// whose dispatcher issued its ID.
//
// Ownership rules: NewCaller hands out a view, not a connection —
// closing a ManagedCaller only fails that caller's future sends and
// never closes the shared socket (other callers keep using it). Closing
// the manager closes every socket and fails every outstanding request.
// Sockets are dialed lazily on a caller's first send and redialed on a
// later send after a socket-level failure.
type ConnManager struct {
	socks  []clientSock
	next   atomic.Uint64
	closed atomic.Bool
	dials  atomic.Uint64
}

// NewConnManager creates a manager holding at most sockets physical
// connections to addr. Sockets are dialed lazily.
func NewConnManager(addr string, sockets int, timeout time.Duration) *ConnManager {
	if sockets < 1 {
		sockets = 1
	}
	m := &ConnManager{socks: make([]clientSock, sockets)}
	dial := func() (net.Conn, error) {
		m.dials.Add(1)
		return dialTCP(addr, timeout)
	}
	for i := range m.socks {
		m.socks[i].dial = dial
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
	c := &ManagedCaller{sock: &m.socks[i%uint64(len(m.socks))]}
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
	for i := range m.socks {
		m.socks[i].setDepthFunc(f)
	}
}

// Sockets reports how many physical connections are currently dialed.
func (m *ConnManager) Sockets() int {
	n := 0
	for i := range m.socks {
		s := &m.socks[i]
		s.mu.Lock()
		if s.nc != nil {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// Close tears down every socket; outstanding requests fail and future
// operations return ErrManagerClosed.
func (m *ConnManager) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	for i := range m.socks {
		m.socks[i].close(ErrManagerClosed)
	}
}

// ManagedCaller is one logical caller multiplexed over a ConnManager
// socket. Its calling surface is proto.Calls over Do, the same as
// Client's; see ConnManager for the ownership rules. Subscriptions ride
// the caller's socket and do not survive a redial: a socket-level
// failure drops the dispatcher and with it every push handler, so
// subscribers must re-subscribe after transport errors.
type ManagedCaller struct {
	proto.Calls
	sock   *clientSock
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
