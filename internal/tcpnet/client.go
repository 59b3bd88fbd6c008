package tcpnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zygos/internal/proto"
)

// clientReaders counts the client-side read loops alive in this process
// (one per dialed clientSock). It is process-wide on purpose: what it
// tells a server transport in the same process is that goroutines here
// depend on Go's netpoller being served promptly, which decides how the
// server's workers may block (sockSet.wait).
var clientReaders atomic.Int32

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

// Client is a TCP RPC client speaking the proto framing: one socket,
// dialed once, that never redials. It supports pipelined concurrent
// requests; concurrent calls coalesce into one write. Applications with
// many logical callers should multiplex them over a ConnManager instead
// of dialing one Client each. Its calling surface is proto.Calls over Do.
type Client struct {
	proto.Calls
	sock clientSock
}

// Dial connects to a tcpnet server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	nc, err := dialTCP(addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClientOn(nc), nil
}

// NewClientOn builds a client over an already-established connection —
// the seam where a fault-injecting or otherwise-wrapped net.Conn slots
// under the RPC stack. The client owns nc and closes it on Close.
func NewClientOn(nc net.Conn) *Client {
	c := &Client{}
	c.Calls = proto.Calls{Doer: c}
	c.sock.startLocked(nc)
	return c
}

// OnDepth implements proto.DepthReporter.
func (c *Client) OnDepth(f func(depth uint32)) { c.sock.setDepthFunc(f) }

// Do registers the call, encodes its frame into the socket's staging
// buffer and flushes it: a lone caller writes at once, concurrent
// callers' frames leave together in the active flusher's next write.
// Once the socket has failed or been closed the call is refused; a
// failed write fails every call outstanding on the socket.
func (c *Client) Do(call proto.Call) error { return c.sock.do(call) }

// Close shuts the connection down; outstanding calls fail and later
// calls are refused.
func (c *Client) Close() { c.sock.close(net.ErrClosed) }

// dialTCP dials addr with Nagle off: frames are small and latency-bound.
func dialTCP(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return nc, nil
}

// clientSock is the one client-side socket: a connection, the dispatcher
// that numbers its calls, the read loop that feeds it replies, and a
// flush-combining write stage. The first sender becomes the flusher and
// keeps writing while co-located callers append — many small concurrent
// requests leave in one syscall.
//
// A call is registered and encoded into the stage under mu, against the
// dispatcher of the socket it will leave on, so a frame can only ever be
// written to the socket whose dispatcher issued its ID.
//
// dial is what differs between users: a Client's socket has none and
// its first failure is final; a ConnManager socket dials lazily and
// redials after a failure, with jittered backoff.
type clientSock struct {
	mu       sync.Mutex
	dial     func() (net.Conn, error)
	nc       net.Conn
	disp     *proto.Dispatcher
	pending  []byte
	spare    []byte
	flushing bool
	// err is why nc is nil: what a send returns when there is no dialer
	// to replace the socket (a failed Client, or any socket after close).
	err error

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

// startLocked adopts nc as the live socket with a fresh dispatcher and
// starts its read loop. Caller holds s.mu (or owns s exclusively).
func (s *clientSock) startLocked(nc net.Conn) {
	s.nc = nc
	s.disp = proto.NewDispatcher()
	s.disp.SetDepthFunc(s.onDepth)
	s.err = nil
	clientReaders.Add(1)
	go s.readLoop(nc, s.disp)
}

// ensureDialedLocked dials the socket if it has a dialer and no live
// connection. Caller holds s.mu; the dial happens under it, which only
// ever stalls co-located callers during connection setup. While a failed
// dial's backoff window is open, sends fail fast with the sticky dial
// error — a dead backend costs its callers one jittered dial per window,
// not one per request.
func (s *clientSock) ensureDialedLocked() error {
	if s.nc != nil {
		return nil
	}
	if s.dial == nil {
		return s.err
	}
	if !s.nextDial.IsZero() && time.Now().Before(s.nextDial) {
		return fmt.Errorf("%w (until %s): %w",
			ErrDialBackoff, s.nextDial.Format("15:04:05.000"), s.dialErr)
	}
	nc, err := s.dial()
	if err != nil {
		// Exponential backoff with ±50% jitter: window = base<<fails,
		// capped, then scaled by a uniform factor in [0.5, 1.5).
		s.dialFails++
		window := dialBackoffBase << (s.dialFails - 1)
		if window > dialBackoffMax || window <= 0 {
			window = dialBackoffMax
		}
		window = time.Duration(float64(window) * (0.5 + rand.Float64()))
		s.nextDial = time.Now().Add(window)
		s.dialErr = err
		return err
	}
	s.dialFails = 0
	s.nextDial = time.Time{}
	s.dialErr = nil
	s.startLocked(nc)
	return nil
}

// readLoop feeds one connection's replies to its dispatcher; it is the
// only per-socket goroutine, shared by every caller on the socket.
func (s *clientSock) readLoop(nc net.Conn, disp *proto.Dispatcher) {
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
	s.mu.Lock()
	if s.nc == nc {
		s.failLocked(net.ErrClosed)
	}
	s.mu.Unlock()
	disp.Close()
	disp.ReleaseParser()
}

// failLocked marks the live socket dead: it closes the connection, drops
// the staged bytes (they carry the dead dispatcher's request IDs and must
// not leak onto a redialed socket) and releases the flusher role, so a
// redial starts clean while a flusher still blocked on the dead
// connection finds it replaced and leaves. It returns the dead
// dispatcher, for the caller to close once it has released s.mu.
func (s *clientSock) failLocked(err error) *proto.Dispatcher {
	disp := s.disp
	if s.nc != nil {
		s.nc.Close()
	}
	s.nc, s.disp = nil, nil
	s.pending = s.pending[:0]
	s.flushing = false
	s.err = err
	return disp
}

// close tears the socket down for good: it drops the dialer, so every
// later send is refused with err.
func (s *clientSock) close(err error) {
	s.mu.Lock()
	s.dial = nil
	disp := s.failLocked(err)
	s.mu.Unlock()
	if disp != nil {
		disp.Close()
	}
}

// setDepthFunc installs the depth hook on the live dispatcher and
// remembers it for every redial's fresh one.
func (s *clientSock) setDepthFunc(f func(depth uint32)) {
	s.mu.Lock()
	s.onDepth = f
	if s.disp != nil {
		s.disp.SetDepthFunc(f)
	}
	s.mu.Unlock()
}

// do issues one call: under s.mu it dials if needed, registers the call
// on the live socket's dispatcher and encodes the frame straight into
// the stage. If a flusher is active the frame rides its next write;
// otherwise the caller becomes the flusher and writes until co-located
// callers stop appending.
func (s *clientSock) do(call proto.Call) error {
	s.mu.Lock()
	if err := s.ensureDialedLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	disp := s.disp
	m, err := disp.Issue(call)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.pending = proto.AppendMessage(s.pending, m)
	if s.flushing {
		s.mu.Unlock()
		return nil
	}
	if err := s.flushLocked(); err != nil {
		return disp.Fail(m, err)
	}
	return nil
}

// flushLocked makes the caller the flusher of the live connection: it
// writes the stage until it is empty, swapping in the spare buffer so
// co-located callers keep appending during each write. It writes only
// to the connection it started on: if that one failed mid-write it
// leaves without touching the socket's state, which by then belongs to
// the failure path or to a redial. Caller holds s.mu; flushLocked
// releases it.
func (s *clientSock) flushLocked() error {
	s.flushing = true
	nc := s.nc
	for len(s.pending) > 0 {
		buf := s.pending
		s.pending = s.spare[:0]
		s.spare = nil
		s.mu.Unlock()
		_, werr := nc.Write(buf)
		s.mu.Lock()
		if s.nc != nc {
			s.mu.Unlock()
			if werr == nil {
				werr = net.ErrClosed
			}
			return werr
		}
		if cap(buf) <= maxEgressRetain {
			s.spare = buf[:0]
		}
		if werr != nil {
			disp := s.failLocked(werr)
			s.mu.Unlock()
			disp.Close()
			return werr
		}
	}
	s.flushing = false
	s.mu.Unlock()
	return nil
}
