package tcpnet

import (
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"zygos/internal/bufpool"
	"zygos/internal/core"
)

// maxPendingEgress is the high-water mark on staged reply bytes per
// connection. A peer that pipelines requests but stalls its read side
// would otherwise grow pending without bound; at the mark, WriteReply
// blocks until the drain makes progress — the same backpressure a
// synchronous socket write used to provide, now engaged only when the
// socket is actually backed up.
const maxPendingEgress = 4 << 20

// maxEgressRetain bounds the staging buffer a connection keeps after a
// full drain; a burst that grew it larger returns it to the shared pool.
const maxEgressRetain = 64 << 10

// portableWriteSlice is the write deadline the portable write step uses
// to approximate a nonblocking write on plain net.Conns.
const portableWriteSlice = 5 * time.Millisecond

// serverConn is one accepted connection: the runtime's ReplyWriter, the
// poller's readiness target, and the registry's accounting unit. It owns
// no goroutine.
//
// Egress is a single staging buffer with a drain offset. WriteReply
// appends and, if no writer is active and the egress is not parked on
// write readiness, becomes the writer: it captures the unflushed slice,
// drops the lock for the write syscall, and reacquires it to advance the
// offset. Concurrent appends may grow (and reallocate) pending while a
// write is in flight — append preserves the prefix, so the bytes the
// writer captured are identical to the new array's prefix and the
// offset stays meaningful. A short write parks the connection: waitWrite
// is set, the poller arms write readiness, and the poller's writable
// event resumes the drain. Teardown takes the same mutex, so the socket
// is never closed between a writer's capture and its syscall — fd
// syscalls additionally ride SyscallConn callbacks, which pin the fd.
type serverConn struct {
	srv *Server
	nc  net.Conn
	rc  syscall.RawConn // nil when the conn exposes no raw fd
	fd  int             // -1 when portable; >= 0 means platform poller I/O
	p   poller
	cc  *core.Conn

	lastActive atomic.Int64 // unix nanos of last wire activity

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []byte // staged egress (pooled); [woff:] is unflushed
	woff      int    // bytes of pending already on the wire
	writing   bool   // a goroutine is inside the drain loop
	waitWrite bool   // parked: poller owns resuming the drain
	armed     bool   // platform write-readiness is armed
	closed    bool
	err       error
	tornDown  bool
}

// touch records wire activity for the idle accounting.
func (sc *serverConn) touch() {
	sc.lastActive.Store(time.Now().UnixNano())
}

// unflushedLocked is the staged byte count not yet on the wire.
func (sc *serverConn) unflushedLocked() int { return len(sc.pending) - sc.woff }

// WriteReply implements core.ReplyWriter: it stages the batch and
// drains it with nonblocking writes unless another goroutine already is
// or the egress is parked awaiting write readiness. It blocks only at
// the per-connection high-water mark (transport backpressure).
func (sc *serverConn) WriteReply(frame []byte) error {
	sc.mu.Lock()
	for sc.unflushedLocked() >= maxPendingEgress && !sc.closed && sc.err == nil {
		if sc.fd >= 0 && sc.waitWrite && !sc.writing {
			// The drain is parked on write readiness, which a worker
			// harvesting the socket set would resume — but the caller may
			// be that worker, or every worker may be blocked right here.
			// Drive the drain from this goroutine instead.
			sc.drainWaitLocked()
			continue
		}
		sc.cond.Wait()
	}
	if sc.closed {
		sc.mu.Unlock()
		return net.ErrClosed
	}
	if sc.err != nil {
		err := sc.err
		sc.mu.Unlock()
		return err
	}
	if sc.pending == nil {
		sc.pending = bufpool.Get(len(frame))
	}
	sc.pending = append(sc.pending, frame...)
	sc.touch()
	if !sc.writing && !sc.waitWrite {
		sc.drainLocked()
	}
	sc.mu.Unlock()
	return nil
}

// EgressBacklog implements core.EgressBacklogger: the staged reply
// bytes not yet on the wire plus the kernel send queue's unacked bytes
// (SIOCOUTQ, Linux). The runtime's push flusher reads it before adding
// push traffic behind staged replies, so a firehose subscriber's frames
// wait in their droppable subscription rings instead of queueing ahead
// of RPC replies in transport or kernel memory.
func (sc *serverConn) EgressBacklog() int {
	sc.mu.Lock()
	staged := sc.unflushedLocked()
	closed := sc.closed
	sc.mu.Unlock()
	if closed {
		return staged
	}
	return staged + kernelOutq(sc.rc)
}

// drainLocked writes staged bytes until the buffer empties, the socket
// would block (park on write readiness), or the connection dies. Caller
// holds sc.mu; the lock is dropped around each write syscall.
func (sc *serverConn) drainLocked() {
	sc.writing = true
	for sc.err == nil && !sc.closed && sc.unflushedLocked() > 0 {
		buf := sc.pending[sc.woff:]
		sc.mu.Unlock()
		n, again, err := sc.writeStep(buf)
		sc.mu.Lock()
		if n > 0 {
			sc.woff += n
			sc.touch()
		}
		if err != nil {
			if sc.err == nil {
				sc.err = err
			}
			break
		}
		if again {
			sc.writing = false
			sc.waitWrite = true
			sc.p.armWrite(sc)
			sc.cond.Broadcast()
			return
		}
	}
	sc.writing = false
	sc.resetEgressLocked()
	sc.cond.Broadcast()
}

// drainWaitLocked takes over a drain parked on write readiness and
// writes until the backlog is back under the high-water mark, waiting
// for the socket in Go's netpoller rather than in the socket set. Caller
// holds sc.mu with waitWrite set and no writer active; the lock is
// dropped around each write. The EPOLLOUT arm is left for the next
// harvest to clear (pollWritable disarms when nothing is parked).
func (sc *serverConn) drainWaitLocked() {
	sc.waitWrite = false
	sc.writing = true
	for sc.err == nil && !sc.closed && sc.unflushedLocked() >= maxPendingEgress {
		buf := sc.pending[sc.woff:]
		sc.mu.Unlock()
		n, err := sysWriteWait(sc.rc, buf)
		sc.mu.Lock()
		if n > 0 {
			sc.woff += n
			sc.touch()
		}
		if err != nil && sc.err == nil {
			sc.err = err
		}
	}
	sc.writing = false
	if sc.err != nil || sc.closed {
		sc.resetEgressLocked()
	}
	sc.cond.Broadcast()
}

// pollWritable resumes a parked drain; the poller calls it when the
// socket reports write readiness (or on every portable scan pass).
func (sc *serverConn) pollWritable() {
	sc.mu.Lock()
	if sc.closed || sc.err != nil || !sc.waitWrite {
		if sc.armed && !sc.waitWrite {
			sc.p.disarmWrite(sc)
		}
		sc.mu.Unlock()
		return
	}
	sc.waitWrite = false
	sc.drainLocked()
	if !sc.waitWrite && sc.armed {
		sc.p.disarmWrite(sc)
	}
	sc.mu.Unlock()
}

// writeStep performs one bounded write: nonblocking via the raw fd on
// platform-polled connections, a short-deadline net.Conn write on
// portable ones. It reports bytes written and whether the socket would
// block.
func (sc *serverConn) writeStep(buf []byte) (int, bool, error) {
	if sc.fd >= 0 {
		return sysWriteStep(sc.rc, buf)
	}
	_ = sc.nc.SetWriteDeadline(time.Now().Add(portableWriteSlice))
	n, err := sc.nc.Write(buf)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return n, true, nil
	}
	return n, false, err
}

// resetEgressLocked recycles the staging buffer after a full drain (or
// on death): fully drained buffers rewind in place, oversized or dead
// ones return to the pool. Caller holds sc.mu and sc.writing is false.
func (sc *serverConn) resetEgressLocked() {
	if sc.pending == nil {
		return
	}
	dead := sc.closed || sc.err != nil
	if sc.unflushedLocked() == 0 {
		if dead || cap(sc.pending) > maxEgressRetain {
			bufpool.Put(sc.pending)
			sc.pending = nil
		} else {
			sc.pending = sc.pending[:0]
		}
		sc.woff = 0
	} else if dead {
		// Undrained bytes on a dead connection have nowhere to go.
		bufpool.Put(sc.pending)
		sc.pending = nil
		sc.woff = 0
	}
}

// shrinkIdle parks a quiet connection's retained memory: the egress
// staging buffer (when fully drained) and the runtime's per-connection
// TX scratch go back to the shared pool. The next burst re-leases.
func (sc *serverConn) shrinkIdle() {
	sc.mu.Lock()
	if !sc.writing && !sc.waitWrite && sc.pending != nil && sc.unflushedLocked() == 0 {
		bufpool.Put(sc.pending)
		sc.pending = nil
		sc.woff = 0
	}
	sc.mu.Unlock()
	sc.cc.ShrinkIdle()
}

// drainEgress waits until staged replies have reached the socket, the
// connection has died, or the deadline passes. The timeout is a flag
// flipped under the mutex before the broadcast, so the wakeup cannot be
// lost in the window before Wait parks.
func (sc *serverConn) drainEgress(deadline time.Time) {
	timedOut := false
	timer := time.AfterFunc(time.Until(deadline), func() {
		sc.mu.Lock()
		timedOut = true
		sc.mu.Unlock()
		sc.cond.Broadcast()
	})
	defer timer.Stop()
	sc.mu.Lock()
	for (sc.unflushedLocked() > 0 || sc.writing) && !sc.closed && sc.err == nil && !timedOut {
		sc.cond.Wait()
	}
	sc.mu.Unlock()
}

// teardown closes the connection exactly once: it is called by the
// poller on EOF or error, by the runtime's poison path (CloseTransport),
// by the idle reaper, and by Server.Close — any subset, concurrently.
// The closed flag flips under sc.mu, so an in-flight drain observes it
// on reacquire and releases the staging buffer itself.
func (sc *serverConn) teardown() {
	sc.mu.Lock()
	if sc.tornDown {
		sc.mu.Unlock()
		return
	}
	sc.tornDown = true
	sc.closed = true
	sc.cond.Broadcast()
	sc.mu.Unlock()
	sc.p.delConn(sc)
	sc.nc.Close()
	sc.srv.removeConn(sc)
	sc.srv.rt.CloseConn(sc.cc)
	sc.mu.Lock()
	if !sc.writing {
		sc.resetEgressLocked()
	}
	sc.mu.Unlock()
}

// CloseTransport implements core.TransportCloser: a peer whose stream is
// malformed is disconnected immediately — the connection is torn down
// and no other connection is affected. Pending output is dropped; the
// peer is hostile by definition here.
func (sc *serverConn) CloseTransport() {
	sc.teardown()
}

// ingest hands one read's bytes from a portable poller goroutine to the
// runtime, blocking while the home ingress ring is full: big reads
// transfer the poller's whole buffer zero-copy (the poller leases a fresh
// one), small reads are copied so the retained scratch stays per-poller.
// It returns the buffer to keep using (nil after a handoff) and whether
// the connection survived. (Worker-owned socket sets push through
// sockSet.pushSegment, which must not block.)
func (sc *serverConn) ingest(buf []byte, n int) ([]byte, bool) {
	sc.touch()
	if n >= readHandoffSize {
		if err := sc.srv.rt.IngressOwned(sc.cc, buf[:n]); err != nil {
			return nil, false
		}
		return nil, true
	}
	if err := sc.srv.rt.Ingress(sc.cc, buf[:n]); err != nil {
		return buf, false
	}
	return buf, true
}
