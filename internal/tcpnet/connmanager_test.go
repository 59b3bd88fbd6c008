package tcpnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zygos/internal/core"
)

// Many callers over a two-socket manager: every call answers correctly
// and the manager never dials more than its socket budget.
func TestConnManagerMultiplexes(t *testing.T) {
	_, _, addr := startReapServer(t, 0, echoHandler)

	m := NewConnManager(addr, 2, time.Second)
	defer m.Close()

	const callers = 8
	const callsPer = 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		c, err := m.NewCaller()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int, c *ManagedCaller) {
			defer wg.Done()
			for j := 0; j < callsPer; j++ {
				want := []byte(fmt.Sprintf("caller-%d-call-%d", id, j))
				got, err := c.Call(want)
				if err != nil {
					errs <- fmt.Errorf("caller %d call %d: %w", id, j, err)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("caller %d call %d: got %q want %q", id, j, got, want)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := m.Sockets(); n > 2 {
		t.Fatalf("manager dialed %d sockets, budget is 2", n)
	}
}

// Closing one caller must not disturb its siblings on the shared
// socket: the closed caller fails fast, the others keep working.
func TestConnManagerCallerCloseLeavesSocket(t *testing.T) {
	_, _, addr := startReapServer(t, 0, echoHandler)

	m := NewConnManager(addr, 1, time.Second)
	defer m.Close()

	a, err := m.NewCaller()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.NewCaller()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call([]byte("a")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if _, err := a.Call([]byte("dead")); err == nil {
		t.Fatal("call on closed caller succeeded")
	}
	if got, err := b.Call([]byte("still-here")); err != nil || string(got) != "still-here" {
		t.Fatalf("sibling caller broken after Close: %q %v", got, err)
	}
}

// Closing the manager fails subsequent calls on every caller.
func TestConnManagerCloseFailsCallers(t *testing.T) {
	_, _, addr := startReapServer(t, 0, echoHandler)

	m := NewConnManager(addr, 2, time.Second)
	c, err := m.NewCaller()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := c.Call([]byte("x")); err == nil {
		t.Fatal("call succeeded after manager close")
	}
	if _, err := m.NewCaller(); err == nil {
		t.Fatal("NewCaller succeeded after manager close")
	}
}

// When the server drops a managed socket (here via idle reaping), the
// next call redials transparently instead of failing forever.
func TestConnManagerRedialsAfterServerClose(t *testing.T) {
	_, srv, addr := startReapServer(t, 50*time.Millisecond, echoHandler)

	m := NewConnManager(addr, 1, time.Second)
	defer m.Close()
	c, err := m.NewCaller()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call([]byte("first")); err != nil {
		t.Fatal(err)
	}

	// Wait for the server to reap the idle socket.
	deadline := time.Now().Add(5 * time.Second)
	for srv.NetStats().Open != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never reaped the managed socket")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A call may race the client noticing the close; it must succeed
	// within a couple of attempts once the redial lands.
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		got, err := c.Call([]byte("again"))
		if err == nil {
			if string(got) != "again" {
				t.Fatalf("redial echo mismatch: %q", got)
			}
			return
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("calls never recovered after server-side close: %v", lastErr)
}

// Rapid calls against a dead address must not hammer the network: the
// first failure opens a jittered backoff window during which calls fail
// fast with ErrDialBackoff and no dial happens; when the window expires
// the manager tries the network again, and once the server returns the
// same caller recovers without intervention.
func TestConnManagerDialBackoff(t *testing.T) {
	// A port that refuses connections: bind, note the address, close.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	m := NewConnManager(addr, 1, 200*time.Millisecond)
	defer m.Close()
	c, err := m.NewCaller()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call([]byte("x")); err == nil {
		t.Fatal("call to dead address succeeded")
	}
	if got := m.Dials(); got != 1 {
		t.Fatalf("dials = %d after first failing call, want 1", got)
	}

	backoffs := 0
	for i := 0; i < 20; i++ {
		_, err := c.Call([]byte("x"))
		if err == nil {
			t.Fatal("call to dead address succeeded")
		}
		if errors.Is(err, ErrDialBackoff) {
			backoffs++
		}
	}
	// The 20 calls take microseconds against a >=10ms window; at most
	// one expiry could race in.
	if got := m.Dials(); got > 2 {
		t.Fatalf("dials = %d during backoff window, want <=2", got)
	}
	if backoffs == 0 {
		t.Fatal("no call failed fast with ErrDialBackoff")
	}

	// Past the first window (<=30ms jittered) the manager must try the
	// network again rather than backing off forever.
	time.Sleep(80 * time.Millisecond)
	before := m.Dials()
	if _, err := c.Call([]byte("x")); err == nil || errors.Is(err, ErrDialBackoff) {
		t.Fatalf("want a fresh dial attempt after window expiry, got err=%v", err)
	}
	if got := m.Dials(); got != before+1 {
		t.Fatalf("dials = %d after window expiry, want %d", got, before+1)
	}

	// Recovery: the server comes back on the same address; once the
	// current window expires the same caller succeeds again.
	rt, err := core.New(core.Config{Cores: 2, Handler: core.HandlerFunc(echoHandler)})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(rt)
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	go srv.Serve(l2)
	t.Cleanup(func() {
		srv.Close()
		rt.Close()
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := c.Call([]byte("back"))
		if err == nil {
			if string(got) != "back" {
				t.Fatalf("recovered echo mismatch: %q", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("caller never recovered after server restart: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A call's frame may only leave on the socket whose dispatcher issued
// its ID: every redial starts a fresh dispatcher numbering from 1, so a
// frame registered before a redial and written after it would be
// answered with another caller's reply. Callers share one socket while
// the server tears its connections down every 300µs; calls may fail,
// but every reply that arrives must be the caller's own.
func TestRedialBindsIDToConnection(t *testing.T) {
	_, srv, addr := startReapServer(t, 0, echoHandler)
	m := NewConnManager(addr, 1, time.Second)
	defer m.Close()

	stop := make(chan struct{})
	tornDown := make(chan struct{})
	go func() {
		defer close(tornDown)
		tick := time.NewTicker(300 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for _, sc := range srv.snapshotConns() {
				sc.teardown()
			}
		}
	}()

	const callers = 32
	deadline := time.Now().Add(time.Second)
	var ok, crossed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		c, err := m.NewCaller()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int, c *ManagedCaller) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				want := fmt.Sprintf("caller-%d-call-%d", id, j)
				got, err := c.CallTimeout([]byte(want), time.Second)
				if err != nil {
					continue
				}
				if string(got) != want {
					if crossed.Add(1) == 1 {
						t.Errorf("crossed reply: sent %q, got %q", want, got)
					}
					continue
				}
				ok.Add(1)
			}
		}(i, c)
	}
	wg.Wait()
	close(stop)
	<-tornDown
	if n := crossed.Load(); n > 0 {
		t.Fatalf("%d replies crossed to the wrong caller (%d correct)", n, ok.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no call succeeded under churn")
	}
}

// blockedConn holds every Write until release closes, announcing each
// one on entered, so a test can park a flusher mid-write.
type blockedConn struct {
	net.Conn
	entered chan struct{}
	release chan struct{}
}

func (c *blockedConn) Write(p []byte) (int, error) {
	c.entered <- struct{}{}
	<-c.release
	return c.Conn.Write(p)
}

// A flusher still blocked writing to a socket that has since failed and
// been redialed must leave the new socket alone: its write error may
// not close the redialed connection, nor its loop write the new
// socket's frames to the dead one.
func TestStaleFlusherLeavesRedialedSocket(t *testing.T) {
	_, _, addr := startReapServer(t, 0, echoHandler)
	m := NewConnManager(addr, 1, time.Second)
	defer m.Close()

	first := &blockedConn{entered: make(chan struct{}, 1), release: make(chan struct{})}
	var dials atomic.Int32
	m.socks[0].dial = func() (net.Conn, error) {
		nc, err := dialTCP(addr, time.Second)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			first.Conn = nc
			return first, nil
		}
		return nc, nil
	}
	c, err := m.NewCaller()
	if err != nil {
		t.Fatal(err)
	}

	aErr := make(chan error, 1)
	go func() {
		_, err := c.CallTimeout([]byte("a"), 5*time.Second)
		aErr <- err
	}()
	<-first.entered // caller A is the flusher, mid-write on socket #1

	// Fail socket #1 under A: its read loop sees the close and drops it.
	first.Conn.Close()
	for deadline := time.Now().Add(5 * time.Second); m.Sockets() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("read loop never failed the closed socket")
		}
		time.Sleep(time.Millisecond)
	}

	// Caller B redials and must not wait on A's flush.
	if got, err := c.CallTimeout([]byte("b"), 5*time.Second); err != nil || string(got) != "b" {
		t.Fatalf("call on the redialed socket: %q %v", got, err)
	}

	close(first.release)
	if err := <-aErr; err == nil {
		t.Fatal("call written to the failed socket succeeded")
	}
	if got, err := c.CallTimeout([]byte("c"), 5*time.Second); err != nil || string(got) != "c" {
		t.Fatalf("redialed socket broken after the stale flusher returned: %q %v", got, err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2: the stale flusher closed the redialed socket", n)
	}
}
