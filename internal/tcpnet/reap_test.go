package tcpnet

import (
	"net"
	"testing"
	"time"

	"zygos/internal/core"
	"zygos/internal/proto"
)

// startReapServer runs an echo server with aggressive idle reaping and
// fast sweeps, returning the runtime, server, and address.
func startReapServer(t *testing.T, idle time.Duration, h core.HandlerFunc) (*core.Runtime, *Server, string) {
	t.Helper()
	rt, err := core.New(core.Config{Cores: 2, Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(rt,
		WithIdleTimeout(idle),
		WithSweepInterval(5*time.Millisecond),
		WithIdleThreshold(idle/2),
	)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Close()
		rt.Close()
	})
	return rt, srv, l.Addr().String()
}

func echoHandler(ctx *core.Ctx, c *core.Conn, m proto.Message) {
	ctx.Reply(m.Payload)
}

// A connection quiet past the idle timeout must be reaped: closed by the
// server, counted, and its pooled segments returned.
func TestIdleReaping(t *testing.T) {
	rt, srv, addr := startReapServer(t, 80*time.Millisecond, echoHandler)

	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call([]byte("warm")); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.NetStats()
		if st.Open == 0 && st.Reaped >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("connection not reaped: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The client side observes the close.
	failAt := time.Now().Add(5 * time.Second)
	observed := false
	for time.Now().Before(failAt) {
		if _, err := c.Call([]byte("x")); err != nil {
			observed = true
			break
		}
	}
	if !observed {
		t.Fatal("calls kept succeeding after the server reaped the connection")
	}
	// Pollers retain one read-scratch segment each while running; after
	// Close everything pooled must be home.
	srv.Close()
	if live := rt.SegmentsLive(); live != 0 {
		t.Fatalf("%d live segments after reap and close", live)
	}
}

// A Client has no dialer: once the server reaps its socket, later calls
// fail and nothing redials.
func TestReapedClientNeverRedials(t *testing.T) {
	_, srv, addr := startReapServer(t, 50*time.Millisecond, echoHandler)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.NetStats().Reaped == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("connection not reaped: %+v", srv.NetStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A call may race the client noticing the close; once one fails,
	// every later one must too.
	failed := 0
	for deadline := time.Now().Add(5 * time.Second); failed < 5; {
		if time.Now().After(deadline) {
			t.Fatal("calls kept succeeding after the server reaped the connection")
		}
		if _, err := c.CallTimeout([]byte("x"), time.Second); err != nil {
			failed++
		} else if failed > 0 {
			t.Fatal("a call succeeded after an earlier one failed: the client redialed")
		}
	}
	if st := srv.NetStats(); st.Accepted != 1 {
		t.Fatalf("server accepted %d connections, want 1: the client redialed", st.Accepted)
	}
}

// Reaping must never race WriteReply teardown: handlers detach and
// complete replies from foreign goroutines exactly when the reaper is
// closing their idle-looking connections. Run under -race, the test
// fails on any teardown/WriteReply race; the runtime must still
// quiesce (every detached completion resolves, reply or not).
func TestReapingDoesNotRaceWriteReply(t *testing.T) {
	const replyDelay = 30 * time.Millisecond
	rt, srv, addr := startReapServer(t, 10*time.Millisecond,
		func(ctx *core.Ctx, c *core.Conn, m proto.Message) {
			co := ctx.Detach()
			payload := append([]byte(nil), m.Payload...)
			go func() {
				// By the time this fires the connection has been quiet
				// longer than the idle timeout and is being reaped.
				time.Sleep(replyDelay)
				co.Reply(payload)
			}()
		})

	for i := 0; i < 20; i++ {
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SendAsync([]byte("doomed"), func([]byte, error) {}); err != nil {
			c.Close()
			t.Fatal(err)
		}
		defer c.Close()
	}
	if !rt.Flush(10 * time.Second) {
		t.Fatal("runtime did not quiesce with reaping racing detached replies")
	}
	srv.Close() // returns the pollers' read-scratch segments
	if live := rt.SegmentsLive(); live != 0 {
		t.Fatalf("%d live segments after churn", live)
	}
}

// The sweeper's idle accounting must show up in NetStats: a quiet
// connection's retained egress memory is parked and the connection is
// counted idle.
func TestIdleAccountingParksBuffers(t *testing.T) {
	rt2, err := core.New(core.Config{Cores: 1, Handler: core.HandlerFunc(echoHandler)})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(rt2,
		WithSweepInterval(5*time.Millisecond),
		WithIdleThreshold(20*time.Millisecond),
	)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l)
	t.Cleanup(func() {
		srv2.Close()
		rt2.Close()
	})
	addr := l.Addr().String()

	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call([]byte("traffic")); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv2.NetStats()
		if st.Open == 1 && st.Idle == 1 && st.EgressBytesResident == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle accounting never settled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The parked connection still works.
	if resp, err := c.Call([]byte("wake")); err != nil || string(resp) != "wake" {
		t.Fatalf("parked connection broken: %q %v", resp, err)
	}
}
