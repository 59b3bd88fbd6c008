package tcpnet

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zygos/internal/core"
	"zygos/internal/proto"
)

// TestFullIngressRingLeavesBytesInSocket floods a server whose ingress
// rings hold two segments. A worker harvesting its own sockets is both
// producer and consumer of its ring, so a full ring must make it stop
// reading (the segment in hand is stashed, the rest waits in the socket)
// rather than wait for room: every request still completes, in order per
// connection, and nothing leaks.
func TestFullIngressRingLeavesBytesInSocket(t *testing.T) {
	rt, err := core.New(core.Config{
		Cores:      2,
		IngressCap: 2,
		Handler: core.HandlerFunc(func(ctx *core.Ctx, c *core.Conn, m proto.Message) {
			ctx.Reply(m.Payload)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(rt)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	const conns, perConn = 6, 3000
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(l.Addr().String(), 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			var next atomic.Uint64 // replies must come back in send order
			done := make(chan struct{})
			for i := uint64(0); i < perConn; i++ {
				var p [8]byte
				binary.LittleEndian.PutUint64(p[:], i)
				err := c.SendAsync(p[:], func(resp []byte, err error) {
					if err != nil {
						t.Errorf("reply: %v", err)
					} else if got := binary.LittleEndian.Uint64(resp); got != next.Load() {
						t.Errorf("reply %d arrived in place of %d", got, next.Load())
					}
					if next.Add(1) == perConn {
						close(done)
					}
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Errorf("%d of %d replies: a worker is wedged on its own ingress ring", next.Load(), perConn)
			}
		}()
	}
	wg.Wait()
	srv.Close()
	rt.Close()
	if live := rt.SegmentsLive(); live != 0 {
		t.Fatalf("SegmentsLive=%d after Close", live)
	}
}

// TestManyWorkerSets brings the transport up on a runtime with many more
// workers than this machine has cores and round-trips on enough
// connections to land on most of them: every socket set must come up
// (nested epoll registration has kernel-side limits the watch topology
// has to stay inside) and every worker must find its own sockets.
func TestManyWorkerSets(t *testing.T) {
	const cores = 24
	rt, err := core.New(core.Config{
		Cores: cores,
		Handler: core.HandlerFunc(func(ctx *core.Ctx, c *core.Conn, m proto.Message) {
			ctx.Reply(m.Payload)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := NewServer(rt)
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	for i := 0; i < 3*cores; i++ {
		c, err := Dial(l.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if resp, err := c.CallTimeout([]byte("ping"), 5*time.Second); err != nil || string(resp) != "ping" {
			t.Fatalf("conn %d: %q %v", i, resp, err)
		}
	}
	if st := srv.NetStats(); st.Pollers != cores || st.Open != 3*cores {
		t.Fatalf("NetStats %+v, want %d poll sets and %d open", st, cores, 3*cores)
	}
}

// TestBlockedWriterDrainsItself stalls a pipelining peer's read side
// until the single worker is blocked in WriteReply at the egress
// high-water mark. The parked drain waits on write readiness that only a
// harvest of the socket set would resume — and the only worker there is
// is the one that is blocked — so the blocked writer has to drive the
// drain itself once the peer reads again.
func TestBlockedWriterDrainsItself(t *testing.T) {
	rt, err := core.New(core.Config{
		Cores: 1,
		Handler: core.HandlerFunc(func(ctx *core.Ctx, c *core.Conn, m proto.Message) {
			ctx.Reply(m.Payload)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := NewServer(rt)
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	const requests, size = 512, 64 << 10 // 32MB of replies: far past staging + socket buffers
	frame := proto.AppendFrameV2(nil, proto.Message{ID: 1, Payload: make([]byte, size)})
	writeErr := make(chan error, 1)
	go func() {
		for i := 0; i < requests; i++ {
			if _, err := nc.Write(frame); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()
	// Read nothing until the server's staging buffer has hit the mark.
	deadline := time.Now().Add(20 * time.Second)
	for srv.NetStats().EgressBytesResident < maxPendingEgress {
		if time.Now().After(deadline) {
			t.Fatalf("egress staging never reached the high-water mark (%d resident)", srv.NetStats().EgressBytesResident)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the worker block on it
	want := int64(requests) * int64(len(frame))
	_ = nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	got, err := io.Copy(io.Discard, io.LimitReader(nc, want))
	if err != nil || got != want {
		t.Fatalf("read %d of %d reply bytes: %v (worker wedged at the high-water mark)", got, want, err)
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
}

// rawClient is a blocking one-request-at-a-time client with no goroutine
// of its own, so a process that uses only rawClients has no client read
// loops and the server's workers block in raw epoll_wait — the way they
// do in a process that only serves.
type rawClient struct {
	nc     net.Conn
	parser proto.Parser
	buf    []byte
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawClient{nc: nc, buf: make([]byte, 4096)}
}

func (c *rawClient) call(payload string) (string, error) {
	if _, err := c.nc.Write(proto.AppendFrameV2(nil, proto.Message{ID: 1, Payload: []byte(payload)})); err != nil {
		return "", err
	}
	_ = c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if m, ok, err := c.parser.Next(); err != nil {
			return "", err
		} else if ok {
			defer m.Release()
			return string(m.Payload), nil
		}
		n, err := c.nc.Read(c.buf)
		if err != nil {
			return "", err
		}
		c.parser.Feed(c.buf[:n])
	}
}

// awaitRawMode waits out client read loops left behind by earlier tests.
func awaitRawMode(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); clientReaders.Load() != 0; {
		if time.Now().After(deadline) {
			t.Skipf("%d client read loops still alive: workers would not block raw", clientReaders.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRawWaitWakesAndHarvests runs the two liveness properties the root
// package checks with in-process clients (workers parked in Go's
// netpoller) against workers blocked in raw epoll_wait, watchdog out of
// reach: spaced requests that each find every worker asleep all complete
// promptly, and a request for a worker stuck in a handler is harvested
// and stolen by the idle one.
func TestRawWaitWakesAndHarvests(t *testing.T) {
	awaitRawMode(t)
	entered := make(chan struct{}, 1)
	rt, err := core.New(core.Config{
		Cores:        2,
		ParkInterval: time.Hour,
		Handler: core.HandlerFunc(func(ctx *core.Ctx, c *core.Conn, m proto.Message) {
			if string(m.Payload) == "long" {
				entered <- struct{}{}
				time.Sleep(50 * time.Millisecond)
			}
			if ctx.Stolen() {
				ctx.Reply([]byte("stolen"))
			} else {
				ctx.Reply([]byte{'0' + byte(c.Home())})
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := NewServer(rt)
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	var conns []*rawClient
	byHome := map[string][]*rawClient{}
	var pair []*rawClient
	for i := 0; i < 64 && pair == nil; i++ {
		c := dialRaw(t, l.Addr().String())
		conns = append(conns, c)
		home, err := c.call("who")
		if err != nil {
			t.Fatal(err)
		}
		if home == "stolen" {
			continue
		}
		if byHome[home] = append(byHome[home], c); len(byHome[home]) == 2 {
			pair = byHome[home]
		}
	}
	if pair == nil {
		t.Fatal("no two connections share a home worker")
	}

	requests := 500
	if testing.Short() {
		requests = 100
	}
	for i := 0; i < requests; i++ {
		time.Sleep(time.Millisecond + time.Duration(i%3)*time.Millisecond/2)
		start := time.Now()
		if _, err := conns[i%len(conns)].call("ping"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if took := time.Since(start); took > 50*time.Millisecond {
			t.Fatalf("request %d took %v with every worker asleep: a wake was lost", i, took)
		}
	}

	longDone := make(chan error, 1)
	go func() {
		_, err := pair[0].call("long")
		longDone <- err
	}()
	<-entered
	start := time.Now()
	resp, err := pair[1].call("short")
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); resp != "stolen" || took > 10*time.Millisecond {
		t.Fatalf("short request ran %q after %v; its home worker was busy for 50ms", resp, took)
	}
	if err := <-longDone; err != nil {
		t.Fatal(err)
	}
}

// TestOwnerClaimsWake checks that a request arriving while every worker
// is parked costs one park, not two: the owner's wait set holds its
// sockets with EPOLLEXCLUSIVE ahead of the watching neighbour's, so the
// kernel wakes the owner alone, and the neighbour sleeps on.
func TestOwnerClaimsWake(t *testing.T) {
	awaitRawMode(t)
	rt, err := core.New(core.Config{
		Cores:        2,
		ParkInterval: time.Hour,
		Handler: core.HandlerFunc(func(ctx *core.Ctx, c *core.Conn, m proto.Message) {
			ctx.Reply(m.Payload)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := NewServer(rt)
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	c := dialRaw(t, l.Addr().String())
	for i := 0; i < 20; i++ {
		if _, err := c.call("warm"); err != nil {
			t.Fatal(err)
		}
	}
	const requests = 300
	before := rt.Stats().Parks
	for i := 0; i < requests; i++ {
		time.Sleep(time.Millisecond)
		if _, err := c.call("ping"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	per := float64(rt.Stats().Parks-before) / requests
	t.Logf("%.3f parks per request", per)
	if per > 1.1 {
		t.Fatalf("%.3f parks per request with every worker asleep at each arrival; want at most 1.1 (the owner alone wakes)", per)
	}
}
