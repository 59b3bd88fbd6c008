package zygos

// Work-conservation, liveness and teardown tests for the run-to-completion
// TCP ingress: each worker polls its own sockets, parks inside the
// transport's wait, and an idle worker harvests the socket set of one
// stuck in application code. They run over real loopback sockets.

import (
	"bytes"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

func serveTCP(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	go srv.Serve(l)
	return srv, l.Addr().String()
}

// TestTCPStuckWorkerSocketsAreHarvested is the TCP twin of
// core.TestProxyEliminatesHOLBlocking: with the home worker of two
// connections stuck in a 50ms handler for the first, a request arriving
// on the second is still sitting in its socket — no reader goroutine
// will move it — so the idle worker must be woken by the bytes, read the
// socket on the owner's behalf, and steal the request. The watchdog is
// out of reach so that only the watch on the neighbour's set can do it.
func TestTCPStuckWorkerSocketsAreHarvested(t *testing.T) {
	entered := make(chan struct{}, 1)
	srv, addr := serveTCP(t, Config{Cores: 2, ParkInterval: time.Hour, Handler: func(w ResponseWriter, req *Request) {
		switch string(req.Payload) {
		case "long":
			entered <- struct{}{}
			time.Sleep(50 * time.Millisecond)
		case "who":
			// On an idle server a request runs at home, so an unstolen
			// reply names the connection's home worker.
			if req.Stolen {
				w.Reply([]byte{0xff})
				return
			}
			w.Reply([]byte{byte(req.Worker)})
			return
		}
		if req.Stolen {
			w.Reply([]byte("stolen"))
		} else {
			w.Reply([]byte("home"))
		}
	}})
	defer srv.Close()

	// Dial until two connections share a home.
	byHome := map[byte][]*TCPClient{}
	var pair []*TCPClient
	for i := 0; i < 64 && pair == nil; i++ {
		c, err := DialClient(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		resp, err := c.Call([]byte("who"))
		if err != nil || len(resp) != 1 {
			t.Fatalf("who: %v %v", resp, err)
		}
		if resp[0] == 0xff {
			continue
		}
		byHome[resp[0]] = append(byHome[resp[0]], c)
		if len(byHome[resp[0]]) == 2 {
			pair = byHome[resp[0]]
		}
	}
	if pair == nil {
		t.Fatal("no two connections share a home worker")
	}

	longDone := make(chan error, 1)
	go func() {
		_, err := pair[0].Call([]byte("long"))
		longDone <- err
	}()
	<-entered // the home worker is in application code now
	start := time.Now()
	resp, err := pair[1].Call([]byte("short"))
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "stolen" {
		t.Fatalf("short request ran %q; its home worker was busy for 50ms", resp)
	}
	if took > 10*time.Millisecond {
		t.Fatalf("short request waited %v behind a 50ms handler on another connection", took)
	}
	if err := <-longDone; err != nil {
		t.Fatal(err)
	}
}

// TestTCPNoLostWakeWithoutWatchdog spaces requests so that nearly every
// one finds all workers asleep, with the watchdog out of reach: a wake
// the protocol loses is not papered over within milliseconds, it fails
// the latency bound.
func TestTCPNoLostWakeWithoutWatchdog(t *testing.T) {
	requests := 2000
	if testing.Short() {
		requests = 300
	}
	srv, addr := serveTCP(t, Config{Cores: 2, ParkInterval: time.Hour,
		Handler: func(w ResponseWriter, req *Request) { w.Reply(req.Payload) }})
	defer srv.Close()
	conns := make([]*TCPClient, 4)
	for i := range conns {
		c, err := DialClient(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	rng := rand.New(rand.NewSource(1))
	payload := []byte("ping")
	for i := 0; i < requests; i++ {
		time.Sleep(time.Millisecond + time.Duration(rng.Intn(2000))*time.Microsecond)
		c := conns[rng.Intn(len(conns))]
		start := time.Now()
		resp, err := c.CallTimeout(payload, 5*time.Second)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if took := time.Since(start); took > 50*time.Millisecond {
			t.Fatalf("request %d took %v with every worker asleep: a wake was lost", i, took)
		}
		if !bytes.Equal(resp, payload) {
			t.Fatalf("request %d: reply %q", i, resp)
		}
	}
}

func openFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd on this platform")
	}
	return len(ents)
}

// TestTCPServerChurnReleasesEverything starts, serves and closes servers
// in a loop with clients mid-request at every Close. The socket sets'
// epoll and eventfd descriptors, the goroutines and the pooled segments
// must all come back — Close detaches from the runtime and waits for the
// workers to leave the sets before closing the descriptors under them.
func TestTCPServerChurnReleasesEverything(t *testing.T) {
	cycle := func() {
		inHandler := make(chan struct{}, 8)
		srv, addr := serveTCP(t, Config{Cores: 2, Handler: func(w ResponseWriter, req *Request) {
			if string(req.Payload) == "slow" {
				inHandler <- struct{}{}
				time.Sleep(2 * time.Millisecond)
			}
			w.Reply(req.Payload)
		}})
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			c, err := DialClient(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Call([]byte("warm")); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				// Fails or succeeds depending on how Close races it;
				// either way it must return.
				_, _ = c.CallTimeout([]byte("slow"), 5*time.Second)
			}()
		}
		<-inHandler
		srv.Close()
		wg.Wait()
		if live := srv.rt.SegmentsLive(); live != 0 {
			t.Fatalf("SegmentsLive=%d after Close", live)
		}
	}
	cycle() // lazily created process-wide state (pools, netpoller) exists now
	settle := func(read func() int, want int) int {
		got := read()
		for deadline := time.Now().Add(5 * time.Second); got > want && time.Now().Before(deadline); got = read() {
			time.Sleep(5 * time.Millisecond)
		}
		return got
	}
	time.Sleep(50 * time.Millisecond) // the first cycle's client goroutines exit
	goroutines := runtime.NumGoroutine()
	fds := openFDs(t)
	for i := 0; i < 50; i++ {
		cycle()
	}
	if got := settle(runtime.NumGoroutine, goroutines); got > goroutines {
		t.Fatalf("goroutines grew from %d to %d over 50 server lifetimes", goroutines, got)
	}
	if got := settle(func() int { return openFDs(t) }, fds); got > fds {
		t.Fatalf("open descriptors grew from %d to %d over 50 server lifetimes", fds, got)
	}
}
