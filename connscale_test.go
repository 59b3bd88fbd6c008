// Goroutine-budget proof for the transport: on Linux each worker polls
// its own sockets, so a serving server is its workers, one accept loop
// per listener and the registry sweeper — no transport goroutines beyond
// those, whatever the connection count. Elsewhere portable poller
// goroutines (one per worker) join them. A thousand idle connections
// must not add a thousand goroutines — or any per-connection goroutines
// at all.
package zygos

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestGoroutineBudgetIdleConns(t *testing.T) {
	if testing.Short() {
		t.Skip("1k connections in -short mode")
	}
	const conns = 1000
	const cores = 2

	before := runtime.NumGoroutine()
	srv, err := NewServer(Config{Cores: cores, Handler: func(w ResponseWriter, req *Request) {
		w.Reply(req.Payload)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	addr := l.Addr().String()

	// Warm the transport (poll sets, sweeper, accept loop all running)
	// before taking the goroutine baseline.
	warm, err := DialClient(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Call([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	for srv.Stats().Net.Open != 0 {
		time.Sleep(time.Millisecond)
	}
	// The warm client's reader goroutine is on its way out.
	budget := before + cores + 2 // workers + one accept loop + the sweeper
	baseline := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); baseline > budget && time.Now().Before(deadline); baseline = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if runtime.GOOS == "linux" && baseline > budget {
		t.Fatalf("a serving %d-core server runs %d goroutines, want at most %d (workers + accept loop + sweeper): "+
			"the transport must not run pollers of its own", cores, baseline-before, budget-before)
	}

	// Raw net.Conns on the client side so no client goroutines pollute
	// the count; the server side is what is being measured.
	raw := make([]net.Conn, 0, conns)
	defer func() {
		for _, nc := range raw {
			nc.Close()
		}
	}()
	var mu sync.Mutex
	var wg sync.WaitGroup
	var dialErr error
	sem := make(chan struct{}, 16)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if dialErr == nil {
					dialErr = err
				}
				return
			}
			raw = append(raw, nc)
		}()
	}
	wg.Wait()
	if dialErr != nil {
		t.Fatal(dialErr)
	}

	deadline := time.Now().Add(30 * time.Second)
	for srv.Stats().Net.Open != conns {
		if time.Now().After(deadline) {
			t.Fatalf("server registered %d/%d connections", srv.Stats().Net.Open, conns)
		}
		time.Sleep(10 * time.Millisecond)
	}

	grew := runtime.NumGoroutine() - baseline
	limit := 8
	if runtime.GOOS == "linux" {
		limit = 0
	}
	if grew > limit {
		t.Fatalf("%d idle connections grew the goroutine count by %d (limit %d); "+
			"the transport budget is workers+shards+sweeper, not O(conns)", conns, grew, limit)
	}

	// The transport is still live under the load: a fresh client gets a
	// round trip through the same poll sets.
	c, err := DialClient(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Call([]byte("ping")); err != nil || string(resp) != "ping" {
		t.Fatalf("echo under 1k idle conns: %q %v", resp, err)
	}
}
