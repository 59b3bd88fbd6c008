// Allocation guards: CI fails if the zero-allocation hot path regresses.
//
// testing.AllocsPerRun counts mallocs process-wide, so the worker
// goroutines' share of the round trip is included. The thresholds allow
// a small fraction of an allocation per op — a GC pass in mid-run can
// evict sync.Pools and force a handful of refills — while still failing
// loudly if a per-request allocation sneaks back in (pre-pooling, the
// echo round trip cost ~26 allocs/op).
package zygos

import (
	"net"
	"testing"
	"time"

	"zygos/internal/proto"
)

// allocBudget is the tolerated average allocations per operation for a
// steady-state zero-allocation path.
const allocBudget = 1.0

func TestAllocsMemnetEchoRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is load-bearing; skip under -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops Puts under -race")
	}
	srv, err := NewServer(Config{
		Cores:   2,
		Handler: func(w ResponseWriter, req *Request) { w.Reply(req.Payload) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := srv.NewClient()
	defer c.Close()
	payload := []byte("0123456789abcdef")
	var buf []byte
	call := func() {
		r, err := c.CallInto(payload, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = r
	}
	// Warm every pool on the path: segments, parse buffers, contexts,
	// requests, frames, TX scratch, waiters.
	for i := 0; i < 512; i++ {
		call()
	}
	allocs := testing.AllocsPerRun(2000, call)
	if allocs >= allocBudget {
		t.Fatalf("memnet echo round trip allocates %.2f/op; budget %.2f (zero-allocation hot path regressed)", allocs, allocBudget)
	}
}

// The method-routed echo round trip — v3 frames both ways, Mux
// dispatch, CallMethodInto — must stay as allocation-free as the legacy
// path: routing adds a map lookup, not an allocation.
func TestAllocsRoutedEchoRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is load-bearing; skip under -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops Puts under -race")
	}
	const method = 7
	mux := NewMux()
	mux.HandleFunc(method, func(w ResponseWriter, req *Request) { w.Reply(req.Payload) })
	srv, err := NewServer(Config{Cores: 2, Handler: mux.Handler()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := srv.NewClient()
	defer c.Close()
	payload := []byte("0123456789abcdef")
	var buf []byte
	call := func() {
		r, err := c.CallMethodInto(method, payload, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = r
	}
	for i := 0; i < 512; i++ {
		call()
	}
	allocs := testing.AllocsPerRun(2000, call)
	if allocs >= allocBudget {
		t.Fatalf("routed echo round trip allocates %.2f/op; budget %.2f (method dispatch must stay allocation-free)", allocs, allocBudget)
	}
}

// The echo round trip over loopback TCP — DialClient to Server.Serve,
// where the server's workers read and write their sockets themselves —
// holds the same bar: a socket read or write must not build a closure.
func TestAllocsTCPEchoRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is load-bearing; skip under -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops Puts under -race")
	}
	srv, err := NewServer(Config{
		Cores:   2,
		Handler: func(w ResponseWriter, req *Request) { w.Reply(req.Payload) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	c, err := DialClient(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := []byte("0123456789abcdef")
	var buf []byte
	call := func() {
		r, err := c.CallInto(payload, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = r
	}
	for i := 0; i < 512; i++ {
		call()
	}
	allocs := testing.AllocsPerRun(2000, call)
	if allocs >= allocBudget {
		t.Fatalf("TCP echo round trip allocates %.2f/op; budget %.2f (zero-allocation hot path regressed)", allocs, allocBudget)
	}
}

// The v2 reply encode path — what Ctx.complete does per reply — must be
// allocation-free when the destination buffer is reused.
func TestAllocsReplyEncodeV2(t *testing.T) {
	payload := []byte("0123456789abcdef0123456789abcdef")
	m := proto.Message{ID: 42, Payload: payload, Status: proto.StatusOK, V2: true}
	buf := make([]byte, 0, proto.FrameSizeV2(len(payload)))
	allocs := testing.AllocsPerRun(5000, func() {
		buf = proto.AppendMessage(buf[:0], m)
	})
	if allocs != 0 {
		t.Fatalf("v2 reply encode allocates %.2f/op; want 0", allocs)
	}
}

// The v3 reply encode (method-carrying frames) holds the same bar.
func TestAllocsReplyEncodeV3(t *testing.T) {
	payload := []byte("0123456789abcdef0123456789abcdef")
	m := proto.Message{ID: 42, Method: 7, Payload: payload, Status: proto.StatusOK, V3: true}
	buf := make([]byte, 0, proto.FrameSizeV3(len(payload)))
	allocs := testing.AllocsPerRun(5000, func() {
		buf = proto.AppendMessage(buf[:0], m)
	})
	if allocs != 0 {
		t.Fatalf("v3 reply encode allocates %.2f/op; want 0", allocs)
	}
}
