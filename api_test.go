package zygos

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zygos/internal/proto"
)

// Error() surfaces on the client as a typed *StatusError carrying the
// wire status code and message, over both transports.
func TestErrorSurfacesAsStatusError(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 2, Handler: func(w ResponseWriter, req *Request) {
		if bytes.HasPrefix(req.Payload, []byte("fail")) {
			w.Error(StatusAppError, "handler rejected it")
			return
		}
		w.Reply(req.Payload)
	}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	tcp, err := DialClient(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	inproc := s.NewClient()
	defer inproc.Close()

	for name, c := range map[string]Caller{"inproc": inproc, "tcp": tcp} {
		resp, err := c.Call([]byte("fail please"))
		if resp != nil {
			t.Fatalf("%s: error reply must carry no payload, got %q", name, resp)
		}
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("%s: want *StatusError, got %v", name, err)
		}
		if se.Code != StatusAppError || se.Msg != "handler rejected it" {
			t.Fatalf("%s: got %+v", name, se)
		}
		if resp, err := c.Call([]byte("ok")); err != nil || string(resp) != "ok" {
			t.Fatalf("%s: success path broken after error: %q %v", name, resp, err)
		}
	}
}

// The acceptance test for deferred replies: pipelined requests on one
// connection where even-numbered requests detach and complete out of
// order — from foreign goroutines, with stealing active on 4 cores —
// must still be answered in request order.
func TestDetachOrderingUnderStealing(t *testing.T) {
	const n = 80
	type pendingReply struct {
		co  Completion
		idx uint64
	}
	detached := make(chan pendingReply, n)
	var stolen atomic.Uint64
	s := newEchoServer(t, Config{Cores: 4, Handler: func(w ResponseWriter, req *Request) {
		if req.Stolen {
			stolen.Add(1)
		}
		if req.Payload[0]%2 == 0 {
			detached <- pendingReply{co: w.Detach(), idx: uint64(req.Payload[0])}
			return
		}
		// Odd requests spin a little so the home worker stays busy and
		// idle workers steal.
		deadline := time.Now().Add(50 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
		w.Reply(req.Payload)
	}})

	// Complete detached requests in reverse arrival order.
	go func() {
		var held []pendingReply
		for p := range detached {
			held = append(held, p)
			if len(held) == n/2 {
				for i := len(held) - 1; i >= 0; i-- {
					held[i].co.Reply([]byte{byte(held[i].idx)})
				}
				held = nil
			}
		}
	}()

	c := s.NewClient()
	defer c.Close()
	var mu sync.Mutex
	var order []byte
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		if err := c.SendAsync([]byte{byte(i)}, func(resp []byte, err error) {
			if err == nil && len(resp) == 1 {
				mu.Lock()
				order = append(order, resp[0])
				mu.Unlock()
			}
			done <- struct{}{}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("timed out after %d replies", i)
		}
	}
	close(detached)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != n {
		t.Fatalf("%d replies arrived, want %d", len(order), n)
	}
	for i, b := range order {
		if int(b) != i {
			t.Fatalf("reply %d carries payload %d: detached replies reordered (order=%v)", i, b, order)
		}
	}
}

// Middleware composes outermost-first, sees every request, and may
// annotate the shared *Request.
func TestMiddlewareChainOrder(t *testing.T) {
	var mu sync.Mutex
	var trace []string
	mw := func(name string) Middleware {
		return func(next Handler) Handler {
			return func(w ResponseWriter, req *Request) {
				mu.Lock()
				trace = append(trace, name)
				mu.Unlock()
				next(w, req)
			}
		}
	}
	s := newEchoServer(t, Config{Cores: 1})
	s.Use(mw("outer"))
	s.Use(mw("inner"))
	c := s.NewClient()
	defer c.Close()
	if _, err := c.Call([]byte("x")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(trace) != 2 || trace[0] != "outer" || trace[1] != "inner" {
		t.Fatalf("middleware ran in order %v, want [outer inner]", trace)
	}
}

// LatencyRecording populates Stats().Latency and Stats().QueueDelay,
// and follows detached requests to their actual completion.
func TestLatencyRecordingMiddleware(t *testing.T) {
	const detachDelay = 2 * time.Millisecond
	s := newEchoServer(t, Config{Cores: 2, Handler: func(w ResponseWriter, req *Request) {
		if bytes.Equal(req.Payload, []byte("slow")) {
			co := w.Detach()
			go func() {
				time.Sleep(detachDelay)
				co.Reply([]byte("slow done"))
			}()
			return
		}
		w.Reply(req.Payload)
	}})
	s.Use(s.LatencyRecording())
	c := s.NewClient()
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, err := c.Call([]byte("fast")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Call([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Latency.Count != 11 {
		t.Fatalf("latency count %d, want 11", st.Latency.Count)
	}
	if st.QueueDelay.Count != 11 {
		t.Fatalf("queue-delay count %d, want 11", st.QueueDelay.Count)
	}
	// The detached request's end-to-end latency must include its
	// detached time, so the observed max is at least detachDelay.
	if st.Latency.Max < detachDelay {
		t.Fatalf("latency max %v does not cover the detached completion (want >= %v)", st.Latency.Max, detachDelay)
	}
	if st.Latency.String() == "" {
		t.Fatal("snapshot must render")
	}
}

// AdmissionControl sheds excess load with StatusShed on the wire instead
// of queueing it, and releases depth when replies complete.
func TestAdmissionControlSheds(t *testing.T) {
	release := make(chan struct{})
	s := newEchoServer(t, Config{Cores: 1, Handler: func(w ResponseWriter, req *Request) {
		if bytes.Equal(req.Payload, []byte("block")) {
			co := w.Detach()
			go func() {
				<-release
				co.Reply([]byte("unblocked"))
			}()
			return
		}
		w.Reply(req.Payload)
	}})
	s.Use(s.AdmissionControl(1))

	blocker := s.NewClient()
	defer blocker.Close()
	blocked := make(chan error, 1)
	if err := blocker.SendAsync([]byte("block"), func(_ []byte, err error) { blocked <- err }); err != nil {
		t.Fatal(err)
	}
	// Wait until the blocker occupies the single admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Detached == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never detached")
		}
		time.Sleep(100 * time.Microsecond)
	}

	c := s.NewClient()
	defer c.Close()
	_, err := c.Call([]byte("shed me"))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != StatusShed {
		t.Fatalf("want StatusShed StatusError, got %v", err)
	}
	if got := s.Stats().Shed; got != 1 {
		t.Fatalf("Shed counter %d, want 1", got)
	}

	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked request failed: %v", err)
	}
	// Slot released: the next request is admitted again.
	if resp, err := c.Call([]byte("fine now")); err != nil || string(resp) != "fine now" {
		t.Fatalf("post-release call: %q %v", resp, err)
	}
	if got := s.Stats().Shed; got != 1 {
		t.Fatalf("Shed counter %d after release, want still 1", got)
	}
}

// One-way sends execute on the server without producing a reply, over
// both transports.
func TestSendOneWay(t *testing.T) {
	var seen atomic.Int64
	s := newEchoServer(t, Config{Cores: 2, Handler: func(w ResponseWriter, req *Request) {
		if req.OneWay {
			seen.Add(1)
			// Reply on a one-way request is suppressed, not an error.
			if err := w.Reply([]byte("ignored")); err != nil {
				t.Errorf("one-way reply errored: %v", err)
			}
			return
		}
		w.Reply(req.Payload)
	}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	tcp, err := DialClient(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	inproc := s.NewClient()
	defer inproc.Close()

	if err := inproc.SendOneWay([]byte("async-1")); err != nil {
		t.Fatal(err)
	}
	if err := tcp.SendOneWay([]byte("async-2")); err != nil {
		t.Fatal(err)
	}
	// Round trips on the same connections prove the one-ways executed
	// and nothing stray arrived in their place.
	if resp, err := inproc.Call([]byte("sync")); err != nil || string(resp) != "sync" {
		t.Fatalf("inproc follow-up: %q %v", resp, err)
	}
	if resp, err := tcp.Call([]byte("sync")); err != nil || string(resp) != "sync" {
		t.Fatalf("tcp follow-up: %q %v", resp, err)
	}
	if !s.Flush(5 * time.Second) {
		t.Fatal("flush timed out")
	}
	if got := seen.Load(); got != 2 {
		t.Fatalf("one-way handler ran %d times, want 2", got)
	}
}

// The legacy synchronous signature keeps working through the SyncHandler
// adapter, including its nil-means-no-reply convention.
func TestSyncHandlerAdapter(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 1, Handler: SyncHandler(func(req *Request) []byte {
		if bytes.Equal(req.Payload, []byte("quiet")) {
			return nil
		}
		return append([]byte("sync:"), req.Payload...)
	})})
	c := s.NewClient()
	defer c.Close()
	resp, err := c.Call([]byte("hi"))
	if err != nil || string(resp) != "sync:hi" {
		t.Fatalf("got %q %v", resp, err)
	}
	// nil return = one-way; a follow-up call proves no stray reply.
	if err := c.SendOneWay([]byte("quiet")); err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Call([]byte("again")); err != nil || string(resp) != "sync:again" {
		t.Fatalf("got %q %v", resp, err)
	}
}

// Duplicate completions return ErrCompleted at the public API level.
func TestDuplicateCompletionErrCompleted(t *testing.T) {
	errs := make(chan error, 2)
	s := newEchoServer(t, Config{Cores: 1, Handler: func(w ResponseWriter, req *Request) {
		errs <- w.Reply([]byte("one"))
		errs <- w.Reply([]byte("two"))
	}})
	c := s.NewClient()
	defer c.Close()
	if resp, err := c.Call([]byte("x")); err != nil || string(resp) != "one" {
		t.Fatalf("got %q %v", resp, err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("first reply: %v", err)
	}
	if err := <-errs; !errors.Is(err, ErrCompleted) {
		t.Fatalf("second reply: got %v, want ErrCompleted", err)
	}
}

// A Caller-generic driver works identically over both transports — the
// contract zygos-loadgen and zygos-bench rely on.
func TestCallerGenericDriver(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)

	drive := func(c Caller) error {
		defer c.Close()
		for i := 0; i < 20; i++ {
			want := fmt.Sprintf("req-%d", i)
			resp, err := c.Call([]byte(want))
			if err != nil {
				return err
			}
			if string(resp) != want {
				return fmt.Errorf("got %q want %q", resp, want)
			}
		}
		return nil
	}

	if err := drive(s.NewClient()); err != nil {
		t.Fatalf("inproc: %v", err)
	}
	tcp, err := DialClient(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := drive(tcp); err != nil {
		t.Fatalf("tcp: %v", err)
	}
}

// Request metadata is populated for middleware: arrival time, queue
// delay, worker, stolen flag.
func TestRequestTimingMetadata(t *testing.T) {
	got := make(chan Request, 1)
	start := time.Now()
	s := newEchoServer(t, Config{Cores: 2, Handler: func(w ResponseWriter, req *Request) {
		select {
		case got <- *req:
		default:
		}
		w.Reply(req.Payload)
	}})
	c := s.NewClient()
	defer c.Close()
	if _, err := c.Call([]byte("t")); err != nil {
		t.Fatal(err)
	}
	req := <-got
	if req.ArrivedAt.Before(start) || req.ArrivedAt.After(time.Now()) {
		t.Fatalf("ArrivedAt %v out of range", req.ArrivedAt)
	}
	if req.QueueDelay < 0 || req.QueueDelay > time.Second {
		t.Fatalf("QueueDelay %v implausible", req.QueueDelay)
	}
	if req.OneWay {
		t.Fatal("two-way request marked one-way")
	}
}

// Payloads that cannot be represented in the v2 length field are
// rejected at send time, and oversized handler replies degrade to a
// wire error instead of corrupting the connection.
func TestOversizedPayloadRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates large payloads")
	}
	s := newEchoServer(t, Config{Cores: 1, Handler: func(w ResponseWriter, req *Request) {
		if bytes.Equal(req.Payload, []byte("grow")) {
			w.Reply(make([]byte, 1<<24)) // one byte past MaxPayload
			return
		}
		w.Reply(req.Payload)
	}})
	c := s.NewClient()
	defer c.Close()

	if err := c.SendAsync(make([]byte, 1<<24), func([]byte, error) {}); !errors.Is(err, proto.ErrPayloadTooLarge) {
		t.Fatalf("oversized request: got %v, want ErrPayloadTooLarge", err)
	}
	if err := c.SendOneWay(make([]byte, 1<<24)); !errors.Is(err, proto.ErrPayloadTooLarge) {
		t.Fatalf("oversized one-way: got %v, want ErrPayloadTooLarge", err)
	}

	_, err := c.Call([]byte("grow"))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != StatusInternal {
		t.Fatalf("oversized reply: got %v, want StatusInternal StatusError", err)
	}
	// The connection survives intact.
	if resp, err := c.Call([]byte("ok")); err != nil || string(resp) != "ok" {
		t.Fatalf("connection broken after oversized reply: %q %v", resp, err)
	}
}

// Admission control must engage for purely synchronous workloads too:
// the shed signal is the runtime-wide backlog of parsed-but-unanswered
// events, not a count of running handlers (which the core count bounds).
func TestAdmissionControlShedsSyncBacklog(t *testing.T) {
	gate := make(chan struct{})
	var first atomic.Bool
	s := newEchoServer(t, Config{Cores: 1, Handler: func(w ResponseWriter, req *Request) {
		if first.CompareAndSwap(false, true) {
			<-gate // pin the only worker so the burst piles up behind it
		}
		w.Reply(req.Payload)
	}})
	const depth = 4
	s.Use(s.AdmissionControl(depth))
	c := s.NewClient()
	defer c.Close()

	const n = 64
	var shed, served atomic.Int64
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		if err := c.SendAsync([]byte("x"), func(_ []byte, err error) {
			var se *StatusError
			switch {
			case err == nil:
				served.Add(1)
			case errors.As(err, &se) && se.Code == StatusShed:
				shed.Add(1)
			}
			done <- struct{}{}
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("timed out after %d replies", i)
		}
	}
	if shed.Load() == 0 {
		t.Fatal("synchronous burst shed nothing: admission control never engaged")
	}
	if served.Load() == 0 {
		t.Fatal("everything was shed")
	}
	if got := uint64(shed.Load()); s.Stats().Shed != got {
		t.Fatalf("Stats().Shed = %d, clients saw %d sheds", s.Stats().Shed, got)
	}
}
