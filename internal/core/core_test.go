package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zygos/internal/proto"
)

// captureWriter collects reply frames and decodes them back to messages.
type captureWriter struct {
	mu   sync.Mutex
	p    proto.Parser
	msgs []proto.Message
}

func (w *captureWriter) WriteReply(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.p.Feed(frame)
	for {
		m, ok, err := w.p.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		w.msgs = append(w.msgs, m)
	}
}

func (w *captureWriter) messages() []proto.Message {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]proto.Message(nil), w.msgs...)
}

// echoHandler replies with the request payload.
func echoHandler() Handler {
	return HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		ctx.Reply(m.Payload)
	})
}

func frame(id uint64, payload string) []byte {
	return proto.AppendMessage(nil, proto.Message{ID: id, Payload: []byte(payload)})
}

func newTestRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestEchoRoundTrip(t *testing.T) {
	rt := newTestRuntime(t, Config{Cores: 2, Handler: echoHandler()})
	wr := &captureWriter{}
	c := rt.NewConn(wr)
	if err := rt.Ingress(c, frame(1, "ping")); err != nil {
		t.Fatal(err)
	}
	if !rt.Flush(2 * time.Second) {
		t.Fatal("flush timed out")
	}
	msgs := wr.messages()
	if len(msgs) != 1 || msgs[0].ID != 1 || string(msgs[0].Payload) != "ping" {
		t.Fatalf("got %+v", msgs)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil handler must error")
	}
}

func TestDefaults(t *testing.T) {
	rt := newTestRuntime(t, Config{Handler: echoHandler()})
	if rt.Cores() <= 0 {
		t.Fatal("default cores must be positive")
	}
}

// Pipelined requests on one connection must be answered in order (§4.3) —
// the runtime's ordering guarantee, with no app-level synchronization.
func TestPerConnectionOrdering(t *testing.T) {
	rt := newTestRuntime(t, Config{Cores: 4, Handler: echoHandler()})
	wr := &captureWriter{}
	c := rt.NewConn(wr)
	const n = 500
	var stream []byte
	for i := uint64(0); i < n; i++ {
		stream = proto.AppendMessage(stream, proto.Message{ID: i})
	}
	// Feed in awkward chunks to exercise the parser under pipelining.
	for off := 0; off < len(stream); {
		end := off + 97
		if end > len(stream) {
			end = len(stream)
		}
		if err := rt.Ingress(c, stream[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	}
	if !rt.Flush(5 * time.Second) {
		t.Fatal("flush timed out")
	}
	msgs := wr.messages()
	if len(msgs) != n {
		t.Fatalf("got %d replies, want %d", len(msgs), n)
	}
	for i, m := range msgs {
		if m.ID != uint64(i) {
			t.Fatalf("reply %d has ID %d: replies reordered", i, m.ID)
		}
	}
}

// Ordering must hold even when handlers yield and many connections compete
// (stolen activations ship replies through the home worker).
func TestOrderingUnderConcurrency(t *testing.T) {
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		time.Sleep(time.Duration(m.ID%3) * time.Microsecond)
		ctx.Reply(nil)
	})
	rt := newTestRuntime(t, Config{Cores: 4, Handler: handler})
	const conns = 16
	const per = 200
	writers := make([]*captureWriter, conns)
	cs := make([]*Conn, conns)
	for i := range cs {
		writers[i] = &captureWriter{}
		cs[i] = rt.NewConn(writers[i])
	}
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := uint64(0); k < per; k++ {
				if err := rt.Ingress(cs[i], frame(k, "x")); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if !rt.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}
	for i, wr := range writers {
		msgs := wr.messages()
		if len(msgs) != per {
			t.Fatalf("conn %d: %d replies, want %d", i, len(msgs), per)
		}
		for k, m := range msgs {
			if m.ID != uint64(k) {
				t.Fatalf("conn %d reply %d has ID %d: reordered", i, k, m.ID)
			}
		}
	}
}

// connsWithHome returns nconns connections whose home worker is the given
// index (the RSS steering makes home assignment implicit).
func connsWithHome(rt *Runtime, home, nconns int) []*Conn {
	var out []*Conn
	for len(out) < nconns {
		c := rt.NewConn(&captureWriter{})
		if c.Home() == home {
			out = append(out, c)
		}
	}
	return out
}

// Work stealing: pile work onto one home worker; other workers must steal
// it and finish much faster than serial execution.
func TestStealingBalancesSkew(t *testing.T) {
	const spin = 3 * time.Millisecond
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		time.Sleep(spin)
		ctx.Reply(nil)
	})
	rt := newTestRuntime(t, Config{Cores: 4, Handler: handler, ParkInterval: 50 * time.Microsecond})
	conns := connsWithHome(rt, 0, 8)
	start := time.Now()
	for i, c := range conns {
		if err := rt.Ingress(c, frame(uint64(i), "w")); err != nil {
			t.Fatal(err)
		}
	}
	if !rt.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}
	elapsed := time.Since(start)
	serial := time.Duration(len(conns)) * spin
	if elapsed > serial*3/4 {
		t.Errorf("8 tasks on one home took %v; stealing should beat 3/4 of serial %v", elapsed, serial)
	}
	if rt.Stats().Steals == 0 {
		t.Error("expected steals under skewed load")
	}
}

func TestDisableStealing(t *testing.T) {
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		time.Sleep(time.Millisecond)
		ctx.Reply(nil)
	})
	rt := newTestRuntime(t, Config{Cores: 4, Handler: handler, DisableStealing: true})
	conns := connsWithHome(rt, 0, 6)
	for i, c := range conns {
		if err := rt.Ingress(c, frame(uint64(i), "w")); err != nil {
			t.Fatal(err)
		}
	}
	if !rt.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}
	if s := rt.Stats().Steals; s != 0 {
		t.Errorf("partitioned mode stole %d events", s)
	}
}

// Head-of-line blocking elimination (§4.5): while the home worker is stuck
// in a long handler, events for *other* connections of the same home must
// still be parsed (kernel proxying = the IPI analogue) and stolen by idle
// workers. Without proxying they wait for the stuck handler.
func TestProxyEliminatesHOLBlocking(t *testing.T) {
	run := func(disableProxy bool) time.Duration {
		block := make(chan struct{})
		var blocked sync.WaitGroup
		blocked.Add(1)
		var once sync.Once
		handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
			if string(m.Payload) == "long" {
				once.Do(blocked.Done)
				<-block // simulates a very long request
			}
			ctx.Reply(nil)
		})
		rt, err := New(Config{
			Cores:        3,
			Handler:      handler,
			DisableProxy: disableProxy,
			ParkInterval: 50 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		defer close(block)

		conns := connsWithHome(rt, 0, 5)
		// Stick the home worker in application code.
		if err := rt.Ingress(conns[0], frame(0, "long")); err != nil {
			t.Fatal(err)
		}
		blocked.Wait()
		// Now send short requests for other connections of the same home.
		start := time.Now()
		var done atomic.Int32
		wrs := make([]*captureWriter, 0, 4)
		for i, c := range conns[1:] {
			wrs = append(wrs, c.wr.(*captureWriter))
			if err := rt.Ingress(c, frame(uint64(i+1), "short")); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			n := 0
			for _, wr := range wrs {
				n += len(wr.messages())
			}
			if n == 4 {
				done.Store(int32(n))
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		if done.Load() != 4 && !disableProxy {
			t.Fatal("short requests never completed with proxying enabled")
		}
		return time.Since(start)
	}

	withProxy := run(false)
	if withProxy > 500*time.Millisecond {
		t.Errorf("with proxying, short requests took %v; want fast completion", withProxy)
	}
	withoutProxy := run(true)
	if withoutProxy < 1*time.Second {
		t.Errorf("without proxying, short requests finished in %v; they should be HOL-blocked", withoutProxy)
	}
}

func TestExactlyOnceDelivery(t *testing.T) {
	var count atomic.Uint64
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		count.Add(1)
		ctx.Reply(nil)
	})
	rt := newTestRuntime(t, Config{Cores: 4, Handler: handler})
	const conns = 8
	const per = 500
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		c := rt.NewConn(&captureWriter{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if err := rt.Ingress(c, frame(uint64(k), "x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !rt.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}
	if got := count.Load(); got != conns*per {
		t.Fatalf("handler ran %d times, want %d", got, conns*per)
	}
	if got := rt.Stats().Events; got != conns*per {
		t.Fatalf("events counter %d, want %d", got, conns*per)
	}
}

func TestClosedConnRejectsIngress(t *testing.T) {
	rt := newTestRuntime(t, Config{Cores: 1, Handler: echoHandler()})
	c := rt.NewConn(&captureWriter{})
	rt.CloseConn(c)
	if err := rt.Ingress(c, frame(1, "x")); err == nil {
		t.Fatal("ingress on closed conn must error")
	}
	if !c.Closed() {
		t.Fatal("Closed() must report true")
	}
}

func TestMalformedStreamPoisonsConn(t *testing.T) {
	rt := newTestRuntime(t, Config{Cores: 1, Handler: echoHandler()})
	wr := &captureWriter{}
	c := rt.NewConn(wr)
	bad := make([]byte, proto.HeaderSize)
	bad[3] = 0x7f // enormous length
	if err := rt.Ingress(c, bad); err != nil {
		t.Fatal(err)
	}
	if !rt.Flush(2 * time.Second) {
		t.Fatal("flush timed out")
	}
	if !c.Closed() {
		t.Fatal("malformed stream must poison the connection")
	}
}

func TestRuntimeCloseRejectsIngress(t *testing.T) {
	rt, err := New(Config{Cores: 1, Handler: echoHandler()})
	if err != nil {
		t.Fatal(err)
	}
	c := rt.NewConn(&captureWriter{})
	rt.Close()
	rt.Close() // double close is safe
	if err := rt.Ingress(c, frame(1, "x")); err == nil {
		t.Fatal("ingress after close must error")
	}
}

func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		<-release
	})
	rt := newTestRuntime(t, Config{Cores: 1, Handler: handler, IngressCap: 4})
	c := rt.NewConn(&captureWriter{})
	doneSending := make(chan struct{})
	go func() {
		defer close(doneSending)
		for i := 0; i < 64; i++ {
			if err := rt.Ingress(c, frame(uint64(i), "x")); err != nil {
				return
			}
		}
	}()
	select {
	case <-doneSending:
		t.Fatal("64 sends into a cap-4 ingress with a blocked handler should backpressure")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-doneSending:
	case <-time.After(5 * time.Second):
		t.Fatal("sender never unblocked after handler released")
	}
}

func TestStateMachineQuiescesIdle(t *testing.T) {
	rt := newTestRuntime(t, Config{Cores: 4, Handler: echoHandler()})
	var conns []*Conn
	for i := 0; i < 32; i++ {
		conns = append(conns, rt.NewConn(&captureWriter{}))
	}
	for round := 0; round < 20; round++ {
		for i, c := range conns {
			if err := rt.Ingress(c, frame(uint64(round), fmt.Sprintf("r%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !rt.Flush(10 * time.Second) {
		t.Fatal("flush timed out")
	}
	for i, c := range conns {
		if c.pending() != 0 {
			t.Errorf("conn %d has %d pending events after quiesce", i, c.pending())
		}
		if st := c.State(); st != StateIdle {
			t.Errorf("conn %d in state %v after quiesce", i, st)
		}
	}
}

func TestConnStateString(t *testing.T) {
	if StateIdle.String() != "idle" || StateReady.String() != "ready" || StateBusy.String() != "busy" {
		t.Fatal("state strings wrong")
	}
	if ConnState(9).String() != "invalid" {
		t.Fatal("invalid state must render")
	}
}

func TestCtxWorkerAndStolen(t *testing.T) {
	seen := make(chan int, 1)
	handler := HandlerFunc(func(ctx *Ctx, c *Conn, m proto.Message) {
		select {
		case seen <- ctx.Worker():
		default:
		}
		_ = ctx.Stolen()
		ctx.Reply(nil)
	})
	rt := newTestRuntime(t, Config{Cores: 2, Handler: handler})
	c := rt.NewConn(&captureWriter{})
	if err := rt.Ingress(c, frame(1, "x")); err != nil {
		t.Fatal(err)
	}
	if !rt.Flush(2 * time.Second) {
		t.Fatal("flush timed out")
	}
	w := <-seen
	if w < 0 || w >= 2 {
		t.Fatalf("worker index %d out of range", w)
	}
}

// Stress: hammer the runtime from many producers while handlers reply,
// verifying no replies are lost and all connections quiesce. Run with
// -race in CI to validate the locking protocol.
func TestStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rt := newTestRuntime(t, Config{Cores: 8, Handler: echoHandler(), ParkInterval: 50 * time.Microsecond})
	const conns = 64
	const per = 300
	writers := make([]*captureWriter, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		writers[i] = &captureWriter{}
		c := rt.NewConn(writers[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for k := 0; k < per; k++ {
				buf = proto.AppendMessage(buf[:0], proto.Message{ID: uint64(k)})
				if err := rt.Ingress(c, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !rt.Flush(30 * time.Second) {
		t.Fatal("flush timed out")
	}
	total := 0
	for i, wr := range writers {
		n := len(wr.messages())
		total += n
		if n != per {
			t.Errorf("conn %d: %d replies, want %d", i, n, per)
		}
	}
	if total != conns*per {
		t.Fatalf("lost replies: %d of %d", total, conns*per)
	}
}

// blockingWriter blocks WriteReply until released, simulating a peer
// that stalls its read side past the transport's egress backpressure.
type blockingWriter struct {
	blocked chan struct{} // closed once WriteReply has parked
	release chan struct{}
	once    sync.Once
}

func (w *blockingWriter) WriteReply(frame []byte) error {
	w.once.Do(func() { close(w.blocked) })
	<-w.release
	return nil
}

// A worker wedged outside both application code and its kernel step —
// blocked writing a stalled peer's reply — must not take every other
// connection homed on it down with it: idle workers proxy its kernel
// step on queue depth alone, so the healthy connections' events are
// parsed, stolen, and answered while the write stays stuck.
func TestProxyUnwedgesBlockedEgress(t *testing.T) {
	rt := newTestRuntime(t, Config{Cores: 2, Handler: echoHandler(), ParkInterval: 50 * time.Microsecond})
	bw := &blockingWriter{blocked: make(chan struct{}), release: make(chan struct{})}
	defer close(bw.release)

	// Two connections with the same home: one whose replies wedge their
	// writer, one healthy.
	var stalled, healthy *Conn
	healthyWr := &captureWriter{}
	for stalled == nil || healthy == nil {
		if stalled == nil {
			if c := rt.NewConn(bw); c.Home() == 0 {
				stalled = c
			}
		} else {
			if c := rt.NewConn(healthyWr); c.Home() == 0 {
				healthy = c
			}
		}
	}

	if err := rt.Ingress(stalled, frame(1, "wedge")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-bw.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled connection's reply write never started")
	}

	const n = 32
	for i := uint64(0); i < n; i++ {
		if err := rt.Ingress(healthy, frame(i, "alive")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(healthyWr.messages()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d replies while a sibling connection's write is wedged", len(healthyWr.messages()), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
