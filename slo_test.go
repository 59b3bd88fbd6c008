// Overload-control tests: route SLO declarations, priority-ordered
// admission, middleware deadline enforcement, scheduler-level expiry,
// the client retry policy, and the cluster tier's budget plumbing
// (front-tier admission, proxy budget decrement).
package zygos

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"zygos/internal/proto"
)

// recordingWriter is a ResponseWriter for driving middleware directly:
// it records the completion and doubles as its own Completion, so
// detach-by-policy paths complete through the same record.
type recordingWriter struct {
	done     chan struct{}
	payload  []byte
	code     uint8
	errored  bool
	detached bool
}

func newRecordingWriter() *recordingWriter {
	return &recordingWriter{done: make(chan struct{})}
}

func (w *recordingWriter) Reply(p []byte) error {
	w.payload = append([]byte(nil), p...)
	close(w.done)
	return nil
}

func (w *recordingWriter) Error(code uint8, msg string) error {
	w.code, w.errored = code, true
	close(w.done)
	return nil
}

func (w *recordingWriter) Detach() Completion {
	w.detached = true
	return w
}

func TestRouteSLOHints(t *testing.T) {
	echo := func(w ResponseWriter, req *Request) { w.Reply(req.Payload) }
	mux := NewMux()
	mux.HandleFunc(1, echo)
	mux.HandleFunc(2, echo)
	mux.HandleFunc(3, echo)
	mux.Route(1).SLO(200*time.Microsecond, 2*time.Microsecond)
	mux.Route(2).SLO(time.Millisecond, 10*time.Microsecond).ShedPriority(-3)

	h := mux.SLOHints()
	if got := h[1]; got != (RouteSLO{Budget: 200 * time.Microsecond, Cost: 2 * time.Microsecond}) {
		t.Fatalf("route 1 hints %+v", got)
	}
	// Negative priorities clamp to 0 — "shed last", never "shed before
	// the limit".
	if got := h[2].ShedPriority; got != 0 {
		t.Fatalf("route 2 priority %d, want 0 (clamped)", got)
	}
	if _, ok := h[3]; ok {
		t.Fatal("route 3 declared no SLO but has hints")
	}

	// The hint table is a copy-on-write snapshot: declaring while a
	// reader holds the old map must not mutate it.
	old := mux.SLOHints()
	mux.Route(1).ShedPriority(2)
	if old[1].ShedPriority != 0 {
		t.Fatal("SLO declaration mutated a published snapshot")
	}
	if mux.SLOHints()[1].ShedPriority != 2 {
		t.Fatal("new snapshot missing the declaration")
	}
}

// Route-aware admission sheds by declared priority: with the backlog
// between a sacrificial route's threshold and the full limit, the
// sacrificial route is refused (with a drain-time retry-after hint)
// while the protected route keeps serving.
func TestRouteAwareAdmissionShedsByPriority(t *testing.T) {
	const (
		protected   uint16 = 1
		sacrificial uint16 = 2
		blocker     uint16 = 3
	)
	release := make(chan struct{})
	mux := NewMux()
	echo := func(w ResponseWriter, req *Request) { w.Reply(req.Payload) }
	mux.HandleFunc(protected, echo)
	mux.HandleFunc(sacrificial, echo)
	mux.HandleFunc(blocker, func(w ResponseWriter, req *Request) {
		co := w.Detach()
		go func() {
			<-release
			co.Reply([]byte("unblocked"))
		}()
	})
	mux.Route(sacrificial).SLO(time.Millisecond, 100*time.Microsecond).ShedPriority(2)

	s := newEchoServer(t, Config{Cores: 1, Handler: mux.Handler()})
	s.Use(s.RouteAwareAdmission(mux, 8))

	// Park four detached blockers: backlog 4, under the full limit of 8
	// but over the sacrificial route's threshold of 8>>2 = 2. They get
	// their own connection — per-connection reply ordering would
	// otherwise sequence the probes' replies behind the parked ones.
	bc := s.NewClient()
	defer bc.Close()
	blocked := make(chan error, 4)
	for i := 0; i < 4; i++ {
		if err := bc.SendMethodAsync(blocker, nil, func(_ []byte, err error) { blocked <- err }); err != nil {
			t.Fatal(err)
		}
	}
	c := s.NewClient()
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Detached < 4 {
		if time.Now().After(deadline) {
			t.Fatal("blockers never detached")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// The sacrificial route sheds; ErrShed matches and the hint is the
	// deterministic drain estimate: excess 3 × declared cost 100µs over
	// 1 core.
	_, err := c.CallMethod(sacrificial, []byte("x"))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("sacrificial route: got %v, want ErrShed", err)
	}
	if d, ok := RetryAfter(err); !ok || d != 300*time.Microsecond {
		t.Fatalf("RetryAfter = %v, %v; want 300µs, true", d, ok)
	}
	// The protected route is untouched by the same backlog.
	if resp, err := c.CallMethod(protected, []byte("vip")); err != nil || string(resp) != "vip" {
		t.Fatalf("protected route: %q %v", resp, err)
	}

	st := s.Stats()
	if st.Shed != 1 || st.Routes[sacrificial].Shed != 1 || st.Routes[protected].Shed != 0 {
		t.Fatalf("shed counters: total=%d sacrificial=%d protected=%d",
			st.Shed, st.Routes[sacrificial].Shed, st.Routes[protected].Shed)
	}

	close(release)
	for i := 0; i < 4; i++ {
		if err := <-blocked; err != nil {
			t.Fatalf("blocker %d: %v", i, err)
		}
	}
	// Backlog drained: the sacrificial route admits again.
	if resp, err := c.CallMethod(sacrificial, []byte("ok")); err != nil || string(resp) != "ok" {
		t.Fatalf("post-drain: %q %v", resp, err)
	}
}

// SLOEnforcement's two jobs, driven directly: an expired request is
// refused without invoking the handler, and a route whose declared cost
// exceeds its budget is detached by policy so the worker moves on.
func TestSLOEnforcementExpiryAndPreDetach(t *testing.T) {
	s := newEchoServer(t, Config{Cores: 1})
	mux := NewMux()
	var ran atomic.Bool
	mux.HandleFunc(4, func(w ResponseWriter, req *Request) {
		ran.Store(true)
		w.Reply([]byte("slow-scan"))
	})
	mw := s.SLOEnforcement(mux)
	h := mw(mux.Handler())

	// Budget already gone: StatusDeadlineExceeded, handler never runs,
	// route expiry counter attributes the loss.
	w := newRecordingWriter()
	h(w, &Request{Method: 4, deadline: time.Now().Add(-time.Microsecond)})
	<-w.done
	if !w.errored || w.code != StatusDeadlineExceeded {
		t.Fatalf("expired request completed %+v, want StatusDeadlineExceeded", w)
	}
	if ran.Load() {
		t.Fatal("expired request still ran the handler")
	}
	if got := s.Stats().Routes[4].Expired; got != 1 {
		t.Fatalf("route expired counter %d, want 1", got)
	}

	// Declared Cost ≥ Budget: the handler is pre-detached — it runs, but
	// through a detached completion.
	mux.Route(4).SLO(100*time.Microsecond, time.Millisecond)
	w = newRecordingWriter()
	h(w, &Request{Method: 4})
	<-w.done
	if !w.detached {
		t.Fatal("slow route was not detached by policy")
	}
	if string(w.payload) != "slow-scan" {
		t.Fatalf("detached reply %q", w.payload)
	}
}

// The same pre-detach end to end: a route declared slower than its
// budget completes normally for the client while Stats().Detached shows
// the worker was released.
func TestSLOEnforcementPreDetachEndToEnd(t *testing.T) {
	mux := NewMux()
	mux.HandleFunc(5, func(w ResponseWriter, req *Request) { w.Reply([]byte("scan")) })
	mux.Route(5).SLO(100*time.Microsecond, 2*time.Millisecond)
	s := newEchoServer(t, Config{Cores: 1, Handler: mux.Handler()})
	s.Use(s.SLOEnforcement(mux))

	c := s.NewClient()
	defer c.Close()
	if resp, err := c.CallMethod(5, nil); err != nil || string(resp) != "scan" {
		t.Fatalf("pre-detached call: %q %v", resp, err)
	}
	if !s.Flush(5 * time.Second) {
		t.Fatal("flush timed out")
	}
	if got := s.Stats().Detached; got < 1 {
		t.Fatalf("Detached = %d, want ≥ 1", got)
	}
}

// A budgeted request that expires while queued behind a busy worker is
// answered StatusDeadlineExceeded by the scheduler without running the
// handler — work shed for free instead of executed for nobody.
//
// A budget counts from parse (the server cannot trust client clocks),
// so the probe must be *parsed* before the worker blocks, then wait in
// the ready queue past its budget. Two pipelined gated requests arrange
// that: the first pins the sole worker while the second gated frame and
// the probe land in the ingress ring; releasing the gate lets one
// kernel step parse both — stamping both deadlines — and EDF runs the
// shorter-budget gated request first, pinning the worker again while
// the probe's budget drains in the ready queue.
func TestDeadlineExpiresInQueue(t *testing.T) {
	const (
		gated    uint16 = 8
		budgeted uint16 = 7
	)
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	var ran atomic.Bool
	mux := NewMux()
	mux.HandleFunc(gated, func(w ResponseWriter, req *Request) {
		started <- struct{}{}
		<-gate // hold the only worker synchronously
		w.Reply(nil)
	})
	mux.HandleFunc(budgeted, func(w ResponseWriter, req *Request) {
		ran.Store(true)
		w.Reply(req.Payload)
	})
	// One core and no kernel proxying: with the worker pinned in the
	// gated handler, nothing else may execute the budgeted request — it
	// must sit in the queue until its budget is gone.
	s := newEchoServer(t, Config{Cores: 1, NoInterrupts: true, Handler: mux.Handler()})

	gateDone := make(chan error, 2)
	a := s.NewClient()
	defer a.Close()
	if err := a.SendMethodAsync(gated, nil, func(_ []byte, err error) { gateDone <- err }); err != nil {
		t.Fatal(err)
	}
	<-started

	// Worker pinned: queue the second gated request (5ms budget — the
	// earlier EDF deadline) and the probe (20ms). Both frames sit
	// unparsed until the gate opens.
	if err := a.SendMethodBudgetAsync(gated, nil, 5*time.Millisecond, func(_ []byte, err error) {
		gateDone <- err
	}); err != nil {
		t.Fatal(err)
	}
	b := s.NewClient()
	defer b.Close()
	expired := make(chan error, 1)
	if err := b.SendMethodBudgetAsync(budgeted, nil, 20*time.Millisecond, func(_ []byte, err error) {
		expired <- err
	}); err != nil {
		t.Fatal(err)
	}

	// Release gate #1: the worker parses both queued frames, stamping
	// their deadlines, and activates the gated conn first. Hold it past
	// the probe's budget, then release.
	gate <- struct{}{}
	<-started
	time.Sleep(50 * time.Millisecond)
	gate <- struct{}{}

	for i := 0; i < 2; i++ {
		if err := <-gateDone; err != nil {
			t.Fatalf("gated request: %v", err)
		}
	}
	err := <-expired
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	if ran.Load() {
		t.Fatal("expired request still ran the handler")
	}
	st := s.Stats()
	if st.Expired != 1 || st.Routes[budgeted].Expired != 1 {
		t.Fatalf("expired counters: total=%d route=%d, want 1/1", st.Expired, st.Routes[budgeted].Expired)
	}
	// The connection survives the shed.
	if resp, err := b.CallMethod(budgeted, []byte("alive")); err != nil || string(resp) != "alive" {
		t.Fatalf("follow-up: %q %v", resp, err)
	}
}

func TestRetryPolicyHonorsRetryAfter(t *testing.T) {
	shed := &StatusError{Code: StatusShed, Msg: proto.FormatRetryAfter(2*time.Millisecond, "busy")}
	calls := 0
	rp := &RetryPolicy{MaxAttempts: 3, Rand: rand.New(rand.NewSource(1))}
	start := time.Now()
	resp, err := rp.Do(func() ([]byte, error) {
		calls++
		if calls < 3 {
			return nil, shed
		}
		return []byte("ok"), nil
	})
	if err != nil || string(resp) != "ok" {
		t.Fatalf("Do: %q %v", resp, err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	// Two hinted sleeps, each jittered over [hint/2, hint): at least
	// 2 × 1ms must have elapsed.
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("elapsed %v, want ≥ 2ms of hinted backoff", elapsed)
	}
}

func TestRetryPolicyStopsOnNonShed(t *testing.T) {
	// Non-shed errors — including deadline expiry — return immediately:
	// retrying work the server judged undeliverable feeds the overload.
	calls := 0
	rp := &RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Microsecond}
	_, err := rp.Do(func() ([]byte, error) {
		calls++
		return nil, &StatusError{Code: StatusDeadlineExceeded, Msg: "late"}
	})
	if calls != 1 {
		t.Fatalf("non-shed error retried: %d calls", calls)
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v", err)
	}

	// Exhausted attempts surface the original shed error, still
	// ErrShed-matchable.
	calls = 0
	rp = &RetryPolicy{MaxAttempts: 2, BaseBackoff: 10 * time.Microsecond, MaxBackoff: 50 * time.Microsecond}
	_, err = rp.Do(func() ([]byte, error) {
		calls++
		return nil, &StatusError{Code: StatusShed, Msg: "no room"}
	})
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if !errors.Is(err, ErrShed) {
		t.Fatalf("exhausted retry lost the shed error: %v", err)
	}
}

// The cluster's front-tier admission gate refuses a request before any
// backend sees a byte of it once the fleet-wide load estimate exceeds
// MaxClusterDepth.
func TestClusterFrontTierAdmission(t *testing.T) {
	release := make(chan struct{})
	backend := newEchoServer(t, Config{Cores: 1, Handler: func(w ResponseWriter, req *Request) {
		co := w.Detach()
		go func() {
			<-release
			co.Reply([]byte("done"))
		}()
	}})
	cl := NewCluster(ClusterConfig{MaxClusterDepth: 1})
	defer cl.Close()
	cl.Add("b", backend.NewClient())

	// Two in-flight calls pass the gate (depth 0 then 1 ≤ limit); the
	// third sees depth 2 > 1 and is refused synchronously.
	settled := make(chan error, 2)
	for i := 0; i < 2; i++ {
		if err := cl.SendMethodAsync(0, nil, func(_ []byte, err error) { settled <- err }); err != nil {
			t.Fatalf("call %d refused: %v", i, err)
		}
	}
	_, err := cl.CallMethod(0, nil)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("got %v, want ErrShed from front-tier admission", err)
	}
	if d, ok := RetryAfter(err); !ok || d < 50*time.Microsecond || d > 10*time.Millisecond {
		t.Fatalf("RetryAfter = %v, %v; want clamped hint", d, ok)
	}
	if got := cl.Stats().Shed; got != 1 {
		t.Fatalf("cluster Shed = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-settled; err != nil {
			t.Fatalf("admitted call %d: %v", i, err)
		}
	}
	// Load drained: admitted again.
	if resp, err := cl.CallMethod(0, nil); err != nil || string(resp) != "done" {
		t.Fatalf("post-drain: %q %v", resp, err)
	}
}

// The proxy forwards the budget *remaining* at the hop — decremented,
// never re-granted — and refuses an already-expired request without
// touching a backend.
func TestProxyBudgetDecrement(t *testing.T) {
	const m uint16 = 9
	seen := make(chan time.Duration, 1)
	report := func(w ResponseWriter, req *Request) {
		rem, ok := req.RemainingBudget()
		if !ok {
			rem = -1
		}
		seen <- rem
		w.Reply([]byte("ok"))
	}
	mux := NewMux()
	mux.HandleFunc(m, report)
	mux.HandleFunc(0, report)
	backend := newEchoServer(t, Config{Cores: 1, Handler: mux.Handler()})
	cl := NewCluster(ClusterConfig{})
	defer cl.Close()
	cl.Add("b", backend.NewClient())
	front, err := NewServer(Config{Cores: 1, Handler: ProxyHandler(cl)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)

	c := front.NewClient()
	defer c.Close()
	const budget = 100 * time.Millisecond
	if _, err := c.CallMethodTimeout(m, nil, budget); err != nil {
		t.Fatal(err)
	}
	rem := <-seen
	if rem <= 0 || rem >= budget {
		t.Fatalf("backend saw remaining budget %v, want decremented within (0, %v)", rem, budget)
	}

	// Legacy (method-less) calls forward their remaining budget too.
	if _, err := c.CallTimeout(nil, budget); err != nil {
		t.Fatal(err)
	}
	if rem := <-seen; rem <= 0 || rem >= budget {
		t.Fatalf("legacy call: backend saw remaining budget %v, want decremented within (0, %v)", rem, budget)
	}

	// Expired before forwarding: StatusDeadlineExceeded straight from
	// the proxy, no backend dispatch.
	w := newRecordingWriter()
	ProxyHandler(cl)(w, &Request{Method: m, deadline: time.Now().Add(-time.Millisecond)})
	<-w.done
	if !w.errored || w.code != StatusDeadlineExceeded {
		t.Fatalf("expired proxy request completed %+v, want StatusDeadlineExceeded", w)
	}
	select {
	case rem := <-seen:
		t.Fatalf("expired request reached the backend (remaining %v)", rem)
	default:
	}
}
