// Caller conformance suite: every Caller primitive must behave
// identically over the in-process transport (srv.NewClient) and the TCP
// transport (DialClient), so memnet and tcpnet cannot drift. The server
// under test is a Mux with method-tagged echo routes, an error route,
// and a one-way counter, which lets each subtest prove both the reply
// contents and the route the request actually took. Frame-version
// interop (v1/v2/v3 on one stream, version-mirrored replies) is checked
// at the raw socket level at the bottom.
package zygos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"zygos/internal/bufpool"
	"zygos/internal/faultnet"
	"zygos/internal/proto"
	"zygos/internal/pubsub"
	"zygos/internal/tcpnet"
)

// Conformance-server routes. Method 0 is deliberately registered too:
// legacy (v2) traffic and v3 traffic naming method 0 must land on the
// same handler.
const (
	confEchoA  uint16 = 1
	confEchoB  uint16 = 2
	confErr    uint16 = 3
	confOne    uint16 = 4
	confShed   uint16 = 5
	confBudget uint16 = 6
	// confPush is the pub-sub topic the subscribe step publishes on; it
	// is a topic, not a request route.
	confPush uint16 = 7
)

// confShedHint is the retry-after hint the confShed route sheds with;
// steps assert it survives every transport byte-for-byte.
const confShedHint = 250 * time.Microsecond

// confEnv is what a conformance step needs beyond the Caller: the
// shared one-way counter and a flush that settles every server behind
// the transport (one for direct transports, front plus all backends
// for the cluster tier).
type confEnv struct {
	oneWays *atomic.Int64
	flush   func(timeout time.Duration) bool
	// publish emits one pub-sub frame on the server (or, for the cluster
	// tier, on a backend whose topic is relayed through the front) and
	// returns how many bus subscriptions matched at the publishing hop.
	publish func(topic uint16, frameID uint32, payload []byte) int
}

// newConformanceMux mounts the conformance routes on a fresh Mux,
// counting one-way executions in oneWays.
func newConformanceMux(oneWays *atomic.Int64) *Mux {
	mux := NewMux()
	// Echo routes reply [method:2 LE][payload]: the tag proves which
	// route ran and that Request.Method survived the trip.
	tagEcho := func(w ResponseWriter, req *Request) {
		var hdr [2]byte
		binary.LittleEndian.PutUint16(hdr[:], req.Method)
		w.Reply(append(hdr[:], req.Payload...))
	}
	mux.HandleFunc(0, tagEcho)
	mux.HandleFunc(confEchoA, tagEcho)
	mux.HandleFunc(confEchoB, tagEcho)
	mux.HandleFunc(confErr, func(w ResponseWriter, req *Request) {
		w.Error(StatusAppError, "route says no")
	})
	mux.HandleFunc(confOne, func(w ResponseWriter, req *Request) {
		if req.OneWay {
			oneWays.Add(1)
		}
		w.Reply(req.Payload)
	})
	// confShed always sheds with a retry-after hint, exactly as the
	// admission middleware would: the client-side contract (errors.Is
	// ErrShed, parseable hint) must hold over every transport, including
	// status preservation through the cluster tier's ProxyHandler.
	mux.HandleFunc(confShed, func(w ResponseWriter, req *Request) {
		w.Error(StatusShed, proto.FormatRetryAfter(confShedHint, "conformance shed"))
	})
	// confBudget reports what the handler saw of the wire deadline
	// budget: 8 bytes of little-endian remaining nanoseconds when the
	// request carried one, a single zero byte when it did not.
	mux.HandleFunc(confBudget, func(w ResponseWriter, req *Request) {
		rem, ok := req.RemainingBudget()
		if !ok {
			w.Reply([]byte{0})
			return
		}
		var p [8]byte
		binary.LittleEndian.PutUint64(p[:], uint64(rem))
		w.Reply(p[:])
	})
	return mux
}

// newConformanceServer mounts the conformance Mux and returns the
// server, a TCP address serving it, and the one-way counter.
func newConformanceServer(t *testing.T) (*Server, string, *atomic.Int64) {
	t.Helper()
	oneWays := new(atomic.Int64)
	srv, err := NewServer(Config{Cores: 2, Handler: newConformanceMux(oneWays).Handler()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	return srv, l.Addr().String(), oneWays
}

// newConformanceCluster builds the cluster-tier transport: three
// backend runtimes each serving the conformance Mux (sharing one
// one-way counter), fronted by a proxy server whose handler forwards
// through a hedging P2C cluster over in-process backend clients. The
// returned env's flush settles the front first (its handlers have
// forwarded by completion time), then every backend.
func newConformanceCluster(t *testing.T) (*Server, *ClusterCaller, *confEnv) {
	t.Helper()
	oneWays := new(atomic.Int64)
	mux := newConformanceMux(oneWays)
	backends := make([]*Server, 3)
	for i := range backends {
		b, err := NewServer(Config{Cores: 2, Handler: mux.Handler(), DepthFrames: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		backends[i] = b
	}
	cl := NewCluster(ClusterConfig{
		Policy: PolicyP2C,
		Hedge:  HedgeConfig{Enabled: true},
	})
	for i, b := range backends {
		cl.Add("backend-"+string(rune('a'+i)), b.NewClient())
	}
	front, err := NewServer(Config{Cores: 2, Handler: ProxyHandler(cl), DepthFrames: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	// PUSH forwarding across the proxy hop: the front subscribes to the
	// backend's push topic once and republishes into its own bus, so the
	// front's subscribers see frames published behind the ProxyHandler.
	relaySrc := backends[0].NewClient()
	t.Cleanup(relaySrc.Close)
	if _, err := RelayTopic(front, relaySrc, confPush, FilterAll(), SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	env := &confEnv{
		oneWays: oneWays,
		publish: func(topic uint16, frameID uint32, payload []byte) int {
			return backends[0].Publish(topic, frameID, payload)
		},
		flush: func(timeout time.Duration) bool {
			if !front.Flush(timeout) {
				return false
			}
			for _, b := range backends {
				if !b.Flush(timeout) {
					return false
				}
			}
			return true
		},
	}
	return front, cl, env
}

// wantTagged asserts a [method:2][payload] reply.
func wantTagged(t *testing.T, resp []byte, method uint16, payload string) {
	t.Helper()
	if len(resp) < 2 {
		t.Fatalf("short reply %q", resp)
	}
	if got := binary.LittleEndian.Uint16(resp[:2]); got != method {
		t.Fatalf("request routed to method %d, want %d", got, method)
	}
	if string(resp[2:]) != payload {
		t.Fatalf("payload %q, want %q", resp[2:], payload)
	}
}

// TestCallerConformance drives the full Caller surface over both
// transports through one table of primitives.
func TestCallerConformance(t *testing.T) {
	srv, addr, oneWays := newConformanceServer(t)

	steps := []struct {
		name string
		run  func(t *testing.T, c Caller, env *confEnv)
	}{
		{"Call routes to method 0", func(t *testing.T, c Caller, env *confEnv) {
			resp, err := c.Call([]byte("legacy"))
			if err != nil {
				t.Fatal(err)
			}
			wantTagged(t, resp, 0, "legacy")
		}},
		{"CallInto matches Call", func(t *testing.T, c Caller, env *confEnv) {
			buf := make([]byte, 0, 64)
			resp, err := c.CallInto([]byte("into"), buf)
			if err != nil {
				t.Fatal(err)
			}
			wantTagged(t, resp, 0, "into")
		}},
		{"CallMethod routes by method", func(t *testing.T, c Caller, env *confEnv) {
			for _, m := range []uint16{confEchoA, confEchoB, 0} {
				resp, err := c.CallMethod(m, []byte("routed"))
				if err != nil {
					t.Fatalf("method %d: %v", m, err)
				}
				wantTagged(t, resp, m, "routed")
			}
		}},
		{"CallMethodInto matches CallMethod", func(t *testing.T, c Caller, env *confEnv) {
			var buf []byte
			for i := 0; i < 3; i++ {
				resp, err := c.CallMethodInto(confEchoB, []byte("mi"), buf[:0])
				if err != nil {
					t.Fatal(err)
				}
				wantTagged(t, resp, confEchoB, "mi")
				buf = resp
			}
		}},
		{"SendAsync routes to method 0", func(t *testing.T, c Caller, env *confEnv) {
			done := make(chan []byte, 1)
			if err := c.SendAsync([]byte("async"), func(resp []byte, err error) {
				if err != nil {
					t.Errorf("SendAsync: %v", err)
				}
				done <- append([]byte(nil), resp...)
			}); err != nil {
				t.Fatal(err)
			}
			wantTagged(t, <-done, 0, "async")
		}},
		{"SendMethodAsync routes by method", func(t *testing.T, c Caller, env *confEnv) {
			done := make(chan []byte, 1)
			if err := c.SendMethodAsync(confEchoA, []byte("masync"), func(resp []byte, err error) {
				if err != nil {
					t.Errorf("SendMethodAsync: %v", err)
				}
				done <- append([]byte(nil), resp...)
			}); err != nil {
				t.Fatal(err)
			}
			wantTagged(t, <-done, confEchoA, "masync")
		}},
		{"SendOneWay and SendMethodOneWay execute without replies", func(t *testing.T, c Caller, env *confEnv) {
			before := env.oneWays.Load()
			if err := c.SendMethodOneWay(confOne, []byte("ow1")); err != nil {
				t.Fatal(err)
			}
			if err := c.SendOneWay([]byte("ow-legacy")); err != nil {
				t.Fatal(err)
			}
			// A round trip on the same connection orders us behind the
			// one-ways and proves nothing stray arrived in their place.
			resp, err := c.CallMethod(confEchoA, []byte("after"))
			if err != nil {
				t.Fatal(err)
			}
			wantTagged(t, resp, confEchoA, "after")
			if !env.flush(5 * time.Second) {
				t.Fatal("flush timed out")
			}
			// Only the method-routed one-way hits the counting route; the
			// legacy one lands on method 0's echo (suppressed reply).
			if got := env.oneWays.Load(); got != before+1 {
				t.Fatalf("one-way handler ran %d times, want %d", got, before+1)
			}
		}},
		{"CallTimeout and CallMethodTimeout complete within budget", func(t *testing.T, c Caller, env *confEnv) {
			resp, err := c.CallMethodTimeout(confEchoB, []byte("dl"), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			wantTagged(t, resp, confEchoB, "dl")
			resp, err = c.CallTimeout([]byte("dl-legacy"), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			wantTagged(t, resp, 0, "dl-legacy")
			// d < 0 disables the deadline; the call must still complete.
			resp, err = c.CallMethodTimeout(confEchoA, []byte("dl-off"), -1)
			if err != nil {
				t.Fatal(err)
			}
			wantTagged(t, resp, confEchoA, "dl-off")
		}},
		{"deadline budgets ride the wire to the handler", func(t *testing.T, c Caller, env *confEnv) {
			// Without a deadline the handler must see no budget at all —
			// a transport inventing one would make servers shed work
			// nobody asked them to.
			resp, err := c.CallMethod(confBudget, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp) != 1 {
				t.Fatalf("bare call arrived with a budget: reply %x", resp)
			}
			// CallMethodTimeout doubles as the wire budget: the handler
			// sees the remaining time, already decremented by however
			// many hops the request crossed (the cluster transport
			// forwards it through the proxy tier).
			const budget = 5 * time.Second
			resp, err = c.CallMethodTimeout(confBudget, nil, budget)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp) != 8 {
				t.Fatalf("budgeted call reply %x, want 8-byte remaining", resp)
			}
			rem := time.Duration(int64(binary.LittleEndian.Uint64(resp)))
			if rem <= 0 || rem > budget {
				t.Fatalf("handler saw remaining budget %v, want in (0, %v]", rem, budget)
			}
		}},
		{"SendMethodBudgetAsync stamps an explicit budget", func(t *testing.T, c Caller, env *confEnv) {
			bc, ok := c.(BudgetCaller)
			if !ok {
				t.Fatalf("%T does not implement BudgetCaller", c)
			}
			call := func(d time.Duration) []byte {
				t.Helper()
				done := make(chan []byte, 1)
				if err := bc.SendMethodBudgetAsync(confBudget, nil, d, func(resp []byte, err error) {
					if err != nil {
						t.Errorf("SendMethodBudgetAsync(%v): %v", d, err)
					}
					done <- append([]byte(nil), resp...)
				}); err != nil {
					t.Fatal(err)
				}
				return <-done
			}
			const budget = 2 * time.Second
			resp := call(budget)
			if len(resp) != 8 {
				t.Fatalf("budgeted send reply %x, want 8-byte remaining", resp)
			}
			rem := time.Duration(int64(binary.LittleEndian.Uint64(resp)))
			if rem <= 0 || rem > budget {
				t.Fatalf("handler saw remaining budget %v, want in (0, %v]", rem, budget)
			}
			// d <= 0 means no budget, not a zero budget.
			if resp := call(0); len(resp) != 1 {
				t.Fatalf("zero-budget send arrived with a budget: reply %x", resp)
			}
		}},
		{"shed replies are ErrShed with a retry-after hint", func(t *testing.T, c Caller, env *confEnv) {
			_, err := c.CallMethod(confShed, []byte("x"))
			if !errors.Is(err, ErrShed) {
				t.Fatalf("got %v, want errors.Is ErrShed", err)
			}
			if d, ok := RetryAfter(err); !ok || d != confShedHint {
				t.Fatalf("RetryAfter = %v, %v; want %v, true", d, ok, confShedHint)
			}
		}},
		{"StatusError propagates from routes", func(t *testing.T, c Caller, env *confEnv) {
			resp, err := c.CallMethod(confErr, []byte("x"))
			if resp != nil {
				t.Fatalf("error reply carried payload %q", resp)
			}
			var se *StatusError
			if !errors.As(err, &se) || se.Code != StatusAppError || se.Msg != "route says no" {
				t.Fatalf("got %v, want StatusAppError", err)
			}
		}},
		{"Subscribe receives filtered pushes; Unsubscribe stops them", func(t *testing.T, c Caller, env *confEnv) {
			sc, ok := c.(Subscriber)
			if !ok {
				t.Fatalf("%T does not implement Subscriber", c)
			}
			type push struct {
				id      uint32
				payload string
			}
			got := make(chan push, 16)
			sub, err := sc.Subscribe(confPush, FilterRange(100, 199), SubscribeOptions{}, func(id uint32, payload []byte) {
				got <- push{id: id, payload: string(payload)}
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := env.publish(confPush, 150, []byte("in-range-1")); n < 1 {
				t.Fatalf("publish matched %d subscriptions", n)
			}
			env.publish(confPush, 50, []byte("out-of-range")) // filtered out
			env.publish(confPush, 199, []byte("in-range-2"))
			next := func() push {
				t.Helper()
				select {
				case p := <-got:
					return p
				case <-time.After(5 * time.Second):
					t.Fatal("push never arrived")
					return push{}
				}
			}
			// Per-subscription delivery is FIFO, so receiving both in-range
			// frames in order with nothing in between proves the
			// out-of-range frame was filtered, not merely late.
			if p := next(); p.id != 150 || p.payload != "in-range-1" {
				t.Fatalf("first push %+v", p)
			}
			if p := next(); p.id != 199 || p.payload != "in-range-2" {
				t.Fatalf("second push %+v", p)
			}
			if err := sub.Unsubscribe(); err != nil {
				t.Fatal(err)
			}
			env.publish(confPush, 151, []byte("after-unsubscribe"))
			select {
			case p := <-got:
				t.Fatalf("push after unsubscribe: %+v", p)
			case <-time.After(100 * time.Millisecond):
			}
		}},
		{"unregistered method returns StatusNoMethod", func(t *testing.T, c Caller, env *confEnv) {
			_, err := c.CallMethod(60000, []byte("x"))
			var se *StatusError
			if !errors.As(err, &se) || se.Code != StatusNoMethod {
				t.Fatalf("got %v, want StatusNoMethod", err)
			}
			// The connection survives.
			if resp, err := c.CallMethod(confEchoA, []byte("alive")); err != nil {
				t.Fatal(err)
			} else {
				wantTagged(t, resp, confEchoA, "alive")
			}
		}},
		// Last: it closes the Caller.
		{"every form fails after Close without its callback", func(t *testing.T, c Caller, env *confEnv) {
			c.Close()
			var fired atomic.Int32
			cb := func([]byte, error) { fired.Add(1) }
			forms := map[string]func() error{
				"Do": func() error { return c.Do(Call{Method: confEchoA, Payload: []byte("x"), Done: cb}) },
				"Call": func() error {
					_, err := c.Call([]byte("x"))
					return err
				},
				"CallInto": func() error {
					_, err := c.CallInto([]byte("x"), nil)
					return err
				},
				"CallMethod": func() error {
					_, err := c.CallMethod(confEchoA, []byte("x"))
					return err
				},
				"CallMethodInto": func() error {
					_, err := c.CallMethodInto(confEchoA, []byte("x"), nil)
					return err
				},
				"CallTimeout": func() error {
					_, err := c.CallTimeout([]byte("x"), 5*time.Second)
					return err
				},
				"CallMethodTimeout": func() error {
					_, err := c.CallMethodTimeout(confEchoA, []byte("x"), 5*time.Second)
					return err
				},
				"SendAsync":        func() error { return c.SendAsync([]byte("x"), cb) },
				"SendMethodAsync":  func() error { return c.SendMethodAsync(confEchoA, []byte("x"), cb) },
				"SendOneWay":       func() error { return c.SendOneWay([]byte("x")) },
				"SendMethodOneWay": func() error { return c.SendMethodOneWay(confOne, []byte("x")) },
				"SendMethodBudgetAsync": func() error {
					return c.(BudgetCaller).SendMethodBudgetAsync(confEchoA, []byte("x"), time.Second, cb)
				},
				"Subscribe": func() error {
					_, err := c.(Subscriber).Subscribe(confPush, FilterAll(), SubscribeOptions{}, func(uint32, []byte) { fired.Add(1) })
					return err
				},
			}
			for name, form := range forms {
				errc := make(chan error, 1)
				go func() { errc <- form() }()
				select {
				case err := <-errc:
					if err == nil {
						t.Errorf("%s after Close returned nil", name)
					}
				case <-time.After(time.Second):
					t.Fatalf("%s after Close still blocked after 1s", name)
				}
			}
			time.Sleep(20 * time.Millisecond)
			if n := fired.Load(); n != 0 {
				t.Fatalf("%d callbacks fired after Close", n)
			}
		}},
	}

	// A second listener served by a transport forced onto the portable
	// deadline-scan poller, so the suite exercises both poller
	// implementations regardless of host OS. It shares the conformance
	// runtime: same Mux, same counters.
	ptcp := tcpnet.NewServer(srv.rt, tcpnet.WithPortablePoller())
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ptcp.Serve(pl)
	t.Cleanup(ptcp.Close)
	pollAddr := pl.Addr().String()

	// A third listener whose accepted conns inject benign byte-level
	// faults — write latency and partial writes — that reorder the
	// server's write timing without altering the byte stream. Every
	// conformance step must still pass verbatim: short reads and delayed
	// replies are not allowed to be observable at the RPC layer. (The
	// wrapped conns also lack syscall.Conn, so this doubles as coverage
	// for the per-conn fallback onto the portable poller.)
	fll, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := faultnet.WrapListener(fll, faultnet.Plan{Seed: 42, PPartial: 0.5, PDelay: 0.25})
	go srv.Serve(flaky)
	t.Cleanup(func() { fll.Close() })
	flakyAddr := fll.Addr().String()

	// Direct transports share the conformance server's env; the cluster
	// variant builds its own tier (front proxy over three backends) and
	// must settle every server in it.
	baseEnv := &confEnv{oneWays: oneWays, flush: srv.Flush, publish: srv.Publish}

	transports := []struct {
		name string
		dial func(t *testing.T) (Caller, *confEnv)
	}{
		{"inproc", func(t *testing.T) (Caller, *confEnv) { return srv.NewClient(), baseEnv }},
		{"tcp", func(t *testing.T) (Caller, *confEnv) {
			c, err := DialClient(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return c, baseEnv
		}},
		{"tcp-portable-poller", func(t *testing.T) (Caller, *confEnv) {
			c, err := DialClient(pollAddr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return c, baseEnv
		}},
		{"flaky-tcp", func(t *testing.T) (Caller, *confEnv) {
			c, err := DialClient(flakyAddr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return c, baseEnv
		}},
		{"connmanager", func(t *testing.T) (Caller, *confEnv) {
			m := NewConnManager(addr, 2, 5*time.Second)
			t.Cleanup(m.Close)
			c, err := m.NewCaller()
			if err != nil {
				t.Fatal(err)
			}
			return c, baseEnv
		}},
		{"cluster", func(t *testing.T) (Caller, *confEnv) {
			front, _, env := newConformanceCluster(t)
			return front.NewClient(), env
		}},
		// Call-level fault injection with an all-zero plan must be
		// invisible: every form runs through FaultyCaller.Do over TCP.
		{"faultnet", func(t *testing.T) (Caller, *confEnv) {
			tc, err := tcpnet.Dial(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return &TCPClient{newClientBase(faultnet.WrapCaller(tc, faultnet.Plan{}))}, baseEnv
		}},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			c, env := tr.dial(t)
			defer c.Close()
			for _, step := range steps {
				t.Run(step.name, func(t *testing.T) { step.run(t, c, env) })
			}
		})
	}
}

// TestConnChurnNoLeaks cycles clients — plain TCP and managed — through
// connect/call/close and proves the transport returns every pooled
// buffer: the runtime ends with zero live ingress segments and the
// process-wide bufpool checkout count returns to its starting snapshot.
// (Outstanding is compared against a snapshot rather than literal zero
// because components owned by other parts of the process may retain
// pooled buffers legitimately; the churn itself must net to zero.)
func TestConnChurnNoLeaks(t *testing.T) {
	srv, addr, _ := newConformanceServer(t)

	// A reset-injecting listener for the mid-call-reset leg of the
	// churn: some replies die half-written, so clients see truncated
	// streams, EOFs, and calls still in flight at Close — the teardown
	// orderings most likely to strand a pooled buffer.
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(faultnet.WrapListener(rl, faultnet.Plan{Seed: 99, PReset: 0.25, PPartial: 0.25}))
	t.Cleanup(func() { rl.Close() })
	resetAddr := rl.Addr().String()

	outBefore := bufpool.Outstanding()
	const cycles = 40
	for i := 0; i < cycles; i++ {
		c, err := DialClient(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.CallMethod(confEchoA, []byte("churn")); err != nil {
			c.Close()
			t.Fatal(err)
		}
		c.Close()

		m := NewConnManager(addr, 1, 5*time.Second)
		mc, err := m.NewCaller()
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		if _, err := mc.CallMethod(confEchoB, []byte("churn")); err != nil {
			m.Close()
			t.Fatal(err)
		}
		m.Close()

		// Mid-call resets: a bounded call that may die to an injected
		// reset, then a close with an async call still in flight. Errors
		// are expected; leaked buffers are not.
		rc, err := DialClient(resetAddr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = rc.CallMethodTimeout(confEchoA, []byte("reset-churn"), 2*time.Second)
		_ = rc.SendAsync([]byte("mid"), func([]byte, error) {})
		rc.Close()
	}
	if !srv.Flush(10 * time.Second) {
		t.Fatal("flush timed out after churn")
	}

	// Teardown is asynchronous on both ends (poller notices the close,
	// read loops drain); poll until the accounting settles.
	deadline := time.Now().Add(10 * time.Second)
	for {
		segs := srv.rt.SegmentsLive()
		out := bufpool.Outstanding()
		// Each running poller retains one read-scratch segment; the
		// conformance server keeps serving after this test, so allow
		// exactly that residue and nothing per-connection.
		pollers := int64(srv.tcp.NetStats().Pollers)
		if segs <= pollers && out <= outBefore+pollers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after %d churn cycles: SegmentsLive=%d (pollers=%d) Outstanding=%d (start %d)",
				cycles, segs, pollers, out, outBefore)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWireVersionInterop speaks raw frames to a routed server: a v1
// client, a v2 client, and a v3 client share one server, every reply
// mirrors its request's version, and the v3 reply echoes the method.
func TestWireVersionInterop(t *testing.T) {
	_, addr, _ := newConformanceServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))

	// Pipeline one frame of each version on one connection.
	var stream []byte
	stream = proto.AppendMessage(stream, proto.Message{ID: 1, Payload: []byte("v1")})
	stream = proto.AppendMessage(stream, proto.Message{Ver: 2, ID: 2, Payload: []byte("v2")})
	stream = proto.AppendFrameV3(stream, proto.Message{ID: 3, Method: confEchoB, Payload: []byte("v3")})
	if _, err := nc.Write(stream); err != nil {
		t.Fatal(err)
	}

	// v1 reply: 12-byte header, no magic, payload tagged method 0.
	var h1 [proto.HeaderSize]byte
	if _, err := io.ReadFull(nc, h1[:]); err != nil {
		t.Fatal(err)
	}
	if h1[3] == proto.Magic2 || h1[3] == proto.Magic3 {
		t.Fatalf("v1 request answered with magic %#x; a v1 client cannot parse it", h1[3])
	}
	n1 := binary.LittleEndian.Uint32(h1[0:4])
	if id := binary.LittleEndian.Uint64(h1[4:12]); id != 1 {
		t.Fatalf("v1 reply id %d", id)
	}
	b1 := make([]byte, n1)
	if _, err := io.ReadFull(nc, b1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, append([]byte{0, 0}, []byte("v1")...)) {
		t.Fatalf("v1 reply %q: must route to method 0", b1)
	}

	// v2 reply: Magic2 header, method-0 tagged payload.
	var h2 [proto.HeaderSizeV2]byte
	if _, err := io.ReadFull(nc, h2[:]); err != nil {
		t.Fatal(err)
	}
	if h2[3] != proto.Magic2 {
		t.Fatalf("v2 request answered with magic %#x, want v2 mirror", h2[3])
	}
	n2 := int(h2[0]) | int(h2[1])<<8 | int(h2[2])<<16
	if id := binary.LittleEndian.Uint64(h2[6:14]); id != 2 {
		t.Fatalf("v2 reply id %d", id)
	}
	b2 := make([]byte, n2)
	if _, err := io.ReadFull(nc, b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b2, append([]byte{0, 0}, []byte("v2")...)) {
		t.Fatalf("v2 reply %q: must route to method 0", b2)
	}

	// v3 reply: Magic3 header echoing the method, tagged payload.
	var h3 [proto.HeaderSizeV3]byte
	if _, err := io.ReadFull(nc, h3[:]); err != nil {
		t.Fatal(err)
	}
	if h3[3] != proto.Magic3 {
		t.Fatalf("v3 request answered with magic %#x, want v3 mirror", h3[3])
	}
	if m := binary.LittleEndian.Uint16(h3[6:8]); m != confEchoB {
		t.Fatalf("v3 reply header method %d, want %d", m, confEchoB)
	}
	if id := binary.LittleEndian.Uint64(h3[8:16]); id != 3 {
		t.Fatalf("v3 reply id %d", id)
	}
	n3 := int(h3[0]) | int(h3[1])<<8 | int(h3[2])<<16
	b3 := make([]byte, n3)
	if _, err := io.ReadFull(nc, b3); err != nil {
		t.Fatal(err)
	}
	var tag [2]byte
	binary.LittleEndian.PutUint16(tag[:], confEchoB)
	if !bytes.Equal(b3, append(tag[:], []byte("v3")...)) {
		t.Fatalf("v3 reply %q: must route to method %d", b3, confEchoB)
	}
}

// TestWireV4Interop pipelines all four frame versions on one raw
// socket: the v1/v2/v3 RPCs round-trip untouched, the v4 SUBSCRIBE is
// acked with a version-mirrored v4 frame, a published frame arrives as
// a well-formed v4 PUSH carrying the subscription ID, and the
// connection keeps serving v2 RPCs afterwards.
func TestWireV4Interop(t *testing.T) {
	srv, addr, _ := newConformanceServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))

	const subID = 0xBEEF
	spec, err := pubsub.AppendSubSpec(nil, pubsub.SubSpec{Filter: pubsub.Exact(321)})
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	stream = proto.AppendMessage(stream, proto.Message{ID: 1, Payload: []byte("v1")})
	stream = proto.AppendMessage(stream, proto.Message{Ver: 2, ID: 2, Payload: []byte("v2")})
	stream = proto.AppendFrameV3(stream, proto.Message{ID: 3, Method: confEchoA, Payload: []byte("v3")})
	stream = proto.AppendMessage(stream, proto.Message{Ver: 4, ID: 4, Method: confPush, SubID: subID, Kind: proto.KindSubscribe, Payload: spec})
	if _, err := nc.Write(stream); err != nil {
		t.Fatal(err)
	}

	// readFrame pulls one whole frame of any version off the socket and
	// returns it parsed.
	var p proto.Parser
	defer p.ReleaseBuffer()
	rbuf := make([]byte, 4096)
	readFrame := func() proto.Message {
		t.Helper()
		for {
			if m, ok, err := p.Next(); err != nil {
				t.Fatalf("parse: %v", err)
			} else if ok {
				return m
			}
			n, err := nc.Read(rbuf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			p.Feed(rbuf[:n])
		}
	}

	// Replies mirror their request versions, v1/v2/v3 exactly as before
	// the v4 extension existed.
	r1 := readFrame()
	if r1.Ver != 0 || r1.ID != 1 {
		t.Fatalf("v1 reply %+v", r1)
	}
	r1.Release()
	r2 := readFrame()
	if r2.Ver != 2 || r2.ID != 2 {
		t.Fatalf("v2 reply %+v", r2)
	}
	r2.Release()
	r3 := readFrame()
	if r3.Ver != 3 || r3.ID != 3 || r3.Method != confEchoA {
		t.Fatalf("v3 reply %+v", r3)
	}
	r3.Release()
	ack := readFrame()
	if ack.Ver != 4 || ack.Kind != proto.KindSubscribe || ack.ID != 4 || ack.SubID != subID || ack.Status != proto.StatusOK {
		t.Fatalf("SUBSCRIBE ack %+v", ack)
	}
	ack.Release()

	// A published frame matching the exact filter arrives as a PUSH; a
	// non-matching one does not (FIFO per subscription, so the matching
	// frame arriving alone proves it).
	srv.Publish(confPush, 999, []byte("filtered-out"))
	if n := srv.Publish(confPush, 321, []byte("pushed")); n != 1 {
		t.Fatalf("publish matched %d", n)
	}
	pushMsg := readFrame()
	if pushMsg.Ver != 4 || pushMsg.Kind != proto.KindPush || pushMsg.SubID != subID {
		t.Fatalf("PUSH frame %+v", pushMsg)
	}
	if uint32(pushMsg.ID) != 321 || string(pushMsg.Payload) != "pushed" {
		t.Fatalf("PUSH content id=%d payload=%q", pushMsg.ID, pushMsg.Payload)
	}
	pushMsg.Release()

	// UNSUBSCRIBE is acked and the connection still serves RPCs.
	if _, err := nc.Write(proto.AppendMessage(nil, proto.Message{Ver: 4, ID: 5, Method: confPush, SubID: subID, Kind: proto.KindUnsubscribe})); err != nil {
		t.Fatal(err)
	}
	uack := readFrame()
	if uack.Ver != 4 || uack.Kind != proto.KindUnsubscribe || uack.ID != 5 || uack.Status != proto.StatusOK {
		t.Fatalf("UNSUBSCRIBE ack %+v", uack)
	}
	uack.Release()
	if _, err := nc.Write(proto.AppendMessage(nil, proto.Message{Ver: 2, ID: 6, Payload: []byte("still-v2")})); err != nil {
		t.Fatal(err)
	}
	r6 := readFrame()
	if r6.Ver != 2 || r6.ID != 6 || !bytes.Equal(r6.Payload, append([]byte{0, 0}, []byte("still-v2")...)) {
		t.Fatalf("post-unsubscribe v2 reply %+v", r6)
	}
	r6.Release()
}
