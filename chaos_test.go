// Chaos soak: seeded fault-injection runs over the full stack. Each
// scenario drives a conformance workload through faultnet wrappers —
// caller-level faults over in-process backends, byte-level faults over
// TCP — and asserts the failure-domain invariants: every op settles
// exactly once, deadlines bound every blocking call, breakers trip and
// readmit, and buffer accounting returns to its starting snapshot.
//
// Runs are reproducible: a failing seed replays with
// CHAOS_SEEDS=<n> (seed count) and CHAOS_OPS=<n> (ops per seed). CI
// smoke uses a short seed matrix; `make chaos-soak` runs the long one.
package zygos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"zygos/internal/bufpool"
	"zygos/internal/faultnet"
)

// chaosEnvInt reads a positive integer knob from the environment.
func chaosEnvInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

func chaosSeedCount(t *testing.T) int {
	if testing.Short() {
		return 2
	}
	return chaosEnvInt("CHAOS_SEEDS", 8)
}

func chaosOps() int { return chaosEnvInt("CHAOS_OPS", 200) }

// TestChaosClusterFaultyBackends soaks the cluster tier over three
// in-process backends whose transports inject resets, blackholes,
// dropped replies, latency, and depth-report loss. The invariants under
// fire: every issued op settles exactly once (deadline, failover, or
// reply), blocking calls return within their budget, and after teardown
// the runtimes hold zero live segments and the bufpool checkout count
// returns to its snapshot.
func TestChaosClusterFaultyBackends(t *testing.T) {
	ops := chaosOps()
	// Per-seed bufpool checkouts after teardown. The runtime's event
	// pool legitimately retains reply-frame buffers up to the peak
	// concurrency high-water (see TestConnChurnNoLeaks), so the leak
	// invariant is cross-seed: the count must stop growing once the
	// first seeds establish the high-water, not return to zero.
	var endOutstanding []int64
	for s := 0; s < chaosSeedCount(t); s++ {
		seed := int64(s + 1)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			oneWays := new(atomic.Int64)
			mux := newConformanceMux(oneWays)
			backends := make([]*Server, 3)
			for i := range backends {
				b, err := NewServer(Config{Cores: 2, Handler: mux.Handler(), DepthFrames: true})
				if err != nil {
					t.Fatal(err)
				}
				backends[i] = b
			}
			cl := NewCluster(ClusterConfig{
				Policy:      PolicyP2C,
				Hedge:       HedgeConfig{Enabled: true, MinDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
				CallTimeout: 250 * time.Millisecond,
				Breaker:     BreakerConfig{Cooldown: 5 * time.Millisecond},
			})
			faulty := make([]*faultnet.FaultyCaller, len(backends))
			for i, b := range backends {
				faulty[i] = faultnet.WrapCaller(b.NewClient(), faultnet.Plan{
					Seed:       seed*31 + int64(i),
					PReset:     0.05,
					PBlackhole: 0.03,
					PDropReply: 0.03,
					PDelay:     0.20,
					PDropDepth: 0.50,
				})
				cl.Add(fmt.Sprintf("b%d", i), faulty[i])
			}

			var settles, doubles, okCount atomic.Int64
			flags := make([]atomic.Bool, ops)
			for i := 0; i < ops; i++ {
				i := i
				err := cl.SendMethodAsync(confEchoA, []byte("chaos"), func(resp []byte, err error) {
					if flags[i].Swap(true) {
						doubles.Add(1)
					}
					if err == nil {
						okCount.Add(1)
					}
					settles.Add(1)
				})
				if err != nil {
					// A synchronous refusal settles the op at the call site;
					// the callback will never run for it.
					if flags[i].Swap(true) {
						doubles.Add(1)
					}
					settles.Add(1)
				}
			}

			// Blocking calls race the same chaos: each must return within
			// its deadline budget no matter what the injector does.
			for i := 0; i < 16; i++ {
				start := time.Now()
				_, err := cl.CallMethodTimeout(confEchoA, []byte("blocking"), 100*time.Millisecond)
				if el := time.Since(start); el > 5*time.Second {
					t.Fatalf("blocking call %d took %v (err=%v); deadline did not bound it", i, el, err)
				}
			}

			deadline := time.Now().Add(30 * time.Second)
			for settles.Load() < int64(ops) {
				if time.Now().After(deadline) {
					t.Fatalf("hang: %d/%d ops settled (seed %d, faults %+v %+v %+v)",
						settles.Load(), ops, seed,
						faulty[0].FaultStats(), faulty[1].FaultStats(), faulty[2].FaultStats())
				}
				time.Sleep(5 * time.Millisecond)
			}
			if d := doubles.Load(); d != 0 {
				t.Fatalf("%d ops settled more than once", d)
			}
			if ok := okCount.Load(); ok < int64(ops)/4 {
				t.Fatalf("only %d/%d ops succeeded; fault rates should leave most survivable", ok, ops)
			}

			cl.Close()
			// Teardown: every ingress segment must drain.
			lkDeadline := time.Now().Add(10 * time.Second)
			for {
				var live int64
				for _, b := range backends {
					live += b.rt.SegmentsLive()
				}
				if live == 0 {
					break
				}
				if time.Now().After(lkDeadline) {
					t.Fatalf("leak after chaos: SegmentsLive=%d", live)
				}
				time.Sleep(10 * time.Millisecond)
			}
			for _, b := range backends {
				b.Close()
			}
			endOutstanding = append(endOutstanding, bufpool.Outstanding())
		})
	}
	assertNoPoolGrowth(t, endOutstanding)
}

// assertNoPoolGrowth is the cross-seed leak bound of the chaos soaks:
// identical workloads per seed mean the event pool's high-water is set
// by the first two seeds, so a per-op leak shows as the last seed's
// post-teardown bufpool checkouts climbing past it.
func assertNoPoolGrowth(t *testing.T, endOutstanding []int64) {
	t.Helper()
	if len(endOutstanding) < 3 {
		return
	}
	allow := max(endOutstanding[0], endOutstanding[1]) + 64
	if last := endOutstanding[len(endOutstanding)-1]; last > allow {
		t.Fatalf("bufpool checkouts grew across seeds: %v (allowance %d)", endOutstanding, allow)
	}
}

// TestChaosTCPCorruptStream soaks the TCP path through a fault-wrapped
// listener injecting corrupt frames, partial writes, resets, and write
// latency into server replies. Corruption may poison a connection (the
// client parser refuses the stream) or silently alter a payload, so the
// only assertions are liveness ones: every blocking call returns within
// its deadline, a timed-out manager is replaced and the workload
// continues, and teardown leaks nothing.
func TestChaosTCPCorruptStream(t *testing.T) {
	srv, _, _ := newConformanceServer(t)
	ops := chaosOps()
	if ops > 64 {
		ops = 64 // a wedged (corrupt-length) conn costs a deadline per call; keep the soak bounded
	}
	for s := 0; s < chaosSeedCount(t); s++ {
		seed := int64(s + 1)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fl := faultnet.WrapListener(l, faultnet.Plan{
				Seed:     seed,
				PCorrupt: 0.02,
				PPartial: 0.30,
				PReset:   0.03,
				PDelay:   0.10,
			})
			go srv.Serve(fl)
			t.Cleanup(func() { l.Close() })
			addr := l.Addr().String()

			m := NewConnManager(addr, 2, 5*time.Second)
			mc, err := m.NewCaller()
			if err != nil {
				t.Fatal(err)
			}
			var okCount, errCount int
			for i := 0; i < ops; i++ {
				start := time.Now()
				_, cerr := mc.CallMethodTimeout(confEchoA, []byte("tcp-chaos"), 500*time.Millisecond)
				if el := time.Since(start); el > 10*time.Second {
					t.Fatalf("call %d took %v; deadline did not bound it", i, el)
				}
				if cerr == nil {
					okCount++
					continue
				}
				errCount++
				if errors.Is(cerr, ErrCallTimeout) {
					// The deadline is the only wedge detector a client has:
					// a corrupt length field leaves the conn open but mute.
					// Replace the manager, as an application would.
					m.Close()
					m = NewConnManager(addr, 2, 5*time.Second)
					if mc, err = m.NewCaller(); err != nil {
						t.Fatal(err)
					}
				}
			}
			m.Close()
			if okCount == 0 {
				t.Fatalf("no call survived the fault plan (errs=%d, faults %+v)", errCount, fl.FaultStats())
			}

			if !srv.Flush(10 * time.Second) {
				t.Fatal("flush timed out")
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				segs := srv.rt.SegmentsLive()
				pollers := int64(srv.tcp.NetStats().Pollers)
				if segs <= pollers {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("leak after TCP chaos: SegmentsLive=%d pollers=%d (faults %+v)",
						segs, pollers, fl.FaultStats())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestChaosBlackholeDeadline: a call against a fully blackholed backend
// must return ErrCallTimeout within its deadline budget — both the
// configured default and a per-call override.
func TestChaosBlackholeDeadline(t *testing.T) {
	oneWays := new(atomic.Int64)
	b, err := NewServer(Config{Cores: 2, Handler: newConformanceMux(oneWays).Handler()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	cl := NewCluster(ClusterConfig{
		Policy:      PolicyJSQ,
		CallTimeout: 50 * time.Millisecond,
	})
	cl.Add("blackhole", faultnet.WrapCaller(b.NewClient(), faultnet.Plan{PBlackhole: 1}))
	t.Cleanup(cl.Close)

	start := time.Now()
	_, err = cl.CallMethod(confEchoA, []byte("x"))
	el := time.Since(start)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if el < 40*time.Millisecond || el > 5*time.Second {
		t.Fatalf("default deadline fired after %v, want ~50ms", el)
	}

	start = time.Now()
	_, err = cl.CallMethodTimeout(confEchoA, []byte("x"), 20*time.Millisecond)
	el = time.Since(start)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("override err = %v, want ErrCallTimeout", err)
	}
	if el > 5*time.Second {
		t.Fatalf("override deadline fired after %v", el)
	}
	if got := cl.Stats().DeadlinesExpired; got != 2 {
		t.Fatalf("DeadlinesExpired = %d, want 2", got)
	}
}

// TestChaosBreakerKillRecover kills one backend of three under live
// load (every send through it resets), proves the breaker trips and the
// cluster keeps serving, then restores the backend and proves a probe
// readmits it.
func TestChaosBreakerKillRecover(t *testing.T) {
	oneWays := new(atomic.Int64)
	mux := newConformanceMux(oneWays)
	backends := make([]*Server, 3)
	for i := range backends {
		b, err := NewServer(Config{Cores: 2, Handler: mux.Handler()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		backends[i] = b
	}

	var down atomic.Bool
	script := func(op uint64) (faultnet.Action, bool) {
		if down.Load() {
			return faultnet.Reset, true
		}
		return faultnet.Pass, true
	}
	cl := NewCluster(ClusterConfig{
		Policy:      PolicyJSQ,
		CallTimeout: 2 * time.Second,
		Breaker:     BreakerConfig{Threshold: 3, Cooldown: 20 * time.Millisecond},
	})
	cl.Add("victim", faultnet.WrapCaller(backends[0].NewClient(), faultnet.Plan{Script: script}))
	cl.Add("b1", backends[1].NewClient())
	cl.Add("b2", backends[2].NewClient())
	t.Cleanup(cl.Close)

	victimState := func() string {
		for _, b := range cl.Stats().Backends {
			if b.Name == "victim" {
				return b.State
			}
		}
		return "?"
	}

	// Healthy baseline.
	for i := 0; i < 50; i++ {
		if _, err := cl.CallMethod(confEchoA, []byte("warm")); err != nil {
			t.Fatalf("baseline call %d: %v", i, err)
		}
	}

	// Kill the victim: every send through it now resets. Failover keeps
	// the callers whole while consecutive failures trip the breaker.
	down.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for cl.Stats().BreakerTrips == 0 {
		if _, err := cl.CallMethod(confEchoA, []byte("kill")); err != nil {
			t.Fatalf("call lost during kill (failover should absorb resets): %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never tripped; victim state %q", victimState())
		}
	}

	// Tripped: load keeps flowing (probes may fail; failover absorbs
	// them too).
	for i := 0; i < 100; i++ {
		start := time.Now()
		if _, err := cl.CallMethod(confEchoA, []byte("degraded")); err != nil {
			t.Fatalf("call %d failed with victim tripped: %v", i, err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("call %d took %v with victim tripped; tail did not recover", i, el)
		}
	}

	// Restart: the next successful probe readmits the victim.
	down.Store(false)
	deadline = time.Now().Add(10 * time.Second)
	for victimState() != "up" {
		if _, err := cl.CallMethod(confEchoA, []byte("heal")); err != nil {
			t.Fatalf("call lost during recovery: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never readmitted; state %q, stats %+v", victimState(), cl.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := cl.Stats()
	if s.BreakerTrips == 0 || s.BreakerProbes == 0 || s.BreakerReadmits == 0 {
		t.Fatalf("breaker cycle incomplete: trips=%d probes=%d readmits=%d",
			s.BreakerTrips, s.BreakerProbes, s.BreakerReadmits)
	}
}

// TestChaosOverloadSoak drives the cluster tier well past its service
// capacity — a full-rate burst of a bimodal kv/scan mix, twice, with a
// straggler backend in the pool — and asserts the overload-control
// invariants: every issued op settles exactly once and every settlement
// is a recognized outcome (reply, shed, or deadline), shed replies are
// ErrShed so clients can retry, goodput holds a floor instead of
// collapsing to zero, and after the storm the runtimes drain to zero
// live segments with bufpool accounting bounded across seeds.
func TestChaosOverloadSoak(t *testing.T) {
	const (
		kvRoute   uint16 = 1
		scanRoute uint16 = 2
	)
	ops := 2 * chaosOps()
	var endOutstanding []int64
	for s := 0; s < chaosSeedCount(t); s++ {
		seed := int64(s + 1)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Two healthy backends and one straggler whose every request
			// costs an extra 2ms — the depth-aware balancer should route
			// around it, and budgets bound whatever still lands there.
			newBackend := func(straggle time.Duration) *Server {
				mux := NewMux()
				mux.HandleFunc(kvRoute, func(w ResponseWriter, req *Request) {
					if straggle > 0 {
						time.Sleep(straggle)
					}
					w.Reply(req.Payload)
				})
				mux.HandleFunc(scanRoute, func(w ResponseWriter, req *Request) {
					time.Sleep(200*time.Microsecond + straggle)
					w.Reply(nil)
				})
				mux.Route(kvRoute).SLO(5*time.Millisecond, 50*time.Microsecond)
				mux.Route(scanRoute).SLO(25*time.Millisecond, time.Millisecond).ShedPriority(1)
				b, err := NewServer(Config{Cores: 2, Handler: mux.Handler(), DepthFrames: true})
				if err != nil {
					t.Fatal(err)
				}
				b.Use(b.LatencyRecording(), b.RouteAwareAdmission(mux, 64), b.SLOEnforcement(mux))
				return b
			}
			backends := []*Server{newBackend(0), newBackend(0), newBackend(2 * time.Millisecond)}
			cl := NewCluster(ClusterConfig{
				Policy:          PolicyP2C,
				CallTimeout:     100 * time.Millisecond,
				MaxClusterDepth: 256,
			})
			for i, b := range backends {
				cl.Add(fmt.Sprintf("b%d", i), b.NewClient())
			}

			rng := rand.New(rand.NewSource(seed * 7919))
			var settles, doubles, okCount, shedCount, lateCount atomic.Int64
			var unexpected atomic.Value
			flags := make([]atomic.Bool, ops)
			settle := func(i int, err error) {
				if flags[i].Swap(true) {
					doubles.Add(1)
				}
				switch {
				case err == nil:
					okCount.Add(1)
				case errors.Is(err, ErrShed):
					shedCount.Add(1)
				case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, ErrCallTimeout):
					lateCount.Add(1)
				default:
					unexpected.Store(err)
				}
				settles.Add(1)
			}
			// Two full-rate bursts with a breather between them: the
			// first storm must shed rather than wedge, and the pause
			// must be enough for admission to readmit the second.
			for burst := 0; burst < 2; burst++ {
				for i := burst * ops / 2; i < (burst+1)*ops/2; i++ {
					i := i
					method, payload := kvRoute, []byte("kv")
					if rng.Intn(5) == 0 {
						method, payload = scanRoute, nil
					}
					err := cl.SendMethodBudgetAsync(method, payload, 50*time.Millisecond, func(_ []byte, err error) {
						settle(i, err)
					})
					if err != nil {
						// Synchronous refusal (front-tier admission):
						// settles at the call site, no callback coming.
						settle(i, err)
					}
				}
				time.Sleep(20 * time.Millisecond)
			}

			deadline := time.Now().Add(60 * time.Second)
			for settles.Load() < int64(ops) {
				if time.Now().After(deadline) {
					t.Fatalf("hang: %d/%d ops settled (ok=%d shed=%d late=%d)",
						settles.Load(), ops, okCount.Load(), shedCount.Load(), lateCount.Load())
				}
				time.Sleep(5 * time.Millisecond)
			}
			if d := doubles.Load(); d != 0 {
				t.Fatalf("%d ops settled more than once", d)
			}
			if err, _ := unexpected.Load().(error); err != nil {
				t.Fatalf("settlement outside the overload contract: %v", err)
			}
			if ok := okCount.Load(); ok < int64(ops)/4 {
				t.Fatalf("goodput collapsed: %d/%d ok (shed=%d late=%d)",
					ok, ops, shedCount.Load(), lateCount.Load())
			}
			if shedCount.Load() > 0 {
				var routeShed uint64
				for _, b := range backends {
					st := b.Stats()
					routeShed += st.Routes[kvRoute].Shed + st.Routes[scanRoute].Shed
				}
				if cl.Stats().Shed == 0 && routeShed == 0 {
					t.Fatal("ops shed but no shed counter moved anywhere")
				}
			}

			cl.Close()
			drain := time.Now().Add(10 * time.Second)
			for {
				var live int64
				for _, b := range backends {
					live += b.rt.SegmentsLive()
				}
				if live == 0 {
					break
				}
				if time.Now().After(drain) {
					t.Fatalf("leak after overload: SegmentsLive=%d", live)
				}
				time.Sleep(10 * time.Millisecond)
			}
			for _, b := range backends {
				b.Close()
			}
			endOutstanding = append(endOutstanding, bufpool.Outstanding())
		})
	}
	assertNoPoolGrowth(t, endOutstanding)
}

// TestChaosSlowSubscriberSoak aims the streaming tier's worst case at a
// fault-injected TCP server: a paced firehose topic, a live subscriber
// sharing its connection with a closed-loop echo caller, and a raw
// subscriber that acks its SUBSCRIBE and then never reads another byte.
// The invariants: every echo call settles within its budget and the P99
// stays bounded (the fair-queued egress keeps push bytes behind RPC
// replies), the stalled subscriber's damage is confined to its own ring
// (drops are counted, publishes never block), the push accounting
// reconciles once the firehose stops (delivered = pushed + dropped +
// at most the stalled ring's residue), and teardown drains segments and
// pool checkouts like every other soak.
func TestChaosSlowSubscriberSoak(t *testing.T) {
	const (
		echoRoute uint16 = 1
		fireTopic uint16 = 9
		stallQCap        = 16
	)
	ops := chaosOps()
	var endOutstanding []int64
	for s := 0; s < chaosSeedCount(t); s++ {
		seed := int64(s + 1)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mux := NewMux()
			mux.HandleFunc(echoRoute, func(w ResponseWriter, req *Request) { w.Reply(req.Payload) })
			srv, err := NewServer(Config{Cores: 2, Handler: mux.Handler()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fl := faultnet.WrapListener(l, faultnet.Plan{
				Seed:     seed,
				PPartial: 0.35,
				PDelay:   0.15,
			})
			go srv.Serve(fl)
			t.Cleanup(func() { l.Close() })
			addr := l.Addr().String()

			c, err := DialClient(addr, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			var received atomic.Int64
			sub, err := c.Subscribe(fireTopic, FilterAll(), SubscribeOptions{Buffer: 512},
				func(_ uint32, _ []byte) { received.Add(1) })
			if err != nil {
				t.Fatal(err)
			}
			stalled := rawSubscribe(t, addr, fireTopic, uint8(DropOldest), stallQCap)

			// Paced firehose: bursts with a breather so the publisher
			// saturates the stalled ring without monopolizing small
			// machines' CPUs (a busy loop would measure scheduler
			// starvation, not egress fairness). published sums Publish's
			// matched counts, which must equal the bus's Delivered.
			stop := make(chan struct{})
			fireDone := make(chan struct{})
			var published atomic.Int64
			go func() {
				defer close(fireDone)
				payload := make([]byte, 1024)
				var id uint32
				for {
					select {
					case <-stop:
						return
					default:
					}
					for i := 0; i < 100; i++ {
						id++
						published.Add(int64(srv.Publish(fireTopic, id, payload)))
					}
					time.Sleep(time.Millisecond)
				}
			}()

			lat := make([]time.Duration, 0, ops)
			for i := 0; i < ops; i++ {
				start := time.Now()
				resp, cerr := c.CallMethodTimeout(echoRoute, []byte("soak"), 2*time.Second)
				el := time.Since(start)
				if cerr != nil {
					t.Fatalf("echo %d under firehose failed after %v: %v (faults %+v)",
						i, el, cerr, fl.FaultStats())
				}
				if string(resp) != "soak" {
					t.Fatalf("echo %d corrupted: %q", i, resp)
				}
				lat = append(lat, el)
			}
			close(stop)
			<-fireDone

			// Accounting reconciliation: once the firehose stops, the live
			// subscriber's ring drains fully (its peer reads), so the only
			// frames neither pushed nor dropped are the stalled ring's
			// residue — its flusher is parked on the egress backlog gate.
			waitUntilTrue(t, 30*time.Second, func() bool {
				st := srv.Stats().PubSub
				rem := int64(st.Delivered) - int64(st.Pushed) - int64(st.Dropped)
				return rem >= 0 && rem <= stallQCap
			}, "push accounting did not reconcile after the firehose stopped")
			st := srv.Stats().PubSub
			if st.Delivered != uint64(published.Load()) {
				t.Fatalf("bus delivered %d, publishers observed %d matches", st.Delivered, published.Load())
			}
			if st.Dropped == 0 {
				t.Fatalf("stalled subscriber (ring %d) produced no drops: %+v", stallQCap, st)
			}
			if received.Load() == 0 {
				t.Fatal("live subscriber received nothing")
			}

			if err := sub.Unsubscribe(); err != nil {
				t.Fatalf("unsubscribe: %v", err)
			}
			stalled.Close()
			c.Close()
			waitUntilTrue(t, 10*time.Second, func() bool {
				return srv.Stats().PubSub.Subscriptions == 0
			}, "subscriptions did not retire on close")
			if !srv.Flush(10 * time.Second) {
				t.Fatal("flush timed out")
			}
			drain := time.Now().Add(10 * time.Second)
			for {
				segs := srv.rt.SegmentsLive()
				pollers := int64(srv.tcp.NetStats().Pollers)
				if segs <= pollers {
					break
				}
				if time.Now().After(drain) {
					t.Fatalf("leak after subscriber soak: SegmentsLive=%d pollers=%d", segs, pollers)
				}
				time.Sleep(10 * time.Millisecond)
			}
			endOutstanding = append(endOutstanding, bufpool.Outstanding())

			// The latency bound comes last: under the race detector the
			// client parse path is ~10x slower and a single-CPU host
			// saturates, so the machinery above still runs but the bound
			// itself is only asserted uninstrumented.
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p99 := lat[len(lat)*99/100]
			if limit := 250 * time.Millisecond; p99 > limit {
				if raceEnabled {
					t.Skipf("echo P99 %v over %v under race; bound asserted only uninstrumented", p99, limit)
				}
				t.Fatalf("echo P99 %v exceeded %v under firehose (drops=%d, faults %+v)",
					p99, limit, st.Dropped, fl.FaultStats())
			}
		})
	}
	assertNoPoolGrowth(t, endOutstanding)
}
