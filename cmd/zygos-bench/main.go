// Command zygos-bench regenerates the tables and figures of the ZygOS
// paper's evaluation from this repository's simulators and applications.
//
// Usage:
//
//	zygos-bench [-experiment all|fig2|fig3|fig6|fig7|fig8|fig9|fig10a|fig10b|table1|fig11] [-full] [-seed N]
//	zygos-bench -live [-requests N] [-cores N] [-method M]
//
// The default quick mode finishes in minutes; -full (or ZYGOS_FULL=1)
// selects the dense grids used for EXPERIMENTS.md. -live skips the
// simulators and measures the real runtime instead: one Caller-generic
// echo measurement driven over both the in-process and the TCP loopback
// transport.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"zygos"
	"zygos/internal/experiments"
	"zygos/internal/proto"
	"zygos/internal/stats"
)

// gcDelta captures GC and allocation activity across a measured region,
// so live runs expose allocation regressions in the hot path directly in
// their stats line.
type gcDelta struct {
	start runtime.MemStats
}

func startGCDelta() *gcDelta {
	g := &gcDelta{}
	runtime.ReadMemStats(&g.start)
	return g
}

// line renders "gc=N pause=D allocs/op=F" for ops operations since start.
func (g *gcDelta) line(ops int) string {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	numGC := end.NumGC - g.start.NumGC
	pause := time.Duration(end.PauseTotalNs - g.start.PauseTotalNs)
	allocs := float64(end.Mallocs - g.start.Mallocs)
	perOp := 0.0
	if ops > 0 {
		perOp = allocs / float64(ops)
	}
	return fmt.Sprintf("gc=%d pause=%v allocs/op=%.1f", numGC, pause.Round(time.Microsecond), perOp)
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id or 'all'")
		full       = flag.Bool("full", os.Getenv("ZYGOS_FULL") == "1", "dense grids and large samples")
		seed       = flag.Int64("seed", 1, "simulation seed")
		live       = flag.Bool("live", false, "measure the real runtime instead of the simulators")
		requests   = flag.Int("requests", 50000, "live: requests per transport")
		cores      = flag.Int("cores", 0, "live: worker cores (0 = GOMAXPROCS)")
		method     = flag.Uint("method", 0, "live: route the echo through this wire method ID via a Mux (0 = bare handler, legacy frames)")
		targets    = flag.String("targets", "", "live: comma-separated remote server addresses measured through one round-robin caller (skips the local server)")
		watch      = flag.Bool("watch", false, "live: subscribe to the server's stats stream and print each sample while the run goes")
	)
	flag.Parse()

	if *live {
		if err := runLive(*requests, *cores, uint16(*method), *targets, *watch); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	opt := experiments.Options{Full: *full, Seed: *seed}
	run := func(id string, gen experiments.Generator) {
		start := time.Now()
		res := gen(opt)
		res.Render(os.Stdout)
		fmt.Printf("(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for _, e := range experiments.Registry {
			run(e.ID, e.Gen)
		}
		return
	}
	gen, ok := experiments.ByID(*experiment)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available:", *experiment)
		for _, e := range experiments.Registry {
			fmt.Fprintf(os.Stderr, " %s", e.ID)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	run(*experiment, gen)
}

// runLive measures closed-loop echo latency of the real runtime. The
// measurement function takes a zygos.Caller, so the same code path
// drives the in-process transport and the TCP loopback transport; only
// the dial differs. With method != 0 the echo handler is mounted on a
// Mux under that wire method and calls travel as v3 frames —
// exercising the routed dispatch path end to end. With watch, the
// server streams its Stats() over a v4 push subscription and each
// sample prints as it arrives — the same live telemetry a dashboard
// would consume, riding the connection under test.
func runLive(requests, cores int, method uint16, targets string, watch bool) error {
	if targets != "" {
		if watch {
			return fmt.Errorf("-watch requires the local -live server (stats streaming is enabled server-side)")
		}
		return runLiveTargets(requests, method, targets)
	}
	echo := func(w zygos.ResponseWriter, req *zygos.Request) { w.Reply(req.Payload) }
	handler := zygos.Handler(echo)
	if method != 0 {
		mux := zygos.NewMux()
		mux.HandleFunc(method, echo)
		handler = mux.Handler()
	}
	srv, err := zygos.NewServer(zygos.Config{
		Cores:   cores,
		Handler: handler,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Use(srv.LatencyRecording())

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(l)

	if watch {
		stop, err := srv.StreamStats(250 * time.Millisecond)
		if err != nil {
			return err
		}
		defer stop()
		wc, err := zygos.DialClient(l.Addr().String(), 5*time.Second)
		if err != nil {
			return err
		}
		defer wc.Close()
		sub, err := wc.Subscribe(zygos.TopicStats, zygos.FilterAll(), zygos.SubscribeOptions{},
			func(seq uint32, payload []byte) {
				var st zygos.Stats
				if json.Unmarshal(payload, &st) != nil {
					return
				}
				fmt.Printf("watch #%d: events=%d steals=%d parks=%d pushed=%d dropped=%d subs=%d\n",
					seq, st.Events, st.Steals, st.Parks,
					st.PubSub.Pushed, st.PubSub.Dropped, st.PubSub.Subscriptions)
			})
		if err != nil {
			return err
		}
		defer sub.Unsubscribe()
	}

	measure := func(name string, dial func() (zygos.Caller, error)) error {
		c, err := dial()
		if err != nil {
			return err
		}
		defer c.Close()
		sample := stats.NewSample(requests)
		payload := []byte("0123456789abcdef")
		var buf []byte
		gc := startGCDelta()
		start := time.Now()
		for i := 0; i < requests; i++ {
			t0 := time.Now()
			var r []byte
			var err error
			if method != 0 {
				r, err = c.CallMethodInto(method, payload, buf[:0])
			} else {
				r, err = c.CallInto(payload, buf[:0])
			}
			if err != nil {
				return fmt.Errorf("%s call %d: %w", name, i, err)
			}
			buf = r
			sample.Add(time.Since(t0).Nanoseconds())
		}
		elapsed := time.Since(start)
		fmt.Printf("%-8s %8.0f req/s  %s  %s\n", name,
			float64(requests)/elapsed.Seconds(), sample.Summarize(), gc.line(requests))
		return nil
	}

	if err := measure("inproc", func() (zygos.Caller, error) { return srv.NewClient(), nil }); err != nil {
		return err
	}
	if err := measure("tcp", func() (zygos.Caller, error) {
		return zygos.DialClient(l.Addr().String(), 5*time.Second)
	}); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Printf("server: events=%d steals=%d (%.1f%%) proxies=%d (%.1f%%) parks=%d wakes=%d  latency %v\n",
		st.Events, st.Steals, st.StealFraction()*100, st.Proxies, st.ProxyFraction()*100,
		st.Parks, st.Wakes, st.Latency)
	return nil
}

// runLiveTargets measures closed-loop echo latency against remote
// servers, calls round-robined across them — the load-blind baseline a
// zygos-proxy front (point -targets at it alone) is judged against.
func runLiveTargets(requests int, method uint16, targets string) error {
	var callers []zygos.Caller
	for _, a := range strings.Split(targets, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		c, err := zygos.DialClient(a, 5*time.Second)
		if err != nil {
			return fmt.Errorf("dial %s: %w", a, err)
		}
		callers = append(callers, c)
	}
	if len(callers) == 0 {
		return fmt.Errorf("-targets: no addresses")
	}
	rr := &rrCaller{cs: callers}
	rr.Calls = proto.Calls{Doer: rr}
	defer rr.Close()
	sample := stats.NewSample(requests)
	payload := []byte("0123456789abcdef")
	var buf []byte
	gc := startGCDelta()
	start := time.Now()
	for i := 0; i < requests; i++ {
		t0 := time.Now()
		var r []byte
		var err error
		if method != 0 {
			r, err = rr.CallMethodInto(method, payload, buf[:0])
		} else {
			r, err = rr.CallInto(payload, buf[:0])
		}
		if err != nil {
			return fmt.Errorf("call %d: %w", i, err)
		}
		buf = r
		sample.Add(time.Since(t0).Nanoseconds())
	}
	elapsed := time.Since(start)
	fmt.Printf("%-8s %8.0f req/s  %s  %s\n", "targets",
		float64(requests)/elapsed.Seconds(), sample.Summarize(), gc.line(requests))
	return nil
}

// rrCaller rotates calls across a fixed set of callers — static
// round-robin with no view of backend load.
type rrCaller struct {
	proto.Calls
	cs []zygos.Caller
	n  atomic.Uint64
}

func (r *rrCaller) Do(c zygos.Call) error { return r.cs[r.n.Add(1)%uint64(len(r.cs))].Do(c) }

func (r *rrCaller) Close() {
	for _, c := range r.cs {
		c.Close()
	}
}
