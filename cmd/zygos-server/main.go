// Command zygos-server runs a ZygOS-style RPC server over real TCP with
// one of three applications:
//
//   - spin: the paper's synthetic microbenchmark — each request carries a
//     little-endian uint64 of nanoseconds to busy-spin before replying;
//   - kv: the memcached-like store (pair with zygos-loadgen -workload etc|usr);
//   - tpcc: the Silo-style database running one TPC-C mix transaction per
//     request.
//
// The server installs the latency-recording middleware, and optionally a
// queue-depth admission controller (-shed) that rejects excess load with
// a StatusShed wire status instead of letting queues build.
//
// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, flush
// in-flight requests (including detached replies), print a final stats
// line, then close.
//
// Usage:
//
//	zygos-server -mode spin -addr :9000 -cores 4 [-shed 1024]
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"zygos"
	"zygos/internal/kv"
	"zygos/internal/silo"
	"zygos/internal/tpcc"
)

func main() {
	var (
		mode        = flag.String("mode", "spin", "spin|kv|tpcc")
		addr        = flag.String("addr", ":9000", "listen address")
		cores       = flag.Int("cores", 0, "worker cores (0 = GOMAXPROCS)")
		partitioned = flag.Bool("partitioned", false, "disable work stealing (IX-style baseline)")
		noInt       = flag.Bool("nointerrupts", false, "disable the IPI-analogue kernel proxying")
		warehouses  = flag.Int("warehouses", 2, "tpcc: warehouse count")
		shed        = flag.Int("shed", 0, "admission control: max in-flight requests before shedding (0 = off)")
		routeShed   = flag.Bool("routeshed", false, "shed by declared per-route priority instead of uniformly, and enforce route SLOs (kv/tpcc modes; requires -shed)")
		flushWait   = flag.Duration("flushwait", 5*time.Second, "graceful shutdown: max wait for in-flight requests")
		shards      = flag.Int("shards", 0, "SO_REUSEPORT accept shards (0 = one per core; Linux only, degrades to 1 elsewhere)")
		idle        = flag.Duration("idle", 0, "close connections quiet for this long (0 = off)")
		depth       = flag.Bool("depth", true, "piggyback queue-depth health frames to v3 peers (feeds cluster-tier balancing)")
	)
	flag.Parse()

	handler, mux, cleanup, err := buildHandler(*mode, *warehouses)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()

	srv, err := zygos.NewServer(zygos.Config{
		Cores:        *cores,
		Handler:      handler,
		Partitioned:  *partitioned,
		NoInterrupts: *noInt,
		IdleTimeout:  *idle,
		DepthFrames:  *depth,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Use(srv.LatencyRecording())
	switch {
	case *shed > 0 && *routeShed && mux != nil:
		srv.Use(srv.RouteAwareAdmission(mux, *shed), srv.SLOEnforcement(mux))
	case *shed > 0:
		srv.Use(srv.AdmissionControl(*shed))
	}

	nshards := *shards
	if nshards <= 0 {
		nshards = srv.Cores()
	}
	listeners, err := zygos.ListenShards(*addr, nshards)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("zygos-server mode=%s cores=%d shed=%d shards=%d listening on %s",
		*mode, srv.Cores(), *shed, len(listeners), listeners[0].Addr())

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("received %v: draining", s)
		for _, l := range listeners {
			l.Close()
		}
	}()
	// One accept loop per shard; the first runs inline so the command
	// blocks until shutdown exactly as before.
	var wg sync.WaitGroup
	for _, l := range listeners[1:] {
		wg.Add(1)
		go func(l net.Listener) {
			defer wg.Done()
			srv.Serve(l)
		}(l)
	}
	if err := srv.Serve(listeners[0]); err != nil {
		log.Printf("serve: %v", err)
	}
	wg.Wait()

	// Graceful shutdown: flush everything already ingested — detached
	// replies included — then report and close.
	if !srv.Flush(*flushWait) {
		log.Printf("flush: in-flight requests still pending after %v", *flushWait)
	}
	st := srv.Stats()
	log.Printf("final stats: events=%d steals=%d (%.1f%%) proxies=%d (%.1f%%) parks=%d wakes=%d conns=%d detached=%d shed=%d expired=%d",
		st.Events, st.Steals, st.StealFraction()*100, st.Proxies, st.ProxyFraction()*100,
		st.Parks, st.Wakes, st.Conns, st.Detached, st.Shed, st.Expired)
	// Stats().Net.AcceptShards counts listeners *currently* served — zero
	// by the time shutdown reaches this line — so report the count this
	// process actually opened.
	log.Printf("final net: open=%d idle=%d accepted=%d reaped=%d pollsets=%d shards=%d egress_resident=%dB",
		st.Net.Open, st.Net.Idle, st.Net.Accepted, st.Net.Reaped, st.Net.Pollers,
		len(listeners), st.Net.EgressBytesResident)
	// The health view a cluster tier balances and breaks circuits on:
	// after a clean flush everything here should read zero.
	d := srv.Depths()
	log.Printf("final health: depth=%d backlog=%d ingress=%d ready=%d depth_frames=%v",
		d.Load(), d.Backlog, d.Ingress, d.Ready, *depth)
	if st.Latency.Count > 0 {
		log.Printf("final latency: %v", st.Latency)
		log.Printf("final queue delay: %v", st.QueueDelay)
	}
	// Per-route (wire method) breakdown, sorted by method ID.
	methods := make([]int, 0, len(st.Routes))
	for m := range st.Routes {
		methods = append(methods, int(m))
	}
	sort.Ints(methods)
	for _, m := range methods {
		rs := st.Routes[uint16(m)]
		log.Printf("final route %d: count=%d shed=%d expired=%d slo_attainment=%.3f %v",
			m, rs.Count, rs.Shed, rs.Expired, rs.Attainment(), rs.Latency)
	}
	srv.Close()
}

// buildHandler returns the mode's Handler and, for the Mux-routed
// applications, the Mux itself so SLO-aware middleware can read its
// route declarations. The kv and tpcc applications mount as
// method-routed Muxes (each operation or transaction type has its own
// wire method, with a method-0 legacy route for v1/v2 clients); spin
// stays a single bare handler.
func buildHandler(mode string, warehouses int) (zygos.Handler, *zygos.Mux, func(), error) {
	switch mode {
	case "spin":
		return spinHandler, nil, func() {}, nil
	case "kv":
		store := kv.NewStore(64, 256<<20)
		mux := store.NewMux()
		// Point lookups and writes are microsecond routes; deletes are
		// the cheap-to-sacrifice traffic under overload.
		mux.Route(kv.MethodGet).SLO(200*time.Microsecond, 2*time.Microsecond)
		mux.Route(kv.MethodSet).SLO(500*time.Microsecond, 4*time.Microsecond)
		mux.Route(kv.MethodDelete).SLO(500*time.Microsecond, 2*time.Microsecond).ShedPriority(1)
		return mux.Handler(), mux, func() {}, nil
	case "tpcc":
		db := silo.NewDB(10 * time.Millisecond)
		store, err := tpcc.Load(db, tpcc.Config{Warehouses: warehouses}, 1)
		if err != nil {
			db.Close()
			return nil, nil, nil, err
		}
		log.Printf("tpcc: loaded %d warehouses", warehouses)
		mux := store.NewMux(7)
		return mux.Handler(), mux, db.Close, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown mode %q", mode)
	}
}

// spinHandler busy-spins for the requested duration, emulating the
// paper's synthetic service times.
func spinHandler(w zygos.ResponseWriter, req *zygos.Request) {
	if len(req.Payload) >= 8 {
		ns := binary.LittleEndian.Uint64(req.Payload[:8])
		deadline := time.Now().Add(time.Duration(ns))
		for time.Now().Before(deadline) {
		}
	}
	w.Reply([]byte{0})
}
