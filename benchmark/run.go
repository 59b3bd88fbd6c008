package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// Phase lengths as shares of a run's --seconds. A timed run is an open
// loop then a closed loop; a traced run is a short untraced open loop
// (the base for trace.overhead_frac), a traced one, then the ladder.
const (
	openShare     = 0.75
	closedShare   = 0.25
	untracedShare = 0.25
	tracedShare   = 0.40
	rungShare     = 0.025 // each of the ladder's rungs

	// openWarm is sent at the head of every open loop and not measured.
	openWarm = time.Second
	// openWindows is how many windows an open loop's measured part is cut
	// into; p50_us and p75_us are medians over the windows' quantiles, so
	// a burst of interference from the shared host moves one window, not
	// the metric.
	openWindows = 12
	// setups is how many times a timed run sets up; setup_s is the median.
	setups = 5
	// lateAfter is the generator lag beyond which a send counts as late.
	lateAfter = 100 * time.Microsecond
	// maxLateFrac is the share of late sends above which a run's latency
	// describes the generator rather than the server. The highest
	// percentile compared end to end is the 75th, which a quarter of the
	// sends being late would reach; the limit is well under half of that.
	maxLateFrac = 0.10
)

type runOptions struct {
	seed        int64
	seconds     float64
	partitioned bool
	// smoke shrinks everything that is sized in requests or repeats
	// rather than in --seconds, so a run ends in a second or two.
	smoke bool
}

func (o runOptions) setups() int {
	if o.smoke {
		return 1
	}
	return setups
}

func (o runOptions) openWarm() time.Duration {
	if o.smoke {
		return openWarm / 5
	}
	return openWarm
}

func (o runOptions) warmup(w workload) int64 {
	if o.smoke {
		return int64(w.warmup / 20)
	}
	return int64(w.warmup)
}

func (o runOptions) share(s float64) time.Duration {
	return time.Duration(s * o.seconds * float64(time.Second))
}

// metric is one named number of a result.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run of one workload reports.
type result struct {
	workload string
	// metrics are the end-to-end metrics of a timed run or the per-layer
	// metrics of a traced one; diag is printed beside them and never
	// compared.
	metrics, diag []metric
	tally         tally
	lateFrac      float64
	tableHash     uint64
	serverProcs   int
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *result) addDiag(name string, v float64, unit string) {
	r.diag = append(r.diag, metric{name, v, unit})
}

// invalid reports that the generator ran too late for the latency
// numbers to describe the server.
func (r *result) invalid() bool { return r.lateFrac > maxLateFrac }

// session is one server process with the generator connected to it and
// warmed up.
type session struct {
	g      *generator
	srv    *serverProc
	traced bool
}

// setUp spawns the server, dials, preloads (kv) and warms up with a
// fixed count of closed-loop requests. Its duration is setup_s.
func setUp(w workload, tab *table, opt runOptions, traceCap int) (*session, tally, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(serverConfig{
		Kind: w.kind, Cores: runtime.NumCPU(), Partitioned: opt.partitioned,
		Conns: w.conns, TraceCap: traceCap,
	})
	if err != nil {
		return nil, tally{}, 0, err
	}
	s := &session{g: &generator{w: w, clk: newClock()}, srv: srv, traced: traceCap > 0}
	var total tally
	err = s.g.dial(srv.ready.Addr)
	if err == nil && w.kind == kindKV {
		var t tally
		_, t, err = s.g.closedLoop(tab.preloadTable(), w.window, kvKeys, 0)
		total.add(t)
	}
	if err == nil {
		var t tally
		_, t, err = s.g.closedLoop(tab, w.window, opt.warmup(w), 0)
		total.add(t)
	}
	if err != nil {
		s.g.close()
		srv.kill()
		return nil, tally{}, 0, err
	}
	return s, total, time.Since(t0), nil
}

func (s *session) tearDown() (traceDump, error) {
	s.g.close()
	return s.srv.stop(s.traced)
}

// serverSample is the server's CPU time and scheduler counters at one
// instant.
type serverSample struct {
	usage procUsage
	sched schedCounters
}

func (s *session) sample() (serverSample, error) {
	u, err := readProcUsage(s.srv.cmd.Process.Pid)
	if err != nil {
		return serverSample{}, err
	}
	c, err := s.srv.stats()
	return serverSample{u, c}, err
}

// openRun is one open loop and what the server did during its measured
// part.
type openRun struct {
	ph            *phase
	tally         tally
	start         int64 // CLOCK_MONOTONIC ns of due time 0
	before, after serverSample
}

// openLoop runs tab as an open loop. A second goroutine samples the
// server at the two ends of the measured part; the pacing thread never
// leaves its schedule.
func (s *session) openLoop(tab *table) (*openRun, error) {
	r := &openRun{start: s.g.clk.now() + int64(time.Millisecond)}
	measuredEnd := tab.due[tab.n-1]
	type sampled struct {
		before, after serverSample
		err           error
	}
	done := make(chan sampled, 1)
	go func() {
		var sm sampled
		time.Sleep(time.Duration(r.start + tab.warm - s.g.clk.now()))
		sm.before, sm.err = s.sample()
		time.Sleep(time.Duration(r.start + measuredEnd - s.g.clk.now()))
		if sm.err == nil {
			sm.after, sm.err = s.sample()
		}
		done <- sm
	}()
	var err error
	r.ph, r.tally, err = s.g.openLoop(tab, r.start)
	sm := <-done
	if err == nil {
		err = sm.err
	}
	r.before, r.after = sm.before, sm.after
	return r, err
}

// measured calls f for every correctly answered request due after the
// warm-up, with the request's table index, its due time and the index
// of the window it falls in.
func (r *openRun) measured(f func(i int, due int64, window int)) {
	t := r.ph.tab
	span := t.due[t.n-1] - t.warm + 1
	for i := 0; i < t.n; i++ {
		if t.due[i] >= t.warm && r.ph.recvAt[i] != 0 {
			f(i, r.start+t.due[i], int((t.due[i]-t.warm)*openWindows/span))
		}
	}
}

// openStats are an open loop's latency and generator-lag figures.
type openStats struct {
	p50, p75          float64 // medians over the windows, us
	all               []int64 // every latency, sorted, ns
	lagP50, lagP99    float64 // us
	lateFrac          float64
	achievedRPS       float64
	cpuUsPerReq       float64
	sysFrac, ctxPerRq float64
}

func (r *openRun) stats() openStats {
	var st openStats
	var windows [openWindows][]int64
	var lag []int64
	late := 0
	r.measured(func(i int, due int64, w int) {
		l := r.ph.recvAt[i] - due
		windows[w] = append(windows[w], l)
		st.all = append(st.all, l)
		g := r.ph.sendAt[i] - due
		lag = append(lag, g)
		if g > int64(lateAfter) {
			late++
		}
	})
	var p50s, p75s []float64
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		slices.Sort(w)
		p50s = append(p50s, usOf(quantile(w, 0.50)))
		p75s = append(p75s, usOf(quantile(w, 0.75)))
	}
	st.p50, st.p75 = median(p50s), median(p75s)
	slices.Sort(st.all)
	slices.Sort(lag)
	st.lagP50, st.lagP99 = usOf(quantile(lag, 0.50)), usOf(quantile(lag, 0.99))
	if len(lag) > 0 {
		st.lateFrac = float64(late) / float64(len(lag))
	}
	t := r.ph.tab
	measuredNs := t.due[t.n-1] - t.warm
	st.achievedRPS = float64(len(st.all)) / (float64(measuredNs) / 1e9)
	user := r.after.usage.userNs - r.before.usage.userNs
	sys := r.after.usage.sysNs - r.before.usage.sysNs
	if n := float64(len(st.all)); n > 0 {
		st.cpuUsPerReq = float64(user+sys) / 1e3 / n
		st.ctxPerRq = float64(r.after.usage.volCtxSw-r.before.usage.volCtxSw) / n
	}
	if user+sys > 0 {
		st.sysFrac = float64(sys) / float64(user+sys)
	}
	return st
}

// openTable sizes and draws the table of an open loop measuring for d
// after its warm-up.
func openTable(w workload, opt runOptions, d time.Duration) *table {
	t := newTable(w, opt.seed, int(w.rate*(d+opt.openWarm()).Seconds()))
	t.warm = int64(opt.openWarm())
	return t
}

// runTimed measures the end-to-end metrics of one workload: tracing off.
func runTimed(w workload, opt runOptions) (*result, error) {
	res := &result{workload: w.name}
	tab := openTable(w, opt, opt.share(openShare))
	res.tableHash = tab.hash()

	// Set up several times and keep the last: setup_s is the median.
	var s *session
	defer func() {
		if s != nil {
			s.tearDown()
		}
	}()
	var setupS []float64
	for i := 0; i < opt.setups(); i++ {
		if s != nil {
			_, err := s.tearDown()
			if s = nil; err != nil {
				return nil, err
			}
		}
		var t tally
		var d time.Duration
		var err error
		if s, t, d, err = setUp(w, tab, opt, 0); err != nil {
			return nil, err
		}
		res.tally.add(t)
		setupS = append(setupS, d.Seconds())
	}
	res.serverProcs = s.srv.ready.Gomaxprocs

	open, err := s.openLoop(tab)
	if err != nil {
		return nil, err
	}
	res.tally.add(open.tally)
	st := open.stats()
	res.lateFrac = st.lateFrac

	closedFor := opt.share(closedShare)
	ph, t, err := s.g.closedLoop(tab, w.window, 0, closedFor)
	if err != nil {
		return nil, err
	}
	res.tally.add(t)
	// The first bucket holds the ramp to the window and the last one is
	// cut short by the stop.
	var rates []float64
	for i := 1; i < len(ph.buckets)-1; i++ {
		rates = append(rates, float64(ph.buckets[i].Load())/closedBucket.Seconds())
	}

	_, err = s.tearDown()
	s = nil
	if err != nil {
		return nil, err
	}

	res.add("p50_us", st.p50, "us")
	res.add("p75_us", st.p75, "us")
	res.add("sat_rps", median(rates), "req/s")
	res.add("cpu_us_per_req", st.cpuUsPerReq, "us")
	res.add("setup_s", median(setupS), "s")
	// Quantiles of the whole measured part, not medians over windows.
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50", 0.50}, {"p75", 0.75}, {"p90", 0.90}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}} {
		res.addDiag("pooled_"+q.name+"_us", usOf(quantile(st.all, q.p)), "us")
	}
	res.addDiag("open_samples", float64(len(st.all)), "count")
	res.addDiag("offered_rps", w.rate, "req/s")
	res.addDiag("achieved_rps", st.achievedRPS, "req/s")
	res.addDiag("closed_completed", float64(t.attempted), "count")
	res.addDiag("gen.lag_p50_us", st.lagP50, "us")
	res.addDiag("gen.lag_p99_us", st.lagP99, "us")
	res.addDiag("gen.late_frac", st.lateFrac, "ratio")
	res.addDiag("fail_frac", float64(res.tally.failed())/float64(res.tally.attempted), "ratio")
	return res, nil
}

// check turns a result's failure counts into an error: a wrong, failed
// or unsent request above one in a thousand, or kv GETs missing keys the
// set-up stored.
func (r *result) check() error {
	t := r.tally
	if t.attempted == 0 {
		return fmt.Errorf("%s: nothing attempted", r.workload)
	}
	if f := float64(t.failed()) / float64(t.attempted); f > 0.001 {
		return fmt.Errorf("%s: fail_frac %.5f (%d errors, %d wrong replies, %d unsent of %d)",
			r.workload, f, t.errs, t.wrong, t.unsent, t.attempted)
	}
	if t.gets > 0 && float64(t.hits)/float64(t.gets) < 0.99 {
		return fmt.Errorf("%s: kv hit fraction %d/%d below 0.99", r.workload, t.hits, t.gets)
	}
	return nil
}
