// Command benchmark is the repository's benchmark: an open-loop then
// closed-loop load over loopback TCP against a zygos.Server in a second
// process, reporting end-to-end latency, throughput and CPU per request,
// and — in a separate traced run — a per-layer ledger under them. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// e2eMetric is an end-to-end metric and the share of its value by which
// it may worsen before a change counts as a regression. BENCHMARK.json
// restates this table; a test keeps the two equal.
type e2eMetric struct {
	name, unit   string
	higherBetter bool
	bound        float64
}

var endToEnd = []e2eMetric{
	{"p50_us", "us", false, 0.25},
	{"p75_us", "us", false, 0.25},
	{"sat_rps", "req/s", true, 0.20},
	{"cpu_us_per_req", "us", false, 0.20},
	{"setup_s", "s", false, 0.25},
}

// generatorProcs is the generator's GOMAXPROCS: one P for the locked
// pacing thread, one for the connections' reader goroutines.
const generatorProcs = 2

func main() {
	if cfg := os.Getenv(serverEnv); cfg != "" {
		if err := serverMain(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark server:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name        = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed        = flag.Int64("seed", 1, "seed of the request tables")
		seconds     = flag.Float64("seconds", 24, "how long one run measures")
		trace       = flag.Int("trace", 0, "1: the traced run (per-layer metrics) instead of the timed one")
		aa          = flag.Int("aa", 0, "run this many timed sets back to back, seeds seed, seed+1, ..., and compare them against the bounds; 2 is the A/A check")
		smoke       = flag.Bool("smoke", false, "timed and traced runs with phases of well under a second: proves the command runs, measures nothing")
		partitioned = flag.Bool("partitioned", false, "server with work stealing off (zygos.Config.Partitioned); for the discrimination check only")
	)
	flag.Parse()
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		selected = []workload{w}
	}
	opt := runOptions{seed: *seed, seconds: *seconds, partitioned: *partitioned}

	runtime.GOMAXPROCS(generatorProcs)
	runtime.LockOSThread() // the main goroutine is the pacing thread
	tightenTimerSlack()

	var err error
	switch {
	case *smoke:
		err = runSmoke(selected, opt)
	case *aa > 0:
		err = runSets(selected, opt, *aa)
	default:
		err = runEach(selected, opt, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runOne runs one workload, timed or traced, prints its report and
// result line, and fails if the server's replies were wrong.
func runOne(w workload, opt runOptions, traced bool) (*result, error) {
	run := runTimed
	if traced {
		run = runTraced
	}
	res, err := run(w, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	printReport(w, res, opt, traced)
	return res, res.check()
}

func runEach(ws []workload, opt runOptions, traced bool) error {
	for _, w := range ws {
		if _, err := runOne(w, opt, traced); err != nil {
			return err
		}
	}
	return nil
}

func runSmoke(ws []workload, opt runOptions) error {
	opt.smoke, opt.seconds = true, 1.2
	for _, traced := range []bool{false, true} {
		if err := runEach(ws, opt, traced); err != nil {
			return err
		}
	}
	return nil
}

// runSets runs n timed sets and prints, per metric and workload, every
// value, how far apart they are and the bound. Two sets are compared by
// their relative difference; more by the distance between their
// quartiles as a share of the median, the measure the benchmark's driver
// applies to ten runs.
func runSets(ws []workload, opt runOptions, n int) error {
	values := map[string][]float64{} // "workload metric" -> one value per set
	for set := 0; set < n; set++ {
		o := opt
		o.seed += int64(set)
		for _, w := range ws {
			res, err := runOne(w, o, false)
			if err != nil {
				return err
			}
			if res.invalid() {
				return fmt.Errorf("%s: invalid run, gen.late_frac %.4f above %.2f", w.name, res.lateFrac, maxLateFrac)
			}
			for _, m := range res.metrics {
				values[w.name+" "+m.name] = append(values[w.name+" "+m.name], m.value)
			}
		}
	}
	fmt.Printf("\n%d sets of the same build, seeds %d..%d\n", n, opt.seed, opt.seed+int64(n)-1)
	fmt.Printf("%-14s %-15s %8s %7s  %s\n", "workload", "metric", "apart", "bound", "values")
	exceeded := 0
	for _, w := range ws {
		for _, m := range endToEnd {
			v := values[w.name+" "+m.name]
			var apart float64
			if n == 2 {
				apart = math.Abs(v[1]-v[0]) / v[0]
			} else if n > 2 {
				q1, q3 := quartiles(v)
				apart = (q3 - q1) / median(v)
			}
			verdict := ""
			if apart > m.bound {
				verdict = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Printf("%-14s %-15s %8.4f %7.2f  %.6g%s\n", w.name, m.name, apart, m.bound, v, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric/workload pairs further apart than their bound", exceeded)
	}
	return nil
}

// commitEnv is how run.sh hands over the checkout's git commit; the
// build does not stamp it, because VCS stamping fails the whole build
// when git will not answer for the directory.
const commitEnv = "ZYGOS_BENCH_COMMIT"

func buildCommit() string {
	if c := os.Getenv(commitEnv); c != "" {
		return c
	}
	return "unknown"
}

func printReport(w workload, r *result, opt runOptions, traced bool) {
	mode := "timed"
	if traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s (%s run) ==\n", w.name, mode)
	fmt.Printf("topology: loopback TCP, two processes; one generator process (GOMAXPROCS=%d, one locked pacing thread) -> server process (GOMAXPROCS=%d, cores=%d, partitioned=%v)\n",
		generatorProcs, r.serverProcs, runtime.NumCPU(), opt.partitioned)
	fmt.Printf("env: nproc=%d go=%s kernel=%s commit=%s seed=%d seconds=%g table=%016x\n",
		runtime.NumCPU(), runtime.Version(), kernelRelease(), buildCommit(), opt.seed, opt.seconds, r.tableHash)
	fmt.Printf("load: %d conns; open loop %g req/s Poisson, latency from due time; closed loop window %d/conn\n",
		w.conns, w.rate, w.window)
	for _, m := range r.metrics {
		fmt.Printf("  %-24s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Println("  -- diagnostics, not compared --")
	for _, m := range r.diag {
		fmt.Printf("  %-24s %14.4f %s\n", m.name, m.value, m.unit)
	}
	t := r.tally
	fmt.Printf("  attempted=%d failed=%d (errors=%d wrong=%d unsent=%d) kv_gets=%d kv_hits=%d\n",
		t.attempted, t.failed(), t.errs, t.wrong, t.unsent, t.gets, t.hits)
	if r.invalid() {
		fmt.Printf("  INVALID: gen.late_frac %.4f above %.2f, latency describes the generator\n", r.lateFrac, maxLateFrac)
	}
	fmt.Println(string(r.line()))
}

// line is the result as the one JSON object the benchmark's driver reads
// from the last line of standard output.
func (r *result) line() []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.check() == nil, r.tally.attempted, r.tally.failed(), map[string]value{}}
	for _, m := range r.metrics {
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // a NaN or Inf metric: a bug in the benchmark
	}
	return b
}
