package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"zygos/internal/kv"
)

// TestMain lets the test binary play the server role, as main does:
// the generator re-execs whatever binary it is running in.
func TestMain(m *testing.M) {
	if cfg := os.Getenv(serverEnv); cfg != "" {
		if err := serverMain(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark server:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func TestQuantileAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		v := make([]int64, 1+rng.Intn(300))
		for i := range v {
			v[i] = rng.Int63n(50) // many ties
		}
		sorted := slices.Clone(v)
		slices.Sort(sorted)
		for _, p := range []float64{0.01, 0.5, 0.95, 0.99, 0.999, 1} {
			// Brute force: the smallest element with at least p of the
			// sample at or below it.
			want := int64(math.MaxInt64)
			for _, x := range v {
				atOrBelow := 0
				for _, y := range v {
					if y <= x {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= p*float64(len(v)) && x < want {
					want = x
				}
			}
			if got := quantile(sorted, p); got != want {
				t.Fatalf("quantile(n=%d, p=%g) = %d, brute force says %d", len(v), p, got, want)
			}
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample is not 0")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Values from Python's statistics.quantiles(v, n=4).
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of ten = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; Python gives 1, 3", q1, q3)
	}
}

func TestTableFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newTable(w, 11, 3000), newTable(w, 11, 3000), newTable(w, 12, 3000)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed, different tables", w.name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: different seeds, same table", w.name)
		}
		for i := 0; i < a.n; i++ {
			if int(a.conn[i]) >= w.conns {
				t.Fatalf("%s: request %d on connection %d of %d", w.name, i, a.conn[i], w.conns)
			}
			if i > 0 && a.due[i] < a.due[i-1] {
				t.Fatalf("%s: due times not sorted at %d", w.name, i)
			}
		}
	}
}

// TestKVTableChecksEveryGet pins what mutilate.KVModel gets wrong: the
// key of index k is the same bytes every time it is drawn, and a GET's
// reply is checked against that key's one value.
func TestKVTableChecksEveryGet(t *testing.T) {
	w, _ := findWorkload("kv-etc")
	tab := newTable(w, 5, 20000)
	store := kv.NewStore(4, 64<<20)
	pre := tab.preloadTable()
	for i := 0; i < pre.n; i++ {
		if pre.method(i) != kv.MethodSet {
			t.Fatal("preload is not all SETs")
		}
		key, val, err := kv.DecodeSetPayload(pre.payload(i))
		if err != nil {
			t.Fatal(err)
		}
		store.Set(key, val)
	}
	gets, sets := 0, 0
	for i := 0; i < tab.n; i++ {
		if tab.isSet[i] {
			sets++
			if ok, _ := tab.check(i, []byte{kv.ReplyStored}); !ok {
				t.Fatalf("request %d: a stored SET fails the check", i)
			}
			continue
		}
		gets++
		v, found := store.Get(tab.payload(i))
		if !found {
			t.Fatalf("request %d: GET of a key the preload never stored", i)
		}
		reply := append([]byte{kv.ReplyHit}, v...)
		if ok, hit := tab.check(i, reply); !ok || !hit {
			t.Fatalf("request %d: the store's own value fails the check", i)
		}
		reply[len(reply)-1] ^= 1
		if ok, _ := tab.check(i, reply); ok {
			t.Fatalf("request %d: a corrupted value passes the check", i)
		}
		if ok, hit := tab.check(i, []byte{kv.ReplyMiss}); ok || hit {
			t.Fatalf("request %d: a miss passes the check", i)
		}
	}
	if ratio := float64(gets) / float64(sets); ratio < 20 || ratio > 45 {
		t.Errorf("GET:SET = %d:%d, want about 30:1", gets, sets)
	}
}

func TestJoinSpans(t *testing.T) {
	// Connection 0 has rows for ordinals 0..2; connection 1's table is
	// short: one row, as when the server's table filled up.
	row := func(arrived, qdelay, start, end int64) []int64 { return []int64{arrived, qdelay, start, end} }
	d := traceDump{Conns: [][]int64{
		slices.Concat(row(0, 0, 0, 0), row(1100, 30, 1150, 1400), row(2100, 5, 2110, 2200)),
		row(5050, 10, 5070, 5600),
	}}
	reqs := []genStamp{
		{conn: 0, ord: 1, due: 990, send: 1000, recv: 1500, spinNs: 200},
		{conn: 0, ord: 2, due: 2000, send: 2000, recv: 2300},
		{conn: 1, ord: 0, due: 5000, send: 5010, recv: 5700, spinNs: 500},
		{conn: 1, ord: 1, due: 6000, send: 6000, recv: 6100}, // beyond the short table
		{conn: 2, ord: 0, due: 7000, send: 7000, recv: 7100}, // a connection the server never saw
	}
	j := joinSpans(reqs, d)
	if j.unjoined != 2 {
		t.Fatalf("unjoined = %d, want 2", j.unjoined)
	}
	want := [numSpans][]int64{
		spanGenWait: {10, 0, 10},
		spanRPC:     {500, 300, 690},
		spanIngress: {100, 100, 40},
		spanQueue:   {50, 10, 20},
		spanHandler: {250, 90, 530},
		spanEgress:  {100, 100, 100},
	}
	for s := range want {
		if !slices.Equal(j.spans[s], want[s]) {
			t.Errorf("span %s = %v, want %v", spanNames[s], j.spans[s], want[s])
		}
	}
	for i := range j.spans[spanRPC] {
		sum := j.spans[spanIngress][i] + j.spans[spanQueue][i] + j.spans[spanHandler][i] + j.spans[spanEgress][i]
		if sum != j.spans[spanRPC][i] {
			t.Errorf("request %d: child spans sum to %d, rpc is %d", i, sum, j.spans[spanRPC][i])
		}
	}
	if !slices.Equal(j.qdelay, []int64{30, 5, 10}) || !slices.Equal(j.overrun, []int64{50, 90, 30}) {
		t.Errorf("qdelay %v overrun %v", j.qdelay, j.overrun)
	}
}

func TestSleepUntilNeverEarly(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	clk := newClock()
	for _, ahead := range []int64{0, 20e3, 300e3, 1500e3} {
		due := clk.now() + ahead
		clk.sleepUntil(due)
		if now := clk.now(); now < due {
			t.Errorf("returned %d ns before the due time", due-now)
		}
	}
}

// benchmarkJSON is the repository's BENCHMARK.json, which restates what
// this package defines.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONRestatesTheCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		better := "lower"
		if m.higherBetter {
			better = "higher"
		}
		got := bj.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
	}
}

// smokeOptions are runSmoke's: phases of well under a second.
func smokeOptions() runOptions { return runOptions{seed: 3, seconds: 1.2, smoke: true} }

// pacingThread makes the test's goroutine what main makes its own.
func pacingThread(t *testing.T) {
	prev := runtime.GOMAXPROCS(generatorProcs)
	runtime.LockOSThread()
	tightenTimerSlack()
	t.Cleanup(func() {
		runtime.UnlockOSThread()
		runtime.GOMAXPROCS(prev)
	})
}

// TestSmokeTimed proves the timed run works end to end on all four
// workloads — two processes, loopback TCP, every reply checked — and
// reports exactly the end-to-end metrics.
func TestSmokeTimed(t *testing.T) {
	pacingThread(t)
	for _, w := range workloads {
		res, err := runTimed(w, smokeOptions())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := res.check(); err != nil {
			t.Error(err)
		}
		if len(res.metrics) != len(endToEnd) {
			t.Fatalf("%s: %d metrics, want %d", w.name, len(res.metrics), len(endToEnd))
		}
		for i, m := range res.metrics {
			if m.name != endToEnd[i].name || m.unit != endToEnd[i].unit {
				t.Errorf("%s: metric %d is %s [%s], want %s [%s]", w.name, i, m.name, m.unit, endToEnd[i].name, endToEnd[i].unit)
			}
			if !(m.value > 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, m.name, m.value)
			}
		}
		if w.kind == kindKV && res.tally.gets == 0 {
			t.Errorf("%s: no GET was checked", w.name)
		}
		var line struct {
			Correct           *bool
			Attempted, Failed *int64
			Metrics           map[string]struct {
				Value *float64
				Unit  *string
			}
		}
		if err := json.Unmarshal(res.line(), &line); err != nil {
			t.Fatalf("%s: result line: %v", w.name, err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 ||
			line.Failed == nil || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line %s", w.name, res.line())
		}
	}
}

// TestSmokeTraced proves the traced run works end to end — on kv-etc,
// the workload with the most moving parts — joins every request, and
// reports exactly the per-layer metrics BENCHMARK.json lists.
func TestSmokeTraced(t *testing.T) {
	pacingThread(t)
	w, _ := findWorkload("kv-etc")
	res, err := runTraced(w, smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.check(); err != nil {
		t.Error(err)
	}
	bj := readBenchmarkJSON(t)
	if len(res.metrics) != len(bj.PerLayer) {
		t.Fatalf("%d per-layer metrics reported, %d in BENCHMARK.json", len(res.metrics), len(bj.PerLayer))
	}
	values := map[string]float64{}
	for i, m := range res.metrics {
		if m.name != bj.PerLayer[i].Name || m.unit != bj.PerLayer[i].Unit {
			t.Errorf("per-layer metric %d is %s [%s], BENCHMARK.json has %s [%s]",
				i, m.name, m.unit, bj.PerLayer[i].Name, bj.PerLayer[i].Unit)
		}
		values[m.name] = m.value
	}
	if values["trace.unjoined"] != 0 {
		t.Errorf("%v requests not joined", values["trace.unjoined"])
	}
	children := values["span.ingress_mean_us"] + values["span.queue_mean_us"] +
		values["span.handler_mean_us"] + values["span.egress_mean_us"]
	if rpc := values["span.rpc_mean_us"]; math.Abs(children-rpc) > 1e-6*rpc {
		t.Errorf("child span means sum to %v, rpc mean is %v", children, rpc)
	}
	if values["kv.hit_frac"] < 0.99 {
		t.Errorf("kv.hit_frac = %v", values["kv.hit_frac"])
	}
}
