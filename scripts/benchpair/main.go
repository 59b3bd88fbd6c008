// Command benchpair summarises paired benchmark runs of two trees — a
// parent revision and a change — as scripts/benchpair.sh leaves them: one
// file per run, named <side>-<workload>-<seed>.json, holding the last
// line benchmark/run.sh prints. For every workload and end-to-end metric
// BENCHMARK.json declares it prints each side's median and quartiles,
// how many seed pairs the change won, and whether the gap between the
// medians exceeds the parent's interquartile range. Run it from the
// module root, where BENCHMARK.json is:
//
//	go run ./scripts/benchpair .bench_build/pairs-<stamp>
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// result is the benchmark's last output line.
type result struct {
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchpair <results dir>")
		os.Exit(2)
	}
	if err := run(os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(dir string) error {
	var sp spec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	// runs[side][workload][seed]
	runs := map[string]map[string]map[int]result{"parent": {}, "change": {}}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	for _, f := range files {
		side, rest, ok := strings.Cut(strings.TrimSuffix(filepath.Base(f), ".json"), "-")
		i := strings.LastIndex(rest, "-")
		if !ok || runs[side] == nil || i < 0 {
			continue
		}
		seed, err := strconv.Atoi(rest[i+1:])
		if err != nil {
			continue
		}
		var r result
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		w := rest[:i]
		if runs[side][w] == nil {
			runs[side][w] = map[int]result{}
		}
		runs[side][w][seed] = r
	}

	fmt.Printf("%-13s %-15s %5s  %-30s %-30s %8s %6s %9s\n",
		"workload", "metric", "pairs", "parent median [q1 q3]", "change median [q1 q3]", "delta", "won", "gap>IQR")
	for _, w := range sp.Workloads {
		var seeds []int
		var failed [2]int64
		for seed, p := range runs["parent"][w.Name] {
			c, ok := runs["change"][w.Name][seed]
			if !ok {
				continue
			}
			seeds = append(seeds, seed)
			failed[0] += p.Failed
			failed[1] += c.Failed
		}
		if len(seeds) == 0 {
			continue
		}
		slices.Sort(seeds)
		for _, m := range sp.EndToEnd {
			var pv, cv []float64
			won := 0
			for _, seed := range seeds {
				p := runs["parent"][w.Name][seed].Metrics[m.Name].Value
				c := runs["change"][w.Name][seed].Metrics[m.Name].Value
				pv, cv = append(pv, p), append(cv, c)
				if (m.Better == "lower" && c < p) || (m.Better == "higher" && c > p) {
					won++
				}
			}
			pm, cm := median(pv), median(cv)
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			delta := math.NaN()
			if pm != 0 {
				delta = (cm - pm) / pm
			}
			gap := "no"
			if math.Abs(cm-pm) > pq3-pq1 {
				gap = "yes"
			}
			fmt.Printf("%-13s %-15s %5d  %-30s %-30s %+7.1f%% %3d/%-2d %9s\n", w.Name, m.Name, len(seeds),
				fmt.Sprintf("%.4g [%.4g %.4g]", pm, pq1, pq3), fmt.Sprintf("%.4g [%.4g %.4g]", cm, cq1, cq3),
				100*delta, won, len(seeds), gap)
		}
		fmt.Printf("%-13s %-15s %5d  %-30d %-30d\n", w.Name, "failed (sum)", len(seeds), failed[0], failed[1])
	}
	return nil
}

// median returns the middle of v (the mean of the middle two for an even
// count). Zero if empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v by the exclusive
// method (Python's statistics.quantiles(v, n=4)), as the benchmark's own
// A/A mode computes them. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
