GO ?= go

# The bench targets pipe `go test` into benchjson; pipefail makes the
# recipe fail on a failed benchmark run instead of recording partial
# results as success.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build loc test vet flake chaos-soak bench bench-sched bench-conn bench-cluster bench-cluster-gate bench-slo bench-slo-gate bench-pubsub bench-pubsub-gate bench-smoke bench-e2e-smoke bench-gate bench-pair

all: build test

# The benchmark is its own module, so the root build does not compile
# it; building it here makes a break of the public API it programs
# against fail the build, not only the end-to-end smoke.
build:
	$(GO) build ./...
	cd benchmark && $(GO) vet ./... && $(GO) build -o /dev/null ./...

# Size of the tree: non-test Go lines outside benchmark/, and how many
# client call-form methods are declared (one set, proto.Calls, is the
# target; every per-transport copy shows up here).
LOC_FILES = find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' -not -path './.*'
CALL_FORMS = Call|CallInto|CallMethod|CallMethodInto|CallTimeout|CallMethodTimeout|SendAsync|SendMethodAsync|SendOneWay|SendMethodOneWay|SendBudgetAsync|SendMethodBudgetAsync|Subscribe|Unsubscribe|OnDepth
loc:
	@echo "non-test Go lines (outside benchmark/): $$($(LOC_FILES) | xargs cat | wc -l)"
	@echo "call-form method declarations: $$($(LOC_FILES) | xargs grep -hE '^func \([a-z]+ \*?[A-Za-z]+\) ($(CALL_FORMS))\(' | wc -l)"

# Tier-1 verification: the whole tree must vet and test clean.
test: vet
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Flake check: the chaos soaks and the connection-churn leak test five
# times over, then the churn test on its own, where its process-global
# bufpool accounting sees only its own checkouts.
flake:
	$(GO) test -count=5 -run 'TestChaos|TestConnChurn' .
	$(GO) test -count=1 -run '^TestConnChurnNoLeaks$$' .

# Long chaos soak: the seeded fault-injection scenarios (TestChaos* in
# the root package) under the race detector with a wide seed matrix.
# Each seed replays deterministically, so a failure here reports the
# seed to rerun with CHAOS_SEEDS/CHAOS_OPS. CI runs a 2-seed smoke of
# the same tests; this target is the pre-release/nightly deep run.
CHAOS_SEEDS ?= 16
CHAOS_OPS ?= 400
chaos-soak:
	CHAOS_SEEDS=$(CHAOS_SEEDS) CHAOS_OPS=$(CHAOS_OPS) $(GO) test -race -run 'TestChaos' -count=1 -timeout 30m -v .

# Hot-path benchmark trajectory: run the BenchmarkHotPath* suite —
# including BenchmarkHotPathRoutedKV, the method-dispatched GET/SET mix
# over memnet — and update the "current" section of BENCH_hotpath.json
# (the committed "baseline" section is preserved for comparison), then
# do the same for the scheduler-scaling suite in BENCH_sched.json.
bench: bench-sched bench-conn bench-cluster bench-slo bench-pubsub
	$(GO) test -run '^$$' -bench 'BenchmarkHotPath' -benchmem -count 1 . | $(GO) run ./scripts/benchjson -out BENCH_hotpath.json -label current

# Scheduler-scaling trajectory: BenchmarkSchedScale{1,2,4,8} plus the
# wake-latency probe, recorded to BENCH_sched.json.
bench-sched:
	$(GO) test -run '^$$' -bench 'BenchmarkSched' -benchmem -count 1 . | $(GO) run ./scripts/benchjson -out BENCH_sched.json -label current

# Connection-scale trajectory: BenchmarkConnScale{1k,100k} measure
# hot-path ns/op with an idle-connection wall resident, plus bytes/conn
# and goroutines as extra metrics, recorded to BENCH_conn.json. The
# iteration count is pinned so the harness doesn't re-dial the wall on
# every calibration ramp step (setup dwarfs the measured loop).
bench-conn:
	$(GO) test -run '^$$' -bench 'BenchmarkConnScale' -benchtime 2000x -benchmem -count 1 -timeout 30m . | $(GO) run ./scripts/benchjson -out BENCH_conn.json -label current

# Cluster-tier tail trajectory: BenchmarkClusterFanout measures fan-out
# latency (P50/P99 as extra metrics) across K in {1,8,16} for
# round-robin, P2C, and P2C+hedging over four backends with one
# deliberate straggler, recorded to BENCH_cluster.json. The iteration
# count is pinned so every section's P99 is computed over the same
# sample size instead of whatever the calibration ramp landed on.
bench-cluster:
	$(GO) test -run '^$$' -bench 'BenchmarkClusterFanout' -benchtime 300x -benchmem -count 1 -timeout 20m . | $(GO) run ./scripts/benchjson -out BENCH_cluster.json -label current

# Cluster-tier regression gate: re-measure the fan-out suite and fail
# if the mean or any latency-shaped extra metric (p50-ns, p99-ns)
# regressed beyond GATE_PCT against the committed reference — a tail
# regression fails even when the mean stays flat.
bench-cluster-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkClusterFanout' -benchtime 300x -benchmem -count 1 -timeout 20m . | $(GO) run ./scripts/benchjson -out BENCH_cluster.json -gate $(GATE_PCT)

# SLO overload trajectory: BenchmarkSLOOverload drives a bimodal
# kv+scan mix at ~2× capacity with and without overload control and
# records the admitted-request latency percentiles (p50-ns, p99-ns)
# plus inverse goodput (goodop-ns) to BENCH_slo.json. The iteration
# count is pinned so the percentiles come from a fixed sample size and
# the closed-loop queue reaches the same steady state every run.
bench-slo:
	$(GO) test -run '^$$' -bench 'BenchmarkSLOOverload' -benchtime 2000x -benchmem -count 1 -timeout 20m . | $(GO) run ./scripts/benchjson -out BENCH_slo.json -label current

# SLO overload regression gate: re-measure and fail if the admitted
# P99 or the per-good-op cost regressed beyond GATE_PCT against the
# committed reference — shedding that stops protecting the admitted
# tail, or sheds so hard goodput collapses, both fail.
bench-slo-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkSLOOverload' -benchtime 2000x -benchmem -count 1 -timeout 20m . | $(GO) run ./scripts/benchjson -out BENCH_slo.json -gate $(GATE_PCT)

# Pub-sub fan-out trajectory: BenchmarkPubSubFanout measures the
# filtered bus + fair-queued push egress over a subscribers × burst
# grid — per-frame publish cost (push-ns), drop-oldest eviction
# fraction (dropfrac, recorded not gated), and the co-resident echo
# caller's tail (p99-ns) while the firehose runs — recorded to
# BENCH_pubsub.json. The iteration count is pinned so every cell's
# P99 comes from the same sample size.
bench-pubsub:
	$(GO) test -run '^$$' -bench 'BenchmarkPubSubFanout' -benchtime 2000x -benchmem -count 1 -timeout 20m . | $(GO) run ./scripts/benchjson -out BENCH_pubsub.json -label current

# Pub-sub regression gate: re-measure the fan-out grid and fail if the
# publish cost or the co-resident P99 regressed beyond GATE_PCT
# against the committed reference — a fair-queuing break shows up as
# p99-ns inflation long before ns/op moves.
bench-pubsub-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkPubSubFanout' -benchtime 2000x -benchmem -count 1 -timeout 20m . | $(GO) run ./scripts/benchjson -out BENCH_pubsub.json -gate $(GATE_PCT)

# One iteration of every benchmark as a compile-and-run smoke check,
# then 1x hot-path+sched passes at GOMAXPROCS=1 and GOMAXPROCS=4
# recorded as separate sections, so a scaling regression is visible in
# the CI artifact even when the single-core column looks healthy. The
# BenchmarkHotPath pattern includes BenchmarkHotPathRoutedKV, so the
# method-routed serving path is smoked alongside the echo shapes.
# -short keeps the ConnScale smoke at the 1k wall (the 100k wall dials
# six figures of sockets — a measurement run, not a smoke check).
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkHotPath|BenchmarkSched' -benchtime 1x -benchmem . | $(GO) run ./scripts/benchjson -out BENCH_hotpath.json -label smoke-p1 -note "1x smoke pass at GOMAXPROCS=1, not a performance measurement"
	GOMAXPROCS=4 $(GO) test -run '^$$' -bench 'BenchmarkHotPath|BenchmarkSched' -benchtime 1x -benchmem . | $(GO) run ./scripts/benchjson -out BENCH_hotpath.json -label smoke-p4 -note "1x smoke pass at GOMAXPROCS=4, not a performance measurement"

# The repository's end-to-end benchmark (benchmark/, its own module, so
# `go test ./...` here neither builds nor runs it): its unit tests, then
# sub-second phases of every workload, timed and traced. It proves the
# benchmark binary still builds and runs against the current transport —
# a change that breaks it is caught here rather than by whoever runs the
# 24 s measurement next.
bench-e2e-smoke:
	cd benchmark && $(GO) test ./...
	bash benchmark/run.sh -smoke

# Paired end-to-end runs against a parent revision: SEEDS seeds × the
# four workloads on both trees, alternating which runs first, then the
# table a performance claim is judged by — each side's median and
# quartiles per end-to-end metric, pairs won, and whether the median gap
# exceeds the parent's IQR. 24 s runs: ten seeds take about 40 minutes.
PARENT ?= HEAD~1
SEEDS ?= 10
bench-pair:
	bash scripts/benchpair.sh $(PARENT) $(SEEDS)

# Regression gate: re-measure the hot-path suite and fail if any
# benchmark's ns/op regressed more than the threshold against the
# committed reference section ("current", falling back to "baseline").
# The default threshold is generous because CI machines differ from the
# machine that recorded the reference; tune GATE_PCT down for a quiet
# local box.
GATE_PCT ?= 150
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkHotPath' -benchmem -count 1 . | $(GO) run ./scripts/benchjson -out BENCH_hotpath.json -gate $(GATE_PCT)
