#!/usr/bin/env bash
# Paired end-to-end benchmark runs of this checkout against a parent
# revision, and the table a performance claim is judged by. Run it from
# the root of a checkout (or through `make bench-pair`):
#
#   bash scripts/benchpair.sh PARENT [SEEDS] [WORKLOAD...]
#
# PARENT is any git revision; it is checked out once, as a detached git
# worktree, under .bench_build/parent-<sha>/ (`git worktree remove` it
# when done). For every seed 1..SEEDS (default 10)
# and workload (default: all four) it runs
#   benchmark/run.sh --workload W --seed S --seconds 24 --trace 0
# on both trees back to back, alternating from seed to seed which tree
# runs first, and keeps each run's log and result line under
# .bench_build/pairs-<stamp>/. Then it prints, per workload and
# end-to-end metric, each side's median and quartiles, the pairs the
# change won and whether the median gap exceeds the parent's IQR
# (scripts/benchpair). A run that fails is reported and left out of the
# table.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="${1:?usage: benchpair.sh PARENT [SEEDS] [WORKLOAD...]}"
seeds="${2:-10}"
shift $(($# < 2 ? $# : 2))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(echo-sparse echo-dense spin-bimodal kv-etc)
fi
sha="$(git -C "$root" rev-parse --verify "$parent^{commit}")"
ptree="$root/.bench_build/parent-$sha"
if [ ! -d "$ptree" ]; then
	git -C "$root" worktree prune
	git -C "$root" worktree add --quiet --detach "$ptree" "$sha"
fi
out="$root/.bench_build/pairs-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"
echo "parent $sha, change $(git -C "$root" rev-parse HEAD) + working tree; results in $out" >&2

runone() { # side tree workload seed
	local log="$out/$1-$3-$4.log"
	if (cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$4" --seconds 24 --trace 0) >"$log" 2>&1; then
		tail -n 1 "$log" >"$out/$1-$3-$4.json"
	else
		echo "run failed: $1 $3 seed $4 (see $log)" >&2
	fi
}

for seed in $(seq 1 "$seeds"); do
	for w in "${workloads[@]}"; do
		if ((seed % 2)); then
			runone parent "$ptree" "$w" "$seed"
			runone change "$root" "$w" "$seed"
		else
			runone change "$root" "$w" "$seed"
			runone parent "$ptree" "$w" "$seed"
		fi
		echo "seed $seed $w done" >&2
	done
done
go run -C "$root" ./scripts/benchpair "$out"
