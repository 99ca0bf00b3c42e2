#!/usr/bin/env bash
# Same-runner A/B performance gate: measures the base commit and the
# change on this machine and compares them with `lvmmbench compare`.
#
#   bash .github/bench-ab.sh REV
#
# The base is the merge base of REV and HEAD: pass the target branch for
# a pull request, the previous head for a push. The base is checked out
# into a temporary git worktree; the change is the working tree this
# script runs in. Pairs of short untraced passes of all five bench/
# workloads alternate which side runs first, each pair at its own seed,
# and each side is measured with its own tree's bench/.
#
# Exits non-zero on a `regression` row, a failed op, a simulated
# statistic that differs between the sides, or a pass that does not
# finish; `unresolved` rows are printed only. A change that edits the
# benchmark itself (bench/ or BENCHMARK.json) re-baselines it: the
# verdict is printed and the script exits 0.
set -euo pipefail

# Calibrated on a shared 2-vCPU x86-64 host (DESIGN.md, "Benchmarks"): a
# no-op change passes, a change that makes stream_lw run_ms 30% slower
# fails, and the whole run takes about eleven minutes.
pairs=12
seconds=3

if [ $# -ne 1 ]; then
	echo "usage: bash .github/bench-ab.sh REV" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git merge-base "$1" HEAD)
work=$(mktemp -d)
trap 'git worktree remove --force "$work/tree" >/dev/null 2>&1; rm -rf "$work"' EXIT
git worktree add --detach --quiet "$work/tree" "$base"
echo "bench-ab: base $(git rev-parse --short "$base") vs the working tree at $(git rev-parse --short HEAD): $pairs pairs of ${seconds} s passes"

# pass SIDE TREE SEED runs one untraced pass of every workload.
pass() {
	local log="$work/$1-seed$3.log"
	if ! bash "$2/bench/run.sh" --trace 0 --seconds "$seconds" --seed "$3" --out "$work/$1" >"$log" 2>&1; then
		cat "$log" >&2
		echo "bench-ab: the $1 pass at seed $3 did not finish" >&2
		exit 1
	fi
}

for seed in $(seq "$pairs"); do
	if [ $((seed % 2)) -eq 1 ]; then
		pass base "$work/tree" "$seed"
		pass change "$root" "$seed"
	else
		pass change "$root" "$seed"
		pass base "$work/tree" "$seed"
	fi
done

status=0
bash bench/run.sh compare "$work/base" "$work/change" || status=$?
if ! git diff --quiet "$base" -- bench BENCHMARK.json; then
	echo "bench-ab: this change edits the benchmark and so re-baselines it; the verdict above does not gate"
	exit 0
fi
exit "$status"
