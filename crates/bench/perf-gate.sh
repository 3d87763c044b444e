#!/usr/bin/env bash
# The perf gate: two builds of the harness, one machine.
#
#   crates/bench/perf-gate.sh <base-ref>
#
# Builds the harness at <base-ref> (a `git archive` of it, unpacked under
# target/perf-gate/base) and in the working tree, runs the two alternately,
# three full runs each, and compares the per-key minimum of each side
# (`harness --compare`; the ratio and the noise floor are constants of
# crates/bench/src/baseline.rs — there is nothing to tune here). A failure
# is confirmed by three more rounds before it counts. Every working-tree
# run is also checked against the ledger: it must produce exactly the cells
# BENCH_latest.json names. Exits non-zero on a regressed cell, a lost cell,
# or a ledger mismatch. Needs no network; takes two release builds plus
# about seven minutes of runs (thirteen when it fails).
#
# Left under target/perf-gate/:
#   base{1..}.json head{1..}.json       the snapshots, six or twelve
#   head{1..}.txt                       the working tree's tables (and the
#                                       E19 canary lines CI greps)
#   report.txt                          the comparison
#   BENCH_latest.json                   per-key minimum of the head side:
#                                       copy it over the committed ledger
#                                       when the change moves or adds a cell
#   workload.json slowlog.json          from one more, profiled run of the
#   profiled.txt                        head that the comparison leaves out
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 <base-ref>" >&2; exit 2; }
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
out=$root/target/perf-gate
mkdir -p "$out"
rm -rf "$out/base" "$out"/*.json "$out"/*.txt
mkdir "$out/base"

# `git archive` stamps every file with the commit's time, so a second gate
# run against the same base finds its build in base-target up to date.
git -C "$root" archive "$base_sha" | tar -x -C "$out/base"
echo "# building base $base_sha"
(cd "$out/base" && cargo build --release --offline -p ov-bench --bin harness \
    --target-dir "$out/base-target")
echo "# building head (working tree)"
(cd "$root" && cargo build --release --offline -p ov-bench --bin harness \
    --target-dir "$root/target")
base_bin=$out/base-target/release/harness
head_bin=$root/target/release/harness

# E18's cells wait on whatever disk holds its stores. On a disk shared with
# other tenants one binary's fsync-bound cells read 0.6-1.4x of themselves
# even at the minimum of three runs, and no code change is behind it. So
# where there is a memory file system the gate keeps the stores there: the
# cells then time the durable path's own work (encode, write, the sync call)
# and the device is out of the comparison. EXPERIMENTS.md's E18 table is a
# plain `harness` run, device included.
stores=
if [ -d /dev/shm ] && [ -w /dev/shm ]; then
    shm=$(mktemp -d /dev/shm/ov-perf-gate.XXXXXX)
    trap 'rm -rf "$shm"' EXIT
    stores="--data-dir $shm" # two words: expanded unquoted below
fi

cd "$out"
# One round: a full run of each side. Which side goes first alternates, so
# a drift of the machine over the rounds does not land on one side.
round() {
    echo "# round $1"
    for side in $([ $(($1 % 2)) -eq 0 ] && echo head base || echo base head); do
        if [ "$side" = base ]; then
            "$base_bin" --save-baseline "base$1.json" $stores > /dev/null
        else
            "$head_bin" --save-baseline "head$1.json" --ledger "$root/BENCH_latest.json" \
                $stores > "head$1.txt"
        fi
    done
}
# The per-key minimum of every snapshot taken so far, a side.
compare() {
    "$head_bin" --compare "$(ls base*.json | paste -sd,)" "$(ls head*.json | paste -sd,)" \
        --save-baseline BENCH_latest.json | tee report.txt
}

for i in 1 2 3; do round "$i"; done

# One more run of the head, outside the comparison, profiles itself for the
# workload registry and the slow-query log. Inside it would cost the gate a
# sample: profiling reads the 2 ms E19 cells 1.5x slow, so a profiled round
# of three leaves those cells the minimum of two.
echo "# profiled run"
"$head_bin" --workload workload.json --slowlog slowlog.json > profiled.txt

# A failure has to survive three more rounds. A slowdown in the code is in
# every run and stays; a cell whose three head-side samples all fell into a
# burst of some other tenant's load (one binary reads 3.7 or 5.7 µs on the
# same cell, a third of the time the latter, on a busy shared machine) has
# three more chances at a quiet one.
if ! compare; then
    echo "# failed at three rounds a side: three more to confirm"
    for i in 4 5 6; do round "$i"; done
    compare
fi
