#!/usr/bin/env bash
# tools/parent_diff.sh — report equivalence against another revision.
#
# Builds <rev> in a temporary git worktree and the working tree in place
# (both `cargo build --release --offline`), runs one fixed matrix of
# lotus-bench invocations through both binaries and compares their JSON
# byte for byte. Each invocation carries one curve per metric the
# scenario registers at <rev>, so a case compares the whole metric
# vocabulary (two seeds, one x value; cut and fault metrics only where
# the case turns their layer on).
#
# The matrix:
#   {bar-gossip, bar-gossip-digest, scrip-gossip}
#   x every registered attack of the scenario
#   x {plain, churn profile, crash+partition faults, periodic schedule,
#      flash crowd, cutoff=2 under loss, report_obedient=0.5}
#   (report_obedient only on the two BAR Gossip scenarios: scrip-gossip
#   has no report defense)
#   plus one trade case per scenario at 1500 nodes with a flash crowd,
#   above the 1024-node single-shard cutoff.
#
# usage: tools/parent_diff.sh <rev>     e.g. tools/parent_diff.sh HEAD~1
# Exits 0 when every case matches; otherwise prints the first invocation
# whose output differs and exits 1. The worktree lives under ${TMPDIR:-/tmp}
# and is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

rev=${1:?usage: tools/parent_diff.sh <rev>}
root=$(pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/parent_diff.XXXXXX")
cleanup() {
    git -C "$root" worktree remove --force "$tmp/src" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT

git worktree add --quiet --detach "$tmp/src" "$rev"
build() {
    cargo build --release --offline --quiet -p lotus-bench --bin lotus-bench \
        --manifest-path "$1/Cargo.toml" --target-dir "$1/target"
}
build "$tmp/src"
build "$root"
old="$tmp/src/target/release/lotus-bench"
new="$root/target/release/lotus-bench"

base=(--param nodes=50 --param rounds=10 --param warmup_rounds=5
      --param updates_per_round=4 --param copies_seeded=5)
variants=(
    ""
    "--param churn_profile=0.7:0.01:0.2/0.3:0.1:0.5"
    "--param faults=crash:0.02:0.2/partition:4:12:0.5"
    "--param schedule=periodic:6:3"
    "--param arrival=burst:6:20"
    "--param cutoff=2 --param faults=loss:0.1"
    "--param report_obedient=0.5"
)
large="--param nodes=1500 --param arrival=burst:6:1000 --param copies_seeded=60"

attacks_of() {
    case $1 in
        bar-gossip | scrip-gossip) echo "none crash ideal trade masquerade" ;;
        bar-gossip-digest) echo "none crash ideal trade masquerade poison" ;;
    esac
}

# The metrics line of `--list` for one scenario, as a word list.
metrics_of() {
    "$old" --list | awk -v s="$1" '
        $1 == s && $2 == "—" { on = 1; next }
        on && $1 == "metrics:" { sub(/^ *metrics: */, ""); sub(/ \(default.*/, ""); gsub(/,/, ""); print; exit }'
}

cases=0
run_case() {
    local scenario=$1 attack=$2 extra=$3
    local curves=()
    for m in $(metrics_of "$scenario"); do
        # Cut and fault metrics exist only when their layer is on.
        case $m in
            *_cut_rate | cut_*) [[ $extra == *cutoff=* ]] || continue ;;
            faults_*) [[ $extra == *faults=* ]] || continue ;;
        esac
        curves+=(--curve "$attack,metric=$m")
    done
    # shellcheck disable=SC2086 # $extra is a list of words by design
    local args=(--scenario "$scenario" --format json --x-values 0.3 --seeds 2
                "${base[@]}" $extra "${curves[@]}")
    "$old" "${args[@]}" > "$tmp/old.json"
    "$new" "${args[@]}" > "$tmp/new.json"
    cases=$((cases + 1))
    if ! cmp -s "$tmp/old.json" "$tmp/new.json"; then
        echo "DIFFERS: lotus-bench --scenario $scenario --attack $attack ${base[*]} $extra"
        diff <(tr ',' '\n' < "$tmp/old.json") <(tr ',' '\n' < "$tmp/new.json") | head -20
        exit 1
    fi
}

for scenario in bar-gossip bar-gossip-digest scrip-gossip; do
    for attack in $(attacks_of "$scenario"); do
        for extra in "${variants[@]}"; do
            [[ $scenario == scrip-gossip && $extra == *report_obedient=* ]] && continue
            run_case "$scenario" "$attack" "$extra"
        done
    done
    run_case "$scenario" trade "$large"
done
echo "parent_diff: $cases cases identical to $rev"
