#!/usr/bin/env bash
# tools/parent_diff.sh — report equivalence against another revision.
#
# Builds <rev> in a temporary git worktree and the working tree in place
# (both `cargo build --release --offline`), runs one fixed matrix of
# lotus-bench invocations through both binaries and compares their JSON
# byte for byte. Each invocation carries one curve per metric the
# scenario registers at <rev>, so a case compares the whole metric
# vocabulary (two seeds, one x value but for the three sweeps; cut and
# fault metrics only where the case turns their layer on).
#
# The matrix:
#   {bar-gossip, bar-gossip-digest, scrip-gossip}
#   x every registered attack of the scenario
#   x {plain, churn profile, crash+partition faults, periodic schedule,
#      flash crowd, cutoff=2 under loss, report_obedient=0.5}
#   (report_obedient only on the two BAR Gossip scenarios: scrip-gossip
#   has no report defense)
#   plus, at updates_per_round=10 (100-bit rows, so a release round's
#   batch straddles two words: round 6 holds bits 60..69):
#     rate_limit=3 unbalanced=1 on the two BAR Gossip scenarios
#     (scrip-gossip has neither parameter),
#     push_size=4 on the two classic scenarios (bar-gossip, scrip-gossip;
#     the digest round runs no push phase),
#     digest_exact=1, and digest_bits=128 rate_limit=4, on bar-gossip-digest
#   plus two multi-word row shapes on all three scenarios:
#     updates_per_round=33 (330-bit rows of 6 words, whose batches
#     straddle words and whose age bands start and end inside a word),
#     updates_per_round=64 update_lifetime=3 (one word per round),
#   plus, at 65 and 129 nodes (the exchange apply loops plan 64 pairs
#   at a time, so these runs end one pair into a second and a third
#   block), every attack under {plain, crash+partition faults,
#   cutoff=2 under loss, report_obedient=0.5}: the last two remove nodes
#   mid-phase, where a pair's viability is read when its block is
#   planned (report_obedient again only on the BAR Gossip scenarios),
#   plus, at 1500 nodes with a flash crowd (above the 1024-node
#   single-shard cutoff, so the plans walk only the active shards):
#     every attack of the two BAR Gossip scenarios under the same four
#     block variants, whose cutoff and report_obedient rechecks are
#     where a change to what a block reads at plan time would show,
#     and one trade case on scrip-gossip (it plans every node at any
#     size),
#   plus bar-gossip-1m none, crash, ideal and trade at its registered
#   defaults (1M nodes, the flash crowd landing in the final round) at
#   x = 0.002.
#
#   {scrip, bittorrent, token} at small sizes (token on a 4x5 grid, so
#   cut-column builds)
#   x every registered attack of the scenario
#   x {plain, churn profile, crash+partition faults, periodic schedule}
#   plus every reputation attack, plain (it takes none of those
#   parameters),
#   plus one parameter sweep each: scrip altruists, bittorrent
#   attacker_peers, token rare_holders under allocation=rare-spread.
#
# 388 cases in all.
#
# Then the preset leg: for every preset that <rev>'s `--list` names (a
# `preset <id>` line), `--preset <id> --quick --format json` through both
# binaries. A revision from before the presets lists none, so the leg is
# empty there.
#
# Then the examples leg: both trees' root-package examples are built
# (`cargo build --release --offline --examples`), and every example that
# exists at <rev> (`examples/*.rs`) runs through both builds; their
# stdout must match byte for byte. The seven examples add ≈0.3 s of runs
# (release, 2 vCPUs) plus the two example builds. An example deleted or
# renamed since <rev> fails the leg.
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
build_examples() {
    cargo build --release --offline --quiet -p lotus-eater --examples \
        --manifest-path "$1/Cargo.toml" --target-dir "$1/target"
}
build_examples "$tmp/src"
build_examples "$root"
old="$tmp/src/target/release/lotus-bench"
new="$root/target/release/lotus-bench"

variants=(
    ""
    "--param churn_profile=0.7:0.01:0.2/0.3:0.1:0.5"
    "--param faults=crash:0.02:0.2/partition:4:12:0.5"
    "--param schedule=periodic:6:3"
    "--param arrival=burst:6:20"
    "--param cutoff=2 --param faults=loss:0.1"
    "--param report_obedient=0.5"
    "--param updates_per_round=10 --param rate_limit=3 --param unbalanced=1"
    "--param updates_per_round=10 --param push_size=4"
    "--param updates_per_round=10 --param digest_exact=1"
    "--param updates_per_round=10 --param digest_bits=128 --param rate_limit=4"
    "--param updates_per_round=33"
    "--param updates_per_round=64 --param update_lifetime=3"
)
block_variants=(
    ""
    "--param faults=crash:0.02:0.2/partition:4:12:0.5"
    "--param cutoff=2 --param faults=loss:0.1"
    "--param report_obedient=0.5"
)
large="--param nodes=1500 --param arrival=burst:6:1000 --param copies_seeded=60"

economy_variants=(
    ""
    "--param churn_profile=0.7:0.01:0.2/0.3:0.1:0.5"
    "--param faults=crash:0.02:0.2/partition:4:12:0.5"
    "--param schedule=periodic:6:3"
)

# The small configuration every case of a scenario starts from.
base_of() {
    case $1 in
        scrip | reputation) echo "--param agents=30 --param rounds=300 --param warmup=50" ;;
        bittorrent) echo "--param leechers=10 --param pieces=12" ;;
        token) echo "--param graph=grid --param rows=4 --param cols=5 --param rounds=20" ;;
        bar-gossip-1m) echo "" ;;
        *) echo "--param nodes=50 --param rounds=10 --param warmup_rounds=5" \
               "--param updates_per_round=4 --param copies_seeded=5" ;;
    esac
}

# The attack names `--list` shows for one scenario.
attacks_of() {
    "$old" --list | awk -v s="$1" '
        $1 == s && $2 == "—" { on = 1; next }
        on && $1 == "attacks:" { listing = 1; next }
        listing && /^      / { print $1; next }
        listing { exit }'
}

# The metrics line of `--list` for one scenario, as a word list.
metrics_of() {
    "$old" --list | awk -v s="$1" '
        $1 == s && $2 == "—" { on = 1; next }
        on && $1 == "metrics:" { sub(/^ *metrics: */, ""); sub(/ \(default.*/, ""); gsub(/,/, ""); print; exit }'
}

# Run one invocation through both binaries; stop at the first difference.
compare() {
    "$old" "$@" > "$tmp/old.json"
    "$new" "$@" > "$tmp/new.json"
    if ! cmp -s "$tmp/old.json" "$tmp/new.json"; then
        echo "DIFFERS: lotus-bench $*"
        diff <(tr ',' '\n' < "$tmp/old.json") <(tr ',' '\n' < "$tmp/new.json") | head -20
        exit 1
    fi
}

cases=0
run_case() {
    local scenario=$1 attack=$2 extra=$3
    local curves=()
    for m in $(metrics_of "$scenario"); do
        # Cut and fault metrics exist only when their layer is on.
        case $m in
            *_cut_rate | cut_*) [[ $extra == *cutoff=* ]] || continue ;;
            faults_* | fail_faulted_rate) [[ $extra == *faults=* ]] || continue ;;
        esac
        curves+=(--curve "$attack,metric=$m")
    done
    # shellcheck disable=SC2046,SC2086 # word lists by design
    compare --scenario "$scenario" --format json --x-values 0.3 --seeds 2 \
        $(base_of "$scenario") $extra "${curves[@]}"
    cases=$((cases + 1))
}

# Whether a scenario lacks a parameter the variant sets.
skips() {
    case $1:$2 in
        scrip-gossip:*report_obedient=* | scrip-gossip:*rate_limit=*) return 0 ;;
        bar-gossip-digest:*push_size=*) return 0 ;;
        bar-gossip-digest:*) return 1 ;;
        *:*digest_*) return 0 ;;
    esac
    return 1
}

for scenario in bar-gossip bar-gossip-digest scrip-gossip; do
    for attack in $(attacks_of "$scenario"); do
        for extra in "${variants[@]}"; do
            skips "$scenario" "$extra" || run_case "$scenario" "$attack" "$extra"
        done
        for nodes in 65 129; do
            for extra in "${block_variants[@]}"; do
                skips "$scenario" "$extra" ||
                    run_case "$scenario" "$attack" "--param nodes=$nodes $extra"
            done
        done
    done
    if [[ $scenario == scrip-gossip ]]; then
        run_case "$scenario" trade "$large"
        continue
    fi
    for attack in $(attacks_of "$scenario"); do
        for extra in "${block_variants[@]}"; do
            run_case "$scenario" "$attack" "$large $extra"
        done
    done
done
# A later --x-values replaces the 0.3 point: 2,000 attackers among the
# million.
for attack in none crash ideal trade; do
    run_case bar-gossip-1m "$attack" "--x-values 0.002"
done
for scenario in scrip bittorrent token reputation; do
    for attack in $(attacks_of "$scenario"); do
        for extra in "${economy_variants[@]}"; do
            [[ $scenario == reputation && -n $extra ]] ||
                run_case "$scenario" "$attack" "$extra"
        done
    done
done
# A later --x-values replaces the fraction point; the sweeps hold whole
# values, the only ones a count takes.
run_case scrip lotus-eater "--param fraction=0.3 --sweep altruists --x-values 0,2,5"
run_case bittorrent satiate "--sweep attacker_peers --x-values 0,3"
run_case token rare-holders "--param allocation=rare-spread --sweep rare_holders --x-values 1,3"
presets=0
for id in $("$old" --list | awk '$1 == "preset" && NF == 2 { print $2 }'); do
    compare --preset "$id" --quick --format json
    presets=$((presets + 1))
done
examples=0
for src in "$tmp"/src/examples/*.rs; do
    [[ -e $src ]] || continue
    name=$(basename "$src" .rs)
    "$tmp/src/target/release/examples/$name" > "$tmp/old.out"
    if ! "$root/target/release/examples/$name" > "$tmp/new.out" ||
        ! cmp -s "$tmp/old.out" "$tmp/new.out"; then
        echo "DIFFERS: example $name"
        diff "$tmp/old.out" "$tmp/new.out" | head -20
        exit 1
    fi
    examples=$((examples + 1))
done
echo "parent_diff: $cases cases, $presets presets and $examples examples identical to $rev"
