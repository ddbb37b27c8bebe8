#!/usr/bin/env bash
# Kernel A/B across code placements: `kernel_probe` of two trees, each
# built at several placements, run in alternating pinned rounds.
#
#   scripts/probe_ab.sh [-p "0 9 37"] [-r ROUNDS] [-c CPU] [-w WORKDIR] BASE [CHANGE]
#
# BASE and CHANGE are git revisions; CHANGE defaults to the working tree
# (tracked and untracked, unignored files). Each side is copied into
# WORKDIR (default: a fresh directory under ${TMPDIR:-/tmp}), so the
# repository is never touched. Both copies get CHANGE's
# `crates/tensor/examples/kernel_probe.rs`, so their rows and inputs
# match (the probe uses only public API).
#
# A placement is the probe plus one unused `#[inline(never)]` function
# of N match arms, called once from `main`: its size shifts every
# fx-tensor symbol the example links, which is how code placement alone
# moves single rows by up to ±10 % between builds. Each (side,
# placement) binary is built once, then every round runs, for each
# placement, the two sides back to back — the side that runs first
# alternating — pinned with `taskset -c CPU`. Environment variables
# (`FX_SIMD`, `FX_VNNI`, ...) pass through to every run.
#
# Output, per probe row: the median over rounds of the per-round
# change/base time ratio at each placement, and the spread between
# placements (largest ratio / smallest). Then one line per hashed row
# whose output hash differs between the sides (none: "hashes: equal").
# An A/A run (BASE = CHANGE) reads the noise floor.
set -euo pipefail

pads="0 9 37"
rounds=8
cpu=1
work=""
while getopts "p:r:c:w:h" opt; do
    case "$opt" in
        p) pads="$OPTARG" ;;
        r) rounds="$OPTARG" ;;
        c) cpu="$OPTARG" ;;
        w) work="$OPTARG" ;;
        *) sed -n '2,28p' "$0"; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || { sed -n '2,28p' "$0"; exit 2; }
base="$1"
change="${2:-}"
repo="$(git rev-parse --show-toplevel)"
work="${work:-$(mktemp -d "${TMPDIR:-/tmp}/probe_ab.XXXXXX")}"
mkdir -p "$work/bin" "$work/runs"
probe_rel="crates/tensor/examples/kernel_probe.rs"

# export SIDE REV: a copy of REV (or of the working tree) at $work/SIDE.
export_tree() {
    local dir="$work/$1"
    rm -rf "$dir" && mkdir -p "$dir"
    if [ -n "$2" ]; then
        git -C "$repo" archive "$2" | tar -x -C "$dir"
    else
        (cd "$repo" && git ls-files -z --cached --others --exclude-standard | tar --null -T - -c) | tar -x -C "$dir"
    fi
}

# pad N: the unused function of N arms and the call `main` makes to it.
pad() {
    echo
    echo "#[inline(never)]"
    echo "fn placement_pad(x: u64) -> u64 {"
    echo "    match x {"
    for ((i = 0; i < $1; i++)); do
        echo "        $i => x.wrapping_mul($((2 * i + 3))).rotate_left($((i % 61 + 1))),"
    done
    echo "        _ => x,"
    echo "    }"
    echo "}"
}

export_tree change "$change"
probe_src="$work/change/$probe_rel"
cp "$probe_src" "$work/kernel_probe.rs"
export_tree base "$base"
for side in base change; do
    for n in $pads; do
        {
            sed 's/^fn main() {$/fn main() {\n    std::hint::black_box(placement_pad(std::hint::black_box(7)));/' "$work/kernel_probe.rs"
            pad "$n"
        } >"$work/$side/$probe_rel"
        echo "building $side at placement $n" >&2
        (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side/target" \
            cargo build --release --quiet -p fx-tensor --example kernel_probe)
        cp "$work/$side/target/release/examples/kernel_probe" "$work/bin/$side-$n"
    done
done

for ((r = 0; r < rounds; r++)); do
    i=0
    for n in $pads; do
        if (((r + i) % 2 == 0)); then order="base change"; else order="change base"; fi
        for side in $order; do
            taskset -c "$cpu" "$work/bin/$side-$n" >"$work/runs/$side-$n-$r.txt"
        done
        i=$((i + 1))
    done
    echo "round $((r + 1))/$rounds done" >&2
done

echo "# probe_ab: base=${base} change=${change:-working tree} placements=[${pads}] rounds=${rounds} cpu=${cpu}"
echo "# ${FX_SIMD:+FX_SIMD=$FX_SIMD }${FX_VNNI:+FX_VNNI=$FX_VNNI }$(head -1 "$work/runs/base-${pads%% *}-0.txt")"
for f in "$work"/runs/*.txt; do
    b="$(basename "$f" .txt)"
    # side-placement-round
    echo "$b" | tr '-' ' ' | while read -r side n r; do
        awk -v side="$side" -v n="$n" -v r="$r" '
            { for (i = 1; i <= NF; i++) if ($i == "ms") {
                name = $1; for (j = 2; j < i - 1; j++) name = name " " $j
                hash = "-"; for (j = i; j < NF; j++) if ($j == "fnv") hash = $(j + 1)
                print side "\t" n "\t" r "\t" name "\t" $(i - 1) "\t" hash } }' "$f"
    done
done | awk -F'\t' -v pads="$pads" '
    function median(arr, len,   i, j, t) {
        for (i = 2; i <= len; i++) for (j = i; j > 1 && arr[j - 1] > arr[j]; j--) { t = arr[j]; arr[j] = arr[j - 1]; arr[j - 1] = t }
        return len % 2 ? arr[(len + 1) / 2] : (arr[len / 2] + arr[len / 2 + 1]) / 2
    }
    {
        key = $4 SUBSEP $2 SUBSEP $3
        t[$1, key] = $5
        if (!($4 in seen)) { seen[$4] = 1; rows[++nrows] = $4 }
        if ($6 != "-") h[$1, $4] = $6
        if (!(($2, $3) in rr)) { rr[$2, $3] = 1; nr[$2]++ }
    }
    END {
        np = split(pads, p, " ")
        printf "%-36s", "row"
        for (q = 1; q <= np; q++) printf " %9s", "pad " p[q]
        printf " %8s\n", "spread"
        for (i = 1; i <= nrows; i++) {
            row = rows[i]; lo = 1e9; hi = 0
            printf "%-36s", row
            for (q = 1; q <= np; q++) {
                len = 0
                for (r = 0; r < nr[p[q]]; r++) {
                    key = row SUBSEP p[q] SUBSEP r
                    if ((("base", key) in t) && (("change", key) in t) && t["base", key] > 0) a[++len] = t["change", key] / t["base", key]
                }
                m = median(a, len); ratio[q] = m
                if (m < lo) lo = m
                if (m > hi) hi = m
                printf " %9.3f", m
            }
            printf " %8.3f\n", hi / lo
        }
        differ = 0
        for (i = 1; i <= nrows; i++) {
            row = rows[i]
            if ((("base", row) in h) && h["base", row] != h["change", row]) { print "hash differs: " row " " h["base", row] " -> " h["change", row]; differ = 1 }
        }
        if (!differ) print "hashes: equal"
    }'
echo "# binaries and raw runs: $work" >&2
