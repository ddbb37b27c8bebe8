#!/usr/bin/env bash
# Tier-1 gate: build, tests, env matrix, benchmark contract, gates.
#
# 1. cargo build --release     — the workspace must build clean, offline,
#    and warning-free (-D warnings promotes any warning to a hard error).
# 2. cargo test -q             — every unit/integration/property test of
#    every workspace member (`[workspace] default-members` makes the
#    plain command workspace-wide).
# 3. env matrix                — the whole workspace again in release
#    mode under every FX_SIMD × FX_MEMPLAN combination (widest detected
#    level, AVX2 pinned — which keeps the narrower tile instances from
#    rotting on an AVX-512 builder — and the portable tile rows
#    × buffer-pool planner on/off), with pass-exit
#    validation forced on (FX_VALIDATE=1) and a fixed-seed slice of the
#    differential fuzz sweeps (FX_FUZZ_CASES=8; step 2 ran all 64).
#    This is where the bit-identity contract is swept across process-
#    level axes: a graph vs its exact-mode fused twin (fusion passes in
#    front of the same executor) across threads × planner modes, a
#    served fused graph vs the solo un-fused run, int8 across engines
#    and batch positions, f32↔int8 hot swap. The
#    fx-tensor kernel suite additionally runs with VNNI masked off at
#    both vector widths, so all four int8 dot-step × width tile
#    instances execute on an AVX-512 VNNI builder.
# 4. benchmark contract smoke  — two seconds of the benchmark of record's
#    transform_resnet50 workload; it must report `"correct":true` (which
#    includes `fx_backend::compile` producing the 73 fused instructions
#    pinned in benchmark/expected.json). Every performance number is
#    measured there, by the benchmark of record; this script asserts
#    nothing that depends on the host's speed.
# 5. multi-model serve smoke   — the registry suite in release mode:
#    ResNet-50 hot swap under 4 concurrent clients (zero failures,
#    bit-exact versioning), a fixed-seed slice of the concurrent
#    register/swap/unregister/infer schedule fuzz, and the admission
#    smoke: `Registry::register` admits ResNet-50 as traced, conv–BN
#    fused, backend-fused, lowered and PTQ int8, and refuses a
#    `flatten(0, -1)` graph as "not batch-polymorphic".
# 6. one-rule gates            — the shape/cost analyses dispatch on op
#    names only: no `downcast_ref` / `type_name()` in the four analysis
#    files (a leaf is read through its traced forward, DESIGN §5f); and
#    int8 has no GEMM machine of its own: none of the names of the old
#    one (`I8_MR`, `I8_NR`, `mk_i8`, `pack_a_i8`, `ImagePatch`) under
#    crates/tensor/src (it is rows in the one driver's tile table,
#    DESIGN §5e); one engine: none of the names of the retired portable
#    engine (`gemm_nn_scalar`, `gemm_nt_scalar`, `dot4`,
#    `conv_via_im2col`, `run_scalar`, `SendPtrI8`, `_with_engine`,
#    `parallel_row_blocks`) under crates/tensor/src (`FX_SIMD=0` runs
#    portable rows of the one tile table, DESIGN §5d); and one ruler:
#    the retired second benchmark system
#    (its JSON records and criterion shim) and the GEMM blocking env
#    knobs (the blocking is a constant: KC is part of the f32 bits) are
#    named nowhere outside benchmark/ and the top-level change and
#    planning records (README, DESIGN and EXPERIMENTS are searched);
#    and one conv lowering: none of the names of the clipping patch
#    gather or the direct pointwise 1×1 kernel and its routing pass
#    (`PATCH_RUN_MIN`, `const CLIP`, `conv2d_pointwise`,
#    `route_pointwise`, `with_pointwise`, `pointwise_eligible`) under
#    crates/, tests/, README or DESIGN (padding is data and a 1×1 is a
#    plane-row GEMM, for f32 and int8 alike, DESIGN §5d); and one
#    notion of threads: none of the names of the retired inter-op
#    wavefront executor (`run_parallel`, `with_workers`,
#    `execute_concrete`, `WavefrontStat`, `max_concurrency`,
#    `max_width`) under crates/, tests/, README or DESIGN (the executor
#    runs one step at a time; threads are kernel threads, DESIGN §5b);
#    and one runner behind serving: none of the names of the retired
#    backend trait pair and its adapters (`ExecutionBackend`,
#    `PreparedModel`, `ExecutorBackend`, `EngineBackend`,
#    `PreparedEngine`, `PreparedExecutor`, `with_backend`), of
#    `with_fusion`, of the uncompilable Rust emitter (`rust_code`) or of
#    the stashed executor profile (`with_profiling`) under crates/,
#    tests/, examples/, src/, README or DESIGN, matched as whole words;
#    benchmark/ names none of them either (serve runs the one Executor
#    on the graph it is given, and a fused graph is fused before
#    `register`, DESIGN §7b).
# 7. size report               — non-test lines (up to each file's
#    `#[cfg(test)]`) per crate, for the four analysis files and for the
#    four kernel files, so the number a simplicity PR cites comes from
#    the gate, not from hand.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== env matrix: workspace under FX_SIMD x FX_MEMPLAN (validation on, fuzz slice) =="
for simd in 1 avx2 0; do
    for memplan in 1 0; do
        echo "-- FX_SIMD=$simd FX_MEMPLAN=$memplan"
        FX_SIMD=$simd FX_MEMPLAN=$memplan FX_VALIDATE=1 FX_FUZZ_CASES=8 \
            cargo test -q --release --workspace
    done
done
for simd in avx512 avx2; do
    echo "-- FX_SIMD=$simd FX_VNNI=0 (fx-tensor)"
    FX_SIMD=$simd FX_VNNI=0 cargo test -q --release -p fx-tensor
done

echo "== benchmark contract smoke: transform_resnet50 reports correct =="
# Built as the benchmark driver builds it: its own target dir, no RUSTFLAGS.
smoke=$(env -u RUSTFLAGS cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload transform_resnet50 --seed 1 --seconds 2)
grep -q '"correct":true' <<<"$smoke"
echo "benchmark contract holds (73 fused instructions)"

echo "== multi-model serve smoke: hot swap under load + schedule fuzz slice =="
FX_FUZZ_CASES=3 cargo test -q --release --test serve_registry

echo "== one-rule gate: the analyses name no layer type =="
analyses=(crates/passes/src/{shape_prop,sym_shape,batch_check,estimator}.rs)
if grep -nE 'downcast_ref|type_name\(\)' "${analyses[@]}"; then
    echo "an analysis file dispatches on a module type; add a rule row instead" >&2
    exit 1
fi
echo "no downcast_ref / type_name() in ${analyses[*]}"

echo "== one-driver gate: int8 is rows in the tile table, not a second GEMM machine =="
if grep -rnE 'I8_MR|I8_NR|mk_i8|pack_a_i8|ImagePatch' crates/tensor/src; then
    echo "a piece of the forked int8 GEMM is back; extend the one driver instead" >&2
    exit 1
fi
echo "no I8_MR / I8_NR / mk_i8 / pack_a_i8 / ImagePatch under crates/tensor/src"

echo "== one-engine gate: FX_SIMD=0 runs portable tile rows, not a second engine =="
retired_engine='gemm_nn_scalar|gemm_nt_scalar|dot4|conv_via_im2col|run_scalar|SendPtrI8|_with_engine|parallel_row_blocks'
if grep -rnE "$retired_engine" crates/tensor/src; then
    echo "a piece of the retired portable engine is back; add a tile row instead" >&2
    exit 1
fi
echo "none of $retired_engine under crates/tensor/src"

echo "== one-ruler gate: no second benchmark system, no GEMM blocking knobs =="
retired='BENCH_(executor|serve)|fx_bench::criterion|FX_GEMM_(KC|NC)'
# Top-level Markdown is the change history and planning record, except
# the project documents, which are searched like the code.
docs=(README.md DESIGN.md EXPERIMENTS.md)
if git grep -nE --untracked "$retired" -- . \
    ':(exclude,glob)*.md' ':!benchmark' ':!scripts/verify.sh' ||
    git grep -nE "$retired" -- "${docs[@]}"; then
    echo "a retired benchmark record, the criterion shim or a GEMM blocking knob is back" >&2
    exit 1
fi
echo "none of $retired in the code, ${docs[*]} or the other documents outside benchmark/"

echo "== one-lowering gate: padding is data, a 1x1 is a plane-row GEMM =="
retired_conv='PATCH_RUN_MIN|const CLIP|conv2d_pointwise|route_pointwise|with_pointwise|pointwise_eligible'
if grep -rnE "$retired_conv" crates tests README.md DESIGN.md; then
    echo "a piece of the clipping gather or the pointwise 1x1 fork is back; use ops::conv::with_patches" >&2
    exit 1
fi
echo "none of $retired_conv under crates/, tests/, README.md or DESIGN.md"

echo "== one-threads gate: the executor runs one step at a time; threads are kernel threads =="
retired_interop='run_parallel|with_workers|execute_concrete|WavefrontStat|max_concurrency|max_width'
if grep -rnE "$retired_interop" crates tests README.md DESIGN.md; then
    echo "a piece of the inter-op wavefront executor is back; parallelism lives inside kernels" >&2
    exit 1
fi
echo "none of $retired_interop under crates/, tests/, README.md or DESIGN.md"

echo "== one-runner gate: serving runs the one Executor on the graph it is given =="
retired_runner='ExecutionBackend|PreparedModel|ExecutorBackend|EngineBackend|PreparedEngine|PreparedExecutor|with_backend|with_fusion|rust_code|with_profiling'
if grep -rnwE "$retired_runner" crates tests examples src benchmark README.md DESIGN.md; then
    echo "a piece of the backend trait pair, the Rust emitter or the stashed profile is back; fuse the graph before register instead" >&2
    exit 1
fi
echo "none of $retired_runner under crates/, tests/, examples/, src/, benchmark/, README.md or DESIGN.md"

echo "== size: non-test lines =="
nontest_lines() {
    awk 'FNR == 1 { in_tests = 0 } /^#\[cfg\(test\)\]/ { in_tests = 1 } !in_tests { n++ } END { print n + 0 }' "$@"
}
for crate in crates/*/; do
    # shellcheck disable=SC2046 # source paths here have no spaces
    printf '%-40s %6d\n' "$(basename "$crate")" "$(nontest_lines $(find "$crate/src" -name '*.rs'))"
done
for f in "${analyses[@]}"; do
    printf '%-40s %6d\n' "$f" "$(nontest_lines "$f")"
done
printf '%-40s %6d\n' "the four analysis files" "$(nontest_lines "${analyses[@]}")"
kernels=(crates/tensor/src/ops/{simd,matmul,conv}.rs crates/tensor/src/quant.rs)
for f in "${kernels[@]}"; do
    printf '%-40s %6d\n' "$f" "$(nontest_lines "$f")"
done
printf '%-40s %6d\n' "the four kernel files" "$(nontest_lines "${kernels[@]}")"
echo "verify: OK"
