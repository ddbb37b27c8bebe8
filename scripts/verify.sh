#!/usr/bin/env bash
# Tier-1 gate: build, tests, env matrix, benchmark contract, gates.
#
# 1. cargo build --release     — the workspace must build clean, offline,
#    and warning-free (-D warnings promotes any warning to a hard error).
# 2. cargo test -q             — every unit/integration/property test of
#    every workspace member (`[workspace] default-members` makes the
#    plain command workspace-wide).
# 3. env matrix                — the whole workspace again in release
#    mode under every FX_SIMD level (widest detected, AVX2 pinned —
#    which keeps the narrower tile instances from rotting on an AVX-512
#    builder — and the portable tile rows), with pass-exit
#    validation forced on (FX_VALIDATE=1) and a fixed-seed slice of the
#    differential fuzz sweeps (FX_FUZZ_CASES=8; step 2 ran all 64).
#    This is where the bit-identity contract is swept across process-
#    level axes: a graph vs its exact-mode fused twin (fusion passes in
#    front of the same executor) across threads × planner modes (the
#    planner axis is in-process: the parity suites run each case planned
#    and unplanned, so it needs no env leg), a
#    served fused graph vs the solo un-fused run, int8 across engines
#    and batch positions, f32↔int8 hot swap (which also checks that
#    no int8 weight outlives the swap back to f32). The
#    fx-tensor kernel suite, the golden-bits suite and the int8 parity
#    suite additionally run with VNNI masked off at both vector widths:
#    `FX_VNNI` chooses the int8 element (k-quads under `vpdpbusd`, or
#    k-pairs under `vpmaddwd`), so on an AVX-512 VNNI host both
#    elements run at both widths and the model-level hashes are checked
#    under each.
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
#    `register`, DESIGN §7b); and one front door for serving: none of
#    the retired single-model server's names (`ServerBuilder`, or
#    `Server::` literally) nor of the process-global prepacked-weight
#    cache (`WEIGHT_CACHE`, `WeightCache`, its test counter `PACKS`)
#    under crates/, tests/, examples/, src/, benchmark/, README or
#    DESIGN, names matched as whole words (every model is served
#    through `Registry`, DESIGN §7c; a packed int8 weight lives in its
#    own storage, DESIGN §5e); and one table of operators: none of the
#    retired hand-kept op lists (`NON_TENSOR_OPS`,
#    `UNOBSERVABLE_TARGETS`, `SHAPE_PRESERVING`, `UNARY_FUNCTIONS`), the
#    second method table (`builtin_methods`) or its entry points
#    (`register_method`, `eager_method`) over the same paths, names
#    matched as whole words (an op's kind is one column of its row in
#    fx-core's table, and every analysis reads it there, DESIGN §5f);
#    and one pool API, one memory mode, one drain count: none of the
#    per-dtype pool wrappers (`alloc_f32`, `recycle_i8`, …), the unused
#    i16 bucket (`BUCKETS_I16`), the planning env knob (`FX_MEMPLAN`,
#    `memplan_from_env`) or the serve version slot's second drain count
#    (`wait_drained`) over the same paths, names matched as whole words
#    (kernels call the generic `pool::alloc::<T>`, planning is on unless
#    a run turns it off, and a batch's `Arc<Version>` is its drain
#    token); and a module writes only what it knows: no `fn as_any`
#    outside crates/core/src/module.rs over the same paths (`Module:
#    Any`, and the one inherent `dyn Module::as_any` lives there,
#    DESIGN §3); and one write-back for every GEMM: none of the
#    definitions of the retired second output path (`fn gemm_rows`,
#    `fn gemm_nchw(`, `fn gemm_nn_into`, `fn gemm_nn(`, the 1-d
#    product's own `fn dot(`) nor the length-sniffed `let whole` under
#    crates/tensor/src (the caller names where the sums accumulate, every
#    finished row leaves through one callback, and f32 has one entry,
#    DESIGN §5d). The kept `gemm_nchw_*` test names and the `Dot` trait's
#    `unsafe fn dot(` step are not definitions of these. And one int8
#    element per dot step: no call of the deleted k-pair VNNI step
#    (`dpwssd_epi32(`) nor of the saturating u8×s8 forms
#    (`dpbusds_epi32(`, `maddubs_epi16(`) under crates/tensor/src —
#    the k-quads sum with `vpdpbusd`, which does not saturate, and module
#    docs that say why the others are avoided name them without a call.
# 7. rustdoc gate              — `cargo doc --no-deps --workspace` with
#    `-D warnings`: no broken or private intra-doc link, no ambiguous
#    one.
# 8. size report               — non-test lines (up to each file's
#    `#[cfg(test)]`) per crate, for the four analysis files, for the
#    four kernel files, for `quant.rs` + `tensor.rs` (the int8 weight
#    and the packed form its storage owns), and for `dispatch.rs` +
#    `ops_registry.rs` (the operator table), so the number a simplicity
#    PR cites comes from the gate, not from hand.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== env matrix: workspace under each FX_SIMD level (validation on, fuzz slice) =="
for simd in 1 avx2 0; do
    echo "-- FX_SIMD=$simd"
    FX_SIMD=$simd FX_VALIDATE=1 FX_FUZZ_CASES=8 cargo test -q --release --workspace
done
for simd in avx512 avx2; do
    echo "-- FX_SIMD=$simd FX_VNNI=0 (fx-tensor, golden bits, int8 parity)"
    FX_SIMD=$simd FX_VNNI=0 cargo test -q --release -p fx-tensor
    FX_SIMD=$simd FX_VNNI=0 cargo test -q --release -p fx --test golden_bits --test quant_parity
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

echo "== one-front-door gate: every model is served through Registry; packed weights live in their storage =="
retired_serve='ServerBuilder|WEIGHT_CACHE|WeightCache|PACKS'
serve_paths=(crates tests examples src benchmark README.md DESIGN.md)
if grep -rnwE --exclude-dir=target --exclude-dir=out "$retired_serve" "${serve_paths[@]}" ||
    grep -rnF --exclude-dir=target --exclude-dir=out 'Server::' "${serve_paths[@]}"; then
    echo "the single-model Server or the global weight cache is back; register on a Registry, keep packed forms in the storage" >&2
    exit 1
fi
echo "none of $retired_serve or Server:: under ${serve_paths[*]}"

echo "== one-table gate: an op's kind is one column of its row in fx-core's table =="
retired_lists='NON_TENSOR_OPS|UNOBSERVABLE_TARGETS|SHAPE_PRESERVING|UNARY_FUNCTIONS|builtin_methods|register_method|eager_method'
if grep -rnwE --exclude-dir=target --exclude-dir=out "$retired_lists" "${serve_paths[@]}"; then
    echo "a hand-kept op list or the method table is back; give the op's row a kind instead" >&2
    exit 1
fi
echo "none of $retired_lists under ${serve_paths[*]}"

echo "== one-pool-API gate: generic pool calls, no planning knob, one drain count =="
retired_knobs='alloc_f32|alloc_f32_zeroed|alloc_f32_empty|recycle_f32|alloc_i8|alloc_i8_empty|recycle_i8|alloc_i16|recycle_i16|alloc_i32|alloc_i32_zeroed|recycle_i32|BUCKETS_I16|FX_MEMPLAN|memplan_from_env|wait_drained'
if grep -rnwE --exclude-dir=target --exclude-dir=out "$retired_knobs" "${serve_paths[@]}"; then
    echo "a per-dtype pool wrapper, the i16 bucket, FX_MEMPLAN or the slot's drain count is back; call pool::alloc::<T>, drain on the entry's count" >&2
    exit 1
fi
echo "none of the retired pool wrappers, BUCKETS_I16, FX_MEMPLAN, memplan_from_env or wait_drained under ${serve_paths[*]}"

echo "== module gate: a module writes no as_any; Module: Any does it once =="
if grep -rnF --exclude-dir=target --exclude-dir=out 'fn as_any' "${serve_paths[@]}" |
    grep -v '^crates/core/src/module\.rs:'; then
    echo "a hand-written as_any is back; Module: Any makes it the inherent dyn Module::as_any" >&2
    exit 1
fi
echo "no fn as_any under ${serve_paths[*]} outside crates/core/src/module.rs"

echo "== one-write-back gate: the caller names where sums accumulate; f32 has one entry =="
retired_path='^\s*(pub(\([a-z]+\))? )?fn (gemm_rows|gemm_nchw|gemm_nn_into|gemm_nn|dot)[(<]|let whole\b'
if grep -rnE "$retired_path" crates/tensor/src; then
    echo "a second GEMM output path is back; pass Sums to gemm_tiled and write rows through its callback" >&2
    exit 1
fi
echo "no fn gemm_rows / gemm_nchw / gemm_nn_into / gemm_nn / dot and no let whole under crates/tensor/src"

echo "== int8-element gate: no k-pair VNNI step, no saturating u8 x s8 step =="
retired_int8='(dpwssd_epi32|dpbusds_epi32|maddubs_epi16)\('
if grep -rnE "$retired_int8" crates/tensor/src; then
    echo "a retired int8 dot step is back; k-quads multiply with vpdpbusd, k-pairs with vpmaddwd" >&2
    exit 1
fi
echo "no dpwssd_epi32( / dpbusds_epi32( / maddubs_epi16( under crates/tensor/src"

echo "== rustdoc gate: the docs build warning-free =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
echo "cargo doc: no warnings"

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
printf '%-40s %6d\n' "quant.rs + tensor.rs" "$(nontest_lines crates/tensor/src/{quant,tensor}.rs)"
printf '%-40s %6d\n' "dispatch.rs + ops_registry.rs" "$(nontest_lines crates/core/src/{dispatch,ops_registry}.rs)"
echo "verify: OK"
