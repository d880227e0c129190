#!/usr/bin/env bash
# Full local gate: release build, the complete test suite at both ends of
# the worker-count range, and clippy with warnings promoted to errors.
# Run from anywhere inside the repo.
#
# The suite runs twice — PELICAN_THREADS=1 (pure serial paths) and
# PELICAN_THREADS=4 (pooled kernels, concurrent folds, parallel window
# scoring) — because the engine's contract is that both produce identical
# results. An unfiltered `cargo test` runs every workspace member's tests
# (`default-members`), so the pipeline chaos, observability and kernel
# equivalence suites run at both counts without separate invocations.
# Formatting and rustdoc are gated alongside clippy, and a dependency
# that no code uses fails the gate. Set PELICAN_BENCH=1 to also run the
# parallel-scaling, observability-overhead and kernel benches
# (bench_parallel_scaling, bench_observe and bench_kernels; they write
# BENCH_parallel.json, BENCH_observe.json and BENCH_kernels.json at the
# repo root).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== every dependency has a user =="
# A vendored stub listed in [workspace.dependencies] but named by no member
# manifest (`dep.workspace = true`) is dead weight nothing compiles.
orphans=0
for dep in $(sed -n '/^\[workspace.dependencies\]/,/^\[/p' Cargo.toml |
    grep -oE '^[A-Za-z0-9_-]+ = \{ path = "third_party/' | cut -d' ' -f1); do
    if ! grep -qE "^${dep}(\.workspace = true| = \{[^}]*workspace = true)" \
        Cargo.toml crates/*/Cargo.toml; then
        echo "third_party dependency '${dep}' is used by no member manifest" >&2
        orphans=1
    fi
done
# A crate that lists a dependency (normal or dev) its code never names
# compiles and links it for nothing. The name is searched as an
# identifier (`-` becomes `_`) in the crate's own src/, tests/, benches/
# and examples/.
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    code=()
    for sub in src tests benches examples; do
        if [[ -d "$dir/$sub" ]]; then code+=("$dir/$sub"); fi
    done
    for dep in $(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
        on' "$manifest" | grep -oE '^[A-Za-z0-9_-]+' || true); do
        if ! grep -rqw -- "${dep//-/_}" "${code[@]}"; then
            echo "${manifest}: dependency '${dep}' is never used by its crate" >&2
            orphans=1
        fi
    done
done
test "$orphans" -eq 0

cargo build --release
cargo fmt --check
echo "== tests @ PELICAN_THREADS=1 =="
PELICAN_THREADS=1 cargo test -q
echo "== tests @ PELICAN_THREADS=4 =="
PELICAN_THREADS=4 cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet
if [[ "${PELICAN_BENCH:-0}" == "1" ]]; then
    cargo bench -p pelican-bench --bench bench_parallel_scaling
    cargo bench -p pelican-bench --bench bench_observe
    cargo bench -p pelican-bench --bench bench_kernels
fi
echo "== BENCH_observe.json well-formed =="
test -s BENCH_observe.json
grep -q '"bench": "bench_observe"' BENCH_observe.json
grep -q '"overhead_inmemory_pct"' BENCH_observe.json
grep -q '"within_budget": true' BENCH_observe.json
echo "== BENCH_kernels.json well-formed =="
test -s BENCH_kernels.json
grep -q '"bench": "bench_kernels"' BENCH_kernels.json
grep -q '"gemm_min_speedup"' BENCH_kernels.json
grep -q '"bit_identical_to_seed": true' BENCH_kernels.json
echo "all checks passed"
