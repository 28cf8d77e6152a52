#!/usr/bin/env bash
# CI gate for the workspace. Offline-safe: every external dependency
# resolves to an in-tree shim (see shims/README.md), so no network or
# registry access is needed — `cargo --offline` is enforced throughout.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# Every change states its net Rust line delta; print the total it is
# measured from (tracked files only, so build output never counts).
if git rev-parse --git-dir >/dev/null 2>&1; then
    echo "==> Rust lines: $(git ls-files '*.rs' | xargs cat | wc -l)"
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release (tier-1)"
cargo build --offline --release

echo "==> cargo test (tier-1)"
cargo test --offline -q

echo "==> cargo test --release --workspace"
cargo test --offline --release --workspace -q

echo "==> kernel sanitizer gate (bench sanitize --quick)"
cargo run --offline --release -p bench -- sanitize --quick

echo "==> chaos gate (bench chaos --quick)"
cargo run --offline --release -p bench -- chaos --quick

echo "==> pool gate, 1-node cluster on the virtual clock (bench pool --quick)"
cargo run --offline --release -p bench -- pool --quick

echo "==> replay gate (bench replay --quick)"
cargo run --offline --release -p bench -- replay --quick

echo "==> load-lab gate (bench loadlab --quick)"
cargo run --offline --release -p bench -- loadlab --quick

echo "==> symbolic proof gate (bench prove --quick)"
cargo run --offline --release -p bench -- prove --quick

echo "==> cluster gate (bench cluster --quick)"
cargo run --offline --release -p bench -- cluster --quick

echo "==> factor gate (bench factor --quick)"
cargo run --offline --release -p bench -- factor --quick

echo "==> certify gate (bench certify --quick)"
cargo run --offline --release -p bench -- certify --quick

echo "==> warm-tier examples (repeat matrices must be served warm)"
cargo run --offline --release --example adi_heat_service
cargo run --offline --release --example spectral_poisson

echo "==> benchmark self-test (perfbench/run.py --self-test)"
python3 perfbench/run.py --self-test

# Surface the perf artifacts the gates above just wrote (canonical copies
# stay under target/repro/; the repo-root copies are gitignored and exist
# for CI artifact upload).
cp "${CARGO_TARGET_DIR:-target}"/repro/BENCH_*.json .
echo "==> BENCH artifacts:"
ls -1 BENCH_*.json

echo "==> CI green"
