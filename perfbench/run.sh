#!/usr/bin/env bash
# Builds the repository's `odc` CLI and this benchmark from source, then
# runs the benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build). Exits non-zero without a result when the
# repository sources are missing or do not build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin odc >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" --odc "$target/release/odc" "$@"
