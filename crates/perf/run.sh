#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json `command`): build the shipped
# `dartmon` and the benchmark from source, then hand every argument to
# `dart-perf`. Run from the root of a checkout.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline -q -p dart-tools -p dart-perf 1>&2
exec "$target/release/dart-perf" "$@"
