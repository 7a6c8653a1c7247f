#!/usr/bin/env bash
# Builds car-server and car_benchmark from this checkout, then runs
# car_benchmark with the given arguments. Run it from the repository
# root: bash crates/bench/src/bin/car_benchmark/run.sh --workload <name> ...
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p car-server >&2
cargo build --release --offline --quiet --manifest-path crates/bench/src/bin/car_benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/car_benchmark" "$@"
