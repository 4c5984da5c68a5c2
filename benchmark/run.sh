#!/usr/bin/env bash
# The benchmark's one command. Builds the two binaries of this package
# from source, then:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one seed; the last line of standard output is the
#       JSON result (end-to-end metrics with --trace 0, per-layer
#       metrics with --trace 1).
#   run.sh [--reps N] [--seed N] [--selfcheck] [--no-trace]
#       the whole suite: every workload, repetitions interleaved, one
#       child process per repetition, then one traced run per workload.
#
# Run from the repository root or from anywhere else; nothing outside
# the build directory is written. See README.md.
set -u

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release"

build() {
    cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" --bin "$1" >&2
}

single=0
trace=0
prev=""
for arg in "$@"; do
    [ "$arg" = "--workload" ] && single=1
    [ "$prev" = "--trace" ] && trace="$arg"
    prev="$arg"
done

build flower-bench || { echo "run.sh: flower-bench does not build" >&2; exit 1; }

if [ "$single" = 1 ] && [ "$trace" = 0 ]; then
    exec "$bin/flower-bench" run "$@"
fi

if build flower-bench-trace; then
    [ "$single" = 1 ] && exec "$bin/flower-bench-trace" "$@"
    exec "$bin/flower-bench" suite "$@"
fi

# A refactor broke a probe: the end-to-end half still reports.
echo "run.sh: flower-bench-trace does not build; per-layer metrics unavailable" >&2
[ "$single" = 1 ] && exit 1
exec "$bin/flower-bench" suite --no-trace "$@"
