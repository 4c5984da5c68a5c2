#!/usr/bin/env bash
# Count a command's live heap by allocation size, at its high-water
# mark, with the LD_PRELOAD shim next to this script.
#
#   tools/heapcensus/census.sh [-n TOP] <command…>
#
# Builds census.c (`gcc -O2 -shared -fPIC`), runs the command under it
# (`LD_PRELOAD`; the command's own output goes to standard error) and
# prints, for every process of the command,
#
#   <executable>: peak live heap P MB, census at S MB
#   the TOP (default 15) allocation sizes by live bytes at the census:
#   size in bytes, live blocks, MB, share of the census total
#
# The census is the last copy of the size table the shim took, within
# 256 KiB of the peak. Sizes are what the program asked for; the
# shim's 16-byte header per block is in none of them. To see where one
# benchmark workload's memory sits, census the child directly:
#
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
#   tools/heapcensus/census.sh benchmark/target/release/flower-bench cell --workload steady_100k --seed 42
set -eu

top=15
if [ "${1:-}" = "-n" ]; then
    top="$2"
    shift 2
fi
[ $# -gt 0 ] || { echo "usage: $0 [-n TOP] <command…>" >&2; exit 2; }

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

gcc -O2 -shared -fPIC -o "$work/shim.so" "$here/census.c"
HEAPCENSUS_OUT="$work/census" LD_PRELOAD="$work/shim.so" "$@" >&2

for f in "$work"/census.*; do
    [ -e "$f" ] || { echo "no process wrote a census" >&2; exit 1; }
    read -r peak at exe <"$f"
    awk -v exe="$exe" -v peak="$peak" -v at="$at" 'BEGIN {
        printf "%s: peak live heap %.1f MB, census at %.1f MB\n", exe, peak / 1e6, at / 1e6
        printf "%12s %10s %9s %7s\n", "size B", "blocks", "MB", "share"
    }'
    tail -n +2 "$f" | awk '{ print $1 * $2, $1, $2 }' | sort -k1,1nr -k2,2n | head -n "$top" |
        awk -v at="$at" '{ printf "%12d %10d %9.2f %6.1f %%\n", $2, $3, $1 / 1e6, 100 * $1 / at }'
done
