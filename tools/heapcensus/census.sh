#!/usr/bin/env bash
# Count a command's live heap by allocation size, at its high-water
# mark, and name where the blocks come from, with the LD_PRELOAD shim
# next to this script.
#
#   tools/heapcensus/census.sh [-n TOP] <command…>
#
# Builds census.c (`gcc -O2 -shared -fPIC`), runs the command under it
# (`LD_PRELOAD`; the command's own output goes to standard error) and
# prints, for every process of the command,
#
#   <executable>: peak live heap P MB, peak RSS R MB, census at S MB
#   (A MB allocated) — R, the kernel's high-water mark of the process
#   (shim headers included), also counts what the allocator kept after
#   the program freed it, which no size below shows
#   the TOP (default 15) allocation sizes by allocated bytes at the
#   census: size in bytes, live blocks, MB asked for, MB allocated,
#   share of the census's allocated total; and
#   under each, its most frequent call chain: the first four frames
#   outside `alloc`, `core` and `std`, innermost first, symbolised with
#   `addr2line -f -C -i` (so inlined callees are named), and the share
#   of the size's sampled live blocks allocated there
#
# The census is the last copy of the size table the shim took, within
# 256 KiB of the peak. Sizes are what the program asked for; the
# shim's 16-byte header per block is in none of them. "Allocated" is
# what glibc's malloc spends on a block of that size without the shim:
# the size plus its 8-byte chunk header, rounded up to 16, at least 32
# (blocks past the mmap threshold cost more, in whole pages). A small
# block costs several times what it asks for — a live 8-byte block
# takes 32 — which is why sizes are ranked by this figure. About one
# allocation in 64, and every one of 4 KiB or more, records its stack,
# which slows an allocation-heavy command by a few times. To see where one benchmark
# workload's memory sits, census the child directly:
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
    read -r peak at hwm exe <"$f"
    # Per size: allocated bytes, size, blocks, requested bytes.
    tail -n +2 "$f" | grep -v '^@' | awk '{
        chunk = int(($1 + 8 + 15) / 16) * 16
        if (chunk < 32) chunk = 32
        print chunk * $2, $1, $2, $1 * $2
    }' | sort -k1,1nr -k2,2n >"$work/sizes"
    alloc="$(awk '{ t += $1 } END { printf "%.0f", t }' "$work/sizes")"
    head -n "$top" "$work/sizes" >"$work/top"
    awk -v exe="$exe" -v peak="$peak" -v hwm="$hwm" -v at="$at" -v alloc="$alloc" 'BEGIN {
        printf "%s: peak live heap %.1f MB, peak RSS %.1f MB, census at %.1f MB (%.1f MB allocated)\n", exe, peak / 1e6, hwm * 1024 / 1e6, at / 1e6, alloc / 1e6
        printf "%12s %10s %9s %9s %7s\n", "size B", "blocks", "MB", "alloc MB", "share"
    }'

    # The sampled sites of the top sizes, their frames symbolised: one
    # line per frame offset, its functions tab-separated, inlined
    # callees first.
    awk 'NR == FNR { top[$2]; next } $1 == "@" && ($2 in top)' "$work/top" "$f" >"$work/sites"
    cut -d' ' -f4- "$work/sites" | tr ' ' '\n' | sort -u | grep -vx 0 >"$work/addrs" || true
    : >"$work/names"
    if [ -s "$work/addrs" ]; then
        addr2line -a -f -C -i -e "$exe" $(sed 's/^/0x/' "$work/addrs") |
            awk '
                /^0x[0-9a-f]+$/ { sub(/^0x0*/, ""); at = $0; odd = 1; next }
                odd { sub(/::h[0-9a-f]{16}$/, ""); names[at] = names[at] ? names[at] "\t" $0 : $0 }
                { odd = !odd }
                END { for (at in names) print at "\t" names[at] }
            ' >"$work/names"
    fi

    # Per size: the chain with the most sampled live blocks.
    awk -F'\t' '
        BEGIN {
            # The allocator and the standard library: `alloc`, `core`,
            # `std` (and its `hashbrown`), their impls for a generic
            # `T`, the global allocator shims, unresolved frames.
            skip = "^(<?(alloc|core|std|hashbrown)::|<[A-Z][A-Za-z0-9_]* as (alloc|core|std)::|__rust|__rdl|__rg_|_?_?rustc::|\\?\\?)"
        }
        NR == FNR { at = $1; sub(/^[^\t]*\t/, ""); names[at] = $0; next }
        {
            n = split($0, f, " "); chain = ""; kept = 0
            for (i = 4; i <= n && kept < 4; i++) {
                if (!(f[i] in names)) continue
                m = split(names[f[i]], fn, "\t")
                for (j = 1; j <= m && kept < 4; j++) {
                    if (fn[j] ~ skip) continue
                    chain = chain ? chain " < " fn[j] : fn[j]; kept++
                }
            }
            if (chain == "") chain = "(no frame of the executable)"
            live[f[2] SUBSEP chain] += f[3]; total[f[2]] += f[3]
        }
        END {
            for (k in live) {
                split(k, sc, SUBSEP)
                if (live[k] > best[sc[1]]) { best[sc[1]] = live[k]; top_chain[sc[1]] = sc[2] }
            }
            for (s in best) printf "%s\t%.0f\t%d\t%s\n", s, 100 * best[s] / total[s], total[s], top_chain[s]
        }
    ' "$work/names" "$work/sites" >"$work/chains"

    awk -F'\t' -v alloc="$alloc" '
        NR == FNR { share[$1] = $2; sampled[$1] = $3; chain[$1] = $4; next }
        {
            split($0, r, " ")
            printf "%12d %10d %9.2f %9.2f %6.1f %%\n", r[2], r[3], r[4] / 1e6, r[1] / 1e6, 100 * r[1] / alloc
            if (r[2] in chain)
                printf "%12s %3d %% of %d sampled: %s\n", "", share[r[2]], sampled[r[2]], chain[r[2]]
        }
    ' "$work/chains" "$work/top"
done
