#!/usr/bin/env bash
# Sample a command with the SIGPROF sampler next to this script and
# print where its CPU time went.
#
#   tools/sigprof/profile.sh [-n TOP] <command…>
#
# Builds sampler.c (`gcc -O2 -shared -fPIC`), runs the command under
# it (`LD_PRELOAD`; the command's own output goes to standard error),
# symbolises every sampled frame of the executable with
# `addr2line -a -f -C -i` — so inlined callees are named — and prints
#
#   samples: N (dropped D) in P processes
#   the TOP (default 15) functions by inclusive share (on the stack)
#   the TOP functions by self share (the interrupted PC, innermost
#   inlined callee)
#
# as percentages of N. Needs gcc, addr2line (binutils), awk, and an
# executable with debug info — the release profile here has it
# (`debug = true`, root and benchmark manifests alike).
#
# What to profile: every process of the command samples itself and the
# shares pool them. `benchmark/run.sh` and `flower-bench run` spawn one
# child per repetition around a yardstick, so to see one workload's
# run profile the child directly:
#
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
#   tools/sigprof/profile.sh benchmark/target/release/flower-bench cell --workload steady_100k --seed 42
#
# or a cell of the experiments CLI:
#
#   tools/sigprof/profile.sh target/release/flower_experiments scale --nodes 100000 --shard-sweep 1 --horizon-secs 60
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

gcc -O2 -shared -fPIC -o "$work/sampler.so" "$here/sampler.c"
SIGPROF_OUT="$work/samples" LD_PRELOAD="$work/sampler.so" "$@" >&2

# One line per sample: the functions on its stack, innermost first,
# separated by tabs (a function's inlined callees come before it).
taken=0 dropped=0 processes=0
: >"$work/stacks"
for f in "$work"/samples.*; do
    [ -e "$f" ] || break
    read -r n d exe <"$f"
    taken=$((taken + n)) dropped=$((dropped + d)) processes=$((processes + 1))
    tail -n +2 "$f" | tr ' ' '\n' | sort -u | grep -vx 0 >"$work/addrs" || continue
    addr2line -a -f -C -i -e "$exe" $(sed 's/^/0x/' "$work/addrs") |
        awk '
            /^0x[0-9a-f]+$/ { sub(/^0x0*/, ""); at = $0; odd = 1; next }
            odd { sub(/::h[0-9a-f]{16}$/, ""); names[at] = names[at] ? names[at] "\t" $0 : $0 }
            { odd = !odd }
            END { for (at in names) print at "\t" names[at] }
        ' >"$work/names"
    awk -F'\t' '
        NR == FNR { at = $1; sub(/^[^\t]*\t/, ""); names[at] = $0; next }
        {
            n = split($0, pcs, " "); line = ""
            for (i = 1; i <= n; i++) {
                name = pcs[i] in names ? names[pcs[i]] : "[another object]"
                line = line ? line "\t" name : name
            }
            print line
        }
    ' "$work/names" <(tail -n +2 "$f") >>"$work/stacks"
done

echo "samples: $taken (dropped $dropped) in $processes processes"
[ "$taken" -gt 0 ] || exit 0
awk -F'\t' -v top="$top" '
    BEGIN {
        # On every stack, so left out of the inclusive table: the
        # frames from the process entry point, libc included, up to
        # the `main` of the program.
        entry = "^(\\[another object\\]|_start|main|std::(rt|panic|panicking|sys::backtrace)::|core::ops::function::|<&dyn core::ops::function::)"
    }
    {
        self[$1]++
        split("", seen)
        for (i = 1; i <= NF; i++) if (!($i in seen) && $i !~ entry) { seen[$i]; incl[$i]++ }
    }
    function table(title, count,    name, cmd) {
        print "\n" title
        cmd = "sort -t\"\t\" -k1,1nr -k2 | head -n " top
        for (name in count) printf "%6.2f %%\t%s\n", 100 * count[name] / NR, name | cmd
        close(cmd)
    }
    END {
        table("inclusive (share of samples with the function on the stack)", incl)
        table("self (share of samples interrupted in the function)", self)
    }
' "$work/stacks"
