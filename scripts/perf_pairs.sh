#!/bin/sh
# Alternating parent/change benchmark pairs (choosing-metrics §8).
#
#   scripts/perf_pairs.sh PARENT_REV [WORKLOAD...]      N=10 pairs by default
#
# Builds hxperf from PARENT_REV's committed files and from the working tree
# into separate target directories, copies both executables, and runs N
# pairs per workload at the benchmark driver's settings (--seed i
# --seconds 12 --trace 0, pair i at seed i), alternating which side goes
# first. Prints, per workload and metric, each side's median and quartiles,
# wins/pairs, and the verdict: a gain needs wins >= 9/10 of all pairs and a
# median gap wider than the parent's inter-quartile distance. Which way is
# better, and each end-to-end metric's bound, come from BENCHMARK.json (read
# only): a change median worse than the parent's by more than the bound is
# "over bound". Exits non-zero if any metric is over bound, any sim_* value
# differs between the sides or any run reports failed > 0. Everything it
# writes lives under target/perf_pairs/.
#
# The parent is a `git archive` export rather than a `git worktree`: it
# builds the same committed files and leaves nothing registered in .git.
set -eu

[ $# -ge 1 ] || { echo "usage: $0 PARENT_REV [WORKLOAD...]" >&2; exit 2; }
parent_rev=$1
shift
pairs=${N:-10}

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
work=$root/target/perf_pairs
[ $# -gt 0 ] || set -- $(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' BENCHMARK.json)

rm -rf "$work/parent_src"
mkdir -p "$work/parent_src" "$work/out"
git archive "$parent_rev" | tar -x -C "$work/parent_src"
for side in parent change; do
    src=$root
    [ $side = change ] || src=$work/parent_src
    CARGO_TARGET_DIR=$work/target_$side \
        cargo build --release --offline --manifest-path "$src/perf/Cargo.toml" >&2
    cp "$work/target_$side/release/hxperf" "$work/hxperf_$side"
done

# One row per (workload, pair, side, metric): the driver's last-line JSON,
# flattened. `failed` rides along as a metric of its own.
rows=$work/rows.txt
: > "$rows"
run() { # workload pair side
    "$work/hxperf_$3" --workload "$1" --seed "$2" --seconds 12 --trace 0 \
        --out "$work/out" 2>/dev/null | tail -n 1 | awk -v w="$1" -v i="$2" -v s="$3" '{
            if (match($0, /"failed":[0-9]+/))
                print w, i, s, "failed", substr($0, RSTART + 9, RLENGTH - 9)
            rest = $0
            while (match(rest, /"[A-Za-z0-9_.]+":\{"unit":"[^"]*","value":[-+0-9.eE]+\}/)) {
                item = substr(rest, RSTART, RLENGTH)
                rest = substr(rest, RSTART + RLENGTH)
                name = item; sub(/^"/, "", name); sub(/".*/, "", name)
                val = item; sub(/.*"value":/, "", val); sub(/\}$/, "", val)
                print w, i, s, name, val
            }
        }' >> "$rows"
}
for w in "$@"; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
        echo "$w pair $i/$pairs: $first then $second" >&2
        run "$w" "$i" $first
        run "$w" "$i" $second
        i=$((i + 1))
    done
done

# One line per declared metric: name, better (lower/higher), bound (end-to-end
# metrics only).
metrics=$work/metrics.txt
sed -n 's/.*{"name": "\([^"]*\)", "unit": "[^"]*", "better": "\([a-z]*\)"\(, "bound": \([0-9.]*\)\)\{0,1\}}.*/\1 \2 \4/p' \
    BENCHMARK.json > "$metrics"

awk '
function sorted(src, n, dst,    a, b, t) {
    for (a = 1; a <= n; a++) dst[a] = src[a]
    for (a = 2; a <= n; a++) {
        t = dst[a]
        for (b = a - 1; b >= 1 && dst[b] > t; b--) dst[b + 1] = dst[b]
        dst[b + 1] = t
    }
}
function quantile(v, n, q,    pos, lo, frac) {
    pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
    return lo >= n ? v[n] : v[lo] + frac * (v[lo + 1] - v[lo])
}
NR == FNR { better[$1] = $2; if (NF > 2) bound[$1] = $3; next }
{
    key = $1 SUBSEP $4
    if (!(key in seen)) { seen[key] = 1; order[++nkeys] = key }
    val[key, $2, $3] = $5
    if ($2 > npairs[$1]) npairs[$1] = $2
}
END {
    bad = 0
    printf "%-14s %-15s %32s %32s %6s  %s\n", "workload", "metric", \
        "parent med [q1, q3]", "change med [q1, q3]", "wins", "verdict"
    for (k = 1; k <= nkeys; k++) {
        split(order[k], part, SUBSEP); w = part[1]; m = part[2]
        # +1 when higher is better, -1 when lower is (the default).
        dir = better[m] == "higher" ? 1 : -1
        n = 0; wins = 0; losses = 0; differs = 0
        for (i = 1; i <= npairs[w]; i++) {
            if (!((order[k], i, "parent") in val) || !((order[k], i, "change") in val)) {
                printf "%s %s: pair %d is missing a side\n", w, m, i; bad = 1; continue
            }
            n++
            p[n] = val[order[k], i, "parent"] + 0; c[n] = val[order[k], i, "change"] + 0
            if ((val[order[k], i, "parent"] "") != (val[order[k], i, "change"] "")) differs++
            if (dir * (c[n] - p[n]) > 0) wins++
            if (dir * (c[n] - p[n]) < 0) losses++
        }
        if (n == 0) continue
        if (m == "failed") {
            for (i = 1; i <= n; i++) if (p[i] > 0 || c[i] > 0) {
                printf "%s: a run reported failed > 0\n", w; bad = 1; break
            }
            continue
        }
        sorted(p, n, ps); sorted(c, n, cs)
        pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
        iqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
        gap = dir * (cm - pm)
        if (m ~ /^sim_/) {
            verdict = differs ? "DIFFERS" : "identical"
            if (differs) bad = 1
        } else if (wins * 10 >= n * 9 && gap > iqr) verdict = "gain"
        else if (losses * 10 >= n * 9 && -gap > iqr) verdict = "worse"
        else verdict = "unresolved"
        if ((m in bound) && -gap > bound[m] * pm) {
            verdict = verdict ", over bound " bound[m]
            bad = 1
        }
        printf "%-14s %-15s %10.4f [%9.4f,%9.4f] %10.4f [%9.4f,%9.4f] %3d/%-2d  %s", w, m, \
            pm, quantile(ps, n, 0.25), quantile(ps, n, 0.75), \
            cm, quantile(cs, n, 0.25), quantile(cs, n, 0.75), wins, n, verdict
        if (m !~ /^sim_/ && pm > 0) printf " (x%.3f)", cm / pm
        printf "\n"
    }
    exit bad
}' "$metrics" "$rows"
