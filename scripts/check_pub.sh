#!/bin/sh
# Public-surface hygiene, run by CI `lint` after check_deps.sh. Fails,
# naming each offender, on a `pub fn`, `pub const`/`pub static` or `pub`
# field in a library under crates/*/src whose name appears nowhere outside
# that library. Outside means every other .rs file that can name it:
# the other crates' src/, every crate's tests/, examples/ and benches/,
# bin targets (src/main.rs, src/bin/), the root src/, tests/ and
# examples/, perf/src and perf/tests, and the code blocks of the library's
# own doc comments (doctests compile as another crate). A field of a
# struct that outside code writes as `Name {` passes too: a functional
# update (`..base`) needs every field visible. Items inside a
# `#[cfg(test)] mod` are skipped. The match is by name, so an item whose
# name another crate uses for something else passes; a failure is always
# real: nothing outside can call the item, so it should be `pub(crate)`.
# It also fails on a method that a `pub trait` under crates/*/src declares
# and no .rs file it searches calls, as `.name(` or `::name(` (a
# declaration or an impl is no call): every impl of it is dead code.
# Usage: scripts/check_pub.sh (from any directory).
set -u
cd "$(dirname "$0")/.." || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
find crates src tests examples perf/src perf/tests -name '*.rs' \
    ! -path '*/target/*' | sort >"$tmp/all"
status=0
for crate in crates/*/; do
    crate=${crate%/}
    grep -E "^$crate/src/" "$tmp/all" | grep -vE "^$crate/src/(main\.rs|bin/)" >"$tmp/lib"
    [ -s "$tmp/lib" ] || continue
    grep -vxF -f "$tmp/lib" "$tmp/all" >"$tmp/outside"
    {
        # shellcheck disable=SC2046 # one file name per line, none with spaces
        cat $(cat "$tmp/outside")
        # shellcheck disable=SC2046
        awk '/^[ \t]*\/\/[\/!] *```/ { fence = !fence; next } fence' $(cat "$tmp/lib")
    } >"$tmp/text"
    grep -oE '[A-Za-z_][A-Za-z0-9_]*' "$tmp/text" | sort -u >"$tmp/words"
    grep -oE '[A-Z][A-Za-z0-9_]* [{]' "$tmp/text" | sed 's/ {$//' | sort -u >"$tmp/built"
    # shellcheck disable=SC2046
    awk -v words="$tmp/words" -v built="$tmp/built" '
        BEGIN {
            while ((getline w < words) > 0) seen[w] = 1
            while ((getline w < built) > 0) whole[w] = 1
        }
        FNR == 1 { skip = 0; pending = 0 }
        skip { if ($0 ~ /^}/) skip = 0; next }
        pending && /^mod [A-Za-z_0-9]+ *\{/ { skip = 1; pending = 0; next }
        { pending = ($0 ~ /^#\[cfg\(test\)\]/) }
        match($0, /^[ \t]*(pub(\([a-z]+\))? )?struct [A-Za-z_][A-Za-z0-9_]*/) {
            type = substr($0, RSTART, RLENGTH); sub(/.*struct /, "", type)
        }
        {
            kind = ""; name = ""
            if (match($0, /^[ \t]*pub (const |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/)) {
                kind = "fn"; name = substr($0, RSTART, RLENGTH); sub(/.* fn /, "", name)
            } else if (match($0, /^[ \t]*pub (const|static) [A-Za-z_][A-Za-z0-9_]* *:/)) {
                kind = "const"; name = substr($0, RSTART, RLENGTH)
                sub(/^[ \t]*pub (const|static) /, "", name); sub(/ *:$/, "", name)
            } else if (match($0, /^[ \t]*pub [a-z_][a-z0-9_]* *:/) && !(type in whole)) {
                kind = "field"; name = substr($0, RSTART, RLENGTH)
                sub(/^[ \t]*pub /, "", name); sub(/ *:$/, "", name)
            }
            if (kind != "" && !(name in seen))
                printf "unused pub %s: %s:%d %s\n", kind, FILENAME, FNR, name
        }' $(cat "$tmp/lib") >"$tmp/report"
    if [ -s "$tmp/report" ]; then
        cat "$tmp/report"
        status=1
    fi
done
# Trait methods: the same test-module skip, then each `fn` one level inside
# a top-level `pub trait` block.
grep -E '^crates/[^/]+/src/' "$tmp/all" >"$tmp/libs"
# shellcheck disable=SC2046
awk '
    FNR == 1 { skip = 0; pending = 0; trait = 0 }
    skip { if ($0 ~ /^}/) skip = 0; next }
    pending && /^mod [A-Za-z_0-9]+ *\{/ { skip = 1; pending = 0; next }
    { pending = ($0 ~ /^#\[cfg\(test\)\]/) }
    /^pub trait / { trait = 1; next }
    trait && /^}/ { trait = 0; next }
    trait && match($0, /^    fn [A-Za-z_][A-Za-z0-9_]*/) {
        print FILENAME ":" FNR, substr($0, RSTART + 7, RLENGTH - 7)
    }' $(cat "$tmp/libs") >"$tmp/methods"
# shellcheck disable=SC2046
cat $(cat "$tmp/all") | grep -oE '(\.|::)[A-Za-z_][A-Za-z0-9_]*\(' |
    sed -E 's/^(\.|::)//; s/\($//' | sort -u >"$tmp/called"
while read -r at name; do
    if ! grep -qxF "$name" "$tmp/called"; then
        echo "uncalled trait method: $at $name"
        status=1
    fi
done <"$tmp/methods"
exit $status
