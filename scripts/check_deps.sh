#!/bin/sh
# Dependency hygiene, run by CI `lint`. Fails, naming each offender, when
#  - a workspace member declares a [dependencies]/[dev-dependencies] crate
#    that none of its src/, tests/, examples/ or benches/ names (as
#    `name::`, `use name` or `name!`, with `-` read as `_`), or
#  - a vendor/ crate is no member's dependency.
# Usage: scripts/check_deps.sh (from any directory).
set -u
cd "$(dirname "$0")/.." || exit 2
status=0
declared=""
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    deps=$(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
        on && /^[A-Za-z0-9_-]+ *=/ { sub(/ *=.*/, ""); print }' "$manifest")
    declared="$declared $deps"
    srcs=""
    for sub in src tests examples benches; do
        [ -d "$dir/$sub" ] && srcs="$srcs $dir/$sub"
    done
    for dep in $deps; do
        name=$(printf '%s' "$dep" | tr - _)
        pat="(^|[^A-Za-z0-9_])($name::|$name!|use $name([^A-Za-z0-9_]|\$))"
        # shellcheck disable=SC2086 # $srcs is a list of directories
        if [ -z "$srcs" ] || ! grep -rqE --include='*.rs' "$pat" $srcs; then
            echo "unused dependency: $manifest -> $dep"
            status=1
        fi
    done
done
for crate in vendor/*/; do
    name=$(basename "$crate")
    case " $(echo $declared) " in
        *" $name "*) ;;
        *) echo "vendored crate no member depends on: $crate"; status=1 ;;
    esac
done
exit $status
