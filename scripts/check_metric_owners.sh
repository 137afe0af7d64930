#!/usr/bin/env sh
# Fails if a metric series is built anywhere but in pla-metrics' own
# handles. Each subsystem keeps only its handles, updates them where the
# event happens, and builds a fresh Registry from them when asked (a
# view); pla-ops only serves the views. So the stats-scraping adapters
# (crates/ops/src/collect.rs) must not come back, no crate outside
# crates/metrics/src may assemble a family by hand (`MetricFamily {` or
# `SampleValue::`), and no crate outside crates/metrics/src and
# crates/ops/src may store a registry: no struct field typed `Registry`
# (bare, by path or wrapped, as in `Mutex<Registry>`) and no
# `OnceLock<...Registry...>`.
# Test code (from a file's first #[cfg(test)] on) and comment lines are
# not checked.
set -eu

cd "$(dirname "$0")/.."

if [ -e crates/ops/src/collect.rs ]; then
    echo "crates/ops/src/collect.rs exists: subsystems own their series" >&2
    exit 1
fi
found=$(find crates/*/src -name '*.rs' ! -path 'crates/metrics/src/*' -print | sort |
    while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            /MetricFamily \{|SampleValue::/ { print f ":" FNR ": " $0 }' "$f"
    done)
if [ -n "$found" ]; then
    echo "$found"
    echo "metric families are built only by pla-metrics registries" >&2
    exit 1
fi
stored=$(find crates/*/src -name '*.rs' ! -path 'crates/metrics/src/*' ! -path 'crates/ops/src/*' \
    -print | sort |
    while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            /^[[:space:]]*(pub(\([a-z: ]*\))?[[:space:]]+)?[a-z_][a-z0-9_]*:[[:space:]]*[A-Za-z0-9_:<>, ]*Registry[A-Za-z0-9_:<>, ]*,?[[:space:]]*$/ ||
            /OnceLock<.*Registry/ { print f ":" FNR ": " $0 }' "$f"
    done)
if [ -n "$stored" ]; then
    echo "$stored"
    echo "registries are views: build one from the handles when asked, store none" >&2
    exit 1
fi
echo "metric series are declared by their owners"
