#!/usr/bin/env sh
# Fails if a metric series is built anywhere but in pla-metrics' own
# handles. Each subsystem keeps only its handles, updates them where the
# event happens, and builds a fresh Registry from them when asked (a
# view); pla-ops only serves the views. So the stats-scraping adapters
# (crates/ops/src/collect.rs) must not come back; no crate, pla-metrics
# included, may bring back a gathered copy of the series beside the
# views that render their handles in place (`MetricFamily`,
# `SampleValue`, `fn gather` or `render_families`); and no crate outside
# crates/metrics/src and crates/ops/src may store a registry: no struct
# field typed `Registry` (bare, by path or wrapped, as in
# `Mutex<Registry>`) and no `OnceLock<...Registry...>`.
# Test code (from a file's first #[cfg(test)] on) and comment lines are
# not checked.
set -eu

cd "$(dirname "$0")/.."

if [ -e crates/ops/src/collect.rs ]; then
    echo "crates/ops/src/collect.rs exists: subsystems own their series" >&2
    exit 1
fi
found=$(find crates/*/src -name '*.rs' -print | sort |
    while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            /MetricFamily|SampleValue|fn gather|render_families/ { print f ":" FNR ": " $0 }' "$f"
    done)
if [ -n "$found" ]; then
    echo "$found"
    echo "registries are the one metric representation: render the views in place" >&2
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
