#!/usr/bin/env sh
# Fails if a metric series is built anywhere but in pla-metrics' own
# handles. Each subsystem declares its series in its own Registry and
# updates the handles where the event happens; pla-ops only serves the
# registries. So the stats-scraping adapters (crates/ops/src/collect.rs)
# must not come back, and no crate outside crates/metrics/src may
# assemble a family by hand (`MetricFamily {` or `SampleValue::`).
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
echo "metric series are declared by their owners"
