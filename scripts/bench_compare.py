#!/usr/bin/env python3
"""Diff a fresh `cargo bench` run against BENCH_BASELINE.json.

Runs every bench target (optionally in quick mode, see below), parses the
vendored criterion harness's stderr lines

    <group>/<id>            <ns_per_iter> ns/iter   [<rate> elem/s|B/s]

and compares each benchmark's ns/iter against the checked-in baseline.
Regressions beyond the threshold fail the run (exit 1), which is how CI
gates throughput: a PR that slows a hot path by more than the threshold
breaks the build.

A single measurement on a shared, frequency-scaled box can spike past
any reasonable threshold without any code change, so a flagged
benchmark does not fail the run immediately: the bench *targets* owning
the flagged names are re-run (up to --retries times) and each
benchmark keeps the minimum ns/iter observed. A real regression is
still there on every re-measurement; a thermal-throttle episode is
not. Only benchmarks still beyond the threshold after the retries fail
the run.

Benchmarks present on only one side (new targets, removed targets) are
reported informationally and never fail the run — BENCH_BASELINE.json is
regenerated by scripts/bench_baseline.py when the set changes.

Usage:
    python3 scripts/bench_compare.py [--quick] [--threshold 0.20]
                                     [--baseline BENCH_BASELINE.json]
                                     [--allow-machine-mismatch]

--quick sets PLA_BENCH_QUICK=1, which the vendored criterion stand-in
reads to clamp warm-up/measurement windows (seconds instead of minutes
for the full sweep). Quick numbers are noisier; pair with a generous
threshold.

A baseline captured on a different machine (cpu count, platform, or
CPU SIMD feature-set mismatch) is an ERROR: absolute ns/iter do not
transfer between machines, and a feature-set change marks a different
CPU class — a "regression" or "win" against such a baseline is
meaningless. The run fails loudly before
timing anything. Pass --allow-machine-mismatch to run anyway; the
comparison is then informational only and regressions never fail the
run. Re-capture the baseline on the gating machine class
(scripts/bench_baseline.py) to arm the gate. A quick/full capture-mode
mismatch only warns: window lengths shift absolute numbers, which the
generous --quick default threshold is sized to absorb.

Hot-path cells named hot_path/<N>d/<filter> additionally get a
per-dimension delta table so multi-dimension wins/losses are visible
at a glance even when they stay inside the gate threshold.
"""

import argparse
import json
import os
import re
import subprocess
import sys

LINE = re.compile(
    r"^(?P<name>\S.*?)\s+(?P<ns>[\d.]+) ns/iter(?:\s+(?P<rate>[\d.]+) (?P<unit>elem/s|B/s))?\s*$"
)

DIM_CELL = re.compile(r"^hot_path/(?P<dims>\d+)d/(?P<filter>.+)$")

# Keep in sync with scripts/bench_baseline.py: the vector feature flags
# that fingerprint the CPU class a baseline was captured on.
SIMD_FEATURES = ("sse2", "avx", "avx2", "avx512f", "fma")


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_features():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    return sorted(name for name in SIMD_FEATURES if name in flags)
    except OSError:
        pass
    return []


def run_benches(repo, quick, targets=None):
    """Run `cargo bench`, optionally restricted to specific bench targets.

    Benchmark names are `<target>/<group path>`, so a retry can re-run
    just the targets owning flagged benchmarks via `--bench <name>`.
    """
    env = dict(os.environ)
    if quick:
        env["PLA_BENCH_QUICK"] = "1"
    cmd = ["cargo", "bench"]
    for target in targets or []:
        cmd += ["--bench", target]
    proc = subprocess.run(
        cmd,
        cwd=repo,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
        env=env,
    )
    results = {}
    for line in proc.stderr.splitlines():
        m = LINE.match(line.strip())
        if not m or m.group("name").startswith("group "):
            continue
        results[m.group("name")] = float(m.group("ns"))
    if not results:
        sys.exit("no benchmark lines parsed from cargo bench output")
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="PLA_BENCH_QUICK=1: short windows")
    ap.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative ns/iter regression that fails the run "
        "(default 0.20 = +20%%; 0.50 in --quick mode, whose short windows "
        "run systematically faster than the full-mode baseline on a "
        "frequency-scaled 1-CPU box)",
    )
    ap.add_argument("--baseline", default="BENCH_BASELINE.json")
    ap.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-measure bench targets owning flagged benchmarks up to this "
        "many times, keeping each benchmark's minimum ns/iter, before a "
        "regression fails the run (default 2); 0 disables retries",
    )
    ap.add_argument(
        "--allow-machine-mismatch",
        action="store_true",
        help="compare against a baseline from a different machine anyway "
        "(informational only: regressions never fail the run)",
    )
    args = ap.parse_args()
    if args.threshold is None:
        args.threshold = 0.50 if args.quick else 0.20

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, args.baseline)) as f:
        baseline = json.load(f)
    machine = baseline.get("machine", {})
    here = {"cpus": cpu_count(), "cpu_features": cpu_features(), "platform": sys.platform}
    mismatched = {k: (machine.get(k), v) for k, v in here.items() if machine.get(k) != v}
    machine_matches = not mismatched
    if mismatched:
        detail = "; ".join(
            f"{k}: baseline={recorded!r} here={actual!r}"
            for k, (recorded, actual) in sorted(mismatched.items())
        )
        if not args.allow_machine_mismatch:
            sys.exit(
                f"ERROR: baseline machine metadata does not match this host ({detail}). "
                "Absolute ns/iter do not transfer across machines, CPU models "
                "or CPU feature sets. Re-capture with "
                "scripts/bench_baseline.py on this machine class, or pass "
                "--allow-machine-mismatch for an informational comparison."
            )
        print(
            f"WARNING: machine mismatch ({detail}); --allow-machine-mismatch given — "
            "reporting only, regressions will not fail the run.",
            file=sys.stderr,
        )
    baseline_quick = bool(baseline.get("capture", {}).get("quick"))
    if baseline_quick != args.quick:
        print(
            f"WARNING: baseline captured with quick={baseline_quick} but this run "
            f"uses quick={args.quick}; window lengths shift absolute ns/iter "
            f"(the ±{args.threshold:.0%} threshold is expected to absorb this).",
            file=sys.stderr,
        )

    fresh = run_benches(repo, args.quick)
    base = {name: entry["ns_per_iter"] for name, entry in baseline["benchmarks"].items()}

    def classify(fresh):
        regressions, improvements, only_new = [], [], []
        for name in sorted(fresh):
            if name not in base:
                only_new.append(name)
                continue
            rel = fresh[name] / base[name] - 1.0
            row = (name, base[name], fresh[name], rel)
            if rel > args.threshold:
                regressions.append(row)
            elif rel < -args.threshold:
                improvements.append(row)
        return regressions, improvements, only_new

    regressions, improvements, only_new = classify(fresh)

    # Re-measure before failing: a one-shot spike on a flagged benchmark
    # usually means the box throttled mid-run, not that the code got
    # slower. Re-run just the owning bench targets and keep the minimum
    # observed ns/iter; only a regression that survives every retry
    # fails the run.
    for attempt in range(args.retries if machine_matches else 0):
        if not regressions:
            break
        targets = sorted({name.split("/", 1)[0] for name, *_ in regressions})
        print(
            f"retry {attempt + 1}/{args.retries}: {len(regressions)} flagged "
            f"benchmark(s); re-running target(s) {', '.join(targets)}",
            file=sys.stderr,
        )
        rerun = run_benches(repo, args.quick, targets=targets)
        for name, ns in rerun.items():
            fresh[name] = min(fresh.get(name, ns), ns)
        regressions, improvements, only_new = classify(fresh)

    only_old = sorted(set(base) - set(fresh))

    def show(rows, header):
        if rows:
            print(f"\n{header}")
            for name, old, new, rel in rows:
                print(f"  {name:60} {old:12.1f} -> {new:12.1f} ns/iter ({rel:+.1%})")

    show(improvements, f"improved beyond {args.threshold:.0%} (informational):")
    show(regressions, f"REGRESSED beyond {args.threshold:.0%}:")

    # Per-dimension view of the filter hot path: one row per filter, one
    # column per dimensionality, relative ns/iter delta vs the baseline.
    dim_rows, dim_cols = {}, set()
    for name in set(fresh) & set(base):
        m = DIM_CELL.match(name)
        if m:
            dims = int(m.group("dims"))
            dim_rows.setdefault(m.group("filter"), {})[dims] = fresh[name] / base[name] - 1.0
            dim_cols.add(dims)
    if dim_rows:
        cols = sorted(dim_cols)
        print("\nhot_path per-dimension deltas vs baseline (ns/iter; negative = faster):")
        print("  " + f"{'filter':28}" + "".join(f"{str(d) + 'd':>10}" for d in cols))
        for filt in sorted(dim_rows):
            cells = "".join(
                f"{dim_rows[filt][d]:>+10.1%}" if d in dim_rows[filt] else f"{'n/a':>10}"
                for d in cols
            )
            print(f"  {filt:28}{cells}")
    if only_new:
        print(f"\nnot in baseline ({len(only_new)}): " + ", ".join(only_new[:8]) + (" …" if len(only_new) > 8 else ""))
    if only_old:
        print(f"\nmissing from run ({len(only_old)}): " + ", ".join(only_old[:8]) + (" …" if len(only_old) > 8 else ""))

    compared = len(set(fresh) & set(base))
    print(
        f"\ncompared {compared} benchmarks against {args.baseline}: "
        f"{len(regressions)} regression(s), {len(improvements)} improvement(s) "
        f"beyond ±{args.threshold:.0%}"
    )
    if regressions and not machine_matches:
        print("machine mismatch: regressions reported informationally only (see warning above)")
        sys.exit(0)
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
