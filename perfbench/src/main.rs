//! The pipeline ledger benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload edge_compress --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Drives the whole deployed path in one process (see `pipeline.rs`),
//! checks every output against a reference computed before timing
//! starts, and prints one JSON object as its last line: end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`.
//! See `README.md` beside this file for the metric glossary.

mod drive;
mod ledger;
mod pipeline;
mod procfs;
mod queries;
mod stats;
mod workload;

use std::time::{Duration, Instant};

use pla_core::kern::Kernel;
use pla_net::runtime;

use drive::{closed_round, open_round, Ctx, Tally};
use ledger::{Layer, Ledger};
use pipeline::{Mem, Tcp};
use stats::{iq_mean, median, RoundTiming, Summary};
use workload::{reference, signals, LinkKind, Spec, Workload};

const USAGE: &str = "usage: perfbench --workload <edge_compress|wire_fanin|query_mixed> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// Largest share of the traced main-thread wall clock that no layer span may
/// cover before the ledger counts as unreconciled.
const UNATTRIBUTED_BOUND: f64 = 0.35;

/// Fewest rounds a closed-loop run makes, whatever its time budget.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One `"name": {"value": v, "unit": u}` entry.
fn metric(out: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    out.push(format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", finite(value)));
}

/// JSON has no NaN or infinity; an empty sample set reads as 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn end_to_end(t: &Tally, rss: f64) -> Vec<String> {
    let mut m = Vec::new();
    metric(&mut m, "setup_s", iq_mean(&t.setup_s).unwrap_or(f64::NAN), "s");
    metric(&mut m, "ingest_samples_per_s", iq_mean(&t.ingest_rates).unwrap_or(f64::NAN), "1/s");
    metric(&mut m, "wire_bytes_per_sample", t.wire_bytes as f64 / t.samples as f64, "bytes");
    metric(&mut m, "peak_rss_mb", rss, "MiB");
    m
}

/// The read-side and freshness metrics. Every run measures them
/// and prints them in `detail`; `--trace 1` reports them with the layers.
/// They carry no bound (see README.md: their spread on a shared VM).
fn unbounded(t: &Tally) -> Vec<String> {
    let mut m = Vec::new();
    metric(&mut m, "freshness_p50_ms", t.freshness_ms.p50(), "ms");
    metric(&mut m, "freshness_p99_ms", t.freshness_ms.p99(), "ms");
    metric(&mut m, "query_p50_us", t.query_us.p50(), "us");
    metric(&mut m, "query_p99_us", t.query_us.p99(), "us");
    metric(&mut m, "queries_per_s", iq_mean(&t.qps).unwrap_or(f64::NAN), "1/s");
    m
}

fn per_layer(t: &Tally, led: &Ledger) -> Vec<String> {
    let c = &t.traced;
    let wall = led.wall_s();
    let mut m = Vec::new();
    metric(&mut m, "core.filter.cpu_s", t.filter_cpu_s, "s");
    metric(&mut m, "core.filter.busy_share", t.filter_cpu_s / wall, "ratio");
    metric(&mut m, "core.samples_per_segment", c.samples as f64 / c.segments as f64, "count");
    metric(&mut m, "ingest.push.busy_s", led.busy_s(Layer::Push), "s");
    metric(&mut m, "ingest.push.calls", led.calls(Layer::Push) as f64, "count");
    metric(&mut m, "net.uplink.busy_s", led.busy_s(Layer::Uplink), "s");
    metric(&mut m, "net.uplink.segments", c.forwarded as f64, "count");
    metric(&mut m, "net.uplink.blocked_rounds", c.blocked_rounds as f64, "count");
    metric(&mut m, "net.session.busy_s", led.busy_s(Layer::Session), "s");
    metric(&mut m, "net.session.dials", c.dials as f64, "count");
    metric(&mut m, "net.collector.busy_s", led.busy_s(Layer::Collector), "s");
    metric(&mut m, "net.collector.frames", c.frames as f64, "count");
    metric(&mut m, "net.collector.acks", c.acks as f64, "count");
    metric(&mut m, "net.collector.credits", c.credits as f64, "count");
    metric(&mut m, "net.collector.backpressure_rounds", c.backpressure as f64, "count");
    metric(&mut m, "net.collector.dup_drops", c.dup_drops as f64, "count");
    m.extend(unbounded(t));
    metric(&mut m, "query.server.busy_s", led.busy_s(Layer::Server), "s");
    metric(&mut m, "query.server.requests", c.requests as f64, "count");
    metric(&mut m, "query.server.rebuilds_per_request", ratio(c.rebuilds, c.requests), "ratio");
    metric(&mut m, "query.server.bytes_per_query", ratio(c.server_bytes, c.requests), "bytes");
    metric(&mut m, "query.client.busy_s", led.busy_s(Layer::Client), "s");
    metric(&mut m, "query.client.retransmits", c.retransmits as f64, "count");
    metric(&mut m, "query.client.timeouts", c.timeouts as f64, "count");
    metric(&mut m, "query.client.cache_hit_ratio", ratio(c.cache_hits, c.cached_asks), "ratio");
    metric(&mut m, "query.engine.local_us", median(&t.local_us).unwrap_or(f64::NAN), "us");
    metric(&mut m, "ops.scrape_s", led.busy_s(Layer::Scrape), "s");
    metric(&mut m, "ops.scrape_bytes", median(&t.scrape_bytes).unwrap_or(f64::NAN), "bytes");
    metric(&mut m, "bench.wall_s", wall, "s");
    metric(&mut m, "bench.unattributed_s", led.unattributed_s(), "s");
    metric(&mut m, "bench.unattributed_share", led.unattributed_s() / wall, "ratio");
    metric(&mut m, "bench.poll_s", led.busy_s(Layer::Poll), "s");
    metric(&mut m, "bench.idle_s", led.busy_s(Layer::Idle), "s");
    metric(&mut m, "bench.generator_lag_ms", t.gen_lag_ms.p99(), "ms");
    let overhead = match (iq_mean(&t.untraced_rates), iq_mean(&t.traced_rates)) {
        (Some(plain), Some(traced)) => plain / traced - 1.0,
        _ => f64::NAN,
    };
    metric(&mut m, "bench.tracing_overhead", overhead, "ratio");
    m
}

fn summary_json(name: &str, samples: &[f64]) -> String {
    let body = Summary::of(samples).map_or("null".to_string(), |s| s.json());
    format!("\"{name}\":{body}")
}

fn windowed_json(name: &str, timing: &RoundTiming) -> String {
    format!("\"{name}\":{}", timing.json())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Run metadata. The kernel probe is once per process and cached, so
    // it is timed here on its own rather than inside every set-up.
    let probe = Instant::now();
    let kernel = Kernel::detect();
    let kernel_detect_ms = probe.elapsed().as_secs_f64() * 1e3;
    let reactor = runtime::block_on(async { runtime::active_reactor() });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());

    // Inputs and reference outputs, outside every timed region.
    let spec = Spec::new(args.workload, args.seconds);
    let inputs = signals(&spec, args.seed);
    let reference_start = Instant::now();
    let refs = reference(&spec, inputs);
    let reference_s = reference_start.elapsed().as_secs_f64();
    let cx = Ctx::new(&spec, &refs, args.seed);

    let mut led = Ledger::default();
    let mut tally = Tally::default();
    let run0 = Instant::now();
    if args.workload == Workload::QueryMixed {
        for r in 0..spec.rounds {
            let traced = args.trace && r % 2 == 0;
            match (spec.link, spec.query_link) {
                (LinkKind::Memory, LinkKind::Tcp) => {
                    open_round::<Mem, Tcp>(&cx, &mut led, &mut tally, traced)
                }
                links => unreachable!("no open-loop workload uses {links:?}"),
            }
        }
    } else {
        let budget = Duration::from_secs_f64(args.seconds);
        while tally.rounds < MIN_ROUNDS || tally.measured < budget {
            let traced = args.trace && tally.rounds % 2 == 0;
            match (spec.link, spec.query_link) {
                (LinkKind::Memory, LinkKind::Memory) => {
                    closed_round::<Mem, Mem>(&cx, &mut led, &mut tally, traced)
                }
                (LinkKind::Tcp, LinkKind::Memory) => {
                    closed_round::<Tcp, Mem>(&cx, &mut led, &mut tally, traced)
                }
                links => unreachable!("no closed-loop workload uses {links:?}"),
            }
        }
    }
    let run_s = run0.elapsed().as_secs_f64();
    let rss = procfs::peak_rss_mb().unwrap_or(f64::NAN);

    if args.trace {
        let share = led.unattributed_s() / led.wall_s();
        if share.is_nan() || share > UNATTRIBUTED_BOUND {
            tally.problems.push(format!(
                "ledger does not reconcile: {:.1}% of the main-thread wall clock is unattributed \
                 (bound {:.0}%)",
                share * 100.0,
                UNATTRIBUTED_BOUND * 100.0
            ));
        }
    }

    let kernel_override = match std::env::var("PLA_KERNEL") {
        Ok(v) => format!("\"{}\"", pla_ops::admin::json_escape(&v)),
        Err(_) => "null".to_string(),
    };
    println!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"kernel\":\"{kernel:?}\",\"kernel_override\":{kernel_override},\
         \"kernel_detect_ms\":{kernel_detect_ms},\"reactor\":\"{reactor:?}\",\"rustc\":\"{}\",\
         \"inputs\":{},\"reference\":{{\"samples\":{},\"filter_segments\":{},\
         \"store_segments\":{}}},\"rounds\":{},\"reference_s\":{reference_s},\"run_s\":{run_s}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        env!("PERFBENCH_RUSTC"),
        spec.json(),
        spec.samples * spec.streams,
        refs.iter().map(|r| r.emitted.len()).sum::<usize>(),
        refs.iter().map(|r| r.segments.len()).sum::<usize>(),
        tally.rounds,
    );
    let problems: Vec<String> =
        tally.problems.iter().map(|p| format!("\"{}\"", pla_ops::admin::json_escape(p))).collect();
    let timings = [
        summary_json("setup_s", &tally.setup_s),
        summary_json("local_query_us", &tally.local_us),
        windowed_json("freshness_ms", &tally.freshness_ms),
        windowed_json("query_us", &tally.query_us),
        windowed_json("generator_lag_ms", &tally.gen_lag_ms),
    ];
    println!(
        "{{\"detail\":{{\"failed_ratio\":{},\"unbounded\":{{{}}},\"round_ingest_rates\":{:?},\
         \"window_qps\":{:?},{},\"tail_rule\":\"median and the highest percentile with at least \
         10 samples beyond it\",\"problems\":[{}]}}}}",
        ratio(tally.failed, tally.attempted),
        unbounded(&tally).join(","),
        tally.ingest_rates,
        tally.qps,
        timings.join(","),
        problems.join(",")
    );

    let metrics = if args.trace { per_layer(&tally, &led) } else { end_to_end(&tally, rss) };
    let correct = tally.problems.is_empty() && tally.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(",")
    );
}
