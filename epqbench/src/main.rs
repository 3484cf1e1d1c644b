//! `epqbench` — the end-to-end and per-layer benchmark of the epq
//! counting pipeline.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path epqbench/Cargo.toml -- \
//!     --workload <fpt-static|ucq-churn|live-feed|batch-fanout|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path epqbench/Cargo.toml -- --self-test
//! ```
//!
//! Each workload sets itself up [`SETUP_REPS`] times from the seed
//! (`setup_s` is the median), then runs operations for `--seconds`,
//! checking every count against an independent reference outside the
//! timed region. With `--trace 1` the first half of the time runs
//! untraced and the second half under spans; the per-layer metrics come
//! from the traced half, and the spans are written to
//! `epqbench/out/trace-<workload>-seed<n>.tsv`.
//!
//! The report is human-readable lines, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is nonzero if any count
//! disagreed with its reference or a run check failed.

mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Sizes, Tally, FULL, NAMES, TINY};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Everything one workload run measured.
struct Report {
    name: &'static str,
    seed: u64,
    provenance: String,
    setup_s: Vec<f64>,
    tally: Tally,
    tracer: Option<Tracer>,
    focus: &'static [&'static str],
    window: usize,
    threads: usize,
    peak_rss_mb: f64,
}

impl Report {
    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.failed_checks == 0
    }
}

fn run_workload(
    name: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &'static Sizes,
) -> Report {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        // Cache isolation: hits belong to this workload, not run order.
        epq_core::classifier_cache_clear();
        let start = Instant::now();
        workload = workloads::setup(name, seed, sizes);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("workload names are checked");
    let mut tally = Tally::default();
    let untraced_s = if trace { seconds / 2.0 } else { seconds };
    let start = Instant::now();
    loop {
        workload.step(&mut tally, None);
        if start.elapsed().as_secs_f64() >= untraced_s {
            break;
        }
    }
    let tracer = trace.then(|| {
        let mut tr = Tracer::new();
        let start = Instant::now();
        loop {
            workload.step(&mut tally, Some(&mut tr));
            if start.elapsed().as_secs_f64() >= seconds - untraced_s {
                break;
            }
        }
        tr
    });
    workload.finish(&mut tally);
    let report = Report {
        name,
        seed,
        provenance: workload.provenance(),
        setup_s,
        tally,
        tracer,
        focus: workload.focus(),
        window: workload.window(),
        threads: epq_pool::available_threads(),
        peak_rss_mb: peak_rss_mb(),
    };
    if let Some(tr) = &report.tracer {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{name}-seed{seed}.tsv"));
        if let Err(e) = tr.write_tsv(&path, &provenance_line(&report)) {
            eprintln!("epqbench: could not write {}: {e}", path.display());
        }
    }
    report
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of sorted values (0 for none).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

type Metric = (&'static str, &'static str, f64);

/// Answer counts per second of busy time: the median over consecutive
/// windows of `window` untraced ops (all ops if no window is complete),
/// so a burst of outside load moves one window, not the figure.
fn counts_per_s(ops: &[(f64, u64)], window: usize) -> f64 {
    let rate = |chunk: &[(f64, u64)]| {
        let (secs, counts) = chunk
            .iter()
            .fold((0.0, 0), |(s, c), &(secs, counts)| (s + secs, c + counts));
        ratio(counts as f64, secs)
    };
    let windows: Vec<f64> = ops.chunks_exact(window.max(1)).map(rate).collect();
    if windows.is_empty() {
        rate(ops)
    } else {
        percentile(&sorted(&windows), 0.5)
    }
}

/// The end-to-end metrics of BENCHMARK.json, from the untraced ops.
fn end_to_end(r: &Report) -> Vec<Metric> {
    let latencies: Vec<f64> = r.tally.ops.iter().map(|&(secs, _)| secs).collect();
    let ops = sorted(&latencies);
    vec![
        ("counts_per_s", "1/s", counts_per_s(&r.tally.ops, r.window)),
        ("op_p50_ms", "ms", percentile(&ops, 0.5) * 1e3),
        ("op_p90_ms", "ms", percentile(&ops, 0.9) * 1e3),
        ("setup_s", "s", percentile(&sorted(&r.setup_s), 0.5)),
        ("peak_rss_mb", "MB", r.peak_rss_mb),
    ]
}

/// The per-layer metrics of BENCHMARK.json, from the traced ops. `_us`
/// figures are span time per traced op (per insert for
/// `live.insert_us`); counts are per traced op. A layer not exercised by
/// the workload reads 0. The end-to-end metric each should move:
///
/// * `op_p50_ms` on `ucq-churn`: `logic.*`, `plus.*`, `prepared.*`,
///   `count.sentence_*`; `op_p90_ms` there: `classify.analysis_us`;
/// * `counts_per_s` and `op_p50_ms` on `fpt-static`: `fpt.*`
///   (`fpt.vs_relalg` is fpt time over `RelalgEngine` time on the same
///   terms);
/// * `op_p50_ms` on `live-feed`: `live.reconcile_us`, `live.term_*`,
///   `live.reuse_ratio`, `live.sentence_rechecks`; its write side:
///   `live.insert_*` and `live.inserts_per_s` (untraced);
/// * `counts_per_s` on `batch-fanout`: `pool.*` (`pool.efficiency` is the
///   sequential per-structure count time over batch time × threads);
/// * `op_p50_ms` everywhere: `count.self_us`, the signed sum.
///
/// `trace.overhead_ratio` is traced over untraced `counts_per_s`;
/// `trace.focus_share` is the share of op time in the spans the workload
/// was chosen to stress.
fn per_layer(r: &Report, tr: &Tracer) -> Vec<Metric> {
    let totals = tr.totals();
    let ops = tr.ops.max(1) as f64;
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let per_op_us = |name: &str| total_ns(name) / 1e3 / ops;
    let per_op = |name: &str| tr.counter(name) / ops;
    // Both rates over all ops, untraced and traced alike.
    let untraced_rate = counts_per_s(&r.tally.ops, r.tally.ops.len());
    let traced_rate = ratio(tr.counts as f64, total_ns("op") / 1e9);
    let focus: f64 = r.focus.iter().map(|name| total_ns(name)).sum();
    let recounts = tr.counter("live.term_recounts");
    let reuses = tr.counter("live.term_reuses");
    vec![
        ("logic.parse_us", "us", per_op_us("logic.parse")),
        ("logic.dnf_us", "us", per_op_us("logic.dnf")),
        ("logic.disjuncts", "count", per_op("logic.disjuncts")),
        ("plus.decompose_us", "us", per_op_us("plus.decompose")),
        ("plus.terms_raw", "count", per_op("plus.terms_raw")),
        ("plus.terms_kept", "count", per_op("plus.terms_kept")),
        (
            "plus.kept_ratio",
            "ratio",
            ratio(tr.counter("plus.terms_kept"), tr.counter("plus.terms_raw")),
        ),
        ("prepared.prepare_us", "us", per_op_us("prepared.prepare")),
        (
            "prepared.cache_hit_ratio",
            "ratio",
            ratio(tr.counter("prepared.hits"), tr.counter("prepared.prepares")),
        ),
        ("classify.analysis_us", "us", per_op_us("classify.analysis")),
        ("count.sentence_us", "us", per_op_us("count.sentence")),
        (
            "count.sentence_checks",
            "count",
            per_op("count.sentence_checks"),
        ),
        (
            "count.self_us",
            "us",
            totals.get("count").map_or(0.0, |t| t.self_ns as f64) / 1e3 / ops,
        ),
        ("fpt.term_us", "us", per_op_us("fpt.term")),
        (
            "fpt.terms",
            "count",
            totals.get("fpt.term").map_or(0.0, |t| t.spans as f64) / ops,
        ),
        ("fpt.max_boundary", "count", tr.counter("fpt.max_boundary")),
        (
            "fpt.vs_relalg",
            "ratio",
            ratio(total_ns("fpt.term"), total_ns("relalg.term")),
        ),
        ("live.reconcile_us", "us", per_op_us("live.reconcile")),
        ("live.term_recounts", "count", recounts / ops),
        ("live.term_reuses", "count", reuses / ops),
        (
            "live.reuse_ratio",
            "ratio",
            ratio(reuses, recounts + reuses),
        ),
        (
            "live.sentence_rechecks",
            "count",
            per_op("live.sentence_rechecks"),
        ),
        (
            "live.insert_us",
            "us",
            ratio(total_ns("live.insert") / 1e3, tr.counter("live.inserts")),
        ),
        (
            "live.insert_new_ratio",
            "ratio",
            ratio(tr.counter("live.inserts_new"), tr.counter("live.inserts")),
        ),
        (
            "live.inserts_per_s",
            "1/s",
            ratio(r.tally.inserts as f64, r.tally.insert_s),
        ),
        ("pool.batch_us", "us", per_op_us("pool.batch")),
        (
            "pool.efficiency",
            "ratio",
            ratio(total_ns("count"), total_ns("pool.batch") * r.threads as f64),
        ),
        (
            "trace.overhead_ratio",
            "ratio",
            ratio(traced_rate, untraced_rate),
        ),
        ("trace.focus_share", "ratio", ratio(focus, total_ns("op"))),
    ]
}

fn provenance_line(r: &Report) -> String {
    format!(
        "workload={} seed={} profile={} nproc={} {}",
        r.name,
        r.seed,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        r.threads,
        r.provenance
    )
}

fn print_report(r: &Report) {
    let t = &r.tally;
    println!("== epqbench {} ==", r.name);
    println!("provenance: {}", provenance_line(r));
    let samples = t.ops.len();
    let counts: u64 = t.ops.iter().map(|&(_, c)| c).sum();
    let notes = [
        format!(
            "ops={samples}, counts={counts}, median of {} windows of {} ops",
            samples / r.window.max(1),
            r.window
        ),
        format!("samples={samples}"),
        format!(
            "samples={samples}, above={}",
            samples - (samples * 9).div_ceil(10)
        ),
        format!("median of set-ups {:.6?}", r.setup_s),
        "VmHWM of the process".to_string(),
    ];
    for ((name, unit, value), note) in end_to_end(r).into_iter().zip(notes) {
        println!("  {name:<14} = {value:>14.6} {unit:<4} ({note})");
    }
    println!(
        "  {:<14} = {:>14.6} {:<4} (failed={}, attempted={})",
        "failed_ratio",
        ratio(t.failed as f64, t.attempted as f64),
        "",
        t.failed,
        t.attempted
    );
    if t.inserts > 0 {
        println!(
            "  {:<14} = {:>14.1} {:<4} (inserts={}, segment time={:.6} s)",
            "inserts_per_s",
            ratio(t.inserts as f64, t.insert_s),
            "1/s",
            t.inserts,
            t.insert_s
        );
    }
    for problem in &t.problems {
        println!("  FAILED: {problem}");
    }
    let Some(tr) = &r.tracer else { return };
    println!("  per-layer (traced ops={}):", tr.ops);
    for (name, unit, value) in per_layer(r, tr) {
        println!("    {name:<26} = {value:>14.4} {unit}");
    }
    println!("  time per layer (us per traced op; self time over op time):");
    let totals = tr.totals();
    let op_ns = totals.get("op").map_or(0, |t| t.total_ns).max(1) as f64;
    let ops = tr.ops.max(1) as f64;
    for (name, span) in &totals {
        println!(
            "    {name:<20} total {:>12.2}  self {:>12.2}  spans {:>8}  self/op {:>6.3}",
            span.total_ns as f64 / 1e3 / ops,
            span.self_ns as f64 / 1e3 / ops,
            span.spans,
            span.self_ns as f64 / op_ns
        );
    }
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Runs every workload at [`TINY`] sizes, untraced and traced, and
/// checks that each completes without a failed op and reports every
/// metric with a finite value.
fn self_test() -> ExitCode {
    let mut ok = true;
    for name in NAMES {
        for trace in [false, true] {
            let r = run_workload(name, 7, 0.3, trace, &TINY);
            print_report(&r);
            let mut metrics = end_to_end(&r);
            if let Some(tr) = &r.tracer {
                metrics.extend(per_layer(&r, tr));
            }
            let bad: Vec<&str> = metrics
                .iter()
                .filter(|(_, _, v)| !v.is_finite())
                .map(|(n, _, _)| *n)
                .collect();
            let passed = r.correct() && r.tally.attempted > 0 && bad.is_empty();
            println!(
                "self-test {name} trace={}: {} (attempted={}, failed={}, non-finite={bad:?})",
                u8::from(trace),
                if passed { "ok" } else { "FAILED" },
                r.tally.attempted,
                r.tally.failed
            );
            ok &= passed;
        }
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("epqbench: {e}");
            eprintln!(
                "usage: epqbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
                 | --self-test",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("epqbench: refusing to measure a debug build; run it with --release");
        return ExitCode::from(2);
    }
    if args.self_test {
        return self_test();
    }
    let names: Vec<&'static str> = NAMES
        .into_iter()
        .filter(|n| args.workload == "all" || args.workload == *n)
        .collect();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    for name in &names {
        let r = run_workload(name, args.seed, args.seconds, args.trace, &FULL);
        print_report(&r);
        correct &= r.correct();
        attempted += r.tally.attempted;
        failed += r.tally.failed;
        let list = match &r.tracer {
            Some(tr) => per_layer(&r, tr),
            None => end_to_end(&r),
        };
        for (metric, unit, value) in list {
            let key = if names.len() == 1 {
                metric.to_string()
            } else {
                format!("{name}.{metric}")
            };
            metrics.push((key, unit, value));
        }
    }
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
