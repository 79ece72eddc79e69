//! `perfbench`: one workload of the repository benchmark, in its own
//! process, against an in-process `treechase_service::Service` with one
//! worker.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> [--trace-out <file>]
//! ```
//!
//! Sets the workload up several times (the median is `setup_s`), runs it
//! for `--seconds`, checks every output, and prints one JSON line with
//! every metric it measured. With `--trace-out` it records spans around
//! its calls into each crate and writes them to that file as JSON Lines.
//! `perfbench/run.py` builds this binary and selects the metrics to
//! report.

mod client;
mod stats;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use treechase_service::Json;

use client::Rec;
use stats::{beyond, mean, median_of_means, peak_rss_mb, quantile};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace-out" => args.trace_out = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up's service shuts down before the clock starts.
        drop(setup.take());
        let t = Instant::now();
        setup = Some(workloads::setup(&args.workload, args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");

    let origin = Instant::now();
    let mut rec = Rec::new(Tracer::new(args.trace_out.is_some(), origin, 0), 0);
    workloads::warm_up(&setup, &mut rec);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let window = workloads::run(&args.workload, args.seed, &setup, &mut rec, deadline);
    let cache = setup.ctx.svc.cache_stats();
    let admit_group = setup.admit_group;
    drop(setup);

    let spans = rec.take_spans();
    if let Some(path) = &args.trace_out {
        std::fs::write(path, trace::to_jsonl(&spans)).map_err(|e| format!("{path}: {e}"))?;
    }
    for e in &rec.errors {
        eprintln!("perfbench: check failed: {e}");
    }

    let mut m = Metrics::default();
    let window_s = window.as_secs_f64();
    // A failed operation counts as missing every limit: it reads as the
    // whole window.
    let cap_us = |x: f64| x.min(window_s * 1e6);
    let cap_ms = |x: f64| x.min(window_s * 1e3);
    m.put("setup_s", quantile(&setup_s, 0.5).unwrap_or(0.0), "s");
    m.put(
        "job_p50_ms",
        cap_ms(quantile(&rec.job_ms, 0.5).unwrap_or(0.0)),
        "ms",
    );
    m.put(
        "apps_per_s",
        rec.engine.applications as f64 / window_s,
        "1/s",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put(
        "query_p50_us",
        cap_us(quantile(&rec.query_us, 0.5).unwrap_or(0.0)),
        "us",
    );
    m.put("query_p99_us", cap_us(windowed_p99(&rec.query_us)), "us");
    m.put(
        "admit_p50_ms",
        cap_ms(quantile(&rec.admit_ms, 0.5).unwrap_or(0.0)),
        "ms",
    );
    m.put(
        "admit_mean_ms",
        cap_ms(median_of_means(&rec.admit_ms, admit_group).unwrap_or(0.0)),
        "ms",
    );
    let attempted = rec.attempted.max(1);
    m.put(
        "ok_frac",
        (attempted - rec.failed) as f64 / attempted as f64,
        "ratio",
    );

    let e = &rec.engine;
    let jobs = rec.jobs.max(1) as f64;
    let per_job = |x: u64| x as f64 / jobs;
    m.put("engine.wall_ms", per_job(e.wall_us) / 1e3, "ms");
    m.put("engine.match_ms", per_job(e.match_time_us) / 1e3, "ms");
    m.put("engine.core_ms", per_job(e.core_time_us) / 1e3, "ms");
    let rest_us = e.wall_us as f64 - e.match_time_us as f64 - e.core_time_us as f64;
    m.put("engine.rest_ms", rest_us / jobs / 1e3, "ms");
    m.put(
        "engine.applications",
        per_job(e.applications as u64),
        "count",
    );
    m.put("engine.peak_atoms", e.peak_atoms as f64, "count");
    m.put("engine.peak_mem_units", e.peak_mem_units as f64, "count");
    m.put(
        "homomorphism.match_searches",
        per_job(e.match_searches as u64),
        "count",
    );
    m.put(
        "homomorphism.match_trials",
        per_job(e.match_trials as u64),
        "count",
    );
    m.put(
        "homomorphism.trials_per_search",
        e.match_trials as f64 / e.match_searches.max(1) as f64,
        "ratio",
    );
    m.put(
        "homomorphism.core_nodes",
        per_job(e.match_nodes as u64),
        "count",
    );
    m.put(
        "homomorphism.fold_candidates",
        per_job(e.fold_candidates as u64),
        "count",
    );
    m.put(
        "homomorphism.core_truncations",
        per_job(e.core_truncations as u64),
        "count",
    );
    for (name, unit) in [
        ("service.wire_decode_us", "us"),
        ("service.wire_encode_us", "us"),
        ("service.submit_us", "us"),
        ("service.result_drop_ms", "ms"),
        ("parser.parse_ms", "ms"),
        ("parser.atoms", "count"),
        ("analysis.gate_ms", "ms"),
        ("analysis.report_ms", "ms"),
        ("analysis.probes_ms", "ms"),
        ("query.call_us", "us"),
        ("query.answers", "count"),
        ("query.snapshot_age_ms", "ms"),
    ] {
        m.put(name, rec.layer.get(name).map_or(0.0, |a| a.mean()), unit);
    }
    let gates = rec.layer.get("analysis.gate_ms").map_or(0, |a| a.n);
    m.put("analysis.deadline_hits", rec.deadline_hits as f64, "count");
    m.put(
        "analysis.deadline_hit_frac",
        rec.deadline_hits as f64 / gates.max(1) as f64,
        "ratio",
    );
    let lookups = cache.hits + cache.misses;
    m.put(
        "query.cache_hit_rate",
        cache.hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.put("bench.gen_late_max_ms", rec.gen_late_max_ms, "ms");
    m.put("bench.jobs", rec.job_ms.len() as f64, "count");
    m.put("bench.queries", rec.query_us.len() as f64, "count");
    m.put(
        "bench.query_beyond_p99",
        beyond(&rec.query_us, 0.99) as f64,
        "count",
    );
    m.put("bench.admits", rec.admit_ms.len() as f64, "count");
    m.put("bench.peak_rss_mb", peak_rss_mb(), "MB");

    let selfs = trace::layer_self_ns(&spans);
    let total: u64 = selfs.values().sum();
    for (layer, name) in [
        ("bench", "bench.self_share"),
        ("service", "service.self_share"),
        ("parser", "parser.self_share"),
        ("analysis", "analysis.self_share"),
        ("engine", "engine.self_share"),
        ("query", "query.self_share"),
    ] {
        let share = selfs.get(layer).copied().unwrap_or(0) as f64 / total.max(1) as f64;
        m.put(name, share, "ratio");
    }

    eprintln!(
        "perfbench: {} seed {}: {} jobs, {} queries ({} beyond p99), {} admits, {}/{} failed, window {:.2} s",
        args.workload,
        args.seed,
        rec.job_ms.len(),
        rec.query_us.len(),
        beyond(&rec.query_us, 0.99),
        rec.admit_ms.len(),
        rec.failed,
        rec.attempted,
        window_s
    );
    Ok(Json::obj([
        ("correct", Json::Bool(rec.failed == 0 && rec.attempted > 0)),
        ("attempted", Json::Int(rec.attempted as i64)),
        ("failed", Json::Int(rec.failed as i64)),
        ("metrics", m.into_json()),
    ])
    .to_string())
}

/// Queries per window of [`windowed_p99`]: ten samples lie beyond each
/// window's p99.
const P99_WINDOW: usize = 1_000;

/// The p99 of a run, read per window of [`P99_WINDOW`] consecutive
/// queries (in the order they were due): the mean of the windows' p99s
/// without the highest and the lowest. A run's tail comes from a few
/// hundred stalls, and which of them a single whole-run percentile
/// lands on swings it by a quarter between runs; the trimmed mean over
/// windows is steadier. Runs with fewer than three windows report the
/// whole run's p99. A window of failed queries is never trimmed away.
fn windowed_p99(samples: &[f64]) -> f64 {
    let mut windows: Vec<f64> = samples
        .chunks_exact(P99_WINDOW)
        .filter_map(|w| quantile(w, 0.99))
        .collect();
    if windows.iter().any(|w| w.is_infinite()) {
        return f64::INFINITY;
    }
    if windows.len() < 3 {
        return quantile(samples, 0.99).unwrap_or(0.0);
    }
    windows.sort_by(f64::total_cmp);
    mean(&windows[1..windows.len() - 1]).unwrap_or(0.0)
}

/// Metrics in the order they were measured.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn into_json(self) -> Json {
        Json::obj(self.0.into_iter().map(|(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::Float(value)), ("unit", Json::str(unit))]),
            )
        }))
    }
}
