//! Closed-loop benchmark of the `hrms serve` request path.
//!
//! One client drives an in-process `hrms_serve::Service` through
//! `Service::handle_line`, sending each request line only after the
//! previous response has been fully emitted. The scheduling pool has
//! [`WORKERS`] workers. Inputs are generated from `--seed`; the service
//! sees only the generated request lines.
//!
//! ```text
//! servebench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it answers every round twice — through the service and
//! through the traced re-composition in [`trace`] — and reports per-layer
//! metrics. Every run checks its outputs with the [`gate`]. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the exit code is non-zero when any check
//! failed. See `servebench/README.md`.

mod gate;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hrms_engine::BatchEngine;
use hrms_serve::{ServeConfig, Service};

use crate::gate::{GateReport, Quality};
use crate::trace::{Counts, LayerTotals, Pipeline, Tracer};
use crate::workload::{Round, Workload};

/// Engine workers of the service under test (and of the traced pipeline).
const WORKERS: usize = 2;
/// Rounds a run makes at least. `setup_s` is a median of at least this
/// many set-ups, and these rounds form the quality window: the quality
/// metrics are computed over their cells, so they do not depend on how
/// many rounds a run's speed allowed.
const MIN_ROUNDS: u64 = 10;
/// Wall-clock cap on the measuring loop, so a run always exits in time
/// even on a much slower build.
const DEADLINE: Duration = Duration::from_secs(120);
/// The seed used when `--seed` is omitted. Tune on this one.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str =
    "usage: servebench --workload <paper_loops|unrolled_2k|recompile_hits|pressure_feedback> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
        let mut out = PathBuf::from("servebench/out");
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = |what: &str| format!("`{flag} {value}`: {what}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = value.parse().map_err(|_| bad("not an unsigned integer"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad("not a number"))?;
                    if !(seconds > 0.0 && seconds <= 60.0) {
                        return Err(bad("must be in (0, 60]"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    }
                }
                "--out" => out = PathBuf::from(value),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed,
            seconds,
            trace,
            out,
        })
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a run measured and found.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this mode.
    metrics: Vec<Metric>,
    /// Further figures printed for the reader, not part of the result.
    extra: Vec<Metric>,
    /// Run facts recorded with the result (`key`, JSON value).
    meta: Vec<(&'static str, String)>,
    /// The first traced round's spans, as JSON lines.
    spans: Option<String>,
}

impl Report {
    fn fail(&mut self, cells: u64, problem: String) {
        self.failed += cells;
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }

    fn absorb_gate(&mut self, gate: GateReport) {
        if gate.failed > 0 {
            self.failed += gate.failed as u64;
            self.problems.extend(gate.messages);
        }
    }
}

fn new_service() -> Service {
    Service::new(&ServeConfig {
        workers: Some(WORKERS),
        ..ServeConfig::default()
    })
}

/// Set-up of round `k`: input generation, request serialisation,
/// `Service::new` and the pre-warm.
fn set_up(workload: Workload, seed: u64, k: u64) -> (Round, Service) {
    let round = workload::generate(workload, seed, k);
    let mut service = new_service();
    for line in &round.prewarm {
        service.handle_line(line, &mut |_| {});
    }
    (round, service)
}

/// Sends every timed request of `round`, each after the previous
/// response was fully emitted. Returns the responses and per-request
/// latencies.
fn serve_round(service: &mut Service, round: &Round) -> (Vec<Vec<String>>, Vec<Duration>) {
    let mut responses = Vec::with_capacity(round.requests.len());
    let mut latencies = Vec::with_capacity(round.requests.len());
    for spec in &round.requests {
        let mut lines = Vec::new();
        let start = Instant::now();
        service.handle_line(&spec.line, &mut |record| lines.push(record.to_string()));
        latencies.push(start.elapsed());
        responses.push(lines);
    }
    (responses, latencies)
}

/// A traced pipeline pre-warmed like the service, and its answers to the
/// timed requests of `round`, recorded into `tracer` and `counts`.
fn trace_round(
    round: &Round,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> (Vec<Vec<String>>, Vec<Duration>) {
    let mut pipeline = Pipeline::new(WORKERS);
    let (mut warm_tracer, mut warm_counts) = (Tracer::new(), Counts::default());
    for (i, line) in round.prewarm.iter().enumerate() {
        pipeline.handle(line, i, &mut warm_tracer, &mut warm_counts, &mut |_| {});
    }
    let mut responses = Vec::with_capacity(round.requests.len());
    let mut latencies = Vec::with_capacity(round.requests.len());
    for (r, spec) in round.requests.iter().enumerate() {
        let mut lines = Vec::new();
        let start = Instant::now();
        pipeline.handle(&spec.line, r, tracer, counts, &mut |rec| {
            lines.push(rec.to_string())
        });
        latencies.push(start.elapsed());
        responses.push(lines);
    }
    (responses, latencies)
}

/// Lines that differ between two answers to the same round.
fn mismatched_lines(want: &[Vec<String>], got: &[Vec<String>]) -> u64 {
    want.iter()
        .zip(got)
        .map(|(want, got)| {
            (0..want.len().max(got.len()))
                .filter(|&i| want.get(i) != got.get(i))
                .count() as u64
        })
        .sum()
}

fn secs(durations: &[Duration]) -> f64 {
    durations.iter().map(Duration::as_secs_f64).sum()
}

/// Runs rounds until `--seconds` of requests were measured (and at least
/// [`MIN_ROUNDS`]), gating every round's responses.
fn run(args: &Args) -> Report {
    let gate_engine = BatchEngine::with_workers(WORKERS);
    let started = Instant::now();
    let mut report = Report::default();
    let (mut setups, mut throughputs) = (Vec::new(), Vec::new());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut quality = Quality::default();
    let mut totals = LayerTotals::default();
    let (mut first, mut all) = (Counts::default(), Counts::default());
    let mut k = 0u64;
    while k < MIN_ROUNDS || secs(&untraced) + secs(&traced) < args.seconds {
        if started.elapsed() > DEADLINE {
            // Past the minimum the run is merely short; before it, the
            // quality window is incomplete and the figures are not
            // comparable.
            let note = format!("deadline reached after {k} rounds");
            if k < MIN_ROUNDS {
                report.fail(1, note);
            } else {
                report.problems.push(note);
            }
            break;
        }
        let t = Instant::now();
        let (round, mut service) = set_up(args.workload, args.seed, k);
        setups.push(t.elapsed().as_secs_f64());
        let responses = if args.trace {
            // Both passes answer the same round; alternating which goes
            // first cancels drift out of the overhead figure.
            let warm = service.cache_stats();
            let (mut tracer, mut counts) = (Tracer::new(), Counts::default());
            let ((a, a_lat), (b, b_lat)) = if k.is_multiple_of(2) {
                let a = serve_round(&mut service, &round);
                (a, trace_round(&round, &mut tracer, &mut counts))
            } else {
                let b = trace_round(&round, &mut tracer, &mut counts);
                (serve_round(&mut service, &round), b)
            };
            untraced.extend(a_lat);
            traced.extend(b_lat);
            let bad = mismatched_lines(&a, &b);
            if bad > 0 {
                report.fail(
                    bad,
                    format!("round {k}: {bad} traced lines differ from the service"),
                );
            }
            let now = service.cache_stats();
            let service_cache = (now.hits - warm.hits, now.misses - warm.misses);
            if service_cache != (counts.cache_hits, counts.cache_misses) {
                report.fail(
                    1,
                    format!(
                    "round {k}: service cache (hits, misses) {service_cache:?} != traced ({}, {})",
                    counts.cache_hits, counts.cache_misses
                ),
                );
            }
            totals.add(&tracer.spans);
            all.add(&counts);
            if k == 0 {
                first = counts;
                report.spans = Some(tracer.to_jsonl());
            }
            a
        } else {
            let (responses, lat) = serve_round(&mut service, &round);
            throughputs.push(round.cells() as f64 / secs(&lat));
            untraced.extend(lat);
            responses
        };
        report.attempted += round.cells() as u64;
        let gate = gate::check_round(&round, &responses, &gate_engine);
        if k < MIN_ROUNDS {
            quality.merge(&gate.quality);
        }
        report.absorb_gate(gate);
        k += 1;
    }
    report.meta.push(("rounds", k.to_string()));
    report.meta.push(("cells", report.attempted.to_string()));
    report.meta.push(("quality_rounds", MIN_ROUNDS.to_string()));
    report
        .meta
        .push(("quality_cells", quality.cells.to_string()));

    if args.trace {
        // Determinism self-check: a replay of round 0 must reproduce its
        // exact counts.
        let mut replay = Counts::default();
        trace_round(
            &workload::generate(args.workload, args.seed, 0),
            &mut Tracer::new(),
            &mut replay,
        );
        if replay != first {
            report.fail(
                1,
                format!("counts of round 0 are not reproducible: {first:?} then {replay:?}"),
            );
        }
        report.metrics =
            layer_metrics(&totals, &first, &all, secs(&traced) / secs(&untraced) - 1.0);
        report
            .meta
            .push(("traced_requests", totals.requests.to_string()));
        report
            .meta
            .push(("traced_cells_scheduled", totals.cells.to_string()));
        report
            .meta
            .push(("round0_counts", json_string(&format!("{first:?}"))));
        return report;
    }

    let measured = secs(&untraced);
    let ms: Vec<f64> = untraced.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let tail = stats::windowed_tail(&ms);
    report.metrics = vec![
        Metric::new("setup_s", stats::median(&setups), "s"),
        Metric::new("cells_per_s", stats::median(&throughputs), "1/s"),
        Metric::new("req_p50_ms", stats::median(&ms), "ms"),
        Metric::new("req_tail_ms", tail.map_or(f64::NAN, |t| t.value), "ms"),
        Metric::new(
            "peak_rss_mb",
            stats::peak_rss_mb().unwrap_or(f64::NAN),
            "MiB",
        ),
        Metric::new("ii_ratio", quality.ii_ratio(), "ratio"),
        Metric::new("at_mii_frac", quality.at_mii_frac(), "fraction"),
        Metric::new("maxlive_sum", quality.maxlive_sum as f64, "registers"),
    ];
    report.extra = vec![
        Metric::new(
            "failed_frac",
            report.failed as f64 / report.attempted.max(1) as f64,
            "fraction",
        ),
        Metric::new("spills_sum", quality.spills_sum as f64, "spills"),
    ];
    if let Some(t) = tail {
        report
            .meta
            .push(("tail_percentile", format!("{:.3}", t.percentile)));
        report
            .meta
            .push(("tail_beyond", stats::TAIL_BEYOND.to_string()));
        report.meta.push(("tail_windows", t.windows.to_string()));
    }
    report.meta.push(("requests", ms.len().to_string()));
    report.meta.push(("measured_s", format!("{measured:.3}")));
    report
}

/// The per-layer metrics of a traced run. Times are means per traced
/// request; counts are exact, over round 0.
fn layer_metrics(totals: &LayerTotals, first: &Counts, all: &Counts, overhead: f64) -> Vec<Metric> {
    let requests = totals.requests.max(1) as f64;
    let ns = |layer: &str| totals.self_of(layer) as f64;
    let per_request_ms = |layer: &str| ns(layer) / requests / 1e6;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (hits, misses) = (first.cache_hits as f64, first.cache_misses as f64);
    let engine_wall = totals.wall_of("engine") as f64;
    vec![
        Metric::new("json.self_ms", per_request_ms("json"), "ms"),
        Metric::new(
            "json.mb_per_s",
            ratio(all.json_bytes as f64 * 1e3, ns("json")),
            "MB/s",
        ),
        Metric::new("textfmt.self_ms", per_request_ms("textfmt"), "ms"),
        Metric::new(
            "textfmt.ns_per_op",
            ratio(ns("textfmt"), all.ops_parsed as f64),
            "ns",
        ),
        Metric::new("fingerprint.self_ms", per_request_ms("fingerprint"), "ms"),
        Metric::new("cache.self_ms", per_request_ms("cache"), "ms"),
        Metric::new("cache.hits", hits, "count"),
        Metric::new("cache.misses", misses, "count"),
        Metric::new("cache.hit_ratio", ratio(hits, hits + misses), "fraction"),
        Metric::new("engine.wall_ms", engine_wall / requests / 1e6, "ms"),
        Metric::new(
            "engine.queue_wait_ms",
            ratio(totals.queue_wait_ns as f64 / 1e6, totals.cells as f64),
            "ms",
        ),
        Metric::new(
            "engine.busy_frac",
            ratio(totals.wall_of("cell") as f64, WORKERS as f64 * engine_wall),
            "fraction",
        ),
        Metric::new("analysis.self_ms", per_request_ms("analysis"), "ms"),
        Metric::new("preorder.self_ms", per_request_ms("preorder"), "ms"),
        Metric::new("placement.self_ms", per_request_ms("placement"), "ms"),
        Metric::new("placement.ii_attempts", first.ii_attempts as f64, "count"),
        Metric::new("feedback.self_ms", per_request_ms("feedback"), "ms"),
        Metric::new("feedback.attempts", first.feedback_attempts as f64, "count"),
        Metric::new(
            "feedback.useful_frac",
            ratio(
                first.feedback_useful as f64,
                first.feedback_perturbed as f64,
            ),
            "fraction",
        ),
        Metric::new("feedback.spills_sum", first.feedback_spills as f64, "count"),
        Metric::new("report.self_ms", per_request_ms("report"), "ms"),
        Metric::new("report.bytes", first.report_bytes as f64, "bytes"),
        Metric::new("service.self_ms", per_request_ms("service"), "ms"),
        Metric::new("trace.overhead_frac", overhead, "fraction"),
        Metric::new(
            "trace.unaccounted_frac",
            ratio(ns("request"), totals.wall_of("request") as f64),
            "fraction",
        ),
    ]
}

/// The checkout's git revision; "unknown" outside a git work tree (only
/// the current directory is asked, so an enclosing repository is never
/// reported by mistake).
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn json_string(value: &str) -> String {
    let mut out = String::new();
    hrms_modsched::push_json_str(&mut out, value);
    out
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let steal_before = stats::cpu_steal_ticks();
    let mut report = run(&args);
    let steal = stats::cpu_steal_ticks()
        .zip(steal_before)
        .map_or("null".to_string(), |(after, before)| {
            after.saturating_sub(before).to_string()
        });

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let command: Vec<String> = std::env::args().collect();
    let mut meta = vec![
        ("workload", json_string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("seconds", json_number(args.seconds)),
        ("command", json_string(&command.join(" "))),
        ("git_rev", json_string(&git_rev())),
        ("nproc", nproc.to_string()),
        ("workers", WORKERS.to_string()),
        ("cpu_steal_ticks", steal),
    ];
    meta.append(&mut report.meta);
    let meta_json = format!(
        "{{{}}}",
        meta.iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let non_finite = report
        .metrics
        .iter()
        .find(|m| !m.value.is_finite())
        .map(|m| m.name);
    if let Some(name) = non_finite {
        report
            .problems
            .push(format!("metric `{name}` could not be measured"));
    }
    let correct = report.failed == 0 && non_finite.is_none();
    for problem in &report.problems {
        eprintln!("servebench: {problem}");
    }

    println!(
        "servebench {} seed={} trace={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in report.metrics.iter().chain(&report.extra) {
        println!("  {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{{\"meta\": {meta_json}}}");
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    );

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| {
            std::fs::write(
                args.out.join(format!("{stem}.json")),
                format!("{{\"meta\": {meta_json}, \"result\": {result}}}\n"),
            )
        })
        .and_then(|()| match &report.spans {
            Some(spans) => std::fs::write(args.out.join(format!("{stem}-spans.jsonl")), spans),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "servebench: could not write results under {}: {e}",
            args.out.display()
        );
    }

    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round 0 of `workload`, cut to its first `requests` requests.
    fn small_round(workload: Workload, requests: usize) -> (Round, Service) {
        let (mut round, service) = set_up(workload, DEFAULT_SEED, 0);
        round.requests.truncate(requests);
        (round, service)
    }

    #[test]
    fn the_traced_pipeline_answers_like_the_service() {
        for workload in Workload::ALL {
            let (round, mut service) = small_round(workload, 2);
            let (want, _) = serve_round(&mut service, &round);
            let (got, _) = trace_round(&round, &mut Tracer::new(), &mut Counts::default());
            assert_eq!(mismatched_lines(&want, &got), 0, "{}", workload.name());
        }
    }

    #[test]
    fn recompile_hits_reaches_its_hit_share() {
        let (round, mut service) = small_round(Workload::RecompileHits, 3);
        let warm = service.cache_stats();
        serve_round(&mut service, &round);
        let now = service.cache_stats();
        let (hits, misses) = (now.hits - warm.hits, now.misses - warm.misses);
        let fresh = (3 * workload::RECOMPILE_FRESH_PER_REQUEST) as u64;
        assert_eq!((hits, misses), (round.cells() as u64 - fresh, fresh));
        assert_eq!(hits as f64 / (hits + misses) as f64, 0.9);

        let mut counts = Counts::default();
        trace_round(&round, &mut Tracer::new(), &mut counts);
        assert_eq!((counts.cache_hits, counts.cache_misses), (hits, misses));
    }

    #[test]
    fn traced_counts_repeat_exactly() {
        for workload in [Workload::PaperLoops, Workload::PressureFeedback] {
            let (round, _) = small_round(workload, 2);
            let (mut a, mut b) = (Counts::default(), Counts::default());
            trace_round(&round, &mut Tracer::new(), &mut a);
            trace_round(&round, &mut Tracer::new(), &mut b);
            assert_eq!(a, b, "{}", workload.name());
            assert!(a.ii_attempts > 0 && a.report_bytes > 0);
            if workload == Workload::PressureFeedback {
                assert!(a.feedback_attempts >= round.cells() as u64);
            }
        }
    }

    #[test]
    fn request_layers_tile_the_traced_request_wall() {
        let (round, _) = small_round(Workload::PaperLoops, 4);
        let mut tracer = Tracer::new();
        trace_round(&round, &mut tracer, &mut Counts::default());
        let mut totals = LayerTotals::default();
        totals.add(&tracer.spans);
        let wall = totals.wall_of("request") as f64;
        let layers: u64 = [
            "json",
            "service",
            "textfmt",
            "fingerprint",
            "cache",
            "engine",
            "report",
        ]
        .iter()
        .map(|l| {
            if *l == "engine" {
                totals.wall_of(l)
            } else {
                totals.self_of(l)
            }
        })
        .sum();
        assert!(
            (wall - layers as f64).abs() / wall < 0.05,
            "layers {layers} ns vs wall {wall} ns"
        );
        assert_eq!(totals.requests, 4);
        assert_eq!(totals.cells as usize, round.cells());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let args = parse("--workload unrolled_2k --seed 9 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            (Workload::Unrolled2k, 9, 2.5, true)
        );
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload paper_loops --trace 2").is_err());
        assert!(parse("--workload paper_loops --seconds 0").is_err());
        assert!(parse("--workload paper_loops --seed").is_err());
    }
}
