//! Runs one workload: passes, checks, and the metrics of either kind.

use crate::spans::{self, total_ms, SpanRec};
use crate::stats::{median, nearest_rank, spread, Digest};
use crate::workloads::{self, Counters, Outcome, Workload};
use crate::Args;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Fresh-process set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm passes of each worker count a run makes at least.
const MIN_PASSES: usize = 2;

/// One point's outcome and host time.
struct Timed {
    outcome: Outcome,
    ms: f64,
}

/// One pass over every point of a workload.
struct Pass {
    wall_s: f64,
    points: Vec<Timed>,
}

impl Pass {
    /// Digest over the point digests, in point order.
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for t in &self.points {
            d.word(t.outcome.digest);
        }
        d.finish()
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for t in &self.points {
            c.merge(&t.outcome.counters);
        }
        c
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs every point of `w` on `threads` sweep workers.
fn run_pass(w: &dyn Workload, threads: usize) -> Pass {
    let indices: Vec<usize> = (0..w.len()).collect();
    if w.cold_cache() {
        ccube_sim::reset_prep_cache();
    }
    let start = Instant::now();
    let points =
        spans::span("bench.pass", || {
            spans::sweep(|| {
                ccube_sim::sweep(&indices, threads, |_, &i| {
                    spans::point(i, || {
                        let t = Instant::now();
                        let outcome = catch_unwind(AssertUnwindSafe(|| w.run_point(i)))
                            .unwrap_or_else(|p| Outcome {
                                error: Some(format!("point {i} panicked: {}", panic_message(&*p))),
                                ..Outcome::default()
                            });
                        Timed {
                            outcome,
                            ms: t.elapsed().as_secs_f64() * 1e3,
                        }
                    })
                })
            })
        });
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        points,
    }
}

/// Points attempted and failed, with the first few reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    /// Checks a pass: every point's own check, and, against `reference`
    /// (the cold pass), that every point's simulated result repeats.
    fn check(&mut self, pass: &Pass, reference: Option<&Pass>, label: &str) {
        for (i, t) in pass.points.iter().enumerate() {
            self.attempted += 1;
            if let Some(e) = &t.outcome.error {
                self.fail(format!("{label}: {e}"));
            } else if let Some(r) = reference {
                if r.points[i].outcome.digest != t.outcome.digest {
                    self.fail(format!("{label}: point {i} differs from the cold pass"));
                }
            }
        }
    }
}

/// One reported metric: name, unit, value, and the samples behind it.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        samples: Vec::new(),
    }
}

fn sampled(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: median(&samples),
        samples,
    }
}

/// A JSON number: non-finite values (which no metric should produce)
/// print as 0 so the line always parses.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: the share of
/// time the hypervisor gave this machine's CPUs to someone else.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Process high-water RSS in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Entry point of a run: measures, checks, prints the result line and
/// writes the result file.
pub fn run(args: &Args) -> Result<(), String> {
    let run_dir = args
        .out
        .join(format!("run-{}-{}", args.workload, std::process::id()));
    let w = workloads::build(&args.workload, args.seed, &run_dir)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let mut tally = Tally::default();
    let ticks = cpu_ticks();

    // First pass: fresh process, empty preparation cache, fresh arenas.
    let cold = run_pass(&*w, 1);
    tally.check(&cold, None, "cold pass");
    if args.seed == workloads::DEFAULT_SEED {
        if let Some(recorded) = w.recorded_digest() {
            if cold.digest() != recorded {
                tally.fail(format!(
                    "pass digest {:016x} differs from the recorded {recorded:016x}",
                    cold.digest()
                ));
            }
        }
    }
    eprintln!("cold pass digest {:016x}", cold.digest());

    let metrics = if args.trace {
        traced(&*w, args, &cold, &mut tally)?
    } else {
        end_to_end(&*w, args, &run_dir, &cold, &mut tally)?
    };
    let _ = std::fs::remove_dir_all(&run_dir);

    for e in &tally.errors {
        eprintln!("check failed: {e}");
    }
    let correct = tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let (steal, total) = cpu_ticks();
    let steal_share = (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64;
    write_result_file(args, &metrics, &tally, steal_share)?;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

fn write_result_file(
    args: &Args,
    metrics: &[Metric],
    tally: &Tally,
    steal_share: f64,
) -> Result<(), String> {
    let dir = args.out.join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples: Vec<String> = m.samples.iter().map(|&x| num(x)).collect();
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"spread\": {}, \"samples\": [{}]}}",
                json_str(&m.name),
                num(m.value),
                json_str(m.unit),
                num(spread(&m.samples)),
                samples.join(", ")
            )
        })
        .collect();
    let errors: Vec<String> = tally.errors.iter().map(|e| json_str(e)).collect();
    let json = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \"seconds\": {},\n  \"host\": {{\"nproc\": {}, \"available_parallelism\": {parallelism}, \"profile\": \"{profile}\", \"commit\": {}, \"cpu_steal_share\": {}}},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"errors\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        num(args.seconds),
        json_str(&args.nproc),
        json_str(&args.commit),
        num(steal_share),
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        errors.join(", "),
        rows.join(",\n")
    );
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--setup-child`: one fresh-process set-up — build the inputs, run the
/// first pass (for `figures`, through `run_all_with_network` itself) —
/// then print the pass digest for the parent to compare.
pub fn setup_child(args: &Args) -> Result<(), String> {
    let w = workloads::build(&args.workload, args.seed, &args.out)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let (digest, points, failed) = if args.workload == "figures" {
        workloads::figures::run_all_cli(&args.out)?
    } else {
        let pass = run_pass(&*w, 1);
        let failed = pass
            .points
            .iter()
            .filter(|t| t.outcome.error.is_some())
            .count();
        (pass.digest(), pass.points.len(), failed)
    };
    println!("setup {digest:016x} {points} {failed} {}", peak_rss_mb());
    Ok(())
}

/// Wall time and peak RSS of each of `SETUPS` fresh-process set-ups.
fn setups(
    args: &Args,
    run_dir: &Path,
    expect: u64,
    tally: &mut Tally,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::new();
    let mut rss = Vec::new();
    for k in 0..SETUPS {
        let dir = run_dir.join(format!("setup-{k}"));
        let start = Instant::now();
        let out = Command::new(&exe)
            .args(["--setup-child", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .arg("--out")
            .arg(&dir)
            .output()
            .map_err(|e| format!("spawning the set-up run: {e}"))?;
        samples.push(start.elapsed().as_secs_f64());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<&str> = stdout
            .lines()
            .last()
            .unwrap_or("")
            .split_whitespace()
            .collect();
        match fields.as_slice() {
            ["setup", digest, points, failed, rss_mb] if out.status.success() => {
                rss.push(rss_mb.parse().unwrap_or(0.0));
                let points: u64 = points.parse().unwrap_or(0);
                let failed: u64 = failed.parse().unwrap_or(points);
                tally.attempted += points;
                for i in 0..failed {
                    tally.fail(format!("set-up {k}: point check {i} failed"));
                }
                if u64::from_str_radix(digest, 16) != Ok(expect) {
                    tally.fail(format!(
                        "set-up {k}: digest {digest} differs from the cold pass"
                    ));
                }
            }
            _ => {
                tally.attempted += 1;
                tally.fail(format!(
                    "set-up {k} failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ));
            }
        }
    }
    Ok((samples, rss))
}

/// `--trace 0`: the end-to-end metrics, span recording off.
fn end_to_end(
    w: &dyn Workload,
    args: &Args,
    run_dir: &Path,
    cold: &Pass,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let (setup, rss) = setups(args, run_dir, cold.digest(), tally)?;
    let events = match w.hidden_events() {
        Some(Ok(events)) => events,
        Some(Err(e)) => {
            tally.attempted += 1;
            tally.fail(e);
            0
        }
        None => cold.counters().events,
    };

    let mut walls = [Vec::new(), Vec::new()];
    let mut point_ms = vec![Vec::new(); w.len()];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || walls.iter().any(|v| v.len() < MIN_PASSES)
    {
        for (slot, threads) in [(0, 1), (1, 2)] {
            let pass = run_pass(w, threads);
            tally.check(&pass, Some(cold), &format!("warm pass, {threads} workers"));
            if threads == 1 {
                for (times, t) in point_ms.iter_mut().zip(&pass.points) {
                    times.push(t.ms);
                }
            }
            walls[slot].push(pass.wall_s);
        }
    }
    // The host is shared, and its interference slows single points at
    // random by up to a half, so every point is first reduced to its
    // median over the passes. A 1-worker pass is the sum of its points:
    // the sum of those medians moves far less from run to run than the
    // median of a few whole-pass times (README.md).
    let point_med: Vec<f64> = point_ms.iter().map(|t| median(t)).collect();
    let wall_s = point_med.iter().sum::<f64>() / 1e3;
    let [walls_1w, walls_2w] = walls;
    Ok(vec![
        sampled("setup_s", "s", setup),
        Metric {
            value: wall_s,
            ..sampled("wall_s", "s", walls_1w)
        },
        sampled("wall_2w_s", "s", walls_2w),
        metric("events_per_s", "1/s", events as f64 / wall_s),
        metric("point_p50_ms", "ms", nearest_rank(&point_med, 0.5)),
        metric("point_p90_ms", "ms", nearest_rank(&point_med, 0.9)),
        sampled("peak_rss_mb", "MB", rss),
    ])
}

/// A traced pass: span recording on for exactly its duration.
fn traced_pass(w: &dyn Workload, threads: usize) -> (Pass, Vec<SpanRec>) {
    spans::set_enabled(true);
    let pass = run_pass(w, threads);
    spans::set_enabled(false);
    (pass, spans::take())
}

/// Hits and misses the calling thread's cache counted during `f`.
fn prep_delta<R>(w: &dyn Workload, f: impl FnOnce() -> R) -> (R, ccube_sim::PrepCacheStats) {
    // A cold-cache workload resets the counters at the start of a pass.
    let before = if w.cold_cache() {
        ccube_sim::PrepCacheStats::default()
    } else {
        ccube_sim::prep_cache_stats()
    };
    let out = f();
    let after = ccube_sim::prep_cache_stats();
    (
        out,
        ccube_sim::PrepCacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
        },
    )
}

/// Layers the per-layer `.ms`/`.allocs` metrics report, by span name.
const TIMED_LAYERS: [&str; 7] = [
    "topology",
    "collectives.schedule",
    "collectives.embedding",
    "collectives.analyze",
    "collectives.physical",
    "sim.simulate",
    "sim.severance",
];

/// Spans of the benchmark itself, not of a layer.
const BENCH_SPANS: [&str; 3] = ["bench.pass", "bench.point", "sim.sweep"];

/// `--trace 1`: the per-layer metrics.
fn traced(
    w: &dyn Workload,
    args: &Args,
    cold: &Pass,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let (out, workload, seed) = (&args.out, &args.workload, args.seed);
    // Untraced and traced warm passes, alternated for the measurement
    // budget; the last traced one gives the layer split.
    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || traced_walls.len() < MIN_PASSES {
        let pass = run_pass(w, 1);
        tally.check(&pass, Some(cold), "untraced warm pass");
        untraced.push(pass.wall_s);
        let ((pass, spans), prep) = prep_delta(w, || traced_pass(w, 1));
        tally.check(&pass, Some(cold), "traced warm pass");
        traced_walls.push(pass.wall_s);
        last = Some((pass, spans, prep));
    }
    let (pass, spans, prep) = last.expect("traced passes ran");
    let entries = ccube_sim::prep_cache_len();

    let ((pass2, spans2), prep2) = prep_delta(w, || traced_pass(w, 2));
    tally.check(&pass2, Some(cold), "traced pass, 2 workers");

    ccube_sim::set_prep_cache_enabled(false);
    let (off, spans_off) = traced_pass(w, 1);
    ccube_sim::set_prep_cache_enabled(true);
    tally.check(&off, Some(cold), "prep cache off");

    let sim_trace = w.trace_overhead();
    tally.attempted += 1;
    for e in sim_trace.errors {
        tally.fail(e);
    }
    let mut all_spans = spans.clone();
    let mut counters = pass.counters();
    if let Some((replay_counters, replay_spans)) = sim_trace.replay {
        counters.merge(&replay_counters);
        all_spans.extend(replay_spans);
    }
    let totals = spans::totals(&all_spans);
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ms = |name: &str| t(name).self_ns as f64 / 1e6;

    let mut m = Vec::new();
    for fig in &workloads::figures::TABLE {
        m.push(metric(format!("{}.ms", fig.layer), "ms", ms(fig.layer)));
    }

    let sweep_wall = total_ms(&spans2, "sim.sweep");
    let busy = total_ms(&spans2, "bench.point");
    let max_point = spans2
        .iter()
        .filter(|s| s.name == "bench.point")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .fold(0.0, f64::max);
    m.push(metric("sim.sweep.busy_ms", "ms", busy));
    m.push(metric("sim.sweep.idle_ms", "ms", 2.0 * sweep_wall - busy));
    m.push(metric("sim.sweep.max_point_ms", "ms", max_point));

    for layer in TIMED_LAYERS {
        m.push(metric(format!("{layer}.ms"), "ms", ms(layer)));
        m.push(metric(
            format!("{layer}.allocs"),
            "count",
            t(layer).self_allocs as f64,
        ));
    }
    m.push(metric(
        "collectives.schedule.transfers",
        "count",
        counters.transfers as f64,
    ));
    m.push(metric(
        "collectives.analyze.diagnostics",
        "count",
        counters.diagnostics as f64,
    ));
    m.push(metric(
        "sim.simulate.calls",
        "count",
        t("sim.simulate").calls as f64,
    ));

    let lookups = prep.hits + prep.misses;
    m.push(metric("sim.prep.hits", "count", prep.hits as f64));
    m.push(metric("sim.prep.misses", "count", prep.misses as f64));
    m.push(metric(
        "sim.prep.hit_ratio",
        "ratio",
        if lookups == 0 {
            0.0
        } else {
            prep.hits as f64 / lookups as f64
        },
    ));
    m.push(metric("sim.prep.entries", "count", entries as f64));
    m.push(metric("sim.prep.misses_2w", "count", prep2.misses as f64));
    m.push(metric(
        "sim.prep.saving_ms",
        "ms",
        total_ms(&spans_off, "bench.point") - total_ms(&spans, "bench.point"),
    ));

    m.push(metric("sim.kernel.events", "count", counters.events as f64));
    m.push(metric(
        "sim.kernel.events_scheduled",
        "count",
        counters.events_scheduled as f64,
    ));
    m.push(metric(
        "sim.kernel.max_queue_depth",
        "count",
        counters.max_queue_depth as f64,
    ));
    m.push(metric(
        "sim.resource.force_starts",
        "count",
        counters.force_starts as f64,
    ));
    m.push(metric(
        "sim.resource.max_channel_queue_depth",
        "count",
        counters.max_channel_queue_depth as f64,
    ));
    m.push(metric(
        "sim.resource.queue_wait_s",
        "s",
        counters.queue_wait_s,
    ));
    m.push(metric("sim.trace.overhead_ms", "ms", sim_trace.overhead_ms));
    m.push(metric(
        "sim.trace.records",
        "count",
        counters.trace_records as f64,
    ));

    m.push(metric("sim.fabric.ms", "ms", ms("sim.fabric")));
    m.push(metric(
        "sim.fabric.failovers",
        "count",
        counters.failovers as f64,
    ));
    m.push(metric(
        "sim.fabric.max_switch_queue_depth",
        "count",
        counters.max_switch_queue_depth as f64,
    ));
    m.push(metric("sim.faults.ms", "ms", ms("sim.faults")));
    m.push(metric(
        "sim.faults.sample_ms",
        "ms",
        ms("sim.faults.sample"),
    ));
    m.push(metric(
        "sim.faults.faults_injected",
        "count",
        counters.faults_injected as f64,
    ));
    m.push(metric(
        "sim.faults.reroutes",
        "count",
        counters.reroutes as f64,
    ));
    m.push(metric(
        "sim.faults.unroutable",
        "count",
        counters.unroutable as f64,
    ));
    let healthy = ms("sim.fabric");
    m.push(metric(
        "sim.faults.faulted_over_healthy",
        "ratio",
        if healthy > 0.0 {
            ms("sim.faults") / healthy
        } else {
            0.0
        },
    ));

    // Coverage: the share of the traced pass's wall time that layer
    // spans account for.
    let pass_ms = total_ms(&spans, "bench.pass");
    let layer_ms: f64 = spans::totals(&spans)
        .iter()
        .filter(|(name, _)| !BENCH_SPANS.contains(name))
        .map(|(_, t)| t.self_ns as f64 / 1e6)
        .sum();
    m.push(metric(
        "bench.span_coverage",
        "ratio",
        if pass_ms > 0.0 {
            layer_ms / pass_ms
        } else {
            0.0
        },
    ));
    m.push(metric(
        "bench.span_overhead_ms",
        "ms",
        (median(&traced_walls) - median(&untraced)) * 1e3,
    ));
    m.push(metric(
        "bench.failed_frac",
        "ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    ));

    all_spans.extend(spans2);
    let dir = out.join("spans");
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_json(&all_spans)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(m)
}
