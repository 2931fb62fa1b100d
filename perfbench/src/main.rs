//! Training-throughput benchmark for the QTAccel workspace.
//!
//! ```text
//! perfbench --workload <fast-table1|cycle-hazard|batch-banks|cluster-lease>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client thread issues a workload's training calls back
//! to back for `--seconds`; every call is checked bit-exactly against an
//! independent executor outside the timed region. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/NOTES.md`.

mod batch;
mod cluster;
mod common;
mod cycle;
mod fast;
mod host;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qtaccel_telemetry::span::{Span, SpanTracer};
use qtaccel_telemetry::Json;

use common::{median, percentile, Ctx, Round, Workload};

const WORKLOADS: [&str; 4] = [
    "fast-table1",
    "cycle-hazard",
    "batch-banks",
    "cluster-lease",
];

/// Timed rounds per run, at least, unless they take over twice `--seconds`.
const MIN_ROUNDS: usize = 4;

/// Span names the workloads record, one per layer call they wrap.
const SPANS: [&str; 12] = [
    "round",
    "envs.build",
    "accel.pipeline.new",
    "accel.pipeline.fast",
    "accel.pipeline.cycle",
    "accel.multi.new",
    "accel.multi.train_batch",
    "accel.multi.durable",
    "cluster.setup",
    "cluster.train",
    "cluster.shutdown",
    "check",
];

/// End-to-end metrics: (name, unit).
const END_TO_END: [(&str, &str); 4] = [
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_samples_per_cycle", "samples/cycle"),
];

/// Per-layer metrics: (name, unit, better).
fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut m: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| m.push((name, unit, better));
    add("envs.build_ms".into(), "ms", "lower");
    for c in &fast::CFGS {
        add(format!("accel.pipeline.new_ms.{}", c.name), "ms", "lower");
        add(
            format!("accel.pipeline.slab_bytes.{}", c.name),
            "bytes",
            "lower",
        );
        add(
            format!("accel.pipeline.fast.ns_per_sample.{}", c.name),
            "ns",
            "lower",
        );
        add(
            format!("accel.pipeline.fast.gbps.{}", c.name),
            "GB/s",
            "higher",
        );
    }
    add(
        "accel.pipeline.fast.bytes_per_sample.q16".into(),
        "bytes",
        "lower",
    );
    add(
        "accel.pipeline.fast.bytes_per_sample.q8".into(),
        "bytes",
        "lower",
    );
    for op in &cycle::OPS {
        add(
            format!("accel.pipeline.cycle.ns_per_sample.{}", op.name),
            "ns",
            "lower",
        );
        add(format!("core.ref.ns_per_sample.{}", op.name), "ns", "lower");
        add(
            format!("accel.pipeline.cycle.ref_ratio.{}", op.name),
            "ratio",
            "lower",
        );
        add(format!("sim.stall_cycles.{}", op.name), "count", "lower");
        add(format!("sim.forwards.{}", op.name), "count", "higher");
    }
    add("sim.fill_bubbles".into(), "count", "lower");
    for (name, unit, better) in [
        ("accel.multi.train_batch_ms", "ms", "lower"),
        ("accel.multi.durable_ms", "ms", "lower"),
        ("accel.multi.durable_overhead_ms", "ms", "lower"),
        ("accel.multi.overhead_ratio", "ratio", "lower"),
        ("accel.executor.speedup", "ratio", "higher"),
        ("accel.executor.queue_wait_ns_p50", "ns", "lower"),
        ("accel.executor.queue_wait_ns_p99", "ns", "lower"),
        ("accel.executor.chunk_service_ns_p50", "ns", "lower"),
        ("accel.executor.chunk_service_ns_p99", "ns", "lower"),
        ("accel.executor.queue_depth_peak", "count", "lower"),
        ("accel.checkpoint.save_ms", "ms", "lower"),
        ("accel.checkpoint.restore_ms", "ms", "lower"),
        ("accel.checkpoint.bytes", "bytes", "lower"),
    ] {
        add(name.into(), unit, better);
    }
    for w in 0..common::MAX_WORKERS {
        add(format!("accel.executor.busy_ns.w{w}"), "ns", "lower");
        add(format!("accel.executor.idle_ns.w{w}"), "ns", "lower");
        add(format!("accel.executor.chunks.w{w}"), "count", "higher");
    }
    for (name, unit, better) in [
        ("cluster.spawn_to_connected_ms", "ms", "lower"),
        ("cluster.first_progress_ms", "ms", "lower"),
        ("cluster.lease_ms_p50", "ms", "lower"),
        ("cluster.lease_ms_max", "ms", "lower"),
        ("cluster.recovery_ms", "ms", "lower"),
        ("cluster.shutdown_ms", "ms", "lower"),
        ("cluster.inproc_ms", "ms", "lower"),
        ("cluster.overhead_ms", "ms", "lower"),
        ("cluster.train_share", "ratio", "higher"),
        ("cluster.leases_reassigned", "count", "lower"),
        ("cluster.refused_frames", "count", "lower"),
        ("cluster.decode_errors", "count", "lower"),
        ("host.triad_gbps", "GB/s", "higher"),
        ("host.calib_ns", "ns", "lower"),
        ("trace.unaccounted_share", "ratio", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
        ("check.selftest_failed", "count", "higher"),
        ("round_s_tail", "s", "lower"),
        ("round_s_tail_pct", "%", "higher"),
        ("rounds", "count", "higher"),
    ] {
        add(name.into(), unit, better);
    }
    for s in SPANS {
        add(format!("self_ms.{s}"), "ms", "lower");
    }
    m
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                o.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(o.seconds > 0.0 && o.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(o)
}

fn make(name: &str, ctx: &Ctx) -> Box<dyn Workload> {
    match name {
        "fast-table1" => Box::new(fast::Fast::new(ctx.seed)),
        "cycle-hazard" => Box::new(cycle::Cycle::new(ctx.seed)),
        "batch-banks" => Box::new(batch::Batch::new(ctx.seed, ctx.workers)),
        "cluster-lease" => Box::new(cluster::Cluster::new(ctx.seed)),
        _ => unreachable!("workload names are validated by parse"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        std::process::exit(cluster::worker_main(&args));
    }
    if args.first().map(String::as_str) == Some("--triad") {
        println!("{}", host::triad_gbps());
        return;
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workdir = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("perfbench: cannot create {}: {e}", workdir.display());
        std::process::exit(1);
    }
    let code = run(&opts, &workdir);
    let _ = std::fs::remove_dir_all(&workdir);
    std::process::exit(code);
}

/// Samples retired per second of timed training over a set of rounds:
/// total samples over total training time. On a shared host, cache
/// interference from other tenants only slows a run and comes in regimes
/// of seconds, so per-round rates are bimodal; their median jumps between
/// the modes from run to run, while the time-weighted rate moves only with
/// the share of time spent slowed.
fn rate<'a>(rounds: impl Iterator<Item = &'a Round>) -> f64 {
    let (samples, secs) = rounds.fold((0u64, 0.0), |(n, t), r| (n + r.samples, t + r.train_s));
    samples as f64 / secs
}

fn run(opts: &Opts, workdir: &Path) -> i32 {
    let fp = host::Fingerprint::probe();
    println!("{}", fp.to_json());
    let mut ctx = Ctx::new(opts.seed, workdir.to_path_buf());
    let mut work = make(&opts.workload, &ctx);
    let (mut attempted, mut failed) = (0u64, 0u64);

    // One checked warm-up round, untimed and unrecorded: first-touch page
    // faults and lazy pool start-up are not what a steady client waits for.
    let warm = work.round(&mut ctx, false);
    attempted += warm.calls;
    failed += warm.failed;

    let tracer = Arc::new(SpanTracer::new(opts.seed, 1 << 16));
    let mut rounds: Vec<(Round, bool)> = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let t0 = Instant::now();
    ctx.set_recording(true);
    // Slow rounds may stretch a run to twice its budget, never further.
    while t0.elapsed() < budget || (rounds.len() < MIN_ROUNDS && t0.elapsed() < 2 * budget) {
        // The traced run alternates traced and untraced rounds, so the
        // tracing overhead is measured within one run.
        let traced = opts.trace && rounds.len().is_multiple_of(2);
        ctx.set_tracer(traced.then(|| Arc::clone(&tracer)));
        let r = work.round(&mut ctx, false);
        ctx.set_tracer(None);
        attempted += r.calls;
        failed += r.failed;
        if opts.trace {
            ctx.record("host.calib_ns", host::calib_ns());
        }
        rounds.push((r, traced));
    }
    ctx.set_recording(false);

    // Negative self-test: one damaged result must count as failed.
    let selftest = work.round(&mut ctx, true);
    let selftest_ok = selftest.failed > 0;
    if !selftest_ok {
        eprintln!("perfbench: self-test: a corrupted result was not detected");
    }

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    if opts.trace {
        ctx.set_recording(true);
        let (c, f) = work.probe(&mut ctx);
        attempted += c;
        failed += f;
        let own = Layers {
            values: ctx.take_layers(),
            spans: tracer.drain(),
        };
        // Every layer is reported in every traced run. Layers the named
        // workload does not have come from one warmed-up traced round and
        // the probes of each other workload; they never mix with its own.
        let mut foreign = Vec::new();
        for other in WORKLOADS.iter().filter(|w| **w != opts.workload) {
            let mut w = make(other, &ctx);
            ctx.set_recording(false);
            let warm = w.round(&mut ctx, false);
            ctx.set_recording(true);
            ctx.set_tracer(Some(Arc::clone(&tracer)));
            let r = w.round(&mut ctx, false);
            ctx.set_tracer(None);
            let (c, f) = w.probe(&mut ctx);
            attempted += warm.calls + r.calls + c;
            failed += warm.failed + r.failed + f;
            foreign.push(Layers {
                values: ctx.take_layers(),
                spans: tracer.drain(),
            });
        }
        ctx.set_recording(false);
        let spans = foreign.iter().chain([&own]).flat_map(|l| &l.spans);
        write_trace(opts, &fp, spans);
        metrics = layer_metrics(&own, &foreign, &rounds, &fp, selftest.failed);
    } else {
        let timed: Vec<&Round> = rounds.iter().map(|(r, _)| r).collect();
        let setup: Vec<f64> = timed.iter().map(|r| r.setup_s).collect();
        let child_rss: Vec<f64> = timed.iter().map(|r| r.child_rss_mb).collect();
        let (sim_s, sim_c) = timed.iter().fold((0u64, 0u64), |(s, c), r| {
            (s + r.sim_samples, c + r.sim_cycles)
        });
        let values = [
            rate(timed.iter().copied()),
            median(&setup),
            common::self_peak_rss_mb().max(median(&child_rss)),
            sim_s as f64 / sim_c.max(1) as f64,
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), v, unit.to_string()));
        }
    }

    if let Err(e) = check_complete(opts.trace, &metrics) {
        eprintln!("perfbench: {e}");
        return 1;
    }
    eprintln!(
        "perfbench: {} seed {}: {} rounds, {attempted} calls, {failed} failed (failed_ratio {})",
        opts.workload,
        opts.seed,
        rounds.len(),
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                host::quote(n),
                host::quote(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && selftest_ok,
        body.join(", ")
    );
    0
}

/// The run must report exactly the declared metric set, all finite.
fn check_complete(trace: bool, metrics: &[(String, f64, String)]) -> Result<(), String> {
    let want: Vec<(String, String)> = if trace {
        per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let got: BTreeMap<&str, (&str, f64)> = metrics
        .iter()
        .map(|(n, v, u)| (n.as_str(), (u.as_str(), *v)))
        .collect();
    for (name, unit) in &want {
        match got.get(name.as_str()) {
            None => return Err(format!("metric {name} was not measured")),
            Some((u, _)) if *u != unit => return Err(format!("metric {name} has unit {u}")),
            Some((_, v)) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
            _ => {}
        }
    }
    if got.len() != want.len() {
        return Err(format!(
            "{} metrics reported, {} declared",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Per-layer observations and spans of one workload.
struct Layers {
    values: BTreeMap<String, Vec<f64>>,
    spans: Vec<Span>,
}

impl Layers {
    /// Per span name, the self time (duration minus children) summed per
    /// round, in ms; and per round, the share of its wall time that no
    /// child span covers.
    fn self_ms(&self) -> (BTreeMap<&str, Vec<f64>>, Vec<f64>) {
        let mut children: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children.entry(p.0).or_default() += s.duration_ns();
            }
        }
        let mut per_trace: BTreeMap<(u64, &str), f64> = BTreeMap::new();
        let mut unaccounted = Vec::new();
        for s in &self.spans {
            let own = s
                .duration_ns()
                .saturating_sub(children.get(&s.id.0).copied().unwrap_or(0));
            *per_trace.entry((s.trace.0, s.name.as_str())).or_default() += own as f64 / 1e6;
            if s.parent.is_none() && s.duration_ns() > 0 {
                unaccounted.push(own as f64 / s.duration_ns() as f64);
            }
        }
        let mut self_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for ((_, name), ms) in per_trace {
            self_ms.entry(name).or_default().push(ms);
        }
        (self_ms, unaccounted)
    }
}

/// The traced run's per-layer metrics: the named workload's own layers,
/// and the other workloads' for the layers it does not have (where two of
/// them share one, the later in `WORKLOADS` order).
fn layer_metrics(
    own: &Layers,
    foreign: &[Layers],
    rounds: &[(Round, bool)],
    fp: &host::Fingerprint,
    selftest_failed: u64,
) -> Vec<(String, f64, String)> {
    // Span self time per layer, median over rounds; later workloads
    // override earlier ones, and the named workload comes last.
    let mut values: BTreeMap<String, f64> = SPANS
        .iter()
        .map(|name| (format!("self_ms.{name}"), 0.0))
        .collect();
    for layers in foreign.iter().chain([own]) {
        for (k, v) in &layers.values {
            values.insert(k.clone(), median(v));
        }
        for (name, ms) in layers.self_ms().0 {
            values.insert(format!("self_ms.{name}"), median(&ms));
        }
    }

    // Tracing overhead: traced vs untraced rounds of the same run.
    let traced = |on: bool| rate(rounds.iter().filter(|(_, t)| *t == on).map(|(r, _)| r));
    values.insert(
        "trace.overhead_share".into(),
        1.0 - traced(true) / traced(false),
    );

    // Round time tail: the highest whole percentile with >= 10 rounds
    // beyond it (the median when a run has fewer than 20 rounds).
    let times: Vec<f64> = rounds.iter().map(|(r, _)| r.train_s).collect();
    let n = times.len() as f64;
    let pct = (100.0 * (1.0 - 10.0 / n)).floor().max(50.0);
    values.insert("round_s_tail".into(), percentile(&times, pct / 100.0));
    values.insert("round_s_tail_pct".into(), pct);
    values.insert("rounds".into(), n);

    // The share of the named workload's round wall time that no child
    // span covers.
    values.insert("trace.unaccounted_share".into(), median(&own.self_ms().1));
    values.insert("host.triad_gbps".into(), fp.triad_gbps);
    values.insert("check.selftest_failed".into(), selftest_failed as f64);

    let units: HashMap<String, &str> = per_layer().into_iter().map(|(n, u, _)| (n, u)).collect();
    values
        .into_iter()
        .map(|(k, v)| {
            let unit = units.get(&k).copied().unwrap_or("?").to_string();
            (k, v, unit)
        })
        .collect()
}

/// Write the traced run's spans once, as a Chrome/Perfetto trace:
/// `.perfbench/trace-<workload>-<seed>.json` in the working directory.
fn write_trace<'a>(opts: &Opts, fp: &host::Fingerprint, spans: impl Iterator<Item = &'a Span>) {
    let mut events = vec![Json::Obj(vec![
        ("ph", Json::Str("M".into())),
        ("pid", Json::UInt(1)),
        ("tid", Json::UInt(0)),
        ("name", Json::Str("process_name".into())),
        (
            "args",
            Json::Obj(vec![(
                "name",
                Json::Str(format!("perfbench {}", opts.workload)),
            )]),
        ),
    ])];
    for s in spans {
        events.push(Json::Obj(vec![
            ("ph", Json::Str("X".into())),
            ("name", Json::Str(s.name.clone())),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(u64::from(s.lane))),
            ("ts", Json::Num(s.start_ns as f64 / 1e3)),
            ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
            (
                "args",
                Json::Obj(vec![
                    ("trace", Json::UInt(s.trace.0)),
                    ("parent", Json::UInt(s.parent.map_or(0, |p| p.0))),
                ]),
            ),
        ]));
    }
    let doc = Json::Obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ns".into())),
        (
            "metadata",
            Json::Obj(vec![
                ("fingerprint", Json::Str(fp.id())),
                ("cpu", Json::Str(fp.cpu.clone())),
                ("seed", Json::UInt(opts.seed)),
            ]),
        ),
    ]);
    let path =
        PathBuf::from(".perfbench").join(format!("trace-{}-{}.json", opts.workload, opts.seed));
    if let Err(e) = std::fs::write(&path, doc.compact()) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
