//! `cluster-lease`: a coordinator and worker processes (this executable
//! re-executed with `--worker`), one worker crashing mid-lease per round.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qtaccel_accel::shard_checkpoint_path;
use qtaccel_cluster::{
    run_worker, ChaosMode, ClusterSpec, ClusterStatus, Coordinator, CoordinatorConfig, WorkerConfig,
};
use qtaccel_telemetry::MetricValue;

use crate::common::{corrupt_file, digest, median, mix, self_peak_rss_mb, Ctx, Round, Workload};

/// Total samples over 4 leases of 16384×4 (4 Mi per lease).
const TOTAL: u64 = 1 << 24;
const EVERY: u64 = 1 << 20;
/// The armed worker drops its first lease here, after two durable saves.
const ABANDON_AT: u64 = 2 * EVERY;
/// Completion is polled at this period (`wait_complete` sleeps 10 ms).
const POLL: Duration = Duration::from_millis(1);
/// A round that has not finished by then counts as failed.
const DEADLINE: Duration = Duration::from_secs(20);

/// 256×256 cells in 2×2 tiles: four leases of 128×128 = 16384 states.
pub fn spec(seed: u64) -> ClusterSpec {
    ClusterSpec {
        seed: mix(seed ^ 0xC105),
        width: 256,
        height: 256,
        tiles_x: 2,
        tiles_y: 2,
        obstacle_pct: 10,
        total_samples: TOTAL,
        checkpoint_every: EVERY,
    }
}

/// Worker-process entry: `--worker <id> --addr <a> --dir <d> --seed <n>
/// [--abandon]`. Writes its peak RSS beside the checkpoints on exit.
pub fn worker_main(args: &[String]) -> i32 {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(id), Some(addr), Some(dir), Some(seed)) = (
        value("--worker"),
        value("--addr"),
        value("--dir"),
        value("--seed"),
    ) else {
        eprintln!("worker: missing --worker/--addr/--dir/--seed");
        return 2;
    };
    let (Ok(id), Ok(seed)) = (id.parse::<u64>(), seed.parse::<u64>()) else {
        eprintln!("worker: bad --worker or --seed");
        return 2;
    };
    let dir = PathBuf::from(dir);
    let mut cfg = WorkerConfig::new(addr, id, &dir);
    if args.iter().any(|a| a == "--abandon") {
        cfg.chaos = ChaosMode::AbandonAfter {
            at_samples: ABANDON_AT,
        };
    }
    let result = run_worker(&spec(seed), &cfg);
    let _ = std::fs::write(
        dir.join(format!("rss-{id}.txt")),
        self_peak_rss_mb().to_string(),
    );
    match result {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("worker {id}: {e}");
            1
        }
    }
}

/// Worker processes of one round; dropping the fleet kills and reaps any
/// that are still running.
struct Fleet {
    children: Vec<Child>,
}

impl Fleet {
    fn spawn(&mut self, seed: u64, addr: &str, dir: &Path, id: u64, abandon: bool) -> bool {
        let Ok(exe) = std::env::current_exe() else {
            return false;
        };
        let mut cmd = Command::new(exe);
        cmd.args([
            "--worker",
            &id.to_string(),
            "--addr",
            addr,
            "--seed",
            &seed.to_string(),
        ])
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
        if abandon {
            cmd.arg("--abandon");
        }
        match cmd.spawn() {
            Ok(c) => {
                self.children.push(c);
                true
            }
            Err(_) => false,
        }
    }

    /// Wait up to `limit` for every worker to exit on its own.
    fn join(&mut self, limit: Duration) -> bool {
        let until = Instant::now() + limit;
        while Instant::now() < until {
            if self
                .children
                .iter_mut()
                .all(|c| matches!(c.try_wait(), Ok(Some(_))))
            {
                return true;
            }
            std::thread::sleep(POLL);
        }
        false
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for c in &mut self.children {
            if !matches!(c.try_wait(), Ok(Some(_))) {
                let _ = c.kill();
            }
            let _ = c.wait();
        }
    }
}

/// Wall-clock milestones of one cluster round, in seconds from the
/// coordinator bind.
#[derive(Default)]
struct Timeline {
    connected: Option<f64>,
    first_progress: Option<f64>,
    lease_start: Vec<Option<f64>>,
    lease_done: Vec<Option<f64>>,
}

pub struct Cluster {
    seed: u64,
    spec: ClusterSpec,
    /// Per-shard digests of the in-process `reference_tables` run.
    reference: Vec<u64>,
    round: u64,
}

impl Cluster {
    pub fn new(seed: u64) -> Self {
        let spec = spec(seed);
        let reference = spec
            .reference_tables()
            .iter()
            .map(|(q, qmax)| digest(q, qmax))
            .collect();
        Self {
            seed,
            spec,
            reference,
            round: 0,
        }
    }

    /// Restore every sealed shard into fresh engines: tables must match
    /// the reference and the engines' own counters must sum to the budget.
    /// Returns the restored engines' (samples, cycles) on success.
    fn check_restored(&self, dir: &Path) -> Option<(u64, u64)> {
        let mut pipes = self.spec.pipelines();
        for i in 0..self.spec.shards() {
            pipes
                .restore_shard_checkpoint(i, &shard_checkpoint_path(dir, i))
                .ok()?;
        }
        let digests: Vec<u64> = (0..pipes.len())
            .map(|i| digest(&pipes.q_table(i), &pipes.qmax_table(i)))
            .collect();
        let stats = pipes.stats();
        (digests == self.reference && stats.samples == TOTAL)
            .then_some((stats.samples, stats.cycles))
    }
}

fn merged_samples(coord: &Coordinator) -> u64 {
    match coord.merged_registry().get("qtaccel_samples_total") {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

impl Workload for Cluster {
    fn round(&mut self, ctx: &mut Ctx, corrupt: bool) -> Round {
        self.round += 1;
        let dir = ctx.scratch(&format!("cluster-{}", self.round));
        let (seed, workers) = (self.seed, ctx.workers);
        let r = ctx.round(|ctx| {
            let mut r = Round {
                calls: 1,
                ..Round::default()
            };
            let t0 = Instant::now();
            let since = |t: Instant| t.duration_since(t0).as_secs_f64();
            let mut tl = Timeline {
                lease_start: vec![None; self.spec.shards()],
                lease_done: vec![None; self.spec.shards()],
                ..Timeline::default()
            };
            let mut fleet = Fleet {
                children: Vec::new(),
            };

            // Setup: bind, spawn, and wait for the first lease assignment.
            // The coordinator leases to each worker as its handshake lands,
            // so training starts there; the time until every worker has
            // connected is the layer metric `cluster.spawn_to_connected_ms`.
            let (coord, _) = ctx.span("cluster.setup", 0, || {
                let coord =
                    Coordinator::serve(&self.spec, CoordinatorConfig::default(), "127.0.0.1:0")
                        .ok()?;
                let addr = coord.addr().to_string();
                for w in 0..workers {
                    if !fleet.spawn(seed, &addr, &dir, w as u64 + 1, w == 0) {
                        return None;
                    }
                }
                while !coord.status().leases.iter().any(|l| l.0 > 0) {
                    if t0.elapsed() > DEADLINE {
                        return None;
                    }
                    std::thread::sleep(POLL);
                }
                Some((coord, since(Instant::now())))
            });
            let Some((coord, leased_s)) = coord else {
                r.failed = 1;
                return r;
            };
            r.setup_s = leased_s;

            // Training: poll status; respawn the crashed worker once.
            let addr = coord.addr().to_string();
            let mut respawned = false;
            let ((status, complete_s), _) = ctx.span("cluster.train", 0, || loop {
                let st = coord.status();
                let now = since(Instant::now());
                if st.workers_connected >= workers as u64 && tl.connected.is_none() {
                    tl.connected = Some(now);
                }
                for (i, &(epoch, samples, done)) in st.leases.iter().enumerate() {
                    if epoch > 0 && tl.lease_start[i].is_none() {
                        tl.lease_start[i] = Some(now);
                    }
                    if samples > 0 && tl.first_progress.is_none() {
                        tl.first_progress = Some(now);
                    }
                    if done && tl.lease_done[i].is_none() {
                        tl.lease_done[i] = Some(now);
                    }
                }
                if st.complete || st.failed || t0.elapsed() > DEADLINE {
                    return (st, now);
                }
                if !respawned && matches!(fleet.children[0].try_wait(), Ok(Some(_))) {
                    respawned = fleet.spawn(seed, &addr, &dir, 100 + workers as u64, false);
                }
                std::thread::sleep(POLL);
            });
            r.train_s = complete_s - r.setup_s;
            r.samples = TOTAL;

            // Shutdown: every worker leaves on the coordinator's goodbye.
            let merged = merged_samples(&coord);
            let (joined, shutdown_s) = ctx.span("cluster.shutdown", 0, || {
                let joined = fleet.join(Duration::from_secs(10));
                drop(coord);
                joined
            });
            drop(fleet);

            ctx.span("check", 0, || {
                if corrupt {
                    corrupt_file(&shard_checkpoint_path(&dir, 0));
                }
                let restored = self.check_restored(&dir);
                let ok = status_ok(&status) && joined && merged == TOTAL && restored.is_some();
                if !ok {
                    r.failed = 1;
                }
                if let Some((samples, cycles)) = restored {
                    r.sim_samples = samples;
                    r.sim_cycles = cycles;
                }
            });
            r.child_rss_mb = std::fs::read_dir(&dir)
                .into_iter()
                .flatten()
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("rss-"))
                .filter_map(|e| std::fs::read_to_string(e.path()).ok()?.trim().parse().ok())
                .fold(0.0, f64::max);

            let ms = |s: f64| s * 1e3;
            ctx.record(
                "cluster.spawn_to_connected_ms",
                ms(tl.connected.unwrap_or(complete_s)),
            );
            ctx.record(
                "cluster.first_progress_ms",
                ms(tl.first_progress.unwrap_or(complete_s)),
            );
            let leases: Vec<f64> = tl
                .lease_start
                .iter()
                .zip(&tl.lease_done)
                .filter_map(|(s, d)| Some(ms(d.as_ref()? - s.as_ref()?)))
                .collect();
            if !leases.is_empty() {
                ctx.record("cluster.lease_ms_p50", median(&leases));
                ctx.record(
                    "cluster.lease_ms_max",
                    leases.iter().copied().fold(0.0, f64::max),
                );
            }
            ctx.record(
                "cluster.recovery_ms",
                status.recovery_ms.iter().copied().fold(0.0, f64::max),
            );
            ctx.record("cluster.shutdown_ms", ms(shutdown_s));
            ctx.record("cluster.leases_reassigned", status.leases_reassigned as f64);
            ctx.record("cluster.refused_frames", status.refused_frames as f64);
            ctx.record("cluster.decode_errors", status.decode_errors as f64);
            r
        });
        let _ = std::fs::remove_dir_all(&dir);
        r
    }

    fn probe(&mut self, ctx: &mut Ctx) -> (u64, u64) {
        // The same spec in one process, alternating with unrecorded cluster
        // rounds so that both see the same spell of host load: what the
        // cluster adds on top.
        let recording = ctx.recording();
        let (mut inproc, mut wall) = (Vec::new(), Vec::new());
        let mut failed = 0;
        for _ in 0..3 {
            let t0 = Instant::now();
            let tables = self.spec.reference_tables();
            inproc.push(t0.elapsed().as_secs_f64() * 1e3);
            let digests: Vec<u64> = tables.iter().map(|(q, m)| digest(q, m)).collect();
            if digests != self.reference {
                failed += 1;
            }
            ctx.set_recording(false);
            let r = self.round(ctx, false);
            ctx.set_recording(recording);
            failed += r.failed;
            wall.push((r.setup_s + r.train_s) * 1e3);
        }
        let (inproc_ms, wall_ms) = (median(&inproc), median(&wall));
        ctx.record("cluster.inproc_ms", inproc_ms);
        ctx.record("cluster.overhead_ms", wall_ms - inproc_ms);
        ctx.record("cluster.train_share", inproc_ms / wall_ms);
        (6, failed)
    }
}

/// A round's run is whole: complete, not aborted, no wire damage, and
/// exactly the one reassignment the crashed worker causes.
fn status_ok(st: &ClusterStatus) -> bool {
    st.complete && !st.failed && st.decode_errors == 0 && st.leases_reassigned == 1
}
