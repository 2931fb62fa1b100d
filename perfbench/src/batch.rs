//! `batch-banks`: 16 banks of 4096×4 on the sharded executor, one
//! `train_batch` and one `train_batch_durable` per round.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use qtaccel_accel::{
    shard_checkpoint_path, AccelConfig, IndependentPipelines, QLearningAccel, ShardedExecutor,
};
use qtaccel_envs::{ActionSet, PartitionedGrid};
use qtaccel_fixed::Q8_8;
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_telemetry::Histogram;

use crate::common::{corrupt_file, digest, median, mix, Ctx, Round, Workload};

/// 256×256 cells in 4×4 tiles: 16 banks of 64×64 = 4096 states.
const SIDE: u32 = 256;
const TILES: u32 = 4;
const BANKS: u64 = (TILES * TILES) as u64;
/// Samples per call across all banks (an equal split: 1 Mi per bank).
const TOTAL: u64 = BANKS << 20;
/// Per-shard checkpoint cadence of the durable call.
const EVERY: u64 = 1 << 19;
/// Alternating passes of the attribution probe (sequential, 1 worker,
/// every worker): host interference comes in spells of seconds, about
/// the length of one pass, so the probe compares medians.
const PASSES: usize = 5;

pub struct Batch {
    seed: u64,
    accel: AccelConfig,
    pool: Arc<ShardedExecutor>,
    /// Per-bank digests of the cycle-accurate sequential reference.
    reference: Vec<u64>,
    round: u64,
}

fn environment(seed: u64) -> PartitionedGrid {
    let mut rng = Lfsr32::new((mix(seed ^ 0xBA7C) as u32) | 1);
    PartitionedGrid::new(SIDE, SIDE, TILES, TILES, 10, ActionSet::Four, &mut rng)
}

fn digests<S: qtaccel_telemetry::TraceSink>(pipes: &IndependentPipelines<Q8_8, S>) -> Vec<u64> {
    (0..pipes.len())
        .map(|i| digest(&pipes.q_table(i), &pipes.qmax_table(i)))
        .collect()
}

impl Batch {
    pub fn new(seed: u64, workers: usize) -> Self {
        let accel = AccelConfig::default().with_seed(mix(seed ^ 0xBA7C));
        let envs = environment(seed);
        let mut golden = IndependentPipelines::<Q8_8>::new(envs.partitions(), accel);
        golden.train_samples_sequential(envs.partitions(), TOTAL / BANKS);
        Self {
            seed,
            accel,
            pool: Arc::new(ShardedExecutor::new(workers)),
            reference: digests(&golden),
            round: 0,
        }
    }

    /// Restore every bank of a durable run from `dir` into fresh engines:
    /// the tables must match the reference, and the engines' own counters
    /// must add up to the budget.
    fn check_durable(&self, envs: &PartitionedGrid, dir: &Path) -> bool {
        let mut restored = IndependentPipelines::<Q8_8>::new(envs.partitions(), self.accel);
        for i in 0..restored.len() {
            if restored
                .restore_shard_checkpoint(i, &shard_checkpoint_path(dir, i))
                .is_err()
            {
                return false;
            }
        }
        digests(&restored) == self.reference && restored.stats().samples == TOTAL
    }
}

impl Workload for Batch {
    fn round(&mut self, ctx: &mut Ctx, corrupt: bool) -> Round {
        self.round += 1;
        let dir = ctx.scratch(&format!("batch-{}", self.round));
        let r = ctx.round(|ctx| {
            let mut r = Round::default();
            let (envs, build_s) = ctx.span("envs.build", 0, || environment(self.seed));
            ctx.record("envs.build_ms", build_s * 1e3);
            r.setup_s += build_s;
            let ((mut plain, mut durable), dt) = ctx.span("accel.multi.new", 0, || {
                let new = || {
                    IndependentPipelines::<Q8_8>::new(envs.partitions(), self.accel)
                        .with_executor(Arc::clone(&self.pool))
                };
                (new(), new())
            });
            r.setup_s += dt;

            let (_, plain_s) = ctx.span("accel.multi.train_batch", 0, || {
                plain.train_batch(envs.partitions(), TOTAL)
            });
            let (sealed, durable_s) = ctx.span("accel.multi.durable", 0, || {
                durable.train_batch_durable(envs.partitions(), TOTAL, &dir, EVERY)
            });
            ctx.record("accel.multi.train_batch_ms", plain_s * 1e3);
            ctx.record("accel.multi.durable_ms", durable_s * 1e3);
            ctx.record(
                "accel.multi.durable_overhead_ms",
                (durable_s - plain_s) * 1e3,
            );
            r.train_s = plain_s + durable_s;
            r.samples = 2 * TOTAL;

            ctx.span("check", 0, || {
                r.calls = 2;
                let stats = plain.stats();
                if digests(&plain) != self.reference || stats.samples != TOTAL {
                    r.failed += 1;
                }
                r.sim_samples = stats.samples;
                r.sim_cycles = stats.cycles;
                if corrupt {
                    corrupt_file(&shard_checkpoint_path(&dir, 0));
                }
                if sealed.is_err() || !self.check_durable(&envs, &dir) {
                    r.failed += 1;
                }
            });
            r
        });
        let _ = std::fs::remove_dir_all(&dir);
        r
    }

    fn probe(&mut self, ctx: &mut Ctx) -> (u64, u64) {
        let envs = environment(self.seed);
        let fresh = || IndependentPipelines::<Q8_8>::new(envs.partitions(), self.accel);
        // The same budgets through train_batch on 1 and on every worker.
        let timed = |workers: usize| {
            let pool = Arc::new(ShardedExecutor::new_instrumented(workers));
            let mut pipes = fresh().with_executor(Arc::clone(&pool));
            let t0 = Instant::now();
            pipes.train_batch(envs.partitions(), TOTAL);
            let dt = t0.elapsed().as_secs_f64();
            (dt, pool, digests(&pipes) == self.reference)
        };
        // The executor metrics are the last `nproc`-worker pass's.
        let (mut seq_s, mut one_s, mut all_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut failed = 0;
        let mut pool = None;
        for _ in 0..PASSES {
            // Bare sequential fast path: the batch layer's floor.
            let mut seq = fresh();
            let t0 = Instant::now();
            seq.train_samples_fast_sequential(envs.partitions(), TOTAL / BANKS);
            seq_s.push(t0.elapsed().as_secs_f64());
            let (one, _, one_ok) = timed(1);
            let (all, all_pool, all_ok) = timed(ctx.workers);
            one_s.push(one);
            all_s.push(all);
            pool = Some(all_pool);
            let seq_ok = digests(&seq) == self.reference;
            failed += [one_ok, all_ok, seq_ok].iter().filter(|ok| !**ok).count() as u64;
        }
        let one_s = median(&one_s);
        ctx.record("accel.multi.overhead_ratio", one_s / median(&seq_s));
        ctx.record("accel.executor.speedup", one_s / median(&all_s));
        let pool = pool.expect("the probe runs at least one pass");
        let metrics = pool.metrics().expect("instrumented pool carries metrics");
        let snaps = metrics.worker_snapshots();
        for w in 0..crate::common::MAX_WORKERS {
            let s = snaps.get(w);
            ctx.record(
                format!("accel.executor.busy_ns.w{w}"),
                s.map_or(0, |s| s.busy_ns) as f64,
            );
            ctx.record(
                format!("accel.executor.idle_ns.w{w}"),
                s.map_or(0, |s| s.idle_ns) as f64,
            );
            ctx.record(
                format!("accel.executor.chunks.w{w}"),
                s.map_or(0, |s| s.chunks) as f64,
            );
        }
        let q = |h: &Histogram, p: f64| h.quantile(p) as f64;
        let (wait, service) = (metrics.queue_wait_ns(), metrics.chunk_service_ns());
        ctx.record("accel.executor.queue_wait_ns_p50", q(&wait, 0.5));
        ctx.record("accel.executor.queue_wait_ns_p99", q(&wait, 0.99));
        ctx.record("accel.executor.chunk_service_ns_p50", q(&service, 0.5));
        ctx.record("accel.executor.chunk_service_ns_p99", q(&service, 0.99));
        ctx.record(
            "accel.executor.queue_depth_peak",
            metrics.queue_depth_peak() as f64,
        );

        // One bank's checkpoint write (with fsync) and restore.
        let dir = ctx.scratch("checkpoint-probe");
        let path = dir.join("bank0.ckpt");
        let env = envs.partition(0);
        let mut bank = QLearningAccel::<Q8_8>::new(env, self.accel);
        bank.train_samples_fast(env, TOTAL / BANKS);
        let mut save = Vec::new();
        let mut restore = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            let saved = bank.save_checkpoint(&path);
            save.push(t0.elapsed().as_secs_f64() * 1e3);
            let mut fresh_bank = QLearningAccel::<Q8_8>::new(env, self.accel);
            let t0 = Instant::now();
            let restored = fresh_bank.restore_checkpoint(&path);
            restore.push(t0.elapsed().as_secs_f64() * 1e3);
            if saved.is_err()
                || restored.is_err()
                || fresh_bank.q_table() != bank.q_table()
                || fresh_bank.stats() != bank.stats()
            {
                failed += 1;
            }
        }
        ctx.record("accel.checkpoint.save_ms", median(&save));
        ctx.record("accel.checkpoint.restore_ms", median(&restore));
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        ctx.record("accel.checkpoint.bytes", bytes as f64);
        let _ = std::fs::remove_dir_all(&dir);
        (3 * PASSES as u64 + 5, failed)
    }
}
