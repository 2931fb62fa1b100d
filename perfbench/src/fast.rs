//! `fast-table1`: one pipeline on one thread through the fast executor,
//! at the paper's Table I sizes (|S| = 16384 and 262144, |A| = 8).

use qtaccel_accel::{AccelConfig, AccelPipeline};
use qtaccel_envs::{ActionSet, GridWorld};
use qtaccel_fixed::Q8_8;
use qtaccel_hdl::pipeline::CycleStats;

use crate::common::{mix, terrains, Ctx, Engine, Round, Workload};

/// Grid sides: 128 (|S| = 16384, fits the L2) and 512 (|S| = 262144,
/// spills into the L3).
const SIDES: [u32; 2] = [128, 512];

pub struct Cfg {
    pub name: &'static str,
    sarsa: bool,
    q8: bool,
    /// Index into `SIDES`.
    size: usize,
    /// Samples per call: the fast path engages at n >= |S|·|A|.
    budget: u64,
}

const fn cfg(name: &'static str, sarsa: bool, q8: bool, size: usize) -> Cfg {
    Cfg {
        name,
        sarsa,
        q8,
        size,
        budget: 1 << (21 + size),
    }
}

pub const CFGS: [Cfg; 6] = [
    cfg("ql16-16k", false, false, 0),
    cfg("ql8-16k", false, true, 0),
    cfg("sarsa16-16k", true, false, 0),
    cfg("ql16-256k", false, false, 1),
    cfg("ql8-256k", false, true, 1),
    cfg("sarsa16-256k", true, false, 1),
];

/// Architectural bytes one sample touches on the fused fast path: the
/// packed transition/reward word, the Q read-modify-write, the Qmax
/// read-modify-write and the update policy's Qmax read. The packed q8
/// image reads a 4-byte transition word instead of 8.
pub fn bytes_per_sample(q8: bool) -> f64 {
    let q = std::mem::size_of::<Q8_8>() as f64;
    let qmax = std::mem::size_of::<(Q8_8, qtaccel_envs::Action)>() as f64;
    let word = if q8 { 4.0 } else { 8.0 };
    word + 2.0 * q + 3.0 * qmax
}

fn engine(cfg: &Cfg, env: &GridWorld, accel: AccelConfig) -> Engine {
    let mut e = Engine::new(cfg.sarsa, env, accel);
    if cfg.q8 {
        e.enable_q8();
    }
    e
}

pub struct Fast {
    seed: u64,
    accel: AccelConfig,
    /// Cycle-accurate digest and stats per config (the independent
    /// reference every fast call is compared with).
    reference: Vec<(u64, CycleStats)>,
}

impl Fast {
    pub fn new(seed: u64) -> Self {
        let accel = AccelConfig::default().with_seed(mix(seed ^ 0xFA57));
        let envs = terrains(seed, SIDES, ActionSet::Eight);
        let reference = CFGS
            .iter()
            .map(|cfg| {
                let env = &envs[cfg.size];
                let mut e = engine(cfg, env, accel);
                let stats = e.train(env, cfg.budget, false);
                (e.digest(), stats)
            })
            .collect();
        Self {
            seed,
            accel,
            reference,
        }
    }
}

impl Workload for Fast {
    fn round(&mut self, ctx: &mut Ctx, corrupt: bool) -> Round {
        ctx.round(|ctx| {
            let mut r = Round::default();
            let (envs, build_s) = ctx.span("envs.build", 0, || {
                terrains(self.seed, SIDES, ActionSet::Eight)
            });
            ctx.record("envs.build_ms", build_s * 1e3);
            r.setup_s += build_s;
            let mut engines = Vec::with_capacity(CFGS.len());
            for (i, cfg) in CFGS.iter().enumerate() {
                let env = &envs[cfg.size];
                let (e, dt) = ctx.span("accel.pipeline.new", i as u32, || {
                    engine(cfg, env, self.accel)
                });
                ctx.record(format!("accel.pipeline.new_ms.{}", cfg.name), dt * 1e3);
                r.setup_s += dt;
                engines.push(e);
            }
            let mut stats = Vec::with_capacity(CFGS.len());
            for (i, (cfg, e)) in CFGS.iter().zip(engines.iter_mut()).enumerate() {
                let env = &envs[cfg.size];
                let (s, dt) = ctx.span("accel.pipeline.fast", i as u32, || {
                    e.train(env, cfg.budget, true)
                });
                let ns = dt * 1e9 / cfg.budget as f64;
                ctx.record(
                    format!("accel.pipeline.fast.ns_per_sample.{}", cfg.name),
                    ns,
                );
                ctx.record(
                    format!("accel.pipeline.fast.gbps.{}", cfg.name),
                    bytes_per_sample(cfg.q8) / ns,
                );
                r.train_s += dt;
                r.samples += cfg.budget;
                stats.push(s);
            }
            ctx.span("check", 0, || {
                for (i, (cfg, e)) in CFGS.iter().zip(&engines).enumerate() {
                    let mut got = e.digest();
                    if corrupt && i == 0 {
                        got ^= 1;
                    }
                    let (want, want_stats) = self.reference[i];
                    r.calls += 1;
                    if got != want || stats[i].samples != cfg.budget || stats[i] != want_stats {
                        r.failed += 1;
                    }
                    r.sim_samples += stats[i].samples;
                    r.sim_cycles += stats[i].cycles;
                }
            });
            r
        })
    }

    fn probe(&mut self, ctx: &mut Ctx) -> (u64, u64) {
        let envs = terrains(self.seed, SIDES, ActionSet::Eight);
        for cfg in &CFGS {
            let pipe = AccelPipeline::<Q8_8>::new(&envs[cfg.size], self.accel, 0);
            ctx.record(
                format!("accel.pipeline.slab_bytes.{}", cfg.name),
                pipe.fast_slab_bytes() as f64,
            );
        }
        ctx.record(
            "accel.pipeline.fast.bytes_per_sample.q16",
            bytes_per_sample(false),
        );
        ctx.record(
            "accel.pipeline.fast.bytes_per_sample.q8",
            bytes_per_sample(true),
        );
        (0, 0)
    }
}
