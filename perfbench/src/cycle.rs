//! `cycle-hazard`: the cycle-accurate engine (`train_samples`) in every
//! hazard mode, at a hazard-dense and a hazard-sparse table size.

use std::time::Instant;

use qtaccel_accel::{AccelConfig, HazardMode};
use qtaccel_core::trainer::{RefTrainer, TrainerConfig};
use qtaccel_envs::{ActionSet, GridWorld};
use qtaccel_fixed::Q8_8;
use qtaccel_hdl::pipeline::CycleStats;

use crate::common::{digest, median, mix, terrains, Ctx, Engine, Round, Workload, EPSILON};

/// Grid sides: 8 (|S| = 64, frequent RAW hazards) and 128 (|S| = 16384,
/// rare hazards); four actions either way.
const SIDES: [u32; 2] = [8, 128];

pub struct Op {
    pub name: &'static str,
    sarsa: bool,
    hazard: HazardMode,
    /// Index into `SIDES`.
    size: usize,
    budget: u64,
}

const fn op(name: &'static str, sarsa: bool, hazard: HazardMode, size: usize) -> Op {
    Op {
        name,
        sarsa,
        hazard,
        size,
        budget: 1 << (17 + size),
    }
}

pub const OPS: [Op; 8] = [
    op("ql-fwd-64", false, HazardMode::Forwarding, 0),
    op("ql-stall-64", false, HazardMode::StallOnly, 0),
    op("ql-ignore-64", false, HazardMode::Ignore, 0),
    op("sarsa-fwd-64", true, HazardMode::Forwarding, 0),
    op("ql-fwd-16k", false, HazardMode::Forwarding, 1),
    op("ql-stall-16k", false, HazardMode::StallOnly, 1),
    op("ql-ignore-16k", false, HazardMode::Ignore, 1),
    op("sarsa-fwd-16k", true, HazardMode::Forwarding, 1),
];

pub struct Cycle {
    seed: u64,
    accel: AccelConfig,
    /// Independent digest per op: `RefTrainer` for Forwarding/StallOnly,
    /// the fast path for Ignore (whose stale reads no sequential
    /// reference reproduces). Ignore also pins the fast path's stats.
    reference: Vec<(u64, Option<CycleStats>)>,
    /// `RefTrainer` digest per op (same algorithm, size and budget).
    golden: Vec<u64>,
}

/// The golden sequential trainer for `op`'s algorithm on `env`.
fn golden(op: &Op, env: &GridWorld, accel: AccelConfig) -> RefTrainer<Q8_8, GridWorld> {
    let trainer = if op.sarsa {
        TrainerConfig::sarsa(EPSILON)
    } else {
        TrainerConfig::q_learning()
    };
    RefTrainer::new(env.clone(), trainer.with_seed(accel.trainer.seed))
}

impl Cycle {
    pub fn new(seed: u64) -> Self {
        let accel = AccelConfig::default().with_seed(mix(seed ^ 0xC1C1));
        let envs = terrains(seed, SIDES, ActionSet::Four);
        let mut reference = Vec::new();
        let mut goldens = Vec::new();
        for op in &OPS {
            let env = &envs[op.size];
            let mut g = golden(op, env, accel);
            g.run_samples(op.budget);
            let g = digest(g.q(), g.qmax());
            goldens.push(g);
            reference.push(if op.hazard == HazardMode::Ignore {
                let mut fast = Engine::new(op.sarsa, env, accel.with_hazard(op.hazard));
                let stats = fast.train(env, op.budget, true);
                (fast.digest(), Some(stats))
            } else {
                (g, None)
            });
        }
        Self {
            seed,
            accel,
            reference,
            golden: goldens,
        }
    }
}

impl Workload for Cycle {
    fn round(&mut self, ctx: &mut Ctx, corrupt: bool) -> Round {
        ctx.round(|ctx| {
            let mut r = Round::default();
            let (envs, build_s) = ctx.span("envs.build", 0, || {
                terrains(self.seed, SIDES, ActionSet::Four)
            });
            ctx.record("envs.build_ms", build_s * 1e3);
            r.setup_s += build_s;
            let mut engines = Vec::with_capacity(OPS.len());
            for (i, op) in OPS.iter().enumerate() {
                let accel = self.accel.with_hazard(op.hazard);
                let (e, dt) = ctx.span("accel.pipeline.new", i as u32, || {
                    Engine::new(op.sarsa, &envs[op.size], accel)
                });
                r.setup_s += dt;
                engines.push(e);
            }
            let mut stats = Vec::with_capacity(OPS.len());
            for (i, (op, e)) in OPS.iter().zip(engines.iter_mut()).enumerate() {
                let (s, dt) = ctx.span("accel.pipeline.cycle", i as u32, || {
                    e.train(&envs[op.size], op.budget, false)
                });
                let ns = dt * 1e9 / op.budget as f64;
                ctx.record(
                    format!("accel.pipeline.cycle.ns_per_sample.{}", op.name),
                    ns,
                );
                r.train_s += dt;
                r.samples += op.budget;
                stats.push(s);
            }
            ctx.span("check", 0, || {
                for (i, (op, e)) in OPS.iter().zip(&engines).enumerate() {
                    let s = stats[i];
                    let mut got = e.digest();
                    if corrupt && i == 0 {
                        got ^= 1;
                    }
                    let (want, want_stats) = self.reference[i];
                    r.calls += 1;
                    if got != want || s.samples != op.budget || want_stats.is_some_and(|w| w != s) {
                        r.failed += 1;
                    }
                    r.sim_samples += s.samples;
                    r.sim_cycles += s.cycles;
                }
            });
            for (op, s) in OPS.iter().zip(&stats) {
                ctx.record(format!("sim.stall_cycles.{}", op.name), s.stalls as f64);
                ctx.record(format!("sim.forwards.{}", op.name), s.forwards as f64);
            }
            let bubbles: u64 = stats.iter().map(|s| s.fill_bubbles).sum();
            ctx.record("sim.fill_bubbles", bubbles as f64);
            r
        })
    }

    fn probe(&mut self, ctx: &mut Ctx) -> (u64, u64) {
        // The golden `RefTrainer` on each op, median of three checked runs,
        // against the cycle-accurate engine's median over the timed rounds.
        let envs = terrains(self.seed, SIDES, ActionSet::Four);
        let mut failed = 0;
        for (i, op) in OPS.iter().enumerate() {
            let mut ns = Vec::new();
            for _ in 0..3 {
                let mut g = golden(op, &envs[op.size], self.accel);
                let t0 = Instant::now();
                g.run_samples(op.budget);
                ns.push(t0.elapsed().as_secs_f64() * 1e9 / op.budget as f64);
                if digest(g.q(), g.qmax()) != self.golden[i] {
                    failed += 1;
                }
            }
            let ref_ns = median(&ns);
            ctx.record(format!("core.ref.ns_per_sample.{}", op.name), ref_ns);
            let cycle = format!("accel.pipeline.cycle.ns_per_sample.{}", op.name);
            if let Some(cycle_ns) = ctx.layers().get(&cycle).map(|v| median(v)) {
                ctx.record(
                    format!("accel.pipeline.cycle.ref_ratio.{}", op.name),
                    cycle_ns / ref_ns,
                );
            }
        }
        (3 * OPS.len() as u64, failed)
    }
}
