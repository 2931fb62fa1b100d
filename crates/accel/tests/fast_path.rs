//! Bit-exactness of `train_samples_fast` against `train_samples`, the
//! cycle-accurate reference: same Q-table, same Qmax table, same
//! CycleStats and counters, across both algorithms, every hazard mode,
//! both Qmax semantics, the 16- and 32-bit datapaths (plus `f64`
//! values) and randomized grid shapes — plus free interleaving of the
//! entry points on one pipeline instance (enumerated, and as a property
//! over random configurations and switch points), and the batch routes
//! (`train_batch` with tiny, uneven and multi-chunk budgets) against
//! per-bank cycle-accurate references.
//!
//! The pipeline writes its stage body once over two in-flight-write
//! models, and `train_samples_fast` routes each call: to the
//! window-register loop wherever a config is eligible; else to the
//! delayed-commit model (the reference itself) for an event sink or a
//! fault runtime; else to the immediate-commit model, which a
//! counter-bearing sink and every non-`Forwarding` or exact-scan config
//! reach. Every route must match the reference bit for bit.

use std::sync::Arc;

use proptest::prelude::*;
use qtaccel_accel::config::{AccelConfig, HazardMode};
use qtaccel_accel::multi::IndependentPipelines;
use qtaccel_accel::pipeline::AccelPipeline;
use qtaccel_accel::{FaultConfig, FaultStats, ShardedExecutor};
use qtaccel_core::policy::Policy;
use qtaccel_core::qtable::{MaxMode, QTable, QmaxTable};
use qtaccel_core::trainer::TrainerConfig;
use qtaccel_envs::{ActionSet, GridWorld};
use qtaccel_fixed::{QValue, QuantPolicy, Q16_16, Q8_8};
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_hdl::pipeline::CycleStats;
use qtaccel_hdl::rng::RngSource;
use qtaccel_telemetry::{CounterBank, CountersOnly, NullSink, TraceSink};

const HAZARDS: [HazardMode; 3] = [
    HazardMode::Forwarding,
    HazardMode::StallOnly,
    HazardMode::Ignore,
];

/// A grid whose shape is derived from the seed: 2..=9 cells per side,
/// four- or eight-action set, goal in the far corner.
fn random_grid(rng: &mut Lfsr32) -> GridWorld {
    let w = 2 + rng.below(8);
    let h = 2 + rng.below(8);
    let actions = if rng.below(2) == 0 {
        ActionSet::Four
    } else {
        ActionSet::Eight
    };
    GridWorld::builder(w, h)
        .goal(w - 1, h - 1)
        .actions(actions)
        .build()
}

/// `k` grids of different shapes, so a batch mixes state spaces and
/// action-set widths.
fn grid_group(seed: u32, k: usize) -> Vec<GridWorld> {
    let mut rng = Lfsr32::new(seed.wrapping_mul(0x9E37_79B9) | 1);
    (0..k).map(|_| random_grid(&mut rng)).collect()
}

/// Everything the equivalence tables compare after a run.
#[derive(Debug, PartialEq)]
struct Outcome<V> {
    stats: CycleStats,
    q: QTable<V>,
    qmax: QmaxTable<V>,
    faults: Option<FaultStats>,
    counters: CounterBank,
}

fn outcome<V: QValue, S: TraceSink>(p: &AccelPipeline<V, S>) -> Outcome<V> {
    Outcome {
        stats: p.stats(),
        q: p.q_table(),
        qmax: p.qmax_table(),
        faults: p.fault_stats(),
        counters: p.counters().clone(),
    }
}

/// Train a fresh pipeline for `n` samples, cycle-accurately or through
/// the fast path, with `sink` attached and an optional fault runtime.
fn train<V: QValue, S: TraceSink>(
    g: &GridWorld,
    cfg: AccelConfig,
    sink: S,
    faults: Option<FaultConfig>,
    fast: bool,
    n: u64,
) -> Outcome<V> {
    let mut p = AccelPipeline::<V, S>::with_sink(g, cfg, 0, sink);
    if let Some(fc) = faults {
        p.enable_faults(fc);
    }
    if fast {
        p.train_samples_fast(g, n);
    } else {
        p.train_samples(g, n);
    }
    outcome(&p)
}

/// Cycle-accurate ≡ fast path (window-register loop where eligible),
/// both plain and behind a counter-bearing sink (which must reach the
/// immediate-commit model and keep every counter), and under a fault
/// runtime with either sink, strike for strike.
fn assert_fast_matches<V: QValue>(g: &GridWorld, cfg: AccelConfig, n: u64, label: &str) {
    let slow = train::<V, _>(g, cfg, NullSink, None, false, n);
    let fast = train::<V, _>(g, cfg, NullSink, None, true, n);
    assert_eq!(slow, fast, "{label}: fast path diverged");
    let slow_sink = train::<V, _>(g, cfg, CountersOnly, None, false, n);
    let fast_sink = train::<V, _>(g, cfg, CountersOnly, None, true, n);
    assert_eq!(
        slow_sink, fast_sink,
        "{label}: counter-sink fast path diverged"
    );
    let fc = Some(FaultConfig::default().with_seu_rate(1e-3));
    let faulty = train::<V, _>(g, cfg, NullSink, fc, false, n);
    assert!(
        faulty.faults.is_some_and(|f| f.injected_q > 0),
        "{label}: no strikes"
    );
    let fast_faulty = train::<V, _>(g, cfg, NullSink, fc, true, n);
    assert_eq!(
        faulty, fast_faulty,
        "{label}: fault-runtime fast path diverged"
    );
    let faulty_sink = train::<V, _>(g, cfg, CountersOnly, fc, false, n);
    let fast_faulty_sink = train::<V, _>(g, cfg, CountersOnly, fc, true, n);
    assert_eq!(
        faulty_sink, fast_faulty_sink,
        "{label}: fault-runtime counter-sink fast path diverged"
    );
}

#[test]
fn fast_path_is_bit_exact_q_learning_all_hazards() {
    for seed in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
        let mut shape_rng = Lfsr32::new(seed.wrapping_mul(0x9E37_79B9) as u32 | 1);
        let g = random_grid(&mut shape_rng);
        for hazard in HAZARDS {
            let cfg = AccelConfig::default().with_seed(seed).with_hazard(hazard);
            assert_fast_matches::<Q8_8>(&g, cfg, 12_000, &format!("seed {seed} {hazard:?}"));
        }
    }
}

/// A fault campaign's result must not depend on the entry point. On
/// this hazard-dense grid a strike can land on a word that a pending
/// write later commits over; an executor that commits at issue keeps
/// the strike instead, and the Q-tables diverge.
#[test]
fn fault_campaign_is_entry_point_independent() {
    let g = GridWorld::builder(3, 3).goal(2, 2).build();
    for hazard in HAZARDS {
        let cfg = AccelConfig::default().with_seed(0xF4).with_hazard(hazard);
        assert_fast_matches::<Q8_8>(&g, cfg, 40_000, &format!("3x3 seed 0xF4 {hazard:?}"));
    }
}

#[test]
fn fast_path_is_bit_exact_sarsa_all_hazards() {
    for seed in [4u64, 6, 7, 9, 11, 17, 23, 42] {
        let mut shape_rng = Lfsr32::new(seed.wrapping_mul(0x6C62_272E) as u32 | 1);
        let g = random_grid(&mut shape_rng);
        let eps = 0.05 + (seed % 5) as f64 * 0.1;
        for hazard in HAZARDS {
            let mut cfg = AccelConfig::default().with_seed(seed).with_hazard(hazard);
            cfg.trainer = TrainerConfig::sarsa(eps).with_seed(seed);
            assert_fast_matches::<Q8_8>(&g, cfg, 12_000, &format!("seed {seed} {hazard:?}"));
        }
    }
}

#[test]
fn fast_path_is_bit_exact_exact_scan_and_policies() {
    // Exercise the multi-cycle row scan and every synthesizable policy
    // pairing, including the stage-2 random-read path, at both datapath
    // widths.
    let policies: [(Policy, Policy, bool); 4] = [
        (Policy::Random, Policy::Greedy, false),
        (Policy::Greedy, Policy::Greedy, false),
        (
            Policy::EpsilonGreedy { epsilon: 0.3 },
            Policy::Random,
            false,
        ),
        (
            Policy::EpsilonGreedy { epsilon: 0.15 },
            Policy::EpsilonGreedy { epsilon: 0.15 },
            true,
        ),
    ];
    for seed in [19u64, 31, 47] {
        let mut shape_rng = Lfsr32::new((seed as u32).wrapping_mul(2_654_435_761) | 1);
        let g = random_grid(&mut shape_rng);
        for hazard in HAZARDS {
            for max_mode in [MaxMode::QmaxArray, MaxMode::ExactScan] {
                for (behavior, update, fwd_next) in policies {
                    let mut cfg = AccelConfig::default()
                        .with_seed(seed)
                        .with_hazard(hazard)
                        .with_max_mode(max_mode);
                    cfg.trainer.behavior = behavior;
                    cfg.trainer.update = update;
                    cfg.trainer.forward_next_action = fwd_next;
                    let label =
                        format!("seed {seed} {hazard:?} {max_mode:?} {behavior:?}/{update:?}");
                    assert_eq!(
                        train::<Q16_16, _>(&g, cfg, NullSink, None, false, 6_000),
                        train::<Q16_16, _>(&g, cfg, NullSink, None, true, 6_000),
                        "Q16_16 {label}"
                    );
                    assert_eq!(
                        train::<Q8_8, _>(&g, cfg, NullSink, None, false, 6_000),
                        train::<Q8_8, _>(&g, cfg, NullSink, None, true, 6_000),
                        "Q8_8 {label}"
                    );
                }
            }
        }
    }
}

/// slow → fast → slow → fast on one instance must equal a pure
/// cycle-accurate run.
fn assert_mixed_matches_pure<V: QValue>(g: &GridWorld, cfg: AccelConfig, label: &str) {
    let mut pure = AccelPipeline::<V>::new(g, cfg, 0);
    let mut mixed = AccelPipeline::<V>::new(g, cfg, 0);
    pure.train_samples(g, 9_000);
    mixed.train_samples(g, 2_000);
    mixed.train_samples_fast(g, 3_000);
    mixed.train_samples(g, 1_000);
    mixed.train_samples_fast(g, 3_000);
    assert_eq!(outcome(&pure), outcome(&mixed), "{label}");
}

#[test]
fn executors_interleave_freely() {
    // The entry/exit protocols preserve in-flight state exactly
    // (pending writes, RNG registers, the SARSA carry) at every width.
    let g = GridWorld::builder(3, 5).goal(2, 4).build();
    for hazard in HAZARDS {
        let ql = AccelConfig::default().with_seed(97).with_hazard(hazard);
        let mut sarsa = ql;
        sarsa.trainer = TrainerConfig::sarsa(0.2).with_seed(97);
        for (algo, cfg) in [("q-learning", ql), ("sarsa", sarsa)] {
            assert_mixed_matches_pure::<Q8_8>(&g, cfg, &format!("Q8_8 {algo} {hazard:?}"));
            assert_mixed_matches_pure::<Q16_16>(&g, cfg, &format!("Q16_16 {algo} {hazard:?}"));
            assert_mixed_matches_pure::<f64>(&g, cfg, &format!("f64 {algo} {hazard:?}"));
        }
    }
}

#[test]
fn fast_path_zero_samples_is_inert() {
    let g = GridWorld::builder(4, 4).goal(3, 3).build();
    let ql = AccelConfig::default();
    let mut sarsa = ql;
    sarsa.trainer = TrainerConfig::sarsa(0.1);
    for cfg in [ql, sarsa] {
        let mut a = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
        a.train_samples(&g, 500);
        let before = outcome(&a);
        a.train_samples_fast(&g, 0);
        assert_eq!(before, outcome(&a));
    }
}

#[test]
fn independent_pipelines_fast_matches_slow() {
    // Each row's banks must equal per-bank cycle-accurate pipelines run
    // for the deterministic split of the row's total: bank i gets
    // total/P, plus one remainder sample for i < total % P.
    let envs = grid_group(909, 4);
    let cfg = AccelConfig::default().with_seed(41);
    let two = Arc::new(ShardedExecutor::new(2));
    let rows: [(&str, u64, Option<&Arc<ShardedExecutor>>); 4] = [
        ("batch, even total, global pool", 4 * 8_000, None),
        ("batch, total below bank count", 3, None),
        ("batch, uneven total", 4 * 2_500 + 3, None),
        // Budgets above the ~64K-sample chunk make the work queue
        // re-enter every shard several times.
        (
            "batch, chunked re-entry on 2 workers",
            4 * 150_000,
            Some(&two),
        ),
    ];
    for (label, total, pool) in rows {
        let mut fast = IndependentPipelines::<Q8_8>::new(&envs, cfg);
        if let Some(pool) = pool {
            fast = fast.with_executor(Arc::clone(pool));
        }
        fast.train_batch(&envs, total);
        let p = envs.len() as u64;
        let mut merged = CycleStats::default();
        for (i, env) in envs.iter().enumerate() {
            let mut bank = AccelPipeline::<Q8_8>::new(env, cfg, i as u64);
            bank.train_samples(env, total / p + u64::from((i as u64) < total % p));
            assert_eq!(
                bank.q_table(),
                fast.q_table(i),
                "{label}: bank {i} Q-table diverged"
            );
            assert_eq!(
                bank.qmax_table(),
                fast.qmax_table(i),
                "{label}: bank {i} Qmax diverged"
            );
            merged.merge(&bank.stats());
            // Parallel banks fill concurrently.
            merged.fill_bubbles = bank.stats().fill_bubbles;
        }
        assert_eq!(merged, fast.stats(), "{label}: merged CycleStats diverged");
    }
}

#[test]
fn fast_path_matches_golden_reference() {
    // Transitivity check straight to the sequential software trainer.
    let g = GridWorld::builder(8, 8).goal(7, 7).build();
    for seed in [1u64, 7, 42] {
        let mut hw = AccelPipeline::<Q8_8>::new(&g, AccelConfig::default().with_seed(seed), 0);
        let mut sw = qtaccel_core::trainer::RefTrainer::<Q8_8, _>::new(
            g.clone(),
            TrainerConfig::q_learning().with_seed(seed),
        );
        hw.train_samples_fast(&g, 20_000);
        sw.run_samples(20_000);
        assert_eq!(
            hw.q_table().as_slice(),
            sw.q().as_slice(),
            "seed {seed}: fast path diverged from sequential reference"
        );
    }
}

/// Train `cfg` for `total` samples, alternating between the entry points
/// at each of `switches` (sample offsets, any order), starting with the
/// fast path when `fast_first`. An empty switch list is a pure run.
fn switching_run<S: TraceSink>(
    g: &GridWorld,
    cfg: AccelConfig,
    quant: Option<QuantPolicy>,
    sink: S,
    total: u64,
    switches: &[u64],
    fast_first: bool,
) -> Outcome<Q8_8> {
    let mut p = AccelPipeline::<Q8_8, S>::with_sink(g, cfg, 0, sink);
    if let Some(q) = quant {
        p.enable_quant(q);
    }
    let mut cuts: Vec<u64> = switches.iter().map(|&c| c.min(total)).collect();
    cuts.sort_unstable();
    cuts.push(total);
    let (mut done, mut fast) = (0, fast_first);
    for cut in cuts {
        if fast {
            p.train_samples_fast(g, cut - done);
        } else {
            p.train_samples(g, cut - done);
        }
        done = cut;
        fast = !fast;
    }
    outcome(&p)
}

/// Policy unit `k`: Random, Greedy or ε-greedy.
fn policy(k: usize, epsilon: f64) -> Policy {
    match k {
        0 => Policy::Random,
        1 => Policy::Greedy,
        _ => Policy::EpsilonGreedy { epsilon },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random configurations with 1–3 random switch points between
    /// `train_samples` and `train_samples_fast` end with exactly the
    /// outcome of a pure `train_samples` run.
    #[test]
    fn random_switching_matches_cycle_engine(
        seed in 1u64..1_000_000,
        (w, h, eight) in (2u32..=9, 2u32..=9, any::<bool>()),
        (hazard, exact_scan) in (0usize..3, any::<bool>()),
        (behavior, update, epsilon) in (0usize..3, 0usize..3, 0.05f64..0.95),
        (forward_next, q8, counters) in (any::<bool>(), any::<bool>(), any::<bool>()),
        (switches, fast_first) in (prop::collection::vec(0u64..6_000, 1..4), any::<bool>()),
    ) {
        let actions = if eight { ActionSet::Eight } else { ActionSet::Four };
        let g = GridWorld::builder(w, h).goal(w - 1, h - 1).actions(actions).build();
        let max_mode = if exact_scan { MaxMode::ExactScan } else { MaxMode::QmaxArray };
        let mut cfg = AccelConfig::default()
            .with_seed(seed)
            .with_hazard(HAZARDS[hazard])
            .with_max_mode(max_mode);
        cfg.trainer.behavior = policy(behavior, epsilon);
        cfg.trainer.update = policy(update, epsilon);
        cfg.trainer.forward_next_action = forward_next;
        let quant = q8.then(QuantPolicy::q8);
        let total = 6_000;
        if counters {
            prop_assert_eq!(
                switching_run(&g, cfg, quant, CountersOnly, total, &[], false),
                switching_run(&g, cfg, quant, CountersOnly, total, &switches, fast_first)
            );
        } else {
            prop_assert_eq!(
                switching_run(&g, cfg, quant, NullSink, total, &[], false),
                switching_run(&g, cfg, quant, NullSink, total, &switches, fast_first)
            );
        }
    }
}
