//! A *structural* model of the Q-Learning pipeline, built from the
//! `qtaccel-hdl` primitives the way an RTL designer would wire them:
//! explicit [`Bram`] instances with port assignments, per-stage pipeline
//! registers, forwarding muxes, and write-history registers.
//!
//! The behavioral model in [`crate::pipeline`] tracks commit times with
//! queues — fast and convenient, but its fidelity rests on analysis. This
//! module re-implements the same micro-architecture *positionally*, one
//! clock at a time, and the test suite proves the two are **bit-exact**
//! over long runs. Where the behavioral model abstracts, this one has to
//! make the hardware decisions explicit, which surfaced a structural
//! requirement the paper does not spell out:
//!
//! * **The Qmax array needs three accesses per cycle** — the stage-2
//!   greedy read of `Qmax[Sₜ₊₁]`, the read-modify-write *read* of
//!   `Qmax[Sₜ]`, and the stage-4 conditional write. True dual-port BRAM
//!   offers two ports, so the array must be **replicated** (both replicas
//!   written every update; one serves each read stream) — a standard
//!   FPGA many-port idiom whose BRAM cost the resource model includes
//!   implicitly via the Qmax block count (a second copy of the |S|-entry
//!   array is small next to the |S|·|A| Q/R tables).
//!
//! ## Port map
//!
//! | memory   | port A                   | port B              |
//! |----------|--------------------------|---------------------|
//! | Q        | stage-1 read `Q(Sₜ,Aₜ)`  | stage-4 write       |
//! | R        | stage-1 read `R(Sₜ,Aₜ)`  | —                   |
//! | Qmax (A) | stage-2 read `[Sₜ₊₁]`    | stage-4 write       |
//! | Qmax (B) | stage-2 read `[Sₜ]` (RMW)| stage-4 write       |
//!
//! ## Forwarding network
//!
//! With reads issued 2–3 cycles before their operands are consumed, the
//! values written by the previous one, two and three iterations are not
//! yet visible in BRAM. The muxes below select, youngest first, from:
//! the stage-4 register (iteration i−1), write-history register W1
//! (i−2), W2 (i−3), then the BRAM-latched word.
//!
//! Only the Q-Learning fixture is modelled (random behaviour, greedy via
//! Qmax) — enough to pin the behavioral model; SARSA differs only in the
//! selection units, which the behavioral equivalence tests already cover
//! against the software reference. The port analysis for SARSA is still
//! worth recording: its ε-greedy *explore* path reads `Q(Sₜ₊₁, Aᵣₐₙ𝒹)`
//! in stage 2, which would need a third Q port — except that on-policy
//! action forwarding makes iteration i+1's stage-1 read redundant
//! (`Q(Sₜ₊₁, Aₜ₊₁)` is exactly the value stage 2 of iteration i just
//! obtained), freeing the stage-1 read port for the explore read. The
//! paper's §V-B forwarding sentence is therefore not just a convenience:
//! it is what keeps the SARSA engine within dual-port BRAM limits.

use crate::config::AccelConfig;
use qtaccel_core::policy::Policy;
use qtaccel_core::qtable::QTable;
use qtaccel_core::trainer::seed_unit;
use qtaccel_envs::{sa_index, Action, Environment, RewardTable, State};
use qtaccel_fixed::QValue;
use qtaccel_hdl::bram::{Bram, BramPort};
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_hdl::pipeline::CycleStats;
use qtaccel_hdl::rng::{RngSource, SeedSequence};

/// Iteration state carried from stage 1 into stage 2.
#[derive(Debug, Clone, Copy)]
struct S2Reg {
    s: State,
    a: Action,
    s_next: State,
}

/// Iteration state carried from stage 2 into stage 3.
#[derive(Debug, Clone, Copy)]
struct S3Reg<V> {
    s: State,
    a: Action,
    s_next: State,
    /// BRAM-latched `Q(Sₜ,Aₜ)` (pre-forwarding).
    q_sa_bram: V,
    /// BRAM-latched reward.
    r: V,
}

/// Iteration state carried from stage 3 into stage 4.
#[derive(Debug, Clone, Copy)]
struct S4Reg<V> {
    s: State,
    a: Action,
    q_new: V,
    /// BRAM-latched `Qmax[Sₜ]` for the read-modify-write
    /// (pre-forwarding).
    qmax_rmw_bram: (V, Action),
}

/// A retired write, held in the write-history shift register.
#[derive(Debug, Clone, Copy)]
struct HistQ<V> {
    addr: usize,
    value: V,
}

/// A retired (conditional) Qmax write.
#[derive(Debug, Clone, Copy)]
struct HistQmax<V> {
    s: State,
    value: (V, Action),
}

/// The structural Q-Learning pipeline.
#[derive(Debug, Clone)]
pub struct StructuralQLearning<V> {
    num_states: usize,
    num_actions: usize,
    alpha_v: V,
    one_minus_alpha: V,
    alpha_gamma: V,
    q_bram: Bram<V>,
    r_bram: Bram<V>,
    qmax_a: Bram<(V, Action)>,
    qmax_b: Bram<(V, Action)>,
    start_rng: Lfsr32,
    behavior_rng: Lfsr32,
    // Architectural state registers.
    cur_state: State,
    restart: bool,
    // Pipeline registers.
    s2: Option<S2Reg>,
    s3: Option<S3Reg<V>>,
    s4: Option<S4Reg<V>>,
    // Write-history shift registers (W1 = last cycle, W2 = two ago).
    w1: Option<HistQ<V>>,
    w2: Option<HistQ<V>>,
    w1_qmax: Option<HistQmax<V>>,
    w2_qmax: Option<HistQmax<V>>,
    stats: CycleStats,
}

impl<V: QValue> StructuralQLearning<V> {
    /// Build the structural pipeline for `env`. Policies are fixed to the
    /// Q-Learning fixture; α, γ and the seed come from `config`.
    pub fn new<E: Environment>(env: &E, config: AccelConfig) -> Self {
        assert_eq!(
            config.trainer.behavior,
            Policy::Random,
            "structural model implements the Q-Learning fixture"
        );
        let seeds = SeedSequence::new(config.trainer.seed);
        let alpha_v = V::from_f64(config.trainer.alpha);
        let gamma_v = V::from_f64(config.trainer.gamma);
        let (s, a) = (env.num_states(), env.num_actions());
        let width = V::storage_bits();

        let mut r_bram = Bram::<V>::new(s * a, width);
        let rewards = RewardTable::<V>::from_env(env);
        for (i, v) in rewards.as_slice().iter().enumerate() {
            r_bram.poke(i, *v);
        }
        // Qmax init file: random action fields, identical stream to the
        // behavioral model (seed bank 0).
        let mut qmax_a = Bram::<(V, Action)>::new(s, width + 8);
        let mut qmax_b = Bram::<(V, Action)>::new(s, width + 8);
        let mut init_rng = Lfsr32::new(seeds.derive(seed_unit::of(0, seed_unit::QMAX_INIT)));
        for i in 0..s {
            let a0 = init_rng.below(a as u32);
            qmax_a.poke(i, (V::zero(), a0));
            qmax_b.poke(i, (V::zero(), a0));
        }

        Self {
            num_states: s,
            num_actions: a,
            alpha_v,
            one_minus_alpha: alpha_v.one_minus(),
            alpha_gamma: alpha_v.mul(gamma_v),
            q_bram: Bram::new(s * a, width),
            r_bram,
            qmax_a,
            qmax_b,
            start_rng: Lfsr32::new(seeds.derive(seed_unit::of(0, seed_unit::START))),
            behavior_rng: Lfsr32::new(seeds.derive(seed_unit::of(0, seed_unit::BEHAVIOR))),
            cur_state: 0,
            restart: true,
            s2: None,
            s3: None,
            s4: None,
            w1: None,
            w2: None,
            w1_qmax: None,
            w2_qmax: None,
            stats: CycleStats {
                fill_bubbles: 3,
                ..CycleStats::default()
            },
        }
    }

    /// The freshest visible value for Q address `addr` at a stage-3
    /// consumer: stage-4 register → W1 → W2 → BRAM-latched word.
    fn forward_q(&mut self, addr: usize, bram_value: V) -> V {
        if let Some(s4) = &self.s4 {
            if sa_index(s4.s, s4.a, self.num_actions) == addr {
                self.stats.forwards += 1;
                return s4.q_new;
            }
        }
        if let Some(w) = &self.w1 {
            if w.addr == addr {
                self.stats.forwards += 1;
                return w.value;
            }
        }
        if let Some(w) = &self.w2 {
            if w.addr == addr {
                self.stats.forwards += 1;
                return w.value;
            }
        }
        bram_value
    }

    /// The freshest visible Qmax entry for state `s` given the sources
    /// younger than a read issued in the previous cycle: the i−1 write
    /// (W1) and the i−2 write (W2). (The stage-4 register's write happens
    /// this cycle and is handled by the caller where architecture
    /// requires it.)
    fn forward_qmax_hist(&mut self, s: State, latched: (V, Action)) -> (V, Action) {
        if let Some(w) = &self.w1_qmax {
            if w.s == s {
                self.stats.forwards += 1;
                return w.value;
            }
        }
        if let Some(w) = &self.w2_qmax {
            if w.s == s {
                self.stats.forwards += 1;
                return w.value;
            }
        }
        latched
    }

    /// Advance one clock cycle. At steady state one sample retires per
    /// call.
    pub fn tick<E: Environment>(&mut self, env: &E) {
        debug_assert_eq!(env.num_states(), self.num_states);
        debug_assert_eq!(env.num_actions(), self.num_actions);

        // ---- Stage 4: writeback (iteration i−3) ------------------------
        // Runs first: its q_new must be visible to stage 3's forwarding
        // mux in the same cycle (the classic EX→MEM bypass direction).
        let mut retiring: Option<(HistQ<V>, Option<HistQmax<V>>)> = None;
        if let Some(s4) = self.s4 {
            let addr = sa_index(s4.s, s4.a, self.num_actions);
            self.q_bram.issue_write(BramPort::B, addr, s4.q_new);
            // RMW comparator: freshest Qmax[s] = W1/W2 forwards over the
            // BRAM-latched word.
            let current = self.forward_qmax_hist(s4.s, s4.qmax_rmw_bram);
            let qmax_write = if s4.q_new.vcmp(current.0) == core::cmp::Ordering::Greater {
                let entry = (s4.q_new, s4.a);
                self.qmax_a.issue_write(BramPort::B, s4.s as usize, entry);
                self.qmax_b.issue_write(BramPort::B, s4.s as usize, entry);
                Some(HistQmax {
                    s: s4.s,
                    value: entry,
                })
            } else {
                None
            };
            retiring = Some((
                HistQ {
                    addr,
                    value: s4.q_new,
                },
                qmax_write,
            ));
            self.stats.samples += 1;
        }

        // ---- Stage 3: compute (iteration i−2) --------------------------
        let new_s4 = if let Some(s3) = self.s3 {
            let addr = sa_index(s3.s, s3.a, self.num_actions);
            let q_sa = self.forward_q(addr, s3.q_sa_bram);
            // Greedy target: Qmax[Sₜ₊₁] read issued by stage 2 last
            // cycle on replica A; forward from the i−1 stage-4 write
            // (performed above, captured in `retiring`) and the history.
            let latched = self
                .qmax_a
                .read_data(BramPort::A)
                .expect("stage-2 qmax read in flight");
            let mut q_next_entry = self.forward_qmax_hist(s3.s_next, latched);
            if let Some((_, Some(qw))) = &retiring {
                if qw.s == s3.s_next {
                    self.stats.forwards += 1;
                    q_next_entry = qw.value;
                }
            }
            // The RMW read of Qmax[Sₜ] issued last cycle on replica B;
            // its forwarding (i−1, i−2 relative to the *consumer*)
            // happens at stage 4 next cycle via the history registers,
            // but the i−1 write retiring THIS cycle must be captured now
            // or it would age out of the 2-deep history by then.
            let mut rmw = self
                .qmax_b
                .read_data(BramPort::A)
                .expect("stage-2 rmw read in flight");
            if let Some((_, Some(qw))) = &retiring {
                if qw.s == s3.s {
                    rmw = qw.value;
                }
            }
            let q_new = self
                .one_minus_alpha
                .mul(q_sa)
                .add(self.alpha_v.mul(s3.r))
                .add(self.alpha_gamma.mul(q_next_entry.0));
            Some(S4Reg {
                s: s3.s,
                a: s3.a,
                q_new,
                qmax_rmw_bram: rmw,
            })
        } else {
            None
        };

        // ---- Stage 2: latch stage-1 reads, issue stage-2 reads ---------
        let new_s3 = if let Some(s2) = self.s2 {
            let q_sa_bram = self
                .q_bram
                .read_data(BramPort::A)
                .expect("stage-1 Q read in flight");
            let r = self
                .r_bram
                .read_data(BramPort::A)
                .expect("stage-1 R read in flight");
            // Issue the greedy read for Sₜ₊₁ (replica A) and the RMW
            // read for Sₜ (replica B).
            self.qmax_a.issue_read(BramPort::A, s2.s_next as usize);
            self.qmax_b.issue_read(BramPort::A, s2.s as usize);
            Some(S3Reg {
                s: s2.s,
                a: s2.a,
                s_next: s2.s_next,
                q_sa_bram,
                r,
            })
        } else {
            None
        };

        // ---- Stage 1: select state + action, transition, issue reads ---
        let s = if self.restart {
            env.random_start(&mut self.start_rng)
        } else {
            self.cur_state
        };
        let a = self.behavior_rng.below(self.num_actions as u32);
        let s_next = env.transition(s, a);
        self.q_bram
            .issue_read(BramPort::A, sa_index(s, a, self.num_actions));
        self.r_bram
            .issue_read(BramPort::A, sa_index(s, a, self.num_actions));
        self.cur_state = s_next;
        self.restart = env.is_terminal(s_next);
        let new_s2 = Some(S2Reg { s, a, s_next });

        // ---- Clock edge: commit BRAM ops, rotate registers -------------
        self.q_bram.tick();
        self.r_bram.tick();
        self.qmax_a.tick();
        self.qmax_b.tick();
        self.s4 = new_s4;
        self.s3 = new_s3;
        self.s2 = new_s2;
        if let Some((hq, hqm)) = retiring {
            self.w2 = self.w1.take();
            self.w1 = Some(hq);
            self.w2_qmax = self.w1_qmax.take();
            // Shift in this cycle's qmax write (or an empty slot, keeping
            // the age structure when no write happened).
            self.w1_qmax = hqm;
        }
        self.stats.cycles += 1;
    }

    /// Run until `n` samples retire.
    pub fn run_samples<E: Environment>(&mut self, env: &E, n: u64) -> CycleStats {
        let target = self.stats.samples + n;
        while self.stats.samples < target {
            self.tick(env);
        }
        self.stats
    }

    /// Cycle counters.
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// Extract the architectural Q-table: BRAM contents plus in-flight
    /// pipeline values, applied oldest → youngest.
    pub fn q_table(&self) -> QTable<V> {
        let mut mem: Vec<V> = self.q_bram.contents().to_vec();
        for h in [&self.w2, &self.w1].into_iter().flatten() {
            mem[h.addr] = h.value;
        }
        if let Some(s4) = &self.s4 {
            mem[sa_index(s4.s, s4.a, self.num_actions)] = s4.q_new;
        }
        let mut q = QTable::new(self.num_states, self.num_actions);
        for s in 0..self.num_states as State {
            for a in 0..self.num_actions as Action {
                q.set(s, a, mem[sa_index(s, a, self.num_actions)]);
            }
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AccelPipeline;
    use qtaccel_envs::{ActionSet, GridWorld};
    use qtaccel_fixed::{Q16_16, Q8_8};

    fn cfg(seed: u64) -> AccelConfig {
        AccelConfig::default().with_seed(seed)
    }

    #[test]
    fn one_sample_per_cycle_after_fill() {
        let g = GridWorld::builder(8, 8).goal(7, 7).build();
        let mut p = StructuralQLearning::<Q8_8>::new(&g, cfg(1));
        let stats = p.run_samples(&g, 10_000);
        assert_eq!(stats.samples, 10_000);
        assert_eq!(stats.cycles, 10_003, "3-cycle fill, then 1/cycle");
    }

    #[test]
    fn structural_matches_behavioral_bit_exactly() {
        for seed in [1u64, 7, 42, 999] {
            let g = GridWorld::builder(8, 8).goal(7, 7).obstacle(3, 3).build();
            let mut structural = StructuralQLearning::<Q8_8>::new(&g, cfg(seed));
            let mut behavioral = AccelPipeline::<Q8_8>::new(&g, cfg(seed), 0);
            structural.run_samples(&g, 30_000);
            behavioral.train_samples(&g, 30_000);
            assert_eq!(
                structural.q_table().as_slice(),
                behavioral.q_table().as_slice(),
                "seed {seed}: structural wiring diverged from behavioral model"
            );
        }
    }

    #[test]
    fn structural_matches_behavioral_on_tiny_hazard_heavy_worlds() {
        // 2x2 worlds maximize consecutive-update hazards: every forwarding
        // path gets exercised.
        for seed in [3u64, 11, 77] {
            let g = GridWorld::builder(2, 2).goal(1, 1).build();
            let mut structural = StructuralQLearning::<Q16_16>::new(&g, cfg(seed));
            let mut behavioral = AccelPipeline::<Q16_16>::new(&g, cfg(seed), 0);
            structural.run_samples(&g, 20_000);
            behavioral.train_samples(&g, 20_000);
            assert_eq!(
                structural.q_table().as_slice(),
                behavioral.q_table().as_slice(),
                "seed {seed}"
            );
            assert!(structural.stats().forwards > 0, "hazards must fire");
        }
    }

    #[test]
    fn structural_matches_on_eight_action_grids() {
        let g = GridWorld::builder(4, 4)
            .goal(3, 3)
            .actions(ActionSet::Eight)
            .build();
        let mut structural = StructuralQLearning::<Q8_8>::new(&g, cfg(5));
        let mut behavioral = AccelPipeline::<Q8_8>::new(&g, cfg(5), 0);
        structural.run_samples(&g, 25_000);
        behavioral.train_samples(&g, 25_000);
        assert_eq!(
            structural.q_table().as_slice(),
            behavioral.q_table().as_slice()
        );
    }

    #[test]
    fn bram_port_activity_is_within_dual_port_limits() {
        // Every memory sees at most one read and one write per cycle —
        // the constraint that forced the Qmax replication.
        let g = GridWorld::builder(4, 4).goal(3, 3).build();
        let mut p = StructuralQLearning::<Q8_8>::new(&g, cfg(9));
        let n = 5_000;
        p.run_samples(&g, n);
        let cycles = p.stats().cycles;
        assert!(p.q_bram.stats().reads <= cycles);
        assert!(p.q_bram.stats().writes <= cycles);
        assert!(p.qmax_a.stats().reads <= cycles);
        assert!(p.qmax_b.stats().reads <= cycles);
        // The reward BRAM is read-only.
        assert_eq!(p.r_bram.stats().writes, 0);
    }

    #[test]
    #[should_panic(expected = "Q-Learning fixture")]
    fn rejects_non_q_learning_config() {
        let g = GridWorld::builder(4, 4).goal(3, 3).build();
        let mut c = cfg(1);
        c.trainer.behavior = Policy::Greedy;
        StructuralQLearning::<Q8_8>::new(&g, c);
    }
}
