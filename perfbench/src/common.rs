//! Shared plumbing: rounds, layer metrics, spans, digests and stats.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use qtaccel_accel::{AccelConfig, QLearningAccel, SarsaAccel};
use qtaccel_core::qtable::{QTable, QmaxTable};
use qtaccel_envs::{ActionSet, GridWorld};
use qtaccel_fixed::{QValue, QuantPolicy, Q8_8};
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_hdl::pipeline::CycleStats;
use qtaccel_telemetry::span::{SpanContext, SpanTracer};

/// Worker threads (batch pool) and worker processes (cluster) are capped
/// here and at the host's parallelism, whichever is lower, so the
/// per-worker metric names stay fixed across hosts.
pub const MAX_WORKERS: usize = 2;

/// What one pass over a workload's call mix did.
#[derive(Default)]
pub struct Round {
    /// Environment build plus engine construction (cluster: bind and
    /// spawn until the first lease is assigned).
    pub setup_s: f64,
    /// Wall time of the timed training calls.
    pub train_s: f64,
    /// Samples the timed calls retired (the budgets they were given;
    /// each call's own engine count is checked against its budget).
    pub samples: u64,
    /// Training calls attempted and failed in this round.
    pub calls: u64,
    pub failed: u64,
    /// Simulated samples and simulated clocks of the round's calls.
    pub sim_samples: u64,
    pub sim_cycles: u64,
    /// Peak resident memory of helper processes, when the round had any.
    pub child_rss_mb: f64,
}

/// Per-run context every workload round receives.
pub struct Ctx {
    /// Set for traced rounds only: spans go here.
    tracer: Option<Arc<SpanTracer>>,
    root: Option<SpanContext>,
    ordinal: u64,
    /// Per-layer observations, keyed by metric name (median is reported).
    layers: BTreeMap<String, Vec<f64>>,
    /// Whether `record` keeps observations: on in timed rounds and
    /// probes, off in warm-up and self-test rounds.
    recording: bool,
    pub workers: usize,
    workdir: PathBuf,
    pub seed: u64,
}

impl Ctx {
    pub fn new(seed: u64, workdir: PathBuf) -> Self {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            tracer: None,
            root: None,
            ordinal: 0,
            layers: BTreeMap::new(),
            recording: false,
            workers: host.min(MAX_WORKERS),
            workdir,
            seed,
        }
    }

    /// Start or stop recording spans for subsequent rounds.
    pub fn set_tracer(&mut self, tracer: Option<Arc<SpanTracer>>) {
        self.tracer = tracer;
    }

    /// Run `f` as one traced round: a root span with the layer calls as
    /// children. Untraced rounds run `f` bare.
    pub fn round<T>(&mut self, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let Some(tracer) = self.tracer.clone() else {
            return f(self);
        };
        let trace = tracer.start_trace();
        let active = tracer.begin(trace, None, "round", 0, self.ordinal);
        self.root = Some(active.context());
        let out = f(self);
        tracer.end(active);
        self.root = None;
        out
    }

    /// Time `f` and, in a traced round, record it as a child span of the
    /// round. Returns the result and the elapsed seconds.
    pub fn span<T>(&mut self, name: &'static str, lane: u32, f: impl FnOnce() -> T) -> (T, f64) {
        self.ordinal += 1;
        let active = match (&self.tracer, self.root) {
            (Some(t), Some(root)) => {
                Some(t.begin(root.trace, Some(root.span), name, lane, self.ordinal))
            }
            _ => None,
        };
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        if let (Some(t), Some(a)) = (&self.tracer, active) {
            t.end(a);
        }
        (out, dt)
    }

    /// Keep (or drop) the observations of subsequent `record` calls.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Record one observation of a per-layer metric (kept only while
    /// recording is on).
    pub fn record(&mut self, name: impl Into<String>, value: f64) {
        if self.recording {
            self.layers.entry(name.into()).or_default().push(value);
        }
    }

    pub fn layers(&self) -> &BTreeMap<String, Vec<f64>> {
        &self.layers
    }

    /// Take the observations recorded so far, leaving none.
    pub fn take_layers(&mut self) -> BTreeMap<String, Vec<f64>> {
        std::mem::take(&mut self.layers)
    }

    /// A fresh, empty scratch directory inside the run's work directory.
    pub fn scratch(&self, tag: &str) -> PathBuf {
        let dir = self.workdir.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir inside the checkout");
        dir
    }
}

/// One workload: set up once per run (references included), then rounds.
pub trait Workload {
    /// One pass over the call mix: setup, timed calls, checks. With
    /// `corrupt`, one result is damaged before it is checked, so the round
    /// must count a failure (the negative self-test).
    fn round(&mut self, ctx: &mut Ctx, corrupt: bool) -> Round;
    /// Attribution probes of the traced run (outside the rounds); every
    /// probe result is checked too. Returns (checks, failed).
    fn probe(&mut self, ctx: &mut Ctx) -> (u64, u64);
}

/// SARSA's exploration probability in every workload.
pub const EPSILON: f64 = 0.1;

/// One single-pipeline engine of either algorithm.
pub enum Engine {
    Ql(QLearningAccel<Q8_8>),
    Sarsa(SarsaAccel<Q8_8>),
}

impl Engine {
    pub fn new(sarsa: bool, env: &GridWorld, accel: AccelConfig) -> Self {
        if sarsa {
            Engine::Sarsa(SarsaAccel::new(env, accel, EPSILON))
        } else {
            Engine::Ql(QLearningAccel::new(env, accel))
        }
    }

    /// Store Q entries in 8 bits (must precede training).
    pub fn enable_q8(&mut self) {
        match self {
            Engine::Ql(a) => a.enable_quant(QuantPolicy::q8()),
            Engine::Sarsa(a) => a.enable_quant(QuantPolicy::q8()),
        }
    }

    /// `train_samples_fast` when `fast`, else the cycle-accurate
    /// `train_samples`. Returns the engine's cumulative stats.
    pub fn train(&mut self, env: &GridWorld, n: u64, fast: bool) -> CycleStats {
        match (&mut *self, fast) {
            (Engine::Ql(a), false) => a.train_samples(env, n),
            (Engine::Ql(a), true) => a.train_samples_fast(env, n),
            (Engine::Sarsa(a), false) => a.train_samples(env, n),
            (Engine::Sarsa(a), true) => a.train_samples_fast(env, n),
        };
        self.stats()
    }

    pub fn stats(&self) -> CycleStats {
        match self {
            Engine::Ql(a) => a.stats(),
            Engine::Sarsa(a) => a.stats(),
        }
    }

    pub fn digest(&self) -> u64 {
        match self {
            Engine::Ql(a) => digest(&a.q_table(), &a.qmax_table()),
            Engine::Sarsa(a) => digest(&a.q_table(), &a.qmax_table()),
        }
    }
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded square terrains of the given sides with ~3 % obstacles (the
/// density of the paper's Table I grids), goals placed by the same seed.
pub fn terrains(seed: u64, sides: [u32; 2], actions: ActionSet) -> [GridWorld; 2] {
    sides.map(|side| {
        let mut rng = Lfsr32::new((mix(seed ^ u64::from(side)) as u32) | 1);
        GridWorld::random(side, side, 3, actions, &mut rng)
    })
}

/// FNV-1a over the stored words of a Q and Qmax image.
pub fn digest<V: QValue>(q: &QTable<V>, qmax: &QmaxTable<V>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in q.as_slice() {
        eat(v.to_bits());
    }
    for s in 0..qmax.len() {
        let (v, a) = qmax.get(s as u32);
        eat(v.to_bits());
        eat(u64::from(a));
    }
    h
}

/// Flip one byte in the middle of a file (negative self-test damage).
pub fn corrupt_file(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read file to corrupt");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    std::fs::write(path, bytes).expect("write corrupted file");
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile of unsorted values (`p` in 0..=1).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
