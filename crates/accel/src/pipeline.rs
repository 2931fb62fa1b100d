//! The cycle-accurate 4-stage pipeline core (Fig. 1).
//!
//! ## Stage timing
//!
//! Iteration *i* enters stage 1 at cycle `c1(i)` and proceeds one stage
//! per cycle:
//!
//! | cycle      | stage | work |
//! |------------|-------|------|
//! | `c1`       | 1     | state select (random start or forwarded Sₜ₊₁), behaviour action, transition function, issue Q(Sₜ,Aₜ) and R(Sₜ,Aₜ) reads, derive `1−α`, `α·γ` |
//! | `c1+1`     | 2     | update-policy action for Sₜ₊₁, issue Q(Sₜ₊₁,Aₜ₊₁) / Qmax(Sₜ₊₁) read |
//! | `c1+2`     | 3     | three multiplies + adder tree (Eq. 3) |
//! | `c1+3`     | 4     | write back Q(Sₜ,Aₜ); monotone Qmax update |
//!
//! With no stalls, `c1(i+1) = c1(i) + 1` — one sample per clock after the
//! 3-cycle fill.
//!
//! ## Hazards
//!
//! A BRAM write issued at cycle `w` is visible only to reads issued at
//! cycles `> w` (read-first port semantics). Consecutive iterations
//! re-read locations the previous 1–3 iterations are still updating, so
//! the design needs the forwarding network of [`HazardMode::Forwarding`]:
//! every read consults the queue of in-flight (pending) writes and the
//! youngest matching value bypasses the BRAM. The model implements all
//! three hazard policies of [`HazardMode`] over an explicitly *delayed*
//! memory image — each BRAM's image holds only committed writes, and its
//! pending queue carries (commit-cycle, address, value) triples — so
//! stale reads in `Ignore` mode are real stale values, not emulation
//! shortcuts.
//!
//! ## One stage body, two write models
//!
//! The stage sequence above — policy units, row max, the Q and Qmax
//! read paths, Eq. (3), the Qmax read-modify-write, the accounting — is
//! written once, generic over how a write travels from stage 4 into a
//! BRAM image:
//!
//! - the **delayed-commit model** (`Delayed`) keeps writes in the pending
//!   queues until their commit cycle. It is the cycle-accurate reference
//!   behind [`AccelPipeline::step`] and
//!   [`train_samples`](AccelPipeline::train_samples), and the only model
//!   that emits events and takes fault strikes.
//! - the **immediate-commit model** (`Ring`) lands writes in the image at
//!   issue and keeps a four-entry window of write history for the
//!   forward counts and stall delays (in `Ignore` mode the window holds
//!   the real delayed writes). [`AccelPipeline::train_samples_fast`]
//!   runs it for configurations its window-register loop cannot take.
//!
//! ## Host-side cost of the forwarding network
//!
//! The queues are drained once per step (the per-step commit point at the
//! top of the stage body) instead of before every read, and each read
//! resolves its newest in-flight writer through `FwdIndex` — an O(1)
//! direct-mapped last-writer map — instead of a linear queue scan. Reads
//! that race a write committing mid-step compare the entry's commit
//! cycle against the read cycle, so cycle/stall/forward/bubble counters
//! are bit-identical to the scan-per-read formulation (pinned by the
//! `hazard_mode_cycle_stats_are_pinned` regression test).

use std::collections::VecDeque;
use std::path::Path;

use crate::checkpoint::{self, word_at, CheckpointError, WordReader, WordWriter};
use crate::config::{AccelConfig, HazardMode};
use crate::fault::{strike_word, FaultConfig, FaultRt, FaultStats, LatentError};
use qtaccel_core::policy::Policy;
use qtaccel_core::qtable::{MaxMode, PackedQTable, QTable, QmaxTable};
use qtaccel_core::trainer::{seed_unit, Transition};
use qtaccel_envs::{sa_index, Action, Environment, RewardTable, State};
use qtaccel_fixed::{QValue, QuantPolicy};
use qtaccel_hdl::lfsr::{Lfsr32, Lfsr32Unrolled};
use qtaccel_hdl::pipeline::CycleStats;
use qtaccel_hdl::rng::{epsilon_greedy_draw, epsilon_to_q32, RngSource, SeedSequence};
use qtaccel_telemetry::{CounterBank, CounterId, Event, MemKind, NullSink, TraceSink};

/// Stage-4 offset from stage 1.
pub(crate) const WRITE_OFFSET: u64 = 3;
/// Pipeline fill depth (cycles before the first retirement).
pub(crate) const FILL: u64 = 3;

/// A write travelling down the pipe, not yet visible in the BRAM image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending<T> {
    commit_cycle: u64,
    addr: usize,
    value: T,
}

/// Number of slots in the direct-mapped forwarding index. Must be a power
/// of two; 64 keeps the whole index in one cache line pair while making
/// address aliasing rare even on large grids.
const FWD_SLOTS: usize = 64;

/// Result of an O(1) last-writer lookup.
enum FwdHit<T> {
    /// No in-flight write maps to the address's slot: a definite miss.
    Miss,
    /// The newest in-flight write to this exact address.
    Newest(Pending<T>),
    /// The slot is occupied by a different address (hash aliasing): the
    /// queue itself must be consulted.
    Aliased,
}

/// Direct-mapped map from BRAM address to the *newest* in-flight write,
/// maintained alongside a pending queue on every push and retirement.
///
/// Soundness relies on two queue invariants: pushes carry strictly
/// increasing commit cycles (each slot therefore always holds the newest
/// write hashing to it), and retirements pop oldest-first (so the slot's
/// entry can only be retired once every same-slot entry is, at which
/// point the slot count reaches zero). A zero count is thus a definite
/// miss, a slot hit on the exact address is the newest matching writer,
/// and only hash aliasing falls back to a linear scan.
#[derive(Debug, Clone)]
struct FwdIndex<T> {
    /// In-flight writes hashing to each slot (exact count).
    counts: [u32; FWD_SLOTS],
    /// Newest in-flight write hashing to each slot.
    slots: [Option<Pending<T>>; FWD_SLOTS],
}

impl<T: Copy> FwdIndex<T> {
    fn new() -> Self {
        Self {
            counts: [0; FWD_SLOTS],
            slots: [None; FWD_SLOTS],
        }
    }

    #[inline(always)]
    fn slot_of(addr: usize) -> usize {
        addr & (FWD_SLOTS - 1)
    }

    /// Record a write pushed onto the companion queue.
    #[inline(always)]
    fn push(&mut self, p: Pending<T>) {
        let h = Self::slot_of(p.addr);
        self.counts[h] += 1;
        self.slots[h] = Some(p);
    }

    /// Record the retirement (commit) of the queue's front entry.
    #[inline(always)]
    fn retire(&mut self, addr: usize) {
        let h = Self::slot_of(addr);
        debug_assert!(self.counts[h] > 0, "retire without matching push");
        self.counts[h] -= 1;
        if self.counts[h] == 0 {
            self.slots[h] = None;
        }
    }

    /// O(1) newest-writer lookup for `addr`.
    #[inline(always)]
    fn newest(&self, addr: usize) -> FwdHit<T> {
        let h = Self::slot_of(addr);
        if self.counts[h] == 0 {
            return FwdHit::Miss;
        }
        match self.slots[h] {
            Some(p) if p.addr == addr => FwdHit::Newest(p),
            _ => FwdHit::Aliased,
        }
    }

    /// Forget everything (companion queue was emptied wholesale).
    fn clear(&mut self) {
        self.counts = [0; FWD_SLOTS];
        self.slots = [None; FWD_SLOTS];
    }
}

/// Capacity of the immediate-commit model's in-flight write window.
/// Writes land `WRITE_OFFSET` cycles after issue and stage-1 cycles
/// advance by at least one per sample, so at most `WRITE_OFFSET + 1`
/// writes can be in flight around any read — the hardware's forwarding
/// window.
const FAST_RING: usize = 4;

/// Fixed-capacity ordered window of the most recent writes, the
/// immediate-commit model's replacement for a pending queue: no
/// allocation, at most [`FAST_RING`] entries scanned per lookup.
#[derive(Debug, Clone)]
struct WriteRing<T> {
    buf: [Option<Pending<T>>; FAST_RING],
    head: usize,
    len: usize,
}

impl<T: Copy> WriteRing<T> {
    /// Entry protocol: take over `port`'s in-flight writes. When writes
    /// commit at issue their values land in the image right away (the
    /// image is then the newest view); otherwise they stay in flight.
    fn enter(port: &mut Port<T>, commit_at_issue: bool) -> Self {
        let mut ring = Self {
            buf: [None; FAST_RING],
            head: 0,
            len: 0,
        };
        while let Some(p) = port.pending.pop_front() {
            if commit_at_issue {
                port.image[p.addr] = p.value;
            }
            ring.push(p);
        }
        port.fwd.clear();
        ring
    }

    /// Exit protocol: hand the writes a following cycle-accurate run can
    /// still observe back to `port`'s queue. When writes committed at
    /// issue only those in flight relative to the next stage-1 cycle
    /// matter (older history is already architecturally committed);
    /// otherwise every entry is a real uncommitted write.
    fn exit(&self, port: &mut Port<T>, commit_at_issue: bool, next_c1: u64) {
        for p in self.iter() {
            if !commit_at_issue || p.commit_cycle >= next_c1 {
                port.push(p);
            }
        }
    }

    /// Append the newest write, evicting the oldest when full. Eviction
    /// is only legal when the ring mirrors writes already materialized
    /// in the image (commit at issue); the delayed user never fills past
    /// capacity by the in-flight bound above.
    #[inline(always)]
    fn push(&mut self, p: Pending<T>) {
        if self.len == FAST_RING {
            self.head = (self.head + 1) % FAST_RING;
            self.len -= 1;
        }
        self.buf[(self.head + self.len) % FAST_RING] = Some(p);
        self.len += 1;
    }

    /// The newest entry for `addr`, if any.
    #[inline(always)]
    fn newest(&self, addr: usize) -> Option<Pending<T>> {
        for i in (0..self.len).rev() {
            if let Some(p) = self.buf[(self.head + i) % FAST_RING] {
                if p.addr == addr {
                    return Some(p);
                }
            }
        }
        None
    }

    /// Pop every write due strictly before `cycle`, oldest first.
    #[inline(always)]
    fn retire_due<F: FnMut(Pending<T>)>(&mut self, cycle: u64, mut retire: F) {
        while self.len > 0 {
            let p = self.buf[self.head].expect("ring slot within len");
            if p.commit_cycle >= cycle {
                break;
            }
            retire(p);
            self.buf[self.head] = None;
            self.head = (self.head + 1) % FAST_RING;
            self.len -= 1;
        }
    }

    /// Entries oldest → newest.
    fn iter(&self) -> impl Iterator<Item = Pending<T>> + '_ {
        (0..self.len).filter_map(move |i| self.buf[(self.head + i) % FAST_RING])
    }
}

/// One BRAM of the memory model: the committed image, the writes still
/// in flight to it (the queue is the source of truth; the index is its
/// O(1) newest-writer accelerator, kept in sync on push and retire), and
/// the forwarding network's visibility horizon.
///
/// The BRAM controller retires every write due before the highest cycle
/// it has serviced so far — notably the stage-4 read-modify-write at
/// `c1 + 3`, which runs *ahead* of the next iteration's stage-1/2 reads.
/// A write whose commit cycle falls below the horizon has left the pipe
/// and is invisible to the forwarding network (no forward counted, no
/// stall imposed) even for a read issued before its commit cycle.
#[derive(Debug, Clone)]
struct Port<T> {
    image: Vec<T>,
    pending: VecDeque<Pending<T>>,
    fwd: FwdIndex<T>,
    horizon: u64,
}

impl<T: Copy> Port<T> {
    fn new(image: Vec<T>) -> Self {
        Self {
            image,
            pending: VecDeque::new(),
            fwd: FwdIndex::new(),
            horizon: 0,
        }
    }

    /// Queue an in-flight write.
    #[inline(always)]
    fn push(&mut self, p: Pending<T>) {
        self.pending.push_back(p);
        self.fwd.push(p);
    }

    /// The image with every in-flight write applied in order — what
    /// reading back the BRAM after a drain would show.
    fn drained(&self) -> Vec<T> {
        let mut image = self.image.clone();
        for p in &self.pending {
            image[p.addr] = p.value;
        }
        image
    }
}

/// The pipeline's two BRAMs.
#[derive(Debug, Clone)]
struct Memory<V> {
    q: Port<V>,
    qmax: Port<(V, Action)>,
}

/// Selects one of the two BRAMs, so each read and commit path is written
/// once over the word type: `V` Q words at `s·|A| + a`, `(V, Action)`
/// Qmax words at `s`.
trait Mem<V> {
    type Word: Copy;
    const KIND: MemKind;
    const READS: CounterId;
    const FWD_HIT: CounterId;
    fn port(mem: &mut Memory<V>) -> &mut Port<Self::Word>;
    fn ring(ring: &mut Ring<V>) -> &mut WriteRing<Self::Word>;
    /// Checkpoint words per memory word.
    const WORDS: usize;
    /// Checkpoint encoding of one word.
    fn save(word: Self::Word, w: &mut WordWriter);
    /// Decode one word from its `WORDS` checkpoint words.
    fn load(words: &[u8]) -> Self::Word;
}

/// Restore a memory image of `len` words.
fn load_image<V, M: Mem<V>>(
    r: &mut WordReader,
    len: usize,
) -> Result<Vec<M::Word>, CheckpointError> {
    let run = r.take(len * M::WORDS)?;
    Ok(run.chunks_exact(8 * M::WORDS).map(M::load).collect())
}

/// Checkpoint a port's in-flight write queue.
fn save_queue<V, M: Mem<V>>(port: &Port<M::Word>, w: &mut WordWriter) {
    w.push(port.pending.len() as u64);
    for p in &port.pending {
        w.push(p.commit_cycle);
        w.push(p.addr as u64);
        M::save(p.value, w);
    }
}

/// Restore a queue written by [`save_queue`] into `port`.
fn load_queue<V, M: Mem<V>>(
    port: &mut Port<M::Word>,
    r: &mut WordReader,
) -> Result<(), CheckpointError> {
    let entry = 2 + M::WORDS;
    let len = r.next_len()?;
    let run = r.take(len.saturating_mul(entry))?;
    for p in run.chunks_exact(8 * entry) {
        port.push(Pending {
            commit_cycle: word_at(p, 0),
            addr: word_at(p, 1) as usize,
            value: M::load(&p[16..]),
        });
    }
    Ok(())
}

/// The Q BRAM.
enum QMem {}

/// The Qmax BRAM.
enum QmaxMem {}

impl<V: QValue> Mem<V> for QMem {
    type Word = V;
    const KIND: MemKind = MemKind::Q;
    const READS: CounterId = CounterId::QReads;
    const FWD_HIT: CounterId = CounterId::FwdQHit;
    #[inline(always)]
    fn port(mem: &mut Memory<V>) -> &mut Port<V> {
        &mut mem.q
    }
    #[inline(always)]
    fn ring(ring: &mut Ring<V>) -> &mut WriteRing<V> {
        &mut ring.q
    }
    const WORDS: usize = 1;
    fn save(v: V, w: &mut WordWriter) {
        w.push(v.to_bits());
    }
    fn load(words: &[u8]) -> V {
        V::from_bits(word_at(words, 0))
    }
}

impl<V: QValue> Mem<V> for QmaxMem {
    type Word = (V, Action);
    const KIND: MemKind = MemKind::Qmax;
    const READS: CounterId = CounterId::QmaxReads;
    const FWD_HIT: CounterId = CounterId::FwdQmaxHit;
    #[inline(always)]
    fn port(mem: &mut Memory<V>) -> &mut Port<(V, Action)> {
        &mut mem.qmax
    }
    #[inline(always)]
    fn ring(ring: &mut Ring<V>) -> &mut WriteRing<(V, Action)> {
        &mut ring.qmax
    }
    const WORDS: usize = 2;
    fn save((v, a): (V, Action), w: &mut WordWriter) {
        w.push(v.to_bits());
        w.push(a as u64);
    }
    fn load(words: &[u8]) -> (V, Action) {
        (V::from_bits(word_at(words, 0)), word_at(words, 1) as Action)
    }
}

/// How writes travel from stage 4 into a BRAM image. The stage body
/// ([`AccelPipeline::stage`]) is written once over this; there are
/// exactly two models, [`Delayed`] and [`Ring`].
trait WriteModel<V: QValue> {
    /// The cycle-accurate reference: the only model that emits events
    /// and takes the fault hook (a strike's fate depends on which writes
    /// are still uncommitted).
    const REFERENCE: bool;
    /// The newest in-flight write to `addr` of BRAM `M`.
    fn newest<M: Mem<V>>(&mut self, port: &Port<M::Word>, addr: usize) -> Option<Pending<M::Word>>;
    /// Issue a stage-4 write.
    fn write<M: Mem<V>>(&mut self, port: &mut Port<M::Word>, p: Pending<M::Word>);
    /// Commit every write due strictly before `cycle`, oldest first,
    /// showing each to `on_commit`.
    fn retire<M: Mem<V>, F: FnMut(&Pending<M::Word>)>(
        &mut self,
        port: &mut Port<M::Word>,
        cycle: u64,
        on_commit: F,
    );
}

/// The delayed-commit model, the cycle-accurate reference: writes wait
/// in the ports' pending queues until their commit cycle, and reads
/// resolve in-flight writers through the O(1) [`FwdIndex`].
struct Delayed;

impl<V: QValue> WriteModel<V> for Delayed {
    const REFERENCE: bool = true;

    /// O(1) index hit or miss; a linear queue scan only under slot
    /// aliasing.
    #[inline(always)]
    fn newest<M: Mem<V>>(&mut self, port: &Port<M::Word>, addr: usize) -> Option<Pending<M::Word>> {
        match port.fwd.newest(addr) {
            FwdHit::Miss => None,
            FwdHit::Newest(p) => Some(p),
            FwdHit::Aliased => port.pending.iter().rev().find(|p| p.addr == addr).copied(),
        }
    }

    #[inline(always)]
    fn write<M: Mem<V>>(&mut self, port: &mut Port<M::Word>, p: Pending<M::Word>) {
        port.push(p);
    }

    #[inline(always)]
    fn retire<M: Mem<V>, F: FnMut(&Pending<M::Word>)>(
        &mut self,
        port: &mut Port<M::Word>,
        cycle: u64,
        mut on_commit: F,
    ) {
        while let Some(&p) = port.pending.front() {
            if p.commit_cycle >= cycle {
                break;
            }
            on_commit(&p);
            port.image[p.addr] = p.value;
            port.fwd.retire(p.addr);
            port.pending.pop_front();
        }
    }
}

/// The immediate-commit model. In `Forwarding` and `StallOnly` modes
/// every read returns the *newest* write to its address (through the
/// forwarding network, or because the front end stalled until the write
/// landed), so writes land in the image at issue and a [`FAST_RING`]
/// window of write history only reproduces the forward counts and stall
/// delays. `Ignore` mode is the one place stale values are
/// architecturally visible, so there the ring carries the real delayed
/// writes. Allocation-free, O(1) per access, and usually faster than
/// [`Delayed`].
struct Ring<V> {
    q: WriteRing<V>,
    qmax: WriteRing<(V, Action)>,
    commit_at_issue: bool,
}

impl<V: QValue> Ring<V> {
    /// Take over both BRAMs' in-flight writes ([`WriteRing::enter`]).
    fn enter(mem: &mut Memory<V>, commit_at_issue: bool) -> Self {
        Self {
            q: WriteRing::enter(&mut mem.q, commit_at_issue),
            qmax: WriteRing::enter(&mut mem.qmax, commit_at_issue),
            commit_at_issue,
        }
    }

    /// Hand both BRAMs' observable writes back ([`WriteRing::exit`]).
    fn exit(&self, mem: &mut Memory<V>, next_c1: u64) {
        self.q.exit(&mut mem.q, self.commit_at_issue, next_c1);
        self.qmax.exit(&mut mem.qmax, self.commit_at_issue, next_c1);
    }
}

impl<V: QValue> WriteModel<V> for Ring<V> {
    const REFERENCE: bool = false;

    #[inline(always)]
    fn newest<M: Mem<V>>(&mut self, _: &Port<M::Word>, addr: usize) -> Option<Pending<M::Word>> {
        M::ring(self).newest(addr)
    }

    #[inline(always)]
    fn write<M: Mem<V>>(&mut self, port: &mut Port<M::Word>, p: Pending<M::Word>) {
        if self.commit_at_issue {
            port.image[p.addr] = p.value;
        }
        debug_assert!(
            self.commit_at_issue || M::ring(self).len < FAST_RING,
            "in-flight window overflow"
        );
        M::ring(self).push(p);
    }

    #[inline(always)]
    fn retire<M: Mem<V>, F: FnMut(&Pending<M::Word>)>(
        &mut self,
        port: &mut Port<M::Word>,
        cycle: u64,
        mut on_commit: F,
    ) {
        let commit_at_issue = self.commit_at_issue;
        M::ring(self).retire_due(cycle, |p| {
            on_commit(&p);
            if !commit_at_issue {
                port.image[p.addr] = p.value;
            }
        });
    }
}

/// Fused per-`(s, a)` record of the [`FullWidth`] codec: packed
/// transition (next state in the low bits, terminal flag in bit 31),
/// reward, and the live Q word, interleaved so every table word an
/// iteration touches shares one contiguous slab (a single cache line per
/// state row for `Q8_8` × 8 actions, versus three separate arrays).
///
/// The transition/reward columns are a BRAM-style image of the
/// environment, snapshotted on first fast-path use — exactly as the
/// reward table is snapshotted at construction, and as the hardware keeps
/// both tables memory-resident. The Q column is loaded from the committed
/// `q_mem` at loop entry and written back at exit.
#[derive(Debug, Clone, Copy)]
struct FastCell<V> {
    next_packed: u32,
    reward: V,
    q: V,
}

/// Terminal-state flag in [`FastCell::next_packed`].
const TERMINAL_BIT: u32 = 1 << 31;

/// Quantized-storage runtime (DESIGN.md §2.14): the stored-format policy
/// plus the dedicated stochastic-rounding dither LFSR unit
/// (`seed_unit::QUANT`), consumed once per retired sample in retirement
/// order by every executor.
#[derive(Debug, Clone)]
struct QuantRt {
    policy: QuantPolicy,
    rng: Lfsr32,
}

/// Split (structure-of-arrays) environment image of the [`Quantized`]
/// codec: an aligned `u32` per `(s, a)` that packs the next state (low
/// 22 bits), the terminal flag and the reward's stored code, next to a
/// mutable working-format Q column kept *on the storage grid* (every
/// write runs the stochastic rounder, so dequantized codes are the only
/// values the column ever holds). Holding the live column in the working
/// format is a host-executor representation choice, not a semantic one:
/// the architectural stored image is `stored_bits` wide —
/// [`PackedQTable`] materialises it, the resource model prices it — and
/// the on-grid column round-trips through it losslessly, while the hot
/// loop keeps only the writeback rounder on its dependency chain (no
/// per-read dequantize of Q, no per-write encode). The split still
/// narrows the read-only transition stream to half of [`FastCell`]'s
/// 8 bytes.
#[derive(Debug, Clone)]
struct PackedImage<V> {
    nr: Vec<u32>,
    q: Vec<V>,
}

/// Next-state field of [`PackedImage::nr`] words.
const PK_STATE_MASK: u32 = (1 << 22) - 1;
/// Terminal-state flag in [`PackedImage::nr`] words.
const PK_TERMINAL: u32 = 1 << 22;
/// Bit offset of the reward's stored code in [`PackedImage::nr`] words
/// (requires `stored_bits ≤ 8`).
const PK_REWARD_SHIFT: u32 = 24;

/// Invalid window-register address: no real write can carry it (the
/// window-register loop tracks only 3-slot address windows).
const NO_ADDR: usize = usize::MAX;

/// A window codec's stage-1 fetch for one `(s, a)`.
#[derive(Debug, Clone, Copy)]
struct Fetch<V> {
    s_next: State,
    terminal: bool,
    reward: V,
    q: V,
}

/// Stored-word codec of the window-register loop
/// ([`AccelPipeline::run_window`]). A codec owns the image the loop
/// streams — the per-`(s, a)` transition/reward words and the live Q
/// column in its storage form — and the writeback rounder, so one loop
/// body serves every stored format. The loop is monomorphised per codec:
/// the [`FullWidth`] instance is the plain fused-slab loop, the
/// [`Quantized`] instance adds only the stochastic rounder on the
/// writeback path.
trait WindowCodec<V: QValue> {
    /// Largest `|S|` the image's next-state field can address.
    const MAX_STATES: usize;
    /// Stage-1 fetch of the sample at `addr = s·|A| + a`.
    fn fetch(&self, addr: usize) -> Fetch<V>;
    /// Stage-2 read of the Q word at `addr`.
    fn q(&self, addr: usize) -> V;
    /// Stages 3→4: put the Eq. (3) result on the stored grid, write it
    /// at `addr`, and return the stored value.
    fn writeback(&mut self, addr: usize, raw: V) -> V;
    /// Load the live Q column from the committed BRAM image.
    fn load_column(&mut self, q_mem: &[V]);
    /// Write the live Q column back into the committed BRAM image.
    fn store_column(&self, q_mem: &mut [V]);
}

/// The full-width codec (unquantized storage): the fused [`FastCell`]
/// slab and an identity writeback.
#[derive(Debug, Clone)]
struct FullWidth<V>(Vec<FastCell<V>>);

impl<V: QValue> FullWidth<V> {
    fn build<E: Environment>(env: &E, rewards: &RewardTable<V>) -> Self {
        let (ns, na) = (env.num_states(), env.num_actions());
        let mut cells = Vec::with_capacity(ns * na);
        for s in 0..ns as State {
            for a in 0..na as Action {
                let t = env.transition(s, a);
                cells.push(FastCell {
                    next_packed: t | if env.is_terminal(t) { TERMINAL_BIT } else { 0 },
                    reward: rewards.get(s, a),
                    q: V::zero(),
                });
            }
        }
        Self(cells)
    }
}

impl<V: QValue> WindowCodec<V> for FullWidth<V> {
    const MAX_STATES: usize = TERMINAL_BIT as usize;

    #[inline(always)]
    fn fetch(&self, addr: usize) -> Fetch<V> {
        let c = self.0[addr];
        Fetch {
            s_next: c.next_packed & !TERMINAL_BIT,
            terminal: c.next_packed & TERMINAL_BIT != 0,
            reward: c.reward,
            q: c.q,
        }
    }

    #[inline(always)]
    fn q(&self, addr: usize) -> V {
        self.0[addr].q
    }

    #[inline(always)]
    fn writeback(&mut self, addr: usize, raw: V) -> V {
        self.0[addr].q = raw;
        raw
    }

    #[inline]
    fn load_column(&mut self, q_mem: &[V]) {
        for (c, &q) in self.0.iter_mut().zip(q_mem) {
            c.q = q;
        }
    }

    #[inline]
    fn store_column(&self, q_mem: &mut [V]) {
        for (dst, c) in q_mem.iter_mut().zip(&self.0) {
            *dst = c.q;
        }
    }
}

impl<V: QValue> PackedImage<V> {
    /// Rewards were snapped to the stored grid by `enable_quant`, so
    /// their codes are exact; the Q column is loaded on every entry.
    fn build<E: Environment>(env: &E, rewards: &RewardTable<V>, policy: &QuantPolicy) -> Self {
        let (ns, na) = (env.num_states(), env.num_actions());
        let mut nr = Vec::with_capacity(ns * na);
        for s in 0..ns as State {
            for a in 0..na as Action {
                let t = env.transition(s, a);
                let rc = policy
                    .try_code(rewards.get(s, a))
                    .expect("quantized rewards are on-grid") as u32;
                nr.push(
                    (t & PK_STATE_MASK)
                        | if env.is_terminal(t) { PK_TERMINAL } else { 0 }
                        | (rc << PK_REWARD_SHIFT),
                );
            }
        }
        Self {
            nr,
            q: vec![V::zero(); ns * na],
        }
    }
}

/// The q4/q6/q8 codec: the split [`PackedImage`] and the stochastic
/// rounder, dithered by an unrolled view of the `seed_unit::QUANT` LFSR
/// (bit-identical stream, collapsed back into the register at exit).
/// Because the column only ever holds dequantized codes, reading it
/// directly equals dequantize-after-load, and [`QuantPolicy::apply`] is
/// exactly the writeback hook the other executors run.
struct Quantized<V> {
    image: PackedImage<V>,
    policy: QuantPolicy,
    dither: Lfsr32Unrolled,
}

impl<V: QValue> WindowCodec<V> for Quantized<V> {
    const MAX_STATES: usize = PK_TERMINAL as usize;

    #[inline(always)]
    fn fetch(&self, addr: usize) -> Fetch<V> {
        let w = self.image.nr[addr];
        Fetch {
            s_next: w & PK_STATE_MASK,
            terminal: w & PK_TERMINAL != 0,
            reward: self.policy.dequantize::<V>(u64::from(w >> PK_REWARD_SHIFT)),
            q: self.image.q[addr],
        }
    }

    #[inline(always)]
    fn q(&self, addr: usize) -> V {
        self.image.q[addr]
    }

    #[inline(always)]
    fn writeback(&mut self, addr: usize, raw: V) -> V {
        let v = self.policy.apply(raw, u64::from(self.dither.next_u32()));
        self.image.q[addr] = v;
        v
    }

    #[inline]
    fn load_column(&mut self, q_mem: &[V]) {
        // On-grid invariant: with quantization active every committed Q
        // word sits on the stored grid (writes are quantized, SEU
        // strikes flip code-domain bits), so the working-format copy is
        // exactly the dequantized stored image.
        debug_assert!(
            q_mem.iter().all(|&q| self.policy.try_code(q).is_some()),
            "quantized q_mem is on-grid"
        );
        self.image.q.copy_from_slice(q_mem);
    }

    #[inline]
    fn store_column(&self, q_mem: &mut [V]) {
        q_mem.copy_from_slice(&self.image.q);
    }
}

/// The Q-table pipeline core: one engine for Q-Learning, SARSA and every
/// other policy pairing its [`TrainerConfig`](qtaccel_core::trainer::TrainerConfig)
/// picks.
///
/// Generic over a [`TraceSink`] chosen at compile time. With the default
/// [`NullSink`] every instrumentation site monomorphizes away and the
/// window-register loop stays engaged — zero cost when telemetry is off.
/// An instrumented sink maintains the [`CounterBank`] under every
/// executor. Event-bearing sinks receive cycle-stamped [`Event`]s, which
/// only the cycle-accurate engine emits, so
/// [`train_samples_fast`](Self::train_samples_fast) runs that engine for
/// them.
#[derive(Debug, Clone)]
pub struct AccelPipeline<V, S: TraceSink = NullSink> {
    num_states: usize,
    num_actions: usize,
    config: AccelConfig,
    // Which RNG seed bank this pipeline draws from (multi-pipeline
    // configurations stride their units by this index).
    pipeline_index: u64,
    // Stage-1 derived constants.
    alpha_v: V,
    one_minus_alpha: V,
    alpha_gamma: V,
    // Enable-gated LFSR units.
    start_rng: Lfsr32,
    behavior_rng: Lfsr32,
    update_rng: Lfsr32,
    // The Q and Qmax BRAMs: committed images, in-flight writes and
    // forwarding-network visibility horizons.
    mem: Memory<V>,
    rewards: RewardTable<V>,
    // Images of the two window codecs, built on first use (see
    // `run_window`) and invalidated whenever the rewards or the
    // quantization policy change: the fused slab of the full-width
    // codec, and the split image of the quantized codec. Derived caches
    // of immutable environment data — never checkpointed.
    fast_image: Option<FullWidth<V>>,
    packed_image: Option<PackedImage<V>>,
    // Inter-iteration carry: (state, forwarded on-policy action).
    carry: Option<(State, Option<Action>)>,
    next_c1: u64,
    stats: CycleStats,
    // Telemetry: perf-counter bank (live only when `S::COUNTERS`) and
    // the event sink (fed only when `S::EVENTS`).
    counters: CounterBank,
    sink: S,
    // Fault-tolerance runtime (None = fault-free: every hook compiles
    // to one branch on a pointer-sized option, and the fused executor
    // stays engaged).
    fault: Option<Box<FaultRt>>,
    // Quantized-storage runtime (None = full-width storage: the
    // writeback hook is one branch on the option, and the unquantized
    // fast paths stay engaged — DESIGN.md §2.14).
    quant: Option<QuantRt>,
    // Lease-fencing epoch (DESIGN.md §2.16): the cluster worker stamps
    // this before each durable save so a checkpoint names the
    // assignment epoch it was written under. 0 outside cluster runs.
    lease_epoch: u64,
}

impl<V: QValue> AccelPipeline<V> {
    /// Build a pipeline for `env`'s dimensions. `pipeline_index` selects
    /// the RNG seed bank (0 for single-pipeline configurations — the bank
    /// the software golden reference uses). Telemetry is disabled
    /// ([`NullSink`]); use [`AccelPipeline::with_sink`] to instrument.
    pub fn new<E: Environment>(env: &E, config: AccelConfig, pipeline_index: u64) -> Self {
        Self::with_sink(env, config, pipeline_index, NullSink)
    }
}

impl<V: QValue, S: TraceSink> AccelPipeline<V, S> {
    /// Build an instrumented pipeline: like [`AccelPipeline::new`] but
    /// attaching `sink`, which selects the telemetry level at compile
    /// time (see [`TraceSink`]).
    pub fn with_sink<E: Environment>(
        env: &E,
        config: AccelConfig,
        pipeline_index: u64,
        sink: S,
    ) -> Self {
        let seeds = SeedSequence::new(config.trainer.seed);
        let alpha_v = V::from_f64(config.trainer.alpha);
        let gamma_v = V::from_f64(config.trainer.gamma);
        let (s, a) = (env.num_states(), env.num_actions());
        assert!(s > 0 && a > 0, "environment must be non-empty");
        // Qmax BRAM init file: random greedy-action fields (see
        // QmaxTable::randomize_actions for why this is required).
        let mut qmax_mem = vec![(V::zero(), 0 as Action); s];
        let mut init_rng =
            Lfsr32::new(seeds.derive(seed_unit::of(pipeline_index, seed_unit::QMAX_INIT)));
        for e in &mut qmax_mem {
            e.1 = init_rng.below(a as u32);
        }
        let mut counters = CounterBank::new();
        if S::COUNTERS {
            // The pipeline-fill bubbles are a property of the pipe, not
            // of any iteration: account them at construction, matching
            // `CycleStats::fill_bubbles`.
            counters.add(CounterId::FillCycles, FILL);
        }
        let mut sink = sink;
        if S::HEALTH {
            // Size the probe's coverage bitset and denominator now so
            // coverage reads correctly even before the state space is
            // fully explored.
            if let Some(probe) = sink.health_mut() {
                probe.bind_states(s as u64);
            }
        }
        Self {
            num_states: s,
            num_actions: a,
            config,
            pipeline_index,
            alpha_v,
            one_minus_alpha: alpha_v.one_minus(),
            alpha_gamma: alpha_v.mul(gamma_v),
            start_rng: Lfsr32::new(seeds.derive(seed_unit::of(pipeline_index, seed_unit::START))),
            behavior_rng: Lfsr32::new(
                seeds.derive(seed_unit::of(pipeline_index, seed_unit::BEHAVIOR)),
            ),
            update_rng: Lfsr32::new(seeds.derive(seed_unit::of(pipeline_index, seed_unit::UPDATE))),
            mem: Memory {
                q: Port::new(vec![V::zero(); s * a]),
                qmax: Port::new(qmax_mem),
            },
            rewards: RewardTable::from_env(env),
            fast_image: None,
            packed_image: None,
            carry: None,
            next_c1: 0,
            stats: CycleStats {
                fill_bubbles: FILL,
                ..CycleStats::default()
            },
            counters,
            sink,
            fault: None,
            quant: None,
            lease_epoch: 0,
        }
    }

    /// Switch the pipeline to a quantized stored Q-table format
    /// (DESIGN.md §2.14): Q entries are held on `policy`'s grid, every
    /// writeback is stochastically rounded using the dedicated
    /// `seed_unit::QUANT` dither LFSR, and the reward ROM is snapped to
    /// the same grid — so the reference trainer, the cycle-accurate
    /// engine and every fast executor compute bit-identical updates.
    /// Must be called before training starts (mid-run adoption happens
    /// only through checkpoint restore).
    pub fn enable_quant(&mut self, policy: QuantPolicy) {
        assert_eq!(self.stats.samples, 0, "enable_quant before training starts");
        policy.validate_for::<V>();
        self.rewards.map_values(|v| policy.round_nearest(v));
        // Re-encode the (still initial) memory images onto the grid so
        // the on-grid invariant holds from the first sample.
        for v in &mut self.mem.q.image {
            *v = policy.round_nearest(*v);
        }
        for e in &mut self.mem.qmax.image {
            e.0 = policy.round_nearest(e.0);
        }
        // Derived caches embed rewards / Q codes: rebuild on next use.
        self.fast_image = None;
        self.packed_image = None;
        let seeds = SeedSequence::new(self.config.trainer.seed);
        let rng = Lfsr32::new(seeds.derive(seed_unit::of(self.pipeline_index, seed_unit::QUANT)));
        self.quant = Some(QuantRt { policy, rng });
    }

    /// The quantization policy in force, if any.
    pub fn quant(&self) -> Option<&QuantPolicy> {
        self.quant.as_ref().map(|q| &q.policy)
    }

    /// The architectural Q-table in its packed stored form — the BRAM
    /// image a synthesized quantized design would hold (`⌊64/b⌋` codes
    /// per word). `None` unless quantization is enabled. The pack is
    /// lossless because every architectural Q word is on the stored
    /// grid.
    pub fn packed_q_table(&self) -> Option<PackedQTable> {
        self.quant
            .as_ref()
            .map(|q| PackedQTable::from_qtable(&self.q_table(), q.policy))
    }

    /// The configuration in force.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The perf-counter bank. All-zero when `S::COUNTERS` is false
    /// (except that nothing is ever accumulated, so reads are valid
    /// regardless).
    pub fn counters(&self) -> &CounterBank {
        &self.counters
    }

    /// The attached trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The sink's health probe, when one is attached (`None` for every
    /// sink that doesn't opt into `HEALTH` — the default).
    pub fn health_probe(&self) -> Option<&qtaccel_telemetry::HealthProbe> {
        self.sink.health()
    }

    /// Mutable access to the attached trace sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consume the pipeline and return its sink (e.g. to recover a
    /// captured event buffer).
    pub fn into_sink(mut self) -> S {
        self.sink.flush();
        self.sink
    }

    /// Cycle statistics so far.
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// Number of states the tables are sized for.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of actions the tables are sized for.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Bytes of the full-width codec's fused slab (the fast loop's
    /// working set when storage is unquantized): `|S|·|A|` interleaved
    /// transition/reward/Q cells.
    pub fn fast_slab_bytes(&self) -> usize {
        self.num_states
            .saturating_mul(self.num_actions)
            .saturating_mul(core::mem::size_of::<FastCell<V>>())
    }

    // ---- memory model -------------------------------------------------

    /// Commit BRAM `M`'s writes due strictly before `cycle` under model
    /// `W`.
    #[inline(always)]
    fn retire<M: Mem<V>, W: WriteModel<V>>(&mut self, w: &mut W, cycle: u64) {
        let sink = &mut self.sink;
        w.retire::<M, _>(M::port(&mut self.mem), cycle, |p| {
            if S::EVENTS && W::REFERENCE {
                sink.record(&Event::Commit {
                    cycle: p.commit_cycle,
                    mem: M::KIND,
                    addr: p.addr as u64,
                });
            }
        });
    }

    /// Read BRAM `M` at `idx` as issued at `cycle`. Returns the operand
    /// value and the stall delay this read imposes (nonzero only in
    /// stall-only mode).
    ///
    /// The delayed-commit model drains its queues only up to the step's
    /// `c1`, so an in-flight entry whose commit cycle already passed is
    /// *logically* committed: its value equals the BRAM word the
    /// drain-per-read formulation would read, it merely has not been
    /// folded into the image yet. The visibility-horizon comparison below
    /// keeps forwarding counts and stall delays identical to physically
    /// draining at every service point: an entry still forwards (or
    /// stalls the front end) only while its commit cycle is at or above
    /// the highest cycle the memory controller has serviced.
    #[inline(always)]
    fn read<M: Mem<V>, W: WriteModel<V>>(
        &mut self,
        w: &mut W,
        idx: usize,
        cycle: u64,
    ) -> (M::Word, u64) {
        if S::COUNTERS {
            self.counters.inc(M::READS);
        }
        let hazard = self.config.hazard;
        if hazard == HazardMode::Ignore {
            // The stale-BRAM image must be materialized at the read
            // cycle (mid-step commits are architecturally visible here).
            // Amortized O(1): the per-step commit point has already
            // caught the writes up to c1.
            self.retire::<M, W>(w, cycle);
            return (M::port(&mut self.mem).image[idx], 0);
        }
        let port = M::port(&mut self.mem);
        let h = port.horizon.max(cycle);
        port.horizon = h;
        let newest = w.newest::<M>(port, idx);
        let value = newest.map_or(port.image[idx], |p| p.value);
        let events = S::EVENTS && W::REFERENCE;
        let addr = idx as u64;
        match newest {
            Some(p) if p.commit_cycle >= h => {
                if events {
                    self.sink.record(&Event::Hazard {
                        cycle,
                        mem: M::KIND,
                        addr,
                    });
                }
                if hazard == HazardMode::Forwarding {
                    self.stats.forwards += 1;
                    if S::COUNTERS {
                        self.counters.inc(M::FWD_HIT);
                    }
                    if events {
                        self.sink.record(&Event::Forward {
                            cycle,
                            mem: M::KIND,
                            addr,
                        });
                    }
                    (value, 0)
                } else {
                    // Hold the front end until the write commits, then
                    // the read returns the fresh value.
                    let d = p.commit_cycle + 1 - cycle;
                    if events {
                        self.sink.record(&Event::StallBegin {
                            cycle,
                            mem: M::KIND,
                            addr,
                        });
                        self.sink.record(&Event::StallEnd { cycle: cycle + d });
                    }
                    (value, d)
                }
            }
            _ => {
                if S::COUNTERS && hazard == HazardMode::Forwarding {
                    self.counters.inc(CounterId::FwdMiss);
                }
                (value, 0)
            }
        }
    }

    /// Row-maximum read per the configured [`MaxMode`]: a single Qmax
    /// access (0 extra cycles) or the unoptimized |A|-read row scan
    /// (|A|−1 extra stage-2 cycles — the design point §V-A eliminates;
    /// quantified by the `ablation_qmax` experiment).
    #[inline(always)]
    fn read_max<W: WriteModel<V>>(&mut self, w: &mut W, s: State, cycle: u64) -> (V, Action, u64) {
        match self.config.trainer.max_mode {
            MaxMode::QmaxArray => {
                let ((v, a), d) = self.read::<QmaxMem, W>(w, s as usize, cycle);
                (v, a, d)
            }
            MaxMode::ExactScan => {
                let na = self.num_actions;
                let (mut best_v, mut delay) = self.read::<QMem, W>(w, sa_index(s, 0, na), cycle);
                let mut best_a = 0;
                for a in 1..na as Action {
                    let (v, d) = self.read::<QMem, W>(w, sa_index(s, a, na), cycle + a as u64);
                    delay = delay.max(d);
                    if v.vcmp(best_v) == core::cmp::Ordering::Greater {
                        best_v = v;
                        best_a = a;
                    }
                }
                // The scan occupies stage 2 for |A| cycles instead of 1.
                (best_v, best_a, delay + na as u64 - 1)
            }
        }
    }

    /// Stage-4 Qmax read-modify-write. Returns `(wrote, flip)`: whether
    /// the comparator improved the entry, and whether that write changed
    /// the stored greedy action — the health layer's policy-churn signal
    /// (`flip` is only computed under `S::HEALTH` and is `false`
    /// otherwise).
    #[inline(always)]
    fn qmax_writeback<W: WriteModel<V>>(
        &mut self,
        w: &mut W,
        s: State,
        a: Action,
        v: V,
        cycle: u64,
    ) -> (bool, bool) {
        let idx = s as usize;
        if S::COUNTERS {
            // The RMW's read half always accesses the Qmax port.
            self.counters.inc(CounterId::QmaxReads);
        }
        // The comparator's view of the current maximum: through the
        // forwarding network normally, the stale BRAM word in Ignore mode.
        // A pending entry whose commit cycle already passed holds exactly
        // the value the BRAM would after draining, so the newest-writer
        // lookup needs no commit-cycle filter here.
        let (current, current_a) = if self.config.hazard == HazardMode::Ignore {
            self.retire::<QmaxMem, W>(w, cycle);
            self.mem.qmax.image[idx]
        } else {
            // The controller services the RMW at the write cycle,
            // retiring everything due before it: raise the visibility
            // horizon past the next iteration's reads.
            let port = &mut self.mem.qmax;
            port.horizon = port.horizon.max(cycle);
            w.newest::<QmaxMem>(port, idx)
                .map_or(port.image[idx], |p| p.value)
        };
        if v.vcmp(current) == core::cmp::Ordering::Greater {
            if S::COUNTERS {
                self.counters.inc(CounterId::QmaxWrites);
            }
            let p = Pending {
                commit_cycle: cycle,
                addr: idx,
                value: (v, a),
            };
            w.write::<QmaxMem>(&mut self.mem.qmax, p);
            (true, S::HEALTH && a != current_a)
        } else {
            (false, false)
        }
    }

    /// Feed one retired sample to the sink's health probe (no-op unless
    /// `S::HEALTH`; call sites are additionally gated on the const so the
    /// `NullSink` build monomorphizes this away entirely). The stage body
    /// calls this once per retired sample, in retirement order, with the
    /// same arguments under every executor — the probe strides
    /// internally, so its state is bit-exact across executors at any
    /// stride.
    #[inline]
    fn health_tick(
        &mut self,
        write_cycle: u64,
        s: State,
        q_sa: V,
        q_new: V,
        qmax_wrote: bool,
        greedy_flip: bool,
    ) {
        if let Some(probe) = self.sink.health_mut() {
            // With a quantized table the *stored* format's rails are the
            // saturation boundary, not the working format's: feed the
            // probe stored codes at the stored width so rail-proximity
            // counters fire on (say) a 4-bit table long before the
            // 16-bit rails are near. Both values are on the stored grid
            // here (q_sa was read from the table, q_new was quantized
            // before this hook), so the zero-dither encode is exact. TD
            // magnitudes are then measured in stored-grid steps.
            let (qa, qb, bits) = match &self.quant {
                Some(qr) => (
                    qr.policy.quantize(q_sa, 0),
                    qr.policy.quantize(q_new, 0),
                    qr.policy.stored_bits(),
                ),
                None => (V::to_bits(q_sa), V::to_bits(q_new), V::storage_bits()),
            };
            probe.observe_sample(write_cycle, s as u64, qa, qb, bits, qmax_wrote, greedy_flip);
        }
    }

    /// Stochastically round a freshly computed Q-value onto the stored
    /// grid (identity when quantization is off). One dither draw per
    /// retired sample, consumed in retirement order — the property that
    /// keeps every executor on the same RNG stream.
    #[inline(always)]
    fn quantize_writeback(&mut self, q_new: V) -> V {
        match &mut self.quant {
            Some(qr) => qr.policy.apply(q_new, u64::from(qr.rng.next_u32())),
            None => q_new,
        }
    }

    // ---- policy units --------------------------------------------------

    /// One policy unit's draw: `Some(action)` when it picks at random,
    /// `None` when it takes the row maximum. Counts the LFSR draw.
    #[inline(always)]
    fn policy_draw(
        policy: Policy,
        rng: &mut Lfsr32,
        counters: &mut CounterBank,
        n: u32,
        role: &str,
    ) -> Option<Action> {
        let threshold = match policy {
            Policy::Greedy => return None,
            Policy::Random => None,
            Policy::EpsilonGreedy { epsilon } => Some(epsilon_to_q32(epsilon)),
            Policy::Boltzmann { .. } => panic!(
                "Boltzmann {role} policy is not synthesizable on the QRL engine; \
                 use the probability-table bandit engine (qtaccel_accel::bandit)"
            ),
        };
        if S::COUNTERS {
            counters.inc(CounterId::LfsrDraws);
        }
        match threshold {
            None => Some(rng.below(n)),
            Some(t) => epsilon_greedy_draw(rng, t, n),
        }
    }

    /// Stage-1 behaviour action selection; returns the action and any
    /// stall delay from the row-max read of a greedy component.
    #[inline(always)]
    fn behavior_select<W: WriteModel<V>>(
        &mut self,
        w: &mut W,
        s: State,
        cycle: u64,
    ) -> (Action, u64) {
        let policy = self.config.trainer.behavior;
        let n = self.num_actions as u32;
        match Self::policy_draw(
            policy,
            &mut self.behavior_rng,
            &mut self.counters,
            n,
            "behaviour",
        ) {
            Some(a) => (a, 0),
            None => {
                let (_, a, d) = self.read_max(w, s, cycle);
                (a, d)
            }
        }
    }

    /// Stage-2 update-policy selection: the next action *and* the Q-value
    /// operand for the Eq. (3) multiply.
    #[inline(always)]
    fn update_select<W: WriteModel<V>>(
        &mut self,
        w: &mut W,
        s_next: State,
        cycle: u64,
    ) -> (Action, V, u64) {
        let policy = self.config.trainer.update;
        let n = self.num_actions as u32;
        match Self::policy_draw(
            policy,
            &mut self.update_rng,
            &mut self.counters,
            n,
            "update",
        ) {
            Some(a) => {
                let idx = sa_index(s_next, a, self.num_actions);
                let (v, d) = self.read::<QMem, W>(w, idx, cycle);
                (a, v, d)
            }
            None => {
                let (v, a, d) = self.read_max(w, s_next, cycle);
                (a, v, d)
            }
        }
    }

    // ---- execution ------------------------------------------------------

    /// The stage body both write models run: one iteration pushed down
    /// the pipe, one retired sample. Stage 1 (carry or random start,
    /// behaviour action, transition, Q read), stage 2 (update action and
    /// its Q or row-max operand), stage 3 (Eq. 3 and the quantizer) and
    /// stage 4 (Q write, Qmax read-modify-write), then the health tick,
    /// the stats and counters, the carry and — under the reference
    /// model — events and the fault hook.
    #[inline(always)]
    fn stage<W: WriteModel<V>, E: Environment>(&mut self, w: &mut W, env: &E) -> Transition<V> {
        let c1 = self.next_c1;

        // Per-step commit point: retire every write due before this
        // step's stage 1. Reads further into the step resolve any write
        // committing mid-step through the commit-cycle filters in
        // `read`, so this is the only drain the common path performs.
        self.retire::<QMem, W>(w, c1);
        self.retire::<QmaxMem, W>(w, c1);

        // Stage 1: state + behaviour action + transition + reads.
        let (s, a, d1) = match self.carry.take() {
            None => {
                if S::COUNTERS {
                    // One draw per reset call (rejection re-draws inside
                    // `random_start` stay internal to the unit).
                    self.counters.inc(CounterId::LfsrDraws);
                }
                let s = env.random_start(&mut self.start_rng);
                let (a, d) = self.behavior_select(w, s, c1);
                (s, a, d)
            }
            Some((s, Some(a))) => (s, a, 0), // forwarded on-policy action
            Some((s, None)) => {
                let (a, d) = self.behavior_select(w, s, c1);
                (s, a, d)
            }
        };
        let s_next = env.transition(s, a);
        let r = self.rewards.get(s, a);
        let addr = sa_index(s, a, self.num_actions);
        let (q_sa, dq) = self.read::<QMem, W>(w, addr, c1 + d1);
        let d1 = d1 + dq;

        // Stage 2 (cycle c1 + d1 + 1): next action + its Q operand.
        let c2 = c1 + d1 + 1;
        let (a_next, q_next, d2) = self.update_select(w, s_next, c2);

        // Stage 3: Eq. (3), then the quantizer on the writeback path.
        let q_new = self
            .one_minus_alpha
            .mul(q_sa)
            .add(self.alpha_v.mul(r))
            .add(self.alpha_gamma.mul(q_next));
        let q_new = self.quantize_writeback(q_new);

        // Stage 4 (cycle c1 + stalls + 3): writeback.
        let stalls = d1 + d2;
        let write_cycle = c1 + stalls + WRITE_OFFSET;
        let p = Pending {
            commit_cycle: write_cycle,
            addr,
            value: q_new,
        };
        w.write::<QMem>(&mut self.mem.q, p);
        if S::COUNTERS {
            self.counters.inc(CounterId::QWrites);
        }
        let (qmax_wrote, greedy_flip) = self.qmax_writeback(w, s, a, q_new, write_cycle);
        if S::HEALTH {
            self.health_tick(write_cycle, s, q_sa, q_new, qmax_wrote, greedy_flip);
        }

        let iteration = self.stats.samples;
        self.stats.samples += 1;
        self.stats.stalls += stalls;
        self.stats.cycles = write_cycle + 1;
        self.next_c1 = c1 + stalls + 1;
        if S::COUNTERS {
            self.counters.inc(CounterId::SamplesRetired);
            // Stall cycles attributed to the stage whose read imposed
            // them; the two counters sum to `CycleStats::stalls`.
            self.counters.add(CounterId::StallStage1, d1);
            self.counters.add(CounterId::StallStage2, d2);
        }
        if S::EVENTS && W::REFERENCE {
            // Stage occupancy, matching PipelineTrace::record_iteration's
            // long-standing placement: stage 1 at issue, stages 2–4
            // compressed behind the stalls.
            self.sink.record(&Event::Stage {
                cycle: c1,
                stage: 1,
                iteration,
            });
            for k in 1..=3u64 {
                self.sink.record(&Event::Stage {
                    cycle: c1 + stalls + k,
                    stage: (k + 1) as u8,
                    iteration,
                });
            }
        }

        self.carry = if env.is_terminal(s_next) {
            None
        } else {
            Some((
                s_next,
                if self.config.trainer.forward_next_action {
                    Some(a_next)
                } else {
                    None
                },
            ))
        };

        if W::REFERENCE {
            self.fault_tick();
        }

        Transition {
            s,
            a,
            r,
            s_next,
            a_next,
            q_new,
        }
    }

    /// Push one iteration down the pipe through the cycle-accurate
    /// reference: one retired sample. Returns the transition for tracing.
    pub fn step<E: Environment>(&mut self, env: &E) -> Transition<V> {
        debug_assert_eq!(env.num_states(), self.num_states, "environment mismatch");
        debug_assert_eq!(env.num_actions(), self.num_actions, "environment mismatch");
        self.stage(&mut Delayed, env)
    }

    /// Run `n` iterations through the cycle-accurate reference.
    pub fn train_samples<E: Environment>(&mut self, env: &E, n: u64) -> CycleStats {
        for _ in 0..n {
            self.step(env);
        }
        self.stats
    }

    /// [`train_samples`](Self::train_samples) behind a call, so the fast
    /// path's loops are not compiled with the cycle-accurate engine
    /// inlined beside them: inlined, it cost the window-register loop
    /// about 3% per sample on a 2-core x86-64 VM.
    #[inline(never)]
    fn train_samples_out_of_line<E: Environment>(&mut self, env: &E, n: u64) -> CycleStats {
        self.train_samples(env, n)
    }

    // ---- fast path ------------------------------------------------------

    /// Run `n` iterations through the fastest executor the pipeline's
    /// sink and configuration allow — with results bit-identical to
    /// [`train_samples`](Self::train_samples). The routing rule:
    ///
    /// - the **window-register loop** (`run_window`) whenever the
    ///   configuration allows it: uninstrumented sink, no fault runtime,
    ///   `Forwarding` hazards, `QmaxArray` maxima, and `|S|` within the
    ///   stored-word codec's address bound (full-width storage, or a
    ///   quantized format of at most 8 stored bits). Every entry resyncs
    ///   the codec's whole `O(|S|·|A|)` Q column from the committed BRAM
    ///   image and writes it back at exit (the first entry also builds
    ///   the environment image), so a call costs `O(n + |S|·|A|)`: calls
    ///   shorter than the table pay mostly for the resync.
    /// - otherwise, for an event sink (`S::EVENTS`) or an attached fault
    ///   runtime, the cycle-accurate engine itself: the delayed-commit
    ///   model is the only one that emits events, and the only one on
    ///   which a strike meets the documented uncommitted image.
    /// - otherwise the stage body over the **immediate-commit model**,
    ///   which commits writes at issue and keeps only a
    ///   `FAST_RING`-entry window of write history (see `Ring`); it
    ///   keeps every perf counter and feeds the health probe.
    ///
    /// Entry/exit protocols convert between the pending queues and each
    /// loop's window so the executors can be interleaved freely on one
    /// pipeline: final Q-table, Qmax table, [`CycleStats`] and counters
    /// are bit-identical to [`train_samples`](Self::train_samples)
    /// (enforced by the `fast_path` equivalence tests). One observable
    /// caveat: the raw *committed* BRAM image may lead the cycle-accurate
    /// formulation by up to the pipeline depth at the moment of return,
    /// which matters only to [`inject_q_bit_flip`](Self::inject_q_bit_flip)
    /// racing an in-flight write.
    pub fn train_samples_fast<E: Environment>(&mut self, env: &E, n: u64) -> CycleStats {
        debug_assert_eq!(env.num_states(), self.num_states, "environment mismatch");
        debug_assert_eq!(env.num_actions(), self.num_actions, "environment mismatch");

        if S::EVENTS || self.fault.is_some() {
            return self.train_samples_out_of_line(env, n);
        }

        // The window-register loop is uninstrumented by design (its whole
        // point is eliding per-access bookkeeping), so a counter or health
        // sink takes the immediate-commit model below, which keeps every
        // counter. Ineligible quantized configs fall through too: the
        // stage body applies the identical writeback quantizer.
        let window = n > 0
            && !S::COUNTERS
            && !S::HEALTH
            && self.config.hazard == HazardMode::Forwarding
            && self.config.trainer.max_mode == MaxMode::QmaxArray
            && match &self.quant {
                None => self.num_states <= FullWidth::<V>::MAX_STATES,
                Some(q) => {
                    self.num_states <= Quantized::<V>::MAX_STATES && q.policy.stored_bits() <= 8
                }
            };
        if !window {
            let mut ring = Ring::enter(&mut self.mem, self.config.hazard != HazardMode::Ignore);
            for _ in 0..n {
                self.stage(&mut ring, env);
            }
            ring.exit(&mut self.mem, self.next_c1);
            return self.stats;
        }
        match self.quant.take() {
            None => {
                let codec = self
                    .fast_image
                    .take()
                    .unwrap_or_else(|| FullWidth::build(env, &self.rewards));
                self.fast_image = Some(self.run_window(env, n, codec));
            }
            Some(mut quant) => {
                let image = self
                    .packed_image
                    .take()
                    .unwrap_or_else(|| PackedImage::build(env, &self.rewards, &quant.policy));
                let codec = Quantized {
                    image,
                    policy: quant.policy,
                    dither: Lfsr32Unrolled::new(&quant.rng),
                };
                let codec = self.run_window(env, n, codec);
                quant.rng = codec.dither.into_lfsr();
                self.packed_image = Some(codec.image);
                self.quant = Some(quant);
            }
        }
        self.stats
    }

    /// The window-register loop for `Forwarding` + `QmaxArray`, generic
    /// over the stored-word codec `C` (see [`WindowCodec`]).
    ///
    /// In that configuration every read delay is zero, so stage-1 issues
    /// at consecutive cycles and every write lands exactly
    /// [`WRITE_OFFSET`] cycles after its iteration's stage 1. The
    /// drain-horizon visibility tests then collapse to *fixed sample
    /// distances*:
    ///
    /// - a stage-1 Q read (cycle `c1`, horizon ≤ `c1`) forwards iff its
    ///   address was written by one of the previous **3** iterations;
    /// - a stage-2 Q read (cycle `c1 + 1`) forwards iff its address was
    ///   written by one of the previous **2** iterations;
    /// - a Qmax read (horizon pinned to the previous iteration's RMW at
    ///   `c1 + 2`) forwards iff the previous iteration *improved* that
    ///   entry.
    ///
    /// So the whole forwarding network reduces to three address
    /// registers rotated once per sample — no ring scans, no cycle
    /// arithmetic in the loop. The codec's dense `|S|·|A|` image of
    /// `(next_state, terminal, reward)` words replaces the per-sample
    /// transition call, and the ε-greedy comparator thresholds are
    /// hoisted out of the loop; the RNG draw order (behaviour → update →
    /// dither, per retired sample) is unchanged, so results stay
    /// bit-identical (the `fast_path` and `quant` equivalence tests run
    /// this loop wherever the config matches).
    ///
    /// The codec is taken by value and handed back, so its image handles
    /// and dither register live in locals for the duration of the loop.
    fn run_window<C: WindowCodec<V>, E: Environment>(
        &mut self,
        env: &E,
        n: u64,
        mut codec: C,
    ) -> C {
        debug_assert!(n > 0);
        let na = self.num_actions;
        let entry_c1 = self.next_c1;

        // Pre-resolved policy units (identical draw order to the
        // cycle-accurate selectors; Boltzmann is rejected exactly as
        // behavior_select/update_select would).
        #[derive(Clone, Copy)]
        enum FastPolicy {
            Random,
            Greedy,
            Eps(u32),
        }
        let resolve = |p: Policy, role: &str| match p {
            Policy::Random => FastPolicy::Random,
            Policy::Greedy => FastPolicy::Greedy,
            Policy::EpsilonGreedy { epsilon } => FastPolicy::Eps(epsilon_to_q32(epsilon)),
            Policy::Boltzmann { .. } => panic!(
                "Boltzmann {role} policy is not synthesizable on the QRL engine; \
                 use the probability-table bandit engine (qtaccel_accel::bandit)"
            ),
        };
        let behavior = resolve(self.config.trainer.behavior, "behaviour");
        let update = resolve(self.config.trainer.update, "update");
        let forward_action = self.config.trainer.forward_next_action;

        // Entry: commit every pending write (memory = newest image) and
        // load the window registers from the writes still visible to the
        // forwarding network. Invalid window slots use an address no real
        // write can carry.
        // Only *addresses* are tracked in the windows: every read is
        // served by the immediately-committed tables, and every consumer
        // of the reconstructed pending queues (forwarding lookup, in-order
        // commit, `q_table`) observes the newest write per address — so
        // the exit protocol can recover each window value from the
        // committed image instead of rotating values through the loop.
        let mut qw_addr = [NO_ADDR; 3]; // [0] = previous iteration
        while let Some(p) = self.mem.q.pending.pop_front() {
            self.mem.q.image[p.addr] = p.value;
            debug_assert!(p.commit_cycle <= entry_c1 + 2, "stall-free write bound");
            if p.commit_cycle >= entry_c1 {
                let slot = (entry_c1 + 2 - p.commit_cycle) as usize;
                qw_addr[slot] = p.addr;
            }
        }
        let mut mw_addr = [NO_ADDR; 3];
        while let Some(p) = self.mem.qmax.pending.pop_front() {
            self.mem.qmax.image[p.addr] = p.value;
            debug_assert!(p.commit_cycle <= entry_c1 + 2, "stall-free write bound");
            if p.commit_cycle >= entry_c1 {
                let slot = (entry_c1 + 2 - p.commit_cycle) as usize;
                mw_addr[slot] = p.addr;
            }
        }
        self.mem.q.fwd.clear();
        self.mem.qmax.fwd.clear();
        codec.load_column(&self.mem.q.image);

        let mut carry = self.carry.take();
        let mut forwards = 0u64;
        // Did the final iteration's update policy read the Q BRAM (rather
        // than the Qmax array)? Decides the exit Q-read horizon.
        let mut last_update_read_q = false;

        let qmax = &mut self.mem.qmax.image[..];
        let (one_minus_alpha, alpha_v, alpha_gamma) =
            (self.one_minus_alpha, self.alpha_v, self.alpha_gamma);

        // Two-ahead unrolled views of the policy RNGs (bit-identical
        // streams, half the serial leap latency per draw); collapsed back
        // into the registers at exit.
        let mut behavior_rng = Lfsr32Unrolled::new(&self.behavior_rng);
        let mut update_rng = Lfsr32Unrolled::new(&self.update_rng);

        for _ in 0..n {
            // Stage 1: state + behaviour action.
            let (s, carried_a) = match carry.take() {
                None => (env.random_start(&mut self.start_rng), None),
                Some((s, a)) => (s, a),
            };
            let a = match carried_a {
                Some(a) => a,
                None => match behavior {
                    FastPolicy::Random => {
                        ((behavior_rng.next_u32() as u64 * na as u64) >> 32) as u32
                    }
                    FastPolicy::Greedy => {
                        forwards += u64::from(mw_addr[0] == s as usize);
                        qmax[s as usize].1
                    }
                    FastPolicy::Eps(thr) => {
                        let x = behavior_rng.next_u32();
                        if x < thr {
                            ((x as u64 * na as u64) / thr as u64) as u32
                        } else {
                            forwards += u64::from(mw_addr[0] == s as usize);
                            qmax[s as usize].1
                        }
                    }
                },
            };
            let qaddr = s as usize * na + a as usize;
            let f = codec.fetch(qaddr);
            let s_next = f.s_next;
            forwards +=
                u64::from(qaddr == qw_addr[0] || qaddr == qw_addr[1] || qaddr == qw_addr[2]);

            // Stage 2: update selection one cycle later, so only the two
            // youngest Q writes are still in flight.
            let read_q2 = |rng: &mut Lfsr32Unrolled, x: Option<u32>, thr: u32| {
                let an = match x {
                    Some(x) => ((x as u64 * na as u64) / thr as u64) as u32,
                    None => ((rng.next_u32() as u64 * na as u64) >> 32) as u32,
                };
                (an, sa_index(s_next, an, na))
            };
            let (a_next, q_next) = match update {
                FastPolicy::Greedy => {
                    last_update_read_q = false;
                    forwards += u64::from(mw_addr[0] == s_next as usize);
                    let (v, an) = qmax[s_next as usize];
                    (an, v)
                }
                FastPolicy::Random => {
                    let (an, addr) = read_q2(&mut update_rng, None, 0);
                    last_update_read_q = true;
                    forwards += u64::from(addr == qw_addr[0] || addr == qw_addr[1]);
                    (an, codec.q(addr))
                }
                FastPolicy::Eps(thr) => {
                    let x = update_rng.next_u32();
                    if x < thr {
                        let (an, addr) = read_q2(&mut update_rng, Some(x), thr);
                        last_update_read_q = true;
                        forwards += u64::from(addr == qw_addr[0] || addr == qw_addr[1]);
                        (an, codec.q(addr))
                    } else {
                        last_update_read_q = false;
                        forwards += u64::from(mw_addr[0] == s_next as usize);
                        let (v, an) = qmax[s_next as usize];
                        (an, v)
                    }
                }
            };

            // Stage 3: Eq. (3), then the codec's rounder on the writeback
            // path.
            let q_raw = one_minus_alpha
                .mul(f.q)
                .add(alpha_v.mul(f.reward))
                .add(alpha_gamma.mul(q_next));

            // Stage 4: writeback + Qmax RMW, then age the address windows.
            let q_new = codec.writeback(qaddr, q_raw);
            qw_addr[2] = qw_addr[1];
            qw_addr[1] = qw_addr[0];
            qw_addr[0] = qaddr;

            mw_addr[2] = mw_addr[1];
            mw_addr[1] = mw_addr[0];
            if q_new.vcmp(qmax[s as usize].0) == core::cmp::Ordering::Greater {
                qmax[s as usize] = (q_new, a);
                mw_addr[0] = s as usize;
            } else {
                mw_addr[0] = NO_ADDR;
            }

            carry = if f.terminal {
                None
            } else {
                Some((s_next, if forward_action { Some(a_next) } else { None }))
            };
        }

        // Write the live Q column back into the committed BRAM image and
        // resynchronise the serial RNG registers.
        codec.store_column(&mut self.mem.q.image);
        self.behavior_rng = behavior_rng.into_lfsr();
        self.update_rng = update_rng.into_lfsr();

        // Exit: closed-form cycle accounting and pending-queue
        // reconstruction, so a subsequent run under either write model
        // observes identical state.
        self.carry = carry;
        let end_c1 = entry_c1 + n;
        self.next_c1 = end_c1;
        self.stats.samples += n;
        self.stats.forwards += forwards;
        self.stats.cycles = end_c1 - 1 + WRITE_OFFSET + 1;
        self.mem.q.horizon = end_c1 - 1 + u64::from(last_update_read_q);
        self.mem.qmax.horizon = end_c1 - 1 + WRITE_OFFSET;
        // Window values are recovered from the committed tables: if one
        // address appears in two slots the older entry also gets the
        // newest value, which is unobservable — forwarding and `q_table`
        // read the newest writer per address, and in-order commit makes
        // the newest value land last regardless.
        for slot in (0..3).rev() {
            if qw_addr[slot] != NO_ADDR {
                let p = Pending {
                    commit_cycle: end_c1 + 2 - slot as u64,
                    addr: qw_addr[slot],
                    value: self.mem.q.image[qw_addr[slot]],
                };
                self.mem.q.push(p);
            }
            if mw_addr[slot] != NO_ADDR {
                let p = Pending {
                    commit_cycle: end_c1 + 2 - slot as u64,
                    addr: mw_addr[slot],
                    value: self.mem.qmax.image[mw_addr[slot]],
                };
                self.mem.qmax.push(p);
            }
        }
        codec
    }

    /// Inject a single-event upset: flip `bit` of the *committed* Q BRAM
    /// word for (s, a). Models a radiation-induced soft error in the
    /// on-chip memory (in-flight pipeline values are unaffected, exactly
    /// as a BRAM cell flip would behave). Used by the `seu_robustness`
    /// experiment.
    pub fn inject_q_bit_flip(&mut self, s: State, a: Action, bit: u32) {
        let idx = sa_index(s, a, self.num_actions);
        // Under a quantized table the physical cell is `stored_bits`
        // wide: fold the requested bit into the code domain so the
        // struck word stays representable on the stored grid.
        let bit = match &self.quant {
            Some(qr) => (bit % qr.policy.stored_bits()) + qr.policy.shift(),
            None => bit,
        };
        self.mem.q.image[idx] = self.mem.q.image[idx].flip_bit(bit);
    }

    /// Extract the architectural Q-table (committed image plus in-flight
    /// writes, applied in order — what reading back the BRAM after
    /// drain would show).
    pub fn q_table(&self) -> QTable<V> {
        let mut q = QTable::new(self.num_states, self.num_actions);
        let mem = self.mem.q.drained();
        for s in 0..self.num_states as State {
            for a in 0..self.num_actions as Action {
                q.set(s, a, mem[sa_index(s, a, self.num_actions)]);
            }
        }
        q
    }

    /// Extract the architectural Qmax array.
    pub fn qmax_table(&self) -> QmaxTable<V> {
        let mut t = QmaxTable::new(self.num_states);
        for (s, (v, a)) in self.mem.qmax.drained().iter().enumerate() {
            t.poke(s as State, *v, *a);
        }
        t
    }

    /// Exact greedy policy from the architectural Q-table.
    pub fn greedy_policy(&self) -> Vec<Action> {
        self.q_table().greedy_policy()
    }

    // ---- fault-tolerance runtime ---------------------------------------

    /// Attach (or replace) the fault-tolerance runtime: online SEU
    /// injection against the Q/Qmax memories, the SECDED protection
    /// model, and the background Qmax scrubbing engine (see
    /// [`FaultConfig`] and the `crate::fault` module docs).
    ///
    /// With a runtime attached every call runs the cycle-accurate engine,
    /// the delayed-commit model whose per-retired-sample fault hook
    /// strikes the documented committed image ([`train_samples_fast`]
    /// routes there too); without one, every execution path is
    /// bit-identical to a build without this feature.
    ///
    /// [`train_samples_fast`]: Self::train_samples_fast
    /// Replacing the runtime resets its counters and injector streams.
    pub fn enable_faults(&mut self, config: FaultConfig) {
        self.fault = Some(Box::new(FaultRt::new(config)));
    }

    /// Detach the fault runtime (fault-free operation resumes; any
    /// corruption already landed in the tables of course remains).
    pub fn disable_faults(&mut self) {
        self.fault = None;
    }

    /// The fault configuration in force, if a runtime is attached.
    pub fn fault_config(&self) -> Option<FaultConfig> {
        self.fault.as_ref().map(|f| f.config)
    }

    /// Snapshot of the fault-campaign counters, if a runtime is attached.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|f| f.stats)
    }

    /// Per-retired-sample fault hook: one SEU opportunity per memory,
    /// then one scrub slot. A single `None` check on the fault-free path.
    #[inline(always)]
    fn fault_tick(&mut self) {
        if self.fault.is_some() {
            self.fault_tick_active();
        }
    }

    /// The active-runtime body of [`fault_tick`](Self::fault_tick),
    /// out-of-line so the fault-free loops stay tight.
    fn fault_tick_active(&mut self) {
        let mut f = self.fault.take().expect("caller checked is_some");
        // With a quantized table the BRAM cell holds `stored_bits` code
        // bits, so strikes draw over the code domain and land at raw bit
        // `code_bit + shift` — which keeps the struck word on the stored
        // grid (the on-grid invariant the packed paths rely on) and
        // models the physically narrower word.
        let (width, shift) = match &self.quant {
            Some(qr) => (qr.policy.stored_bits(), qr.policy.shift()),
            None => (V::storage_bits(), 0),
        };
        // Strikes land in the *committed* BRAM images — an in-flight
        // pipeline value is flip-flop state, not a memory cell, and a
        // pending write that later commits over a struck word rewrites
        // (re-encodes) it, exactly as the hardware would.
        if let Some((addr, bit)) = f.q_inj.maybe_strike(self.mem.q.image.len(), width) {
            f.stats.injected_q += 1;
            if let Some(v) = strike_word(
                self.mem.q.image[addr],
                &mut f.q_latent,
                &mut f.stats,
                f.config.ecc,
                addr,
                bit + shift,
            ) {
                self.mem.q.image[addr] = v;
            }
        }
        // The Qmax strike model targets the value field (the wide,
        // latch-poisoning-prone part of the word); the narrow action
        // field shares the codeword under ECC but its upset cross
        // section is a rounding error next to the value bits.
        if let Some((addr, bit)) = f.qmax_inj.maybe_strike(self.mem.qmax.image.len(), width) {
            f.stats.injected_qmax += 1;
            if let Some(v) = strike_word(
                self.mem.qmax.image[addr].0,
                &mut f.qmax_latent,
                &mut f.stats,
                f.config.ecc,
                addr,
                bit + shift,
            ) {
                self.mem.qmax.image[addr].0 = v;
            }
        }
        if f.config.scrub_period > 0 {
            f.samples_since_scrub += 1;
            if f.samples_since_scrub >= f.config.scrub_period {
                f.samples_since_scrub = 0;
                self.scrub_slot(&mut f);
            }
        }
        self.fault = Some(f);
    }

    /// One scrub engine slot: rebuild the Qmax entry under the cursor
    /// exactly from the committed Q row (value *and* greedy-action
    /// field, ties to the lowest action — `QmaxTable::rebuild_exact`
    /// semantics, one state at a time).
    fn scrub_slot(&mut self, f: &mut FaultRt) {
        let s = f.scrub_cursor;
        let base = s * self.num_actions;
        let mut best_v = self.mem.q.image[base];
        let mut best_a = 0 as Action;
        for a in 1..self.num_actions {
            let v = self.mem.q.image[base + a];
            if v.vcmp(best_v) == core::cmp::Ordering::Greater {
                best_v = v;
                best_a = a as Action;
            }
        }
        f.stats.scrub_entries += 1;
        let cur = self.mem.qmax.image[s];
        if QValue::to_bits(cur.0) != QValue::to_bits(best_v) || cur.1 != best_a {
            self.mem.qmax.image[s] = (best_v, best_a);
            f.stats.scrub_repairs += 1;
            // The scrub writeback re-encodes the word: a recorded latent
            // ECC error on it is gone.
            f.qmax_latent.retain(|l| l.addr != s);
        }
        f.scrub_cursor += 1;
        if f.scrub_cursor >= self.num_states {
            f.scrub_cursor = 0;
            f.stats.scrub_rounds += 1;
        }
    }

    // ---- checkpoint / restore ------------------------------------------

    /// Serialize the full mutable training state into a checkpoint
    /// container (see `crate::checkpoint` for the format): Q/Qmax
    /// images, the three LFSR unit states, cycle statistics, the
    /// inter-iteration carry, in-flight write queues (the pipeline is
    /// *not* quiesced — resume is bit-exact mid-flight), and the fault
    /// runtime if one is attached. Telemetry (counter bank, event sink)
    /// is observability, not architectural state, and is not captured —
    /// with one exception: an attached health probe *is* captured, so a
    /// resumed run probes exactly the samples the unbroken run would
    /// (the stride cursor is part of the sampling plan).
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let format = V::format_name();
        let health = self.sink.health().map(|probe| probe.checkpoint_words());
        let payload_words = self.checkpoint_payload_words(&format, health.as_deref());
        let mut w = WordWriter::with_header(payload_words);
        w.push_str(&format);
        w.push(V::storage_bits() as u64);
        w.push(self.num_states as u64);
        w.push(self.num_actions as u64);
        // Cycle statistics.
        w.push(self.stats.cycles);
        w.push(self.stats.samples);
        w.push(self.stats.stalls);
        w.push(self.stats.fill_bubbles);
        w.push(self.stats.forwards);
        // LFSR unit states (peek/new round-trips exactly; a live LFSR
        // state is never zero, so the zero-seed remap cannot fire).
        w.push(self.start_rng.peek() as u64);
        w.push(self.behavior_rng.peek() as u64);
        w.push(self.update_rng.peek() as u64);
        // Control state.
        let (tag, cs, ca) = match self.carry {
            None => (0u64, 0u64, 0u64),
            Some((s, None)) => (1, s as u64, 0),
            Some((s, Some(a))) => (2, s as u64, a as u64),
        };
        w.push(tag);
        w.push(cs);
        w.push(ca);
        w.push(self.next_c1);
        w.push(self.mem.q.horizon);
        w.push(self.mem.qmax.horizon);
        // Memory images, then the in-flight write queues.
        for &v in &self.mem.q.image {
            QMem::save(v, &mut w);
        }
        for &e in &self.mem.qmax.image {
            QmaxMem::save(e, &mut w);
        }
        save_queue::<V, QMem>(&self.mem.q, &mut w);
        save_queue::<V, QmaxMem>(&self.mem.qmax, &mut w);
        // Fault runtime.
        match &self.fault {
            None => w.push(0),
            Some(f) => {
                w.push(1);
                w.push(f.config.seed);
                w.push_f64(f.config.q_seu_rate);
                w.push_f64(f.config.qmax_seu_rate);
                w.push(f.config.ecc as u64);
                w.push(f.config.scrub_period);
                w.push(f.q_inj.rng_state() as u64);
                w.push(f.q_inj.injected());
                w.push(f.qmax_inj.rng_state() as u64);
                w.push(f.qmax_inj.injected());
                w.push(f.scrub_cursor as u64);
                w.push(f.samples_since_scrub);
                w.push(f.stats.injected_q);
                w.push(f.stats.injected_qmax);
                w.push(f.stats.corrected);
                w.push(f.stats.detected_uncorrectable);
                w.push(f.stats.scrub_entries);
                w.push(f.stats.scrub_rounds);
                w.push(f.stats.scrub_repairs);
                for latents in [&f.q_latent, &f.qmax_latent] {
                    w.push(latents.len() as u64);
                    for l in latents {
                        w.push(l.addr as u64);
                        w.push(l.bit as u64);
                        w.push(l.snapshot);
                    }
                }
            }
        }
        // Health probe (length-prefixed so readers without the section
        // still parse; readers of older checkpoints see it absent).
        match &health {
            None => w.push(0),
            Some(words) => {
                w.push(1);
                w.push(words.len() as u64);
                for &word in words {
                    w.push(word);
                }
            }
        }
        // Quantized-storage section (trailing, same absent-tag scheme:
        // readers of older checkpoints see it absent). The Q/Qmax images
        // above stay working-format words — they are on the stored grid,
        // so the round trip is exact and unquantized readers still parse.
        match &self.quant {
            None => w.push(0),
            Some(qr) => {
                w.push(1);
                w.push(qr.policy.stored_bits() as u64);
                w.push(qr.policy.shift() as u64);
                w.push(qr.rng.peek() as u64);
            }
        }
        // Lease-epoch section (trailing, same absent-tag scheme). Only
        // written when non-zero so non-cluster checkpoints stay
        // byte-identical to what earlier releases wrote.
        if self.lease_epoch != 0 {
            w.push(1);
            w.push(self.lease_epoch);
        }
        let bytes = w.finish();
        debug_assert_eq!(bytes.len(), (payload_words + 3) * 8, "payload size drifted");
        bytes
    }

    /// Exactly how many payload words [`checkpoint_bytes`](Self::checkpoint_bytes)
    /// writes, so its buffer is reserved once at the file's final size.
    fn checkpoint_payload_words(&self, format: &str, health: Option<&[u64]>) -> usize {
        // Storage bits, dimensions, cycle stats, LFSR states, carry,
        // next_c1 and the two horizons.
        const FIXED: usize = 3 + 5 + 3 + 3 + 1 + 2;
        // Fault config, injector states, scrub cursor and fault stats.
        const FAULT_FIXED: usize = 5 + 4 + 2 + 7;
        let images = self.mem.q.image.len() + 2 * self.mem.qmax.image.len();
        let queues = 2 + 3 * self.mem.q.pending.len() + 4 * self.mem.qmax.pending.len();
        let fault = 1 + self.fault.as_ref().map_or(0, |f| {
            FAULT_FIXED + 2 + 3 * (f.q_latent.len() + f.qmax_latent.len())
        });
        let health = 1 + health.map_or(0, |words| 1 + words.len());
        let quant = 1 + if self.quant.is_some() { 3 } else { 0 };
        let lease = if self.lease_epoch != 0 { 2 } else { 0 };
        WordWriter::str_words(format) + FIXED + images + queues + fault + health + quant + lease
    }

    /// Restore state captured by [`checkpoint_bytes`](Self::checkpoint_bytes)
    /// into this pipeline. The pipeline must have been built for the
    /// same environment dimensions, value format *and configuration* as
    /// the checkpointed one (dimensions and format are verified;
    /// trainer/hazard configuration is the caller's contract — restoring
    /// under a different config is well-defined but obviously not a
    /// bit-exact resume of the original run).
    ///
    /// All-or-nothing: on any error the pipeline is left untouched.
    pub fn restore_checkpoint_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = WordReader::parse(bytes)?;
        let found = r.next_str()?;
        let expected = V::format_name();
        if found != expected {
            return Err(CheckpointError::Mismatch {
                field: "value format",
                expected,
                found,
            });
        }
        let bits = r.next()?;
        if bits != V::storage_bits() as u64 {
            return Err(CheckpointError::Mismatch {
                field: "storage bits",
                expected: V::storage_bits().to_string(),
                found: bits.to_string(),
            });
        }
        let ns = r.next()?;
        if ns != self.num_states as u64 {
            return Err(CheckpointError::Mismatch {
                field: "num_states",
                expected: self.num_states.to_string(),
                found: ns.to_string(),
            });
        }
        let na = r.next()?;
        if na != self.num_actions as u64 {
            return Err(CheckpointError::Mismatch {
                field: "num_actions",
                expected: self.num_actions.to_string(),
                found: na.to_string(),
            });
        }
        // Decode everything into temporaries first so a short payload
        // cannot leave the pipeline half-restored.
        let stats = CycleStats {
            cycles: r.next()?,
            samples: r.next()?,
            stalls: r.next()?,
            fill_bubbles: r.next()?,
            forwards: r.next()?,
        };
        let start_rng = Lfsr32::new(r.next()? as u32);
        let behavior_rng = Lfsr32::new(r.next()? as u32);
        let update_rng = Lfsr32::new(r.next()? as u32);
        let (tag, cs, ca) = (r.next()?, r.next()? as State, r.next()? as Action);
        let carry = match tag {
            0 => None,
            1 => Some((cs, None)),
            _ => Some((cs, Some(ca))),
        };
        let next_c1 = r.next()?;
        let (q_horizon, qmax_horizon) = (r.next()?, r.next()?);
        let mut q = Port::new(load_image::<V, QMem>(&mut r, self.mem.q.image.len())?);
        let mut qmax = Port::new(load_image::<V, QmaxMem>(&mut r, self.mem.qmax.image.len())?);
        q.horizon = q_horizon;
        qmax.horizon = qmax_horizon;
        load_queue::<V, QMem>(&mut q, &mut r)?;
        load_queue::<V, QmaxMem>(&mut qmax, &mut r)?;
        let fault = if r.next()? == 0 {
            None
        } else {
            let config = FaultConfig {
                seed: r.next()?,
                q_seu_rate: r.next_f64()?,
                qmax_seu_rate: r.next_f64()?,
                ecc: r.next()? != 0,
                scrub_period: r.next()?,
            };
            let mut f = FaultRt::new(config);
            let (qs, qi) = (r.next()? as u32, r.next()?);
            f.q_inj.restore(qs, qi);
            let (ms, mi) = (r.next()? as u32, r.next()?);
            f.qmax_inj.restore(ms, mi);
            f.scrub_cursor = r.next()? as usize;
            f.samples_since_scrub = r.next()?;
            f.stats = FaultStats {
                injected_q: r.next()?,
                injected_qmax: r.next()?,
                corrected: r.next()?,
                detected_uncorrectable: r.next()?,
                scrub_entries: r.next()?,
                scrub_rounds: r.next()?,
                scrub_repairs: r.next()?,
            };
            for latents in [&mut f.q_latent, &mut f.qmax_latent] {
                let n = r.next()? as usize;
                for _ in 0..n {
                    latents.push(LatentError {
                        addr: r.next()? as usize,
                        bit: r.next()? as u32,
                        snapshot: r.next()?,
                    });
                }
            }
            Some(Box::new(f))
        };
        // Health probe section. Checkpoints written before health
        // instrumentation existed simply end here — treat that exactly
        // like a health-absent checkpoint. Decoded (and validated)
        // before the commit phase, like everything else.
        let health = if r.remaining() == 0 || r.next()? == 0 {
            None
        } else {
            let nwords = r.next_len()?;
            let words: Vec<u64> = r
                .take(nwords)?
                .chunks_exact(8)
                .map(|w| word_at(w, 0))
                .collect();
            let mut probe =
                qtaccel_telemetry::HealthProbe::new(qtaccel_telemetry::HealthConfig::default());
            probe
                .restore_from_words(&words)
                .map_err(|e| CheckpointError::Mismatch {
                    field: "health probe",
                    expected: "internally consistent probe section".to_string(),
                    found: e,
                })?;
            if probe.num_states() != 0 && probe.num_states() != self.num_states as u64 {
                return Err(CheckpointError::Mismatch {
                    field: "health probe num_states",
                    expected: self.num_states.to_string(),
                    found: probe.num_states().to_string(),
                });
            }
            Some(probe)
        };
        // Quantized-storage section. Checkpoints written before
        // quantization existed end here — treat that as quant-absent.
        // Validated manually (typed error, not a panic) before commit.
        let quant = if r.remaining() == 0 || r.next()? == 0 {
            None
        } else {
            let stored_bits = r.next()? as u32;
            let shift = r.next()? as u32;
            let w = V::storage_bits();
            let valid = (2..=32).contains(&stored_bits)
                && shift < 32
                && stored_bits < w
                && stored_bits + shift <= w;
            if !valid {
                return Err(CheckpointError::Mismatch {
                    field: "quant policy",
                    expected: format!("stored_bits in [2, {w}), stored_bits + shift <= {w}"),
                    found: format!("stored_bits {stored_bits}, shift {shift}"),
                });
            }
            let rng = Lfsr32::new(r.next()? as u32);
            Some(QuantRt {
                policy: QuantPolicy::new(stored_bits, shift),
                rng,
            })
        };
        // Lease-epoch section. Absent (older or non-cluster checkpoint)
        // means epoch 0.
        let lease_epoch = if r.remaining() == 0 || r.next()? == 0 {
            0
        } else {
            r.next()?
        };

        // Commit.
        self.stats = stats;
        self.start_rng = start_rng;
        self.behavior_rng = behavior_rng;
        self.update_rng = update_rng;
        self.carry = carry;
        self.next_c1 = next_c1;
        self.mem = Memory { q, qmax };
        self.fault = fault;
        // Adopt the checkpoint's quantization state wholesale. A
        // quant-absent checkpoint restored into a quant-enabled pipeline
        // (or vice versa) is a configuration mismatch like restoring
        // under a different trainer config — well-defined (the restored
        // state simply runs under the restored quant mode) but not a
        // bit-exact resume; matching configs is the caller's contract.
        if let Some(qr) = &quant {
            // Rewards are not checkpointed: snap them to the restored
            // grid (idempotent when they already are).
            let policy = qr.policy;
            self.rewards.map_values(|v| policy.round_nearest(v));
        }
        self.quant = quant;
        self.lease_epoch = lease_epoch;
        // Derived caches embed rewards / stored codes.
        self.fast_image = None;
        self.packed_image = None;
        if S::HEALTH {
            if let Some(slot) = self.sink.health_mut() {
                match health {
                    Some(probe) => *slot = probe,
                    // Pre-health checkpoint: the resumed run's probe
                    // starts fresh (its binding survives the reset).
                    None => slot.reset(),
                }
            }
        }
        Ok(())
    }

    /// Durably write a checkpoint to `path` (atomic write-then-rename:
    /// a crash leaves either the previous or the new complete file).
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), CheckpointError> {
        checkpoint::atomic_write(path, &self.checkpoint_bytes())
    }

    /// Restore from a checkpoint file written by
    /// [`save_checkpoint`](Self::save_checkpoint). Truncated, corrupt,
    /// wrong-version or wrong-shape files are refused with a typed
    /// [`CheckpointError`] and leave the pipeline untouched.
    pub fn restore_checkpoint(&mut self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = std::fs::read(path)?;
        self.restore_checkpoint_bytes(&bytes)
    }

    /// The lease-fencing epoch the pipeline currently trains under
    /// (stamped into every checkpoint it saves; 0 outside cluster runs).
    pub fn lease_epoch(&self) -> u64 {
        self.lease_epoch
    }

    /// Stamp the lease-fencing epoch. The cluster worker sets this when
    /// it picks a lease up, so checkpoints written from a superseded
    /// assignment are distinguishable from the live one. Epoch state is
    /// metadata only — it never feeds the training datapath, so stamping
    /// it cannot perturb bit-exactness.
    pub fn set_lease_epoch(&mut self, epoch: u64) {
        self.lease_epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_core::trainer::{RefTrainer, TrainerConfig};
    use qtaccel_envs::GridWorld;
    use qtaccel_fixed::{Q16_16, Q8_8};

    fn grid() -> GridWorld {
        GridWorld::builder(8, 8).goal(7, 7).build()
    }

    fn config(seed: u64) -> AccelConfig {
        AccelConfig::default().with_seed(seed)
    }

    #[test]
    fn one_sample_per_cycle_with_forwarding() {
        let g = grid();
        let mut p = AccelPipeline::<Q8_8>::new(&g, config(1), 0);
        let stats = p.train_samples(&g, 10_000);
        assert_eq!(stats.samples, 10_000);
        assert_eq!(stats.stalls, 0, "forwarding never stalls");
        assert_eq!(stats.cycles, 10_000 + FILL, "fill + 1/cycle");
        assert!(stats.samples_per_cycle() > 0.999);
    }

    #[test]
    fn forwarding_events_happen() {
        // Consecutive updates do collide on this small world; the
        // forwarding network must actually fire.
        let g = GridWorld::builder(2, 2).goal(1, 1).build();
        let mut p = AccelPipeline::<Q8_8>::new(&g, config(2), 0);
        let stats = p.train_samples(&g, 5_000);
        assert!(stats.forwards > 0, "no hazards on a 4-state world?");
    }

    #[test]
    fn bit_exact_vs_golden_reference_q_learning() {
        let g = grid();
        for seed in [1u64, 7, 42, 12345] {
            let mut hw = AccelPipeline::<Q8_8>::new(&g, config(seed), 0);
            let mut sw =
                RefTrainer::<Q8_8, _>::new(g.clone(), TrainerConfig::q_learning().with_seed(seed));
            hw.train_samples(&g, 20_000);
            sw.run_samples(20_000);
            assert_eq!(
                hw.q_table().as_slice(),
                sw.q().as_slice(),
                "seed {seed}: pipeline diverged from sequential reference"
            );
        }
    }

    #[test]
    fn bit_exact_vs_golden_reference_sarsa() {
        let g = grid();
        for seed in [3u64, 99] {
            let mut cfg = config(seed);
            cfg.trainer = TrainerConfig::sarsa(0.2).with_seed(seed);
            let mut hw = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
            let mut sw =
                RefTrainer::<Q8_8, _>::new(g.clone(), TrainerConfig::sarsa(0.2).with_seed(seed));
            hw.train_samples(&g, 20_000);
            sw.run_samples(20_000);
            assert_eq!(
                hw.q_table().as_slice(),
                sw.q().as_slice(),
                "seed {seed}: SARSA pipeline diverged"
            );
        }
    }

    #[test]
    fn stall_mode_is_slower_but_value_identical() {
        let g = GridWorld::builder(4, 4).goal(3, 3).build();
        let mut fwd = AccelPipeline::<Q8_8>::new(&g, config(5), 0);
        let mut stall =
            AccelPipeline::<Q8_8>::new(&g, config(5).with_hazard(HazardMode::StallOnly), 0);
        let sf = fwd.train_samples(&g, 10_000);
        let ss = stall.train_samples(&g, 10_000);
        assert_eq!(
            fwd.q_table().as_slice(),
            stall.q_table().as_slice(),
            "stalling must preserve values"
        );
        assert!(ss.stalls > 0, "small world must provoke stalls");
        assert!(
            ss.cycles > sf.cycles,
            "stall-only must be slower: {} vs {}",
            ss.cycles,
            sf.cycles
        );
        assert!(ss.samples_per_cycle() < 1.0);
    }

    #[test]
    fn ignore_mode_diverges_from_reference() {
        // Without dependency handling the pipeline reads stale operands;
        // on a tiny world the trajectories must diverge measurably.
        let g = GridWorld::builder(2, 2).goal(1, 1).build();
        let mut bad =
            AccelPipeline::<Q16_16>::new(&g, config(6).with_hazard(HazardMode::Ignore), 0);
        let mut sw =
            RefTrainer::<Q16_16, _>::new(g.clone(), TrainerConfig::q_learning().with_seed(6));
        // Compare step by step: both trajectories eventually converge to
        // the same fixed point, so the corruption is visible mid-flight,
        // not necessarily in the final table.
        let mut diverged = false;
        for _ in 0..2_000 {
            let th = bad.step(&g);
            let ts = sw.step();
            // Same RNG units => identical (s, a) streams until values
            // feed back into action selection; q_new differs as soon as a
            // stale operand is consumed.
            if th.q_new != ts.q_new || th.s != ts.s || th.a != ts.a {
                diverged = true;
                break;
            }
        }
        assert!(
            diverged,
            "stale reads should corrupt at least one update on a 4-state world"
        );
        // But it still runs at full throughput — that is the trap.
        assert_eq!(bad.stats().stalls, 0);
    }

    #[test]
    fn exact_scan_mode_matches_reference_and_costs_cycles() {
        let g = GridWorld::builder(4, 4).goal(3, 3).build();
        let cfg = config(8).with_max_mode(MaxMode::ExactScan);
        let mut hw = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
        let mut sw = RefTrainer::<Q8_8, _>::new(
            g.clone(),
            TrainerConfig::q_learning()
                .with_seed(8)
                .with_max_mode(MaxMode::ExactScan),
        );
        let stats = hw.train_samples(&g, 5_000);
        sw.run_samples(5_000);
        assert_eq!(hw.q_table().as_slice(), sw.q().as_slice());
        // Every sample pays the |A|-1 = 3 extra scan cycles.
        assert!(stats.stalls >= 3 * 5_000, "stalls {}", stats.stalls);
        assert!(stats.samples_per_cycle() < 0.3);
    }

    #[test]
    fn pipeline_learns_the_grid() {
        let g = grid();
        let mut p = AccelPipeline::<Q16_16>::new(&g, config(11), 0);
        p.train_samples(&g, 400_000);
        let policy = p.greedy_policy();
        let opt = qtaccel_core::eval::step_optimality(&g, &policy, &g.shortest_distances());
        assert!(opt > 0.95, "step-optimality {opt}");
    }

    #[test]
    fn qmax_extraction_is_upper_bound() {
        let g = grid();
        let mut p = AccelPipeline::<Q8_8>::new(&g, config(13), 0);
        p.train_samples(&g, 50_000);
        let q = p.q_table();
        let qmax = p.qmax_table();
        for s in 0..g.num_states() as State {
            let (_, true_max) = q.max_exact(s);
            assert!(qmax.get(s).0 >= true_max, "state {s}");
        }
    }

    #[test]
    #[should_panic(expected = "not synthesizable")]
    fn boltzmann_rejected_on_qrl_engine() {
        let g = grid();
        let mut cfg = config(1);
        cfg.trainer.behavior = Policy::Boltzmann { temperature: 1.0 };
        let mut p = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
        p.step(&g);
    }

    /// FNV-1a digest of the architectural Q and Qmax images.
    fn image_digest<V: QValue>(p: &AccelPipeline<V>) -> u64 {
        let mut words: Vec<u64> = p.q_table().as_slice().iter().map(|v| v.to_bits()).collect();
        let qmax = p.qmax_table();
        for s in 0..p.num_states() as State {
            let (v, a) = qmax.get(s);
            words.extend([v.to_bits(), a as u64]);
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Train `cfg` on `env` for `n` samples through the cycle-accurate
    /// engine and through the fast path; both must end on the pinned
    /// image digest with identical stats. Returns the stats.
    fn pinned_run(
        env: &GridWorld,
        cfg: AccelConfig,
        n: u64,
        digest: u64,
        label: &str,
    ) -> CycleStats {
        let mut slow = AccelPipeline::<Q8_8>::new(env, cfg, 0);
        let mut fast = AccelPipeline::<Q8_8>::new(env, cfg, 0);
        let stats = slow.train_samples(env, n);
        assert_eq!(
            fast.train_samples_fast(env, n),
            stats,
            "{label}: fast stats"
        );
        assert_eq!(image_digest(&slow), digest, "{label}: train_samples images");
        assert_eq!(
            image_digest(&fast),
            digest,
            "{label}: train_samples_fast images"
        );
        stats
    }

    /// Every CycleStats counter pinned to the values the scan-per-read,
    /// drain-per-read formulation produced (captured from the
    /// pre-refactor engine), and the final Q/Qmax images pinned by
    /// digest under both `train_samples` and `train_samples_fast`.
    /// Guards the O(1) forwarding index, the per-step commit point and
    /// the shared stage body against any silent accounting or value
    /// drift, in every hazard mode — including `Ignore`, whose stale-read
    /// values no golden reference reproduces.
    #[test]
    fn hazard_mode_cycle_stats_are_pinned() {
        struct Gold {
            w: u32,
            h: u32,
            seed: u64,
            hazard: HazardMode,
            n: u64,
            cycles: u64,
            stalls: u64,
            forwards: u64,
            digest: u64,
        }
        let golds = [
            Gold {
                w: 2,
                h: 2,
                seed: 21,
                hazard: HazardMode::Forwarding,
                n: 7_000,
                cycles: 7_003,
                stalls: 0,
                forwards: 1_859,
                digest: 0xa277_79c6_3577_cd0e,
            },
            Gold {
                w: 4,
                h: 4,
                seed: 9,
                hazard: HazardMode::Forwarding,
                n: 12_000,
                cycles: 12_003,
                stalls: 0,
                forwards: 1_714,
                digest: 0xad74_6a3a_f2cc_93a0,
            },
            Gold {
                w: 8,
                h: 8,
                seed: 5,
                hazard: HazardMode::Forwarding,
                n: 20_000,
                cycles: 20_003,
                stalls: 0,
                forwards: 2_433,
                digest: 0x36e3_b32d_6ffb_3fd7,
            },
            Gold {
                w: 2,
                h: 2,
                seed: 21,
                hazard: HazardMode::StallOnly,
                n: 7_000,
                cycles: 10_853,
                stalls: 3_850,
                forwards: 0,
                digest: 0xa277_79c6_3577_cd0e,
            },
            Gold {
                w: 4,
                h: 4,
                seed: 9,
                hazard: HazardMode::StallOnly,
                n: 12_000,
                cycles: 15_351,
                stalls: 3_348,
                forwards: 0,
                digest: 0xad74_6a3a_f2cc_93a0,
            },
            Gold {
                w: 8,
                h: 8,
                seed: 5,
                hazard: HazardMode::StallOnly,
                n: 20_000,
                cycles: 24_312,
                stalls: 4_309,
                forwards: 0,
                digest: 0x36e3_b32d_6ffb_3fd7,
            },
            Gold {
                w: 2,
                h: 2,
                seed: 21,
                hazard: HazardMode::Ignore,
                n: 7_000,
                cycles: 7_003,
                stalls: 0,
                forwards: 0,
                digest: 0xc9ad_18d1_6dae_d97d,
            },
            Gold {
                w: 4,
                h: 4,
                seed: 9,
                hazard: HazardMode::Ignore,
                n: 12_000,
                cycles: 12_003,
                stalls: 0,
                forwards: 0,
                digest: 0x8d4c_7355_7427_6f49,
            },
            Gold {
                w: 8,
                h: 8,
                seed: 5,
                hazard: HazardMode::Ignore,
                n: 20_000,
                cycles: 20_003,
                stalls: 0,
                forwards: 0,
                digest: 0x4826_0428_62a8_72bd,
            },
        ];
        for g in &golds {
            let env = GridWorld::builder(g.w, g.h).goal(g.w - 1, g.h - 1).build();
            let cfg = AccelConfig::default()
                .with_seed(g.seed)
                .with_hazard(g.hazard);
            let label = format!("{}x{} seed {} {:?}", g.w, g.h, g.seed, g.hazard);
            let stats = pinned_run(&env, cfg, g.n, g.digest, &label);
            assert_eq!(
                (
                    stats.cycles,
                    stats.stalls,
                    stats.forwards,
                    stats.fill_bubbles
                ),
                (g.cycles, g.stalls, g.forwards, FILL),
                "{label}"
            );
        }

        // SARSA exercises the ε-greedy stage-2 Q read path.
        let env = GridWorld::builder(4, 4).goal(3, 3).build();
        for (hazard, cycles, stalls, digest) in [
            (
                HazardMode::StallOnly,
                18_168u64,
                3_165u64,
                0xa8dd_dc45_39d1_b1c0u64,
            ),
            (HazardMode::Ignore, 15_003, 0, 0xed93_3f47_a677_0358),
        ] {
            let mut cfg = AccelConfig::default().with_hazard(hazard);
            cfg.trainer = TrainerConfig::sarsa(0.2).with_seed(17);
            cfg.hazard = hazard;
            let stats = pinned_run(&env, cfg, 15_000, digest, &format!("sarsa {hazard:?}"));
            assert_eq!(
                (stats.cycles, stats.stalls),
                (cycles, stalls),
                "sarsa {hazard:?}"
            );
        }

        // ExactScan exercises the multi-cycle stage-2 row scan.
        let cfg = AccelConfig::default()
            .with_seed(13)
            .with_hazard(HazardMode::StallOnly)
            .with_max_mode(MaxMode::ExactScan);
        let stats = pinned_run(
            &env,
            cfg,
            8_000,
            0xc3a2_96ea_99aa_a8c3,
            "exact-scan stall-only",
        );
        assert_eq!(
            (stats.cycles, stats.stalls),
            (34_617, 26_614),
            "exact-scan stall-only"
        );
    }

    /// The O(1) forwarding index must agree with a linear newest-writer
    /// scan of the queue for arbitrary push/retire interleavings —
    /// including addresses chosen to alias in the direct-mapped slots.
    #[test]
    fn index_matches_linear_scan() {
        let mut rng = Lfsr32::new(0xDEAD_BEEF);
        // 97 addresses over 64 slots: aliasing guaranteed.
        const ADDRS: usize = 97;
        let mut queue: VecDeque<Pending<u64>> = VecDeque::new();
        let mut index: FwdIndex<u64> = FwdIndex::new();
        let mut next_cc = 0u64;
        for op in 0..50_000u64 {
            match rng.below(3) {
                0 | 1 => {
                    // Push with strictly increasing commit cycles (the
                    // queue invariant the index relies on).
                    next_cc += 1 + rng.below(3) as u64;
                    let p = Pending {
                        commit_cycle: next_cc,
                        addr: rng.below(ADDRS as u32) as usize,
                        value: op,
                    };
                    queue.push_back(p);
                    index.push(p);
                }
                _ => {
                    if let Some(p) = queue.pop_front() {
                        index.retire(p.addr);
                    }
                }
            }
            // Cross-check the index against the model on a probe address.
            let probe = rng.below(ADDRS as u32) as usize;
            let model = queue.iter().rev().find(|p| p.addr == probe).copied();
            let got = match index.newest(probe) {
                FwdHit::Miss => None,
                FwdHit::Newest(p) => Some(p),
                FwdHit::Aliased => queue.iter().rev().find(|p| p.addr == probe).copied(),
            };
            assert_eq!(got, model, "op {op} probe {probe}");
            // A slot hit must never silently shadow a different address.
            if let FwdHit::Newest(p) = index.newest(probe) {
                assert_eq!(p.addr, probe);
            }
        }
        assert!(
            !queue.is_empty(),
            "interleaving should leave in-flight writes"
        );
    }
}
