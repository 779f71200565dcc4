//! The [`Observer`]: one observation interface for every execution model.
//!
//! Models publish *events* — fetches, issues, writebacks, retirements,
//! per-cycle pointer/occupancy snapshots, memory completions,
//! store-forwarding decisions and mode transitions — and an observer
//! consumes them without ever feeding anything back, so an observed run is
//! cycle-for-cycle identical to an unobserved one. The `ff-debug` lockstep
//! checker, the `ff-sentinel` invariant checkers, the campaign crash-bundle
//! ring and mode tracing are all observers.
//!
//! Each observer declares once, through [`Observer::level`], how much of
//! the run it wants to see ([`ObserveLevel`]); models read the level once
//! per run and never build an event above it. Every model publishes
//! retirements; the multipass pipeline additionally publishes the
//! pipeline-level events ([`CycleObs`], [`MemAccessObs`],
//! [`AscForwardObs`], mode transitions) from inside its core loop. Only a
//! pipeline-level observer makes the multipass core walk quiescent stall
//! windows cycle by cycle: a retirement-level observer (the campaign's
//! crash-bundle ring) leaves the fast-forward on.

use ff_isa::Reg;
use ff_mem::HitLevel;

use crate::retire::{RetireEvent, RetireMode};

/// One cycle's worth of multipass pipeline state, published at the top of
/// the cycle (after mode transitions, before issue).
#[derive(Clone, Copy, Debug)]
pub struct CycleObs {
    /// Current cycle.
    pub cycle: u64,
    /// Pipeline mode this cycle.
    pub mode: RetireMode,
    /// Sequence number of the episode's trigger instruction.
    pub trigger: u64,
    /// Advance-pass PEEK pointer.
    pub peek: u64,
    /// High-water mark of preexecution across the episode's passes.
    pub peek_high: u64,
    /// Architectural DEQ pointer (oldest unretired instruction).
    pub deq: u64,
    /// Speculative-register-file slots with their A-bit set.
    pub srf_abits: usize,
    /// Live advance-store-cache entries.
    pub asc_live: usize,
    /// Advance-store-cache capacity in entries.
    pub asc_capacity: usize,
    /// Whether every ASC set holds at most its associativity of entries.
    pub asc_assoc_ok: bool,
    /// In-flight speculative-memory-address-queue entries.
    pub smaq_live: usize,
    /// SMAQ capacity in entries.
    pub smaq_capacity: usize,
    /// Latest scoreboard ready cycle across all registers.
    pub sb_drain: u64,
}

/// A completed memory access as seen by the issue logic.
#[derive(Clone, Copy, Debug)]
pub struct MemAccessObs {
    /// Cycle the access was issued.
    pub cycle: u64,
    /// Cycle the hierarchy promised the value.
    pub complete_at: u64,
    /// Level that served the request.
    pub level: HitLevel,
}

/// An advance-store-cache forward into a load, with the facts needed to
/// audit its data-speculation (S) bit.
#[derive(Clone, Copy, Debug)]
pub struct AscForwardObs {
    /// Cycle of the forward.
    pub cycle: u64,
    /// Sequence number of the consuming load.
    pub load_seq: u64,
    /// Sequence number of the store whose value was forwarded.
    pub store_seq: u64,
    /// Youngest deferred (unknown-address) store at forward time, if any.
    pub deferred_store: Option<u64>,
    /// The S bit the pipeline attached to the forwarded value.
    pub s_bit: bool,
}

/// How much of a run an [`Observer`] wants to see. Levels are ordered:
/// each includes everything below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObserveLevel {
    /// No events: the model builds none, exactly like an unobserved run.
    Nothing,
    /// Retirements only ([`Observer::on_retire`]).
    Retire,
    /// Every event, including the per-cycle ones. Forces the multipass
    /// core to walk quiescent stall windows one cycle at a time.
    Pipeline,
}

/// A read-only watcher of one simulation run.
///
/// Every event method has a no-op default, so an observer implements only
/// what it needs; it receives only the events at or below its
/// [`Observer::level`]. Events arrive in simulation order with
/// non-decreasing cycles; retirements arrive in program order.
pub trait Observer {
    /// Which events this observer wants. Models read it once per run.
    fn level(&self) -> ObserveLevel;

    /// An instruction entered the fetch buffer (pipeline level, multipass
    /// only).
    fn on_fetch(&mut self, seq: u64, cycle: u64) {
        let _ = (seq, cycle);
    }

    /// An instruction issued, architecturally or in an advance pass
    /// (pipeline level, multipass only).
    fn on_issue(&mut self, seq: u64, cycle: u64) {
        let _ = (seq, cycle);
    }

    /// An instruction wrote an architectural register (pipeline level,
    /// multipass only).
    fn on_writeback(&mut self, seq: u64, reg: Reg, cycle: u64) {
        let _ = (seq, reg, cycle);
    }

    /// An instruction retired (retirement level).
    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        let _ = event;
    }

    /// Top-of-cycle pipeline snapshot (pipeline level, multipass only).
    fn on_cycle(&mut self, obs: &CycleObs) {
        let _ = obs;
    }

    /// A data access completed with a promised latency (pipeline level,
    /// multipass only).
    fn on_mem_access(&mut self, obs: &MemAccessObs) {
        let _ = obs;
    }

    /// The ASC forwarded a store value into a load (pipeline level,
    /// multipass only).
    fn on_asc_forward(&mut self, obs: &AscForwardObs) {
        let _ = obs;
    }

    /// The pipeline switched to `mode` at `cycle` — the architectural →
    /// advance → rally choreography of the paper's Figure 4 (pipeline
    /// level, multipass only).
    fn on_mode(&mut self, cycle: u64, mode: RetireMode) {
        let _ = (cycle, mode);
    }
}

/// The null observer: wants nothing, so models skip building events.
impl Observer for () {
    fn level(&self) -> ObserveLevel {
        ObserveLevel::Nothing
    }
}

/// Tees every event to two observers. The pair wants the larger of the two
/// levels, and each side still receives only the events at or below its
/// own level.
impl<A: Observer + ?Sized, B: Observer + ?Sized> Observer for (&mut A, &mut B) {
    fn level(&self) -> ObserveLevel {
        self.0.level().max(self.1.level())
    }

    fn on_fetch(&mut self, seq: u64, cycle: u64) {
        deliver(&mut *self.0, ObserveLevel::Pipeline, |o| o.on_fetch(seq, cycle));
        deliver(&mut *self.1, ObserveLevel::Pipeline, |o| o.on_fetch(seq, cycle));
    }

    fn on_issue(&mut self, seq: u64, cycle: u64) {
        deliver(&mut *self.0, ObserveLevel::Pipeline, |o| o.on_issue(seq, cycle));
        deliver(&mut *self.1, ObserveLevel::Pipeline, |o| o.on_issue(seq, cycle));
    }

    fn on_writeback(&mut self, seq: u64, reg: Reg, cycle: u64) {
        deliver(&mut *self.0, ObserveLevel::Pipeline, |o| o.on_writeback(seq, reg, cycle));
        deliver(&mut *self.1, ObserveLevel::Pipeline, |o| o.on_writeback(seq, reg, cycle));
    }

    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        deliver(&mut *self.0, ObserveLevel::Retire, |o| o.on_retire(event));
        deliver(&mut *self.1, ObserveLevel::Retire, |o| o.on_retire(event));
    }

    fn on_cycle(&mut self, obs: &CycleObs) {
        deliver(&mut *self.0, ObserveLevel::Pipeline, |o| o.on_cycle(obs));
        deliver(&mut *self.1, ObserveLevel::Pipeline, |o| o.on_cycle(obs));
    }

    fn on_mem_access(&mut self, obs: &MemAccessObs) {
        deliver(&mut *self.0, ObserveLevel::Pipeline, |o| o.on_mem_access(obs));
        deliver(&mut *self.1, ObserveLevel::Pipeline, |o| o.on_mem_access(obs));
    }

    fn on_asc_forward(&mut self, obs: &AscForwardObs) {
        deliver(&mut *self.0, ObserveLevel::Pipeline, |o| o.on_asc_forward(obs));
        deliver(&mut *self.1, ObserveLevel::Pipeline, |o| o.on_asc_forward(obs));
    }

    fn on_mode(&mut self, cycle: u64, mode: RetireMode) {
        deliver(&mut *self.0, ObserveLevel::Pipeline, |o| o.on_mode(cycle, mode));
        deliver(&mut *self.1, ObserveLevel::Pipeline, |o| o.on_mode(cycle, mode));
    }
}

/// Hands one event at level `at` to `observer` if it wants that level.
fn deliver<O: Observer + ?Sized>(observer: &mut O, at: ObserveLevel, event: impl FnOnce(&mut O)) {
    if observer.level() >= at {
        event(observer);
    }
}
