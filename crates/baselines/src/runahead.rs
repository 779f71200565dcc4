//! Dundas–Mudge runahead preexecution (§2 and §5.4 of the paper).
//!
//! The pipeline behaves exactly like [`crate::InOrder`] until the oldest
//! instruction stalls on an unready *load* result. It then checkpoints
//! (architectural issue pauses without consuming the buffer) and
//! pre-executes subsequent instructions speculatively:
//!
//! * operands produced by deferred instructions are *invalid* and poison
//!   their consumers;
//! * valid-address loads access the memory hierarchy — the prefetching that
//!   is this scheme's entire benefit — but loads that miss the L1 produce
//!   invalid results;
//! * stores are dropped (runahead is purely a prefetching technique);
//! * branches with valid predicates resolve early, training the predictor
//!   and redirecting fetch.
//!
//! When the blocking load returns, *all* speculative work is discarded and
//! architectural execution re-executes every instruction — the two
//! limitations (no persistence, no restart) that motivate multipass
//! pipelining.
//!
//! The architectural regime is [`ff_engine::InOrderStage`], the same
//! stage (and fast-forward window) as [`crate::InOrder`], except that a
//! load stall is never skipped: it enters an episode that very cycle.
//! This module adds only the episode: the `SpecRegs` overlay, the
//! pseudo-issue loop (`pre_execute`) and the in-episode fast-forward
//! (`episode_wake`).

use ff_engine::{
    operand_stall, operand_wake, ExecutionModel, InOrderStage, MachineConfig, ObserveLevel,
    Observer, RunError, RunResult, Scoreboard, SimCase, StallKind, TickMode,
};
use ff_isa::eval::{alu, effective_address};
use ff_isa::{ArchState, Op, Reg};
use ff_mem::{AccessKind, MemAccess};

/// A speculative value in the runahead overlay: either a real value
/// available at some cycle, or invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SpecVal {
    /// Valid data, usable for bypass at `ready_at`.
    Valid {
        /// The speculative value.
        value: u64,
        /// Cycle at which the value can be bypassed.
        ready_at: u64,
    },
    /// Poisoned by a deferred producer.
    Invalid,
}

/// Speculative register overlay used during a runahead episode. Registers
/// not present fall through to the architectural file, with validity taken
/// from the scoreboard (a register whose writer is still in flight is
/// unavailable *now* but may arrive during the episode).
///
/// The overlay is a flat epoch-stamped array rather than a map: one
/// allocation at model start, and "discard all speculative state" on
/// episode entry is an epoch bump instead of a per-episode container —
/// zero heap traffic no matter how many episodes a run enters.
#[derive(Clone, Debug)]
struct SpecRegs {
    epoch: u64,
    slots: Vec<(u64, SpecVal)>,
}

impl SpecRegs {
    fn new() -> Self {
        SpecRegs { epoch: 1, slots: vec![(0, SpecVal::Invalid); Reg::FLAT_COUNT] }
    }

    /// Discards every overlay entry (entries stamped with older epochs
    /// read as absent).
    fn reset(&mut self) {
        self.epoch += 1;
    }

    fn write(&mut self, r: Reg, v: SpecVal) {
        if !r.is_hardwired() {
            self.slots[r.flat_index()] = (self.epoch, v);
        }
    }

    /// Reads `r` at cycle `now`: `Some(value)` when valid and ready, `None`
    /// when invalid or still in flight.
    fn read(&self, r: Reg, state: &ArchState, sb: &Scoreboard, now: u64) -> Option<u64> {
        if r.is_hardwired() {
            return Some(state.read(r));
        }
        match &self.slots[r.flat_index()] {
            (e, SpecVal::Valid { value, ready_at }) if *e == self.epoch && *ready_at <= now => {
                Some(*value)
            }
            (e, _) if *e == self.epoch => None,
            _ => {
                if sb.ready(r, now) {
                    Some(state.read(r))
                } else {
                    None
                }
            }
        }
    }
}

/// The Dundas–Mudge runahead model.
#[derive(Clone, Debug)]
pub struct Runahead {
    config: MachineConfig,
    tick: TickMode,
}

impl Runahead {
    /// Creates the model with the given machine configuration.
    pub fn new(config: MachineConfig) -> Self {
        Runahead { config, tick: TickMode::default() }
    }
}

impl ExecutionModel for Runahead {
    fn name(&self) -> &'static str {
        "runahead"
    }

    fn set_tick_mode(&mut self, mode: TickMode) {
        self.tick = mode;
    }

    fn try_run_hooked(
        &mut self,
        case: &SimCase<'_>,
        observer: &mut dyn Observer,
    ) -> Result<RunResult, RunError> {
        let cfg = &self.config;
        let mut stage = InOrderStage::new(
            case,
            cfg,
            cfg.inorder_buffer,
            self.tick,
            observer,
            ObserveLevel::Retire,
        );

        // Runahead episode state: `Some(peek_seq)` while running ahead of a
        // blocking load. The speculative overlay persists across episodes
        // (reset is an epoch bump), so episode entry allocates nothing.
        let mut episode: Option<u64> = None;
        let mut spec = SpecRegs::new();
        stage.activity.alloc_count += 1; // the overlay's single allocation

        while !stage.halted {
            stage.begin_cycle()?;

            let peek = match &mut episode {
                Some(peek) => peek,
                None => {
                    // Architectural issue: the in-order core's.
                    let (issued, stall) = stage.issue_group();
                    if issued > 0 || stall != Some(StallKind::Load) {
                        stage.charge_issue_cycle(issued, stall);
                        stage.now += 1;
                        // A load-use stall is never skipped: it enters a
                        // runahead episode the very cycle it is detected.
                        stage.fast_forward(false);
                        continue;
                    }
                    // Enter runahead on a load-use stall.
                    spec.reset();
                    stage.stats.spec_mode_entries += 1;
                    episode.insert(stage.fetch.head_seq())
                }
            };

            // All runahead cycles are charged to the blocking load
            // (architecturally the pipeline is stalled on it).
            stage.stats.breakdown.charge(StallKind::Load);
            stage.stats.spec_mode_cycles += 1;
            if head_ready(&stage) {
                // Exit: discard all speculative state; architectural
                // execution resumes next cycle and re-executes everything.
                episode = None;
            } else {
                pre_execute(&mut stage, peek, &mut spec, cfg.issue_width);
            }
            stage.now += 1;

            if let (TickMode::EventDriven, Some(peek)) = (stage.tick, episode) {
                let target =
                    stage.fetch.quiescent_until(stage.now).and_then(|_| episode_wake(&stage, peek));
                if let Some(wake) = target.and_then(|t| stage.wake_bound(t)) {
                    stage.stats.spec_mode_cycles += stage.skip_to(wake, StallKind::Load, 0);
                }
            }
        }
        Ok(stage.finish())
    }
}

/// The episode's exit check: the blocking instruction at the head can
/// issue now.
fn head_ready(stage: &InOrderStage<'_>) -> bool {
    stage.fetch.get(stage.fetch.head_seq()).is_some_and(|e| {
        let inst = stage.program.inst(e.pc).expect("fetched pc is valid");
        operand_stall(inst, &stage.sb, stage.now).is_none()
    })
}

/// One cycle of runahead pre-execution from `peek`, through the overlay.
/// Nothing it does is architectural except prefetching (memory accesses)
/// and early predictor training.
fn pre_execute(stage: &mut InOrderStage<'_>, peek: &mut u64, spec: &mut SpecRegs, width: u32) {
    let program = stage.program;
    let InOrderStage { state, mem, fetch, sb, fu, stats, activity, now, .. } = stage;
    let now = *now;
    let mut pseudo_issued = 0u32;
    while pseudo_issued < width {
        let (pc, predicted_next, snap) = match fetch.get(*peek) {
            Some(e) if e.fetched_at <= now => (e.pc, e.predicted_next, e.history_snapshot),
            _ => break,
        };
        let inst = program.inst(pc).expect("fetched pc is valid");
        activity.select_visits += 1;
        if !fu.try_issue(inst, now) {
            break;
        }
        let ends_group = inst.ends_group();
        let qp =
            if inst.is_predicated() { spec.read(inst.qp_reg(), state, sb, now) } else { Some(1) };
        let mut redirected = false;

        match (qp, inst.op()) {
            (None, _) => {
                // Unknown predicate: defer the whole instruction.
                if let Some(d) = inst.writes() {
                    spec.write(d, SpecVal::Invalid);
                }
            }
            (Some(0), _) => {} // predicated off: no-op
            (Some(_), Op::Halt) => {
                // Stop pre-executing past the end of the program.
                break;
            }
            (Some(_), Op::Br { target }) => {
                // Valid branch: train the predictor early.
                // (Runahead discards all work on exit, so fetch
                // is *not* redirected — the architectural
                // re-execution resolves the branch normally.)
                let actual_next = program.first_pc_from(*target);
                if inst.is_predicated() {
                    fetch.predictor_mut().update(pc, snap, true);
                }
                if predicted_next != actual_next {
                    stats.early_resolved_mispredicts += 1;
                    // Pre-executing past a known-wrong branch is
                    // useless; stop this cycle's group here.
                    redirected = true;
                }
            }
            (Some(_), Op::Load | Op::LoadFp) => {
                let base = inst.src_n(0).and_then(|r| spec.read(r, state, sb, now));
                match base {
                    Some(b) => {
                        let addr = effective_address(b, inst.imm_val());
                        match mem.access(addr, AccessKind::SpeculativeRead, now) {
                            MemAccess::Done { complete_at, level } => {
                                stats.executions += 1;
                                if let Some(d) = inst.writes() {
                                    if level.is_miss() {
                                        // Missing loads defer their
                                        // consumers (prefetch only).
                                        spec.write(d, SpecVal::Invalid);
                                    } else {
                                        spec.write(
                                            d,
                                            SpecVal::Valid {
                                                value: state.mem.load(addr),
                                                ready_at: complete_at,
                                            },
                                        );
                                    }
                                }
                            }
                            MemAccess::Retry => {
                                if let Some(d) = inst.writes() {
                                    spec.write(d, SpecVal::Invalid);
                                }
                            }
                        }
                    }
                    None => {
                        if let Some(d) = inst.writes() {
                            spec.write(d, SpecVal::Invalid);
                        }
                    }
                }
            }
            (Some(_), Op::Store) => {
                // Stores are dropped in runahead; a valid address
                // still prefetches the line.
                if let Some(b) = inst.src_n(0).and_then(|r| spec.read(r, state, sb, now)) {
                    let addr = effective_address(b, inst.imm_val());
                    let _ = mem.access(addr, AccessKind::DataWrite, now);
                    stats.executions += 1;
                }
            }
            (Some(_), Op::Nop | Op::Restart) => {}
            (Some(_), op) => {
                let a = inst.src_n(0).and_then(|r| spec.read(r, state, sb, now));
                let b = inst.src_n(1).and_then(|r| spec.read(r, state, sb, now));
                let a_ok = inst.src_n(0).is_none() || a.is_some();
                let b_ok = inst.src_n(1).is_none() || b.is_some();
                if let Some(d) = inst.writes() {
                    if a_ok && b_ok {
                        let v = alu(op, a.unwrap_or(0), b.unwrap_or(0), inst.imm_val());
                        spec.write(
                            d,
                            SpecVal::Valid { value: v, ready_at: now + op.latency() as u64 },
                        );
                        stats.executions += 1;
                    } else {
                        spec.write(d, SpecVal::Invalid);
                    }
                } else if a_ok && b_ok {
                    stats.executions += 1;
                }
            }
        }

        *peek += 1;
        pseudo_issued += 1;
        if redirected {
            // Fetch was truncated; peek continues at the next
            // (corrected) sequence number when it arrives.
            *peek = (*peek).min(fetch.next_seq());
            break;
        }
        if ends_group {
            break;
        }
    }
}

/// Event-driven fast-forward inside an episode: the cycle to skip to
/// (before the stage's wake bounds) while the exit check provably stays
/// false and the pseudo-issue loop has nothing to chew on (PEEK ran past
/// fetch). `None` when pre-execution or the exit would run.
fn episode_wake(stage: &InOrderStage<'_>, peek: u64) -> Option<u64> {
    let now = stage.now;
    let peek_wake = match stage.fetch.get(peek) {
        None => u64::MAX,
        Some(e) if e.fetched_at > now => e.fetched_at,
        Some(_) => return None, // live entry: pre-execution would run
    };
    let head = stage.fetch.get(stage.fetch.head_seq())?;
    if head.fetched_at > now {
        return Some(peek_wake.min(head.fetched_at));
    }
    let inst = stage.program.inst(head.pc).expect("fetched pc is valid");
    operand_stall(inst, &stage.sb, now)?; // exit check fires: poll
    Some(peek_wake.min(operand_wake(inst, &stage.sb, now).unwrap_or(u64::MAX)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inorder::InOrder;
    use ff_isa::interp::Interpreter;
    use ff_isa::{Inst, MemoryImage, Program};

    /// Pointer-chase program over a pre-built linked list, with independent
    /// streaming loads after each chase step — the Figure 1 scenario.
    fn chase_with_stream(nodes: u64) -> (Program, MemoryImage) {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x1_0000).stop());
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(5)).imm(0x80_0000).stop());
        // loop: r1 = load r1 (next); r4 = r1 + 0 (immediate use: the
        // in-order pipe stalls *here*); then an independent streaming miss
        // that only runahead can hoist under the chase miss (Figure 1).
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1)).region(0).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(4)).src(Reg::int(1)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(2)).src(Reg::int(5)).region(1));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(5)).src(Reg::int(5)).imm(4096).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(2)));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(4)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        // Linked list with large strides to defeat the caches.
        let stride = 64 * 1024;
        for i in 0..nodes {
            let a = 0x1_0000 + i * stride;
            let next = if i + 1 == nodes { 0 } else { 0x1_0000 + (i + 1) * stride };
            mem.store(a, next);
        }
        for i in 0..nodes {
            mem.store(0x80_0000 + i * 4096, i);
        }
        (p, mem)
    }

    #[test]
    fn matches_interpreter() {
        let (p, mem) = chase_with_stream(20);
        let case = SimCase::new(&p, mem.clone());
        let r = Runahead::new(MachineConfig::default()).run(&case);
        let mut s = ArchState::new();
        s.mem = mem;
        let mut i = Interpreter::with_state(&p, s);
        i.run(10_000_000).unwrap();
        assert!(r.final_state.semantically_eq(i.state()));
        assert_eq!(r.stats.retired, i.retired());
    }

    #[test]
    fn runahead_beats_inorder_on_chased_misses() {
        let (p, mem) = chase_with_stream(64);
        let case = SimCase::new(&p, mem);
        let base = InOrder::new(MachineConfig::default()).run(&case);
        let ra = Runahead::new(MachineConfig::default()).run(&case);
        assert!(
            ra.stats.cycles < base.stats.cycles,
            "runahead {} !< inorder {}",
            ra.stats.cycles,
            base.stats.cycles
        );
        assert!(ra.stats.spec_mode_entries > 0);
        assert!(ra.stats.spec_mode_cycles > 0);
    }

    #[test]
    fn runahead_issues_speculative_prefetches() {
        let (p, mem) = chase_with_stream(64);
        let case = SimCase::new(&p, mem);
        let ra = Runahead::new(MachineConfig::default()).run(&case);
        assert!(ra.mem_stats.speculative_reads > 0);
    }

    #[test]
    fn no_benefit_without_misses() {
        // A purely register-resident loop never enters runahead.
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(100).stop());
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(-1));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(1)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        let case = SimCase::new(&p, MemoryImage::new());
        let ra = Runahead::new(MachineConfig::default()).run(&case);
        assert_eq!(ra.stats.spec_mode_entries, 0);
        // Without an episode, runahead is the in-order core: the two share
        // their architectural regime, so everything matches except the
        // overlay's one allocation.
        let base = InOrder::new(MachineConfig::default()).run(&case);
        assert_eq!(ra.stats, base.stats);
        assert_eq!(ra.mem_stats, base.mem_stats);
        assert!(ra.final_state.semantically_eq(&base.final_state));
        let mut activity = base.activity;
        activity.alloc_count += 1;
        assert_eq!(ra.activity, activity);
    }

    #[test]
    fn wasted_work_is_visible() {
        // Runahead re-executes pre-executed instructions, so dynamic
        // executions exceed retirements on miss-heavy code.
        let (p, mem) = chase_with_stream(64);
        let case = SimCase::new(&p, mem);
        let ra = Runahead::new(MachineConfig::default()).run(&case);
        assert!(
            ra.stats.executions > ra.stats.retired,
            "executions {} should exceed retired {}",
            ra.stats.executions,
            ra.stats.retired
        );
    }
}
