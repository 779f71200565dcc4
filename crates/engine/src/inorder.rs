//! The in-order issue stage shared by the in-order family of models.
//!
//! The paper's multipass core is one in-order pipeline whose
//! architectural mode *is* the baseline in-order pipeline, and
//! Dundas–Mudge runahead behaves exactly like that baseline until a
//! load-use stall. [`InOrderStage`] is that pipeline, written once:
//!
//! * the per-cycle prologue ([`InOrderStage::begin_cycle`]): the cycle
//!   cap, the instruction budget, fetch and the functional-unit budgets;
//! * architectural execution of the fetch-buffer head
//!   ([`InOrderStage::execute`], [`InOrderStage::retire`]): the operand
//!   and functional-unit interlocks, then the one `Op` match that reads
//!   and writes the architectural state, schedules scoreboard wakeups,
//!   trains the branch predictor and flushes fetch on a mispredict;
//! * one compiler issue group per cycle ([`InOrderStage::issue_group`]),
//!   with Itanium 2 split issue when a member stalls;
//! * the stall-charging rule of an issue cycle
//!   ([`InOrderStage::charge_issue_cycle`]);
//! * the head-of-queue fast-forward window of the event-driven tick
//!   ([`InOrderStage::head_window`], [`InOrderStage::fast_forward`]);
//! * assembly of the [`RunResult`] ([`InOrderStage::finish`]).
//!
//! `ff_baselines::InOrder` is a thin loop over this stage.
//! `ff_baselines::Runahead` adds its runahead episodes, and the multipass
//! core adds E-bit merging, S-bit verification, regrouping and advance
//! mode; both call [`InOrderStage::execute`] for ordinary architectural
//! issue. The multipass core routes scoreboard wakeups through its
//! fault-injection hooks with a [`WakeHooks`] implementation.

use std::borrow::Cow;

use ff_frontend::{FetchUnit, Gshare};
use ff_isa::eval::{alu, effective_address};
use ff_isa::{ArchState, Inst, Op, Pc, Program, Reg};
use ff_mem::{AccessKind, HitLevel, MemAccess, MemorySystem};

use crate::{
    operand_stall, operand_wake, Activity, EpisodeWindow, FuPool, MachineConfig, MemAccessObs,
    ObserveLevel, Observer, PendingKind, RetireEvent, RetireMode, RunError, RunResult, RunStats,
    Scoreboard, SimCase, StallKind, TickMode,
};

/// The fetch-buffer head as architectural issue sees it.
#[derive(Clone, Copy, Debug)]
pub struct Head {
    /// Sequence number of the instruction.
    pub seq: u64,
    /// Static location of the instruction.
    pub pc: Pc,
    /// The gshare history snapshot taken when it was fetched.
    pub snapshot: u16,
    /// The successor the fetch stream followed; branch resolution
    /// compares the actual successor against it. The multipass core
    /// substitutes the successor an advance pass already redirected
    /// fetch to.
    pub stream_next: Option<Pc>,
    /// The predictor was already trained for this branch (by a multipass
    /// advance pass), so architectural resolution must not train it again.
    pub trained: bool,
}

/// What architectural execution of the head did.
#[derive(Clone, Copy, Debug)]
pub struct Executed {
    /// The qualifying predicate was true.
    pub qp_true: bool,
    /// `(address, data)` of a performed store.
    pub stored: Option<(u64, u64)>,
    /// A mispredicted branch flushed the fetch buffer behind the head.
    pub flushed: bool,
}

/// How architectural execution schedules a result's scoreboard wakeup.
///
/// The defaults write the scoreboard directly. The multipass core
/// overrides them to inject its dropped-wakeup and dropped-ready-insert
/// faults. Calls are statically dispatched: [`InOrderStage::execute`] is
/// generic over the hooks.
pub trait WakeHooks {
    /// A load's result `reg` arrives at `complete_at`.
    fn pend_load(&mut self, sb: &mut Scoreboard, reg: Reg, complete_at: u64) {
        sb.set_pending(reg, complete_at, PendingKind::Load);
    }

    /// An execution op's result `reg` is ready at `ready_at`.
    fn pend_exec(&mut self, sb: &mut Scoreboard, reg: Reg, ready_at: u64) {
        sb.set_pending(reg, ready_at, PendingKind::Exec);
    }
}

/// Plain scoreboard wakeups.
impl WakeHooks for () {}

/// A head-of-queue fast-forward window: skip to the first field (before
/// the other wake bounds), charging each skipped cycle to the second and
/// adding the third to `select_visits` per skipped cycle.
pub type Window = (u64, StallKind, u64);

/// The architectural state and structures of one in-order pipeline run.
///
/// Fields are public so a model can add its own machinery around the
/// shared issue path (runahead's overlay, the multipass result store).
pub struct InOrderStage<'a> {
    /// The program being run.
    pub program: &'a Program,
    /// The architectural register file and data memory.
    pub state: ArchState,
    /// The cache hierarchy and MSHRs.
    pub mem: MemorySystem,
    /// The fetch engine and instruction buffer.
    pub fetch: FetchUnit,
    /// Register readiness and pending-write causes.
    pub sb: Scoreboard,
    /// Functional-unit arbitration.
    pub fu: FuPool,
    /// Cycle counts and attribution.
    pub stats: RunStats,
    /// Structure activity counters.
    pub activity: Activity,
    /// The run's observer.
    pub observer: &'a mut dyn Observer,
    /// The observer wants retirements (read once, so an unobserved run
    /// never builds an event).
    pub retire_events: bool,
    /// The observer wants pipeline events and the model publishes them.
    pub pipeline_events: bool,
    /// How the model advances simulated time.
    pub tick: TickMode,
    /// The current cycle.
    pub now: u64,
    /// A `Halt` has issued.
    pub halted: bool,
    /// The effective cycle cap ([`SimCase::cycle_cap`]).
    cycle_cap: u64,
    max_insts: u64,
    issue_width: u32,
    mispredict_penalty: u64,
}

impl<'a> InOrderStage<'a> {
    /// Sets up a run of `case` on `machine` with a fetch buffer of
    /// `buffer` entries. The model publishes observer events up to
    /// `publishes`: the baselines publish retirements only, the multipass
    /// core every pipeline event.
    pub fn new(
        case: &SimCase<'a>,
        machine: &MachineConfig,
        buffer: usize,
        tick: TickMode,
        observer: &'a mut dyn Observer,
        publishes: ObserveLevel,
    ) -> Self {
        let level = observer.level().min(publishes);
        InOrderStage {
            program: case.program,
            state: case.initial_state(),
            mem: MemorySystem::new(machine.hierarchy),
            fetch: FetchUnit::new(
                case.program,
                buffer,
                machine.fetch_width as usize,
                Gshare::new(machine.gshare_entries),
            ),
            sb: Scoreboard::new(),
            fu: FuPool::new(machine),
            stats: RunStats::default(),
            activity: Activity::new(),
            observer,
            retire_events: level >= ObserveLevel::Retire,
            pipeline_events: level >= ObserveLevel::Pipeline,
            tick,
            now: 0,
            halted: false,
            cycle_cap: case.cycle_cap(machine.max_cycles),
            max_insts: case.max_insts,
            issue_width: machine.issue_width,
            mispredict_penalty: machine.mispredict_penalty,
        }
    }

    /// The per-cycle prologue: abandons the run at the cycle cap, guards
    /// the instruction budget, ticks fetch and resets the functional-unit
    /// budgets.
    ///
    /// # Errors
    ///
    /// [`RunError::CycleBudgetExceeded`] once `now` reaches the cap.
    ///
    /// # Panics
    ///
    /// Panics if the program exceeded the case's instruction budget.
    #[inline]
    pub fn begin_cycle(&mut self) -> Result<(), RunError> {
        if self.now >= self.cycle_cap {
            return Err(RunError::CycleBudgetExceeded {
                limit: self.cycle_cap,
                retired: self.stats.retired,
            });
        }
        assert!(self.stats.retired < self.max_insts, "instruction budget exceeded");
        if self.pipeline_events {
            let before = self.fetch.next_seq();
            self.fetch.tick(self.program, &mut self.mem, self.now);
            for seq in before..self.fetch.next_seq() {
                self.observer.on_fetch(seq, self.now);
            }
        } else {
            self.fetch.tick(self.program, &mut self.mem, self.now);
        }
        self.fu.new_cycle(self.now);
        Ok(())
    }

    /// The fetch-buffer head, if it has arrived by `now`.
    #[inline]
    pub fn head(&self) -> Option<Head> {
        let fe = self.fetch.get(self.fetch.head_seq())?;
        (fe.fetched_at <= self.now).then_some(Head {
            seq: fe.seq,
            pc: fe.pc,
            snapshot: fe.history_snapshot,
            stream_next: fe.predicted_next,
            trained: false,
        })
    }

    /// Architecturally executes the head instruction `inst`: the operand
    /// and functional-unit interlocks, then the operation itself. Operands
    /// are read and results written eagerly; the scoreboard (through
    /// `hooks`) delays consumers until the result is ready.
    ///
    /// # Errors
    ///
    /// The stall that blocks the head this cycle: an operand (or §3.5 WAW
    /// destination) interlock, a busy functional unit, or full MSHRs. A
    /// stalled head is not consumed.
    #[inline]
    pub fn execute<H: WakeHooks>(
        &mut self,
        head: &Head,
        inst: &Inst,
        hooks: &mut H,
    ) -> Result<Executed, StallKind> {
        let now = self.now;
        if let Some(kind) = operand_stall(inst, &self.sb, now) {
            return Err(kind);
        }
        if !self.fu.try_issue(inst, now) {
            return Err(StallKind::Other);
        }
        let qp_true = self.state.read(inst.qp_reg()) != 0;
        self.activity.regfile_reads += inst.reads().count() as u64;
        let mut stored = None;
        let mut flushed = false;

        if qp_true {
            match inst.op() {
                Op::Halt => self.halted = true,
                Op::Br { target } => {
                    if inst.is_predicated() {
                        self.stats.branches += 1;
                        if !head.trained {
                            self.fetch.predictor_mut().update(head.pc, head.snapshot, true);
                        }
                    }
                    flushed = self.resolve_branch(head, self.program.first_pc_from(*target), true);
                }
                Op::Load | Op::LoadFp => {
                    let base = self.state.read(inst.src_n(0).expect("load base"));
                    let addr = effective_address(base, inst.imm_val());
                    match self.mem.access(addr, AccessKind::DataRead, now) {
                        MemAccess::Done { complete_at, level } => {
                            self.observe_mem_access(complete_at, level);
                            let v = self.state.mem.load(addr);
                            if let Some(d) = inst.writes() {
                                self.state.write(d, v);
                                hooks.pend_load(&mut self.sb, d, complete_at);
                                self.activity.regfile_writes += 1;
                            }
                            self.stats.executions += 1;
                        }
                        // MSHRs full: replay next cycle. The FU slot is
                        // wasted, as in hardware.
                        MemAccess::Retry => return Err(StallKind::Other),
                    }
                }
                Op::Store => {
                    let base = self.state.read(inst.src_n(0).expect("store base"));
                    let data = self.state.read(inst.src_n(1).expect("store data"));
                    let addr = effective_address(base, inst.imm_val());
                    self.state.mem.store(addr, data);
                    let _ = self.mem.access(addr, AccessKind::DataWrite, now);
                    stored = Some((addr, data));
                    self.stats.executions += 1;
                }
                Op::Nop | Op::Restart => {}
                op => {
                    let a = inst.src_n(0).map(|r| self.state.read(r)).unwrap_or(0);
                    let b = inst.src_n(1).map(|r| self.state.read(r)).unwrap_or(0);
                    let v = alu(op, a, b, inst.imm_val());
                    if let Some(d) = inst.writes() {
                        self.state.write(d, v);
                        hooks.pend_exec(&mut self.sb, d, now + op.latency() as u64);
                        self.activity.regfile_writes += 1;
                    }
                    self.stats.executions += 1;
                }
            }
        } else if let Op::Br { .. } = inst.op() {
            // Predicated off: retires as a no-op, but a predicated branch
            // still resolves (not taken) against the prediction.
            self.stats.branches += 1;
            if !head.trained {
                self.fetch.predictor_mut().update(head.pc, head.snapshot, false);
            }
            flushed = self.resolve_branch(head, self.program.next_pc(head.pc), false);
        }
        Ok(Executed { qp_true, stored, flushed })
    }

    /// Publishes a data access completing at `complete_at` from `level`
    /// to a pipeline-level observer.
    #[inline]
    pub fn observe_mem_access(&mut self, complete_at: u64, level: HitLevel) {
        if self.pipeline_events {
            self.observer.on_mem_access(&MemAccessObs { cycle: self.now, complete_at, level });
        }
    }

    /// Compares a resolved branch's successor against the fetch stream's;
    /// on a mispredict, squashes everything behind the head and restarts
    /// fetch at `actual_next` after the refill penalty.
    #[inline]
    fn resolve_branch(&mut self, head: &Head, actual_next: Option<Pc>, taken: bool) -> bool {
        if head.stream_next == actual_next {
            return false;
        }
        self.stats.mispredicts += 1;
        self.fetch.flush_after(
            head.seq,
            actual_next,
            self.now + self.mispredict_penalty,
            head.snapshot,
            taken,
        );
        true
    }

    /// Retires the executed head: publishes its issue, writeback and
    /// retirement, and pops it from the fetch buffer. `mode` and
    /// `episode` label the retirement (the multipass core retires in
    /// rally mode too).
    #[inline]
    pub fn retire(
        &mut self,
        head: &Head,
        inst: &Inst,
        done: &Executed,
        mode: RetireMode,
        episode: Option<EpisodeWindow>,
    ) {
        let (seq, now) = (head.seq, self.now);
        if self.pipeline_events {
            self.observer.on_issue(seq, now);
            if let (true, Some(d)) = (done.qp_true, inst.writes()) {
                self.observer.on_writeback(seq, d, now);
            }
        }
        if self.retire_events {
            self.observer.on_retire(&RetireEvent {
                seq,
                cycle: now,
                pc: head.pc,
                inst: Cow::Borrowed(inst),
                qp_true: Some(done.qp_true),
                wrote: if done.qp_true {
                    inst.writes().map(|d| (d, self.state.read(d)))
                } else {
                    None
                },
                stored: done.stored,
                mode,
                merged: false,
                episode,
            });
        }
        self.fetch.pop_front();
        self.stats.retired += 1;
    }

    /// One cycle of baseline issue: instructions issue in program order,
    /// at most one compiler issue group (EPIC stop bits) per cycle, with
    /// split issue when a member stalls. Returns the number issued and
    /// the stall that ended the cycle, if any.
    #[inline]
    pub fn issue_group(&mut self) -> (u32, Option<StallKind>) {
        let program = self.program;
        let mut issued = 0u32;
        while issued < self.issue_width {
            // An empty buffer (or a head still in flight) ends the cycle.
            let Some(head) = self.head() else { break };
            // The fetch buffer holds a verbatim copy of the static
            // instruction; borrow the program's original.
            let inst = program.inst(head.pc).expect("fetched pc is valid");
            self.activity.select_visits += 1;
            let done = match self.execute(&head, inst, &mut ()) {
                Ok(done) => done,
                Err(kind) => return (issued, Some(kind)),
            };
            self.retire(&head, inst, &done, RetireMode::Architectural, None);
            issued += 1;
            if self.halted || done.flushed || inst.ends_group() {
                break;
            }
        }
        (issued, None)
    }

    /// Charges one issue cycle: to useful execution if anything issued,
    /// else to the stall of the oldest unissued instruction, else (an
    /// empty buffer) to the front end.
    #[inline]
    pub fn charge_issue_cycle(&mut self, issued: u32, stall: Option<StallKind>) {
        let kind = match (issued, stall) {
            (1.., _) => StallKind::Execution,
            (0, Some(kind)) => kind,
            (0, None) => StallKind::FrontEnd,
        };
        self.stats.breakdown.charge(kind);
    }

    /// The head-of-queue fast-forward window at `now`: the cycles the
    /// issue stage provably spends stalled on a known-latency event.
    ///
    /// A drained or not-yet-fetched head is never examined by issue (zero
    /// visits per cycle); a live stalled head is examined once per polled
    /// cycle. An operand stall wakes at the *earliest* operand crossing,
    /// because the stall kind may change there. A head blocked purely on
    /// an occupied unpipelined FP unit wakes at its release. `None` when
    /// the head would issue (or needs a memory access, which mutates
    /// hierarchy stats), and for a load-use stall unless
    /// `load_stall_skippable` — runahead and multipass leave
    /// architectural mode on that very cycle.
    #[inline]
    pub fn head_window(&self, load_stall_skippable: bool) -> Option<Window> {
        let Some(fe) = self.fetch.get(self.fetch.head_seq()) else {
            return Some((u64::MAX, StallKind::FrontEnd, 0));
        };
        if fe.fetched_at > self.now {
            return Some((fe.fetched_at, StallKind::FrontEnd, 0));
        }
        let inst = self.program.inst(fe.pc).expect("fetched pc is valid");
        match operand_stall(inst, &self.sb, self.now) {
            Some(StallKind::Load) if !load_stall_skippable => None,
            Some(kind) => operand_wake(inst, &self.sb, self.now).map(|w| (w, kind, 1)),
            None if !self.fu.can_issue_fresh(inst, self.now) => {
                Some((self.fu.next_fp_release(self.now), StallKind::Other, 1))
            }
            None => None,
        }
    }

    /// Bounds a skip to `target` by the events that end quiescence: the
    /// fetch unit's next activity, the next MSHR fill and the cycle cap.
    /// `None` while fetch is active at `now`.
    #[inline]
    pub fn wake_bound(&self, target: u64) -> Option<u64> {
        let fetch_wake = self.fetch.quiescent_until(self.now)?;
        Some(target.min(fetch_wake).min(self.mem.next_mshr_fill(self.now)).min(self.cycle_cap))
    }

    /// Event-driven quiescence fast-forward for baseline issue, called at
    /// the bottom of the per-cycle loop: when fetch is idle and the head
    /// is provably blocked ([`InOrderStage::head_window`]), skips to the
    /// earliest wake point, charging every skipped cycle exactly as the
    /// polled loop would. A no-op under [`TickMode::Polling`].
    #[inline]
    pub fn fast_forward(&mut self, load_stall_skippable: bool) {
        // Fetch must be idle; checking that first keeps busy cycles cheap.
        if self.tick != TickMode::EventDriven
            || self.halted
            || self.fetch.quiescent_until(self.now).is_none()
        {
            return;
        }
        let Some((target, kind, visits)) = self.head_window(load_stall_skippable) else {
            return;
        };
        if let Some(wake) = self.wake_bound(target) {
            self.skip_to(wake, kind, visits);
        }
    }

    /// Skips from `now` to `wake` (when later), charging every skipped
    /// cycle to `kind` and `visits` issue-select visits, exactly as the
    /// polled loop would. Returns the number of cycles skipped.
    #[inline]
    pub fn skip_to(&mut self, wake: u64, kind: StallKind, visits: u64) -> u64 {
        let skipped = wake.saturating_sub(self.now);
        self.stats.breakdown.charge_n(kind, skipped);
        self.activity.select_visits += visits * skipped;
        self.now += skipped;
        skipped
    }

    /// Ends the run: stamps the cycle count and moves the results out.
    pub fn finish(mut self) -> RunResult {
        self.stats.cycles = self.now;
        self.activity.cycles = self.now;
        RunResult {
            stats: self.stats,
            activity: self.activity,
            mem_stats: self.mem.final_stats(),
            final_state: self.state,
        }
    }
}
