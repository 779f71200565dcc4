//! Streaming dynamic-trace generation for the trace-driven out-of-order
//! models.
//!
//! The out-of-order timing models are *trace driven*: the golden functional
//! semantics produce the correct-path dynamic instruction stream with
//! dataflow links (register producers and same-address store→load memory
//! dependences), and the timing model schedules that stream under window,
//! ROB, functional-unit, and memory constraints. Wrong-path instructions
//! affect timing through branch-resolution bubbles but do not pollute the
//! caches — consistent with the paper's *idealized* out-of-order model
//! (§5.1), which deliberately excludes several realistic overheads.
//!
//! The trace is never materialized. A [`TraceStepper`] executes one
//! instruction per [`Iterator::next`] call, so the timing model pulls the
//! stream as its fetch advances and holds only its in-flight window
//! (DESIGN.md §7e). Each [`TraceStep`] is `Copy`, borrows its static
//! instruction from the program, and carries its dependences in an inline
//! array; stepping allocates nothing.

use std::collections::HashMap;

use ff_isa::eval::{alu, effective_address};
use ff_isa::inst::MAX_SRCS;
use ff_isa::{ArchState, Inst, MemoryImage, Op, Pc, Program, Reg};

/// Most register producers one instruction can wait for: its qualifying
/// predicate plus each source.
pub const MAX_REG_DEPS: usize = 1 + MAX_SRCS;

/// One dynamic instruction of the correct-path stream.
#[derive(Clone, Copy, Debug)]
pub struct TraceStep<'p> {
    /// Position in the dynamic stream.
    pub seq: u64,
    /// Static location.
    pub pc: Pc,
    /// The static instruction.
    pub inst: &'p Inst,
    /// Whether the qualifying predicate evaluated true.
    pub qp_true: bool,
    reg_deps: [u64; MAX_REG_DEPS],
    n_reg_deps: u8,
    /// Stream position of the most recent store to the same word, for
    /// loads (perfect memory disambiguation, per the idealized model).
    pub mem_dep: Option<u64>,
    /// Effective address for memory operations that executed.
    pub addr: Option<u64>,
    /// For branches: whether it was taken.
    pub taken: bool,
    /// Destination register and value written, when the instruction
    /// architecturally wrote one.
    pub wrote: Option<(Reg, u64)>,
    /// Address and data stored, for stores that executed.
    pub stored: Option<(u64, u64)>,
}

impl TraceStep<'_> {
    /// Stream positions of the register producers this instruction must
    /// wait for — the qualifying predicate and, when `qp_true`, each
    /// source — ascending and deduplicated.
    pub fn reg_deps(&self) -> &[u64] {
        &self.reg_deps[..usize::from(self.n_reg_deps)]
    }

    /// Every producer this instruction waits for: the register producers,
    /// then the memory producer.
    pub fn deps(&self) -> impl Iterator<Item = u64> + '_ {
        self.reg_deps().iter().copied().chain(self.mem_dep)
    }

    /// Whether this entry is a conditional (predictor-consulting) branch.
    pub fn is_conditional_branch(&self) -> bool {
        matches!(self.inst.op(), Op::Br { .. }) && self.inst.is_predicated()
    }
}

/// Error produced when the golden semantics cannot continue the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordTraceError {
    /// The program exceeded the dynamic-instruction budget without halting.
    OutOfFuel,
    /// Control escaped the program.
    InvalidControl,
}

impl std::fmt::Display for RecordTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordTraceError::OutOfFuel => write!(f, "instruction budget exhausted"),
            RecordTraceError::InvalidControl => write!(f, "control escaped the program"),
        }
    }
}

impl std::error::Error for RecordTraceError {}

/// Sentinel for "no producer yet" in the last-writer table.
const NO_PRODUCER: u64 = u64::MAX;

/// Steps the golden semantics of a program one dynamic instruction at a
/// time, yielding each as a [`TraceStep`] with its dataflow links.
///
/// The iterator ends after the `Halt` step, or after yielding an error:
/// [`RecordTraceError::OutOfFuel`] once `max_insts` instructions ran
/// without halting, [`RecordTraceError::InvalidControl`] when control
/// leaves the program.
///
/// # Examples
///
/// ```
/// use ff_engine::TraceStepper;
/// use ff_isa::{ArchState, Inst, Op, Program, Reg};
///
/// let mut p = Program::new();
/// let b = p.add_block();
/// p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(3));
/// p.push(b, Inst::new(Op::Add).dst(Reg::int(2)).src(Reg::int(1)).src(Reg::int(1)));
/// p.push(b, Inst::new(Op::Halt));
/// let mut trace = TraceStepper::new(&p, ArchState::new(), 100).unwrap();
/// let steps: Vec<_> = trace.by_ref().collect::<Result<_, _>>().unwrap();
/// assert_eq!(steps.len(), 3);
/// assert_eq!(steps[1].reg_deps(), &[0]);
/// assert_eq!(trace.into_final_state().int(2), 6);
/// ```
#[derive(Clone, Debug)]
pub struct TraceStepper<'p> {
    program: &'p Program,
    state: ArchState,
    /// Next pc to execute; `None` once the stream ended.
    pc: Option<Pc>,
    seq: u64,
    max_insts: u64,
    horizon: u64,
    /// Last dynamic writer of each register (flat index).
    last_writer: Vec<u64>,
    /// Last dynamic store to each word address.
    last_store: HashMap<u64, u64>,
    /// `last_store` size that triggers pruning producers past the horizon.
    prune_at: usize,
}

impl<'p> TraceStepper<'p> {
    /// A stepper over `program` starting from `initial`, allowed at most
    /// `max_insts` dynamic instructions.
    ///
    /// # Errors
    ///
    /// [`RecordTraceError::InvalidControl`] if the program has no
    /// instructions.
    pub fn new(
        program: &'p Program,
        initial: ArchState,
        max_insts: u64,
    ) -> Result<TraceStepper<'p>, RecordTraceError> {
        let pc = program
            .first_pc_from(ff_isa::program::BlockId(0))
            .ok_or(RecordTraceError::InvalidControl)?;
        Ok(TraceStepper {
            program,
            state: initial,
            pc: Some(pc),
            seq: 0,
            max_insts,
            horizon: u64::MAX,
            last_writer: vec![NO_PRODUCER; Reg::FLAT_COUNT],
            last_store: HashMap::new(),
            prune_at: usize::MAX,
        })
    }

    /// Omits dependences on producers `horizon` or more instructions older
    /// than their consumer. That bounds the store-producer table to
    /// `2 × horizon` live entries, in a table of `4 × horizon` slots
    /// allocated here once so that it only ever rehashes in place. A timing model whose window
    /// never spans `horizon` instructions treats such producers as long
    /// complete anyway.
    #[must_use]
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon.max(1);
        self.prune_at = usize::try_from(self.horizon.saturating_mul(2)).unwrap_or(usize::MAX);
        self.last_store = HashMap::with_capacity(self.prune_at.saturating_add(1).saturating_mul(2));
        self
    }

    /// The pc of the next instruction to step; `None` once the stream has
    /// ended (after `Halt` or an error).
    pub fn pc(&self) -> Option<Pc> {
        self.pc
    }

    /// The architectural state after every instruction stepped so far.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Consumes the stepper, yielding its architectural state without
    /// cloning the memory image.
    pub fn into_final_state(self) -> ArchState {
        self.state
    }

    fn producer(&self, r: Reg) -> Option<u64> {
        if r.is_hardwired() {
            return None;
        }
        let w = self.last_writer[r.flat_index()];
        (w != NO_PRODUCER && self.seq - w < self.horizon).then_some(w)
    }

    fn record_store(&mut self, word: u64) {
        if self.last_store.len() >= self.prune_at {
            let (seq, horizon) = (self.seq, self.horizon);
            self.last_store.retain(|_, s| seq - *s < horizon);
        }
        self.last_store.insert(word, self.seq);
    }

    fn execute(&mut self, pc: Pc) -> Result<TraceStep<'p>, RecordTraceError> {
        let program = self.program;
        let inst = program.inst(pc).ok_or(RecordTraceError::InvalidControl)?;
        let seq = self.seq;
        let qp_true = self.state.read(inst.qp_reg()) != 0;
        let mut step = TraceStep {
            seq,
            pc,
            inst,
            qp_true,
            reg_deps: [0; MAX_REG_DEPS],
            n_reg_deps: 0,
            mem_dep: None,
            addr: None,
            taken: false,
            wrote: None,
            stored: None,
        };
        let qp = inst.is_predicated().then(|| inst.qp_reg());
        for r in qp.into_iter().chain(inst.srcs().filter(|_| qp_true)) {
            match self.producer(r) {
                Some(w) if !step.reg_deps().contains(&w) => {
                    step.reg_deps[usize::from(step.n_reg_deps)] = w;
                    step.n_reg_deps += 1;
                }
                _ => {}
            }
        }
        step.reg_deps[..usize::from(step.n_reg_deps)].sort_unstable();

        let mut next = program.next_pc(pc);
        let mut halted = false;
        if qp_true {
            let state = &mut self.state;
            match inst.op() {
                Op::Halt => halted = true,
                Op::Br { target } => {
                    step.taken = true;
                    next = program.first_pc_from(*target);
                }
                Op::Load | Op::LoadFp => {
                    let base = state.read(inst.src_n(0).expect("load base"));
                    let a = effective_address(base, inst.imm_val());
                    step.addr = Some(a);
                    step.mem_dep = self
                        .last_store
                        .get(&MemoryImage::word_addr(a))
                        .copied()
                        .filter(|&s| seq - s < self.horizon);
                    let v = state.mem.load(a);
                    if let Some(d) = inst.writes() {
                        state.write(d, v);
                        step.wrote = Some((d, v));
                    }
                }
                Op::Store => {
                    let base = state.read(inst.src_n(0).expect("store base"));
                    let data = state.read(inst.src_n(1).expect("store data"));
                    let a = effective_address(base, inst.imm_val());
                    step.addr = Some(a);
                    state.mem.store(a, data);
                    step.stored = Some((a, data));
                    self.record_store(MemoryImage::word_addr(a));
                }
                Op::Nop | Op::Restart => {}
                op => {
                    let a = inst.src_n(0).map(|r| state.read(r)).unwrap_or(0);
                    let b = inst.src_n(1).map(|r| state.read(r)).unwrap_or(0);
                    let v = alu(op, a, b, inst.imm_val());
                    if let Some(d) = inst.writes() {
                        state.write(d, v);
                        step.wrote = Some((d, v));
                    }
                }
            }
            if let Some(d) = inst.writes() {
                self.last_writer[d.flat_index()] = seq;
            }
        }
        self.seq += 1;
        self.pc = match (halted, next) {
            (true, _) => None,
            (false, Some(p)) => Some(p),
            (false, None) => return Err(RecordTraceError::InvalidControl),
        };
        Ok(step)
    }
}

impl<'p> Iterator for TraceStepper<'p> {
    type Item = Result<TraceStep<'p>, RecordTraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        let pc = self.pc?;
        if self.seq >= self.max_insts {
            self.pc = None;
            return Some(Err(RecordTraceError::OutOfFuel));
        }
        let step = self.execute(pc);
        if step.is_err() {
            self.pc = None;
        }
        Some(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::interp::Interpreter;

    fn record(p: &Program, s: ArchState, max: u64) -> Result<Vec<TraceStep<'_>>, RecordTraceError> {
        TraceStepper::new(p, s, max)?.collect()
    }

    fn memory_loop() -> (Program, ArchState) {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        // r1 = 0x1000 (array base), r2 = 4 (count), r3 = 0 (sum)
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x1000));
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(4));
        // loop: r4 = load r1; r3 += r4; store r3 -> (r1+0x800); r1 += 8;
        //       r2 -= 1; if r2 != 0 goto loop
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(4)).src(Reg::int(1)));
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(4)));
        p.push(b1, Inst::new(Op::Store).src(Reg::int(1)).src(Reg::int(3)).imm(0x800));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)));
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)));
        p.push(b2, Inst::new(Op::Halt));
        let mut s = ArchState::new();
        for i in 0..4u64 {
            s.mem.store(0x1000 + i * 8, i + 1);
        }
        (p, s)
    }

    #[test]
    fn stream_matches_interpreter_final_state() {
        let (p, s) = memory_loop();
        let mut t = TraceStepper::new(&p, s.clone(), 100_000).unwrap();
        let steps = t.by_ref().count();
        let mut i = Interpreter::with_state(&p, s);
        i.run(100_000).unwrap();
        assert!(t.state().semantically_eq(i.state()));
        assert_eq!(steps as u64, i.retired());
        assert_eq!(t.pc(), None, "the stream ends at Halt");
        assert!(t.next().is_none());
    }

    #[test]
    fn register_deps_point_at_producers() {
        let (p, s) = memory_loop();
        let t = record(&p, s, 100_000).unwrap();
        // Dynamic inst 3 is `r3 += r4` of iteration 1: depends on the load
        // (seq 2) and on nothing else fetched earlier that writes r3.
        assert_eq!(t[3].reg_deps(), &[2]);
    }

    #[test]
    fn store_load_dependence_found() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x40));
        p.push(b, Inst::new(Op::Store).src(Reg::int(1)).src(Reg::int(1)));
        p.push(b, Inst::new(Op::Load).dst(Reg::int(2)).src(Reg::int(1)));
        p.push(b, Inst::new(Op::Halt));
        let t = record(&p, ArchState::new(), 100).unwrap();
        assert_eq!(t[2].mem_dep, Some(1));
        assert_eq!(t[2].deps().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn predicated_false_depends_only_on_predicate() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::CmpEq).dst(Reg::pred(1)).src(Reg::int(0)).src(Reg::int(1)));
        // p2 is never written, so the move is predicated off.
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(3)).imm(9).qp(Reg::pred(2)));
        p.push(b, Inst::new(Op::Halt));
        let mut stepper = TraceStepper::new(&p, ArchState::new(), 100).unwrap();
        let t: Vec<_> = stepper.by_ref().collect::<Result<_, _>>().unwrap();
        let mv = &t[1];
        assert!(!mv.qp_true); // p2 was never written -> false
        assert!(mv.reg_deps().is_empty()); // p2 has no producer
        assert_eq!(stepper.state().int(3), 0);
    }

    #[test]
    fn branch_outcomes_recorded() {
        let (p, s) = memory_loop();
        let t = record(&p, s, 100_000).unwrap();
        let branches: Vec<_> = t.iter().filter(|i| i.is_conditional_branch()).collect();
        assert_eq!(branches.len(), 4);
        assert!(branches[..3].iter().all(|b| b.taken));
        assert!(!branches[3].taken);
    }

    #[test]
    fn predicated_false_memory_ops_have_no_address() {
        let mut p = Program::new();
        let b = p.add_block();
        // p2 stays false: the load never executes.
        p.push(b, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(2)).qp(Reg::pred(2)));
        p.push(b, Inst::new(Op::Store).src(Reg::int(2)).src(Reg::int(3)).qp(Reg::pred(2)));
        p.push(b, Inst::new(Op::Halt));
        let t = record(&p, ArchState::new(), 100).unwrap();
        assert!(!t[0].qp_true);
        assert_eq!(t[0].addr, None);
        assert_eq!(t[1].addr, None);
        assert_eq!(t[0].mem_dep, None);
    }

    #[test]
    fn dep_lists_are_deduplicated() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(3));
        // Both sources come from the same producer.
        p.push(b, Inst::new(Op::Add).dst(Reg::int(2)).src(Reg::int(1)).src(Reg::int(1)));
        p.push(b, Inst::new(Op::Halt));
        let t = record(&p, ArchState::new(), 100).unwrap();
        assert_eq!(t[1].reg_deps(), &[0]);
    }

    #[test]
    fn out_of_fuel_is_reported_and_ends_the_stream() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::Br { target: b })); // infinite loop
        let mut t = TraceStepper::new(&p, ArchState::new(), 100).unwrap();
        assert_eq!(t.by_ref().take_while(Result::is_ok).count(), 100);
        assert!(t.next().is_none());
        assert_eq!(record(&p, ArchState::new(), 100).unwrap_err(), RecordTraceError::OutOfFuel);
    }

    #[test]
    fn escaping_control_is_reported() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::Nop));
        assert_eq!(
            record(&p, ArchState::new(), 100).unwrap_err(),
            RecordTraceError::InvalidControl
        );
        let empty = Program::new();
        assert!(TraceStepper::new(&empty, ArchState::new(), 100).is_err());
    }

    #[test]
    fn horizon_drops_only_producers_at_least_that_old() {
        let (p, s) = memory_loop();
        let full = record(&p, s.clone(), 100_000).unwrap();
        for horizon in [1, 2, 5, 9] {
            let near: Vec<_> = TraceStepper::new(&p, s.clone(), 100_000)
                .unwrap()
                .with_horizon(horizon)
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(near.len(), full.len());
            for (a, b) in full.iter().zip(&near) {
                let recent: Vec<u64> = a.deps().filter(|&d| a.seq - d < horizon).collect();
                assert_eq!(b.deps().collect::<Vec<_>>(), recent, "horizon {horizon} seq {}", a.seq);
                assert_eq!((a.addr, a.wrote, a.stored), (b.addr, b.wrote, b.stored));
            }
        }
    }

    #[test]
    fn store_table_stays_within_twice_the_horizon() {
        // Streams stores over 4096 distinct words with a horizon of 8.
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(4096));
        p.push(b1, Inst::new(Op::Store).src(Reg::int(1)).src(Reg::int(2)));
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(3)).src(Reg::int(1)));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)));
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)));
        p.push(b2, Inst::new(Op::Halt));
        let mut t = TraceStepper::new(&p, ArchState::new(), 1_000_000).unwrap().with_horizon(8);
        let capacity = t.last_store.capacity();
        while let Some(step) = t.next() {
            let step = step.unwrap();
            assert!(t.last_store.len() <= 17);
            if step.inst.op().is_load() {
                assert_eq!(step.mem_dep, Some(step.seq - 1), "the store just before");
            }
        }
        assert_eq!(t.last_store.capacity(), capacity, "the table never regrew");
    }
}
