//! Tick-mode equivalence: the event-driven scheduler must be a pure
//! simulator-throughput optimization. For every execution model and every
//! workload, a run with [`TickMode::EventDriven`] must be bit-for-bit
//! identical to the reference [`TickMode::Polling`] run — same statistics,
//! same activity counters, same memory counters, same final state, same
//! retirement stream, same pipeline observation stream, and byte-identical
//! campaign artifacts. The same grid pins the observation contract:
//! observing a run, at any level, never changes its result.

use flea_flicker::baselines::{InOrder, OutOfOrder, Runahead};
use flea_flicker::engine::probe::{AscForwardObs, CycleObs, MemAccessObs};
use flea_flicker::engine::{
    ExecutionModel, MachineConfig, ObserveLevel, Observer, RetireEvent, RetireMode, RunResult,
    SimCase, TickMode,
};
use flea_flicker::harness::artifact::render_sim_artifact;
use flea_flicker::harness::JobSpec;
use flea_flicker::isa::{Inst, MemoryImage, Op, Program, Reg};
use flea_flicker::multipass::{Multipass, MultipassConfig};
use flea_flicker::workloads::{Scale, Workload};

fn models(machine: MachineConfig) -> Vec<(&'static str, Box<dyn ExecutionModel>)> {
    vec![
        ("inorder", Box::new(InOrder::new(machine))),
        ("runahead", Box::new(Runahead::new(machine))),
        ("ooo", Box::new(OutOfOrder::new(machine))),
        ("ooo-realistic", Box::new(OutOfOrder::realistic(machine))),
        ("multipass", Box::new(Multipass::new(machine))),
        (
            "multipass-noregroup",
            Box::new(Multipass::with_config(MultipassConfig::without_regrouping(machine))),
        ),
        (
            "multipass-norestart",
            Box::new(Multipass::with_config(MultipassConfig::without_restart(machine))),
        ),
    ]
}

/// Records every event it receives as a rendered line, so two runs can be
/// compared event-for-event with a readable diff on mismatch.
struct Stream {
    level: ObserveLevel,
    lines: Vec<String>,
}

impl Observer for Stream {
    fn level(&self) -> ObserveLevel {
        self.level
    }

    fn on_fetch(&mut self, seq: u64, cycle: u64) {
        self.lines.push(format!("fetch seq={seq} cy={cycle}"));
    }

    fn on_issue(&mut self, seq: u64, cycle: u64) {
        self.lines.push(format!("issue seq={seq} cy={cycle}"));
    }

    fn on_writeback(&mut self, seq: u64, reg: Reg, cycle: u64) {
        self.lines.push(format!("wb seq={seq} reg={reg} cy={cycle}"));
    }

    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        self.lines.push(format!("retire {event}"));
    }

    fn on_cycle(&mut self, obs: &CycleObs) {
        self.lines.push(format!("cycle {obs:?}"));
    }

    fn on_mem_access(&mut self, obs: &MemAccessObs) {
        self.lines.push(format!("mem {obs:?}"));
    }

    fn on_asc_forward(&mut self, obs: &AscForwardObs) {
        self.lines.push(format!("asc {obs:?}"));
    }

    fn on_mode(&mut self, cycle: u64, mode: RetireMode) {
        self.lines.push(format!("mode {mode} cy={cycle}"));
    }
}

/// A pipeline-level observer that only counts cycle snapshots.
struct CycleCount(u64);

impl Observer for CycleCount {
    fn level(&self) -> ObserveLevel {
        ObserveLevel::Pipeline
    }

    fn on_cycle(&mut self, _: &CycleObs) {
        self.0 += 1;
    }
}

/// Runs `case` under `tick` with a [`Stream`] at `level`, returning the
/// result and the rendered event stream.
fn run_with(
    model: &mut dyn ExecutionModel,
    case: &SimCase<'_>,
    tick: TickMode,
    level: ObserveLevel,
) -> (RunResult, Vec<String>) {
    model.set_tick_mode(tick);
    let mut stream = Stream { level, lines: Vec::new() };
    let result =
        model.try_run_hooked(case, &mut stream).expect("test workloads halt within budget");
    (result, stream.lines)
}

fn assert_same_result(a: &RunResult, b: &RunResult, at: &str) {
    assert_eq!(a.stats, b.stats, "stats diverge: {at}");
    assert_eq!(a.activity, b.activity, "activity diverges: {at}");
    assert_eq!(a.mem_stats, b.mem_stats, "mem stats diverge: {at}");
    assert!(a.final_state.semantically_eq(&b.final_state), "final state diverges: {at}");
}

fn first_diff(a: &[String], b: &[String]) -> String {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return format!("first divergence at event {i}:\n  polling: {x}\n  event:   {y}");
        }
    }
    format!("stream lengths differ: polling={} event={}", a.len(), b.len())
}

/// A named simulation input.
type Input = (String, Program, MemoryImage);

fn benchmark(w: Workload) -> Input {
    (w.name.to_string(), w.program, w.mem)
}

/// Two kernels that stall on the unpipelined FP dividers, which no
/// benchmark is known to reach: a chain of dependent divides (each waits
/// on its producer's result) and a run of independent divides that
/// oversubscribes the FP units, so the head waits purely on a busy
/// divider (the functional-unit window of the in-order fast-forward).
fn divide_kernels() -> [Input; 2] {
    let mut chain = Program::new();
    let b = chain.add_block();
    chain.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(7).stop());
    for _ in 0..5 {
        chain.push(b, Inst::new(Op::Div).dst(Reg::int(1)).src(Reg::int(1)).src(Reg::int(1)).stop());
    }
    chain.push(b, Inst::new(Op::Halt).stop());

    let mut independent = Program::new();
    let b = independent.add_block();
    independent.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(700));
    independent.push(b, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(3).stop());
    for i in 0..6 {
        independent
            .push(b, Inst::new(Op::Div).dst(Reg::int(10 + i)).src(Reg::int(1)).src(Reg::int(2)));
    }
    independent.push(b, Inst::new(Op::Halt).stop());

    [
        ("divide-chain".into(), chain, MemoryImage::new()),
        ("independent-divides".into(), independent, MemoryImage::new()),
    ]
}

/// The acceptance grid: every model x every benchmark (and the divide
/// kernels), event-driven runs must reproduce the polling runs' results,
/// retirement streams, and rendered campaign artifacts byte for byte.
///
/// The grid also pins the observation contract: an unobserved run, a
/// retirement-level observer and a pipeline-level observer all get the
/// identical result, and a retirement-level observer receives nothing but
/// retirements — the guarantee that keeps the multipass fast-forward on
/// for campaign jobs, which all attach a retirement ring.
#[test]
fn event_driven_matches_polling_on_every_grid_point() {
    let machine = MachineConfig::itanium2_base();
    let inputs = Workload::all(Scale::Test).into_iter().map(benchmark).chain(divide_kernels());
    for (input, program, mem) in inputs {
        let case = SimCase::new(&program, mem);
        for (name, mut model) in models(machine) {
            let retire = ObserveLevel::Retire;
            let (polled, polled_stream) = run_with(&mut *model, &case, TickMode::Polling, retire);
            let (event, event_stream) = run_with(&mut *model, &case, TickMode::EventDriven, retire);
            let at = format!("{name} on {input}");
            assert_same_result(&polled, &event, &at);
            assert!(
                polled_stream == event_stream,
                "retirement streams diverge: {at}\n{}",
                first_diff(&polled_stream, &event_stream)
            );
            assert!(
                event_stream.iter().all(|line| line.starts_with("retire ")),
                "a retirement-level observer got a pipeline event: {at}"
            );

            let unobserved = model.run(&case);
            let mut cycles = CycleCount(0);
            let deep = model.try_run_hooked(&case, &mut cycles).expect("halts within budget");
            assert_same_result(&unobserved, &event, &format!("{at}, retirement-level observer"));
            assert_same_result(&unobserved, &deep, &format!("{at}, pipeline-level observer"));
            if name.starts_with("multipass") {
                assert_eq!(cycles.0, deep.stats.cycles, "a cycle went unobserved: {at}");
            }
        }
    }
}

/// The campaign artifact for a grid point must not depend on the tick
/// mode: artifacts are content-addressed and compared byte-for-byte by
/// resume and by cross-run diffing. Every kernel × every model — the
/// artifact layer deliberately excludes the simulator's
/// self-instrumentation counters, so this also pins the store format
/// against instrumentation changes.
#[test]
fn artifacts_are_byte_identical_across_tick_modes() {
    use flea_flicker::experiments::{HierKind, ModelKind};
    let machine = MachineConfig::itanium2_base();
    for w in Workload::all(Scale::Test) {
        let case = SimCase::new(&w.program, w.mem.clone());
        for model_kind in ModelKind::ALL {
            let spec = JobSpec::sim(model_kind, HierKind::Base, w.name, 0, Scale::Test);
            let render = |tick| {
                let mut model = model_kind.build(machine);
                model.set_tick_mode(tick);
                render_sim_artifact(&spec, &model.run(&case))
            };
            let polled = render(TickMode::Polling);
            let event = render(TickMode::EventDriven);
            assert_eq!(
                polled,
                event,
                "artifact bytes diverge for {} on {}",
                model_kind.name(),
                w.name
            );
        }
    }
}

/// The "zero heap allocation per instruction in steady state" invariant
/// (DESIGN.md §7e): across full runs retiring thousands of instructions,
/// `alloc_count` stays a small warm-up constant — the in-flight
/// containers (OOO ready sets/timers, the runahead register overlay, the
/// multipass seq ring) are sized to their windows up front and never
/// grow on the hot path.
#[test]
fn in_flight_containers_do_not_allocate_in_steady_state() {
    let machine = MachineConfig::itanium2_base();
    let w = Workload::by_name("mcf", Scale::Test).unwrap();
    let case = SimCase::new(&w.program, w.mem.clone());
    for (name, mut model) in models(machine) {
        let result = model.run(&case);
        assert!(
            result.stats.retired > 2_000,
            "{name}: kernel too small to exercise steady state ({} retired)",
            result.stats.retired
        );
        assert!(
            result.activity.alloc_count <= 16,
            "{name}: alloc_count {} over {} retirements — an in-flight container \
             is growing on the hot path",
            result.activity.alloc_count,
            result.stats.retired
        );
    }
}

/// Regression guard for the quiescence fast-forward: a pipeline-level
/// observer forces per-cycle observation, so if the fast-forward ever
/// skipped a cycle with a pending sentinel-visible event (a CycleObs
/// snapshot, a memory completion, an ASC forward, a mode transition), the
/// observation streams would diverge.
#[test]
fn fast_forward_never_skips_a_probe_visible_event() {
    let machine = MachineConfig::itanium2_base();
    let benches =
        ["mcf", "gap", "art", "equake"].map(|b| Workload::by_name(b, Scale::Test).unwrap());
    for (bench, program, mem) in benches.into_iter().map(benchmark).chain(divide_kernels()) {
        let case = SimCase::new(&program, mem);
        let observe = |tick| {
            let mut model = Multipass::new(machine);
            let (result, mut lines) = run_with(&mut model, &case, tick, ObserveLevel::Pipeline);
            lines.push(format!(
                "end cycles={} retired={}",
                result.stats.cycles, result.stats.retired
            ));
            lines
        };
        let polled = observe(TickMode::Polling);
        let event = observe(TickMode::EventDriven);
        assert!(
            polled == event,
            "observation streams diverge on {bench}\n{}",
            first_diff(&polled, &event)
        );
    }
}

/// The watchdog path must also be tick-mode independent: when a run is
/// abandoned at a cycle budget, both modes must report the identical cap
/// and retirement count (the fast-forward clamps at the budget instead of
/// warping past it).
#[test]
fn cycle_budget_abandonment_is_tick_mode_independent() {
    let machine = MachineConfig::itanium2_base();
    let w = Workload::by_name("mcf", Scale::Test).unwrap();
    for budget in [100, 1_000, 10_000] {
        let case = SimCase::new(&w.program, w.mem.clone()).with_cycle_budget(budget);
        for (name, mut model) in models(machine) {
            model.set_tick_mode(TickMode::Polling);
            let polled = model.try_run_hooked(&case, &mut ());
            model.set_tick_mode(TickMode::EventDriven);
            let event = model.try_run_hooked(&case, &mut ());
            match (polled, event) {
                (Ok(p), Ok(e)) => assert_eq!(p.stats, e.stats, "{name} @{budget}"),
                (Err(p), Err(e)) => assert_eq!(p, e, "{name} @{budget}"),
                (p, e) => panic!("{name} @{budget}: outcomes diverge: {p:?} vs {e:?}"),
            }
        }
    }
}
