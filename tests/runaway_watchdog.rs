//! The per-run cycle watchdog holds on a program that never halts, for
//! every execution model and both tick modes: the run is abandoned with
//! [`RunError::CycleBudgetExceeded`] at the budget. No model may first
//! execute the program ahead of simulated time (the trace-driven
//! out-of-order models pull their correct-path stream as fetch advances),
//! so the instruction cap is never reached and nothing panics.

use flea_flicker::baselines::{InOrder, OutOfOrder, Runahead};
use flea_flicker::engine::{ExecutionModel, MachineConfig, RunError, SimCase, TickMode};
use flea_flicker::isa::{Inst, MemoryImage, Op, Program, Reg};
use flea_flicker::multipass::{Multipass, MultipassConfig};

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

/// `loop: r1 += 1; r2 = load [r1]; goto loop` — runs forever.
fn infinite_loop() -> Program {
    let mut p = Program::new();
    let b = p.add_block();
    p.push(b, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8));
    p.push(b, Inst::new(Op::Load).dst(Reg::int(2)).src(Reg::int(1)).stop());
    p.push(b, Inst::new(Op::Br { target: b }).stop());
    p
}

#[test]
fn every_model_abandons_a_runaway_program_at_its_cycle_budget() {
    let program = infinite_loop();
    let mut case = SimCase::new(&program, MemoryImage::new()).with_cycle_budget(1_000);
    // Far more instructions than 1,000 cycles can retire, far fewer than
    // the default cap: a model that ran the program ahead of its timing
    // would exhaust this cap and panic instead of timing out.
    case.max_insts = 3_000_000;
    for (name, mut model) in models(MachineConfig::itanium2_base()) {
        for tick in [TickMode::Polling, TickMode::EventDriven] {
            model.set_tick_mode(tick);
            match model.try_run_hooked(&case, &mut ()) {
                Err(RunError::CycleBudgetExceeded { limit, retired }) => {
                    assert_eq!(limit, 1_000, "{name} {tick:?}");
                    assert!(retired > 0, "{name} {tick:?}: retired nothing in 1,000 cycles");
                }
                Ok(r) => panic!("{name} {tick:?}: a runaway program halted: {:?}", r.stats),
            }
        }
    }
}
