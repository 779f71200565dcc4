//! Shared cycle-level pipeline infrastructure for the flea-flicker
//! simulator.
//!
//! Everything the four execution models (`ff-baselines`, `ff-multipass`)
//! have in common lives here:
//!
//! * [`MachineConfig`] — the machine parameters of the paper's Table 2;
//! * [`Scoreboard`] — per-register ready-cycle tracking with the *cause* of
//!   each pending write, which drives the stall-attribution taxonomy of
//!   Figure 6 (execution / front-end / other / load);
//! * [`FuPool`] — runtime functional-unit arbitration (4 M / 2 I / 2 F /
//!   3 B ports, six-issue, unpipelined dividers);
//! * [`RunStats`] / [`StallKind`] — per-run statistics with the paper's
//!   cycle-attribution categories;
//! * [`Activity`] — per-structure access counters consumed by the Wattch
//!   power models in `ff-power`;
//! * [`TraceStepper`] — the correct-path dynamic stream with dataflow and
//!   memory dependence links, stepped one instruction at a time for the
//!   trace-driven out-of-order timing models;
//! * [`InOrderStage`] — the in-order issue stage (architectural
//!   execution, stall charging, the head-of-queue fast-forward window)
//!   that the in-order, runahead and multipass models share;
//! * [`ExecutionModel`] — the trait every pipeline model implements, and
//!   [`SimCase`]/[`RunResult`] — its input/output types;
//! * [`Observer`] — the one read-only observation interface every model
//!   publishes to ([`RetireEvent`]s, and for multipass per-cycle, memory,
//!   store-forwarding and mode-transition events), behind the lockstep
//!   checker, the sentinels and mode tracing;
//! * [`Slab`]/[`InFlightIndex`] — allocation-free in-flight state
//!   containers backing the steady-state zero-allocation invariant
//!   (DESIGN.md §7e).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod config;
pub mod fu;
pub mod inorder;
pub mod model;
pub mod probe;
pub mod retire;
pub mod scoreboard;
pub mod slab;
pub mod stats;
pub mod trace;

pub use activity::Activity;
pub use config::MachineConfig;
pub use fu::FuPool;
pub use inorder::{Executed, Head, InOrderStage, WakeHooks};
pub use model::{ExecutionModel, RunError, RunResult, SimCase, TickMode};
pub use probe::{AscForwardObs, CycleObs, MemAccessObs, ObserveLevel, Observer};
pub use retire::{EpisodeWindow, RetireEvent, RetireMode, RetireRing};
pub use scoreboard::{operand_stall, operand_wake, PendingKind, Scoreboard};
pub use slab::{InFlightIndex, Slab, SlotId};
pub use stats::{RunStats, StallKind};
pub use trace::{RecordTraceError, TraceStep, TraceStepper};
