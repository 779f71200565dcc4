//! The traced job path: one campaign job replayed through the crates'
//! public functions — workload generation, model build and run, artifact
//! render, store verify-read and write — with a span around each call.
//! It mirrors `ff_harness::campaign`'s `run_one`/`compute_artifact`
//! (without sentinels or fault injection), so the traced and untraced
//! runs do the same work and produce byte-identical artifacts.

use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::path::Path;

use ff_engine::{RetireRing, SimCase};
use ff_experiments::{reports, ModelKind, Suite};
use ff_harness::artifact::{render_report_artifact, render_sim_artifact};
use ff_harness::bundle::BUNDLE_RETIREMENTS;
use ff_harness::store::write_artifact;
use ff_harness::{artifact_is_current, ExecOptions, JobKind, JobSpec};
use ff_workloads::Workload;

use crate::metrics::Tally;
use crate::stats::Rng;
use crate::trace::Tracer;

/// The exact work counts of one simulation (they do not depend on the
/// host, so they must repeat bit for bit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// In-flight entries examined by issue select.
    pub select_visits: u64,
    /// Growth events of in-flight containers.
    pub alloc_count: u64,
}

impl AddAssign for Counts {
    fn add_assign(&mut self, r: Counts) {
        self.retired += r.retired;
        self.cycles += r.cycles;
        self.select_visits += r.select_visits;
        self.alloc_count += r.alloc_count;
    }
}

/// A simulation job's model and counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimRecord {
    /// The model simulated.
    pub model: ModelKind,
    /// Its counts.
    pub counts: Counts,
}

/// Per-worker state: the (bench, seed) workload cache, as in
/// `ff_harness::JobContext`.
#[derive(Default)]
pub struct Worker {
    workloads: BTreeMap<(&'static str, u64), Workload>,
}

/// How a traced CLI job ended.
#[derive(Debug)]
pub struct JobEnd {
    /// Served from the store without running.
    pub cached: bool,
    /// The job's failure, if any.
    pub error: Option<String>,
    /// Set for simulation jobs that ran.
    pub sim: Option<SimRecord>,
}

/// Computes `spec`'s artifact text under spans nested in `parent`.
///
/// # Errors
///
/// When the simulation exceeds its cycle budget or the report is unknown.
pub fn compute(
    tr: &Tracer,
    parent: u64,
    worker: &mut Worker,
    spec: &JobSpec,
    exec: &ExecOptions,
) -> Result<(String, Option<SimRecord>), String> {
    let job = spec.id();
    let job = Some(job.as_str());
    match &spec.kind {
        JobKind::Sim { model, hier, bench, seed } => {
            let w = match worker.workloads.entry((bench, *seed)) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(tr.span(Some(parent), "workloads.generate", job, |_| {
                        Workload::by_name_seeded(bench, spec.scale, *seed)
                            .expect("plan uses known benchmarks")
                    }))
                }
            };
            let name = format!("sim.{}", model.name());
            let result = tr.span(Some(parent), &name, job, |_| {
                let mut case = SimCase::new(&w.program, w.mem.clone());
                if let Some(budget) = exec.cycle_budget {
                    case = case.with_cycle_budget(budget);
                }
                let mut m = Suite::build_model(*model, *hier);
                m.set_tick_mode(exec.tick);
                m.try_run_hooked(&case, &mut RetireRing::new(BUNDLE_RETIREMENTS))
            });
            let result = result.map_err(|e| e.to_string())?;
            let counts = Counts {
                retired: result.stats.retired,
                cycles: result.stats.cycles,
                select_visits: result.activity.select_visits,
                alloc_count: result.activity.alloc_count,
            };
            let text = tr
                .span(Some(parent), "artifact.render", job, |_| render_sim_artifact(spec, &result));
            Ok((text, Some(SimRecord { model: *model, counts })))
        }
        JobKind::Report { name } => {
            let text = tr.span(Some(parent), &format!("report.{name}"), job, |_| match *name {
                "ablation_structures" => Ok(reports::ablation_structures(spec.scale)),
                "unroll_effect" => Ok(reports::unroll_effect()),
                other => Err(format!("unknown report job `{other}`")),
            })?;
            let text = tr.span(Some(parent), "artifact.render", job, |_| {
                render_report_artifact(spec, &text)
            });
            Ok((text, None))
        }
    }
}

/// One campaign job against the store at `root`, as `run_campaign` runs
/// it: verify-read for a memo hit, else compute and write durably.
pub fn run_cli_job(
    tr: &Tracer,
    worker: &mut Worker,
    root: &Path,
    spec: &JobSpec,
    exec: &ExecOptions,
) -> JobEnd {
    let id = spec.id();
    tr.span(None, "job", Some(&id), |job| {
        let job_id = Some(id.as_str());
        if tr.span(Some(job), "store.verify_read", job_id, |_| artifact_is_current(root, spec)) {
            return JobEnd { cached: true, error: None, sim: None };
        }
        match compute(tr, job, worker, spec, exec) {
            Ok((text, sim)) => {
                let written = tr
                    .span(Some(job), "store.write", job_id, |_| write_artifact(root, spec, &text));
                JobEnd { cached: false, error: written.err().map(|e| e.to_string()), sim }
            }
            Err(e) => JobEnd { cached: false, error: Some(e), sim: None },
        }
    })
}

/// Simulates `spec` again, untraced, for the exact-count check.
pub fn resimulate(spec: &JobSpec, exec: &ExecOptions) -> Option<SimRecord> {
    let tr = Tracer::default();
    compute(&tr, 0, &mut Worker::default(), spec, exec).ok().and_then(|(_, sim)| sim)
}

/// Sums `records`' counts per model, and re-simulates one seeded job per
/// model: its exact counts must repeat bit for bit, or the check fails.
pub fn sim_counts(
    records: &[(JobSpec, SimRecord)],
    exec: &ExecOptions,
    rng: &mut Rng,
    tally: &mut Tally,
) -> BTreeMap<&'static str, Counts> {
    let mut totals: BTreeMap<&'static str, Counts> = BTreeMap::new();
    let mut by_model: BTreeMap<&'static str, Vec<&(JobSpec, SimRecord)>> = BTreeMap::new();
    for record in records {
        let model = record.1.model.name();
        *totals.entry(model).or_default() += record.1.counts;
        by_model.entry(model).or_default().push(record);
    }
    for jobs in by_model.values() {
        let (spec, first) = jobs[rng.below(jobs.len())];
        let again = resimulate(spec, exec);
        tally.check(if again == Some(*first) {
            Ok(())
        } else {
            Err(format!("{}: exact counts drifted: {first:?} then {again:?}", spec.id()))
        });
    }
    totals
}
