//! `cold-paper`: the full paper-scale plan through `run_campaign` with two
//! workers on an empty store, then `render_all` — the command users wait
//! on. Simulation dominates; `report/ablation_structures` is the longest
//! job.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use ff_harness::store::{sharded_path, ShardedStore};
use ff_harness::{full_grid, run_campaign, JobSpec, JobStatus};

use crate::common::{self, KeyStream, CAMPAIGN_WORKERS};
use crate::jobpath::{self, SimRecord};
use crate::metrics::{layers_from_spans, pool_layers, Outcome, Tally};
use crate::refs::RefSet;
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::Args;

/// Set-up repetitions: set-up takes well under a millisecond here, so
/// the median of many, spread over ~1 s of host time, steadies it.
const SETUP_REPS: usize = 101;
const SETUP_GAP: Duration = Duration::from_millis(10);

/// Memo-hit read bursts after the campaign, spread over ~3 s so the
/// sample spans more than one phase of the host's speed.
const PROBE_BURSTS: usize = 20;
const PROBE_GAP: Duration = Duration::from_millis(150);

/// Prepares what a cold campaign starts from: an empty store and the
/// expanded plan.
fn prepare(store: &Path) -> std::io::Result<Vec<JobSpec>> {
    common::clear(store)?;
    ShardedStore::open(store)?;
    Ok(full_grid(common::scale_of(RefSet::Paper)))
}

/// One untraced cold pass into the empty store at `store`; returns its
/// wall time and appends each job's submission-to-artifact latency.
fn pass(
    plan: &[JobSpec],
    store: &Path,
    results: &Path,
    submit_done: &mut Vec<f64>,
    tally: &mut Tally,
) -> std::io::Result<f64> {
    let submitted = SystemTime::now();
    let t = Instant::now();
    let report = run_campaign(plan, &common::campaign_options(RefSet::Paper, store))?;
    let rendered = common::render(RefSet::Paper, store, results);
    let wall = t.elapsed().as_secs_f64();
    common::check_jobs(&report, JobStatus::Ok, tally);
    tally.check(rendered);
    check_outputs(plan, store, results, tally)?;
    // An artifact is available once durably written: its mtime.
    for spec in plan {
        match std::fs::metadata(sharded_path(store, spec)).and_then(|m| m.modified()) {
            Ok(mtime) => {
                submit_done.push(mtime.duration_since(submitted).map_or(0.0, |d| d.as_secs_f64()))
            }
            Err(e) => tally.check(Err(format!("{}: {e}", spec.id()))),
        }
    }
    Ok(wall)
}

/// Checks every artifact and results file against the pinned tables.
fn check_outputs(
    plan: &[JobSpec],
    store: &Path,
    results: &Path,
    tally: &mut Tally,
) -> std::io::Result<()> {
    let opened = ShardedStore::open(store)?;
    common::check_store(&opened, plan, &RefSet::Paper.artifacts(), tally);
    common::check_results(RefSet::Paper, results, tally);
    Ok(())
}

/// Runs the workload.
pub fn run(args: &Args, root: &Path) -> std::io::Result<(Outcome, Arc<Tracer>)> {
    let mut o = Outcome::default();
    let store = root.join("store");
    let results = root.join("results");
    let (setup_s, plan) = common::timed_setup(SETUP_REPS, SETUP_GAP, || prepare(&store), drop)?;
    o.setup_s = setup_s;
    let tr = Arc::new(Tracer::default());
    let mut rng = Rng::new(args.seed);
    let started = Instant::now();
    let mut walls = Vec::new();
    loop {
        if !walls.is_empty() {
            prepare(&store)?;
        }
        walls.push(pass(&plan, &store, &results, &mut o.submit_done_s, &mut o.tally)?);
        if args.trace || started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    o.campaign_s = stats::median(&walls);
    let opened = ShardedStore::open(&store)?;
    let hashes = common::plan_hashes(&plan);
    let table = RefSet::Paper.artifacts();
    let mut keys = KeyStream::new(args.seed, &hashes);
    for _ in 0..PROBE_BURSTS {
        common::probe_reads(
            &opened,
            &mut keys,
            common::PROBE_BURST,
            &table,
            &mut o.tally,
            &mut o.get_hit_ms,
        );
        std::thread::sleep(PROBE_GAP);
    }
    if args.trace {
        prepare(&store)?;
        let (wall, ends) =
            common::traced_pass(&tr, RefSet::Paper, &plan, &store, &results, &mut o.tally)?;
        common::check_ends(&plan, &ends, JobStatus::Ok, &mut o.tally);
        check_outputs(&plan, &store, &results, &mut o.tally)?;
        let exec = common::campaign_options(RefSet::Paper, &store).exec();
        let records: Vec<(JobSpec, SimRecord)> = plan
            .iter()
            .zip(&ends)
            .filter_map(|(spec, end)| Some((spec.clone(), end.as_ref()?.sim?)))
            .collect();
        let sims = jobpath::sim_counts(&records, &exec, &mut rng, &mut o.tally);
        let spans = tr.spans();
        o.layers = layers_from_spans(&spans, &sims);
        o.layers.extend(pool_layers(&spans, CAMPAIGN_WORKERS, wall));
        o.layers.insert("trace.overhead_s".into(), wall - o.campaign_s);
    }
    Ok((o, tr))
}
