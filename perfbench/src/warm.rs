//! `warm-test`: the full test-scale plan against a store filled during
//! set-up, run back to back — `run_campaign` (every job a memo hit), then
//! `render_all` from the `ArtifactStore`. No simulation runs, so only the
//! memo/read path and results rendering do work.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ff_harness::store::ShardedStore;
use ff_harness::{full_grid, run_campaign, JobSpec, JobStatus};

use crate::common::{self, KeyStream, CAMPAIGN_WORKERS};
use crate::metrics::{layers_from_spans, pool_layers, Outcome, Tally};
use crate::refs::RefSet;
use crate::stats;
use crate::trace::Tracer;
use crate::Args;

/// Set-up repetitions: each fills a store with the test-scale plan.
const SETUP_REPS: usize = 3;

/// A burst of memo-hit reads follows the first untraced pass and every
/// this many after it (about once a second).
const PASSES_PER_BURST: usize = 50;

/// Most traced passes per run, which bounds the spans kept in memory.
const MAX_TRACED_PASSES: usize = 20;

/// Fills the store and renders the reference ("cold") results from it.
fn prepare(store: &Path, cold: &Path, tally: &mut Tally) -> std::io::Result<Vec<Vec<u8>>> {
    common::fill_store(RefSet::Test, store, tally)?;
    tally.check(common::render(RefSet::Test, store, cold));
    Ok(common::check_results(RefSet::Test, cold, tally))
}

/// Checks a warm render against the pinned table and, byte for byte,
/// against the cold render.
fn check_render(warm: &Path, cold: &[Vec<u8>], tally: &mut Tally) {
    let warm = common::check_results(RefSet::Test, warm, tally);
    tally.check(if warm == cold {
        Ok(())
    } else {
        Err("warm render differs from the cold render".into())
    });
}

/// One untraced warm pass: returns (plan-run time, plan-run + render time).
fn pass(
    plan: &[JobSpec],
    store: &Path,
    results: &Path,
    tally: &mut Tally,
) -> std::io::Result<(f64, f64)> {
    let t = Instant::now();
    let report = run_campaign(plan, &common::campaign_options(RefSet::Test, store))?;
    let done = t.elapsed().as_secs_f64();
    let rendered = common::render(RefSet::Test, store, results);
    let wall = t.elapsed().as_secs_f64();
    common::check_jobs(&report, JobStatus::Cached, tally);
    tally.check(rendered);
    Ok((done, wall))
}

/// Runs the workload.
pub fn run(args: &Args, root: &Path) -> std::io::Result<(Outcome, Arc<Tracer>)> {
    let mut o = Outcome::default();
    let store = root.join("store");
    let cold_dir = root.join("cold-results");
    let warm_dir = root.join("results");
    let mut setup_tally = Tally::default();
    let (setup_s, cold) = common::timed_setup(
        SETUP_REPS,
        Duration::ZERO,
        || prepare(&store, &cold_dir, &mut setup_tally),
        drop,
    )?;
    o.setup_s = setup_s;
    o.tally.merge(setup_tally);
    let plan = full_grid(common::scale_of(RefSet::Test));
    let opened = ShardedStore::open(&store)?;
    common::check_store(&opened, &plan, &RefSet::Test.artifacts(), &mut o.tally);

    // Untraced passes fill the run (half of it when traced passes follow).
    // Memo-hit reads are interleaved with them, so both sample the same
    // stretch of host time.
    let budget = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let hashes = common::plan_hashes(&plan);
    let table = RefSet::Test.artifacts();
    let mut keys = KeyStream::new(args.seed, &hashes);
    let started = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || started.elapsed().as_secs_f64() < budget {
        let (done, wall) = pass(&plan, &store, &warm_dir, &mut o.tally)?;
        check_render(&warm_dir, &cold, &mut o.tally);
        o.submit_done_s.push(done);
        walls.push(wall);
        if walls.len() % PASSES_PER_BURST == 1 {
            common::probe_reads(
                &opened,
                &mut keys,
                common::PROBE_BURST,
                &table,
                &mut o.tally,
                &mut o.get_hit_ms,
            );
        }
    }
    o.campaign_s = stats::median(&walls);

    let tr = Arc::new(Tracer::default());
    if args.trace {
        let started = Instant::now();
        let mut traced = Vec::new();
        while traced.is_empty()
            || (traced.len() < MAX_TRACED_PASSES && started.elapsed().as_secs_f64() < budget)
        {
            let (wall, ends) =
                common::traced_pass(&tr, RefSet::Test, &plan, &store, &warm_dir, &mut o.tally)?;
            common::check_ends(&plan, &ends, JobStatus::Cached, &mut o.tally);
            traced.push(wall);
            check_render(&warm_dir, &cold, &mut o.tally);
        }
        let spans = tr.spans();
        o.layers = layers_from_spans(&spans, &Default::default());
        let total: f64 = traced.iter().sum();
        o.layers.extend(pool_layers(&spans, CAMPAIGN_WORKERS, total));
        // Per pass, not summed over the run's passes.
        let render_s = o.layers["results.render_s"] / traced.len() as f64;
        o.layers.insert("results.render_s".into(), render_s);
        o.layers.insert("trace.overhead_s".into(), stats::median(&traced) - o.campaign_s);
    }
    Ok((o, tr))
}
