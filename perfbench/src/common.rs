//! Steps the workloads share: filling a store, the traced plan run,
//! checking a store and a results render against the pinned references,
//! timed memo-hit reads, and timing repeated set-ups.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ff_harness::pool::run_jobs;
use ff_harness::render_results::RESULTS_FILES;
use ff_harness::store::{sweep_tmp, ShardedStore};
use ff_harness::{
    full_grid, render_all, run_campaign, ArtifactStore, CampaignOptions, CampaignReport, JobSpec,
    JobStatus,
};
use ff_workloads::Scale;

use crate::jobpath::{self, JobEnd, Worker};
use crate::metrics::Tally;
use crate::refs::{CrcTable, RefSet};
use crate::stats::{self, Rng};
use crate::trace::Tracer;

/// Campaign workers for the CLI workloads (`--jobs 2`).
pub const CAMPAIGN_WORKERS: usize = 2;

/// The scale of a pinned reference set.
pub fn scale_of(set: RefSet) -> Scale {
    match set {
        RefSet::Paper => Scale::Paper,
        RefSet::Test => Scale::Test,
    }
}

/// The campaign options every CLI workload uses.
pub fn campaign_options(set: RefSet, store: &Path) -> CampaignOptions {
    let mut opts = CampaignOptions::new(scale_of(set), store);
    opts.workers = CAMPAIGN_WORKERS;
    opts
}

/// Removes `dir` if present; it must not survive from an earlier pass.
pub fn clear(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Runs `setup` `reps` times, `gap` apart, and returns the median time
/// with the last result; `teardown` (untimed) disposes of every earlier
/// result.
pub fn timed_setup<T>(
    reps: usize,
    gap: Duration,
    mut setup: impl FnMut() -> std::io::Result<T>,
    mut teardown: impl FnMut(T),
) -> std::io::Result<(f64, T)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(earlier) = last.take() {
            teardown(earlier);
            std::thread::sleep(gap);
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((stats::median(&times), last.expect("at least one set-up repetition")))
}

/// Counts every job of `report`: failed or quarantined jobs fail.
pub fn check_jobs(report: &CampaignReport, want: JobStatus, tally: &mut Tally) {
    for o in &report.outcomes {
        tally.check(if o.status == want {
            Ok(())
        } else {
            Err(format!("{}: {} (expected {})", o.spec.id(), o.status.name(), want.name()))
        });
    }
}

/// Counts every job of a traced pass, like [`check_jobs`].
pub fn check_ends(plan: &[JobSpec], ends: &[Option<JobEnd>], want: JobStatus, tally: &mut Tally) {
    for (spec, end) in plan.iter().zip(ends) {
        let status = match end {
            Some(e) if e.error.is_some() => JobStatus::Failed,
            Some(e) if e.cached => JobStatus::Cached,
            Some(_) => JobStatus::Ok,
            None => JobStatus::Failed,
        };
        tally.check(if status == want {
            Ok(())
        } else {
            Err(format!("{}: {} (expected {}): {end:?}", spec.id(), status.name(), want.name()))
        });
    }
}

/// One traced plan run, as `run_campaign` then `render_all` do it: the
/// store sweep, every job through [`jobpath::run_cli_job`] on the
/// campaign pool, and the results render. Returns the wall time and each
/// job's end, in plan order.
pub fn traced_pass(
    tr: &Tracer,
    set: RefSet,
    plan: &[JobSpec],
    store: &Path,
    results: &Path,
    tally: &mut Tally,
) -> std::io::Result<(f64, Vec<Option<JobEnd>>)> {
    let exec = campaign_options(set, store).exec();
    let t = Instant::now();
    std::fs::create_dir_all(store)?;
    tr.span(None, "store.sweep", None, |_| sweep_tmp(store))?;
    let ends = run_jobs(
        plan,
        CAMPAIGN_WORKERS,
        |_| Worker::default(),
        |w, _, spec| jobpath::run_cli_job(tr, w, store, spec, &exec),
    );
    let rendered = tr.span(None, "results.render", None, |_| render(set, store, results));
    let wall = t.elapsed().as_secs_f64();
    tally.check(rendered);
    Ok((wall, ends))
}

/// Runs the whole `set` plan into an empty store at `store`, checking
/// every job ran.
pub fn fill_store(set: RefSet, store: &Path, tally: &mut Tally) -> std::io::Result<()> {
    clear(store)?;
    let report = run_campaign(&full_grid(scale_of(set)), &campaign_options(set, store))?;
    check_jobs(&report, JobStatus::Ok, tally);
    Ok(())
}

/// Reads every artifact of `plan` through the store's verified read path,
/// checking each against the pinned table; returns hash → bytes.
pub fn check_store(
    store: &ShardedStore,
    plan: &[JobSpec],
    table: &CrcTable,
    tally: &mut Tally,
) -> BTreeMap<u64, String> {
    let mut bodies = BTreeMap::new();
    for spec in plan {
        let hash = spec.config_hash();
        let key = format!("{hash:016x}");
        match store.read(spec) {
            Some(body) => {
                tally.check(table.verify(&key, body.as_bytes()));
                bodies.insert(hash, body);
            }
            None => tally.check(Err(format!("{}: artifact missing or corrupt", spec.id()))),
        }
    }
    bodies
}

/// Renders every results file from the artifacts in `store` into
/// `results` (with a zero wall time, so the files are deterministic).
pub fn render(set: RefSet, store: &Path, results: &Path) -> Result<(), String> {
    let mut source = ArtifactStore::new(store, scale_of(set));
    render_all(&mut source, scale_of(set), results, 0.0).map(drop)
}

/// Checks the rendered files in `results` against the pinned table.
pub fn check_results(set: RefSet, results: &Path, tally: &mut Tally) -> Vec<Vec<u8>> {
    let table = set.results();
    RESULTS_FILES
        .iter()
        .map(|name| {
            let bytes = std::fs::read(results.join(name)).unwrap_or_default();
            tally.check(table.verify(name, &bytes));
            bytes
        })
        .collect()
}

/// The config hashes of `plan`, sorted: the key space of memo-hit reads.
pub fn plan_hashes(plan: &[JobSpec]) -> Vec<u64> {
    let mut hashes: Vec<u64> = plan.iter().map(JobSpec::config_hash).collect();
    hashes.sort_unstable();
    hashes
}

/// The seeded sequence of memo-hit keys the readers request.
pub struct KeyStream<'a> {
    rng: Rng,
    hashes: &'a [u64],
}

impl<'a> KeyStream<'a> {
    /// Keys drawn uniformly from `hashes` by workload seed `seed`.
    pub fn new(seed: u64, hashes: &'a [u64]) -> Self {
        KeyStream { rng: Rng::new(seed ^ 0x6b65_7973), hashes }
    }
}

impl Iterator for KeyStream<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.hashes[self.rng.below(self.hashes.len())])
    }
}

/// Memo-hit reads per timed burst. A read right after a pause is slower
/// (cold caches); at 1 in 1000 such reads stay out of the p99.
pub const PROBE_BURST: usize = 1000;

/// Times `n` memo-hit reads of the next keys through
/// `ShardedStore::read_by_hash` (the lookup behind `GET /jobs/{hash}`),
/// checking each body against the pinned table; appends latencies in ms.
pub fn probe_reads(
    store: &ShardedStore,
    keys: &mut KeyStream<'_>,
    n: usize,
    table: &CrcTable,
    tally: &mut Tally,
    latencies_ms: &mut Vec<f64>,
) {
    for hash in keys.take(n) {
        let t = Instant::now();
        let body = store.read_by_hash(hash);
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let key = format!("{hash:016x}");
        tally.check(match body {
            Some(body) => table.verify(&key, body.as_bytes()),
            None => Err(format!("{key}: memo hit missing or corrupt")),
        });
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_experiments::{HierKind, ModelKind};
    use ff_harness::store::{sharded_path, write_artifact};

    #[test]
    fn a_flipped_artifact_byte_is_a_failed_operation() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-flip");
        clear(&dir).unwrap();
        let spec = JobSpec::sim(ModelKind::Multipass, HierKind::Base, "mcf", 0, Scale::Test);
        let body = "{\"format\":1,\"cycles\":12345}\n";
        write_artifact(&dir, &spec, body).unwrap();
        let key = format!("{:016x}", spec.config_hash());
        let table = CrcTable::parse(&CrcTable::render(
            "t",
            &[(key.clone(), body.as_bytes().to_vec(), String::new())],
        ));
        let hashes = [spec.config_hash()];
        let store = ShardedStore::open(&dir).unwrap();

        let mut clean = Tally::default();
        probe_reads(&store, &mut KeyStream::new(1, &hashes), 50, &table, &mut clean, &mut vec![]);
        assert_eq!((clean.attempted, clean.failed), (50, 0));

        // Damage on disk: the store's checksum footer catches it and the
        // read is a failed operation (the file moves to quarantine).
        let path = sharded_path(&dir, &spec);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let mut damaged = Tally::default();
        probe_reads(&store, &mut KeyStream::new(1, &hashes), 50, &table, &mut damaged, &mut vec![]);
        assert_eq!(damaged.failed, 50);

        // Damage in flight (a served body): the pinned table catches it.
        let mut flipped = body.as_bytes().to_vec();
        flipped[5] ^= 0x01;
        let mut served = Tally::default();
        served.check(table.verify(&key, &flipped));
        assert_eq!(served.failed, 1);
        clear(&dir).unwrap();
    }

    #[test]
    fn one_seed_gives_one_key_sequence() {
        let hashes: Vec<u64> = (0..326).map(|i| i * 7919).collect();
        let a: Vec<u64> = KeyStream::new(3, &hashes).take(500).collect();
        let b: Vec<u64> = KeyStream::new(3, &hashes).take(500).collect();
        let c: Vec<u64> = KeyStream::new(4, &hashes).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
