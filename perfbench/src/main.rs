//! End-to-end and per-layer benchmark of the flea-flicker campaign
//! runner, memo store and campaign server. See `perfbench/README.md`.
//!
//! ```text
//! ff-perfbench --workload <cold-paper|warm-test|serve-mixed> --seed <n> --seconds <n> --trace <0|1>
//! ff-perfbench refs
//! ```
//!
//! A run prints a human summary on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! `refs` regenerates the pinned correctness references under `ref/`.

mod cold;
mod common;
mod jobpath;
mod metrics;
mod refs;
mod serve;
mod stats;
mod trace;
mod warm;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ff_harness::full_grid;
use ff_harness::render_results::RESULTS_FILES;
use ff_harness::store::ShardedStore;

use crate::metrics::{Outcome, Tally};
use crate::refs::{CrcTable, RefSet};

const USAGE: &str = "usage: ff-perfbench --workload <cold-paper|warm-test|serve-mixed> \
                     --seed <n> --seconds <n> --trace <0|1>\n       ff-perfbench refs";

/// The command line of one benchmark run.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: sets request sequences and sampled checks.
    pub seed: u64,
    /// Least time to measure; a workload whose unit of work takes longer
    /// measures one unit.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cold-paper", "warm-test", "serve-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Scratch space for stores and traces, inside the benchmark directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A run's scratch directory, removed when the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn summarize(args: &Args, o: &Outcome) {
    eprintln!(
        "{} seed {}: setup {:.4}s, campaign {:.4}s",
        args.workload, args.seed, o.setup_s, o.campaign_s
    );
    for (name, samples) in [("get_hit", &o.get_hit_ms), ("submit_done", &o.submit_done_s)] {
        let tail = stats::highest_supported(samples.len())
            .map_or("none".to_string(), |pm| format!("p{}", pm as f64 / 10.0));
        let spread: Vec<String> = stats::PERCENTILES
            .iter()
            .map(|&pm| format!("p{}={:.4}", pm as f64 / 10.0, stats::percentile(samples, pm)))
            .collect();
        eprintln!(
            "  {name}: {} samples, highest percentile with ten beyond: {tail}; {}",
            samples.len(),
            spread.join(" ")
        );
    }
    eprintln!("  {} operations, {} failed", o.tally.attempted, o.tally.failed);
    for note in &o.tally.notes {
        eprintln!("  FAILED: {note}");
    }
}

fn run(args: &Args) -> std::io::Result<String> {
    let dir = RunDir(out_dir().join(format!("run-{}", std::process::id())));
    common::clear(&dir.0)?;
    std::fs::create_dir_all(&dir.0)?;
    let (mut o, tr) = match args.workload.as_str() {
        "cold-paper" => cold::run(args, &dir.0)?,
        "warm-test" => warm::run(args, &dir.0)?,
        _ => serve::run(args, &dir.0)?,
    };
    metrics::add_sample_layers(&mut o);
    let peak_rss_mb = common::peak_rss_mb()?;
    summarize(args, &o);
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let declared = metrics::per_layer();
        if let Some(stray) = o.layers.keys().find(|k| !declared.iter().any(|(n, _)| n == *k)) {
            return Err(std::io::Error::other(format!("undeclared per-layer metric `{stray}`")));
        }
        let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path)?;
        eprintln!("  spans written to {}", path.display());
        declared
            .into_iter()
            .map(|(name, unit)| {
                let value = o.layers.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect()
    } else {
        let values = metrics::end_to_end_values(&o, peak_rss_mb);
        metrics::END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n.to_string(), v, u)).collect()
    };
    Ok(metrics::render_result(o.tally.failed == 0, o.tally.attempted, o.tally.failed, &metrics))
}

/// Regenerates the pinned references from the program's own output.
fn write_refs() -> std::io::Result<()> {
    let dir = RunDir(out_dir().join(format!("refs-{}", std::process::id())));
    let ref_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("ref");
    for set in [RefSet::Paper, RefSet::Test] {
        let (store, results) = (dir.0.join(set.stem()), dir.0.join("results"));
        let scale = common::scale_of(set);
        let mut tally = Tally::default();
        common::fill_store(set, &store, &mut tally)?;
        common::render(set, &store, &results).map_err(std::io::Error::other)?;
        let opened = ShardedStore::open(&store)?;
        let mut artifacts = Vec::new();
        for spec in full_grid(scale) {
            match opened.read(&spec) {
                Some(body) => artifacts.push((
                    format!("{:016x}", spec.config_hash()),
                    body.into_bytes(),
                    spec.id(),
                )),
                None => tally.check(Err(format!("{}: no artifact", spec.id()))),
            }
        }
        if tally.failed > 0 {
            return Err(std::io::Error::other(format!("refs: {:?}", tally.notes)));
        }
        let files = RESULTS_FILES
            .iter()
            .map(|name| Ok((name.to_string(), std::fs::read(results.join(name))?, String::new())))
            .collect::<std::io::Result<Vec<_>>>()?;
        let stem = set.stem();
        std::fs::write(
            ref_dir.join(format!("{stem}_artifacts.crc64")),
            CrcTable::render(
                &format!("crc64 of every full_grid({stem}) artifact as the store serves it (footer stripped)"),
                &artifacts,
            ),
        )?;
        std::fs::write(
            ref_dir.join(format!("{stem}_results.crc64")),
            CrcTable::render(
                &format!("crc64 of every results file render_all writes at {stem} scale"),
                &files,
            ),
        )?;
        eprintln!(
            "refs: wrote {} artifact and {} results digests at {stem} scale",
            artifacts.len(),
            files.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("refs") {
        write_refs().map(|()| None)
    } else {
        match parse_args(&argv) {
            Ok(args) => run(&args).map(Some),
            Err(e) => {
                eprintln!("ff-perfbench: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    };
    match outcome {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ff-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
