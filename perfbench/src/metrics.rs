//! Metric names and units (they must match `BENCHMARK.json`), the
//! attempted/failed tally, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ff_experiments::ModelKind;

use crate::jobpath::Counts;
use crate::stats;
use crate::trace::{self_time_by_name, Span};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("peak_rss_mb", "MB"),
    ("get_hit_p50_ms", "ms"),
    ("submit_done_p50_s", "s"),
];

/// Per-layer metrics, printed by every traced run. A layer that does no
/// work in a workload reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        vec![("workloads.generate_s".into(), "s"), ("workloads.generated".into(), "count")];
    for m in ModelKind::ALL {
        let m = m.name();
        out.push((format!("sim.{m}.busy_s"), "s"));
        out.push((format!("sim.{m}.minst_per_s"), "Minst/s"));
        out.push((format!("sim.{m}.select_visits_per_inst"), "1/inst"));
        out.push((format!("sim.{m}.alloc_count"), "count"));
    }
    for (name, unit) in [
        ("report.ablation_structures_s", "s"),
        ("report.unroll_effect_s", "s"),
        ("campaign.critical_path_s", "s"),
        ("pool.utilization", "ratio"),
        ("artifact.render_ms", "ms"),
        ("store.write_ms", "ms"),
        ("store.verify_read_ms", "ms"),
        ("store.sweep_ms", "ms"),
        ("results.render_s", "s"),
        ("scheduler.hits", "count"),
        ("scheduler.misses", "count"),
        ("scheduler.inflight_dedup", "count"),
        ("http.requests", "count"),
        ("http.shed", "count"),
        ("http.5xx", "count"),
        ("store.sealed_reads", "count"),
        ("scheduler.queue_wait_ms", "ms"),
        ("client.gen_lag_ms", "ms"),
        ("trace.overhead_s", "s"),
        ("get_hit.p90_ms", "ms"),
        ("get_hit.p99_ms", "ms"),
        ("submit_done.p90_s", "s"),
        ("get_hit.samples", "count"),
        ("submit_done.samples", "count"),
    ] {
        out.push((name.into(), unit));
    }
    out
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Checked operations.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// The first failure reasons, for stderr.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `result` is an error.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(e);
            }
        }
    }

    /// Adds `other`'s counts to this tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes.into_iter().take(20usize.saturating_sub(self.notes.len())));
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness tally.
    pub tally: Tally,
    /// Median set-up time.
    pub setup_s: f64,
    /// Median wall time of one plan run.
    pub campaign_s: f64,
    /// Memo-hit read latencies.
    pub get_hit_ms: Vec<f64>,
    /// Submission-to-artifact latencies.
    pub submit_done_s: Vec<f64>,
    /// Per-layer values (traced runs only).
    pub layers: BTreeMap<String, f64>,
}

/// Layer metrics derivable from the spans and simulation counts alone.
pub fn layers_from_spans(
    spans: &[Span],
    sims: &BTreeMap<&'static str, Counts>,
) -> BTreeMap<String, f64> {
    let by_name = self_time_by_name(spans);
    let total = |name: &str| by_name.get(name).map_or((0, 0.0), |&(n, s)| (n, s));
    let mean_ms = |name: &str| {
        let (n, s) = total(name);
        if n == 0 {
            0.0
        } else {
            s * 1e3 / n as f64
        }
    };
    let mut out = BTreeMap::new();
    let (generated, generate_s) = total("workloads.generate");
    out.insert("workloads.generate_s".into(), generate_s);
    out.insert("workloads.generated".into(), generated as f64);
    for m in ModelKind::ALL {
        let m = m.name();
        let busy = total(&format!("sim.{m}")).1;
        let c = sims.get(m).copied().unwrap_or_default();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        out.insert(format!("sim.{m}.busy_s"), busy);
        out.insert(format!("sim.{m}.minst_per_s"), ratio(c.retired as f64 / 1e6, busy));
        out.insert(
            format!("sim.{m}.select_visits_per_inst"),
            ratio(c.select_visits as f64, c.retired as f64),
        );
        out.insert(format!("sim.{m}.alloc_count"), c.alloc_count as f64);
    }
    out.insert("report.ablation_structures_s".into(), total("report.ablation_structures").1);
    out.insert("report.unroll_effect_s".into(), total("report.unroll_effect").1);
    out.insert("artifact.render_ms".into(), mean_ms("artifact.render"));
    out.insert("store.write_ms".into(), mean_ms("store.write"));
    out.insert("store.verify_read_ms".into(), mean_ms("store.verify_read"));
    out.insert("store.sweep_ms".into(), mean_ms("store.sweep"));
    out.insert("results.render_s".into(), total("results.render").1);
    out
}

/// `campaign.critical_path_s` and `pool.utilization` of one traced pass:
/// the longest job, and Σ job time ÷ (workers × pass wall time).
pub fn pool_layers(spans: &[Span], workers: usize, wall_s: f64) -> [(String, f64); 2] {
    let jobs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "job")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect();
    let longest = jobs.iter().copied().fold(0.0, f64::max);
    let busy: f64 = jobs.iter().sum();
    [
        ("campaign.critical_path_s".into(), longest),
        ("pool.utilization".into(), busy / (workers as f64 * wall_s)),
    ]
}

/// Adds the sample-derived layer metrics every workload reports: the
/// tails (too volatile on a 2-vCPU host to bound, see the README) and the
/// sample counts behind the end-to-end medians.
pub fn add_sample_layers(o: &mut Outcome) {
    for (name, samples, pm) in [
        ("get_hit.p90_ms", &o.get_hit_ms, 900),
        ("get_hit.p99_ms", &o.get_hit_ms, 990),
        ("submit_done.p90_s", &o.submit_done_s, 900),
    ] {
        let value = stats::percentile(samples, pm);
        o.layers.insert(name.into(), value);
    }
    o.layers.insert("get_hit.samples".into(), o.get_hit_ms.len() as f64);
    o.layers.insert("submit_done.samples".into(), o.submit_done_s.len() as f64);
}

/// The `--trace 0` metric values of `o`, in [`END_TO_END`] order.
pub fn end_to_end_values(o: &Outcome, peak_rss_mb: f64) -> Vec<f64> {
    vec![
        o.setup_s,
        o.campaign_s,
        peak_rss_mb,
        stats::percentile(&o.get_hit_ms, 500),
        stats::percentile(&o.submit_done_s, 500),
    ]
}

/// The final result line.
pub fn render_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A non-finite value is not valid JSON; it can only come from a
        // bug, so surface it as null rather than a bogus number.
        let value = if value.is_finite() { format!("{value:?}") } else { "null".into() };
        let _ = write!(body, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = ff_harness::json::Json::parse(&manifest).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|a| a.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn a_failed_check_is_counted_with_its_reason() {
        let mut t = Tally::default();
        t.check(Ok(()));
        t.check(Err("digest mismatch".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.notes, vec!["digest mismatch".to_string()]);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = render_result(true, 3, 0, &[("campaign_s".into(), 1.25, "s")]);
        let doc = ff_harness::json::Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
        let m = doc.get("metrics").and_then(|m| m.get("campaign_s")).unwrap();
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(1.25));
    }
}
