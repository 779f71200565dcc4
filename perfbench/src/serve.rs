//! `serve-mixed`: `ff-server` in process with one simulation worker over a
//! store pre-filled with the test-scale plan. Client A sends memo-hit
//! `GET /jobs/{hash}` open-loop at a fixed rate; client B, closed-loop,
//! submits single-config paper-scale campaigns that miss the store, polls
//! each until done and fetches its artifact. Reads run beside writes on
//! one store while simulation competes for the host.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ff_experiments::{HierKind, ModelKind};
use ff_harness::json::Json;
use ff_harness::remote::{http_request, CampaignRequest, ServerUrl};
use ff_harness::store::ShardedStore;
use ff_harness::{
    full_grid, Attempt, ExecOptions, JobContext, JobError, JobFilter, JobKind, JobSpec,
};
use ff_server::{HttpOptions, HttpServer, Scheduler, SchedulerOptions, Server, Service};
use ff_workloads::{Scale, Workload};

use crate::common::{self, KeyStream};
use crate::jobpath::{self, SimRecord, Worker};
use crate::metrics::{layers_from_spans, pool_layers, Outcome, Tally};
use crate::refs::{CrcTable, RefSet};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::Args;

/// Set-up repetitions: each fills a store and starts a server over it.
const SETUP_REPS: usize = 3;
/// Simulation workers in the server.
const SIM_WORKERS: usize = 1;
/// Client A's schedule: one memo-hit GET every 5 ms (200/s), far below
/// the ~11k/s an idle server answers.
const GET_INTERVAL: Duration = Duration::from_millis(5);
/// Client B's status-poll interval.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// A submission not done by then is a failed operation.
const SUBMIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Client B's models: every in-order-family model (the out-of-order ones
/// are the slowest to simulate and run in `cold-paper`).
const SUBMIT_MODELS: [ModelKind; 5] = [
    ModelKind::InOrder,
    ModelKind::Runahead,
    ModelKind::Multipass,
    ModelKind::MpNoRegroup,
    ModelKind::MpNoRestart,
];
/// Client B's submissions — 180 distinct paper-scale seed-0 configs (the
/// models above on every hierarchy and benchmark), so 18 lie beyond p90
/// and the run is long enough to average over the host's slow phases —
/// in the order workload seed `seed` sets.
pub fn submissions(seed: u64) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for model in SUBMIT_MODELS {
        for hier in HierKind::ALL {
            for bench in Workload::NAMES {
                specs.push(JobSpec::sim(model, hier, bench, 0, Scale::Paper));
            }
        }
    }
    Rng::new(seed).shuffle(&mut specs);
    specs
}

/// What one drive of both clients measured.
#[derive(Default)]
struct Drive {
    get_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    submit_done_s: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    wall_s: f64,
    health: BTreeMap<String, f64>,
}

/// Everything the clients need to know about the pre-filled store.
struct Fixture {
    hashes: Vec<u64>,
    bodies: BTreeMap<u64, String>,
}

/// The `/healthz` counters the benchmark reports, by metric name.
fn health(url: &ServerUrl) -> Result<BTreeMap<String, f64>, String> {
    let (code, body) = http_request(url, "GET", "/healthz", None)?;
    if code != 200 {
        return Err(format!("GET /healthz: HTTP {code}"));
    }
    let doc = Json::parse(&body)?;
    let mut out = BTreeMap::new();
    for (metric, section, field) in [
        ("scheduler.hits", "counters", "hits"),
        ("scheduler.misses", "counters", "misses"),
        ("scheduler.inflight_dedup", "counters", "inflight_dedup"),
        ("http.requests", "transport", "requests"),
        ("http.shed", "transport", "shed"),
        ("http.5xx", "transport", "http_5xx"),
        ("store.sealed_reads", "store", "sealed_reads"),
    ] {
        let v = doc.get(section).and_then(|s| s.get(field)).and_then(Json::as_u64);
        out.insert(
            metric.to_string(),
            v.ok_or(format!("/healthz lacks {section}.{field}"))? as f64,
        );
    }
    Ok(out)
}

/// Client A: open-loop memo-hit GETs, each timed from when it was due.
fn reader(
    url: &ServerUrl,
    seed: u64,
    fx: &Fixture,
    writer_done: &AtomicBool,
    d: &mut Drive,
    tally: &mut Tally,
) {
    let start = Instant::now();
    let mut keys = KeyStream::new(seed, &fx.hashes);
    for i in 0u32.. {
        if writer_done.load(Ordering::SeqCst) {
            break;
        }
        let due = start + GET_INTERVAL * i;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        d.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let hash = keys.next().expect("the key stream is endless");
        let response = http_request(url, "GET", &format!("/jobs/{hash:016x}"), None);
        d.get_ms.push(due.elapsed().as_secs_f64() * 1e3);
        tally.check(match response {
            Ok((200, body)) if body == fx.bodies[&hash] => Ok(()),
            Ok((200, _)) => Err(format!("GET {hash:016x}: body differs from the store's bytes")),
            Ok((code, _)) => Err(format!("GET {hash:016x}: HTTP {code}")),
            Err(e) => Err(e),
        });
    }
}

/// Submits one single-config campaign, polls it to completion and
/// fetches its artifact; returns the queue wait (ms).
fn submit_one(url: &ServerUrl, spec: &JobSpec, table: &CrcTable) -> Result<f64, String> {
    let JobKind::Sim { model, hier, bench, seed } = &spec.kind else {
        return Err(format!("{}: not a simulation job", spec.id()));
    };
    let request = CampaignRequest {
        scale: spec.scale,
        filter: JobFilter {
            models: vec![*model],
            hiers: vec![*hier],
            benches: vec![bench.to_string()],
            seeds: vec![*seed],
        },
        reports: false,
    };
    let t0 = Instant::now();
    let (code, body) = http_request(url, "POST", "/campaigns", Some(&request.to_json().render()))?;
    if code != 201 {
        return Err(format!("POST /campaigns: HTTP {code}"));
    }
    let doc = Json::parse(&body)?;
    let id = doc.get("id").and_then(Json::as_str).ok_or("POST /campaigns: no id")?.to_string();
    let mut queue_wait = None;
    loop {
        if t0.elapsed() > SUBMIT_TIMEOUT {
            return Err(format!("{}: not done after {SUBMIT_TIMEOUT:?}", spec.id()));
        }
        std::thread::sleep(POLL_INTERVAL);
        let (code, body) = http_request(url, "GET", &format!("/campaigns/{id}"), None)?;
        if code != 200 {
            return Err(format!("GET /campaigns/{id}: HTTP {code}"));
        }
        let doc = Json::parse(&body)?;
        let status = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .and_then(|jobs| jobs.first())
            .and_then(|job| job.get("status"))
            .and_then(Json::as_str)
            .ok_or(format!("GET /campaigns/{id}: no job status"))?
            .to_string();
        if status != "queued" && queue_wait.is_none() {
            queue_wait = Some(t0.elapsed().as_secs_f64() * 1e3);
        }
        if matches!(doc.get("done"), Some(Json::Bool(true))) {
            if !matches!(status.as_str(), "ok" | "hit" | "dedup") {
                return Err(format!("{}: job {status}", spec.id()));
            }
            break;
        }
    }
    let hash = format!("{:016x}", spec.config_hash());
    let (code, body) = http_request(url, "GET", &format!("/jobs/{hash}"), None)?;
    if code != 200 {
        return Err(format!("GET /jobs/{hash}: HTTP {code}"));
    }
    table.verify(&hash, body.as_bytes())?;
    Ok(queue_wait.expect("a done campaign was seen past queued"))
}

/// Client B: the closed-loop submissions, each timed from `POST` to its
/// artifact fetched.
fn writer(url: &ServerUrl, specs: &[JobSpec], d: &mut Drive, tally: &mut Tally) {
    let table = RefSet::Paper.artifacts();
    let start = Instant::now();
    for spec in specs {
        let t0 = Instant::now();
        let result = submit_one(url, spec, &table);
        if let Ok(wait) = result {
            d.submit_done_s.push(t0.elapsed().as_secs_f64());
            d.queue_wait_ms.push(wait);
        }
        tally.check(result.map(drop));
    }
    d.wall_s = start.elapsed().as_secs_f64();
}

/// Sets its flag when dropped, so the reader stops even if the writer
/// panics.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Runs both clients against the server at `url` until the writer is
/// done: one run measures client B's whole submission list.
fn drive(url: &ServerUrl, args: &Args, fx: &Fixture, tally: &mut Tally) -> Result<Drive, String> {
    let before = health(url)?;
    let specs = submissions(args.seed);
    let writer_done = AtomicBool::new(false);
    let ((mut d, reads), (w, writes)) = std::thread::scope(|s| {
        let b = s.spawn(|| {
            let _done = SetOnDrop(&writer_done);
            let (mut d, mut t) = (Drive::default(), Tally::default());
            writer(url, &specs, &mut d, &mut t);
            (d, t)
        });
        let a = s.spawn(|| {
            let (mut d, mut t) = (Drive::default(), Tally::default());
            reader(url, args.seed, fx, &writer_done, &mut d, &mut t);
            (d, t)
        });
        (a.join().expect("reader thread panicked"), b.join().expect("writer thread panicked"))
    });
    tally.merge(reads);
    tally.merge(writes);
    let after = health(url)?;
    d.health = after.iter().map(|(k, v)| (k.clone(), v - before[k])).collect();
    d.submit_done_s = w.submit_done_s;
    d.queue_wait_ms = w.queue_wait_ms;
    d.wall_s = w.wall_s;
    Ok(d)
}

/// Fills the store with the test-scale plan and reads back every
/// artifact (checked against the pinned table) for the reader.
fn fill(store: &Path, tally: &mut Tally) -> std::io::Result<Fixture> {
    common::fill_store(RefSet::Test, store, tally)?;
    let plan = full_grid(Scale::Test);
    let opened = ShardedStore::open(store)?;
    let bodies = common::check_store(&opened, &plan, &RefSet::Test.artifacts(), tally);
    Ok(Fixture { hashes: common::plan_hashes(&plan), bodies })
}

fn sim_options() -> SchedulerOptions {
    SchedulerOptions { workers: SIM_WORKERS, ..SchedulerOptions::default() }
}

fn url_of(addr: std::net::SocketAddr) -> std::io::Result<ServerUrl> {
    ServerUrl::parse(&format!("http://{addr}")).map_err(std::io::Error::other)
}

/// A server assembled from its public parts with a traced executor: the
/// same HTTP front end and scheduler as `Server::start`, with each job
/// run through [`jobpath::compute`].
struct TracedServer {
    http: HttpServer,
    service: Arc<Service>,
}

impl TracedServer {
    fn start(
        store: &Path,
        tr: &Arc<Tracer>,
        sims: &Arc<Mutex<Vec<(JobSpec, SimRecord)>>>,
    ) -> std::io::Result<TracedServer> {
        let opened = ShardedStore::open(store)?;
        opened.fsck()?;
        let (tr, sims) = (Arc::clone(tr), Arc::clone(sims));
        let worker = Mutex::new(Worker::default());
        let executor = move |_: &mut JobContext, spec: &JobSpec, exec: &ExecOptions| {
            let mut w = worker.lock().expect("the traced executor never panics holding its lock");
            let id = spec.id();
            let done = tr
                .span(None, "job", Some(&id), |job| jobpath::compute(&tr, job, &mut w, spec, exec));
            Attempt::synthetic(match done {
                Ok((text, sim)) => {
                    if let Some(sim) = sim {
                        sims.lock()
                            .expect("no panics holding the sims lock")
                            .push((spec.clone(), sim));
                    }
                    Ok(text)
                }
                Err(e) => Err(JobError::other(e)),
            })
        };
        let scheduler = Scheduler::start_with_executor(opened, sim_options(), Box::new(executor));
        let service = Arc::new(Service::new(scheduler));
        let handler = Arc::clone(&service);
        let http = HttpServer::start_with(
            "127.0.0.1:0",
            HttpOptions::default(),
            Arc::clone(service.transport()),
            move |request| handler.handle(request),
        )?;
        Ok(TracedServer { http, service })
    }

    fn shutdown(self) {
        self.http.shutdown();
        self.service.scheduler().shutdown();
    }
}

/// Runs the workload.
pub fn run(args: &Args, root: &Path) -> std::io::Result<(Outcome, Arc<Tracer>)> {
    let mut o = Outcome::default();
    let store = root.join("store");
    let mut setup_tally = Tally::default();
    let (setup_s, (server, fx)) = common::timed_setup(
        SETUP_REPS,
        Duration::ZERO,
        || {
            let fx = fill(&store, &mut setup_tally)?;
            Ok((Server::start("127.0.0.1:0", &store, sim_options())?, fx))
        },
        |(server, _)| server.shutdown(),
    )?;
    o.setup_s = setup_s;
    o.tally.merge(setup_tally);

    let url = url_of(server.addr())?;
    let untraced = drive(&url, args, &fx, &mut o.tally);
    server.shutdown();
    let d = untraced.map_err(std::io::Error::other)?;
    o.campaign_s = d.wall_s;
    o.get_hit_ms = d.get_ms;
    o.submit_done_s = d.submit_done_s;

    let tr = Arc::new(Tracer::default());
    if args.trace {
        let fx = fill(&store, &mut o.tally)?;
        let sims = Arc::new(Mutex::new(Vec::new()));
        let server = TracedServer::start(&store, &tr, &sims)?;
        let traced = drive(&url_of(server.http.addr())?, args, &fx, &mut o.tally);
        server.shutdown();
        let t = traced.map_err(std::io::Error::other)?;
        let records = std::mem::take(&mut *sims.lock().expect("server stopped"));
        let exec = sim_options().exec;
        let counts = jobpath::sim_counts(&records, &exec, &mut Rng::new(args.seed), &mut o.tally);
        let spans = tr.spans();
        o.layers = layers_from_spans(&spans, &counts);
        o.layers.extend(pool_layers(&spans, SIM_WORKERS, t.wall_s));
        o.layers.extend(t.health);
        o.layers.insert("scheduler.queue_wait_ms".into(), stats::median(&t.queue_wait_ms));
        o.layers.insert("client.gen_lag_ms".into(), stats::percentile(&t.lag_ms, 990));
        o.layers.insert("trace.overhead_s".into(), t.wall_s - o.campaign_s);
    }
    Ok((o, tr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_submission_order() {
        let a = submissions(11);
        assert_eq!(a.len(), 180);
        assert_eq!(a, submissions(11));
        assert_ne!(a, submissions(12));
        let mut ids: Vec<String> = a.iter().map(JobSpec::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 180, "every submission misses the store");
    }
}
