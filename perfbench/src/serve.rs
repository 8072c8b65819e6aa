//! `serve`: an in-process `sdbp-serve` daemon under a closed loop of two
//! clients.
//!
//! Front door: `Server::start` on loopback with `available_parallelism`
//! executors and the paper geometry; two `Client` connections from this
//! process each submit 32 small jobs back to back (a closed loop: each
//! caller blocks on its reply). Jobs alternate between archive refs and
//! inline v2 uploads and between `lru` and `sampler`; half stream
//! window results. Every `JobOutcome` and window stream must equal an
//! in-process replay of the same trace and policy computed before the
//! measurement.

use crate::layers::{self, Counts};
use crate::spans::{self, Scope, Tracer};
use crate::{Checks, Config, Metric, Outcome, TracedRep};
use sdbp_cache::recorder::record_for_core;
use sdbp_cache::replay::{replay_with_probe, WindowMisses};
use sdbp_cache::{Cache, CacheConfig};
use sdbp_cpu::CoreModel;
use sdbp_serve::{
    Client, JobOutcome, JobRequest, Server, ServerConfig, SubmitReply, TraceSubmission,
};
use sdbp_traceio::{BufferedTrace, FORMAT_V2};
use sdbp_workloads::benchmark;
use std::path::Path;
use std::time::Instant;

/// The traces jobs draw from (one archive each).
const TRACES: [&str; 4] = ["456.hmmer", "429.mcf", "482.sphinx3", "462.libquantum"];
/// Instructions per trace at full scale.
const INSTRUCTIONS: u64 = 1_000_000;
/// Instructions per trace at tiny scale.
const TINY_INSTRUCTIONS: u64 = 20_000;
/// Accesses per streamed window at full / tiny scale.
const WINDOW: u32 = 8192;
const TINY_WINDOW: u32 = 512;
/// Concurrent client connections.
const CLIENTS: usize = 2;
/// Jobs each client submits per session: every combination of trace,
/// policy, inline-or-archive and windowed-or-not once.
const JOBS_PER_CLIENT: usize = 32;
/// Fewest jobs a run completes, so at least ten lie beyond p95.
const MIN_JOBS: usize = 200;
/// Policies jobs alternate between.
const POLICIES: [&str; 2] = ["lru", "sampler"];

/// One job of a client session.
#[derive(Clone, Copy, Debug)]
struct Plan {
    trace: usize,
    policy: usize,
    inline: bool,
    window: bool,
}

/// Job `k` of client `c`: the clients walk the same 32 combinations,
/// half a session apart.
fn plan(c: usize, k: usize) -> Plan {
    let j = (k + c * JOBS_PER_CLIENT / CLIENTS) % JOBS_PER_CLIENT;
    Plan {
        policy: j % 2,
        inline: (j / 2) % 2 == 1,
        window: (j / 4) % 2 == 1,
        trace: (j / 8) % TRACES.len(),
    }
}

/// The in-process answer for one (trace, policy).
struct Expected {
    outcome: JobOutcome,
    windows: Vec<u64>,
}

/// Set-up output: the running daemon and the inline upload images.
struct Inputs {
    server: Server,
    uploads: Vec<Vec<u8>>,
}

/// One completed submission.
struct Sample {
    latency: f64,
    job: u64,
}

/// What one client session produced.
#[derive(Default)]
struct Session {
    samples: Vec<Sample>,
    checks: Checks,
    busy: u64,
    frames: u64,
    uploaded: u64,
    connects: Vec<f64>,
}

/// Runs one client session: connect, 32 jobs, goodbye.
fn session(
    addr: &str,
    c: usize,
    uploads: &mut [Vec<u8>],
    expected: &[Vec<Expected>],
    window: u32,
    at: Option<Scope<'_>>,
) -> Session {
    let mut s = Session::default();
    let started = Instant::now();
    let connected = spans::maybe(at, "serve.connect", || Client::connect(addr));
    s.connects.push(started.elapsed().as_secs_f64());
    let mut client = match connected {
        Ok(client) => client,
        Err(e) => {
            s.checks
                .check(false, || format!("client {c}: connect: {e}"));
            return s;
        }
    };
    for k in 0..JOBS_PER_CLIENT {
        let p = plan(c, k);
        let trace = if p.inline {
            s.uploaded += uploads[p.trace].len() as u64;
            TraceSubmission::Bytes(std::mem::take(&mut uploads[p.trace]))
        } else {
            TraceSubmission::Archive(format!("{}.sdbt", TRACES[p.trace]))
        };
        let mut request = JobRequest::new(POLICIES[p.policy], trace);
        request.window = if p.window { window } else { 0 };
        let mut frames = Vec::new();
        let started = Instant::now();
        let reply = spans::maybe(at, "serve.submit", || {
            client.submit(&request, |i, m| frames.push((i, m)))
        });
        let latency = started.elapsed().as_secs_f64();
        if let TraceSubmission::Bytes(bytes) = request.trace {
            uploads[p.trace] = bytes;
        }
        s.frames += frames.len() as u64;
        let want = &expected[p.trace][p.policy];
        match reply {
            Ok(SubmitReply::Done(got)) => {
                let job = got.job;
                let same = JobOutcome {
                    job: 0,
                    ..got.clone()
                } == JobOutcome {
                    job: 0,
                    windows: if p.window { want.outcome.windows } else { 0 },
                    ..want.outcome.clone()
                };
                s.checks.check(same, || {
                    format!("job {job} ({p:?}): {got:?} != {:?}", want.outcome)
                });
                let streamed: Vec<u64> = frames.iter().map(|f| f.1).collect();
                let indices_ok = frames.iter().enumerate().all(|(i, f)| f.0 == i as u64);
                let windows_ok = indices_ok
                    && if p.window {
                        streamed == want.windows
                    } else {
                        streamed.is_empty()
                    };
                s.checks.check(windows_ok, || {
                    format!("job {job} ({p:?}): window stream differs")
                });
                s.samples.push(Sample { latency, job });
            }
            Ok(SubmitReply::Busy { queue_depth }) => {
                s.busy += 1;
                s.checks.check(false, || {
                    format!("client {c}: Busy (queue depth {queue_depth})")
                });
            }
            Err(e) => {
                s.checks
                    .check(false, || format!("client {c} job {k} ({p:?}): {e}"));
                // The connection state is unknown after a wire error;
                // the rest of the session counts as failed.
                for _ in k + 1..JOBS_PER_CLIENT {
                    s.checks
                        .check(false, || format!("client {c}: session aborted"));
                }
                return s;
            }
        }
    }
    if let Err(e) = client.goodbye() {
        s.checks
            .check(false, || format!("client {c}: goodbye: {e}"));
    }
    s
}

/// The client side of the loop: where to connect, what to expect, and
/// each client's own copy of the upload images.
struct Clients {
    addr: String,
    expected: Vec<Vec<Expected>>,
    window: u32,
    uploads: Vec<Vec<Vec<u8>>>,
}

/// One batch: [`CLIENTS`] concurrent sessions. Returns its wall time
/// and the sessions.
fn batch(clients: &mut Clients, at: Option<Scope<'_>>) -> (f64, Vec<Session>) {
    let Clients {
        addr,
        expected,
        window,
        uploads,
    } = clients;
    let (addr, expected, window) = (addr.as_str(), expected.as_slice(), *window);
    let started = Instant::now();
    let sessions = std::thread::scope(|scope| {
        let handles: Vec<_> = uploads
            .iter_mut()
            .enumerate()
            .map(|(c, uploads)| {
                scope.spawn(move || {
                    session(
                        addr,
                        c,
                        uploads,
                        expected,
                        window,
                        at.map(|a| a.job(c as u64)),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (started.elapsed().as_secs_f64(), sessions)
}

/// The in-process reference for every (trace, policy): a recording
/// straight from the generator, replayed with a window probe.
fn reference(
    seed: u64,
    budget: u64,
    window: u32,
    llc: CacheConfig,
) -> Result<Vec<Vec<Expected>>, String> {
    let registry = sdbp::registry::standard();
    TRACES
        .iter()
        .map(|name| {
            let bench = benchmark(name).ok_or_else(|| format!("{name} missing from the suite"))?;
            let w = record_for_core(bench.name, bench.trace_seeded(seed), budget, 0);
            POLICIES
                .iter()
                .map(|policy| {
                    let built = registry
                        .build_str(policy, llc, 1)
                        .map_err(|e| e.to_string())?;
                    let mut probe = WindowMisses::new(window as usize);
                    let r =
                        replay_with_probe(&w.llc, &mut Cache::with_policy(llc, built), &mut probe);
                    let ipc = CoreModel::default().simulate(&w.records, &r.hits).ipc();
                    Ok(Expected {
                        outcome: JobOutcome {
                            job: 0,
                            workload: w.name.clone(),
                            instructions: w.instructions(),
                            accesses: w.llc.len() as u64,
                            hits: r.stats.hits,
                            misses: r.stats.misses,
                            windows: probe.counts().len() as u64,
                            ipc,
                        },
                        windows: probe.counts().to_vec(),
                    })
                })
                .collect()
        })
        .collect()
}

/// The server's pipeline for one batch of jobs, called layer by layer
/// in this process (the daemon's internals cannot be spanned from
/// outside): load, record, replay, timing per job.
fn replica(
    at: Scope<'_>,
    dir: &Path,
    uploads: &[Vec<u8>],
    window: u32,
    llc: CacheConfig,
    counts: &mut Counts,
) -> Result<(), String> {
    for c in 0..CLIENTS {
        for k in 0..JOBS_PER_CLIENT {
            let p = plan(c, k);
            let at = at.job((c * JOBS_PER_CLIENT + k) as u64);
            let archived;
            let bytes: &[u8] = if p.inline {
                &uploads[p.trace]
            } else {
                let path = dir.join(format!("{}.sdbt", TRACES[p.trace]));
                archived = at
                    .span("traceio.load", |_| std::fs::read(&path))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                &archived
            };
            let trace = at
                .span("traceio.load", |_| BufferedTrace::from_slice(bytes))
                .map_err(|e| e.to_string())?;
            let meta = trace.meta().clone();
            let w = layers::record(at, &meta.name, &mut trace.batches(), meta.count)?;
            let spec: sdbp::registry::PolicySpec = POLICIES[p.policy]
                .parse()
                .map_err(|e: sdbp::SpecError| e.to_string())?;
            let mut probe = WindowMisses::new(window.max(1) as usize);
            let r = layers::replay_spec(at, &spec, &w, llc, p.window.then_some(&mut probe as _))?;
            layers::timing(at, &w, &r.hits);
            counts.recorded += w.instructions();
            counts.llc_accesses += w.llc.len() as u64;
            counts.timed += w.instructions();
            *counts.replay.entry(spec.name).or_default() += &r.stats;
        }
    }
    Ok(())
}

/// Folds client sessions into one, moving their checks into `out`.
fn merge(out: &mut Outcome, sessions: Vec<Session>) -> Session {
    let mut all = Session::default();
    for s in sessions {
        all.samples.extend(s.samples);
        all.busy += s.busy;
        all.frames += s.frames;
        all.uploaded += s.uploaded;
        all.connects.extend(s.connects);
        out.checks.attempted += s.checks.attempted;
        out.checks.failed += s.checks.failed;
        out.checks.failures.extend(s.checks.failures);
    }
    all
}

/// One traced batch: client spans, the server's engine telemetry for
/// its jobs, then the batch's pipeline replicated layer by layer.
fn traced(
    cfg: &Config,
    out: &mut Outcome,
    tracer: &Tracer,
    setup: &crate::Setup<(Inputs, Counts)>,
    clients: &mut Clients,
    front: f64,
) -> Result<TracedRep, String> {
    let (inputs, setup_counts) = &setup.value;
    let engine_mark = inputs.server.engine().telemetry().batches.len();
    let ((_, sessions), root, rep_spans) =
        tracer.root("harness.serve", |at| batch(clients, Some(at)));
    let covered = spans::covered_secs(&rep_spans, root.id);
    let all = merge(out, sessions);

    // Server-side exec and queue time per job, matched by job id in the
    // engine label `serve/s{session}-j{job}/{policy}`.
    let telemetry = inputs.server.engine().telemetry();
    let jobs = &telemetry.batches[engine_mark.min(telemetry.batches.len())..];
    let (mut exec, mut queued, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for b in jobs {
        let id = b.label.split("-j").nth(1).and_then(|r| r.split('/').next());
        let id = id.and_then(|j| j.parse::<u64>().ok());
        let Some(sample) = all.samples.iter().find(|s| Some(s.job) == id) else {
            continue;
        };
        let ran: f64 = b.per_job.iter().map(|j| j.ran_for.as_secs_f64()).sum();
        let waited: f64 = b.per_job.iter().map(|j| j.queued_for.as_secs_f64()).sum();
        exec.push(ran * 1e3);
        queued.push(waited * 1e3);
        overhead.push((sample.latency - ran) * 1e3);
    }
    let busy_s: f64 = jobs.iter().map(|b| b.busy.as_secs_f64()).sum();
    let queue_s: f64 = queued.iter().sum::<f64>() / 1e3;
    let failed: usize = jobs.iter().map(|b| b.failed).sum();

    let mut counts = setup_counts.clone();
    let llc = CacheConfig::llc_2mb();
    let (result, _, replica_spans) = tracer.root("harness.serve.replica", |at| {
        replica(
            at,
            &setup.dir,
            &inputs.uploads,
            clients.window,
            llc,
            &mut counts,
        )
    });
    result?;
    let mut all_spans = setup.spans.clone();
    all_spans.extend(replica_spans);
    let mut metrics = layers::layer_metrics(&all_spans, &counts);
    let latencies: Vec<f64> = all.samples.iter().map(|s| s.latency * 1e3).collect();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    };
    put("serve.connect_ms", crate::median(&all.connects) * 1e3, "ms");
    put("serve.upload_mb", all.uploaded as f64 / 1e6, "MB");
    put("serve.latency_ms", crate::median(&latencies), "ms");
    put("serve.exec_ms", crate::median(&exec), "ms");
    put("serve.queue_wait_ms", crate::median(&queued), "ms");
    put("serve.overhead_ms", crate::median(&overhead), "ms");
    put("serve.busy_replies", all.busy as f64, "count");
    put("serve.window_frames", all.frames as f64, "count");
    put("engine.busy_s", busy_s, "s");
    put("engine.queue_wait_s", queue_s, "s");
    let utilization = busy_s / (root.secs() * cfg.workers as f64);
    put("engine.utilization", utilization, "ratio");
    put("engine.jobs_failed", failed as f64, "count");
    Ok(TracedRep {
        front,
        root,
        covered,
        metrics,
    })
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up, the reference replay or a replica layer call fails.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let budget = if cfg.tiny {
        TINY_INSTRUCTIONS
    } else {
        INSTRUCTIONS
    };
    let window = if cfg.tiny { TINY_WINDOW } else { WINDOW };
    let llc = CacheConfig::llc_2mb();
    let mut out = Outcome {
        budget: format!("{budget} instructions per job, {} v2 traces, {CLIENTS}x{JOBS_PER_CLIENT} jobs per batch", TRACES.len()),
        ..Outcome::default()
    };
    let tracer = Tracer::default();
    let setup = crate::setup(cfg, &tracer, |dir, at| {
        let mut counts = Counts::default();
        let mut uploads = Vec::with_capacity(TRACES.len());
        for (i, name) in TRACES.iter().enumerate() {
            let bench = benchmark(name).ok_or_else(|| format!("{name} missing from the suite"))?;
            let path = dir.join(format!("{name}.sdbt"));
            counts.archive_bytes +=
                layers::archive(at.job(i as u64), &bench, cfg.seed, budget, FORMAT_V2, &path)?;
            counts.archived += budget;
            uploads.push(std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?);
        }
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: cfg.workers,
            trace_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        Ok((Inputs { server, uploads }, counts))
    })?;
    let inputs = &setup.value.0;
    let mut clients = Clients {
        addr: inputs.server.local_addr().to_string(),
        expected: reference(cfg.seed, budget, window, llc)?,
        window,
        uploads: vec![inputs.uploads.clone(); CLIENTS],
    };
    let min_batches = MIN_JOBS.div_ceil(CLIENTS * JOBS_PER_CLIENT);

    if !cfg.traced {
        let batches = crate::repeat(cfg.seconds, min_batches, || Ok(batch(&mut clients, None)))?;
        let walls: Vec<f64> = batches.iter().map(|b| b.0).collect();
        let sessions = batches.into_iter().flat_map(|b| b.1).collect();
        let samples = merge(&mut out, sessions).samples;
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency * 1e3).collect();
        out.put("wall_s", crate::median(&walls), "s");
        out.put("setup_s", crate::median(&setup.secs), "s");
        out.samples.push(("wall_s".to_owned(), walls.clone()));
        out.samples.push(("setup_s".to_owned(), setup.secs.clone()));
        out.put("wall_samples", walls.len() as f64, "count");
        out.put(
            "jobs_per_s",
            samples.len() as f64 / walls.iter().sum::<f64>(),
            "1/s",
        );
        out.put("job_p50_ms", crate::percentile(&latencies, 50.0), "ms");
        out.put("job_p95_ms", crate::percentile(&latencies, 95.0), "ms");
        out.put("job_samples", latencies.len() as f64, "count");
        return Ok(out);
    }

    crate::traced_run(cfg, &mut out, |out| {
        let (front, sessions) = batch(&mut clients, None);
        merge(out, sessions);
        traced(cfg, out, &tracer, &setup, &mut clients, front)
    })?;
    out.tracer = Some(tracer);
    Ok(out)
}
