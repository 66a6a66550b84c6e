//! Runs a workload's campaign once, through the program's own entry points,
//! and checks what it stored.
//!
//! Untraced runs call `surepath_core::run_campaign` (local workloads) or
//! `surepath_dist::serve` with in-process `run_worker`s (the fold) exactly
//! as a user would. Traced runs make the same calls one layer down, so that
//! the benchmark can put a span around each: `validate_campaign` and
//! `expand`, the runner's executor, and `run_job_tuned` per job.

use crate::spans::Tracer;
use crate::workload::{job_cycles, job_servers, Workload};
use serde::Value;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Instant;
use surepath_core::{
    job_experiment, run_job_tuned, validate_campaign, CampaignSpec, JobSpec, ResultStore,
    RunTuning, ViewCache,
};
use surepath_dist::{run_worker, serve, ServeOptions, WorkerOptions};
use surepath_runner::fingerprint::fnv1a64;
use surepath_runner::job_fingerprint;

/// What one run of a workload's campaign did.
#[derive(Debug)]
pub struct CampaignRun {
    /// Host seconds from the first call to the finalized store.
    pub wall_s: f64,
    /// The finalized store.
    pub store: PathBuf,
    /// FNV-1a 64 of the store's bytes, as hex.
    pub digest: String,
    /// The expanded grid.
    pub jobs: Vec<JobSpec>,
    /// Jobs, plus worker sessions on the fold.
    pub attempted: usize,
    /// One line per failed job or worker.
    pub failures: Vec<String>,
    /// Simulated cycles over every stored result.
    pub cycles: u64,
    /// Views the run's view caches built.
    pub views_built: usize,
    /// What the coordinator and workers reported, on the fold.
    pub fold: Option<FoldStats>,
}

/// Coordinator and worker counts of one distributed fold.
#[derive(Debug, Default)]
pub struct FoldStats {
    /// Jobs re-offered after a lost worker or an expired lease.
    pub reoffered: usize,
    /// Worker reconnects the coordinator served.
    pub reconnects: usize,
    /// Jobs each worker that drained cleanly executed.
    pub jobs_per_worker: Vec<usize>,
    /// One line per worker that exited with an error or panicked.
    pub worker_errors: Vec<String>,
}

/// Runs `spec` once for `workload` into `dir`, traced when `tracer` is
/// given (spans under a root called `workload`).
pub fn run_campaign_once(
    workload: Workload,
    spec: &CampaignSpec,
    dir: &Path,
    tracer: Option<&Tracer>,
) -> std::io::Result<CampaignRun> {
    std::fs::create_dir_all(dir)?;
    let store = dir.join("store.jsonl");
    let threads = workload.threads();
    let started = Instant::now();
    let (jobs, views_built, fold) = match tracer {
        None if workload == Workload::DistFold => {
            let jobs = spec.expand().map_err(invalid)?;
            let (fold, views) = fold(spec, &jobs, &store, threads, None)?;
            (jobs, views, Some(fold))
        }
        None => {
            surepath_core::run_campaign(spec, &store, Some(threads), true)?;
            (spec.expand().map_err(invalid)?, 0, None)
        }
        Some(t) => t.span("workload", None, None, |root| {
            let jobs = t.span("runner.expand", Some(root), None, |_| {
                validate_campaign(spec).and_then(|()| spec.expand())
            });
            let jobs = jobs.map_err(invalid)?;
            if workload == Workload::DistFold {
                let (fold, views) = t.span("dist.fold", Some(root), None, |id| {
                    fold(spec, &jobs, &store, threads, Some((t, id)))
                })?;
                Ok::<_, std::io::Error>((jobs, views, Some(fold)))
            } else {
                let views = ViewCache::new();
                let tuning = tuning(spec, &views);
                t.span("runner.campaign", Some(root), None, |id| {
                    surepath_runner::run_campaign(
                        spec,
                        &store,
                        Some(threads),
                        true,
                        job_fn(&tuning, Some((t, id))),
                    )
                })?;
                Ok((jobs, views.len(), None))
            }
        })?,
    };
    let wall_s = started.elapsed().as_secs_f64();
    let bytes = std::fs::read(&store)?;
    let (mut failures, cycles) = account(&store, &jobs)?;
    let mut attempted = jobs.len();
    if let Some(fold) = &fold {
        attempted += workload.threads();
        failures.extend(fold.worker_errors.iter().cloned());
    }
    Ok(CampaignRun {
        wall_s,
        store,
        digest: format!("{:016x}", fnv1a64(&bytes)),
        jobs,
        attempted,
        failures,
        cycles,
        views_built,
        fold,
    })
}

/// Chunks of simulated cycles timed by the stepping probe.
const STEP_CHUNKS: usize = 8;
/// Simulated cycles per timed chunk.
const CHUNK_CYCLES: u64 = 50;

/// Times the workload's set-up, everything before the first simulated
/// cycle: validate and expand the campaign, then build the first job's view
/// and simulator. With `step`, also runs that (rate) job, then steps on at
/// its load and returns the simulated cycles per host second of each of
/// [`STEP_CHUNKS`] chunks.
pub fn setup_probe(spec: &CampaignSpec, step: bool) -> std::io::Result<(f64, Vec<f64>)> {
    let started = Instant::now();
    validate_campaign(spec).map_err(invalid)?;
    let jobs = spec.expand().map_err(invalid)?;
    let job = jobs
        .first()
        .ok_or_else(|| invalid("the campaign has no jobs".to_string()))?;
    let experiment = job_experiment(job).map_err(invalid)?;
    let mut sim = experiment.build_simulator_with_view(experiment.build_view());
    let setup_s = started.elapsed().as_secs_f64();
    let mut rates = Vec::new();
    if step {
        let load = job
            .load
            .ok_or_else(|| invalid("the stepping probe runs a rate job".to_string()))?;
        black_box(sim.run_rate(load));
        for _ in 0..STEP_CHUNKS {
            let started = Instant::now();
            for _ in 0..CHUNK_CYCLES {
                sim.step();
            }
            rates.push(CHUNK_CYCLES as f64 / started.elapsed().as_secs_f64());
        }
    }
    Ok((setup_s, rates))
}

/// Execution tuning the program's own `run_campaign` uses: the spec's
/// partition count over one shared view cache.
fn tuning<'a>(spec: &CampaignSpec, views: &'a ViewCache) -> RunTuning<'a> {
    RunTuning {
        partitions: spec.partitions.unwrap_or(1),
        views: Some(views),
    }
}

/// The per-job closure: `run_job_tuned`, inside a `core.job` span when
/// traced.
fn job_fn<'a>(
    tuning: &'a RunTuning<'a>,
    trace: Option<(&'a Tracer, u64)>,
) -> impl Fn(&JobSpec) -> Result<Value, String> + Sync + 'a {
    move |job| match trace {
        None => run_job_tuned(job, tuning),
        Some((t, parent)) => t.span(
            "core.job",
            Some(parent),
            Some(&job_fingerprint(job)),
            |_| run_job_tuned(job, tuning),
        ),
    }
}

/// Folds `jobs` through an in-process coordinator on loopback and
/// `threads` one-thread workers, each with its own view cache (as the
/// command-line worker has). Returns the fold's counts and the views built.
fn fold(
    spec: &CampaignSpec,
    jobs: &[JobSpec],
    store: &Path,
    threads: usize,
    trace: Option<(&Tracer, u64)>,
) -> std::io::Result<(FoldStats, usize)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let opts = ServeOptions {
        quiet: true,
        ..ServeOptions::default()
    };
    std::thread::scope(|s| {
        let coordinator = s.spawn(|| serve(listener, &spec.name, jobs, store, &opts));
        let workers: Vec<_> = (0..threads)
            .map(|i| {
                let addr = addr.as_str();
                s.spawn(move || {
                    let views = ViewCache::new();
                    let tuning = tuning(spec, &views);
                    let work = |parent: Option<(&Tracer, u64)>| {
                        let opts = WorkerOptions {
                            threads: Some(1),
                            ..WorkerOptions::default()
                        };
                        run_worker(addr, &format!("bench-{i}"), &opts, job_fn(&tuning, parent))
                    };
                    let outcome = match trace {
                        None => work(None),
                        Some((t, fold)) => {
                            t.span("dist.worker", Some(fold), None, |id| work(Some((t, id))))
                        }
                    };
                    (outcome, views.len())
                })
            })
            .collect();
        let served = coordinator
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("coordinator thread panicked")))?;
        let mut stats = FoldStats {
            reoffered: served.reoffered,
            reconnects: served.reconnects,
            ..FoldStats::default()
        };
        let mut views_built = 0;
        for (i, worker) in workers.into_iter().enumerate() {
            match worker.join() {
                Ok((Ok(outcome), views)) => {
                    stats.jobs_per_worker.push(outcome.executed);
                    views_built += views;
                }
                Ok((Err(e), _)) => stats.worker_errors.push(format!("worker bench-{i}: {e}")),
                Err(_) => stats
                    .worker_errors
                    .push(format!("worker bench-{i}: panicked")),
            }
        }
        Ok((stats, views_built))
    })
}

/// Reads a finalized store back and lists every failed job: an error or a
/// panic, a missing result, a result flagged `stalled`, or a batch job that
/// delivered fewer than `packets_per_server × servers` packets. Also returns
/// the simulated cycles of all stored results.
pub fn account(store: &Path, jobs: &[JobSpec]) -> std::io::Result<(Vec<String>, u64)> {
    let store = ResultStore::open_read_only(store)?;
    let mut failures = Vec::new();
    let mut cycles = 0;
    for job in jobs {
        let label = format!("job `{}` (fp {})", job.label(), job_fingerprint(job));
        let Some(record) = store.record(&job_fingerprint(job)) else {
            failures.push(format!("{label}: no result stored"));
            continue;
        };
        let result = match (&record.result, record.status.as_str()) {
            (Some(result), "ok") => result,
            _ => {
                let error = record.error.as_deref().unwrap_or("no error message");
                failures.push(format!("{label}: {error}"));
                continue;
            }
        };
        cycles += job_cycles(job, result);
        let mut problems = Vec::new();
        if result["stalled"].as_bool() == Some(true) {
            problems.push("stalled (the watchdog fired)".to_string());
        }
        if let Some(packets) = job.packets_per_server {
            let expected = packets * job_servers(job);
            let delivered = result["delivered_packets"].as_u64().unwrap_or(0);
            if delivered < expected {
                problems.push(format!(
                    "short delivery: {delivered} of {expected} packets by cycle {}, {} stranded",
                    job_cycles(job, result),
                    expected - delivered
                ));
            }
        }
        if !problems.is_empty() {
            failures.push(format!("{label}: {}", problems.join("; ")));
        }
    }
    Ok((failures, cycles))
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, message)
}
