//! The traced run: the per-layer split of one workload.
//!
//! The run first repeats the workload untraced twice, a warm-up and the
//! reference for the tracing overhead, then runs it traced (see [`crate::exec`]). It then
//! drives each lower layer itself, through that layer's public functions,
//! with a span around every call:
//!
//! * the store: reopen the traced store (the resume path), append its
//!   records to a fresh store and finalize it;
//! * on the fold, the same grid run locally on as many threads;
//! * the probe: every job again, one layer at a time — view build, distance
//!   matrix, Up/Down escape, mechanism build, simulator construction and
//!   the simulation itself, whose engine counters it sums;
//! * a seeded sample of routing calls per mechanism.

use crate::exec::{run_campaign_once, CampaignRun};
use crate::report::{median, quantile, ratio, Outcome};
use crate::spans::{self, durations, total, Span, Tracer};
use crate::workload::{mix, Workload};
use hyperx_routing::{NetworkView, RouteScratch, RoutingMechanism};
use hyperx_sim::Counter;
use hyperx_topology::{DistanceMatrix, UpDownEscape};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use surepath_core::{job_experiment, CampaignSpec, JobSpec, ResultStore};
use surepath_runner::job_fingerprint;

/// Packet states in the routing sample, per mechanism.
const ROUTING_SAMPLE: usize = 4096;
/// Timed passes over the routing sample.
const ROUTING_PASSES: usize = 16;

/// Runs the traced run of `workload` in `dir`, writes its spans to
/// `spans_path` and returns the per-layer metrics.
pub fn traced_run(
    workload: Workload,
    spec: &CampaignSpec,
    seed: u64,
    dir: &Path,
    spans_path: &Path,
) -> std::io::Result<Outcome> {
    // A warm-up run first, so that the reference and the traced run both
    // start warm.
    run_campaign_once(workload, spec, &dir.join("warmup"), None)?;
    let reference = run_campaign_once(workload, spec, &dir.join("reference"), None)?;
    let tracer = Tracer::default();
    let traced = run_campaign_once(workload, spec, &dir.join("traced"), Some(&tracer))?;
    let mut out = Outcome {
        correct: true,
        attempted: traced.attempted,
        failures: traced.failures.clone(),
        ..Outcome::default()
    };
    out.check(
        traced.digest == reference.digest,
        format!(
            "traced store digest {} vs untraced {}",
            traced.digest, reference.digest
        ),
    );
    replay_store(&tracer, &traced, &dir.join("replay.jsonl"), &mut out)?;
    if workload == Workload::DistFold {
        let local = dir.join("local.jsonl");
        tracer.span("dist.local_reference", None, None, |_| {
            surepath_core::run_campaign(spec, &local, Some(workload.threads()), true)
        })?;
        out.check(
            std::fs::read(&local)? == std::fs::read(&traced.store)?,
            "fold store byte-matches the same grid run locally".to_string(),
        );
    }
    let probe = probe(&tracer, &traced.jobs, seed).map_err(std::io::Error::other)?;

    let spans = tracer.spans();
    out.check(
        spans::check_nesting(&spans).is_ok(),
        "traced spans nest inside their parents".to_string(),
    );
    spans::write_jsonl(&spans, spans_path)?;
    out.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        spans_path.display()
    ));
    out.notes.push(format!(
        "untraced wall {:.6} s, traced wall {:.6} s",
        reference.wall_s, traced.wall_s
    ));
    out.notes.push(format!(
        "{:<28} {:>6} {:>12} {:>12}",
        "self time by span", "spans", "total s", "self s"
    ));
    for (name, (count, secs, own)) in spans::layer_summary(&spans) {
        out.notes
            .push(format!("  {name:<26} {count:>6} {secs:>12.6} {own:>12.6}"));
    }

    push_layer_metrics(&mut out, workload, &spans, &traced, &probe);
    out.push("trace.overhead_s", "s", traced.wall_s - reference.wall_s);
    Ok(out)
}

/// The store layer on the traced run's own records: reopen the store (the
/// resume path), append every record to a fresh store, finalize it, and
/// check the finalized bytes match.
fn replay_store(
    tracer: &Tracer,
    traced: &CampaignRun,
    fresh: &Path,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let matches = tracer.span("runner.store_replay", None, None, |root| {
        let stored = tracer.span("runner.store_open", Some(root), None, |_| {
            ResultStore::open(&traced.store)
        })?;
        let mut store = ResultStore::open(fresh)?;
        for record in stored.records_in_order() {
            tracer.span(
                "runner.store_append",
                Some(root),
                Some(&record.fp),
                |_| match &record.result {
                    Some(result) if record.status == "ok" => {
                        store.append_ok(&record.job, result.clone())
                    }
                    _ => store.append_failed(&record.job, record.error.clone().unwrap_or_default()),
                },
            )?;
        }
        tracer.span("runner.store_finalize", Some(root), None, |_| {
            store.finalize(&traced.jobs)
        })?;
        Ok::<_, std::io::Error>(std::fs::read(fresh)? == std::fs::read(&traced.store)?)
    })?;
    out.check(
        matches,
        "replayed store byte-matches the traced store".to_string(),
    );
    Ok(())
}

/// What the layer probe measured beyond its spans.
#[derive(Default)]
struct Probe {
    /// Cycles stepped, over every job.
    cycles: u64,
    /// Cycles of the engine counters' windows (rate jobs count from the end
    /// of warmup).
    counted_cycles: u64,
    /// Packets delivered, over every job.
    delivered: u64,
    /// Engine counters summed over every job, by slot.
    counters: [u64; Counter::COUNT],
    /// Mean ns per `candidates_into` call, per mechanism.
    candidates_ns: Vec<f64>,
}

/// Runs every job again one layer at a time, each view built once (as the
/// view cache would), and samples each mechanism's routing calls on the
/// first view it runs on.
fn probe(tracer: &Tracer, jobs: &[JobSpec], seed: u64) -> Result<Probe, String> {
    tracer.span("probe", None, None, |root| {
        let mut probe = Probe::default();
        let mut views: BTreeMap<String, Arc<NetworkView>> = BTreeMap::new();
        let mut sampled = BTreeSet::new();
        for job in jobs {
            let fp = job_fingerprint(job);
            let at = (Some(root), Some(fp.as_str()));
            let experiment = job_experiment(job)?;
            let key = format!("{:?}|{:?}|{:?}", job.sides, job.scenario, job.root);
            let view = match views.get(&key) {
                Some(view) => view.clone(),
                None => {
                    let view = tracer.span("topology.view_build", at.0, at.1, |_| {
                        experiment.build_view()
                    });
                    tracer.span("topology.distance_matrix", at.0, at.1, |_| {
                        black_box(DistanceMatrix::compute(view.network()))
                    });
                    if view.is_connected() {
                        tracer.span("topology.updown", at.0, at.1, |_| {
                            black_box(UpDownEscape::new(view.network(), view.escape_root()))
                        });
                    }
                    views.insert(key, view.clone());
                    view
                }
            };
            let mechanism = tracer.span("routing.mechanism_build", at.0, at.1, |_| {
                experiment.mechanism.build(view.clone(), experiment.num_vcs)
            });
            if sampled.insert(mechanism.name()) {
                let ns = tracer.span("routing.candidates", at.0, at.1, |_| {
                    candidates_ns(mechanism.as_ref(), &view, mix(seed, 3))
                });
                probe.candidates_ns.push(ns);
            }
            let mut sim = tracer.span("sim.construct", at.0, at.1, |_| {
                experiment.build_simulator_with_view(view.clone())
            });
            let warmup = match (job.kind.as_str(), job.load, job.packets_per_server) {
                ("rate", Some(load), _) => {
                    tracer.span("sim.run", at.0, at.1, |_| black_box(sim.run_rate(load)));
                    experiment.sim.warmup_cycles
                }
                ("batch", _, Some(packets)) => {
                    let window = job
                        .sample_window
                        .unwrap_or(surepath_core::DEFAULT_SAMPLE_WINDOW);
                    tracer.span("sim.run", at.0, at.1, |_| {
                        black_box(sim.run_batch(packets, window))
                    });
                    0
                }
                _ => return Err(format!("job `{}` has no rate or batch run", job.label())),
            };
            probe.cycles += sim.cycle();
            probe.counted_cycles += sim.cycle().saturating_sub(warmup);
            probe.delivered += sim.total_delivered();
            for (slot, counter) in Counter::ALL.iter().enumerate() {
                probe.counters[slot] += sim.obs().get(*counter);
            }
        }
        Ok(probe)
    })
}

/// Mean ns per `candidates_into` call over a seeded sample of packet
/// states: random source/destination pairs, each walked along random
/// candidates, every state on the walk kept.
fn candidates_ns(mechanism: &dyn RoutingMechanism, view: &NetworkView, seed: u64) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let switches = view.hyperx().num_switches() as u64;
    let mut scratch = RouteScratch::default();
    let mut out = Vec::new();
    let mut states = Vec::with_capacity(ROUTING_SAMPLE);
    while states.len() < ROUTING_SAMPLE {
        let source = (rng.next_u64() % switches) as usize;
        let dest = (rng.next_u64() % switches) as usize;
        if source == dest {
            continue;
        }
        let mut state = mechanism.init_packet(source, dest, &mut rng);
        let mut current = source;
        // Walks end at the destination, at a dead end, or after a bound well
        // past any route the mechanisms take.
        for _ in 0..4 * view.dims() + 8 {
            states.push((state, current));
            out.clear();
            mechanism.candidates_into(&state, current, &mut scratch, &mut out);
            if out.is_empty() {
                break;
            }
            let candidate = out[(rng.next_u64() % out.len() as u64) as usize];
            let Some(next) = view.network().neighbor(current, candidate.port) else {
                break;
            };
            mechanism.note_hop(&mut state, current, next.switch, &candidate);
            current = next.switch;
            if current == dest {
                break;
            }
        }
    }
    let started = Instant::now();
    for _ in 0..ROUTING_PASSES {
        for (state, current) in &states {
            out.clear();
            mechanism.candidates_into(black_box(state), *current, &mut scratch, &mut out);
            black_box(&out);
        }
    }
    started.elapsed().as_nanos() as f64 / (ROUTING_PASSES * states.len()) as f64
}

/// Every per-layer metric, for every workload: a layer the workload does
/// not exercise reads 0.
fn push_layer_metrics(
    out: &mut Outcome,
    workload: Workload,
    spans: &[Span],
    traced: &CampaignRun,
    probe: &Probe,
) {
    let counter = |c: Counter| probe.counters[c as usize] as f64;
    out.push(
        "topology.view_build_s",
        "s",
        total(spans, "topology.view_build"),
    );
    out.push(
        "topology.distance_matrix_s",
        "s",
        total(spans, "topology.distance_matrix"),
    );
    out.push("topology.updown_s", "s", total(spans, "topology.updown"));
    out.push(
        "routing.mechanism_build_s",
        "s",
        total(spans, "routing.mechanism_build"),
    );
    let candidates = &probe.candidates_ns;
    out.push(
        "routing.candidates_ns",
        "ns",
        ratio(candidates.iter().sum(), candidates.len() as f64),
    );
    let run_s = total(spans, "sim.run");
    out.push("sim.construct_s", "s", total(spans, "sim.construct"));
    out.push("sim.run_s", "s", run_s);
    out.push(
        "sim.ns_per_cycle",
        "ns",
        ratio(run_s * 1e9, probe.cycles as f64),
    );
    out.push(
        "sim.ns_per_delivered_packet",
        "ns",
        ratio(run_s * 1e9, probe.delivered as f64),
    );
    let requests = counter(Counter::AllocRequests);
    let grants = counter(Counter::AllocGrants);
    let hits = counter(Counter::CandCacheHits);
    let cycles = probe.counted_cycles as f64;
    out.push("sim.alloc_requests", "count", requests);
    out.push("sim.alloc_grant_ratio", "ratio", ratio(grants, requests));
    out.push(
        "sim.alloc_conflicts",
        "count",
        counter(Counter::AllocConflicts),
    );
    out.push(
        "sim.cand_cache_hit_ratio",
        "ratio",
        ratio(hits, hits + counter(Counter::CandCacheMisses)),
    );
    out.push(
        "sim.escape_grant_frac",
        "ratio",
        ratio(counter(Counter::EscapeGrants), grants),
    );
    out.push(
        "sim.alloc_switch_visits_per_cycle",
        "count",
        ratio(counter(Counter::AllocSwitchVisits), cycles),
    );
    out.push(
        "sim.xmit_switch_visits_per_cycle",
        "count",
        ratio(counter(Counter::XmitSwitchVisits), cycles),
    );
    out.push(
        "sim.binomial_draws",
        "count",
        counter(Counter::BinomialDraws),
    );
    out.push(
        "sim.blocked_cycles",
        "cycles",
        counter(Counter::BlockedCycles),
    );

    let jobs_s = durations(spans, "core.job");
    out.push("core.job_s.p50", "s", median(&jobs_s));
    out.push("core.job_s.p95", "s", quantile(&jobs_s, 0.95));
    out.push("core.job_s.samples", "count", jobs_s.len() as f64);
    let jobs = traced.jobs.len() as f64;
    out.push(
        "core.view_cache_hit_ratio",
        "ratio",
        ratio(jobs - traced.views_built as f64, jobs),
    );

    out.push("runner.expand_s", "s", total(spans, "runner.expand"));
    let appends = durations(spans, "runner.store_append");
    out.push(
        "runner.store_append_us",
        "us",
        ratio(appends.iter().sum::<f64>() * 1e6, appends.len() as f64),
    );
    out.push(
        "runner.store_finalize_s",
        "s",
        total(spans, "runner.store_finalize"),
    );
    out.push(
        "runner.store_open_s",
        "s",
        total(spans, "runner.store_open"),
    );
    let executor = if workload == Workload::DistFold {
        "dist.fold"
    } else {
        "runner.campaign"
    };
    out.push(
        "runner.pool_busy_frac",
        "ratio",
        ratio(
            jobs_s.iter().sum(),
            workload.threads() as f64 * total(spans, executor),
        ),
    );

    let fold = traced.fold.as_ref();
    let per_worker = fold.map(|f| f.jobs_per_worker.as_slice()).unwrap_or(&[]);
    out.push(
        "dist.wall_overhead_s",
        "s",
        match fold {
            Some(_) => total(spans, "dist.fold") - total(spans, "dist.local_reference"),
            None => 0.0,
        },
    );
    out.push(
        "dist.reoffered",
        "count",
        fold.map_or(0, |f| f.reoffered) as f64,
    );
    out.push(
        "dist.reconnects",
        "count",
        fold.map_or(0, |f| f.reconnects) as f64,
    );
    out.push(
        "dist.jobs_per_worker_min",
        "count",
        per_worker.iter().copied().min().unwrap_or(0) as f64,
    );
    out.push(
        "dist.jobs_per_worker_max",
        "count",
        per_worker.iter().copied().max().unwrap_or(0) as f64,
    );
}
