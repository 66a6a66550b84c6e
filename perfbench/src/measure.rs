//! The untraced run: the end-to-end metrics of one workload.

use crate::exec::{run_campaign_once, setup_probe, CampaignRun};
use crate::report::{median, quantile, Outcome};
use crate::workload::Workload;
use std::path::Path;
use std::time::{Duration, Instant};
use surepath_core::CampaignSpec;

/// Fewest iterations of the workload per run, so that the median passes
/// over one cold or disturbed iteration.
const MIN_ITERATIONS: usize = 3;

/// Set-up repetitions before each iteration: at least this many, and at
/// least [`SETUP_SHARE`] of the previous iteration's wall time. `large_view`
/// sets up once per iteration instead, since one set-up there takes seconds.
const SETUP_REPS: usize = 5;
/// Share of an iteration's wall time spent repeating the set-up before the
/// next one, so that set-up samples see the same host as the iterations.
const SETUP_SHARE: f64 = 0.1;

/// Store digests of the commit that introduced the benchmark, by workload
/// and seed: a later report shows whether a change moved result bytes.
const SEED_DIGESTS: &str = include_str!("../digests.json");

/// The untraced run: the workload repeated until `seconds` have passed and
/// at least [`MIN_ITERATIONS`] times, set-up repetitions before each
/// iteration, reporting medians.
pub fn measure(
    workload: Workload,
    spec: &CampaignSpec,
    seed: u64,
    seconds: u64,
    work: &Path,
) -> std::io::Result<Outcome> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut setup_s = Vec::new();
    let mut stepping = Vec::new();
    let local = match workload {
        Workload::DistFold => {
            std::fs::create_dir_all(work)?;
            let path = work.join("local.jsonl");
            surepath_core::run_campaign(spec, &path, Some(workload.threads()), true)?;
            Some(std::fs::read(path)?)
        }
        _ => None,
    };
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut runs: Vec<CampaignRun> = Vec::new();
    while runs.len() < MIN_ITERATIONS || Instant::now() < deadline {
        let step = workload == Workload::LargeView;
        let (reps, budget) = match (step, runs.last()) {
            (true, _) => (1, 0.0),
            (false, last) => (SETUP_REPS, last.map_or(0.0, |r| r.wall_s * SETUP_SHARE)),
        };
        let started = Instant::now();
        for rep in 0.. {
            if rep >= reps && started.elapsed().as_secs_f64() >= budget {
                break;
            }
            let (setup, chunk_rates) = setup_probe(spec, step)?;
            setup_s.push(setup);
            stepping.extend(chunk_rates);
        }
        let dir = work.join(format!("run{}", runs.len()));
        runs.push(run_campaign_once(workload, spec, &dir, None)?);
    }

    let first = &runs[0];
    for (i, run) in runs.iter().enumerate() {
        out.attempted += run.attempted;
        out.failures.extend(run.failures.iter().cloned());
        if run.digest != first.digest {
            out.correct = false;
            out.failures.push(format!(
                "iteration {i}: store digest {} differs from iteration 0's {}",
                run.digest, first.digest
            ));
        }
    }
    if let Some(local) = local {
        out.check(
            std::fs::read(&first.store)? == local,
            "fold store byte-matches the same grid run locally".to_string(),
        );
    }
    let recorded = serde_json::from_str::<serde::Value>(SEED_DIGESTS)
        .ok()
        .and_then(|v| {
            v[workload.name()][seed.to_string().as_str()]
                .as_str()
                .map(str::to_string)
        });
    out.notes.push(format!(
        "store digest {} over {} iteration(s), seed-commit digest: {}",
        first.digest,
        runs.len(),
        match recorded {
            Some(d) if d == first.digest => "match".to_string(),
            Some(d) => format!("DIFFERS (was {d})"),
            None => "not recorded for this seed".to_string(),
        }
    ));
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    out.notes.push(format!("iteration wall_s: {walls:?}"));
    out.notes.push(format!(
        "setup_s: {} samples, quartiles {:.6} {:.6} {:.6}",
        setup_s.len(),
        quantile(&setup_s, 0.25),
        median(&setup_s),
        quantile(&setup_s, 0.75)
    ));

    out.push("wall_s", "s", median(&walls));
    out.push("setup_s", "s", median(&setup_s));
    let cycles_per_s = match workload {
        Workload::LargeView => median(&stepping),
        _ => median(
            &runs
                .iter()
                .map(|r| r.cycles as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        ),
    };
    out.push("sim_cycles_per_s", "cycles/s", cycles_per_s);
    out.push("peak_rss_mb", "MB", peak_rss_mb());
    Ok(out)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
