//! The benchmark's own tests: tiny-size runs of every workload emit exactly
//! the metrics `BENCHMARK.json` declares, failures are counted, and traced
//! spans nest with non-negative self times.

use perfbench::exec::account;
use perfbench::layers::traced_run;
use perfbench::measure::measure;
use perfbench::report::{valid_name, valid_unit, Outcome};
use perfbench::spans::{check_nesting, self_times, Tracer};
use perfbench::workload::{Scale, Workload};
use serde::Value;
use std::path::PathBuf;
use surepath_core::{JobSpec, ResultStore};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    json[list]
        .as_array()
        .unwrap()
        .iter()
        .map(|m| {
            let field = |key: &str| m[key].as_str().unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn assert_well_formed(out: &Outcome, workload: Workload) {
    for m in &out.metrics {
        assert!(
            valid_name(&m.name),
            "{}: bad name {}",
            workload.name(),
            m.name
        );
        assert!(
            valid_unit(m.unit),
            "{}: bad unit {}",
            workload.name(),
            m.unit
        );
        assert!(
            m.value.is_finite(),
            "{}: {} is not finite",
            workload.name(),
            m.name
        );
    }
    assert!(out.correct, "{}:\n{}", workload.name(), out.text());
    assert!(out.attempted > 0);
    let line: Value = serde_json::from_str(&out.json_line()).expect("the result line is JSON");
    assert_eq!(line["attempted"].as_u64(), Some(out.attempted as u64));
}

#[test]
fn tiny_runs_emit_every_declared_metric() {
    for workload in Workload::ALL {
        let spec = workload.spec(7, Scale::Tiny);
        let dir = scratch(workload.name());

        let untraced = measure(workload, &spec, 7, 0, &dir.join("e2e")).unwrap();
        assert_well_formed(&untraced, workload);
        assert_eq!(
            emitted(&untraced),
            declared("end_to_end"),
            "{}",
            workload.name()
        );
        for m in &untraced.metrics {
            assert!(m.value > 0.0, "{}: {} reads 0", workload.name(), m.name);
        }

        let spans = dir.join("spans.jsonl");
        let traced = traced_run(workload, &spec, 7, &dir.join("layers"), &spans).unwrap();
        assert_well_formed(&traced, workload);
        assert_eq!(
            emitted(&traced),
            declared("per_layer"),
            "{}",
            workload.name()
        );
        assert!(std::fs::metadata(&spans).unwrap().len() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn inputs_follow_the_seed() {
    for workload in Workload::ALL {
        let a = workload.spec(3, Scale::Full);
        assert_eq!(a, workload.spec(3, Scale::Full));
        assert_ne!(
            a.expand().unwrap(),
            workload.spec(4, Scale::Full).expand().unwrap()
        );
    }
}

#[test]
fn stalled_short_and_failed_jobs_are_counted() {
    let dir = scratch("accounting");
    let path = dir.join("store.jsonl");
    let job = |seed: u64, kind: &str| JobSpec {
        campaign: "accounting".into(),
        kind: kind.into(),
        sides: vec![4, 4],
        concentration: Some(4),
        mechanism: Some("polsp".into()),
        load: (kind == "rate").then_some(0.3),
        packets_per_server: (kind == "batch").then_some(10),
        warmup: Some(10),
        measure: Some(20),
        seed,
        ..JobSpec::default()
    };
    let result = |text: &str| serde_json::from_str::<Value>(text).unwrap();
    let jobs = vec![
        job(1, "rate"),
        job(2, "rate"),
        job(3, "batch"),
        job(4, "batch"),
        job(5, "rate"),
    ];
    {
        let mut store = ResultStore::open(&path).unwrap();
        store
            .append_ok(
                &jobs[0],
                result(r#"{"stalled": false, "delivered_packets": 5}"#),
            )
            .unwrap();
        store
            .append_ok(
                &jobs[1],
                result(r#"{"stalled": true, "delivered_packets": 5}"#),
            )
            .unwrap();
        // 16 switches x 4 servers x 10 packets = 640 expected.
        store
            .append_ok(
                &jobs[2],
                result(r#"{"stalled": false, "delivered_packets": 639, "completion_time": 90}"#),
            )
            .unwrap();
        store
            .append_ok(
                &jobs[3],
                result(r#"{"stalled": false, "delivered_packets": 640, "completion_time": 80}"#),
            )
            .unwrap();
        store
            .append_failed(&jobs[4], "panic: boom".to_string())
            .unwrap();
    }
    let (failures, cycles) = account(&path, &jobs).unwrap();
    assert_eq!(failures.len(), 3, "{failures:?}");
    assert!(failures[0].contains("stalled"), "{}", failures[0]);
    assert!(
        failures[1].contains("short delivery: 639 of 640"),
        "{}",
        failures[1]
    );
    assert!(failures[2].contains("panic: boom"), "{}", failures[2]);
    // Two good rate windows of 30 cycles plus two batch runs.
    assert_eq!(cycles, 30 + 30 + 90 + 80);

    let out = Outcome {
        attempted: jobs.len(),
        failures,
        ..Outcome::default()
    };
    assert!((out.failed_frac() - 0.6).abs() < 1e-12);
    assert!(out.json_line().contains("\"failed\": 3"));

    // A job with no stored result at all is a failure too.
    let mut more = jobs.clone();
    more.push(job(6, "rate"));
    assert_eq!(account(&path, &more).unwrap().0.len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spans_nest_and_self_times_are_non_negative() {
    let tracer = Tracer::default();
    tracer.span("root", None, None, |root| {
        std::thread::scope(|s| {
            for t in 0..2 {
                let tracer = &tracer;
                s.spawn(move || {
                    tracer.span("child", Some(root), Some(&format!("job{t}")), |child| {
                        tracer.span("leaf", Some(child), None, |_| {
                            std::hint::black_box((0..20_000u64).sum::<u64>())
                        })
                    })
                });
            }
        });
    });
    let spans = tracer.spans();
    assert_eq!(spans.len(), 5);
    check_nesting(&spans).unwrap();
    let own = self_times(&spans);
    for span in &spans {
        assert!(own[&span.id] >= 0.0);
        assert!(own[&span.id] <= span.secs() + 1e-12);
    }
    // The two children overlap in time: the root's self time subtracts
    // their union, not their sum.
    let root = spans.iter().find(|s| s.name == "root").unwrap();
    let children: Vec<_> = spans.iter().filter(|s| s.name == "child").collect();
    let union_start = children.iter().map(|s| s.start_ns).min().unwrap();
    let union_end = children.iter().map(|s| s.end_ns).max().unwrap();
    let disjoint =
        children[0].end_ns <= children[1].start_ns || children[1].end_ns <= children[0].start_ns;
    if !disjoint {
        let expected = root.secs() - (union_end - union_start) as f64 / 1e9;
        assert!((own[&root.id] - expected).abs() < 1e-9);
    }

    // A child that escapes its parent is caught.
    let mut broken = spans.clone();
    let leaf = broken.iter_mut().find(|s| s.name == "leaf").unwrap();
    leaf.end_ns = root.end_ns + 1;
    assert!(check_nesting(&broken).is_err());
}

#[test]
fn metric_names_and_units_are_validated() {
    assert!(valid_name("core.job_s.p50"));
    assert!(valid_name("9lives"));
    assert!(!valid_name("_hidden"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(valid_unit("cycles/s"));
    assert!(!valid_unit(""));
    assert!(!valid_unit("per second"));
}
