//! `perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! With `--trace 0` a run repeats the workload untraced for `--seconds` and
//! reports the end-to-end metrics; with `--trace 1` it makes the traced run
//! and reports the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--workload all` runs every workload both ways, one child process each.

use perfbench::layers::traced_run;
use perfbench::measure::measure;
use perfbench::workload::{Scale, Workload};
use std::path::Path;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: perfbench --workload <fig06_rate|fig10_batch|large_view|dist_fold|all> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let root = Path::new(".bench_work");
    let work = root.join(format!(
        "{}-{}-{}",
        workload.name(),
        args.seed,
        std::process::id()
    ));
    let spec = workload.spec(args.seed, Scale::Full);
    let result = if args.trace {
        let spans = root.join("spans");
        std::fs::create_dir_all(&spans).and_then(|()| {
            let path = spans.join(format!("{}-seed{}.jsonl", workload.name(), args.seed));
            traced_run(workload, &spec, args.seed, &work, &path)
        })
    } else {
        measure(workload, &spec, args.seed, args.seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(out) => {
            println!(
                "perfbench {} seed={} seconds={} trace={}",
                workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            println!(
                "host: available_parallelism={} rustc=\"{}\" commit={} profile={} threads={}",
                std::thread::available_parallelism().map_or(0, |n| n.get()),
                env!("PERFBENCH_RUSTC"),
                env!("PERFBENCH_COMMIT"),
                env!("PERFBENCH_PROFILE"),
                workload.threads()
            );
            print!("{}", out.text());
            println!("{}", out.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Every workload untraced, then traced, each in a child process of its
/// own so that peak memory is per workload.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate its own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
