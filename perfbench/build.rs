//! Records the host context every report prints: the rustc version, the
//! build profile and, when the sources sit in a git checkout, its commit.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = stdout_of(Command::new(rustc).arg("--version"));
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest)
        .parent()
        .expect("the benchmark sits inside the repository");
    // The ceiling keeps git from looking above the repository root.
    let commit = stdout_of(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root)),
    );
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
    for git_file in ["../.git/HEAD", "../.git/logs/HEAD"] {
        if Path::new(&manifest).join(git_file).exists() {
            println!("cargo:rerun-if-changed={git_file}");
        }
    }
}

/// The trimmed standard output of a command that succeeded, else `unknown`.
fn stdout_of(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
