//! The repository benchmark: paper-shaped workloads driven through the
//! SurePath stack's public functions, timed end to end with tracing off,
//! and split layer by layer in a separate traced run. See `README.md`.

pub mod exec;
pub mod layers;
pub mod measure;
pub mod report;
pub mod spans;
pub mod workload;
