//! The saps workspace's benchmark, measured from outside: six workloads,
//! nine end-to-end metrics and a per-layer round budget. `README.md` in this
//! directory is the manual; `adapter` is the only module that calls into
//! the repository.

pub mod adapter;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
