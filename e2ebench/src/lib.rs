//! The end-to-end session benchmark.
//!
//! Each workload runs a generated job the way a user runs one: build the
//! session, run it to budget into a session store, verify the ledger,
//! report, and resume with a larger budget. Every layer is measured from
//! outside the program, by timing calls into its public functions and by
//! wrapping its public traits (see the `probe` and `trace` modules).
//! `README.md` next to this crate maps each per-layer metric to the
//! end-to-end metric and workload it should move.

mod clock;
mod probe;
mod run;
pub mod stats;
mod trace;
mod workload;

pub use run::{run, Fault, Metric, RunConfig, RunReport};
pub use workload::{Workload, WORKLOADS};

/// Where runs keep their stores and span files: a directory inside this
/// package, ignored by git.
pub fn work_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}
