//! The repository's benchmark: closed-loop distributed transactions driven
//! through the syscall surface of a simulated Locus cluster, reported on the
//! wall clock and the virtual (1985 cost model) clock, audited for
//! correctness after every run, and split by layer in a separate traced run.
//!
//! See `README.md` in this directory for the metrics and workloads.

pub mod audit;
pub mod gen;
pub mod record;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
