//! End-to-end benchmark of the SNOW lab.
//!
//! Three workloads ([`workloads::Workload`]) run through the library's
//! public entry points.  An untraced run reports the end-to-end metrics; a
//! traced run rebuilds the same program from public parts wrapped in timing
//! shims ([`trace`]) and reports per-layer metrics.  Every execution passes
//! correctness gates, and the traced history must equal the untraced one.
//! See `NOTES.md` beside this crate for the workloads and metrics.

pub mod alloc;
pub mod calib;
pub mod procfs;
pub mod runner;
pub mod trace;
pub mod workloads;
