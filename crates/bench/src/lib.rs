//! Experiment harness shared by the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` reproduces one figure or table of the paper
//! (see DESIGN.md §4 for the index). This library holds what they share:
//! the end-to-end tracking experiment runner (simulator → WiTrack →
//! per-axis errors against the VICON-style ground truth), a thread-pool
//! sweep over independent experiments, tiny CLI parsing, and figure-style
//! printing helpers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod host;
pub mod printing;
pub mod runner;

pub use args::HarnessArgs;
pub use runner::{run_parallel, run_tracking, TrackingResult, TrackingSpec};
