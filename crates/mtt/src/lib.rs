//! Multi-target tracking for the WiTrack reproduction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assignment;
pub mod config;
pub mod pipeline;
pub mod track;

pub use assignment::{
    solve_assignment, solve_assignment_greedy, Assignment, AssignmentSolver, CostMatrix,
    GatedAssignment,
};
pub use config::MttConfig;
pub use pipeline::{MttUpdate, MultiWiTrack, TrackSnapshot};
pub use track::{TrackId, TrackPhase};
