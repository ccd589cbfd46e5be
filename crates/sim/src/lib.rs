//! Simulation harness: whole overlays of middleware state machines under
//! deterministic discrete-event simulation.
//!
//! This is the substrate substituting for the paper's wide-area testbed
//! (DESIGN.md §2, substitution 2). A [`Simulation`] wires together:
//!
//! * the topology and latency models of `arm-net` (geographic clusters →
//!   "topological proximity" domains),
//! * per-peer [`PeerNode`](arm_core::PeerNode) state machines from
//!   `arm-core`,
//! * synthetic inventories and request traces from `arm-workload`,
//! * optional churn traces (join/leave/crash),
//!
//! and runs them to a horizon, producing a [`SimReport`] with task
//! outcomes, latency distributions, fairness-over-time samples, message
//! accounting and adaptation telemetry. Everything is deterministic given
//! [`ScenarioConfig::seed`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod harness;
mod parallel;
mod report;
mod scenario;
pub(crate) mod sync;

pub use harness::Simulation;
pub use parallel::run_parallel;
pub use report::{OutcomeCounts, SimReport};
pub use scenario::ScenarioConfig;
