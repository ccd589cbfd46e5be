//! Application model for the adaptive P2P resource-management middleware.
//!
//! This crate contains the vocabulary of the paper's information base (§3)
//! and its allocation machinery (§4.3):
//!
//! * [`media`] — codecs, resolutions, formats and media objects: the
//!   motivating transcoding application's data model (§1, §3.1 item 5).
//! * [`qos`] — per-task QoS requirements: `Deadline_t`, `Importance_t`,
//!   bandwidth floors (§3.3).
//! * [`task`] — application tasks: a request to bring an object from an
//!   initial application state to a required output state.
//! * [`service`] — services a peer can offer (§3.1 item 6), with their
//!   processing-work and bandwidth cost model.
//! * [`peerview`] — the Resource Manager's view of per-peer capacity,
//!   load `l_i` and bandwidth `bw_i` (§3.1 items 3–4).
//! * [`resource_graph`] — the domain resource graph `G_r`: vertices are
//!   application states, edges are service instances hosted on peers
//!   (§3.4, Fig. 1A).
//! * [`service_graph`] — per-task service graphs `G_s` produced by
//!   allocation (§3.3, Fig. 1B).
//! * [`alloc`] — the task-allocation algorithm of Fig. 3 (BFS + QoS
//!   pruning + fairness-index argmax) and the baseline allocators used in
//!   the evaluation.
//!
//! Everything is plain data + pure functions: no I/O, no clocks, no
//! randomness (allocator baselines that need randomness take an explicit
//! RNG). The sans-I/O state machines in `arm-core` and both runtimes build
//! on these types.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Narrows an arena length to the `u32` index space used by `StateId`,
/// `EdgeId` and the allocator search arenas. Arenas stay far below
/// `u32::MAX` entries; the clamp makes overflow impossible instead of
/// silently wrapping, and debug builds assert it never engages.
pub(crate) fn idx_u32(n: usize) -> u32 {
    debug_assert!(u32::try_from(n).is_ok(), "arena exceeds u32 index space");
    n.min(u32::MAX as usize) as u32
}

pub mod alloc;
pub mod media;
pub mod peerview;
pub mod qos;
pub mod resource_graph;
pub mod service;
pub mod service_graph;
pub mod task;

pub use alloc::{
    allocate, AllocError, AllocParams, AllocStats, Allocation, AllocatorKind, ExplorationMode,
    FairnessAllocator,
};
pub use media::{Codec, MediaFormat, MediaObject, Resolution};
pub use peerview::{PeerInfo, PeerView};
pub use qos::QosSpec;
pub use resource_graph::{EdgeId, ResourceEdge, ResourceGraph, StateId};
pub use service::{ServiceCost, ServiceSpec};
pub use service_graph::{HopStatus, ServiceGraph, ServiceHop};
pub use task::{Importance, TaskSpec};
