//! Shared fixtures for the Criterion benches.
//!
//! The benches cover every hot path of the middleware: the Fig. 3
//! allocator (E3), the fairness index (§4.2), the local scheduler (E8/§2),
//! Bloom summaries (§3.1), the DES kernel, resource-graph maintenance
//! (§3.4/§4.1), gossip digest construction (§4.4/E12) and whole
//! simulations per allocator (E4's inner loop).

#![warn(missing_docs)]

use arm_core::ProtocolConfig;
use arm_model::alloc::{AllocatorKind, ExplorationMode, FairnessAllocator};
use arm_model::{
    Codec, MediaFormat, PeerInfo, PeerView, QosSpec, Resolution, ResourceGraph, ServiceCost,
    StateId,
};
use arm_util::{DetRng, NodeId, ServiceId, SimDuration};

/// The fairness allocator with the RM's shipped search parameters
/// (`ProtocolConfig::default().alloc_params`, prefix cap included) and
/// only the exploration `mode` changed, so the benches measure the search
/// the RM runs.
pub fn rm_allocator(mode: ExplorationMode) -> FairnessAllocator {
    let mut params = ProtocolConfig::default().alloc_params;
    params.mode = mode;
    FairnessAllocator {
        params,
        kind: AllocatorKind::MaxFairness,
    }
}

/// A mid-size layered allocation problem: ~26 states, 16 peers.
pub fn medium_problem() -> (ResourceGraph, PeerView, StateId, StateId, QosSpec) {
    let (gr, view, init, goal) =
        arm_experiments::e03_alloc_scaling::layered_graph(7, 5, 4, 16, 0.7);
    let qos = QosSpec::with_deadline(SimDuration::from_secs(60));
    (gr, view, init, goal, qos)
}

/// A large layered allocation problem for stress benches.
pub fn large_problem() -> (ResourceGraph, PeerView, StateId, StateId, QosSpec) {
    let (gr, view, init, goal) =
        arm_experiments::e03_alloc_scaling::layered_graph(11, 7, 5, 32, 0.6);
    let qos = QosSpec::with_deadline(SimDuration::from_secs(60));
    (gr, view, init, goal, qos)
}

/// The tie-plateau shape that dominates the `sim-alloc` benchmark: an
/// idle `peers`-peer domain where every peer offers `transcoders`
/// transcoders drawn by the workload generator over the default five-rung
/// ladder, so each ladder step has many parallel edges on distinct peers
/// and thousands of complete paths share a bit-identical fairness. The
/// request runs from the top rung to the fourth, whose whole plateau the
/// exhaustive search enumerates within the RM's prefix cap (a request to
/// the bottom rung exceeds it).
pub fn plateau_problem(
    peers: usize,
    transcoders: usize,
    seed: u64,
) -> (ResourceGraph, PeerView, StateId, StateId, QosSpec) {
    let cfg = arm_workload::WorkloadConfig {
        transcoders_per_peer: transcoders,
        ..arm_workload::WorkloadConfig::default()
    };
    let ids: Vec<NodeId> = (0..peers as u64).map(NodeId::new).collect();
    let inventories = arm_workload::generate_inventories(&ids, &cfg, &DetRng::new(seed));
    let mut gr = ResourceGraph::new();
    for f in &cfg.formats {
        gr.intern_state(*f);
    }
    let mut view = PeerView::new();
    for (peer, inventory) in &inventories {
        for s in &inventory.services {
            gr.add_service(s.input, s.output, *peer, s.id, s.cost);
        }
        view.upsert(*peer, PeerInfo::idle(100.0, 10_000));
    }
    let rung = |i: usize| {
        cfg.formats
            .get(i)
            .and_then(|f| gr.state_of(*f))
            .expect("ladder rung interned")
    };
    let (init, goal) = (rung(0), rung(3));
    let qos = QosSpec::with_deadline(SimDuration::from_secs(8));
    (gr, view, init, goal, qos)
}

/// A domain-scale allocation problem for the branch-and-bound benches: a
/// fully-connected 6-layer conversion graph whose interior width is
/// `branching`, with every logical conversion offered by two different
/// peers (parallel service edges — the regime where duplicate prefixes
/// arise and dominance collapse pays off), over a `peers`-sized domain
/// with uneven load.
///
/// Deterministic in `seed`; interior width `branching` keeps the state
/// count ≤ `4 * branching + 2`, so the u128 visited bitmap (and with it
/// dominance pruning) is always active.
pub fn domain_problem(
    peers: usize,
    branching: usize,
    seed: u64,
) -> (ResourceGraph, PeerView, StateId, StateId, QosSpec) {
    const LAYERS: usize = 6;
    const COPIES: u64 = 2;
    let mut rng = DetRng::new(seed);
    let mut gr = ResourceGraph::new();
    let mut fmt_id = 0u32;
    let mut fresh = |gr: &mut ResourceGraph| {
        fmt_id += 1;
        gr.intern_state(MediaFormat::new(
            Codec::ALL[fmt_id as usize % Codec::ALL.len()],
            Resolution::new(100 + fmt_id as u16, 100),
            fmt_id,
        ))
    };
    let mut layer_states: Vec<Vec<StateId>> = Vec::new();
    for li in 0..LAYERS {
        let w = if li == 0 || li == LAYERS - 1 {
            1
        } else {
            branching
        };
        layer_states.push((0..w).map(|_| fresh(&mut gr)).collect());
    }
    let mut svc = 0u64;
    for li in 0..LAYERS - 1 {
        for &a in &layer_states[li] {
            for &b in &layer_states[li + 1] {
                for _ in 0..COPIES {
                    svc += 1;
                    gr.add_edge(
                        a,
                        b,
                        NodeId::new(rng.below(peers as u64)),
                        ServiceId::new(svc),
                        ServiceCost {
                            work_per_sec: rng.uniform(1.0, 6.0),
                            setup_work: rng.uniform(0.2, 1.0),
                            bandwidth_kbps: 64,
                        },
                    );
                }
            }
        }
    }
    let mut view = PeerView::new();
    for p in 0..peers as u64 {
        let mut info = PeerInfo::idle(100.0, 1_000_000);
        info.load = rng.uniform(0.0, 30.0);
        view.upsert(NodeId::new(p), info);
    }
    let qos = QosSpec::with_deadline(SimDuration::from_secs(60));
    (
        gr,
        view,
        layer_states[0][0],
        layer_states[LAYERS - 1][0],
        qos,
    )
}
