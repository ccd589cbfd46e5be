//! The task-allocation algorithm (paper §4.3, Fig. 3) and baselines.
//!
//! The Resource Manager "uses the Breadth-First-Search (BFS) algorithm to
//! search for services (edges) connecting the initial and final requested
//! application states, prunes the possible solutions using the requested
//! QoS requirements `q` … among the allocations that satisfy the QoS
//! requirements, the algorithm returns the one that results to the maximum
//! fairness of the load distribution among the peers."
//!
//! This module implements that algorithm as a pure function over the
//! resource graph and the RM's peer view, plus:
//!
//! * an [`ExplorationMode`] knob: [`ExplorationMode::AllSimplePaths`]
//!   (default) enumerates every cycle-free path with QoS pruning, which is
//!   what maximising fairness *requires*; [`ExplorationMode::GlobalVisited`]
//!   is the literal reading of the Fig. 3 pseudocode, where a global
//!   visited set lets only the first BFS path reach each vertex — it
//!   under-explores and is kept as an ablation (experiment E3 compares
//!   them);
//! * the baseline allocators used in the evaluation
//!   ([`AllocatorKind::FirstFeasible`], [`AllocatorKind::Random`],
//!   [`AllocatorKind::LeastLoaded`], [`AllocatorKind::MinWork`]).
//!
//! # QoS feasibility of a path
//!
//! A candidate path `e_1 … e_k` is feasible for requirement set `q` iff
//!
//! 1. `k ≤ q.max_hops` (if bounded);
//! 2. for every peer `p` on the path, `p`'s available bandwidth covers the
//!    accumulated bandwidth cost of the path's hops on `p`, and — if
//!    `q.min_bandwidth_kbps` is set — also that floor;
//! 3. for every peer `p`, `p`'s available processing capacity covers the
//!    accumulated sustained work of the path's hops on `p` (the session
//!    must be sustainable);
//! 4. the estimated response time — per-hop setup computation at the
//!    peer's *currently available* speed plus a per-hop communication
//!    latency — fits within `q.deadline` ("it calculates which paths
//!    satisfy the deadline by utilizing the current load information").

use crate::peerview::{PeerInfo, PeerView};
use crate::qos::QosSpec;
use crate::resource_graph::{EdgeId, ResourceGraph, StateId};
use arm_util::{fairness_upper_bound, DetRng, FairnessTracker, NodeId, SimDuration};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};

/// How the path space is explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExplorationMode {
    /// Enumerate all simple (cycle-free) paths, pruning by QoS. Required
    /// for a true fairness argmax. Default.
    #[default]
    AllSimplePaths,
    /// Literal Fig. 3 pseudocode: a global visited set — each vertex is
    /// expanded at most once, so only the first BFS path to the goal is
    /// scored. Cheaper, but under-explores. Kept as an ablation.
    GlobalVisited,
    /// Greedy best-first: the frontier is ordered by the fairness of the
    /// path prefix, so high-fairness completions surface early. With the
    /// same `max_explored` cap this is the right mode for *dense* graphs
    /// (e.g. 64-peer domains, see experiment E14), where full enumeration
    /// truncates before finding good paths. Explores the same simple-path
    /// space as [`ExplorationMode::AllSimplePaths`]; only the order (and
    /// hence what a truncated search sees) differs.
    BestFirst,
    /// Branch-and-bound: the frontier is ordered by an *admissible*
    /// fairness upper bound (the best Jain index any completion of the
    /// prefix could reach, via [`arm_util::fairness_upper_bound`]), and
    /// prefixes whose bound cannot beat the incumbent candidate — or from
    /// which no goal is reachable within the remaining hop budget — are
    /// pruned. Duplicate prefixes with identical load effect at the same
    /// `(vertex, visited-set)` are collapsed (dominance). Answer-identical
    /// to [`ExplorationMode::AllSimplePaths`] for
    /// [`AllocatorKind::MaxFairness`] (same chosen path, fairness and
    /// estimate, bit for bit — see the property tests); other objectives
    /// need the full candidate set and silently fall back to exhaustive
    /// enumeration.
    BranchAndBound,
}

/// Which objective picks among feasible paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AllocatorKind {
    /// The paper's algorithm: maximise Jain's fairness index of the
    /// post-allocation load distribution.
    #[default]
    MaxFairness,
    /// First feasible path in BFS order (shortest-ish, load-agnostic).
    FirstFeasible,
    /// Uniformly random feasible path (needs an RNG).
    Random,
    /// Minimise the resulting maximum peer utilization (classic
    /// least-loaded / min-makespan greedy).
    LeastLoaded,
    /// Minimise total sustained work of the path (efficiency-greedy,
    /// ignores balance).
    MinWork,
}

/// Tuning parameters of the search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocParams {
    /// Estimated one-hop communication latency used in deadline pruning.
    pub hop_latency: SimDuration,
    /// Cap on the number of paths dequeued before the search gives up
    /// enumerating (guards against exponential blowup on dense graphs).
    /// The result is flagged `truncated` when the cap is hit.
    pub max_explored: usize,
    /// Path-space exploration mode.
    pub mode: ExplorationMode,
}

impl Default for AllocParams {
    fn default() -> Self {
        Self {
            hop_latency: SimDuration::from_millis(20),
            max_explored: 200_000,
            mode: ExplorationMode::AllSimplePaths,
        }
    }
}

/// Search-efficiency counters for one allocation run. Cheap to produce in
/// all modes; the pruning counters are only non-zero under
/// [`ExplorationMode::BranchAndBound`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocStats {
    /// Prefixes dequeued and expanded (or scored) by the search.
    pub explored_prefixes: u64,
    /// Prefixes discarded because their admissible fairness upper bound
    /// could not beat the incumbent candidate, including prefixes from
    /// which no goal is reachable within the remaining hop budget.
    pub pruned_bound: u64,
    /// Prefixes collapsed as duplicates of an equivalent-or-better
    /// already-enqueued prefix (same vertex, visited set and load effect).
    pub pruned_dominated: u64,
}

impl AllocStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &AllocStats) {
        self.explored_prefixes += other.explored_prefixes;
        self.pruned_bound += other.pruned_bound;
        self.pruned_dominated += other.pruned_dominated;
    }
}

/// A successful allocation: the chosen path and its predicted effects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// The chosen resource-graph path (empty = the initial state already
    /// satisfies the request; a direct fetch).
    pub path: Vec<EdgeId>,
    /// Jain's fairness index of the domain load distribution *after*
    /// committing this path (`f_max` of Fig. 3).
    pub fairness: f64,
    /// Estimated response time (setup) of the path.
    pub est_response: SimDuration,
    /// Sustained work the path adds to each involved peer.
    pub load_deltas: Vec<(NodeId, f64)>,
    /// Number of candidate paths dequeued during the search.
    pub explored: usize,
    /// True if the exploration cap was hit (the argmax may be approximate).
    pub truncated: bool,
    /// Search-efficiency counters (explored/pruned prefix counts).
    pub stats: AllocStats,
}

/// Why allocation failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocError {
    /// The initial or goal state is not in the resource graph.
    UnknownState,
    /// No goal states were supplied.
    NoGoal,
    /// The domain has no peers.
    EmptyDomain,
    /// Paths exist but none satisfies the QoS requirements
    /// ("if no allocation that satisfies the given QoS exists, the
    /// algorithm reports that").
    NoFeasiblePath {
        /// How many candidate paths were examined.
        explored: usize,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::UnknownState => write!(f, "initial or goal state not in resource graph"),
            AllocError::NoGoal => write!(f, "no goal states supplied"),
            AllocError::EmptyDomain => write!(f, "domain has no peers"),
            AllocError::NoFeasiblePath { explored } => {
                write!(f, "no QoS-feasible path (explored {explored} candidates)")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// The allocator: parameters + objective.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FairnessAllocator {
    /// Search tuning.
    pub params: AllocParams,
    /// Selection objective.
    pub kind: AllocatorKind,
}

/// Sentinel index: "no parent" / "peer not in the domain view".
const NONE_IDX: u32 = u32::MAX;

/// Branch-and-bound pruning margin, in fairness units. The upper bound is
/// admissible over the reals; this margin absorbs floating-point slop in
/// both the bound and the candidate scores, so pruning can never discard a
/// candidate that exact selection would have chosen (DESIGN.md §10).
const PRUNE_MARGIN: f64 = 1e-9;

/// Cap on remembered prefixes per `(vertex, visited)` dominance key.
const DOM_CAP: usize = 8;

/// One node of the search's parent-pointer prefix tree. A prefix is the
/// edge chain from a node back to the root; each node stores the
/// accumulated (work, bandwidth) for *its own hop's peer*, so extending a
/// prefix is O(1) — nothing is cloned per enqueued child (the previous
/// implementation cloned three `Vec`s per child).
#[derive(Debug, Clone, Copy)]
struct PathNode {
    /// Arena index of the parent prefix; `NONE_IDX` on the root.
    parent: u32,
    /// The edge taken into this node (meaningless on the root).
    edge: EdgeId,
    /// Vertex this prefix ends at.
    vertex: StateId,
    /// Peer index (into the domain's sorted id list) of the edge's host;
    /// `NONE_IDX` on the root.
    peer_idx: u32,
    /// This path's accumulated work on that peer, including `edge`.
    work: f64,
    /// This path's accumulated bandwidth on that peer, kbps.
    bw: u32,
    /// Hop count.
    len: u32,
    /// Estimated response time so far, in seconds.
    est_secs: f64,
    /// Bitmap of visited vertices when the graph has ≤ 128 states
    /// (otherwise 0, and cycle checks walk the chain instead).
    visited: u128,
    /// Bitmap of the peer indices the prefix uses when the domain has
    /// ≤ 64 peers (otherwise 0). Two prefixes with bit-identical
    /// profiles use the same peers, so a differing mask rules out
    /// dominance before any profile is materialised.
    peers: u64,
}

/// True when `v` already lies on the prefix ending at `node`.
fn on_path(arena: &[PathNode], mut node: u32, v: StateId) -> bool {
    while node != NONE_IDX {
        let Some(n) = arena.get(node as usize) else {
            return false;
        };
        if n.vertex == v {
            return true;
        }
        node = n.parent;
    }
    false
}

/// The prefix's accumulated (work, bandwidth) on `peer_idx`: the deepest
/// chain node for that peer already holds the path total.
fn accum_for_peer(arena: &[PathNode], mut node: u32, peer_idx: u32) -> (f64, u32) {
    while node != NONE_IDX {
        let Some(n) = arena.get(node as usize) else {
            break;
        };
        if n.parent == NONE_IDX {
            break; // root carries no hop
        }
        if n.peer_idx == peer_idx {
            return (n.work, n.bw);
        }
        node = n.parent;
    }
    (0.0, 0)
}

/// Materialises per-peer `(peer index, accumulated work, accumulated bw)`
/// triples in first-encounter order from the path start. This reproduces
/// exactly the order and arithmetic of accumulating hop by hop, so
/// fairness evaluations over the result are bit-identical to the old
/// per-child vector representation.
fn collect_profile(
    arena: &[PathNode],
    node: u32,
    chain: &mut Vec<u32>,
    out: &mut Vec<(usize, f64, u32)>,
) {
    chain.clear();
    out.clear();
    let mut cur = node;
    while cur != NONE_IDX {
        let Some(n) = arena.get(cur as usize) else {
            break;
        };
        if n.parent != NONE_IDX {
            chain.push(cur);
        }
        cur = n.parent;
    }
    for &ni in chain.iter().rev() {
        let Some(n) = arena.get(ni as usize) else {
            continue;
        };
        let pi = n.peer_idx as usize;
        if let Some(slot) = out.iter_mut().find(|(i, _, _)| *i == pi) {
            // A deeper node for the same peer carries the newer total.
            slot.1 = n.work;
            slot.2 = n.bw;
        } else {
            out.push((pi, n.work, n.bw));
        }
    }
}

/// Materialises the edge sequence of the prefix ending at `node`.
fn collect_path(arena: &[PathNode], node: u32, chain: &mut Vec<u32>) -> Vec<EdgeId> {
    chain.clear();
    let mut cur = node;
    while cur != NONE_IDX {
        let Some(n) = arena.get(cur as usize) else {
            break;
        };
        if n.parent != NONE_IDX {
            chain.push(cur);
        }
        cur = n.parent;
    }
    chain
        .iter()
        .rev()
        .filter_map(|&i| arena.get(i as usize).map(|n| n.edge))
        .collect()
}

/// Extends a materialised profile by one hop (same arithmetic as
/// [`accum_for_peer`] + the per-edge accumulation in the search loop).
fn apply_hop(profile: &mut Vec<(usize, f64, u32)>, pi: usize, work: f64, bw: u32) {
    if let Some(slot) = profile.iter_mut().find(|(i, _, _)| *i == pi) {
        slot.1 = work;
        slot.2 = bw;
    } else {
        profile.push((pi, work, bw));
    }
}

/// Orders the edge sequences of the prefixes ending at `a` and `b` by
/// (length, lexicographic) — the selection tiebreak — without
/// materialising either. Equal-length chains are walked up in lockstep
/// until they meet; the differing hop closest to the root decides.
fn cmp_len_lex(arena: &[PathNode], mut a: u32, mut b: u32) -> Ordering {
    let (Some(na), Some(nb)) = (arena.get(a as usize), arena.get(b as usize)) else {
        return Ordering::Equal;
    };
    let mut ord = na.len.cmp(&nb.len);
    if ord != Ordering::Equal {
        return ord;
    }
    while a != b {
        let (Some(na), Some(nb)) = (arena.get(a as usize), arena.get(b as usize)) else {
            break;
        };
        if na.parent == NONE_IDX || nb.parent == NONE_IDX {
            break; // the root carries no hop
        }
        let hop = na.edge.cmp(&nb.edge);
        if hop != Ordering::Equal {
            ord = hop;
        }
        a = na.parent;
        b = nb.parent;
    }
    ord
}

/// Dominance test: may the prospective child be dropped because an
/// already-enqueued prefix at the same `(vertex, visited-set)` key has a
/// *bit-identical* per-peer work profile, pointwise-≤ bandwidth use, ≤
/// estimate, and a tiebreak-preferred edge sequence? Any completion of the
/// child is then also a completion of the stored prefix with the same
/// fairness, no worse feasibility, and a selection-preferred path — so
/// dropping the child can never change the chosen allocation.
///
/// Entries sharing the key have the same vertex set and hence the same
/// hop count, so the edge-sequence order is decided by the parents'
/// chains and then the last hop.
fn is_dominated(
    arena: &[PathNode],
    entries: &[u32],
    child: &PathNode,
    child_profile: &[(usize, f64, u32)],
    chain: &mut Vec<u32>,
    profile2: &mut Vec<(usize, f64, u32)>,
) -> bool {
    'entries: for &si in entries {
        let Some(s) = arena.get(si as usize) else {
            continue;
        };
        if s.peers != child.peers || s.est_secs > child.est_secs {
            continue;
        }
        collect_profile(arena, si, chain, profile2);
        if profile2.len() != child_profile.len() {
            continue;
        }
        for &(i, w, b) in profile2.iter() {
            let Some(&(_, cw, cb)) = child_profile.iter().find(|&&(ci, _, _)| ci == i) else {
                continue 'entries;
            };
            if w.to_bits() != cw.to_bits() || b > cb {
                continue 'entries;
            }
        }
        let order = cmp_len_lex(arena, s.parent, child.parent).then(s.edge.cmp(&child.edge));
        if order != Ordering::Greater {
            return true;
        }
    }
    false
}

/// Precomputed branch-and-bound state: per-(hops, vertex) remaining-work
/// budgets and the sorted base loads feeding the water-filling bound.
struct BnbCtx {
    /// `reach[h][v]`: maximum total work of any ≤`h`-hop walk from `v` to
    /// a goal (revisits allowed — a relaxation, so the budget is never an
    /// underestimate); `-∞` when no goal is reachable in `h` hops.
    reach: Vec<Vec<f64>>,
    /// Total-hop cap: `min(num_states − 1, max_hops, ⌊deadline/hop⌋ + 1)`.
    h_cap: usize,
    num_states: usize,
    /// Base loads ascending, paired with their peer index.
    sorted_base: Vec<(f64, u32)>,
    // Reusable scratch, so per-prefix bound evaluation allocates nothing.
    news: Vec<f64>,
    marked: Vec<bool>,
}

impl BnbCtx {
    fn new(
        gr: &ResourceGraph,
        goals: &[StateId],
        qos: &QosSpec,
        deadline_secs: f64,
        hop_latency_secs: f64,
        loads: &[f64],
    ) -> Self {
        let num_states = gr.num_states();
        // A simple path visits each vertex at most once.
        let mut h_cap = num_states.saturating_sub(1);
        if let Some(mh) = qos.max_hops {
            h_cap = h_cap.min(mh);
        }
        if hop_latency_secs > 0.0 {
            // Every hop costs at least the hop latency; the +1 forgives
            // floating-point edge cases (a loose cap stays admissible).
            h_cap = h_cap.min((deadline_secs / hop_latency_secs) as usize + 1);
        }
        let mut row = vec![f64::NEG_INFINITY; num_states];
        for g in goals {
            if let Some(slot) = row.get_mut(g.0 as usize) {
                *slot = 0.0;
            }
        }
        let mut reach = vec![row];
        for _ in 1..=h_cap {
            let prev = reach.last().cloned().unwrap_or_default();
            let mut row = prev.clone();
            for (v, slot) in row.iter_mut().enumerate() {
                for e in gr.out_edges(StateId(v as u32)) {
                    let r = prev
                        .get(e.to.0 as usize)
                        .copied()
                        .unwrap_or(f64::NEG_INFINITY);
                    if r > f64::NEG_INFINITY {
                        let cand = e.cost.work_per_sec + r;
                        if cand > *slot {
                            *slot = cand;
                        }
                    }
                }
            }
            reach.push(row);
        }
        let mut sorted_base: Vec<(f64, u32)> = loads
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i as u32))
            .collect();
        sorted_base.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Self {
            reach,
            h_cap,
            num_states,
            sorted_base,
            news: Vec::new(),
            marked: vec![false; loads.len()],
        }
    }

    /// Admissible fairness upper bound for a prefix at `vertex` with `len`
    /// hops used, estimate `est_secs`, and the per-peer load deltas in
    /// `profile`. Returns `NEG_INFINITY` when no completion exists at all
    /// (no goal reachable within the remaining hop budget).
    // lint: the bound needs the full pruning context (deadline, latency,
    // prefix profile); bundling into a struct would just rename the args.
    #[allow(clippy::too_many_arguments)]
    fn upper_bound(
        &mut self,
        tracker: &FairnessTracker,
        vertex: StateId,
        len: u32,
        est_secs: f64,
        deadline_secs: f64,
        hop_latency_secs: f64,
        profile: &[(usize, f64, u32)],
    ) -> f64 {
        // Remaining-hop budget: global cap minus hops used, the
        // simple-path limit on fresh vertices, and the latency the
        // remaining deadline can still absorb.
        let mut h_rem = self.h_cap.saturating_sub(len as usize);
        h_rem = h_rem.min(self.num_states.saturating_sub(len as usize + 1));
        if hop_latency_secs > 0.0 {
            let slack = (deadline_secs - est_secs).max(0.0);
            h_rem = h_rem.min((slack / hop_latency_secs) as usize + 1);
        }
        let budget = self
            .reach
            .get(h_rem)
            .and_then(|row| row.get(vertex.0 as usize))
            .copied()
            .unwrap_or(f64::NEG_INFINITY);
        if budget == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        // Fold the prefix deltas into the tracked Σl / Σl² …
        let loads = tracker.loads();
        let mut sum = tracker.total();
        let mut sum_sq = tracker.total_sq();
        self.news.clear();
        let mut superseded = 0usize;
        for &(i, w, _) in profile {
            let old = loads.get(i).copied().unwrap_or(0.0);
            let new = old + w;
            sum += new - old;
            sum_sq += new * new - old * old;
            self.news.push(new);
            if let Some(m) = self.marked.get_mut(i) {
                *m = true;
                superseded += 1;
            }
        }
        // … and splice the changed loads into the presorted base order
        // lazily: the water-fill stops reading at the water line, so a
        // prefix costs O(k log k) plus the loads below that line instead
        // of a pass over all n.
        self.news.sort_by(|a, b| a.total_cmp(b));
        let spliced = Spliced {
            base: &self.sorted_base,
            marked: &self.marked,
            news: &self.news,
            remaining: self.sorted_base.len().saturating_sub(superseded) + self.news.len(),
        };
        let bound = fairness_upper_bound(spliced, sum, sum_sq, budget);
        for &(i, _, _) in profile {
            if let Some(m) = self.marked.get_mut(i) {
                *m = false;
            }
        }
        bound
    }
}

/// The base loads in ascending order with the marked peers' loads
/// replaced by the updated ones in `news` (also ascending), merged on the
/// fly: the same sequence an eager merge would build, produced only as
/// far as it is read.
struct Spliced<'a> {
    base: &'a [(f64, u32)],
    marked: &'a [bool],
    news: &'a [f64],
    remaining: usize,
}

impl Iterator for Spliced<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        // Skip base loads superseded by their updated value.
        while let Some((&(_, pi), rest)) = self.base.split_first() {
            if !self.marked.get(pi as usize).copied().unwrap_or(false) {
                break;
            }
            self.base = rest;
        }
        let v = match (self.news.split_first(), self.base.split_first()) {
            (Some((&nv, rest)), Some((&(v, _), _))) if nv <= v => {
                self.news = rest;
                nv
            }
            (_, Some((&(v, _), rest))) => {
                self.base = rest;
                v
            }
            (Some((&nv, rest)), None) => {
                self.news = rest;
                nv
            }
            (None, None) => return None,
        };
        self.remaining = self.remaining.saturating_sub(1);
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Spliced<'_> {}

/// A frontier entry for the heap-ordered exploration modes.
struct BestEntry {
    priority: f64,
    seq: u64,
    node: u32,
}
impl PartialEq for BestEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority.to_bits() == other.priority.to_bits() && self.seq == other.seq
    }
}
impl Eq for BestEntry {}
impl PartialOrd for BestEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BestEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on priority; FIFO (lower seq first) among ties
        // for determinism. `total_cmp` is a total order, so NaN
        // priorities (which should never occur) sort low instead
        // of panicking.
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The search frontier: FIFO for (literal) BFS modes, a max-heap keyed by
/// prefix fairness (BestFirst) or by the admissible fairness upper bound
/// (BranchAndBound). Entries are arena indices.
enum Frontier {
    Fifo(VecDeque<u32>),
    Best(std::collections::BinaryHeap<BestEntry>, u64),
}
impl Frontier {
    fn pop(&mut self) -> Option<(u32, f64)> {
        match self {
            Frontier::Fifo(q) => q.pop_front().map(|n| (n, 0.0)),
            Frontier::Best(h, _) => h.pop().map(|e| (e.node, e.priority)),
        }
    }
    fn len(&self) -> usize {
        match self {
            Frontier::Fifo(q) => q.len(),
            Frontier::Best(h, _) => h.len(),
        }
    }
    fn push(&mut self, node: u32, priority: f64) {
        match self {
            Frontier::Fifo(q) => q.push_back(node),
            Frontier::Best(h, seq) => {
                *seq += 1;
                h.push(BestEntry {
                    priority,
                    seq: *seq,
                    node,
                });
            }
        }
    }
}

/// A scored prefix that reached a goal: everything selection compares,
/// as plain data. The edge sequence stays in the arena, and the path and
/// load deltas are materialised once, for the winner.
#[derive(Clone, Copy)]
struct Scored {
    node: u32,
    fairness: f64,
    /// Resulting maximum utilization ([`AllocatorKind::LeastLoaded`] only).
    max_util: f64,
    /// Total sustained work ([`AllocatorKind::MinWork`] only).
    total_work: f64,
}

/// The per-objective selection rule, applied to candidates as they are
/// discovered: `true` when `a` replaces the running winner `b`. All
/// tiebreaks are deterministic: shorter path first, then the
/// lexicographically smaller edge sequence. `FirstFeasible` keeps the
/// first candidate; `Random` draws among all of them after the search.
fn replaces(kind: AllocatorKind, arena: &[PathNode], a: &Scored, b: &Scored) -> bool {
    let better_tiebreak = || cmp_len_lex(arena, a.node, b.node) == Ordering::Less;
    match kind {
        // Exact comparison (not epsilon-fuzzed): `total_cmp` is a total
        // order, so the winner is independent of candidate discovery
        // order — which is what lets BranchAndBound prune the frontier
        // without ever changing the answer.
        AllocatorKind::MaxFairness => match a.fairness.total_cmp(&b.fairness) {
            Ordering::Greater => true,
            Ordering::Equal => better_tiebreak(),
            Ordering::Less => false,
        },
        AllocatorKind::LeastLoaded => {
            a.max_util < b.max_util - 1e-12
                || ((a.max_util - b.max_util).abs() <= 1e-12 && better_tiebreak())
        }
        AllocatorKind::MinWork => {
            a.total_work < b.total_work - 1e-12
                || ((a.total_work - b.total_work).abs() <= 1e-12 && better_tiebreak())
        }
        AllocatorKind::FirstFeasible | AllocatorKind::Random => false,
    }
}

impl FairnessAllocator {
    /// Creates the paper's default allocator.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Creates an allocator with a specific objective.
    pub fn with_kind(kind: AllocatorKind) -> Self {
        Self {
            kind,
            ..Self::default()
        }
    }

    /// Runs the allocation algorithm.
    ///
    /// `rng` is only consulted by [`AllocatorKind::Random`]; pass `None`
    /// otherwise. See the module docs for the feasibility rules.
    pub fn allocate(
        &self,
        gr: &ResourceGraph,
        view: &PeerView,
        init: StateId,
        goals: &[StateId],
        qos: &QosSpec,
        rng: Option<&mut DetRng>,
    ) -> Result<Allocation, AllocError> {
        if goals.is_empty() {
            return Err(AllocError::NoGoal);
        }
        if view.is_empty() {
            return Err(AllocError::EmptyDomain);
        }
        if init.0 as usize >= gr.num_states()
            || goals.iter().any(|g| g.0 as usize >= gr.num_states())
        {
            return Err(AllocError::UnknownState);
        }

        // Branch-and-bound prunes against the *fairness* objective, so it
        // is only answer-preserving for MaxFairness; every other objective
        // needs the full candidate set and falls back to exhaustive
        // enumeration.
        let mode = if self.params.mode == ExplorationMode::BranchAndBound
            && self.kind != AllocatorKind::MaxFairness
        {
            ExplorationMode::AllSimplePaths
        } else {
            self.params.mode
        };

        // Node order for the fairness tracker (PeerView iterates sorted),
        // plus a dense copy of the per-peer info so the hot loop never
        // touches the BTreeMap.
        let (ids, infos): (Vec<NodeId>, Vec<PeerInfo>) =
            view.iter().map(|(n, i)| (*n, i.clone())).unzip();
        let tracker = FairnessTracker::from_loads(view.loads());

        // Peer lookup table indexed by raw edge id: one binary search per
        // edge *once per call*, instead of one per expansion.
        let mut edge_peer = vec![NONE_IDX; gr.edge_capacity()];
        for edge in gr.edges() {
            if let Some(slot) = edge_peer.get_mut(edge.id.0 as usize) {
                *slot = match ids.binary_search(&edge.peer) {
                    Ok(i) => i as u32,
                    Err(_) => NONE_IDX,
                };
            }
        }

        let deadline_secs = qos.deadline.as_secs_f64();
        let hop_latency_secs = self.params.hop_latency.as_secs_f64();

        let num_states = gr.num_states();
        // The visited bitmap only fits graphs with ≤ 128 states; beyond
        // that, cycle checks walk the parent chain and dominance is off.
        let use_bitmap = num_states <= 128;
        let mut goal_mask = 0u128;
        if use_bitmap {
            for g in goals {
                goal_mask |= 1u128 << g.0;
            }
        }
        let is_goal =
            |v: StateId| -> bool { use_bitmap && goal_mask >> v.0 & 1 == 1 || goals.contains(&v) };
        // The per-prefix peer-set mask only fits domains with ≤ 64 peers.
        let use_peer_mask = ids.len() <= 64;

        let mut bnb = if mode == ExplorationMode::BranchAndBound {
            Some(BnbCtx::new(
                gr,
                goals,
                qos,
                deadline_secs,
                hop_latency_secs,
                tracker.loads(),
            ))
        } else {
            None
        };
        let mut incumbent = f64::NEG_INFINITY;
        let mut stats = AllocStats::default();
        // Dominance table (BranchAndBound + bitmap only): prefixes already
        // enqueued at each `(vertex, visited-set)` key.
        let mut dom: BTreeMap<(u32, u128), Vec<u32>> = BTreeMap::new();

        // Parent-pointer arena of search prefixes and reusable scratch.
        let mut arena: Vec<PathNode> = Vec::with_capacity(256);
        let mut chain: Vec<u32> = Vec::new();
        let mut profile: Vec<(usize, f64, u32)> = Vec::new();
        let mut parent_profile: Vec<(usize, f64, u32)> = Vec::new();
        let mut profile2: Vec<(usize, f64, u32)> = Vec::new();
        let mut deltas: Vec<(usize, f64)> = Vec::new();

        // The running winner, updated as candidates are discovered;
        // `Random` instead keeps every candidate to draw from at the end.
        let mut winner: Option<Scored> = None;
        let mut candidates: Vec<Scored> = Vec::new();
        let mut explored = 0usize;
        let mut truncated = false;

        let mut queue = match mode {
            ExplorationMode::BestFirst | ExplorationMode::BranchAndBound => {
                Frontier::Best(std::collections::BinaryHeap::new(), 0)
            }
            _ => Frontier::Fifo(VecDeque::new()),
        };
        arena.push(PathNode {
            parent: NONE_IDX,
            edge: EdgeId(0),
            vertex: init,
            peer_idx: NONE_IDX,
            work: 0.0,
            bw: 0,
            len: 0,
            est_secs: 0.0,
            visited: if use_bitmap { 1u128 << init.0 } else { 0 },
            peers: 0,
        });
        queue.push(0, 1.0);
        let mut visited_global = vec![false; num_states]; // GlobalVisited mode only

        while let Some((ni, prio)) = queue.pop() {
            // Re-check against the incumbent at dequeue: the bound was
            // computed at push time and the incumbent may have risen since.
            // The frontier pops in descending bound order, so once the top
            // is prunable every remaining entry is too: count them all and
            // stop. Checked before the cap, so a search whose remaining
            // frontier is entirely prunable is complete, not truncated.
            if mode == ExplorationMode::BranchAndBound && prio < incumbent - PRUNE_MARGIN {
                stats.pruned_bound += 1 + queue.len() as u64;
                break;
            }
            if explored >= self.params.max_explored {
                truncated = true;
                break;
            }
            explored += 1;

            let Some(&node) = arena.get(ni as usize) else {
                continue;
            };

            if mode == ExplorationMode::GlobalVisited {
                if visited_global
                    .get(node.vertex.0 as usize)
                    .copied()
                    .unwrap_or(true)
                {
                    continue;
                }
                if let Some(flag) = visited_global.get_mut(node.vertex.0 as usize) {
                    *flag = true;
                }
            }

            if is_goal(node.vertex) {
                // Score the completed path.
                collect_profile(&arena, ni, &mut chain, &mut profile);
                deltas.clear();
                deltas.extend(profile.iter().map(|&(i, w, _)| (i, w)));
                let fairness = tracker.index_with(&deltas);
                let max_util = if self.kind == AllocatorKind::LeastLoaded {
                    deltas
                        .iter()
                        .map(|&(i, w)| match infos.get(i) {
                            Some(info) if info.capacity > 0.0 => (info.load + w) / info.capacity,
                            _ => f64::INFINITY,
                        })
                        .fold(0.0f64, f64::max)
                } else {
                    0.0
                };
                let total_work: f64 = if self.kind == AllocatorKind::MinWork {
                    deltas.iter().map(|&(_, w)| w).sum()
                } else {
                    0.0
                };
                let scored = Scored {
                    node: ni,
                    fairness,
                    max_util,
                    total_work,
                };
                if self.kind == AllocatorKind::Random {
                    candidates.push(scored);
                } else if winner.is_none_or(|w| replaces(self.kind, &arena, &scored, &w)) {
                    winner = Some(scored);
                }
                if fairness > incumbent {
                    incumbent = fairness;
                }
                if self.kind == AllocatorKind::FirstFeasible {
                    break; // first complete feasible path in BFS order
                }
                // A goal vertex may still have outgoing edges (another goal
                // further on is possible but pointless); stop extending.
                continue;
            }

            // Expand. Hop-count prune before generating children.
            if let Some(max_hops) = qos.max_hops {
                if node.len as usize >= max_hops {
                    continue;
                }
            }

            // The heap-ordered modes score every child from the parent's
            // profile plus one hop; materialise it once per expansion.
            if matches!(
                mode,
                ExplorationMode::BestFirst | ExplorationMode::BranchAndBound
            ) {
                collect_profile(&arena, ni, &mut chain, &mut parent_profile);
            }
            for edge in gr.out_edges(node.vertex) {
                // Cycle check (simple paths): `to` must not be on the path
                // (the root vertex `init` is always on it).
                if mode == ExplorationMode::GlobalVisited {
                    if visited_global
                        .get(edge.to.0 as usize)
                        .copied()
                        .unwrap_or(true)
                    {
                        continue;
                    }
                } else {
                    let revisits = if use_bitmap {
                        node.visited >> edge.to.0 & 1 == 1
                    } else {
                        on_path(&arena, ni, edge.to)
                    };
                    if revisits {
                        continue;
                    }
                }

                let pi = edge_peer
                    .get(edge.id.0 as usize)
                    .copied()
                    .unwrap_or(NONE_IDX);
                if pi == NONE_IDX {
                    continue; // peer no longer in the domain
                }
                let Some(info) = infos.get(pi as usize) else {
                    continue;
                };

                // Accumulate this path's demands on edge.peer.
                let (prev_work, prev_bw) = accum_for_peer(&arena, ni, pi);
                let new_work = prev_work + edge.cost.work_per_sec;
                let new_bw = prev_bw + edge.cost.bandwidth_kbps;

                // (3) CPU sustainability.
                if new_work > info.capacity - info.load + 1e-9 {
                    continue;
                }
                // (2) bandwidth, including the user's floor.
                let avail_bw = info.available_bandwidth_kbps();
                if new_bw > avail_bw || qos.min_bandwidth_kbps > avail_bw {
                    continue;
                }
                // (4) deadline: setup at currently-available speed + hop latency.
                let setup = edge.cost.setup_work / info.available_capacity();
                let est = node.est_secs + setup + hop_latency_secs;
                if est > deadline_secs {
                    continue;
                }

                let child = PathNode {
                    parent: ni,
                    edge: edge.id,
                    vertex: edge.to,
                    peer_idx: pi,
                    work: new_work,
                    bw: new_bw,
                    len: node.len + 1,
                    est_secs: est,
                    visited: if use_bitmap {
                        node.visited | 1u128 << edge.to.0
                    } else {
                        0
                    },
                    peers: if use_peer_mask {
                        node.peers | 1u64 << pi
                    } else {
                        0
                    },
                };

                let mut priority = 0.0;
                match mode {
                    ExplorationMode::BestFirst => {
                        // Greedy ordering heuristic: the fairness of the
                        // domain if the child's work were committed.
                        profile.clone_from(&parent_profile);
                        apply_hop(&mut profile, pi as usize, new_work, new_bw);
                        deltas.clear();
                        deltas.extend(profile.iter().map(|&(i, w, _)| (i, w)));
                        priority = tracker.index_with(&deltas);
                    }
                    ExplorationMode::BranchAndBound => {
                        profile.clone_from(&parent_profile);
                        apply_hop(&mut profile, pi as usize, new_work, new_bw);
                        let Some(ctx) = bnb.as_mut() else {
                            continue;
                        };
                        priority = ctx.upper_bound(
                            &tracker,
                            edge.to,
                            child.len,
                            est,
                            deadline_secs,
                            hop_latency_secs,
                            &profile,
                        );
                        if priority == f64::NEG_INFINITY || priority < incumbent - PRUNE_MARGIN {
                            stats.pruned_bound += 1;
                            continue;
                        }
                        if use_bitmap {
                            let key = (edge.to.0, child.visited);
                            let entries = dom.entry(key).or_default();
                            if is_dominated(
                                &arena,
                                entries,
                                &child,
                                &profile,
                                &mut chain,
                                &mut profile2,
                            ) {
                                stats.pruned_dominated += 1;
                                continue;
                            }
                            if entries.len() < DOM_CAP {
                                entries.push(crate::idx_u32(arena.len()));
                            }
                        }
                    }
                    _ => {}
                }

                let idx = crate::idx_u32(arena.len());
                arena.push(child);
                queue.push(idx, priority);
            }
        }

        if self.kind == AllocatorKind::Random && !candidates.is_empty() {
            // Without an RNG, "random" degrades gracefully to
            // first-feasible instead of panicking.
            let i = rng.map_or(0, |rng| rng.index(candidates.len()));
            winner = candidates.get(i).copied();
        }
        let Some(chosen) = winner else {
            return Err(AllocError::NoFeasiblePath { explored });
        };
        stats.explored_prefixes = explored as u64;
        collect_profile(&arena, chosen.node, &mut chain, &mut profile);
        let load_deltas = profile
            .iter()
            .filter_map(|&(i, w, _)| ids.get(i).map(|&n| (n, w)))
            .collect();
        let est_secs = arena.get(chosen.node as usize).map_or(0.0, |n| n.est_secs);
        Ok(Allocation {
            path: collect_path(&arena, chosen.node, &mut chain),
            fairness: chosen.fairness,
            est_response: SimDuration::from_secs_f64(est_secs),
            load_deltas,
            explored,
            truncated,
            stats,
        })
    }
}

/// Runs the paper's default allocator (fairness argmax over all simple
/// QoS-feasible paths) — the free-function form of
/// [`FairnessAllocator::allocate`].
///
/// # Examples
///
/// ```
/// use arm_model::{allocate, MediaFormat, PeerInfo, PeerView, QosSpec, ResourceGraph};
/// use arm_util::{NodeId, SimDuration};
///
/// let (graph, _) = ResourceGraph::figure1();
/// let mut view = PeerView::new();
/// for p in 1..=5 {
///     view.upsert(NodeId::new(p), PeerInfo::idle(100.0, 10_000));
/// }
/// let init = graph.state_of(MediaFormat::paper_source()).unwrap();
/// let goal = graph.state_of(MediaFormat::paper_target()).unwrap();
/// let qos = QosSpec::with_deadline(SimDuration::from_secs(5));
/// let alloc = allocate(&graph, &view, init, &[goal], &qos).unwrap();
/// assert!(!alloc.path.is_empty());
/// assert!(alloc.fairness > 0.0 && alloc.fairness <= 1.0);
/// ```
pub fn allocate(
    gr: &ResourceGraph,
    view: &PeerView,
    init: StateId,
    goals: &[StateId],
    qos: &QosSpec,
) -> Result<Allocation, AllocError> {
    FairnessAllocator::paper().allocate(gr, view, init, goals, qos, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MediaFormat;
    use crate::peerview::PeerInfo;
    use arm_util::fairness_index;

    /// The Fig. 1 graph with a fully idle, capable domain.
    fn setup() -> (ResourceGraph, Vec<EdgeId>, PeerView, StateId, StateId) {
        let (gr, e) = ResourceGraph::figure1();
        let mut view = PeerView::new();
        for p in 1..=5u64 {
            view.upsert(NodeId::new(p), PeerInfo::idle(100.0, 10_000));
        }
        let init = gr.state_of(MediaFormat::paper_source()).unwrap();
        let goal = gr.state_of(MediaFormat::paper_target()).unwrap();
        (gr, e, view, init, goal)
    }

    fn lenient_qos() -> QosSpec {
        QosSpec::with_deadline(SimDuration::from_secs(10))
    }

    #[test]
    fn finds_the_three_paper_paths() {
        let (gr, e, view, init, goal) = setup();
        // Collect all feasible candidates by running Random across seeds —
        // instead, verify via FirstFeasible+exploration count and the known
        // path set by checking each path is feasible under MaxFairness with
        // forced tie conditions. Simplest: enumerate with a tiny helper.
        let alloc = allocate(&gr, &view, init, &[goal], &lenient_qos()).unwrap();
        // All three candidate paths are {e1,e2}, {e1,e3}, {e1,e4,e5,e8}.
        let valid = [
            vec![e[0], e[1]],
            vec![e[0], e[2]],
            vec![e[0], e[3], e[4], e[7]],
        ];
        assert!(valid.contains(&alloc.path), "got {:?}", alloc.path);
        assert!(!alloc.truncated);
        assert!(alloc.explored > 0);
    }

    #[test]
    fn idle_domain_prefers_spreading() {
        // On an idle domain the 2-hop paths load 2 peers; fairness of the
        // chosen allocation must equal the best achievable.
        let (gr, _e, view, init, goal) = setup();
        let alloc = allocate(&gr, &view, init, &[goal], &lenient_qos()).unwrap();
        // Verify the reported fairness matches a direct computation.
        let mut loads = view.loads();
        let ids: Vec<NodeId> = view.ids().collect();
        for (peer, w) in &alloc.load_deltas {
            let i = ids.iter().position(|n| n == peer).unwrap();
            loads[i] += w;
        }
        assert!((alloc.fairness - fairness_index(&loads)).abs() < 1e-12);
    }

    #[test]
    fn maxfairness_beats_or_equals_first_feasible() {
        let (gr, _e, mut view, init, goal) = setup();
        // Pre-load peer 2 so the e1,e2 path becomes unattractive.
        view.get_mut(NodeId::new(2)).unwrap().load = 80.0;
        let fair = allocate(&gr, &view, init, &[goal], &lenient_qos()).unwrap();
        let first = FairnessAllocator::with_kind(AllocatorKind::FirstFeasible)
            .allocate(&gr, &view, init, &[goal], &lenient_qos(), None)
            .unwrap();
        assert!(fair.fairness >= first.fairness - 1e-12);
        // With peer 2 at load 80, the fairest option is the 4-hop path
        // (loads 8,82,0,5,3 → F≈0.2816, beating {e1,e3}'s F≈0.2719): the
        // allocator spreads work across more peers rather than merely
        // avoiding the hot one.
        assert_eq!(fair.path.len(), 4);
    }

    #[test]
    fn deadline_prunes_long_path() {
        let (gr, e, view, init, goal) = setup();
        // Per-hop latency 20ms. The 2-hop paths estimate at 75ms
        // (20+8·0.25/100 s, 20+6·0.25/100 s); the 4-hop path at 125ms.
        // An 80ms deadline admits only the 2-hop paths.
        let qos = QosSpec::with_deadline(SimDuration::from_millis(80));
        let alloc = allocate(&gr, &view, init, &[goal], &qos).unwrap();
        assert!(alloc.path.len() == 2, "got {:?}", alloc.path);
        // And an impossible deadline yields NoFeasiblePath.
        let qos = QosSpec::with_deadline(SimDuration::from_millis(1));
        let err = allocate(&gr, &view, init, &[goal], &qos).unwrap_err();
        assert!(matches!(err, AllocError::NoFeasiblePath { .. }));
        let _ = e;
    }

    #[test]
    fn max_hops_prunes() {
        let (gr, _e, mut view, init, goal) = setup();
        // Kill the short paths but keep the long one alive: e3's host
        // (peer 3) fully loaded; e2's host (peer 2) left just enough
        // headroom for e8 (work 2) but not e2 (work 6).
        view.get_mut(NodeId::new(2)).unwrap().load = 95.0;
        view.get_mut(NodeId::new(3)).unwrap().load = 99.9;
        let qos = lenient_qos().max_hops(2);
        let err = allocate(&gr, &view, init, &[goal], &qos).unwrap_err();
        assert!(matches!(err, AllocError::NoFeasiblePath { .. }));
        // Without the cap the 4-hop path is found.
        let alloc = allocate(&gr, &view, init, &[goal], &lenient_qos()).unwrap();
        assert_eq!(alloc.path.len(), 4);
    }

    #[test]
    fn cpu_saturation_excludes_peer() {
        let (gr, e, mut view, init, goal) = setup();
        // Saturate peer 1, which hosts the mandatory first hop e1.
        view.get_mut(NodeId::new(1)).unwrap().load = 100.0;
        let err = allocate(&gr, &view, init, &[goal], &lenient_qos()).unwrap_err();
        assert!(matches!(err, AllocError::NoFeasiblePath { .. }));
        let _ = e;
    }

    #[test]
    fn bandwidth_floor_excludes_thin_peers() {
        let (gr, _e, mut view, init, goal) = setup();
        // Peer 2's link too thin for the floor; peer 3 fine.
        view.get_mut(NodeId::new(2))
            .unwrap()
            .bandwidth_capacity_kbps = 100;
        let qos = lenient_qos().min_bandwidth(320);
        let alloc = allocate(&gr, &view, init, &[goal], &qos).unwrap();
        assert!(!alloc.load_deltas.iter().any(|(p, _)| *p == NodeId::new(2)));
    }

    #[test]
    fn init_equals_goal_is_empty_path() {
        let (gr, _e, view, init, _goal) = setup();
        let alloc = allocate(&gr, &view, init, &[init], &lenient_qos()).unwrap();
        assert!(alloc.path.is_empty());
        assert_eq!(alloc.est_response, SimDuration::ZERO);
        assert_eq!(alloc.fairness, 1.0); // idle domain stays perfectly fair
    }

    #[test]
    fn multiple_goals_any_accepted() {
        let (gr, e, view, init, goal) = setup();
        let v5 = gr.edge(e[4]).to; // intermediate 128kbps state
        let alloc = allocate(&gr, &view, init, &[goal, v5], &lenient_qos()).unwrap();
        // v5 is reachable in 3 hops, goal in 2; either acceptable, and the
        // allocator scores both. The chosen path must end at one of them.
        let last = *alloc.path.last().unwrap();
        let end = gr.edge(last).to;
        assert!(end == goal || end == v5);
    }

    #[test]
    fn error_cases() {
        let (gr, _e, view, init, goal) = setup();
        assert_eq!(
            allocate(&gr, &view, init, &[], &lenient_qos()).unwrap_err(),
            AllocError::NoGoal
        );
        assert_eq!(
            allocate(&gr, &PeerView::new(), init, &[goal], &lenient_qos()).unwrap_err(),
            AllocError::EmptyDomain
        );
        assert_eq!(
            allocate(&gr, &view, StateId(99), &[goal], &lenient_qos()).unwrap_err(),
            AllocError::UnknownState
        );
    }

    #[test]
    fn global_visited_underexplores() {
        let (gr, _e, mut view, init, goal) = setup();
        view.get_mut(NodeId::new(2)).unwrap().load = 80.0;
        let all = FairnessAllocator {
            params: AllocParams::default(),
            kind: AllocatorKind::MaxFairness,
        }
        .allocate(&gr, &view, init, &[goal], &lenient_qos(), None)
        .unwrap();
        let literal = FairnessAllocator {
            params: AllocParams {
                mode: ExplorationMode::GlobalVisited,
                ..AllocParams::default()
            },
            kind: AllocatorKind::MaxFairness,
        }
        .allocate(&gr, &view, init, &[goal], &lenient_qos(), None)
        .unwrap();
        // The literal mode sees fewer candidates and can't beat the full
        // enumeration.
        assert!(literal.explored <= all.explored);
        assert!(literal.fairness <= all.fairness + 1e-12);
    }

    #[test]
    fn random_allocator_is_feasible_and_deterministic_per_seed() {
        let (gr, _e, view, init, goal) = setup();
        let alloc1 = FairnessAllocator::with_kind(AllocatorKind::Random)
            .allocate(
                &gr,
                &view,
                init,
                &[goal],
                &lenient_qos(),
                Some(&mut DetRng::new(5)),
            )
            .unwrap();
        let alloc2 = FairnessAllocator::with_kind(AllocatorKind::Random)
            .allocate(
                &gr,
                &view,
                init,
                &[goal],
                &lenient_qos(),
                Some(&mut DetRng::new(5)),
            )
            .unwrap();
        assert_eq!(alloc1.path, alloc2.path);
    }

    #[test]
    fn least_loaded_minimises_max_util() {
        let (gr, _e, mut view, init, goal) = setup();
        view.get_mut(NodeId::new(2)).unwrap().load = 50.0;
        let alloc = FairnessAllocator::with_kind(AllocatorKind::LeastLoaded)
            .allocate(&gr, &view, init, &[goal], &lenient_qos(), None)
            .unwrap();
        // Avoids peer 2 (the loaded host of e2/e8): picks {e1,e3}.
        assert!(!alloc.load_deltas.iter().any(|(p, _)| *p == NodeId::new(2)));
    }

    #[test]
    fn min_work_picks_cheapest_path() {
        let (gr, e, view, init, goal) = setup();
        let alloc = FairnessAllocator::with_kind(AllocatorKind::MinWork)
            .allocate(&gr, &view, init, &[goal], &lenient_qos(), None)
            .unwrap();
        // Total work: e1+e2 = 14, e1+e3 = 14, long path = 18. Tiebreak
        // (lexicographic) picks {e1,e2}.
        assert_eq!(alloc.path, vec![e[0], e[1]]);
    }

    #[test]
    fn truncation_flag_when_cap_hit() {
        let (gr, _e, view, init, goal) = setup();
        let alloc = FairnessAllocator {
            params: AllocParams {
                max_explored: 2,
                ..AllocParams::default()
            },
            kind: AllocatorKind::MaxFairness,
        }
        .allocate(&gr, &view, init, &[goal], &lenient_qos(), None);
        // With only 2 dequeues the search may or may not reach a goal;
        // either way it must not panic, and if it succeeds it's truncated.
        if let Ok(a) = alloc {
            assert!(a.truncated);
        }
    }

    #[test]
    fn fairness_choice_matches_exhaustive_argmax() {
        // Cross-check the argmax against scoring every valid path by hand.
        let (gr, e, mut view, init, goal) = setup();
        view.get_mut(NodeId::new(3)).unwrap().load = 30.0;
        view.get_mut(NodeId::new(5)).unwrap().load = 10.0;
        let qos = lenient_qos();
        let alloc = allocate(&gr, &view, init, &[goal], &qos).unwrap();

        let ids: Vec<NodeId> = view.ids().collect();
        let paths = [
            vec![e[0], e[1]],
            vec![e[0], e[2]],
            vec![e[0], e[3], e[4], e[7]],
        ];
        let mut best = f64::MIN;
        for p in &paths {
            let mut loads = view.loads();
            for &eid in p {
                let edge = gr.edge(eid);
                let i = ids.iter().position(|n| *n == edge.peer).unwrap();
                loads[i] += edge.cost.work_per_sec;
            }
            best = best.max(fairness_index(&loads));
        }
        assert!((alloc.fairness - best).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::media::{Codec, MediaFormat, Resolution};
    use crate::peerview::PeerInfo;
    use crate::service::ServiceCost;
    use arm_util::{fairness_index, ServiceId};
    use proptest::prelude::*;

    /// Random layered DAG: `layers` layers of up to `width` states; edges
    /// connect adjacent layers, hosted on random peers.
    fn random_graph(
        seed: u64,
        layers: usize,
        width: usize,
        peers: usize,
        edge_prob: f64,
    ) -> (ResourceGraph, PeerView, StateId, StateId) {
        let mut rng = DetRng::new(seed);
        let mut gr = ResourceGraph::new();
        let mut layer_states: Vec<Vec<StateId>> = Vec::new();
        let mut fmt_id = 0u32;
        let mut fresh_format = || {
            fmt_id += 1;
            MediaFormat::new(
                Codec::ALL[(fmt_id as usize) % Codec::ALL.len()],
                Resolution::new(100 + fmt_id as u16, 100),
                fmt_id,
            )
        };
        for li in 0..layers {
            let w = if li == 0 || li == layers - 1 {
                1
            } else {
                1 + rng.index(width)
            };
            layer_states.push((0..w).map(|_| gr.intern_state(fresh_format())).collect());
        }
        let mut svc = 0u64;
        for li in 0..layers - 1 {
            for &a in &layer_states[li] {
                for &b in &layer_states[li + 1] {
                    if rng.chance(edge_prob) || b == layer_states[li + 1][0] {
                        svc += 1;
                        gr.add_edge(
                            a,
                            b,
                            NodeId::new(rng.below(peers as u64)),
                            ServiceId::new(svc),
                            ServiceCost {
                                work_per_sec: rng.uniform(1.0, 8.0),
                                setup_work: rng.uniform(0.5, 2.0),
                                bandwidth_kbps: 64,
                            },
                        );
                    }
                }
            }
        }
        let mut view = PeerView::new();
        for p in 0..peers as u64 {
            let mut info = PeerInfo::idle(rng.uniform(50.0, 150.0), 100_000);
            info.load = rng.uniform(0.0, 40.0);
            view.upsert(NodeId::new(p), info);
        }
        (gr, view, layer_states[0][0], layer_states[layers - 1][0])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The paper's core guarantee: among all simple QoS-feasible paths,
        /// the returned one has maximal fairness. Verified against a
        /// brute-force DFS enumeration.
        #[test]
        fn maxfairness_is_argmax(seed in 0u64..500) {
            let (gr, view, init, goal) = random_graph(seed, 4, 3, 6, 0.7);
            let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
            let result = allocate(&gr, &view, init, &[goal], &qos);

            // Brute force: enumerate simple paths by DFS and re-check
            // feasibility + fairness independently.
            let ids: Vec<NodeId> = view.ids().collect();
            let mut best: Option<f64> = None;
            let mut stack = vec![(init, Vec::<EdgeId>::new())];
            while let Some((v, path)) = stack.pop() {
                if v == goal {
                    // feasibility: accumulate per-peer work/bw
                    let mut work: Vec<(NodeId, f64)> = Vec::new();
                    let mut est = 0.0;
                    let mut feasible = true;
                    for &eid in &path {
                        let e = gr.edge(eid);
                        let info = view.get(e.peer).unwrap();
                        let w = work.iter_mut().find(|(p, _)| *p == e.peer);
                        match w {
                            Some(entry) => entry.1 += e.cost.work_per_sec,
                            None => work.push((e.peer, e.cost.work_per_sec)),
                        }
                        let acc = work.iter().find(|(p, _)| *p == e.peer).unwrap().1;
                        if acc > info.capacity - info.load + 1e-9 {
                            feasible = false;
                            break;
                        }
                        est += e.cost.setup_work / info.available_capacity() + 0.020;
                        if est > qos.deadline.as_secs_f64() {
                            feasible = false;
                            break;
                        }
                    }
                    if feasible {
                        let mut loads = view.loads();
                        for (p, w) in &work {
                            let i = ids.iter().position(|n| n == p).unwrap();
                            loads[i] += w;
                        }
                        let f = fairness_index(&loads);
                        best = Some(best.map_or(f, |b: f64| b.max(f)));
                    }
                    continue;
                }
                for e in gr.out_edges(v) {
                    let revisit = e.to == init
                        || path.iter().any(|&pe| gr.edge(pe).to == e.to);
                    if revisit {
                        continue;
                    }
                    let mut np = path.clone();
                    np.push(e.id);
                    stack.push((e.to, np));
                }
            }

            match (result, best) {
                (Ok(a), Some(b)) => prop_assert!((a.fairness - b).abs() < 1e-9,
                    "allocator {} vs brute force {}", a.fairness, b),
                (Err(AllocError::NoFeasiblePath{..}), None) => {}
                (r, b) => prop_assert!(false, "disagree: {r:?} vs brute {b:?}"),
            }
        }

        /// Allocation never violates the CPU sustainability invariant.
        #[test]
        fn allocation_respects_capacity(seed in 0u64..500) {
            let (gr, view, init, goal) = random_graph(seed, 5, 3, 4, 0.6);
            let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
            if let Ok(a) = allocate(&gr, &view, init, &[goal], &qos) {
                for (peer, w) in &a.load_deltas {
                    let info = view.get(*peer).unwrap();
                    prop_assert!(info.load + w <= info.capacity + 1e-6);
                }
                // And the path is connected init -> goal.
                let mut v = init;
                for &eid in &a.path {
                    let e = gr.edge(eid);
                    prop_assert_eq!(e.from, v);
                    v = e.to;
                }
                prop_assert_eq!(v, goal);
            }
        }
    }
}

#[cfg(test)]
mod bestfirst_tests {
    use super::*;
    use crate::media::MediaFormat;
    use crate::peerview::PeerInfo;

    fn setup() -> (ResourceGraph, PeerView, StateId, StateId, QosSpec) {
        let (gr, _) = ResourceGraph::figure1();
        let mut view = PeerView::new();
        for p in 1..=5u64 {
            view.upsert(NodeId::new(p), PeerInfo::idle(100.0, 10_000));
        }
        let init = gr.state_of(MediaFormat::paper_source()).unwrap();
        let goal = gr.state_of(MediaFormat::paper_target()).unwrap();
        (
            gr,
            view,
            init,
            goal,
            QosSpec::with_deadline(SimDuration::from_secs(10)),
        )
    }

    fn with_mode(mode: ExplorationMode, cap: usize) -> FairnessAllocator {
        FairnessAllocator {
            params: AllocParams {
                mode,
                max_explored: cap,
                ..AllocParams::default()
            },
            kind: AllocatorKind::MaxFairness,
        }
    }

    #[test]
    fn bestfirst_matches_full_enumeration_uncapped() {
        let (gr, view, init, goal, qos) = setup();
        let full = with_mode(ExplorationMode::AllSimplePaths, 200_000)
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .unwrap();
        let best = with_mode(ExplorationMode::BestFirst, 200_000)
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .unwrap();
        // Same path space explored exhaustively ⇒ same optimum.
        assert!((full.fairness - best.fairness).abs() < 1e-12);
        assert_eq!(full.path, best.path);
    }

    #[test]
    fn bestfirst_beats_truncated_bfs_on_dense_graphs() {
        // A dense layered graph where a tight cap truncates BFS before it
        // reaches the well-balanced deep paths.
        use crate::media::{Codec, Resolution};
        use crate::service::ServiceCost;
        use arm_util::ServiceId;
        let mut rng = DetRng::new(3);
        let mut gr = ResourceGraph::new();
        let mut fmt = 0u32;
        let mut fresh = |gr: &mut ResourceGraph| {
            fmt += 1;
            gr.intern_state(MediaFormat::new(
                Codec::ALL[fmt as usize % Codec::ALL.len()],
                Resolution::new(100 + fmt as u16, 100),
                fmt,
            ))
        };
        let layers = 5usize;
        let width = 6usize;
        let mut layer_states = Vec::new();
        for li in 0..layers {
            let w = if li == 0 || li == layers - 1 {
                1
            } else {
                width
            };
            layer_states.push((0..w).map(|_| fresh(&mut gr)).collect::<Vec<_>>());
        }
        let mut svc = 0u64;
        for li in 0..layers - 1 {
            for &a in &layer_states[li] {
                for &b in &layer_states[li + 1] {
                    svc += 1;
                    gr.add_edge(
                        a,
                        b,
                        NodeId::new(rng.below(24)),
                        ServiceId::new(svc),
                        ServiceCost {
                            work_per_sec: rng.uniform(1.0, 8.0),
                            setup_work: 0.5,
                            bandwidth_kbps: 64,
                        },
                    );
                }
            }
        }
        let mut view = PeerView::new();
        for p in 0..24u64 {
            let mut info = PeerInfo::idle(100.0, 1_000_000);
            info.load = rng.uniform(0.0, 40.0);
            view.upsert(NodeId::new(p), info);
        }
        let init = layer_states[0][0];
        let goal = layer_states[layers - 1][0];
        let qos = QosSpec::with_deadline(SimDuration::from_secs(60));

        // Average over several randomised load refreshes.
        let mut wins = 0;
        let mut ties = 0;
        let trials = 10;
        for t in 0..trials {
            let mut v = view.clone();
            let mut r2 = DetRng::new(100 + t);
            let ids: Vec<NodeId> = v.ids().collect();
            for id in ids {
                v.get_mut(id).unwrap().load = r2.uniform(0.0, 50.0);
            }
            let cap = 60; // far below the full path count
            let bfs = with_mode(ExplorationMode::AllSimplePaths, cap).allocate(
                &gr,
                &v,
                init,
                &[goal],
                &qos,
                None,
            );
            let best = with_mode(ExplorationMode::BestFirst, cap).allocate(
                &gr,
                &v,
                init,
                &[goal],
                &qos,
                None,
            );
            match (bfs, best) {
                (Ok(b), Ok(bf)) => {
                    if bf.fairness > b.fairness + 1e-12 {
                        wins += 1;
                    } else if (bf.fairness - b.fairness).abs() <= 1e-12 {
                        ties += 1;
                    }
                }
                (Err(_), Ok(_)) => wins += 1,
                _ => {}
            }
        }
        assert!(
            wins + ties >= trials * 7 / 10,
            "best-first should match or beat truncated BFS most of the time: \
             {wins} wins, {ties} ties of {trials}"
        );
        assert!(wins >= 1, "and strictly win at least once ({wins})");
    }

    #[test]
    fn bestfirst_is_deterministic() {
        let (gr, view, init, goal, qos) = setup();
        let a = with_mode(ExplorationMode::BestFirst, 50)
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .unwrap();
        let b = with_mode(ExplorationMode::BestFirst, 50)
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .unwrap();
        assert_eq!(a.path, b.path);
    }
}

#[cfg(test)]
mod bnb_tests {
    use super::*;
    use crate::media::{Codec, MediaFormat, Resolution};
    use crate::peerview::PeerInfo;
    use crate::service::ServiceCost;
    use arm_util::ServiceId;
    use proptest::prelude::*;

    /// Random layered DAG with *duplicate* service edges (replicated
    /// instances of the same hop on different — and sometimes the same —
    /// peers), so dominance collapse has something to bite on.
    fn random_graph(
        seed: u64,
        layers: usize,
        width: usize,
        peers: usize,
        edge_prob: f64,
        duplicates: usize,
    ) -> (ResourceGraph, PeerView, StateId, StateId) {
        let mut rng = DetRng::new(seed);
        let mut gr = ResourceGraph::new();
        let mut layer_states: Vec<Vec<StateId>> = Vec::new();
        let mut fmt_id = 0u32;
        let mut fresh_format = || {
            fmt_id += 1;
            MediaFormat::new(
                Codec::ALL[(fmt_id as usize) % Codec::ALL.len()],
                Resolution::new(100 + fmt_id as u16, 100),
                fmt_id,
            )
        };
        for li in 0..layers {
            let w = if li == 0 || li == layers - 1 {
                1
            } else {
                1 + rng.index(width)
            };
            layer_states.push((0..w).map(|_| gr.intern_state(fresh_format())).collect());
        }
        let mut svc = 0u64;
        for li in 0..layers - 1 {
            for &a in &layer_states[li] {
                for &b in &layer_states[li + 1] {
                    if rng.chance(edge_prob) || b == layer_states[li + 1][0] {
                        let copies = 1 + rng.index(duplicates.max(1));
                        let cost = ServiceCost {
                            work_per_sec: rng.uniform(1.0, 8.0),
                            setup_work: rng.uniform(0.5, 2.0),
                            bandwidth_kbps: 64,
                        };
                        for _ in 0..copies {
                            svc += 1;
                            gr.add_edge(
                                a,
                                b,
                                NodeId::new(rng.below(peers as u64)),
                                ServiceId::new(svc),
                                cost,
                            );
                        }
                    }
                }
            }
        }
        let mut view = PeerView::new();
        for p in 0..peers as u64 {
            let mut info = PeerInfo::idle(rng.uniform(50.0, 150.0), 100_000);
            info.load = rng.uniform(0.0, 40.0);
            view.upsert(NodeId::new(p), info);
        }
        (gr, view, layer_states[0][0], layer_states[layers - 1][0])
    }

    fn alloc_with(mode: ExplorationMode, kind: AllocatorKind) -> FairnessAllocator {
        FairnessAllocator {
            params: AllocParams {
                mode,
                ..AllocParams::default()
            },
            kind,
        }
    }

    /// Bitwise equality of two allocation results (path, fairness,
    /// estimate and per-peer load deltas), the contract BranchAndBound
    /// guarantees.
    fn assert_identical(a: &Result<Allocation, AllocError>, b: &Result<Allocation, AllocError>) {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.path, b.path, "paths differ");
                assert_eq!(
                    a.fairness.to_bits(),
                    b.fairness.to_bits(),
                    "fairness differs: {} vs {}",
                    a.fairness,
                    b.fairness
                );
                assert_eq!(a.est_response, b.est_response, "estimates differ");
                assert_eq!(a.load_deltas.len(), b.load_deltas.len());
                for (x, y) in a.load_deltas.iter().zip(&b.load_deltas) {
                    assert_eq!(x.0, y.0);
                    assert_eq!(x.1.to_bits(), y.1.to_bits(), "load delta differs");
                }
            }
            (Err(x), Err(y)) => {
                // Same failure class; explored counts legitimately differ.
                assert_eq!(
                    std::mem::discriminant(x),
                    std::mem::discriminant(y),
                    "error kinds differ: {x:?} vs {y:?}"
                );
            }
            (x, y) => panic!("results disagree: {x:?} vs {y:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The headline identity: branch-and-bound returns the *same*
        /// allocation as exhaustive enumeration — path, fairness, estimate
        /// and load deltas, bit for bit — while exploring fewer prefixes.
        #[test]
        fn bnb_identical_to_exhaustive(seed in 0u64..400) {
            let (gr, view, init, goal) = random_graph(seed, 5, 3, 6, 0.7, 2);
            let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
            let full = alloc_with(ExplorationMode::AllSimplePaths, AllocatorKind::MaxFairness)
                .allocate(&gr, &view, init, &[goal], &qos, None);
            let bnb = alloc_with(ExplorationMode::BranchAndBound, AllocatorKind::MaxFairness)
                .allocate(&gr, &view, init, &[goal], &qos, None);
            assert_identical(&full, &bnb);
            if let (Ok(f), Ok(b)) = (&full, &bnb) {
                prop_assert!(
                    b.stats.explored_prefixes <= f.stats.explored_prefixes,
                    "bnb explored more ({}) than exhaustive ({})",
                    b.stats.explored_prefixes,
                    f.stats.explored_prefixes
                );
            }
        }

        /// BranchAndBound under a non-fairness objective silently falls
        /// back to exhaustive enumeration — never a wrong answer.
        #[test]
        fn bnb_fallback_for_other_objectives(seed in 0u64..150) {
            let (gr, view, init, goal) = random_graph(seed, 4, 3, 5, 0.7, 2);
            let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
            for kind in [AllocatorKind::LeastLoaded, AllocatorKind::MinWork] {
                let full = alloc_with(ExplorationMode::AllSimplePaths, kind)
                    .allocate(&gr, &view, init, &[goal], &qos, None);
                let bnb = alloc_with(ExplorationMode::BranchAndBound, kind)
                    .allocate(&gr, &view, init, &[goal], &qos, None);
                assert_identical(&full, &bnb);
            }
        }
    }

    #[test]
    fn bnb_prunes_substantially_on_dense_graphs() {
        // A wide graph with replicated service edges: exhaustive
        // enumeration visits thousands of prefixes, the pruned search an
        // order of magnitude fewer.
        let (gr, view, init, goal) = random_graph(42, 6, 5, 12, 0.9, 3);
        let qos = QosSpec::with_deadline(SimDuration::from_secs(60));
        let full = alloc_with(ExplorationMode::AllSimplePaths, AllocatorKind::MaxFairness)
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .unwrap();
        let bnb = alloc_with(ExplorationMode::BranchAndBound, AllocatorKind::MaxFairness)
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .unwrap();
        assert_eq!(full.path, bnb.path);
        assert_eq!(full.fairness.to_bits(), bnb.fairness.to_bits());
        assert!(
            bnb.stats.explored_prefixes * 2 <= full.stats.explored_prefixes,
            "expected ≥2× reduction: bnb {} vs full {}",
            bnb.stats.explored_prefixes,
            full.stats.explored_prefixes
        );
        assert!(
            bnb.stats.pruned_bound > 0,
            "bound pruning never fired on a dense graph"
        );
    }

    #[test]
    fn dominance_collapses_parallel_hops_on_one_peer() {
        // Two identical service instances a→b on the same peer give two
        // prefixes at b with the same vertex set, peers, profile and
        // estimate: the second is dominated by the first.
        let mut gr = ResourceGraph::new();
        let fmt = |k: u32| MediaFormat::new(Codec::H264, Resolution::new(100 + k as u16, 100), k);
        let (a, b, c) = (
            gr.intern_state(fmt(1)),
            gr.intern_state(fmt(2)),
            gr.intern_state(fmt(3)),
        );
        let cost = ServiceCost {
            work_per_sec: 2.0,
            setup_work: 0.5,
            bandwidth_kbps: 64,
        };
        gr.add_edge(a, b, NodeId::new(1), ServiceId::new(1), cost);
        gr.add_edge(a, b, NodeId::new(1), ServiceId::new(2), cost);
        gr.add_edge(b, c, NodeId::new(2), ServiceId::new(3), cost);
        let mut view = PeerView::new();
        for p in 1..=3 {
            view.upsert(NodeId::new(p), PeerInfo::idle(100.0, 10_000));
        }
        let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
        let full = alloc_with(ExplorationMode::AllSimplePaths, AllocatorKind::MaxFairness)
            .allocate(&gr, &view, a, &[c], &qos, None);
        let bnb = alloc_with(ExplorationMode::BranchAndBound, AllocatorKind::MaxFairness).allocate(
            &gr,
            &view,
            a,
            &[c],
            &qos,
            None,
        );
        assert_identical(&full, &bnb);
        let bnb = bnb.unwrap();
        assert_eq!(bnb.stats.pruned_dominated, 1, "{:?}", bnb.stats);
        assert_eq!(bnb.path, vec![EdgeId(0), EdgeId(2)]);
    }

    #[test]
    fn random_without_rng_falls_back_deterministically() {
        let (gr, view, init, goal) = random_graph(7, 4, 3, 5, 0.8, 1);
        let qos = QosSpec::with_deadline(SimDuration::from_secs(30));
        let a = alloc_with(ExplorationMode::AllSimplePaths, AllocatorKind::Random)
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .unwrap();
        let ff = alloc_with(
            ExplorationMode::AllSimplePaths,
            AllocatorKind::FirstFeasible,
        )
        .allocate(&gr, &view, init, &[goal], &qos, None)
        .unwrap();
        // No RNG: "random" degrades to the first feasible candidate, but
        // keeps scoring every candidate (explored counts differ).
        assert_eq!(a.path, ff.path);
    }

    #[test]
    fn stats_roundtrip_and_merge() {
        let mut a = AllocStats {
            explored_prefixes: 3,
            pruned_bound: 2,
            pruned_dominated: 1,
        };
        a.merge(&AllocStats {
            explored_prefixes: 10,
            pruned_bound: 20,
            pruned_dominated: 30,
        });
        assert_eq!(a.explored_prefixes, 13);
        assert_eq!(a.pruned_bound, 22);
        assert_eq!(a.pruned_dominated, 31);
    }
}
