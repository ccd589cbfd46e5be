//! The domain resource graph `G_r` (§3.4, Fig. 1A).
//!
//! "Each vertex `v` of `G_r` represents an application state, while each
//! edge `e` represents a service, accompanied by its current load." For the
//! transcoding application a state is a [`MediaFormat`]; an edge is a
//! specific service *instance* — a transcoder of a given kind hosted on a
//! given peer. Multiple edges may connect the same pair of states (the
//! same transcode offered by different peers: `e2` and `e3` in Fig. 1).
//!
//! The RM updates the graph as peers join, leave or fail: "the resource
//! graph is also updated, by removing the edges that were referring to the
//! services offered by the particular peer" (§4.1) — that is
//! [`ResourceGraph::remove_peer`].

use crate::media::{Codec, MediaFormat, Resolution};
use crate::service::ServiceCost;
use arm_util::{NodeId, ServiceId};
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::BTreeMap;

/// Index of an application-state vertex in a [`ResourceGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StateId(pub u32);

/// Index of a service edge in a [`ResourceGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

/// A service instance: one edge of `G_r`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceEdge {
    /// This edge's id.
    pub id: EdgeId,
    /// Input application state.
    pub from: StateId,
    /// Output application state.
    pub to: StateId,
    /// The peer hosting the service instance.
    pub peer: NodeId,
    /// The service type offered.
    pub service: ServiceId,
    /// Cost of one session through this edge.
    pub cost: ServiceCost,
    /// Current number of sessions flowing through this edge — the "current
    /// load" annotation of §3.4.
    pub active_sessions: u32,
    /// False once the hosting peer has left; dead edges are skipped during
    /// search and compacted lazily.
    pub alive: bool,
}

/// The resource graph `G_r` of a domain.
///
/// Serializes as just `{states, edges}`; the format→vertex index and the
/// adjacency lists are derived data and are rebuilt on deserialization
/// (`MediaFormat` also cannot be a JSON map key).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceGraph {
    states: Vec<MediaFormat>,
    state_index: BTreeMap<MediaFormat, StateId>,
    edges: Vec<ResourceEdge>,
    out: Vec<Vec<EdgeId>>,
    /// Bumped on every *structural* change (vertex interned, edge added,
    /// peer removed) — never on load/session updates. Derived data is
    /// valid exactly while the epoch it was computed at still matches.
    epoch: u64,
}

impl Serialize for ResourceGraph {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("states".into(), self.states.to_value()),
            ("edges".into(), self.edges.to_value()),
            ("epoch".into(), self.epoch.to_value()),
        ])
    }
}

impl Deserialize for ResourceGraph {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let states = Vec::<MediaFormat>::from_value(v.field("states"))?;
        let edges = Vec::<ResourceEdge>::from_value(v.field("edges"))?;
        // Absent in snapshots written before epochs existed: treat as 0.
        let epoch = u64::from_value(v.field("epoch")).unwrap_or(0);
        let mut state_index = BTreeMap::new();
        for (i, &f) in states.iter().enumerate() {
            if state_index.insert(f, StateId(i as u32)).is_some() {
                return Err(Error::msg(format!("duplicate resource-graph state {f}")));
            }
        }
        let mut out: Vec<Vec<EdgeId>> = vec![Vec::new(); states.len()];
        for (i, e) in edges.iter().enumerate() {
            if e.id.0 as usize != i {
                return Err(Error::msg(format!(
                    "resource-graph edge at index {i} claims id {:?}",
                    e.id
                )));
            }
            let (from, to) = (e.from.0 as usize, e.to.0 as usize);
            if from >= states.len() || to >= states.len() {
                return Err(Error::msg(format!(
                    "resource-graph edge {i} references missing state ({from} or {to} >= {})",
                    states.len()
                )));
            }
            if let Some(list) = out.get_mut(from) {
                list.push(e.id);
            }
        }
        Ok(Self {
            states,
            state_index,
            edges,
            out,
            epoch,
        })
    }
}

impl ResourceGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an application state, returning its vertex id. Idempotent:
    /// the same format always maps to the same vertex.
    pub fn intern_state(&mut self, format: MediaFormat) -> StateId {
        if let Some(&id) = self.state_index.get(&format) {
            return id;
        }
        let id = StateId(crate::idx_u32(self.states.len()));
        self.states.push(format);
        self.out.push(Vec::new());
        self.state_index.insert(format, id);
        self.epoch += 1;
        id
    }

    /// The structural epoch: bumped on vertex/edge additions and peer
    /// removals, never on load or session-count updates.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Looks up the vertex for a format, if present.
    pub fn state_of(&self, format: MediaFormat) -> Option<StateId> {
        self.state_index.get(&format).copied()
    }

    /// The format labelling a vertex.
    pub fn format(&self, state: StateId) -> MediaFormat {
        // StateIds are issued by this graph and never removed.
        debug_assert!((state.0 as usize) < self.states.len());
        self.states[state.0 as usize]
    }

    /// Adds a service edge and returns its id.
    pub fn add_edge(
        &mut self,
        from: StateId,
        to: StateId,
        peer: NodeId,
        service: ServiceId,
        cost: ServiceCost,
    ) -> EdgeId {
        let id = EdgeId(crate::idx_u32(self.edges.len()));
        self.edges.push(ResourceEdge {
            id,
            from,
            to,
            peer,
            service,
            cost,
            active_sessions: 0,
            alive: true,
        });
        // `from` was interned by this graph, so the adjacency slot exists.
        debug_assert!((from.0 as usize) < self.out.len());
        if let Some(list) = self.out.get_mut(from.0 as usize) {
            list.push(id);
        }
        self.epoch += 1;
        id
    }

    /// Convenience: interns both endpoint formats and adds the edge.
    pub fn add_service(
        &mut self,
        input: MediaFormat,
        output: MediaFormat,
        peer: NodeId,
        service: ServiceId,
        cost: ServiceCost,
    ) -> EdgeId {
        let from = self.intern_state(input);
        let to = self.intern_state(output);
        self.add_edge(from, to, peer, service, cost)
    }

    /// The edge with the given id.
    pub fn edge(&self, id: EdgeId) -> &ResourceEdge {
        // EdgeIds are issued by this graph and never removed (edges are
        // only marked dead), so the slot always exists.
        debug_assert!((id.0 as usize) < self.edges.len());
        &self.edges[id.0 as usize]
    }

    /// Mutable access to an edge (session counting).
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut ResourceEdge {
        debug_assert!((id.0 as usize) < self.edges.len());
        &mut self.edges[id.0 as usize]
    }

    /// Live outgoing edges of a vertex.
    pub fn out_edges(&self, state: StateId) -> impl Iterator<Item = &ResourceEdge> {
        self.out
            .get(state.0 as usize)
            .into_iter()
            .flatten()
            .filter_map(|&e| self.edges.get(e.0 as usize))
            .filter(|e| e.alive)
    }

    /// Number of vertices (application states).
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().filter(|e| e.alive).count()
    }

    /// Total number of edge slots ever issued (live + dead). `EdgeId`s are
    /// dense in `0..edge_capacity()`, so this sizes id-indexed side tables.
    pub fn edge_capacity(&self) -> usize {
        self.edges.len()
    }

    /// All live edges.
    pub fn edges(&self) -> impl Iterator<Item = &ResourceEdge> {
        self.edges.iter().filter(|e| e.alive)
    }

    /// All vertices with their formats.
    pub fn states(&self) -> impl Iterator<Item = (StateId, MediaFormat)> + '_ {
        self.states
            .iter()
            .enumerate()
            .map(|(i, &f)| (StateId(i as u32), f))
    }

    /// Marks every edge hosted by `peer` dead (§4.1: peer disconnect).
    /// Returns the ids of the removed edges.
    pub fn remove_peer(&mut self, peer: NodeId) -> Vec<EdgeId> {
        let mut removed = Vec::new();
        for e in &mut self.edges {
            if e.alive && e.peer == peer {
                e.alive = false;
                removed.push(e.id);
            }
        }
        if !removed.is_empty() {
            self.epoch += 1;
        }
        removed
    }

    /// True if the peer hosts at least one live edge.
    pub fn has_peer(&self, peer: NodeId) -> bool {
        self.edges.iter().any(|e| e.alive && e.peer == peer)
    }

    /// Increments the session count along a path (allocation committed).
    /// Not a structural change: the epoch is untouched.
    pub fn open_sessions(&mut self, path: &[EdgeId]) {
        for &e in path {
            if let Some(edge) = self.edges.get_mut(e.0 as usize) {
                edge.active_sessions += 1;
            }
        }
    }

    /// Decrements the session count along a path (session ended).
    pub fn close_sessions(&mut self, path: &[EdgeId]) {
        for &e in path {
            if let Some(edge) = self.edges.get_mut(e.0 as usize) {
                edge.active_sessions = edge.active_sessions.saturating_sub(1);
            }
        }
    }

    /// Builds the exact resource graph of the paper's Figure 1(A).
    ///
    /// Returns `(graph, edge_ids)` where `edge_ids[k]` is the paper's
    /// `e_{k+1}` (so `edge_ids[0]` is `e1` … `edge_ids[7]` is `e8`). The
    /// simple paths from `v1` (800×600 MPEG-2 @ 512 kbps) to `v3`
    /// (640×480 MPEG-4 @ 64 kbps) are `{e1,e2}`, `{e1,e3}` and
    /// `{e1,e4,e5,e8}`, exactly as enumerated in §4.3.
    pub fn figure1() -> (Self, Vec<EdgeId>) {
        let mut g = Self::new();
        // Vertex labels: the paper names only v1 and v3; intermediates are
        // chosen as plausible transcoding waypoints.
        let v1 = g.intern_state(MediaFormat::paper_source());
        let v2 = g.intern_state(MediaFormat::new(Codec::Mpeg2, Resolution::VGA, 256));
        let v3 = g.intern_state(MediaFormat::paper_target());
        let v4 = g.intern_state(MediaFormat::new(Codec::Mpeg4, Resolution::VGA, 256));
        let v5 = g.intern_state(MediaFormat::new(Codec::Mpeg4, Resolution::VGA, 128));
        let v6 = g.intern_state(MediaFormat::new(Codec::H263, Resolution::QCIF, 64));

        let cost = |work: f64, bw: u32| ServiceCost {
            work_per_sec: work,
            setup_work: work * 0.25,
            bandwidth_kbps: bw,
        };

        // Transcoders T1..T8 hosted across five peers.
        let p = |n: u64| NodeId::new(n);
        let s = |n: u64| ServiceId::new(n);
        let e1 = g.add_edge(v1, v2, p(1), s(1), cost(8.0, 768));
        let e2 = g.add_edge(v2, v3, p(2), s(2), cost(6.0, 320));
        let e3 = g.add_edge(v2, v3, p(3), s(3), cost(6.0, 320));
        let e4 = g.add_edge(v2, v4, p(4), s(4), cost(5.0, 512));
        let e5 = g.add_edge(v4, v5, p(5), s(5), cost(3.0, 384));
        let e6 = g.add_edge(v4, v6, p(4), s(6), cost(4.0, 320));
        let e7 = g.add_edge(v6, v1, p(5), s(7), cost(9.0, 576));
        let e8 = g.add_edge(v5, v3, p(2), s(8), cost(2.0, 192));

        (g, vec![e1, e2, e3, e4, e5, e6, e7, e8])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut g = ResourceGraph::new();
        let a = g.intern_state(MediaFormat::paper_source());
        let b = g.intern_state(MediaFormat::paper_source());
        assert_eq!(a, b);
        assert_eq!(g.num_states(), 1);
        assert_eq!(g.format(a), MediaFormat::paper_source());
        assert_eq!(g.state_of(MediaFormat::paper_source()), Some(a));
        assert_eq!(g.state_of(MediaFormat::paper_target()), None);
    }

    #[test]
    fn figure1_shape() {
        let (g, e) = ResourceGraph::figure1();
        assert_eq!(g.num_states(), 6);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(e.len(), 8);
        // v1 has exactly one outgoing edge: e1.
        let v1 = g.state_of(MediaFormat::paper_source()).unwrap();
        let out: Vec<EdgeId> = g.out_edges(v1).map(|e| e.id).collect();
        assert_eq!(out, vec![e[0]]);
        // v2 fans out to e2, e3, e4.
        let v2 = g.edge(e[0]).to;
        let out2: Vec<EdgeId> = g.out_edges(v2).map(|e| e.id).collect();
        assert_eq!(out2, vec![e[1], e[2], e[3]]);
    }

    #[test]
    fn remove_peer_kills_its_edges() {
        let (mut g, e) = ResourceGraph::figure1();
        // Peer 2 hosts e2 and e8.
        let removed = g.remove_peer(NodeId::new(2));
        assert_eq!(removed, vec![e[1], e[7]]);
        assert_eq!(g.num_edges(), 6);
        assert!(!g.has_peer(NodeId::new(2)));
        assert!(g.has_peer(NodeId::new(3)));
        // Dead edges no longer appear in adjacency.
        let v2 = g.edge(e[0]).to;
        let out2: Vec<EdgeId> = g.out_edges(v2).map(|e| e.id).collect();
        assert_eq!(out2, vec![e[2], e[3]]);
    }

    #[test]
    fn session_counting() {
        let (mut g, e) = ResourceGraph::figure1();
        let path = [e[0], e[1]];
        g.open_sessions(&path);
        g.open_sessions(&path);
        assert_eq!(g.edge(e[0]).active_sessions, 2);
        g.close_sessions(&path);
        assert_eq!(g.edge(e[0]).active_sessions, 1);
        g.close_sessions(&path);
        g.close_sessions(&path); // saturates at zero
        assert_eq!(g.edge(e[0]).active_sessions, 0);
    }

    #[test]
    fn epoch_tracks_structural_changes_only() {
        let mut g = ResourceGraph::new();
        assert_eq!(g.epoch(), 0);
        let a = g.intern_state(MediaFormat::paper_source());
        let e0 = g.epoch();
        assert!(e0 > 0);
        // Re-interning an existing format is a no-op.
        g.intern_state(MediaFormat::paper_source());
        assert_eq!(g.epoch(), e0);
        let b = g.intern_state(MediaFormat::paper_target());
        let eid = g.add_edge(a, b, NodeId::new(1), ServiceId::new(1), ServiceCost::FREE);
        let e1 = g.epoch();
        assert!(e1 > e0);
        // Session counting is load, not structure.
        g.open_sessions(&[eid]);
        g.close_sessions(&[eid]);
        assert_eq!(g.epoch(), e1);
        // Removing an absent peer is a no-op; removing a real one bumps.
        g.remove_peer(NodeId::new(9));
        assert_eq!(g.epoch(), e1);
        g.remove_peer(NodeId::new(1));
        assert!(g.epoch() > e1);
    }

    #[test]
    fn parallel_edges_allowed() {
        let (g, e) = ResourceGraph::figure1();
        // e2 and e3 connect the same states via different peers.
        assert_eq!(g.edge(e[1]).from, g.edge(e[2]).from);
        assert_eq!(g.edge(e[1]).to, g.edge(e[2]).to);
        assert_ne!(g.edge(e[1]).peer, g.edge(e[2]).peer);
    }

    #[test]
    fn states_iterator_covers_all() {
        let (g, _) = ResourceGraph::figure1();
        assert_eq!(g.states().count(), 6);
        assert_eq!(g.edges().count(), 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use arm_util::DetRng;
    use proptest::prelude::*;

    fn random_graph(seed: u64, states: usize, edges: usize, peers: u64) -> ResourceGraph {
        let mut rng = DetRng::new(seed);
        let mut gr = ResourceGraph::new();
        let ids: Vec<StateId> = (0..states)
            .map(|i| {
                gr.intern_state(MediaFormat::new(
                    Codec::ALL[i % Codec::ALL.len()],
                    Resolution::new(64 + i as u16, 64),
                    1 + i as u32,
                ))
            })
            .collect();
        for e in 0..edges {
            let a = ids[rng.index(ids.len())];
            let b = ids[rng.index(ids.len())];
            gr.add_edge(
                a,
                b,
                NodeId::new(rng.below(peers)),
                ServiceId::new(e as u64),
                ServiceCost::FREE,
            );
        }
        gr
    }

    proptest! {
        #[test]
        fn remove_peer_removes_exactly_its_edges(
            seed in 0u64..200,
            states in 2usize..12,
            edges in 1usize..40,
            peers in 1u64..6,
            victim in 0u64..6,
        ) {
            let mut gr = random_graph(seed, states, edges, peers);
            let victim = NodeId::new(victim % peers);
            let victim_edges = gr.edges().filter(|e| e.peer == victim).count();
            let before = gr.num_edges();
            let removed = gr.remove_peer(victim);
            prop_assert_eq!(removed.len(), victim_edges);
            prop_assert_eq!(gr.num_edges(), before - victim_edges);
            prop_assert!(!gr.has_peer(victim));
            // Adjacency lists never yield dead edges.
            for (sid, _) in gr.states() {
                for e in gr.out_edges(sid) {
                    prop_assert!(e.alive);
                    prop_assert_ne!(e.peer, victim);
                }
            }
        }

        #[test]
        fn adjacency_matches_edge_list(
            seed in 0u64..200,
            states in 2usize..12,
            edges in 0usize..40,
        ) {
            let gr = random_graph(seed, states, edges, 4);
            let via_adjacency: usize = gr
                .states()
                .map(|(sid, _)| gr.out_edges(sid).count())
                .sum();
            prop_assert_eq!(via_adjacency, gr.num_edges());
            // Every edge's `from` adjacency contains it.
            for e in gr.edges() {
                prop_assert!(gr.out_edges(e.from).any(|x| x.id == e.id));
            }
        }

        #[test]
        fn session_counts_never_negative(
            seed in 0u64..100,
            opens in 0usize..5,
            closes in 0usize..10,
        ) {
            let mut gr = random_graph(seed, 5, 10, 3);
            let path: Vec<EdgeId> = gr.edges().take(3).map(|e| e.id).collect();
            for _ in 0..opens {
                gr.open_sessions(&path);
            }
            for _ in 0..closes {
                gr.close_sessions(&path);
            }
            for &eid in &path {
                let expected = opens.saturating_sub(closes) as u32;
                prop_assert_eq!(gr.edge(eid).active_sessions, expected);
            }
        }
    }
}
