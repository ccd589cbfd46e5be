//! The traced DES driver: `Simulation::new` + `Simulation::run` rebuilt from
//! the crates' public pieces, with every layer call timed.
//!
//! The harness owns its event loop, so the only way to split a sim run by
//! layer without putting spans into the program is to drive the same loop
//! from here. The equivalence gate ([`Digest`]) proves the copy is exact:
//! a replay must reproduce the shipped `Simulation::run` tallies for the
//! same scenario, or the traced run fails. Keep this file in step with
//! `crates/sim/src/harness.rs`.

use crate::stats::TaskLedger;
use arm_core::{Action, AllocMetrics, Event, PeerNode, Role, TimerKind};
use arm_des::Simulator;
use arm_model::task::TaskOutcome;
use arm_net::churn::{ChurnEvent, ChurnKind, ChurnTrace};
use arm_net::{NetworkModel, Topology};
use arm_proto::{Message, TraceCtx};
use arm_sim::{OutcomeCounts, ScenarioConfig, SimReport};
use arm_store::{Intent, Store, StoreSnapshot};
use arm_util::{DetRng, NodeId, SimTime};
use arm_workload::{generate_inventories, generate_tasks, Inventory};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// Messages kept for the after-run codec timing.
const WIRE_SAMPLE_CAP: usize = 4096;

/// The deterministic tallies both the shipped harness and the driver
/// produce. Two runs of one scenario must agree on every field.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub submitted: usize,
    pub outcomes: OutcomeCounts,
    pub messages: u64,
    pub message_bytes: u64,
    pub messages_lost: u64,
    pub redirects: u64,
    pub promotions: usize,
    pub repairs: (usize, usize),
    pub reassignments: usize,
    pub final_domains: usize,
    pub final_peers: usize,
    pub events: u64,
    pub max_queue_depth: u64,
    pub alloc: AllocMetrics,
    pub fairness_samples: Vec<(f64, f64)>,
    pub response_samples: usize,
}

impl Digest {
    /// The digest of a shipped-harness report.
    pub fn of_report(r: &SimReport) -> Digest {
        Digest {
            submitted: r.submitted,
            outcomes: r.outcomes,
            messages: r.message_count(),
            message_bytes: r.message_bytes(),
            messages_lost: r.messages_lost,
            redirects: r.redirects,
            promotions: r.promotions,
            repairs: (r.repairs_ok, r.repairs_failed),
            reassignments: r.reassignments,
            final_domains: r.final_domains,
            final_peers: r.final_peers,
            events: r.events_processed,
            max_queue_depth: r.max_queue_depth,
            alloc: r.alloc,
            fairness_samples: r.fairness_series.clone(),
            response_samples: r.response_time.count(),
        }
    }
}

/// Where the `on_event` time of one dispatch is booked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `task_query`, `task_redirect`, and a submission at an RM.
    Alloc,
    /// The Gossip timer and gossip digests.
    Gossip,
    /// Start, join request/redirect/accept and JoinRetry.
    Join,
    /// Heartbeats, backup replication, promotion, leave and shutdown.
    Liveness,
    /// SchedPoll, Adapt, compose, session end/timeout, reassign, replies.
    Session,
    /// Everything else (load reports, adverts, submissions at members).
    Other,
}

const LAYERS: usize = 6;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }

    /// The layer a message kind belongs to (shared with the live workload,
    /// which books the runtime's per-kind handler histograms the same way).
    pub fn of_kind(kind: &str) -> Layer {
        match kind {
            "task_query" | "task_redirect" => Layer::Alloc,
            "gossip" => Layer::Gossip,
            "join_request" | "join_redirect" | "join_accept" => Layer::Join,
            "heartbeat" | "heartbeat_ack" | "backup_update" | "promote" | "leave" => {
                Layer::Liveness
            }
            "compose" | "compose_ack" | "compose_nack" | "session_end" | "reassign"
            | "renegotiate" | "task_reply" => Layer::Session,
            _ => Layer::Other,
        }
    }

    fn of_event(event: &Event, role: Role) -> Layer {
        match event {
            Event::Msg { msg, .. } => Layer::of_kind(msg.kind()),
            Event::Timer(kind) => match kind {
                TimerKind::Gossip => Layer::Gossip,
                TimerKind::JoinRetry => Layer::Join,
                TimerKind::Heartbeat | TimerKind::Backup => Layer::Liveness,
                TimerKind::SchedPoll
                | TimerKind::Adapt
                | TimerKind::SessionEnd(_)
                | TimerKind::ComposeTimeout(_) => Layer::Session,
                TimerKind::Report => Layer::Other,
            },
            Event::SubmitTask(_) if role == Role::Rm => Layer::Alloc,
            Event::Start { .. } => Layer::Join,
            Event::Shutdown { .. } => Layer::Liveness,
            _ => Layer::Other,
        }
    }
}

/// Wall time by layer over one replay.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// `on_event` seconds per [`Layer`].
    pub handler_s: [f64; LAYERS],
    /// Duration of every allocation dispatch, seconds.
    pub alloc_calls: Vec<f64>,
    /// Seconds in the DES kernel (`step_until` + `schedule_at`).
    pub des_s: f64,
    /// Seconds in `NetworkModel::sample_sized`.
    pub net_s: f64,
    /// Wall seconds of the whole event loop.
    pub loop_s: f64,
}

impl Ledger {
    /// Handler seconds booked to `layer`.
    pub fn handler(&self, layer: Layer) -> f64 {
        self.handler_s[layer.index()]
    }

    /// Adds another replay's times.
    pub fn merge(&mut self, other: &Ledger) {
        for (mine, theirs) in self.handler_s.iter_mut().zip(other.handler_s) {
            *mine += theirs;
        }
        self.alloc_calls.extend_from_slice(&other.alloc_calls);
        self.des_s += other.des_s;
        self.net_s += other.net_s;
        self.loop_s += other.loop_s;
    }

    /// Loop time no layer accounts for (harness bookkeeping, sample ticks,
    /// the timer reads themselves).
    pub fn unaccounted_s(&self) -> f64 {
        self.loop_s - self.handler_s.iter().sum::<f64>() - self.des_s - self.net_s
    }
}

/// Everything one replay produced.
pub struct Replay {
    pub digest: Digest,
    pub ledger: Ledger,
    pub tasks: TaskLedger,
    pub horizon_s: f64,
    pub fairness: f64,
    pub domains_max: usize,
    pub submits_unjoined: u64,
    pub alloc: AllocMetrics,
    /// Every `Action::Persist` intent, in emission order.
    pub intents: Vec<Intent>,
    /// `(from, to, message, ctx)` of a capped sample of delivered sends.
    pub wire_sample: Vec<(NodeId, NodeId, Message, TraceCtx)>,
    /// `store_snapshot` + `install_snapshot` of the largest RM, µs.
    pub snapshot_us: f64,
    /// Every timed call, when the replay was asked to keep them.
    pub spans: Vec<Span>,
}

/// One timed call into a layer. Spans of one task share its trace id (the
/// envelope `trace_id`); DES kernel calls carry none (0).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub trace: u64,
    pub node: u64,
    pub name: &'static str,
    /// Start, seconds since the replay began.
    pub start_s: f64,
    pub dur_s: f64,
}

impl Span {
    /// One JSON line.
    pub fn to_json(self) -> String {
        format!(
            "{{\"trace\": {}, \"node\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"dur_us\": {:.3}}}",
            self.trace,
            self.node,
            self.name,
            self.start_s * 1e6,
            self.dur_s * 1e6
        )
    }
}

/// Span name of a dispatched event.
fn event_name(event: &Event) -> &'static str {
    match event {
        Event::Msg { msg, .. } => msg.kind(),
        Event::Timer(kind) => match kind {
            TimerKind::Heartbeat => "timer.heartbeat",
            TimerKind::Report => "timer.report",
            TimerKind::Gossip => "timer.gossip",
            TimerKind::Backup => "timer.backup",
            TimerKind::Adapt => "timer.adapt",
            TimerKind::SchedPoll => "timer.sched_poll",
            TimerKind::JoinRetry => "timer.join_retry",
            TimerKind::SessionEnd(_) => "timer.session_end",
            TimerKind::ComposeTimeout(_) => "timer.compose_timeout",
        },
        Event::Start { .. } => "start",
        Event::SubmitTask(_) => "submit",
        Event::Renegotiate { .. } => "renegotiate_local",
        Event::Shutdown { .. } => "shutdown",
        Event::Recover { .. } => "recover",
    }
}

enum SimEvent {
    Node(NodeId, Event),
    Churn(ChurnEvent),
    Sample,
}

struct Driver {
    cfg: ScenarioConfig,
    topo: Topology,
    net: NetworkModel,
    net_rng: DetRng,
    sim: Simulator<SimEvent>,
    nodes: BTreeMap<NodeId, PeerNode>,
    alive: BTreeSet<NodeId>,
    inventories: BTreeMap<NodeId, Inventory>,
    cluster_of: BTreeMap<NodeId, usize>,
    leaders: Vec<NodeId>,
    rejoin_counts: BTreeMap<NodeId, u64>,
    report: SimReport,
    ledger: Ledger,
    tasks: TaskLedger,
    domains_max: usize,
    submits_unjoined: u64,
    intents: Vec<Intent>,
    wire_sample: Vec<(NodeId, NodeId, Message, TraceCtx)>,
    wire_stride: u64,
    sends_seen: u64,
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

/// Replays one scenario through the driver, timing every layer call and,
/// with `keep_spans`, keeping each call as a [`Span`]. The snapshot timing
/// writes into `store_dir`.
pub fn replay(cfg: ScenarioConfig, store_dir: &Path, keep_spans: bool) -> Replay {
    let mut d = Driver::new(cfg);
    if keep_spans {
        d.spans = Some(Vec::new());
    }
    let started = Instant::now();
    d.epoch = started;
    let horizon = d.cfg.horizon;
    loop {
        let t = Instant::now();
        let next = d.sim.step_until(horizon);
        let dt = t.elapsed().as_secs_f64();
        d.ledger.des_s += dt;
        d.span(0, 0, "des.step", t, dt);
        let Some(scheduled) = next else { break };
        let now = scheduled.time;
        match scheduled.event {
            SimEvent::Node(target, event) => d.dispatch(now, target, event),
            SimEvent::Churn(ev) => d.apply_churn(now, ev),
            SimEvent::Sample => d.sample(now),
        }
    }
    d.ledger.loop_s = started.elapsed().as_secs_f64();
    d.finalize(store_dir)
}

impl Driver {
    /// `Simulation::new`, step for step.
    fn new(cfg: ScenarioConfig) -> Self {
        let root = DetRng::new(cfg.seed);
        let mut topo_rng = root.stream("topology");
        let topo = Topology::clustered(
            cfg.clusters,
            cfg.peers_per_cluster,
            cfg.spread,
            cfg.heterogeneity,
            &mut topo_rng,
            0,
        );
        let mut net = NetworkModel::new(cfg.latency, cfg.jitter, cfg.loss, &topo);
        if cfg.transmission_delay {
            net = net.with_transmission_delay();
        }
        let peers: Vec<NodeId> = topo.peers.iter().map(|p| p.id).collect();
        let leaders: Vec<NodeId> = (0..cfg.clusters)
            .map(|c| peers[c * cfg.peers_per_cluster])
            .collect();
        let cluster_of: BTreeMap<NodeId, usize> =
            topo.peers.iter().map(|p| (p.id, p.cluster)).collect();

        let mut wl = cfg.workload.clone();
        wl.horizon = SimTime::from_micros(
            cfg.horizon
                .as_micros()
                .saturating_sub(cfg.warmup.as_micros()),
        );
        let inventories = generate_inventories(&peers, &wl, &root.stream("inventory"));
        let tasks = generate_tasks(&peers, &inventories, &wl, &root.stream("tasks"));

        let mut sim: Simulator<SimEvent> = Simulator::with_capacity(4 * tasks.len() + 1024);
        for &leader in &leaders {
            sim.schedule_at(
                SimTime::ZERO,
                SimEvent::Node(leader, Event::Start { bootstrap: None }),
            );
        }
        let mut intro_time = SimTime::from_millis(10);
        for &a in &leaders {
            for &b in &leaders {
                if a != b {
                    let stub = arm_proto::DomainSummary {
                        domain: arm_util::DomainId::new(b.raw()),
                        rm: b,
                        objects: arm_util::BloomFilter::new(64, 1),
                        services: arm_util::BloomFilter::new(64, 1),
                        mean_utilization: 0.0,
                        version: 0,
                    };
                    sim.schedule_at(
                        intro_time,
                        SimEvent::Node(
                            a,
                            Event::msg(
                                b,
                                Message::GossipDigest {
                                    summaries: vec![stub],
                                },
                            ),
                        ),
                    );
                }
            }
            intro_time += arm_util::SimDuration::from_millis(1);
        }
        let mut t = SimTime::from_millis(100);
        for (i, &p) in peers.iter().enumerate() {
            if leaders.contains(&p) {
                continue;
            }
            let leader = leaders[i / cfg.peers_per_cluster];
            sim.schedule_at(
                t,
                SimEvent::Node(
                    p,
                    Event::Start {
                        bootstrap: Some(leader),
                    },
                ),
            );
            t += cfg.join_stagger;
        }

        // Every generated task counts as submitted, including those whose
        // requester turns out to be crashed or not yet joined.
        let mut ledger = TaskLedger::default();
        let mut submitted = 0;
        for arrival in tasks {
            let at = arrival.at + cfg.warmup;
            ledger.submit(
                arrival.task.id,
                at.as_secs_f64(),
                (at + arrival.task.qos.deadline).as_secs_f64(),
            );
            sim.schedule_at(
                at,
                SimEvent::Node(arrival.requester, Event::SubmitTask(arrival.task)),
            );
            submitted += 1;
        }

        if let Some(params) = cfg.churn {
            let trace = ChurnTrace::generate(&topo, params, cfg.horizon, &mut root.stream("churn"));
            for ev in trace.events() {
                let at = if ev.at < SimTime::ZERO + cfg.warmup {
                    SimTime::ZERO + cfg.warmup
                } else {
                    ev.at
                };
                sim.schedule_at(at, SimEvent::Churn(*ev));
            }
        }

        let mut s = SimTime::ZERO + cfg.sample_period;
        while s < cfg.horizon {
            sim.schedule_at(s, SimEvent::Sample);
            s += cfg.sample_period;
        }

        let mut nodes = BTreeMap::new();
        for spec in &topo.peers {
            let inv = &inventories[&spec.id];
            nodes.insert(
                spec.id,
                PeerNode::new(
                    spec.id,
                    spec.capacity,
                    spec.bandwidth_kbps,
                    inv.objects.clone(),
                    inv.services.clone(),
                    cfg.protocol.clone(),
                    cfg.seed,
                    SimTime::ZERO,
                ),
            );
        }
        // Roughly one delivered message in this many is kept for the codec
        // timing, so the sample spans the whole run.
        let wire_stride = (submitted as u64 * 64 / WIRE_SAMPLE_CAP as u64).max(1);
        Self {
            net_rng: root.stream("net"),
            cfg,
            topo,
            net,
            sim,
            alive: nodes.keys().copied().collect(),
            nodes,
            inventories,
            cluster_of,
            leaders,
            rejoin_counts: BTreeMap::new(),
            report: SimReport {
                submitted,
                ..SimReport::default()
            },
            ledger: Ledger::default(),
            tasks: ledger,
            domains_max: 0,
            submits_unjoined: 0,
            intents: Vec::new(),
            wire_sample: Vec::new(),
            wire_stride,
            sends_seen: 0,
            epoch: Instant::now(),
            spans: None,
        }
    }

    fn span(&mut self, trace: u64, node: u64, name: &'static str, start: Instant, dur_s: f64) {
        if let Some(spans) = self.spans.as_mut() {
            spans.push(Span {
                trace,
                node,
                name,
                start_s: start.duration_since(self.epoch).as_secs_f64(),
                dur_s,
            });
        }
    }

    fn schedule(&mut self, at: SimTime, ev: SimEvent) {
        let t = Instant::now();
        self.sim.schedule_at(at, ev);
        let dt = t.elapsed().as_secs_f64();
        self.ledger.des_s += dt;
        self.span(0, 0, "des.schedule", t, dt);
    }

    fn dispatch(&mut self, now: SimTime, target: NodeId, event: Event) {
        if !self.alive.contains(&target) {
            return;
        }
        let Some(node) = self.nodes.get_mut(&target) else {
            return;
        };
        let role = node.role();
        if matches!(event, Event::SubmitTask(_)) && matches!(role, Role::Idle | Role::Joining) {
            self.submits_unjoined += 1;
        }
        let layer = Layer::of_event(&event, role);
        let name = event_name(&event);
        let t = Instant::now();
        let actions = node.on_event(now, event);
        let dt = t.elapsed().as_secs_f64();
        self.ledger.handler_s[layer.index()] += dt;
        if layer == Layer::Alloc {
            self.ledger.alloc_calls.push(dt);
        }
        let ctx = node.out_ctx();
        self.span(ctx.trace_id, target.raw(), name, t, dt);
        for action in actions {
            self.apply_action(now, target, action, ctx);
        }
    }

    fn apply_action(&mut self, now: SimTime, from: NodeId, action: Action, ctx: TraceCtx) {
        match action {
            Action::Send { to, msg } => {
                if msg.kind() == "task_redirect" {
                    self.report.redirects += 1;
                }
                let t = Instant::now();
                let delay = self
                    .net
                    .sample_sized(from, to, msg.size_bytes(), &mut self.net_rng);
                let dt = t.elapsed().as_secs_f64();
                self.ledger.net_s += dt;
                self.span(ctx.trace_id, from.raw(), "net.sample", t, dt);
                match delay {
                    Some(delay) => {
                        let entry = self
                            .report
                            .messages
                            .entry(msg.kind().to_string())
                            .or_insert((0, 0));
                        entry.0 += 1;
                        entry.1 += msg.size_bytes() as u64;
                        self.sends_seen += 1;
                        if self.sends_seen.is_multiple_of(self.wire_stride)
                            && self.wire_sample.len() < WIRE_SAMPLE_CAP
                        {
                            self.wire_sample.push((from, to, msg.clone(), ctx));
                        }
                        self.schedule(
                            now + delay,
                            SimEvent::Node(to, Event::Msg { from, msg, ctx }),
                        );
                    }
                    None => self.report.messages_lost += 1,
                }
            }
            Action::SetTimer { kind, after } => {
                self.schedule(now + after, SimEvent::Node(from, Event::Timer(kind)));
            }
            Action::Outcome {
                task,
                outcome,
                response,
                at,
            } => {
                match outcome {
                    TaskOutcome::CompletedOnTime => self.report.outcomes.on_time += 1,
                    TaskOutcome::CompletedLate => self.report.outcomes.late += 1,
                    TaskOutcome::Rejected => self.report.outcomes.rejected += 1,
                    TaskOutcome::Failed => self.report.outcomes.failed += 1,
                }
                if let Some(r) = response {
                    if outcome.is_completed() {
                        self.report.response_time.observe(r.as_secs_f64());
                    }
                }
                self.tasks.outcome(task, outcome, at.as_secs_f64());
            }
            Action::Promoted { .. } => self.report.promotions += 1,
            Action::SessionRepaired { ok, .. } => {
                if ok {
                    self.report.repairs_ok += 1;
                } else {
                    self.report.repairs_failed += 1;
                }
            }
            Action::SessionReassigned { .. } => self.report.reassignments += 1,
            Action::ReplyReceived { .. } | Action::Trace(_) => {}
            Action::Persist(intent) => self.intents.push(intent),
        }
    }

    fn apply_churn(&mut self, now: SimTime, ev: ChurnEvent) {
        match ev.kind {
            ChurnKind::Crash => {
                self.alive.remove(&ev.node);
            }
            ChurnKind::Leave => {
                self.dispatch(now, ev.node, Event::Shutdown { graceful: true });
                self.alive.remove(&ev.node);
            }
            ChurnKind::Join => {
                if self.alive.contains(&ev.node) {
                    return;
                }
                let Some(spec) = self.topo.get(ev.node).cloned() else {
                    return;
                };
                let inv = &self.inventories[&ev.node];
                let rejoins = self.rejoin_counts.entry(ev.node).or_insert(0);
                *rejoins += 1;
                let node = PeerNode::new(
                    ev.node,
                    spec.capacity,
                    spec.bandwidth_kbps,
                    inv.objects.clone(),
                    inv.services.clone(),
                    self.cfg.protocol.clone(),
                    self.cfg.seed ^ (*rejoins << 32),
                    now,
                );
                self.nodes.insert(ev.node, node);
                self.alive.insert(ev.node);
                let bootstrap = self.pick_bootstrap(ev.node);
                self.schedule(now, SimEvent::Node(ev.node, Event::Start { bootstrap }));
            }
        }
    }

    fn pick_bootstrap(&self, node: NodeId) -> Option<NodeId> {
        let cluster = self.cluster_of[&node];
        let leader = self.leaders[cluster];
        if leader != node && self.alive.contains(&leader) {
            return Some(leader);
        }
        self.topo
            .peers
            .iter()
            .filter(|p| p.cluster == cluster && p.id != node && self.alive.contains(&p.id))
            .map(|p| p.id)
            .next()
            .or_else(|| self.alive.iter().find(|p| **p != node).copied())
    }

    /// A sample tick: only reads state (fairness, domain count).
    fn sample(&mut self, now: SimTime) {
        let mut loads = Vec::with_capacity(self.alive.len());
        let mut domains = 0;
        for id in &self.alive {
            let node = &self.nodes[id];
            let role = node.role();
            if role == Role::Rm {
                domains += 1;
            }
            if matches!(role, Role::Member | Role::Rm) {
                loads.push(node.load());
            }
        }
        self.domains_max = self.domains_max.max(domains);
        if !loads.is_empty() {
            self.report
                .fairness_series
                .push((now.as_secs_f64(), arm_util::fairness_index(&loads)));
        }
    }

    fn finalize(mut self, store_dir: &Path) -> Replay {
        self.report.final_peers = self.alive.len();
        let rms: Vec<&PeerNode> = self
            .alive
            .iter()
            .map(|id| &self.nodes[id])
            .filter(|n| n.role() == Role::Rm)
            .collect();
        self.report.final_domains = rms.len();
        self.report.events_processed = self.sim.processed();
        self.report.max_queue_depth = self.sim.max_queue_depth() as u64;
        let mut alloc = AllocMetrics::default();
        for rm in &rms {
            if let Some(state) = rm.rm_state() {
                alloc.merge(&state.alloc_metrics);
            }
        }
        self.report.alloc = alloc;

        // The largest RM's snapshot, taken and installed through the store.
        let largest = rms
            .iter()
            .max_by_key(|n| n.rm_state().map_or(0, |s| s.members.len()));
        let snapshot_us = largest
            .map(|rm| time_snapshot(rm, self.sim.now(), store_dir))
            .unwrap_or(0.0);

        Replay {
            digest: Digest::of_report(&self.report),
            horizon_s: self.cfg.horizon.as_secs_f64(),
            fairness: self.report.mean_fairness(),
            ledger: self.ledger,
            tasks: self.tasks,
            domains_max: self.domains_max,
            submits_unjoined: self.submits_unjoined,
            alloc,
            intents: self.intents,
            wire_sample: self.wire_sample,
            snapshot_us,
            spans: self.spans.unwrap_or_default(),
        }
    }
}

/// `PeerNode::store_snapshot` followed by `Store::install_snapshot`, µs.
fn time_snapshot(rm: &PeerNode, now: SimTime, dir: &Path) -> f64 {
    let Ok(mut store) = Store::fresh(dir) else {
        return 0.0;
    };
    let t = Instant::now();
    let mut snap: StoreSnapshot = rm.store_snapshot(now, 0, false, now.as_micros());
    let ok = store.install_snapshot(&mut snap).is_ok();
    let us = t.elapsed().as_secs_f64() * 1e6;
    if ok {
        us
    } else {
        0.0
    }
}
