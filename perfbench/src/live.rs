//! The `live-loopback` workload: eight peers in this process over loopback
//! TCP, fed an open-loop Poisson task stream by one generator thread.
//!
//! Untraced runs use `NetCluster`, as `arm cluster` does, and read its
//! telemetry once, after the load. Traced runs assemble the same cluster
//! from `NetPeer::start` and `TcpTransport` so they can wrap each peer's
//! transport (send timing) and inbound sink (arrival timing).

use crate::driver::Layer;
use crate::report::{cpu_seconds, peak_rss_mb, Outcome};
use crate::scenario::{
    live_protocol, scenario_seed, LIVE_PEERS, LIVE_RATE, LIVE_SESSION_SECS, LIVE_TRANSCODERS,
};
use crate::sim::replay_wal;
use crate::stats::{match_transits, median, quantile, LinkEvent, TaskLedger};
use crate::wire::codec_ns_per_byte;
use arm_model::TaskSpec;
use arm_proto::{Message, TraceCtx};
use arm_runtime::net::{
    NetClock, NetCluster, NetMailbox, NetPeer, NetPeerConfig, PulseConfig, StoreConfig,
};
use arm_runtime::{shared_telemetry, PeerSpawn, Telemetry, TELEMETRY_CAP};
use arm_store::log::replay_intents;
use arm_store::LOG_FILE;
use arm_util::{DetRng, NodeId, SimTime};
use arm_wire::{
    query_status, InboundSink, StatusRequest, TcpOptions, TcpTransport, Transport, TransportError,
    TransportStats,
};
use arm_workload::{generate_inventories, generate_tasks, TaskArrival, WorkloadConfig};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cluster set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Longest wait for the overlay to form.
const FORM_TIMEOUT: Duration = Duration::from_secs(20);
/// Wait past the last deadline before the telemetry is read.
const DRAIN_SLACK: Duration = Duration::from_millis(500);
/// Sent messages kept for the after-run codec timing.
const WIRE_SAMPLE_CAP: usize = 4096;

fn peer_ids() -> Vec<NodeId> {
    (1..=LIVE_PEERS).map(NodeId::new).collect()
}

/// Peer specs and the task stream of a run: inventories and arrivals from
/// the `arm-workload` generator, every peer bootstrapping off peer 1.
fn workload(seed: u64, seconds: u64) -> (Vec<PeerSpawn>, Vec<TaskArrival>) {
    let wl = WorkloadConfig {
        arrival_rate: LIVE_RATE,
        session_mean_secs: LIVE_SESSION_SECS,
        transcoders_per_peer: LIVE_TRANSCODERS,
        horizon: SimTime::from_secs(seconds),
        ..WorkloadConfig::default()
    };
    let root = DetRng::new(seed);
    let ids = peer_ids();
    let inventories = generate_inventories(&ids, &wl, &root.stream("inventory"));
    let tasks = generate_tasks(&ids, &inventories, &wl, &root.stream("tasks"));
    let spawns = ids
        .iter()
        .map(|&id| {
            let inv = &inventories[&id];
            PeerSpawn {
                id,
                capacity: 100.0,
                bandwidth_kbps: 10_000,
                objects: inv.objects.clone(),
                services: inv.services.clone(),
                bootstrap: (id.raw() != 1).then(|| NodeId::new(1)),
            }
        })
        .collect();
    (spawns, tasks)
}

/// `arm cluster`'s peer configuration, persisting under `state_dir`.
fn peer_config(seed: u64, state_dir: &Path) -> NetPeerConfig {
    NetPeerConfig {
        protocol: live_protocol(),
        seed,
        tracing: true,
        pulse: Some(PulseConfig {
            period: Duration::from_millis(250),
            ..PulseConfig::default()
        }),
        store: Some(StoreConfig::new(state_dir)),
    }
}

/// Polls every peer's status port, one thread per peer, until each one
/// belongs to a domain.
fn wait_formed(addrs: &[(NodeId, String)]) -> Result<(), String> {
    let deadline = Instant::now() + FORM_TIMEOUT;
    let joined = |addr: &str| {
        query_status(addr, NodeId::new(0), false, Duration::from_secs(1))
            .is_ok_and(|r| r.domain.is_some() && (r.role == "rm" || r.role == "member"))
    };
    std::thread::scope(|scope| {
        let pollers: Vec<_> = addrs
            .iter()
            .map(|(id, addr)| {
                scope.spawn(move || {
                    while !joined(addr) {
                        if Instant::now() >= deadline {
                            return Err(format!(
                                "peer {id} joined no domain within {FORM_TIMEOUT:?}"
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(())
                })
            })
            .collect();
        pollers.into_iter().try_for_each(|p| {
            p.join()
                .unwrap_or_else(|_| Err("status poller panicked".into()))
        })
    })
}

/// What the generator saw.
struct Load {
    ledger: TaskLedger,
    late_max_s: f64,
    /// Latest absolute deadline of any submitted task, NetClock seconds.
    last_deadline: f64,
}

/// Submits `tasks` open-loop from this thread at their generated instants.
/// Each task is timed from when it was due on `clock`, so a stalled
/// generator shows in the latencies instead of hiding from them.
fn drive_load(
    clock: &NetClock,
    tasks: Vec<TaskArrival>,
    submit: impl Fn(NodeId, TaskSpec),
) -> Load {
    let mut load = Load {
        ledger: TaskLedger::default(),
        late_max_s: 0.0,
        last_deadline: 0.0,
    };
    let start = Instant::now();
    let start_clock = clock.now().as_secs_f64();
    for arrival in tasks {
        let due = start + Duration::from_micros(arrival.at.as_micros());
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let late = Instant::now().saturating_duration_since(due).as_secs_f64();
        load.late_max_s = load.late_max_s.max(late);
        let at = start_clock + arrival.at.as_secs_f64();
        let deadline = at + arrival.task.qos.deadline.as_secs_f64();
        load.last_deadline = load.last_deadline.max(deadline);
        load.ledger.submit(arrival.task.id, at, deadline);
        submit(arrival.requester, arrival.task);
    }
    load
}

/// Sleeps until every submitted task's deadline has passed on `clock`, so
/// each one has either resolved or is lost.
fn drain(clock: &NetClock, load: &Load) {
    let left = load.last_deadline - clock.now().as_secs_f64();
    std::thread::sleep(Duration::from_secs_f64(left.max(0.0)) + DRAIN_SLACK);
}

/// Folds the cluster telemetry into the ledger and checks the run.
fn settle(
    out: &mut Outcome,
    load: &mut Load,
    telemetry: &Telemetry,
    end: f64,
    stats: &[TransportStats],
) {
    for &(task, outcome, at) in &telemetry.outcomes {
        load.ledger.outcome(task, outcome, at.as_secs_f64());
    }
    for &(task, _, at) in &telemetry.replies {
        load.ledger.reply(task, at.as_secs_f64());
    }
    let tally = load.ledger.tally(end);
    out.attempted = tally.submitted;
    out.failed = tally.failed_ops();
    let decode_errors: u64 = stats.iter().map(|s| s.decode_errors).sum();
    if decode_errors > 0 {
        out.fail(&format!("{decode_errors} frames failed to decode"));
    }
    if telemetry.replies.len() >= TELEMETRY_CAP || telemetry.outcomes.len() >= TELEMETRY_CAP {
        out.fail("runtime telemetry reached its cap and evicted entries");
    }
    if tally.in_flight > 0 {
        out.fail(&format!(
            "{} tasks neither resolved nor lost",
            tally.in_flight
        ));
    }
    if load.ledger.unknown_ids() > 0 {
        out.fail(&format!(
            "{} outcomes for tasks never submitted",
            load.ledger.unknown_ids()
        ));
    }
    eprintln!(
        "perfbench: live {tally:?}, {} duplicate outcomes, generator late by at most {:.2} ms",
        load.ledger.duplicate_outcomes(),
        load.late_max_s * 1e3
    );
}

/// One `live-loopback` run.
pub fn run(seed: u64, seconds: u64, trace: bool, tmp: &Path) -> Result<Outcome, String> {
    if trace {
        return run_traced(seed, seconds, tmp);
    }
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (spawns, tasks) = workload(seed, seconds);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cluster: Option<NetCluster> = None;
    // Each cluster forms alone: the one before it is stopped first, and
    // only the last one, built from the run's seed, stays up for the load.
    // The others take seeds of their own, so the median covers as many
    // inventories and protocol seeds as formations.
    for k in 0..SETUPS {
        if let Some(previous) = cluster.take() {
            previous.shutdown();
        }
        let (form_seed, spawns) = if k + 1 == SETUPS {
            (seed, spawns.clone())
        } else {
            let form_seed = scenario_seed(seed, k as u64 + 1);
            (form_seed, workload(form_seed, 0).0)
        };
        let config = peer_config(form_seed, &tmp.join(format!("state-{k}")));
        let t = Instant::now();
        let c = NetCluster::start(spawns, &config, TcpOptions::default())
            .map_err(|e| format!("starting cluster: {e}"))?;
        let formed = wait_formed(&c.listen_addrs());
        setups.push(t.elapsed().as_secs_f64());
        if let Err(e) = formed {
            c.shutdown();
            return Err(e);
        }
        cluster = Some(c);
    }
    let Some(cluster) = cluster else {
        return Err("no cluster".into());
    };

    let clock = cluster.clock().clone();
    let cpu_start = cpu_seconds();
    let mut load = drive_load(&clock, tasks, |node, task| cluster.submit(node, task));
    drain(&clock, &load);
    let telemetry = cluster.telemetry();
    let cpu_s = cpu_seconds() - cpu_start;
    let end = clock.now().as_secs_f64();
    let stats = cluster.shutdown();
    settle(&mut out, &mut load, &telemetry, end, &stats);

    let bytes: u64 = stats.iter().map(|s| s.bytes_out()).sum();
    out.set("setup_s", median(&mut setups));
    out.set("run_s", cpu_s);
    out.set("goodput", load.ledger.tally(end).goodput());
    out.set("response_p50_ms", median(&mut load.ledger.response_ms()));

    out.set(
        "ctrl_kb_per_peer_s",
        bytes as f64 / 1e3 / LIVE_PEERS as f64 / end,
    );
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// Per-peer record of what crossed its transport.
#[derive(Default)]
struct Probe {
    /// Each successful send and how long `send` took, seconds.
    sends: Mutex<Vec<(LinkEvent, f64)>>,
    send_errors: AtomicU64,
    recvs: Mutex<Vec<LinkEvent>>,
    sample: Mutex<Vec<(NodeId, NodeId, Message, TraceCtx)>>,
    seen: AtomicU64,
}

/// A poisoned probe only means a thread panicked between pushes; every
/// vector in it is still valid, so the guard is recovered.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A `Transport` that times every send of the TCP transport it wraps.
struct TimedTransport {
    inner: Arc<TcpTransport>,
    probe: Arc<Probe>,
    epoch: Instant,
}

impl Transport for TimedTransport {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn send(&self, to: NodeId, msg: Message, ctx: TraceCtx) -> Result<(), TransportError> {
        let from = self.inner.node();
        let kind = msg.kind();
        // Every 8th message is kept for the codec timing (cloned outside
        // the timed region).
        let n = self.probe.seen.fetch_add(1, Ordering::Relaxed);
        let keep = n.is_multiple_of(8) && lock(&self.probe.sample).len() < WIRE_SAMPLE_CAP;
        let copy = keep.then(|| msg.clone());
        let at = self.epoch.elapsed().as_secs_f64();
        let t = Instant::now();
        let result = self.inner.send(to, msg, ctx);
        let dt = t.elapsed().as_secs_f64();
        if result.is_ok() {
            lock(&self.probe.sends).push(((from, to, kind, at), dt));
            if let Some(msg) = copy {
                lock(&self.probe.sample).push((from, to, msg, ctx));
            }
        } else {
            self.probe.send_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

/// Traced run: the per-layer ledger of one live run.
fn run_traced(seed: u64, seconds: u64, tmp: &Path) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (spawns, tasks) = workload(seed, seconds);
    let state_dir = tmp.join("state");
    let mut config = peer_config(seed, &state_dir);
    // No periodic snapshot during the run, so each peer's WAL keeps every
    // intent it persisted.
    if let Some(store) = config.store.as_mut() {
        store.snapshot_period = Duration::from_secs(seconds + 3600);
    }
    let store_dir = StoreConfig::new(&state_dir);
    let clock = NetClock::new();
    let epoch = Instant::now();
    let telemetry = shared_telemetry();

    // `NetCluster::start`, with a probe on every transport and sink.
    let mut bound = Vec::with_capacity(spawns.len());
    for spawn in spawns {
        let mailbox = NetMailbox::new(clock.clone());
        let probe = Arc::new(Probe::default());
        let forward = mailbox.sink();
        let recorder = Arc::clone(&probe);
        let me = spawn.id;
        let sink: InboundSink = Box::new(move |from, msg, ctx| {
            lock(&recorder.recvs).push((from, me, msg.kind(), epoch.elapsed().as_secs_f64()));
            forward(from, msg, ctx);
        });
        let transport = Arc::new(
            TcpTransport::bind(spawn.id, "127.0.0.1:0", sink, TcpOptions::default())
                .map_err(|e| format!("binding peer {}: {e}", spawn.id))?,
        );
        bound.push((spawn, mailbox, transport, probe));
    }
    let routes: Vec<(NodeId, String)> = bound
        .iter()
        .map(|(s, _, t, _)| (s.id, t.listen_addr().to_string()))
        .collect();
    for (spawn, _, transport, _) in &bound {
        for (node, addr) in &routes {
            if *node != spawn.id {
                transport
                    .add_route(*node, addr)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let mut peers = Vec::with_capacity(bound.len());
    for (spawn, mailbox, transport, probe) in bound {
        if let Some(addr) = spawn
            .bootstrap
            .and_then(|b| routes.iter().find(|(n, _)| *n == b).map(|(_, a)| a.clone()))
        {
            transport.connect(&addr).map_err(|e| e.to_string())?;
        }
        let timed = Arc::new(TimedTransport {
            inner: Arc::clone(&transport),
            probe: Arc::clone(&probe),
            epoch,
        });
        let peer = NetPeer::start(mailbox, spawn, timed, &config, Arc::clone(&telemetry));
        let status = peer.status();
        let weak = Arc::downgrade(&transport);
        let book = routes.clone();
        transport.set_status_provider(Box::new(move |req| {
            let stats = weak.upgrade().map(|t| t.stats()).unwrap_or_default();
            status.report(req, stats, book.clone())
        }));
        peers.push((peer, transport, probe));
    }
    let formed = wait_formed(&routes);

    let mut load = None;
    if formed.is_ok() {
        let submit = |node: NodeId, task: TaskSpec| {
            if let Some((peer, _, _)) = peers.iter().find(|(p, _, _)| p.id() == node) {
                peer.submit(task);
            }
        };
        let l = drive_load(&clock, tasks, submit);
        drain(&clock, &l);
        load = Some(l);
    }
    let shared = telemetry.lock().clone();
    let end = clock.now().as_secs_f64();
    let request = StatusRequest {
        observer: NodeId::new(0),
        include_trace: false,
        series_cursor: None,
    };
    let reports: Vec<_> = peers
        .iter()
        .map(|(p, _, _)| {
            p.status()
                .report(&request, TransportStats::default(), Vec::new())
        })
        .collect();
    let stats: Vec<TransportStats> = peers.iter().map(|(_, t, _)| t.stats()).collect();
    // The intents the peers persisted, read back from their WALs.
    let mut intents = Vec::new();
    for id in peer_ids() {
        if let Ok(bytes) = std::fs::read(store_dir.node_dir(id).join(LOG_FILE)) {
            intents.extend(replay_intents(&bytes).0);
        }
    }
    let mut probes = Vec::with_capacity(peers.len());
    for (peer, transport, probe) in peers {
        peer.stop(false);
        transport.shutdown();
        probes.push(probe);
    }
    formed?;
    let Some(mut load) = load else {
        return Err("no load ran".into());
    };
    settle(&mut out, &mut load, &shared, end, &stats);

    // Handler time per layer from the runtime's own per-kind histograms
    // (message handlers only: the runtime does not time timers).
    let mut layer_s = [0.0f64; 6];
    let mut alloc_calls = 0u64;
    for report in &reports {
        for h in &report.metrics.histograms {
            let Some(kind) = h
                .key
                .strip_prefix("handle_seconds{kind=\"")
                .and_then(|k| k.strip_suffix("\"}"))
            else {
                continue;
            };
            let layer = Layer::of_kind(kind);
            layer_s[layer as usize] += h.histogram.sum();
            if layer == Layer::Alloc {
                alloc_calls += h.histogram.total();
            }
        }
    }
    for (layer, name) in [
        (Layer::Alloc, "core.alloc_s"),
        (Layer::Gossip, "core.gossip_s"),
        (Layer::Join, "core.join_s"),
        (Layer::Liveness, "core.liveness_s"),
        (Layer::Session, "core.session_s"),
        (Layer::Other, "core.other_s"),
    ] {
        out.set(name, layer_s[layer as usize]);
    }
    out.set("core.alloc_calls", alloc_calls as f64);
    out.set(
        "core.domains_final",
        reports.iter().filter(|r| r.role == "rm").count() as f64,
    );

    let mut sends = Vec::new();
    let mut recvs = Vec::new();
    let mut send_s = Vec::new();
    let mut sample = Vec::new();
    let mut send_errors = 0;
    for probe in &probes {
        for &(send, dt) in lock(&probe.sends).iter() {
            sends.push(send);
            send_s.push(dt);
        }
        recvs.extend(lock(&probe.recvs).iter().copied());
        sample.extend(lock(&probe.sample).iter().cloned());
        send_errors += probe.send_errors.load(Ordering::Relaxed);
    }
    let (mut transits, unmatched_sends, unmatched_recvs) = match_transits(&sends, &recvs);
    eprintln!(
        "perfbench: {} sends, {} receives, {unmatched_sends} sends and {unmatched_recvs} receives unmatched",
        sends.len(),
        recvs.len()
    );
    out.set("wire.sends", sends.len() as f64);
    out.set("wire.send_us_p50", quantile(&mut send_s, 0.5) * 1e6);
    out.set("wire.send_us_p99", quantile(&mut send_s, 0.99) * 1e6);
    out.set("wire.send_errors", send_errors as f64);
    out.set("wire.transit_us_p50", quantile(&mut transits, 0.5) * 1e6);
    out.set("wire.transit_us_p99", quantile(&mut transits, 0.99) * 1e6);
    out.set(
        "wire.bytes_out",
        stats.iter().map(|s| s.bytes_out()).sum::<u64>() as f64,
    );
    out.set(
        "wire.reconnects",
        stats.iter().map(|s| s.reconnects()).sum::<u64>() as f64,
    );
    out.set(
        "wire.decode_errors",
        stats.iter().map(|s| s.decode_errors).sum::<u64>() as f64,
    );
    match codec_ns_per_byte(&sample) {
        Ok((enc, dec)) => {
            out.set("wire.encode_ns_per_byte", enc);
            out.set("wire.decode_ns_per_byte", dec);
        }
        Err(e) => out.fail(&e),
    }

    // The peers' intents through a fresh WAL.
    match replay_wal(&intents, &tmp.join("wal")) {
        Ok((p50, p99, per_intent)) => {
            out.set("store.append_us_p50", p50);
            out.set("store.append_us_p99", p99);
            out.set("store.bytes_per_intent", per_intent);
        }
        Err(e) => out.fail(&format!("WAL replay: {e}")),
    }

    let tally = load.ledger.tally(end);
    let mut replies = load.ledger.reply_ms();
    out.set("runtime.reply_p50_ms", quantile(&mut replies, 0.5));
    out.set("runtime.reply_p99_ms", quantile(&mut replies, 0.99));
    out.set("gen.late_max_ms", load.late_max_s * 1e3);
    out.set("rejected_ratio", tally.rejected_ratio());
    out.set("lost_ratio", tally.lost_ratio());
    Ok(out)
}
