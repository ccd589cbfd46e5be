//! The DES workloads (`sim-alloc`, `sim-overlay`).
//!
//! A run times the shipped `Simulation::new` / `Simulation::run` on a fixed
//! number of fresh scenarios ([`SimShape::scenarios`] of `--seconds`), so
//! every run with a given seed and `--seconds` measures the same work. It
//! then runs scenario 0 again, which must give the same tallies. A traced
//! run also replays the first [`REPLAYED`] scenarios through
//! [`crate::driver`], which must reproduce the shipped tallies exactly (the
//! equivalence gate), and reports the driver's per-layer ledger.

use crate::driver::{self, Digest, Layer, Ledger, Span};
use crate::report::{peak_rss_mb, Outcome};
use crate::scenario::SimShape;
use crate::stats::{mean, median, quantile};
use crate::wire::codec_ns_per_byte;
use arm_core::AllocMetrics;
use arm_sim::{ScenarioConfig, SimReport, Simulation};
use arm_store::{Store, LOG_FILE};
use arm_util::stats::Summary;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Scenarios a traced run replays through the driver.
pub const REPLAYED: usize = 3;

/// `Simulation::new` timings per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 15;

/// Intents replayed through the WAL after the loop.
const STORE_REPLAY_CAP: usize = 20_000;

/// One run of a DES workload. A traced run writes every timed call of
/// scenario 0's replay to `spans` as JSON lines.
pub fn run(
    shape: SimShape,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: &Path,
    tmp: &Path,
) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    // The shipped harness, timed.
    let count = shape.scenarios(seconds);
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut digests = Vec::new();
    let mut response = Summary::new();
    let (mut on_time, mut bytes, mut peer_secs) = (0u64, 0u64, 0.0f64);
    for index in 0..count {
        let cfg = shape.scenario(seed, index);
        peer_secs += cfg.num_peers() as f64 * cfg.horizon.as_secs_f64();
        let (report, run_s) = timed_run(cfg, &mut setups);
        runs.push(run_s);
        let o = &report.outcomes;
        let terminal = o.on_time + o.late + o.rejected + o.failed;
        out.attempted += report.submitted as u64;
        out.failed += (o.failed + report.submitted.saturating_sub(terminal)) as u64;
        on_time += o.on_time as u64;
        bytes += report.message_bytes();
        response.merge(&report.response_time);
        digests.push(Digest::of_report(&report));
    }
    let (again, _) = timed_run(shape.scenario(seed, 0), &mut setups);
    let again = Digest::of_report(&again);
    if again != digests[0] {
        out.fail(&format!(
            "scenario 0 did not repeat: {:?} vs {again:?}",
            digests[0]
        ));
    }
    while setups.len() < SETUP_SAMPLES {
        let t = Instant::now();
        drop(Simulation::new(shape.scenario(seed, 0)));
        setups.push(t.elapsed().as_secs_f64());
    }
    eprintln!(
        "perfbench: {} scenarios, run_s mean {:.3} median {:.3} (min {:.3} max {:.3})",
        runs.len(),
        mean(&runs),
        median(&mut runs.clone()),
        runs.iter().copied().fold(f64::INFINITY, f64::min),
        runs.iter().copied().fold(0.0, f64::max),
    );
    out.set("setup_s", median(&mut setups));
    out.set("run_s", mean(&runs));
    out.set("goodput", on_time as f64 / out.attempted.max(1) as f64);
    out.set("response_p50_ms", response.quantile(0.5) * 1e3);
    out.set("ctrl_kb_per_peer_s", bytes as f64 / 1e3 / peer_secs);
    out.set("peak_rss_mb", peak_rss_mb());
    if !trace {
        return out;
    }

    // The first scenarios again, through the driver.
    let replayed = &digests[..digests.len().min(REPLAYED)];
    let mut ledger = Ledger::default();
    let mut alloc = AllocMetrics::default();
    let (mut submitted, mut rejected, mut lost) = (0u64, 0u64, 0u64);
    let (mut domains_final, mut domains_max, mut unjoined) = (0usize, 0usize, 0u64);
    let (mut events, mut msgs, mut msg_bytes, mut net_lost, mut depth) = (0, 0, 0, 0, 0);
    let mut fairness = Vec::new();
    let mut first = None;
    for (index, shipped) in replayed.iter().enumerate() {
        let cfg = shape.scenario(seed, index as u64);
        let replay = driver::replay(cfg, &tmp.join("snapshot"), index == 0);
        let d = &replay.digest;
        if d != shipped {
            out.fail(&format!(
                "scenario {index}: driver diverged from Simulation::run: {shipped:?} vs {d:?}"
            ));
        }
        let tally = replay.tasks.tally(replay.horizon_s);
        let by_ids = (tally.on_time, tally.late, tally.rejected, tally.failed);
        let o = shipped.outcomes;
        let counted = (
            o.on_time as u64,
            o.late as u64,
            o.rejected as u64,
            o.failed as u64,
        );
        if by_ids != counted
            || replay.tasks.duplicate_outcomes() > 0
            || replay.tasks.unknown_ids() > 0
        {
            out.fail(&format!(
                "scenario {index}: per-task outcomes {by_ids:?} disagree with the report \
                 {counted:?} ({} duplicates, {} unknown ids)",
                replay.tasks.duplicate_outcomes(),
                replay.tasks.unknown_ids()
            ));
        }
        submitted += tally.submitted;
        rejected += tally.rejected;
        lost += tally.lost;
        ledger.merge(&replay.ledger);
        alloc.merge(&replay.alloc);
        domains_final += d.final_domains;
        domains_max = domains_max.max(replay.domains_max);
        unjoined += replay.submits_unjoined;
        events += d.events;
        msgs += d.messages;
        msg_bytes += d.message_bytes;
        net_lost += d.messages_lost;
        depth = depth.max(d.max_queue_depth);
        fairness.push(replay.fairness);
        if index == 0 {
            first = Some(replay);
        }
    }
    let submitted_ids = submitted.max(1) as f64;

    let l = &ledger;
    let mut calls = l.alloc_calls.clone();
    out.set("core.alloc_s", l.handler(Layer::Alloc));
    out.set("core.alloc_calls", calls.len() as f64);
    out.set("core.alloc_p50_us", quantile(&mut calls, 0.5) * 1e6);
    out.set("core.alloc_p99_us", quantile(&mut calls, 0.99) * 1e6);
    out.set("core.alloc_max_ms", quantile(&mut calls, 1.0) * 1e3);
    out.set("core.gossip_s", l.handler(Layer::Gossip));
    out.set("core.join_s", l.handler(Layer::Join));
    out.set("core.liveness_s", l.handler(Layer::Liveness));
    out.set("core.session_s", l.handler(Layer::Session));
    out.set("core.other_s", l.handler(Layer::Other));
    out.set(
        "core.domains_final",
        domains_final as f64 / replayed.len() as f64,
    );
    out.set("core.domains_max", domains_max as f64);
    out.set("core.submits_unjoined", unjoined as f64);

    let lookups = alloc.cache_hits + alloc.cache_misses;
    out.set("model.explored_prefixes", alloc.explored_prefixes as f64);
    out.set("model.pruned_bound", alloc.pruned_bound as f64);
    out.set(
        "model.cache_hit_ratio",
        alloc.cache_hits as f64 / lookups.max(1) as f64,
    );
    out.set("model.cache_lookups", lookups as f64);

    out.set("des.busy_s", l.des_s);
    out.set("des.events", events as f64);
    out.set("des.events_per_s", events as f64 / l.loop_s);
    out.set("des.max_depth", depth as f64);
    out.set("net.sample_s", l.net_s);
    out.set("net.msgs", msgs as f64);
    out.set("net.bytes", msg_bytes as f64);
    out.set("net.lost", net_lost as f64);
    out.set("bench.unaccounted_s", l.unaccounted_s());
    out.set(
        "bench.trace_overhead",
        l.loop_s / runs[..replayed.len()].iter().sum::<f64>() - 1.0,
    );
    out.set("fairness", mean(&fairness));
    out.set("rejected_ratio", rejected as f64 / submitted_ids);
    out.set("lost_ratio", lost as f64 / submitted_ids);

    // Scenario 0's persistence intents and sent messages, through the
    // store and the codec.
    if let Some(first) = first {
        if let Err(e) = write_spans(spans, &first.spans) {
            out.fail(&format!("writing {}: {e}", spans.display()));
        }
        match replay_wal(&first.intents, &tmp.join("wal")) {
            Ok((p50, p99, per_intent)) => {
                out.set("store.append_us_p50", p50);
                out.set("store.append_us_p99", p99);
                out.set("store.bytes_per_intent", per_intent);
            }
            Err(e) => out.fail(&format!("WAL replay: {e}")),
        }
        out.set("store.snapshot_us", first.snapshot_us);
        match codec_ns_per_byte(&first.wire_sample) {
            Ok((enc, dec)) => {
                out.set("wire.encode_ns_per_byte", enc);
                out.set("wire.decode_ns_per_byte", dec);
            }
            Err(e) => out.fail(&e),
        }
    }
    eprintln!(
        "perfbench: replays {:.3} s: alloc {:.3} gossip {:.3} join {:.3} liveness {:.3} \
         session {:.3} other {:.3} des {:.3} net {:.3} unaccounted {:.3}",
        l.loop_s,
        l.handler(Layer::Alloc),
        l.handler(Layer::Gossip),
        l.handler(Layer::Join),
        l.handler(Layer::Liveness),
        l.handler(Layer::Session),
        l.handler(Layer::Other),
        l.des_s,
        l.net_s,
        l.unaccounted_s(),
    );
    out
}

/// `Simulation::new` + `Simulation::run`, recording the set-up time;
/// returns the report and the run's wall time.
fn timed_run(cfg: ScenarioConfig, setups: &mut Vec<f64>) -> (SimReport, f64) {
    let t = Instant::now();
    let sim = Simulation::new(cfg);
    setups.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let report = sim.run();
    (report, t.elapsed().as_secs_f64())
}

/// Writes `spans` to `path`, one JSON object per line.
fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    for span in spans {
        writeln!(w, "{}", span.to_json())?;
    }
    w.flush()
}

/// Appends `intents` (at most [`STORE_REPLAY_CAP`], spread over the run)
/// to a fresh WAL through `Store::append`. Returns the append p50 and p99
/// in µs and the log bytes per intent.
pub fn replay_wal(intents: &[arm_store::Intent], dir: &Path) -> Result<(f64, f64, f64), String> {
    if intents.is_empty() {
        return Ok((0.0, 0.0, 0.0));
    }
    let mut store = Store::fresh(dir).map_err(|e| e.to_string())?;
    let stride = intents.len().div_ceil(STORE_REPLAY_CAP);
    let mut times = Vec::with_capacity(intents.len() / stride + 1);
    for intent in intents.iter().step_by(stride) {
        let t = Instant::now();
        store.append(intent).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let n = times.len() as f64;
    let size = std::fs::metadata(dir.join(LOG_FILE))
        .map_err(|e| e.to_string())?
        .len();
    Ok((
        quantile(&mut times, 0.5),
        quantile(&mut times, 0.99),
        size as f64 / n,
    ))
}
