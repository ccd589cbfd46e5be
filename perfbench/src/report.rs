//! The result line and the metric tables it is checked against.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload reports
/// every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("goodput", "ratio"),
    ("response_p50_ms", "ms"),
    ("ctrl_kb_per_peer_s", "kB/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.alloc_s", "s"),
    ("core.alloc_calls", "count"),
    ("core.alloc_p50_us", "us"),
    ("core.alloc_p99_us", "us"),
    ("core.alloc_max_ms", "ms"),
    ("core.gossip_s", "s"),
    ("core.join_s", "s"),
    ("core.liveness_s", "s"),
    ("core.session_s", "s"),
    ("core.other_s", "s"),
    ("core.domains_final", "count"),
    ("core.domains_max", "count"),
    ("core.submits_unjoined", "count"),
    ("model.explored_prefixes", "count"),
    ("model.pruned_bound", "count"),
    ("model.cache_hit_ratio", "ratio"),
    ("model.cache_lookups", "count"),
    ("des.busy_s", "s"),
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.max_depth", "count"),
    ("net.sample_s", "s"),
    ("net.msgs", "count"),
    ("net.bytes", "bytes"),
    ("net.lost", "count"),
    ("bench.unaccounted_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("store.append_us_p50", "us"),
    ("store.append_us_p99", "us"),
    ("store.bytes_per_intent", "bytes"),
    ("store.snapshot_us", "us"),
    ("wire.sends", "count"),
    ("wire.send_us_p50", "us"),
    ("wire.send_us_p99", "us"),
    ("wire.send_errors", "count"),
    ("wire.transit_us_p50", "us"),
    ("wire.transit_us_p99", "us"),
    ("wire.bytes_out", "bytes"),
    ("wire.reconnects", "count"),
    ("wire.decode_errors", "count"),
    ("wire.encode_ns_per_byte", "ns/byte"),
    ("wire.decode_ns_per_byte", "ns/byte"),
    ("runtime.reply_p50_ms", "ms"),
    ("runtime.reply_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("fairness", "ratio"),
    ("rejected_ratio", "ratio"),
    ("lost_ratio", "ratio"),
];

/// One run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations (tasks) submitted.
    pub attempted: u64,
    /// Operations that failed: tasks lost or ending `Failed`.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Marks the run incorrect, with the reason on stderr.
    pub fn fail(&mut self, why: &str) {
        eprintln!("perfbench: check failed: {why}");
        self.correct = false;
    }

    /// The result line: exactly the metrics of `table`, in its order.
    /// Metrics the workload did not measure read 0; a metric the workload
    /// set that is in neither table is a bug and marks the run incorrect.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let known = |k: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(name, _)| *name == k)
        };
        let stray: Vec<&&str> = self.values.keys().filter(|k| !known(k)).collect();
        let correct = self.correct && stray.is_empty();
        if !stray.is_empty() {
            eprintln!("perfbench: metrics outside the table: {stray:?}");
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process's threads have used so far,
/// from `/proc/self/stat` in `USER_HZ` (100 per second) ticks.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields 14 and 15 (utime, stime), counted after the `(comm)`.
            let rest = &s[s.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: u64 = fields.next()?.parse().ok()?;
            let stime: u64 = fields.next()?.parse().ok()?;
            Some((utime + stime) as f64 / 100.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_of_the_table() {
        let mut out = Outcome {
            correct: true,
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        out.set("run_s", 1.25);
        let line = out.to_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1,"));
        assert!(line.contains("\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        // Metrics of the other table are left out; unknown ones fail the run.
        out.set("core.alloc_s", 2.0);
        assert!(!out.to_json(END_TO_END).contains("core.alloc_s"));
        assert!(out.to_json(END_TO_END).starts_with("{\"correct\": true"));
        out.set("typo_s", 2.0);
        assert!(out.to_json(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn cpu_seconds_grow_with_work() {
        let before = cpu_seconds();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 200 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            cpu_seconds() - before >= 0.1,
            "{before} -> {}",
            cpu_seconds()
        );
    }

    /// The tables here and BENCHMARK.json must name the same metrics with
    /// the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("list end")];
            let entries = body.matches("\"name\"").count();
            assert_eq!(entries, table.len(), "{section}: entry count");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section}: missing {entry}");
            }
        }
    }
}
