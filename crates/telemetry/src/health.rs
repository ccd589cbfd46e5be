//! Declarative health rules evaluated over retained series.
//!
//! A [`HealthRule`] names a metric, a [`SeriesKind`] and a [`Predicate`];
//! the [`HealthEvaluator`] re-checks every rule after each sample tick and
//! reports *transitions* (rule started / stopped firing) so the driver can
//! emit one `health` trace event and bump one `health_alerts_total`
//! counter per edge rather than per tick. The full current state is
//! exported as serialisable [`HealthStatus`] rows for the status wire.
//!
//! Rules read series only through [`SeriesStore::window_sum`], which
//! aligns labelled series by sample seq — so a rule over a per-domain
//! metric sums it across all domains without caring how many RMs exist.

use serde::{Deserialize, Serialize};

use crate::series::{SeriesKind, SeriesStore};

/// Metric names the pulse driver (runtime loop or sim harness) publishes
/// as gauges each tick, purpose-built for the standard rules.
pub mod pulse_metrics {
    /// 1.0 when the node currently knows a resource manager, else 0.0.
    pub const HAS_RM: &str = "pulse_has_rm";
    /// Seconds since the node last heard from its RM (0 for the RM itself).
    pub const RM_SILENCE_SECS: &str = "pulse_rm_silence_secs";
    /// Seconds since the last gossip digest arrived (0 until the first).
    pub const GOSSIP_AGE_SECS: &str = "pulse_gossip_age_secs";
    /// Mailbox / DES queue depth at sample time.
    pub const QUEUE_DEPTH: &str = "pulse_queue_depth";
    /// Cumulative transport reconnect count, published as a gauge the
    /// driver copies from the transport's counters each tick.
    pub const LINK_RECONNECTS: &str = "pulse_link_reconnects";
}

/// Counter bumped (with `kind=<rule>`) each time a rule starts firing.
pub const HEALTH_ALERTS_TOTAL: &str = "health_alerts_total";
/// Gauge (with `kind=<rule>`) holding 1.0 while a rule fires.
pub const HEALTH_FIRING: &str = "health_firing";

/// Threshold test applied to a rule's summed series window.
#[derive(Debug, Clone, Copy)]
pub enum Predicate {
    /// Fires when the last `sustain` samples all exceed `threshold`.
    Above {
        /// Level the samples must exceed.
        threshold: f64,
        /// Consecutive breaching samples required.
        sustain: usize,
    },
    /// Fires when the last `sustain` samples all fall below `threshold`.
    Below {
        /// Level the samples must stay under.
        threshold: f64,
        /// Consecutive breaching samples required.
        sustain: usize,
    },
    /// Fires when the per-tick growth over the last `window` samples
    /// exceeds `threshold` (for cumulative counters, e.g. link flaps).
    RateAbove {
        /// Growth per tick the window average must exceed.
        threshold: f64,
        /// Ticks the rate is averaged over.
        window: usize,
    },
}

impl Predicate {
    /// The numeric threshold, for display alongside the observed value.
    pub fn threshold(&self) -> f64 {
        match self {
            Predicate::Above { threshold, .. }
            | Predicate::Below { threshold, .. }
            | Predicate::RateAbove { threshold, .. } => *threshold,
        }
    }
}

/// One named health rule over one metric's series.
#[derive(Debug, Clone)]
pub struct HealthRule {
    /// Stable rule identifier (`rm_stale`, `queue_saturated`, ...).
    pub name: &'static str,
    /// Metric name the rule reads (summed across labels).
    pub metric: &'static str,
    /// Which series of that metric.
    pub kind: SeriesKind,
    /// Human-readable reason code attached to alerts.
    pub reason: &'static str,
    /// The threshold test.
    pub predicate: Predicate,
}

impl HealthRule {
    /// Evaluates the rule against the store. Returns `None` when the
    /// metric has no series yet or too few samples to judge — which is
    /// treated as healthy (rules must not fire during warm-up).
    fn evaluate(&self, store: &SeriesStore) -> Option<(bool, f64)> {
        match self.predicate {
            Predicate::Above { threshold, sustain } => {
                let w = store.window_sum(self.metric, self.kind, sustain);
                if w.len() < sustain {
                    return None;
                }
                Some((w.iter().all(|v| *v > threshold), *w.last().unwrap()))
            }
            Predicate::Below { threshold, sustain } => {
                let w = store.window_sum(self.metric, self.kind, sustain);
                if w.len() < sustain {
                    return None;
                }
                Some((w.iter().all(|v| *v < threshold), *w.last().unwrap()))
            }
            Predicate::RateAbove { threshold, window } => {
                let w = store.window_sum(self.metric, self.kind, window + 1);
                if w.len() < 2 {
                    return None;
                }
                let rate = (w.last().unwrap() - w.first().unwrap()) / (w.len() - 1) as f64;
                Some((rate > threshold, rate))
            }
        }
    }
}

/// Tunable thresholds for the standard rule set. Defaults suit the sim
/// harness (1 s ticks); live drivers tighten them to their pulse cadence.
#[derive(Debug, Clone, Copy)]
pub struct HealthThresholds {
    /// Consecutive ticks a level test must hold before firing.
    pub sustain: usize,
    /// Window (ticks) for rate rules.
    pub window: usize,
    /// RM silence (seconds) beyond which the RM counts as stale.
    pub rm_silence_secs: f64,
    /// Gossip digest age (seconds) beyond which gossip counts as stale.
    pub gossip_age_secs: f64,
    /// Queue depth beyond which the mailbox/DES queue counts saturated.
    pub queue_depth: f64,
    /// Link reconnects per tick beyond which links count as flapping.
    pub link_flap_rate: f64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        HealthThresholds {
            sustain: 3,
            window: 10,
            rm_silence_secs: 5.0,
            gossip_age_secs: 30.0,
            queue_depth: 10_000.0,
            link_flap_rate: 1.0,
        }
    }
}

/// The standard rule set from the issue: election stalled, RM / gossip
/// staleness, queue saturation, link flapping.
pub fn standard_rules(t: &HealthThresholds) -> Vec<HealthRule> {
    vec![
        HealthRule {
            name: "election_stalled",
            metric: pulse_metrics::HAS_RM,
            kind: SeriesKind::Gauge,
            reason: "no resource manager elected",
            predicate: Predicate::Below {
                threshold: 0.5,
                sustain: t.sustain,
            },
        },
        HealthRule {
            name: "rm_stale",
            metric: pulse_metrics::RM_SILENCE_SECS,
            kind: SeriesKind::Gauge,
            reason: "resource manager silent beyond threshold",
            predicate: Predicate::Above {
                threshold: t.rm_silence_secs,
                sustain: t.sustain,
            },
        },
        HealthRule {
            name: "gossip_stale",
            metric: pulse_metrics::GOSSIP_AGE_SECS,
            kind: SeriesKind::Gauge,
            reason: "inter-domain gossip digest stale",
            predicate: Predicate::Above {
                threshold: t.gossip_age_secs,
                sustain: t.sustain,
            },
        },
        HealthRule {
            name: "queue_saturated",
            metric: pulse_metrics::QUEUE_DEPTH,
            kind: SeriesKind::Gauge,
            reason: "event queue depth sustained above threshold",
            predicate: Predicate::Above {
                threshold: t.queue_depth,
                sustain: t.sustain,
            },
        },
        HealthRule {
            name: "link_flapping",
            metric: pulse_metrics::LINK_RECONNECTS,
            kind: SeriesKind::Gauge,
            reason: "transport links reconnecting repeatedly",
            predicate: Predicate::RateAbove {
                threshold: t.link_flap_rate,
                window: t.window,
            },
        },
    ]
}

/// Serialisable snapshot of one rule's current state — the wire shape
/// carried in `StatusReport.health` and printed by `arm health`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthStatus {
    /// Rule identifier.
    pub rule: String,
    /// Reason code shown when firing.
    pub reason: String,
    /// Whether the rule currently fires.
    pub firing: bool,
    /// Last observed value the predicate judged.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// Sample seq at which the current firing episode started (0 if not
    /// firing).
    #[serde(default)]
    pub since_seq: u64,
}

/// A rule edge produced by one evaluation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthTransition {
    /// Rule identifier.
    pub rule: &'static str,
    /// Reason code.
    pub reason: &'static str,
    /// `true` on raise, `false` on clear.
    pub firing: bool,
    /// Observed value at the edge.
    pub value: f64,
}

/// Evaluates a rule set against a [`SeriesStore`], tracking firing state.
#[derive(Debug, Clone)]
pub struct HealthEvaluator {
    rules: Vec<HealthRule>,
    firing: Vec<bool>,
    since: Vec<u64>,
    last_value: Vec<f64>,
}

impl HealthEvaluator {
    /// Creates an evaluator over `rules`, all initially healthy.
    pub fn new(rules: Vec<HealthRule>) -> Self {
        let n = rules.len();
        HealthEvaluator {
            rules,
            firing: vec![false; n],
            since: vec![0; n],
            last_value: vec![0.0; n],
        }
    }

    /// Standard rule set with the given thresholds.
    pub fn standard(thresholds: &HealthThresholds) -> Self {
        HealthEvaluator::new(standard_rules(thresholds))
    }

    /// Re-evaluates every rule; returns only the edges (raise / clear).
    pub fn evaluate(&mut self, store: &SeriesStore) -> Vec<HealthTransition> {
        let mut edges = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            let (firing, value) = rule.evaluate(store).unwrap_or((false, 0.0));
            self.last_value[i] = value;
            if firing != self.firing[i] {
                self.firing[i] = firing;
                self.since[i] = if firing { store.next_seq() } else { 0 };
                edges.push(HealthTransition {
                    rule: rule.name,
                    reason: rule.reason,
                    firing,
                    value,
                });
            }
        }
        edges
    }

    /// Whether any rule currently fires.
    pub fn any_firing(&self) -> bool {
        self.firing.iter().any(|f| *f)
    }

    /// Full current state, one row per rule.
    pub fn statuses(&self) -> Vec<HealthStatus> {
        self.rules
            .iter()
            .enumerate()
            .map(|(i, rule)| HealthStatus {
                rule: rule.name.to_string(),
                reason: rule.reason.to_string(),
                firing: self.firing[i],
                value: self.last_value[i],
                threshold: rule.predicate.threshold(),
                since_seq: self.since[i],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Labels, MetricsRegistry};
    use arm_util::SimTime;

    fn tick(store: &mut SeriesStore, reg: &MetricsRegistry, i: u64) {
        store.sample(SimTime::from_secs(i), reg);
    }

    #[test]
    fn above_rule_needs_sustained_breach_and_clears_on_recovery() {
        let mut reg = MetricsRegistry::new();
        let mut store = SeriesStore::new(32);
        let mut eval = HealthEvaluator::new(vec![HealthRule {
            name: "queue_saturated",
            metric: pulse_metrics::QUEUE_DEPTH,
            kind: SeriesKind::Gauge,
            reason: "saturated",
            predicate: Predicate::Above {
                threshold: 100.0,
                sustain: 2,
            },
        }]);
        reg.set_gauge(pulse_metrics::QUEUE_DEPTH, Labels::NONE, 500.0);
        tick(&mut store, &reg, 0);
        assert!(eval.evaluate(&store).is_empty(), "one breach must not fire");
        tick(&mut store, &reg, 1);
        let edges = eval.evaluate(&store);
        assert_eq!(edges.len(), 1);
        assert!(edges[0].firing);
        assert!(eval.any_firing());
        assert!(eval.statuses()[0].since_seq > 0);
        reg.set_gauge(pulse_metrics::QUEUE_DEPTH, Labels::NONE, 1.0);
        tick(&mut store, &reg, 2);
        let edges = eval.evaluate(&store);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].firing);
        assert!(!eval.any_firing());
    }

    #[test]
    fn missing_metric_counts_as_healthy() {
        let store = SeriesStore::new(8);
        let mut eval = HealthEvaluator::standard(&HealthThresholds::default());
        assert!(eval.evaluate(&store).is_empty());
        assert!(!eval.any_firing());
        assert_eq!(
            eval.statuses().len(),
            standard_rules(&Default::default()).len()
        );
    }

    #[test]
    fn rate_rule_fires_on_link_flaps() {
        let mut reg = MetricsRegistry::new();
        let mut store = SeriesStore::new(32);
        let mut eval = HealthEvaluator::new(vec![HealthRule {
            name: "link_flapping",
            metric: pulse_metrics::LINK_RECONNECTS,
            kind: SeriesKind::Counter,
            reason: "flapping",
            predicate: Predicate::RateAbove {
                threshold: 1.0,
                window: 4,
            },
        }]);
        reg.add(pulse_metrics::LINK_RECONNECTS, Labels::NONE, 0);
        tick(&mut store, &reg, 0);
        for i in 1..4 {
            reg.add(pulse_metrics::LINK_RECONNECTS, Labels::NONE, 5);
            tick(&mut store, &reg, i);
        }
        let edges = eval.evaluate(&store);
        assert_eq!(edges.len(), 1);
        assert!(edges[0].firing);
        assert!(edges[0].value > 1.0);
    }

    #[test]
    fn statuses_serialise_to_json() {
        let eval = HealthEvaluator::standard(&HealthThresholds::default());
        let text = serde_json::to_string(&eval.statuses()).unwrap();
        let back: Vec<HealthStatus> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, eval.statuses());
    }
}
