//! The workload shapes. Every input derives from the run's `--seed`.

use arm_core::ProtocolConfig;
use arm_net::churn::ChurnParams;
use arm_sim::ScenarioConfig;
use arm_util::{SimDuration, SimTime};

/// The DES workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimShape {
    /// Eight full domains (32 peers each, exactly `max_domain_size`), a
    /// heavy task stream and no churn: the allocator does nearly all the
    /// work.
    Alloc,
    /// Eight 128-peer clusters (4× the cap) under the `arm simulate` demo
    /// churn: overlay construction and gossip do most of the work.
    Overlay,
}

impl SimShape {
    /// Scenario `index` of a run with seed `seed`.
    pub fn scenario(self, seed: u64, index: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig {
            seed: scenario_seed(seed, index),
            clusters: 8,
            ..ScenarioConfig::default()
        };
        match self {
            SimShape::Alloc => {
                cfg.peers_per_cluster = 32;
                cfg.horizon = SimTime::from_secs(40);
                cfg.workload.transcoders_per_peer = 5;
                cfg.workload.arrival_rate = 20.0;
                cfg.workload.session_mean_secs = 5.0;
            }
            SimShape::Overlay => {
                cfg.peers_per_cluster = 128;
                cfg.horizon = SimTime::from_secs(300);
                cfg.churn = Some(ChurnParams {
                    mean_uptime_secs: 120.0,
                    mean_downtime_secs: 20.0,
                    crash_fraction: 0.7,
                    churning_fraction: 0.3,
                });
                cfg.workload.arrival_rate = 3.0;
                cfg.workload.session_mean_secs = 60.0;
            }
        }
        cfg
    }

    /// Fresh scenarios a run measures for `--seconds`: `seconds` divided by
    /// about one scenario's `Simulation::run` time on the recording
    /// machine, at least 3. It depends on nothing but `seconds`, so every
    /// run with the same seed measures the same scenarios.
    pub fn scenarios(self, seconds: u64) -> u64 {
        let per_scenario = match self {
            SimShape::Alloc => 6,
            SimShape::Overlay => 20,
        };
        (seconds / per_scenario).max(3)
    }
}

/// Scenario seeds of one run: `seed * 1000 + index`, so runs with
/// different seeds never share a scenario.
pub fn scenario_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(index)
}

/// Live peers in the `live-loopback` cluster.
pub const LIVE_PEERS: u64 = 8;
/// Open-loop task arrival rate of `live-loopback`, tasks per second.
pub const LIVE_RATE: f64 = 50.0;
/// Mean session length of `live-loopback` tasks, seconds.
pub const LIVE_SESSION_SECS: f64 = 1.0;
/// Transcoders per live peer. With the generator's default of 3, eight
/// peers often lack a path for some requested formats, and whole seeds
/// lose up to 29 % of their tasks to refusals; with 5 nearly every request
/// can be composed, so the latency measures allocation, not refusals.
pub const LIVE_TRANSCODERS: usize = 5;

/// The `arm cluster` live protocol periods: millisecond-scale, so a live
/// overlay converges in about a second.
pub fn live_protocol() -> ProtocolConfig {
    ProtocolConfig {
        heartbeat_period: SimDuration::from_millis(100),
        heartbeat_timeout: SimDuration::from_millis(400),
        report_period: SimDuration::from_millis(100),
        gossip_period: SimDuration::from_millis(400),
        backup_period: SimDuration::from_millis(200),
        adapt_period: SimDuration::from_millis(400),
        join_timeout: SimDuration::from_millis(400),
        compose_timeout: SimDuration::from_millis(1000),
        sched_poll: SimDuration::from_millis(10),
        ..ProtocolConfig::default()
    }
}
