//! Data-parallel scenario sweeps.
//!
//! Experiments compare many independent scenario runs (allocators × rates
//! × seeds). Each run is single-threaded and deterministic, so a sweep is
//! embarrassingly parallel: [`run_parallel`] fans the configurations out
//! over a bounded pool of OS threads (scoped — no `'static` bounds, no
//! leaked threads) and returns reports in input order.

use crate::{ScenarioConfig, SimReport, Simulation};

/// Runs every scenario, using up to `threads` worker threads (0 = one per
/// available CPU, capped at the number of scenarios). Results come back in
/// the same order as the input; determinism per scenario is unaffected by
/// the parallelism.
pub fn run_parallel(configs: Vec<ScenarioConfig>, threads: usize) -> Vec<SimReport> {
    let n = configs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    } else {
        threads
    }
    .min(n)
    .max(1);

    if workers == 1 {
        return configs
            .into_iter()
            .map(|cfg| Simulation::new(cfg).run())
            .collect();
    }

    // Work-stealing by atomic index over a shared job list.
    let jobs: Vec<ScenarioConfig> = configs;
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<SimReport>> = (0..n).map(|_| None).collect();
    let slot_refs: Vec<crate::sync::Lock<&mut Option<SimReport>>> = slots
        .iter_mut()
        .map(|s| crate::sync::mutex("parallel.slot", s))
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let report = Simulation::new(jobs[i].clone()).run();
                **slot_refs[i].lock() = Some(report);
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_util::{SimDuration, SimTime};

    fn scenario(seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig {
            seed,
            clusters: 1,
            peers_per_cluster: 6,
            horizon: SimTime::from_secs(40),
            warmup: SimDuration::from_secs(5),
            ..ScenarioConfig::default()
        };
        cfg.workload.arrival_rate = 0.4;
        cfg
    }

    #[test]
    fn parallel_matches_sequential() {
        let configs: Vec<ScenarioConfig> = (1..=6).map(scenario).collect();
        let seq = run_parallel(configs.clone(), 1);
        let par = run_parallel(configs, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(
                a.outcomes, b.outcomes,
                "parallelism must not change results"
            );
            assert_eq!(a.events_processed, b.events_processed);
            assert_eq!(a.message_count(), b.message_count());
        }
    }

    #[test]
    fn results_in_input_order() {
        // Seeds map 1:1 to reports; distinct seeds give distinct runs.
        let configs: Vec<ScenarioConfig> = vec![scenario(10), scenario(20), scenario(10)];
        let reports = run_parallel(configs, 3);
        assert_eq!(
            reports[0].outcomes, reports[2].outcomes,
            "same seed, same slot result"
        );
        assert_eq!(reports[0].events_processed, reports[2].events_processed);
    }

    #[test]
    fn empty_and_zero_threads() {
        assert!(run_parallel(vec![], 4).is_empty());
        let r = run_parallel(vec![scenario(1)], 0);
        assert_eq!(r.len(), 1);
    }
}
