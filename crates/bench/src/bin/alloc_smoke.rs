//! Allocator fast-path smoke benchmark.
//!
//! Runs the pinned domain scenarios from the `alloc` bench group, plus the
//! idle 32-peer tie-plateau row (`idle_p32_t5`, the shape that dominates
//! the `sim-alloc` benchmark), once with wall-clock timing, verifies the
//! answer-identity and search-efficiency contracts of branch-and-bound,
//! and writes the results to `BENCH_alloc.json` (wall time *and*
//! explored-prefix counters, unlike the criterion export which only has
//! wall time). Both searches use the RM's shipped search parameters,
//! prefix cap included.
//!
//! ```text
//! alloc_smoke [--out PATH] [--baseline PATH]
//! ```
//!
//! With `--baseline`, the run exits non-zero if `explored_bnb` for the
//! pinned 64-peer / branching-4 scenario regressed more than 10% against
//! the committed baseline. Explored-prefix counts are deterministic, so
//! this gate is immune to CI timing noise.
//!
//! The run also fails if the pinned scenario stops meeting the fast-path
//! acceptance floors: >= 5x explored-prefix reduction (exhaustive vs
//! branch-and-bound) and >= 3x steady-state speedup (the branch-and-bound
//! search the RM runs on every allocation vs the exhaustive search).

use arm_bench::{domain_problem, plateau_problem, rm_allocator};
use arm_model::alloc::{Allocation, ExplorationMode};
use arm_model::{PeerView, QosSpec, ResourceGraph, StateId};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Pinned scenario: the acceptance-criteria domain.
const PINNED: &str = "p64_b4";
/// Maximum tolerated growth of the pinned `explored_bnb` vs baseline.
const REGRESSION_SLACK: f64 = 1.10;
/// Acceptance floor: exhaustive/bnb explored-prefix ratio at the pin.
const MIN_EXPLORED_RATIO: f64 = 5.0;
/// Acceptance floor: exhaustive vs branch-and-bound wall time.
const MIN_STEADY_SPEEDUP: f64 = 3.0;

#[derive(Serialize)]
struct ScenarioRow {
    scenario: String,
    peers: usize,
    /// Graph width: `domain_problem`'s interior width, or the transcoders
    /// per peer of the plateau row.
    branching: usize,
    explored_exhaustive: u64,
    explored_bnb: u64,
    pruned_bound: u64,
    pruned_dominated: u64,
    /// explored_exhaustive / explored_bnb.
    explored_ratio: f64,
    exhaustive_ns: u64,
    bnb_ns: u64,
    /// exhaustive_ns / bnb_ns: the exhaustive search vs the
    /// branch-and-bound search the RM runs in its steady state.
    steady_speedup: f64,
}

#[derive(Serialize)]
struct Report {
    /// Available parallelism of the recording machine.
    nproc: usize,
    pinned_scenario: String,
    pinned_explored_ratio: f64,
    pinned_steady_speedup: f64,
    scenarios: Vec<ScenarioRow>,
}

/// Times `f` over a small fixed budget and returns (mean ns, last result).
fn time_ns<T>(mut f: impl FnMut() -> T) -> (u64, T) {
    let mut out = f(); // warmup
    let budget = Duration::from_millis(120);
    let start = Instant::now();
    let mut iters: u32 = 0;
    while iters < 3 || (start.elapsed() < budget && iters < 2_000) {
        out = f();
        iters += 1;
    }
    ((start.elapsed().as_nanos() / u128::from(iters)) as u64, out)
}

fn assert_identical(scenario: &str, a: &Allocation, b: &Allocation) {
    assert_eq!(a.path, b.path, "{scenario}: paths differ");
    assert_eq!(
        a.fairness.to_bits(),
        b.fairness.to_bits(),
        "{scenario}: fairness differs"
    );
    assert_eq!(a.est_response, b.est_response, "{scenario}: est differs");
    assert_eq!(a.load_deltas, b.load_deltas, "{scenario}: deltas differ");
}

fn run_scenario(
    scenario: String,
    peers: usize,
    branching: usize,
    problem: (ResourceGraph, PeerView, StateId, StateId, QosSpec),
) -> ScenarioRow {
    let (gr, view, init, goal, qos) = problem;
    let exhaustive = rm_allocator(ExplorationMode::AllSimplePaths);
    let bnb = rm_allocator(ExplorationMode::BranchAndBound);

    let (exhaustive_ns, full) = time_ns(|| {
        exhaustive
            .allocate(&gr, &view, init, &[goal], &qos, None)
            .expect("exhaustive allocation succeeds")
    });
    let (bnb_ns, pruned) = time_ns(|| {
        bnb.allocate(&gr, &view, init, &[goal], &qos, None)
            .expect("bnb allocation succeeds")
    });
    assert_identical(&scenario, &full, &pruned);
    assert!(!full.truncated, "{scenario}: exhaustive search truncated");

    let explored_exhaustive = full.stats.explored_prefixes;
    let explored_bnb = pruned.stats.explored_prefixes;
    ScenarioRow {
        scenario,
        peers,
        branching,
        explored_exhaustive,
        explored_bnb,
        pruned_bound: pruned.stats.pruned_bound,
        pruned_dominated: pruned.stats.pruned_dominated,
        explored_ratio: explored_exhaustive as f64 / explored_bnb.max(1) as f64,
        exhaustive_ns,
        bnb_ns,
        steady_speedup: exhaustive_ns as f64 / bnb_ns.max(1) as f64,
    }
}

fn main() {
    let mut out_path = String::from("BENCH_alloc.json");
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline needs a path")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let shapes: &[(usize, usize)] = &[(16, 4), (64, 4), (64, 6), (256, 4)];
    let rows = shapes
        .iter()
        .map(|&(p, b)| (format!("p{p}_b{b}"), p, b, domain_problem(p, b, 7)))
        .chain(std::iter::once((
            "idle_p32_t5".to_string(),
            32,
            5,
            plateau_problem(32, 5, 7),
        )));
    let scenarios: Vec<ScenarioRow> = rows
        .map(|(name, p, b, problem)| {
            let row = run_scenario(name, p, b, problem);
            println!(
                "{:>11}: explored {:>6} -> {:>5} ({:>5.1}x)  wall {:>9}ns -> {:>8}ns ({:.1}x steady)",
                row.scenario,
                row.explored_exhaustive,
                row.explored_bnb,
                row.explored_ratio,
                row.exhaustive_ns,
                row.bnb_ns,
                row.steady_speedup,
            );
            row
        })
        .collect();

    let pinned = scenarios
        .iter()
        .find(|s| s.scenario == PINNED)
        .expect("pinned scenario present");
    let report = Report {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pinned_scenario: PINNED.to_string(),
        pinned_explored_ratio: pinned.explored_ratio,
        pinned_steady_speedup: pinned.steady_speedup,
        scenarios,
    };

    let mut failures = Vec::new();
    if report.pinned_explored_ratio < MIN_EXPLORED_RATIO {
        failures.push(format!(
            "pinned explored ratio {:.2}x below the {MIN_EXPLORED_RATIO}x floor",
            report.pinned_explored_ratio
        ));
    }
    if report.pinned_steady_speedup < MIN_STEADY_SPEEDUP {
        failures.push(format!(
            "pinned steady-state speedup {:.2}x below the {MIN_STEADY_SPEEDUP}x floor",
            report.pinned_steady_speedup
        ));
    }

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let value = serde_json::parse(&text).expect("baseline parses as JSON");
        let pinned_now = report
            .scenarios
            .iter()
            .find(|s| s.scenario == PINNED)
            .expect("pinned scenario present");
        let base_explored = value
            .field("scenarios")
            .as_array()
            .and_then(|rows| {
                rows.iter()
                    .find(|r| r.field("scenario").as_str() == Some(PINNED))
            })
            .and_then(|r| r.field("explored_bnb").as_u64())
            .expect("baseline has pinned explored_bnb");
        let limit = base_explored as f64 * REGRESSION_SLACK;
        if pinned_now.explored_bnb as f64 > limit {
            failures.push(format!(
                "pinned explored_bnb {} regressed >10% vs baseline {}",
                pinned_now.explored_bnb, base_explored
            ));
        } else {
            println!(
                "baseline: pinned explored_bnb {} vs committed {} (limit {:.0}) OK",
                pinned_now.explored_bnb, base_explored, limit
            );
        }
    }

    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, json + "\n").expect("write report");
    println!("wrote {out_path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
