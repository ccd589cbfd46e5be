//! E3 hot path: the Fig. 3 allocation algorithm and its branch-and-bound
//! fairness pruning. Every allocator uses the RM's shipped search
//! parameters with only the exploration mode changed.

use arm_bench::{domain_problem, large_problem, medium_problem, plateau_problem, rm_allocator};
use arm_model::alloc::{AllocatorKind, ExplorationMode, FairnessAllocator};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_alloc(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc");
    for (name, problem) in [("medium", medium_problem()), ("large", large_problem())] {
        let (gr, view, init, goal, qos) = problem;
        for (mode_name, mode) in [
            ("all_simple_paths", ExplorationMode::AllSimplePaths),
            ("global_visited", ExplorationMode::GlobalVisited),
        ] {
            let allocator = rm_allocator(mode);
            g.bench_function(format!("{name}/{mode_name}"), |b| {
                b.iter(|| {
                    black_box(allocator.allocate(
                        black_box(&gr),
                        black_box(&view),
                        init,
                        &[goal],
                        &qos,
                        None,
                    ))
                })
            });
        }
        // Baseline objective on the same graph.
        let first = FairnessAllocator::with_kind(AllocatorKind::FirstFeasible);
        g.bench_function(format!("{name}/first_feasible"), |b| {
            b.iter(|| black_box(first.allocate(&gr, &view, init, &[goal], &qos, None)))
        });
    }
    g.finish();
}

/// Branch-and-bound vs exhaustive enumeration across domain scales
/// (peers) and graph branching factors, plus the idle 32-peer tie plateau
/// that dominates the `sim-alloc` benchmark.
fn bench_alloc_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_scale");
    let shapes: &[(usize, usize)] = &[(16, 4), (64, 2), (64, 4), (64, 6), (256, 4)];
    let problems = shapes
        .iter()
        .map(|&(p, b)| (format!("p{p}_b{b}"), domain_problem(p, b, 7)))
        .chain(std::iter::once((
            "idle_p32_t5".to_string(),
            plateau_problem(32, 5, 7),
        )));
    for (name, (gr, view, init, goal, qos)) in problems {
        for (mode_name, mode) in [
            ("exhaustive", ExplorationMode::AllSimplePaths),
            ("bnb", ExplorationMode::BranchAndBound),
        ] {
            let allocator = rm_allocator(mode);
            g.bench_function(format!("{name}/{mode_name}"), |b| {
                b.iter(|| {
                    black_box(allocator.allocate(
                        black_box(&gr),
                        black_box(&view),
                        init,
                        &[goal],
                        &qos,
                        None,
                    ))
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_alloc, bench_alloc_scale);
criterion_main!(benches);
