//! E3 hot path: the Fig. 3 allocation algorithm and its branch-and-bound
//! fairness pruning. Every allocator uses the RM's shipped search
//! parameters with only the exploration mode changed.

use arm_bench::{domain_problem, large_problem, medium_problem, rm_allocator};
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
/// (peers) and graph branching factors.
fn bench_alloc_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_scale");
    let shapes: &[(usize, usize)] = &[(16, 4), (64, 2), (64, 4), (64, 6), (256, 4)];
    for &(peers, branching) in shapes {
        let (gr, view, init, goal, qos) = domain_problem(peers, branching, 7);
        for (mode_name, mode) in [
            ("exhaustive", ExplorationMode::AllSimplePaths),
            ("bnb", ExplorationMode::BranchAndBound),
        ] {
            let allocator = rm_allocator(mode);
            g.bench_function(format!("p{peers}_b{branching}/{mode_name}"), |b| {
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
