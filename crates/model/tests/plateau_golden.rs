//! Golden answers of the allocator on tie plateaus.
//!
//! On an idle or two-level-loaded domain whose peers offer parallel
//! transcoders over a five-rung format ladder, thousands of
//! complete paths share a bit-identical fairness, so the chosen path is
//! decided by the selection tiebreaks (shorter first, then the
//! lexicographically smaller edge sequence) and by each objective's own
//! rule. This test pins every observable of `FairnessAllocator::allocate`
//! on such domains — path, fairness bits, estimate, load deltas, search
//! counters and the truncation flag — for all five objectives under both
//! exhaustive enumeration and branch-and-bound. The identity property
//! tests compare two modes that share the selection code; this one
//! compares against answers recorded from the earlier implementation,
//! which stored every candidate and selected among them afterwards.
//!
//! The 72-peer domain exceeds 64 peers and so exercises the search
//! without the per-prefix peer-set mask.
//!
//! The goldens live in `tests/data/plateau_golden.txt`, one line per
//! (domain, request, objective, mode) case. On a mismatch the test
//! prints every rendered line, so a deliberate behaviour change can be
//! re-recorded by pasting them over the file.

use arm_model::{
    AllocError, AllocParams, Allocation, AllocatorKind, Codec, ExplorationMode, FairnessAllocator,
    MediaFormat, PeerInfo, PeerView, QosSpec, Resolution, ResourceGraph, ServiceSpec, StateId,
};
use arm_util::{DetRng, NodeId, ServiceId, SimDuration};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("data/plateau_golden.txt");

/// Transcoders each peer offers (the `sim-alloc` benchmark shape).
const TRANSCODERS: usize = 5;

/// The five-rung quality ladder of the default workload.
fn ladder() -> [MediaFormat; 5] {
    [
        MediaFormat::new(Codec::Mpeg2, Resolution::SVGA, 512),
        MediaFormat::new(Codec::Mpeg2, Resolution::VGA, 256),
        MediaFormat::new(Codec::Mpeg4, Resolution::VGA, 128),
        MediaFormat::new(Codec::Mpeg4, Resolution::QVGA, 64),
        MediaFormat::new(Codec::H263, Resolution::QCIF, 32),
    ]
}

/// A domain of `peers` peers, each offering `TRANSCODERS` distinct
/// ladder steps (adjacent rungs and one-rung skips), with per-peer load
/// `load(peer index)`. Returns the graph, the view, and the ladder's
/// states from the top rung down.
fn plateau_domain(
    peers: u64,
    seed: u64,
    load: impl Fn(u64) -> f64,
) -> (ResourceGraph, PeerView, Vec<StateId>) {
    let formats = ladder();
    let mut steps = Vec::new();
    for i in 0..formats.len() - 1 {
        steps.push((formats[i], formats[i + 1]));
        if i + 2 < formats.len() {
            steps.push((formats[i], formats[i + 2]));
        }
    }
    let mut gr = ResourceGraph::new();
    for f in formats {
        gr.intern_state(f);
    }
    let mut rng = DetRng::new(seed);
    let mut view = PeerView::new();
    for p in 0..peers {
        let peer = NodeId::new(p + 1);
        for (si, step) in rng
            .sample_indices(steps.len(), TRANSCODERS)
            .into_iter()
            .enumerate()
        {
            let (input, output) = steps[step];
            let spec =
                ServiceSpec::transcoder(ServiceId::new(p * 1_000 + si as u64), input, output, 5.0);
            gr.add_service(input, output, peer, spec.id, spec.cost);
        }
        let mut info = PeerInfo::idle(rng.uniform(60.0, 140.0), 10_000);
        info.load = load(p);
        view.upsert(peer, info);
    }
    let rungs = formats.iter().filter_map(|f| gr.state_of(*f)).collect();
    (gr, view, rungs)
}

fn render(out: &mut String, case: &str, result: &Result<Allocation, AllocError>) {
    let _ = write!(out, "{case}");
    match result {
        Ok(a) => {
            let path: Vec<String> = a.path.iter().map(|e| e.0.to_string()).collect();
            let deltas: Vec<String> = a
                .load_deltas
                .iter()
                .map(|(n, w)| format!("{}:{:016x}", n.raw(), w.to_bits()))
                .collect();
            let _ = writeln!(
                out,
                " ok path={} fairness={:016x} est_us={} deltas={} explored={} truncated={} \
                 stats={}/{}/{}",
                path.join(","),
                a.fairness.to_bits(),
                a.est_response.0,
                deltas.join(","),
                a.explored,
                a.truncated,
                a.stats.explored_prefixes,
                a.stats.pruned_bound,
                a.stats.pruned_dominated,
            );
        }
        Err(e) => {
            let _ = writeln!(out, " err {e:?}");
        }
    }
}

/// Runs every (domain, request, objective, mode) case and renders the
/// results. The top-to-fourth-rung request enumerates its whole plateau
/// (about 13 000 tied paths on 32 peers); the top-to-bottom request is
/// too large for that and hits a reduced prefix cap, so the truncated
/// answer and flag are pinned too.
fn render_all() -> String {
    let domains = [
        ("idle_p32_t5", plateau_domain(32, 11, |_| 0.0)),
        (
            "twolevel_p32_t5",
            plateau_domain(32, 12, |p| if p % 2 == 0 { 0.0 } else { 20.0 }),
        ),
        ("idle_p72_t5", plateau_domain(72, 13, |_| 0.0)),
    ];
    let kinds = [
        AllocatorKind::MaxFairness,
        AllocatorKind::FirstFeasible,
        AllocatorKind::Random,
        AllocatorKind::LeastLoaded,
        AllocatorKind::MinWork,
    ];
    let modes = [
        ExplorationMode::AllSimplePaths,
        ExplorationMode::BranchAndBound,
    ];
    // (goal rung, prefix cap) of each request from the top rung.
    let requests = [(3, AllocParams::default().max_explored), (4, 10_000)];
    let qos = QosSpec::with_deadline(SimDuration::from_secs(8));
    let mut out = String::new();
    for (name, (gr, view, rungs)) in &domains {
        for (goal_rung, max_explored) in requests {
            for kind in kinds {
                for mode in modes {
                    let allocator = FairnessAllocator {
                        params: AllocParams {
                            mode,
                            max_explored,
                            ..AllocParams::default()
                        },
                        kind,
                    };
                    let mut rng = DetRng::new(5);
                    let result = allocator.allocate(
                        gr,
                        view,
                        rungs[0],
                        &[rungs[goal_rung]],
                        &qos,
                        Some(&mut rng),
                    );
                    render(
                        &mut out,
                        &format!("{name} r0-r{goal_rung} {kind:?} {mode:?}"),
                        &result,
                    );
                }
            }
        }
    }
    out
}

#[test]
fn plateau_answers_match_goldens() {
    let actual = render_all();
    let mismatches: Vec<(&str, &str)> = GOLDEN
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .collect();
    if !mismatches.is_empty() || GOLDEN.lines().count() != actual.lines().count() {
        for (g, a) in &mismatches {
            eprintln!("golden: {g}\nactual: {a}");
        }
        eprintln!("--- rendered ---\n{actual}--- end ---");
        panic!(
            "{} of {} plateau cases differ from the goldens",
            mismatches.len(),
            actual.lines().count()
        );
    }
}
