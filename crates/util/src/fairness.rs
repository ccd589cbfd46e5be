//! Jain's fairness index — the load-balance objective of the paper (§4.2).
//!
//! For a load vector `l = (l_1 … l_n)` over the peers of a domain:
//!
//! ```text
//!            ( Σ_p l_p )²
//! F(l) = ────────────────────          (paper Eq. 1, from Jain et al. [9])
//!          n · Σ_p l_p²
//! ```
//!
//! Properties the paper relies on (all covered by tests below):
//!
//! * `F ∈ [1/n, 1]`; `F = 1` iff the distribution is perfectly uniform.
//! * Scale-independent: `F(k·l) = F(l)` for `k > 0`.
//! * Continuous in every component; not monotone in a single load — it is
//!   maximised when a peer's load equals the mean of the others (`l_best`).
//!
//! [`FairnessTracker`] maintains `Σl` and `Σl²` incrementally so the
//! allocation algorithm can evaluate "fairness if I placed this path here"
//! in O(path length) instead of O(n) per candidate — the hot loop of the
//! Fig. 3 search.

use serde::{Deserialize, Serialize};

/// Computes Jain's fairness index of a load slice.
///
/// Degenerate cases: an empty slice and an all-zero slice are defined as
/// perfectly fair (1.0) — an idle domain treats all peers identically.
///
/// # Examples
///
/// ```
/// use arm_util::fairness_index;
/// assert_eq!(fairness_index(&[4.0, 4.0, 4.0]), 1.0);      // uniform
/// assert_eq!(fairness_index(&[9.0, 0.0, 0.0]), 1.0 / 3.0); // one hot peer
/// ```
#[inline]
pub fn fairness_index(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for &l in loads {
        debug_assert!(l >= 0.0 && l.is_finite(), "invalid load {l}");
        sum += l;
        sum_sq += l * l;
    }
    finish(loads.len(), sum, sum_sq)
}

#[inline]
fn finish(n: usize, sum: f64, sum_sq: f64) -> f64 {
    if sum_sq <= 0.0 {
        return 1.0; // all-zero loads: perfectly uniform
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Best achievable Jain's index over any completion of a partial
/// allocation: the maximum of `F(x)` over all `x ≥ loads` with
/// `Σ(x_i − loads_i) ≤ budget`.
///
/// `sorted_loads` must be the current loads in ascending order; `total`
/// and `total_sq` are `Σ loads` and `Σ loads²` (as maintained by
/// [`FairnessTracker`]). The maximum is attained by water-filling: raising
/// the lowest loads to a common level strictly increases `F` (a coordinate
/// below the square-mean-over-mean always does, and the lowest coordinate
/// always is) until either the budget runs out or all loads are equal
/// (`F = 1`). This makes the returned value an *admissible* upper bound
/// for branch-and-bound search: no feasible completion — which can only
/// add work, in total at most `budget` — can score higher.
///
/// A non-positive budget returns the current index; no loads returns
/// 1.0 (matching [`fairness_index`]). The loads are read only up to the
/// water line, so a lazily merged sequence is produced only that far.
///
/// # Examples
///
/// ```
/// use arm_util::{fairness_index, fairness_upper_bound};
/// let loads = [0.0, 4.0, 8.0];
/// let (t, q) = (12.0, 80.0);
/// // Enough budget to equalise: the bound reaches 1 (up to rounding).
/// assert!(fairness_upper_bound(loads, t, q, 100.0) >= 1.0 - 1e-12);
/// // No budget: the bound is the current fairness.
/// let f = fairness_upper_bound(loads, t, q, 0.0);
/// assert!((f - fairness_index(&loads)).abs() < 1e-12);
/// ```
pub fn fairness_upper_bound<I>(sorted_loads: I, total: f64, total_sq: f64, budget: f64) -> f64
where
    I: IntoIterator<Item = f64>,
    I::IntoIter: ExactSizeIterator,
{
    let mut loads = sorted_loads.into_iter().peekable();
    let n = loads.len();
    if n == 0 {
        return 1.0;
    }
    if budget <= 0.0 {
        return finish(n, total, total_sq);
    }
    // Water-fill: find the largest m such that raising the m lowest loads
    // to a common level L = (s_m + budget) / m stays below the (m+1)-th
    // load. Loads at or above L are untouched.
    let mut s_m = 0.0; // sum of the m lowest loads
    let mut q_m = 0.0; // sum of their squares
    let mut m = 0usize;
    let mut level = 0.0;
    while let Some(v) = loads.next() {
        s_m += v;
        q_m += v * v;
        m += 1;
        level = (s_m + budget) / m as f64;
        if loads.peek().is_some_and(|&next| level <= next) {
            break;
        }
    }
    // x = (L, …, L, a_{m+1}, …, a_n): sum grows by the full budget, the
    // m raised squares become m·L².
    let sum = total + budget;
    let sum_sq = total_sq - q_m + m as f64 * level * level;
    // Raising every load to a common level can only reach F = 1; guard
    // against rounding pushing the ratio above it.
    finish(n, sum, sum_sq).min(1.0)
}

/// Incrementally maintained fairness over a fixed-size set of peer loads.
///
/// Supports O(1) point updates and O(1) index queries, plus *hypothetical*
/// evaluation (`index_with`) that asks "what would the fairness be if these
/// peers' loads changed?" without mutating the tracker — the primitive the
/// fairness-maximising allocator needs to score candidate paths.
///
/// # Examples
///
/// ```
/// use arm_util::FairnessTracker;
/// let mut t = FairnessTracker::from_loads(vec![2.0, 2.0, 2.0]);
/// assert_eq!(t.index(), 1.0);
/// // Score a hypothetical placement without committing it:
/// let if_loaded = t.index_with(&[(0, 4.0)]);
/// assert!(if_loaded < 1.0);
/// assert_eq!(t.index(), 1.0); // unchanged
/// t.add(0, 4.0);
/// assert!((t.index() - if_loaded).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FairnessTracker {
    loads: Vec<f64>,
    sum: f64,
    sum_sq: f64,
}

impl FairnessTracker {
    /// Creates a tracker over `n` peers, all initially idle.
    pub fn new(n: usize) -> Self {
        Self {
            loads: vec![0.0; n],
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Creates a tracker seeded with the given loads.
    pub fn from_loads(loads: Vec<f64>) -> Self {
        let sum = loads.iter().sum();
        let sum_sq = loads.iter().map(|l| l * l).sum();
        Self { loads, sum, sum_sq }
    }

    /// Number of peers tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True if no peers are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Current load of peer `i`.
    #[inline]
    pub fn load(&self, i: usize) -> f64 {
        self.loads[i]
    }

    /// All current loads.
    #[inline]
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Total load across peers.
    #[inline]
    pub fn total(&self) -> f64 {
        self.sum
    }

    /// Sum of squared loads (the `Σl²` of Eq. 1), as maintained
    /// incrementally — pairs with [`FairnessTracker::total`] to feed
    /// [`fairness_upper_bound`].
    #[inline]
    pub fn total_sq(&self) -> f64 {
        self.sum_sq
    }

    /// Mean load per peer.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.loads.is_empty() {
            0.0
        } else {
            self.sum / self.loads.len() as f64
        }
    }

    /// Sets peer `i`'s load to `new`.
    #[inline]
    pub fn set(&mut self, i: usize, new: f64) {
        debug_assert!(new >= 0.0 && new.is_finite());
        let old = self.loads[i];
        self.sum += new - old;
        self.sum_sq += new * new - old * old;
        self.loads[i] = new;
    }

    /// Adds `delta` (may be negative) to peer `i`'s load, clamping at zero.
    #[inline]
    pub fn add(&mut self, i: usize, delta: f64) {
        let new = (self.loads[i] + delta).max(0.0);
        self.set(i, new);
    }

    /// Current fairness index.
    #[inline]
    pub fn index(&self) -> f64 {
        finish(self.loads.len(), self.sum, self.sum_sq)
    }

    /// Fairness index if the peers in `changes` had their loads *increased*
    /// by the paired deltas. Peers may repeat; repeats accumulate. Does not
    /// mutate the tracker. O(|changes|).
    pub fn index_with(&self, changes: &[(usize, f64)]) -> f64 {
        let mut sum = self.sum;
        let mut sum_sq = self.sum_sq;
        // Accumulate per-peer deltas: a peer can host several services of
        // the same path. Small slices — quadratic dedup beats allocating.
        for (k, &(i, _)) in changes.iter().enumerate() {
            if changes[..k].iter().any(|&(j, _)| j == i) {
                continue; // already folded below
            }
            let delta: f64 = changes
                .iter()
                .filter(|&&(j, _)| j == i)
                .map(|&(_, d)| d)
                .sum();
            let old = self.loads[i];
            let new = (old + delta).max(0.0);
            sum += new - old;
            sum_sq += new * new - old * old;
        }
        finish(self.loads.len(), sum, sum_sq)
    }

    /// Recomputes the sums from scratch, repairing any accumulated
    /// floating-point drift. Call occasionally on long-running trackers.
    pub fn rebuild(&mut self) {
        self.sum = self.loads.iter().sum();
        self.sum_sq = self.loads.iter().map(|l| l * l).sum();
    }

    /// The load value for peer `i` that would maximise fairness, holding all
    /// other loads fixed (the paper's `l_best` discussion in §4.2).
    ///
    /// Setting `dF/dl_i = 0` gives `l_best = (Σ_{j≠i} l_j²) / (Σ_{j≠i} l_j)`
    /// — the square-mean-over-mean of the other peers, which reduces to
    /// their common value when they are uniform.
    pub fn l_best(&self, i: usize) -> f64 {
        let n = self.loads.len();
        if n <= 1 {
            return self.loads.first().copied().unwrap_or(0.0);
        }
        let li = self.loads[i];
        let s_others = self.sum - li;
        let q_others = self.sum_sq - li * li;
        if s_others <= 0.0 {
            0.0 // all other peers idle: matching them maximises fairness
        } else {
            q_others / s_others
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_one() {
        assert_eq!(fairness_index(&[5.0, 5.0, 5.0, 5.0]), 1.0);
        assert_eq!(fairness_index(&[1.0]), 1.0);
    }

    #[test]
    fn empty_and_zero_are_one() {
        assert_eq!(fairness_index(&[]), 1.0);
        assert_eq!(fairness_index(&[0.0, 0.0, 0.0]), 1.0);
    }

    #[test]
    fn single_loaded_peer_gives_one_over_n() {
        let f = fairness_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((f - 0.25).abs() < 1e-12);
        let f = fairness_index(&[3.0, 0.0]);
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn known_value() {
        // Jain's canonical example: (1,1,1,2) -> 25/(4*7) ≈ 0.8929
        let f = fairness_index(&[1.0, 1.0, 1.0, 2.0]);
        assert!((f - 25.0 / 28.0).abs() < 1e-12);
    }

    #[test]
    fn scale_invariance() {
        let l = [1.0, 2.0, 3.0, 4.0];
        let scaled: Vec<f64> = l.iter().map(|x| x * 7.3).collect();
        assert!((fairness_index(&l) - fairness_index(&scaled)).abs() < 1e-12);
    }

    #[test]
    fn bounded() {
        let l = [0.1, 5.0, 2.0, 9.0, 0.0];
        let f = fairness_index(&l);
        assert!(f > 1.0 / 5.0 - 1e-12 && f <= 1.0);
    }

    #[test]
    fn tracker_matches_direct() {
        let loads = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let t = FairnessTracker::from_loads(loads.clone());
        assert!((t.index() - fairness_index(&loads)).abs() < 1e-12);
        assert_eq!(t.len(), 5);
        assert_eq!(t.total(), 15.0);
        assert_eq!(t.mean(), 3.0);
    }

    #[test]
    fn tracker_set_and_add() {
        let mut t = FairnessTracker::new(3);
        assert_eq!(t.index(), 1.0);
        t.set(0, 4.0);
        t.set(1, 4.0);
        t.set(2, 4.0);
        assert!((t.index() - 1.0).abs() < 1e-12);
        t.add(0, 4.0); // loads: 8,4,4
        assert!((t.index() - fairness_index(&[8.0, 4.0, 4.0])).abs() < 1e-12);
        t.add(0, -10.0); // clamps to 0
        assert_eq!(t.load(0), 0.0);
    }

    #[test]
    fn hypothetical_matches_actual() {
        let mut t = FairnessTracker::from_loads(vec![1.0, 2.0, 3.0, 4.0]);
        let hypo = t.index_with(&[(0, 2.0), (3, 1.0)]);
        t.add(0, 2.0);
        t.add(3, 1.0);
        assert!((hypo - t.index()).abs() < 1e-12);
    }

    #[test]
    fn hypothetical_with_repeated_peer() {
        let mut t = FairnessTracker::from_loads(vec![1.0, 1.0, 1.0]);
        let hypo = t.index_with(&[(0, 1.0), (0, 2.0)]);
        t.add(0, 3.0);
        assert!((hypo - t.index()).abs() < 1e-12);
    }

    #[test]
    fn hypothetical_does_not_mutate() {
        let t = FairnessTracker::from_loads(vec![1.0, 2.0]);
        let before = t.index();
        let _ = t.index_with(&[(0, 100.0)]);
        assert_eq!(t.index(), before);
        assert_eq!(t.loads(), &[1.0, 2.0]);
    }

    #[test]
    fn l_best_maximises_fairness() {
        let t = FairnessTracker::from_loads(vec![10.0, 2.0, 4.0]);
        // Σ_{j≠0} l_j² / Σ_{j≠0} l_j = (4 + 16) / 6
        assert!((t.l_best(0) - 20.0 / 6.0).abs() < 1e-12);
        // Setting load 0 to l_best maximises fairness (check by perturbation).
        let best = t.l_best(0);
        let f_best = t.index_with(&[(0, best - 10.0)]);
        for eps in [-0.5, 0.5, -2.0, 2.0] {
            let f = t.index_with(&[(0, best - 10.0 + eps)]);
            assert!(f <= f_best + 1e-12, "perturbed {f} > best {f_best}");
        }
    }

    #[test]
    fn rebuild_repairs_drift() {
        let mut t = FairnessTracker::from_loads(vec![1.0, 2.0, 3.0]);
        for _ in 0..10_000 {
            t.add(1, 0.1);
            t.add(1, -0.1);
        }
        t.rebuild();
        assert!((t.index() - fairness_index(&[1.0, 2.0, 3.0])).abs() < 1e-9);
    }

    #[test]
    fn paper_interpretation_low_fairness() {
        // "A value of 0.1 indicates the system to be fair to only 10% of the
        // users": one busy peer out of ten idle-ish ones.
        let mut loads = vec![0.0; 10];
        loads[0] = 100.0;
        let f = fairness_index(&loads);
        assert!((f - 0.1).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn load_vec() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(0.0f64..1e6, 1..64)
    }

    proptest! {
        #[test]
        fn index_in_bounds(loads in load_vec()) {
            let f = fairness_index(&loads);
            let n = loads.len() as f64;
            prop_assert!(f >= 1.0 / n - 1e-9);
            prop_assert!(f <= 1.0 + 1e-9);
        }

        #[test]
        fn uniform_maximises(x in 0.001f64..1e5, n in 1usize..32) {
            let loads = vec![x; n];
            prop_assert!((fairness_index(&loads) - 1.0).abs() < 1e-9);
        }

        #[test]
        fn scale_invariant(loads in load_vec(), k in 0.001f64..1e3) {
            let scaled: Vec<f64> = loads.iter().map(|l| l * k).collect();
            let a = fairness_index(&loads);
            let b = fairness_index(&scaled);
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }

        #[test]
        fn tracker_consistent_with_direct(loads in load_vec()) {
            let t = FairnessTracker::from_loads(loads.clone());
            prop_assert!((t.index() - fairness_index(&loads)).abs() < 1e-9);
        }

        #[test]
        fn incremental_update_consistent(
            loads in proptest::collection::vec(0.0f64..1e4, 2..32),
            updates in proptest::collection::vec((0usize..31, -100.0f64..100.0), 0..32),
        ) {
            let mut t = FairnessTracker::from_loads(loads.clone());
            let mut reference = loads;
            for (i, d) in updates {
                let i = i % reference.len();
                t.add(i, d);
                reference[i] = (reference[i] + d).max(0.0);
            }
            prop_assert!((t.index() - fairness_index(&reference)).abs() < 1e-6);
        }
    }
}
