//! Metric arithmetic shared by every workload: quantiles, per-task outcome
//! accounting against submissions, and per-link send→receive matching.
//!
//! Everything here is pure (no clocks, no I/O) so it is unit-tested on its
//! own; the workloads feed it times in seconds on whichever clock they run
//! on (simulated time for the DES workloads, the cluster's `NetClock` for
//! the live one).

use arm_model::task::TaskOutcome;
use arm_util::{NodeId, TaskId};
use std::collections::{BTreeMap, VecDeque};

/// Nearest-rank quantile of `values` (sorted in place). 0 for no values.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median (nearest rank) of `values`, sorted in place.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Life of one submitted task, as the benchmark saw it.
#[derive(Debug, Clone)]
struct TaskEntry {
    submitted_at: f64,
    deadline_at: f64,
    outcome: Option<(TaskOutcome, f64)>,
    reply_at: Option<f64>,
}

/// Per-task accounting: every figure is a count of task ids over the
/// tasks *submitted*, so a task that never reached a terminal outcome
/// still counts against goodput instead of silently vanishing from the
/// denominator.
#[derive(Debug, Clone, Default)]
pub struct TaskLedger {
    tasks: BTreeMap<TaskId, TaskEntry>,
    duplicate_outcomes: u64,
    unknown_ids: u64,
}

/// Outcome tallies of a [`TaskLedger`] at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Tasks submitted.
    pub submitted: u64,
    /// Completed within their deadline.
    pub on_time: u64,
    /// Completed after their deadline.
    pub late: u64,
    /// Refused at admission.
    pub rejected: u64,
    /// Admitted, then lost (the `Failed` outcome).
    pub failed: u64,
    /// No terminal outcome, and the deadline passed before the run ended.
    pub lost: u64,
    /// No terminal outcome, deadline still ahead when the run ended.
    pub in_flight: u64,
}

impl Tally {
    fn ratio(&self, n: u64) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            n as f64 / self.submitted as f64
        }
    }

    /// On-time completions over submissions.
    pub fn goodput(&self) -> f64 {
        self.ratio(self.on_time)
    }

    /// Admission refusals over submissions.
    pub fn rejected_ratio(&self) -> f64 {
        self.ratio(self.rejected)
    }

    /// Tasks lost without an outcome over submissions.
    pub fn lost_ratio(&self) -> f64 {
        self.ratio(self.lost)
    }

    /// Operations that failed: lost tasks plus the `Failed` outcome.
    pub fn failed_ops(&self) -> u64 {
        self.lost + self.failed
    }
}

impl TaskLedger {
    /// Records a submission at `at` whose absolute deadline is `deadline_at`.
    pub fn submit(&mut self, task: TaskId, at: f64, deadline_at: f64) {
        self.tasks.insert(
            task,
            TaskEntry {
                submitted_at: at,
                deadline_at,
                outcome: None,
                reply_at: None,
            },
        );
    }

    /// Records a terminal outcome. The first one counts; later ones for
    /// the same task are tallied as duplicates.
    pub fn outcome(&mut self, task: TaskId, outcome: TaskOutcome, at: f64) {
        match self.tasks.get_mut(&task) {
            Some(entry) if entry.outcome.is_none() => entry.outcome = Some((outcome, at)),
            Some(_) => self.duplicate_outcomes += 1,
            None => self.unknown_ids += 1,
        }
    }

    /// Records the requester receiving its `TaskReply` (first one counts).
    pub fn reply(&mut self, task: TaskId, at: f64) {
        match self.tasks.get_mut(&task) {
            Some(entry) => {
                entry.reply_at.get_or_insert(at);
            }
            None => self.unknown_ids += 1,
        }
    }

    /// Terminal outcomes reported for an already-resolved task.
    pub fn duplicate_outcomes(&self) -> u64 {
        self.duplicate_outcomes
    }

    /// Outcomes or replies for ids that were never submitted.
    pub fn unknown_ids(&self) -> u64 {
        self.unknown_ids
    }

    /// Tallies every task as of `end` (the horizon, or the end of a live
    /// run): a task without an outcome is lost once its deadline passed
    /// before `end`, and in flight otherwise.
    pub fn tally(&self, end: f64) -> Tally {
        let mut t = Tally {
            submitted: self.tasks.len() as u64,
            ..Tally::default()
        };
        for entry in self.tasks.values() {
            match entry.outcome {
                Some((TaskOutcome::CompletedOnTime, _)) => t.on_time += 1,
                Some((TaskOutcome::CompletedLate, _)) => t.late += 1,
                Some((TaskOutcome::Rejected, _)) => t.rejected += 1,
                Some((TaskOutcome::Failed, _)) => t.failed += 1,
                None if entry.deadline_at < end => t.lost += 1,
                None => t.in_flight += 1,
            }
        }
        t
    }

    /// Submission → stream start of every completed task, in ms.
    pub fn response_ms(&self) -> Vec<f64> {
        self.tasks
            .values()
            .filter_map(|e| match e.outcome {
                Some((o, at)) if o.is_completed() => Some((at - e.submitted_at) * 1e3),
                _ => None,
            })
            .collect()
    }

    /// Submission → `TaskReply` at the requester, in ms.
    pub fn reply_ms(&self) -> Vec<f64> {
        self.tasks
            .values()
            .filter_map(|e| e.reply_at.map(|at| (at - e.submitted_at) * 1e3))
            .collect()
    }
}

/// One observed message on a directed link: `(from, to, kind, at_secs)`.
pub type LinkEvent = (NodeId, NodeId, &'static str, f64);

/// Send → receive transit times, matched per directed link and message
/// kind by order: the k-th `kind` message sent from `a` to `b` pairs with
/// the k-th `kind` message `b` received from `a` (each TCP link delivers
/// in order). Returns the transit times in seconds plus the sends and
/// receives left unmatched.
pub fn match_transits(sends: &[LinkEvent], recvs: &[LinkEvent]) -> (Vec<f64>, u64, u64) {
    type Key = (NodeId, NodeId, &'static str);
    let mut queues: BTreeMap<Key, VecDeque<f64>> = BTreeMap::new();
    let mut sends: Vec<&LinkEvent> = sends.iter().collect();
    sends.sort_by(|a, b| a.3.total_cmp(&b.3));
    for &&(from, to, kind, at) in &sends {
        queues.entry((from, to, kind)).or_default().push_back(at);
    }
    let mut recvs: Vec<&LinkEvent> = recvs.iter().collect();
    recvs.sort_by(|a, b| a.3.total_cmp(&b.3));
    let mut transits = Vec::with_capacity(recvs.len());
    let mut unmatched_recvs = 0;
    for &&(from, to, kind, at) in &recvs {
        match queues
            .get_mut(&(from, to, kind))
            .and_then(|q| q.pop_front())
        {
            Some(sent) => transits.push(at - sent),
            None => unmatched_recvs += 1,
        }
    }
    let unmatched_sends = queues.values().map(|q| q.len() as u64).sum();
    (transits, unmatched_sends, unmatched_recvs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> TaskId {
        TaskId::new(n)
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn goodput_counts_against_submissions_not_outcomes() {
        let mut l = TaskLedger::default();
        for n in 0..10 {
            l.submit(id(n), 1.0, 5.0);
        }
        for n in 0..3 {
            l.outcome(id(n), TaskOutcome::CompletedOnTime, 2.0);
        }
        l.outcome(id(3), TaskOutcome::Rejected, 2.0);
        // Six tasks never got an outcome. Over outcomes goodput would read
        // 3/4; over submissions it is 3/10.
        let t = l.tally(10.0);
        assert_eq!(t.submitted, 10);
        assert!((t.goodput() - 0.3).abs() < 1e-12);
        assert!((t.rejected_ratio() - 0.1).abs() < 1e-12);
        assert!((t.lost_ratio() - 0.6).abs() < 1e-12);
        assert_eq!(t.failed_ops(), 6);
    }

    #[test]
    fn lost_needs_a_passed_deadline() {
        let mut l = TaskLedger::default();
        l.submit(id(1), 0.0, 4.0); // deadline before the end: lost
        l.submit(id(2), 7.0, 12.0); // deadline after the end: in flight
        l.submit(id(3), 0.0, 4.0);
        l.outcome(id(3), TaskOutcome::Failed, 3.0);
        l.submit(id(4), 0.0, 10.0); // deadline exactly at the end: in flight
        let t = l.tally(10.0);
        assert_eq!((t.lost, t.in_flight, t.failed), (1, 2, 1));
        assert_eq!(t.failed_ops(), 2);
        // The same tasks at a later end: everything past its deadline.
        let t = l.tally(20.0);
        assert_eq!((t.lost, t.in_flight), (3, 0));
    }

    #[test]
    fn first_outcome_wins_and_strays_are_counted() {
        let mut l = TaskLedger::default();
        l.submit(id(1), 1.0, 9.0);
        l.outcome(id(1), TaskOutcome::CompletedOnTime, 1.5);
        l.outcome(id(1), TaskOutcome::Failed, 4.0);
        l.outcome(id(9), TaskOutcome::Rejected, 2.0);
        l.reply(id(1), 1.25);
        l.reply(id(1), 3.0);
        let t = l.tally(10.0);
        assert_eq!((t.on_time, t.failed), (1, 0));
        assert_eq!(l.duplicate_outcomes(), 1);
        assert_eq!(l.unknown_ids(), 1);
        assert_eq!(l.response_ms(), vec![500.0]);
        assert_eq!(l.reply_ms(), vec![250.0]);
    }

    #[test]
    fn transits_match_per_link_and_kind_in_order() {
        let (a, b, c) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
        let sends = [
            (a, b, "heartbeat", 1.0),
            (a, b, "task_query", 1.1),
            (a, b, "heartbeat", 2.0),
            (b, a, "heartbeat", 1.0),
            (a, c, "heartbeat", 1.0),
        ];
        // Receives arrive interleaved across links and kinds; the a→c
        // heartbeat never arrives and one receive has no matching send.
        let recvs = [
            (b, a, "heartbeat", 1.5),
            (a, b, "task_query", 1.3),
            (a, b, "heartbeat", 1.2),
            (a, b, "heartbeat", 2.4),
            (c, b, "heartbeat", 3.0),
        ];
        let (mut transits, unmatched_sends, unmatched_recvs) = match_transits(&sends, &recvs);
        transits
            .iter_mut()
            .for_each(|t| *t = (*t * 1e6).round() / 1e6);
        transits.sort_by(f64::total_cmp);
        assert_eq!(transits, vec![0.2, 0.2, 0.4, 0.5]);
        assert_eq!((unmatched_sends, unmatched_recvs), (1, 1));
    }
}
