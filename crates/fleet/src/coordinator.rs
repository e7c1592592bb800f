//! The reconfiguration coordinator: staggers fabric switches so at most
//! K devices are draining at the same time.
//!
//! A fleet in which every device reacts to the same workload shift
//! reconfigures *together* — and the fleet's throughput falls off a cliff
//! for the duration of the stall. The coordinator prevents that by
//! treating concurrent drains as K slots: a device asking to start a
//! stall window is granted the earliest instant at which fewer than K
//! windows overlap its own, which may be later than "now". The switch
//! still happens (policy bookkeeping stays consistent — a deferral is a
//! longer batch wait, never a cancelled decision); it just waits its
//! turn.
//!
//! The ≤ K invariant holds *by construction*: a window is only ever
//! placed where the overlap budget allows it, so no interleaving of
//! acquisitions can exceed the budget.

/// Grants stall windows subject to the concurrent-drain budget.
#[derive(Debug, Clone)]
pub struct ReconfigCoordinator {
    max_concurrent: usize,
    /// Granted windows `(start_s, end_s)`, pruned as time advances.
    windows: Vec<(f64, f64)>,
}

impl ReconfigCoordinator {
    /// Creates a coordinator allowing at most `max_concurrent` devices to
    /// drain simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `max_concurrent` is zero (no switch could ever be
    /// granted).
    #[must_use]
    pub fn new(max_concurrent: usize) -> Self {
        assert!(max_concurrent > 0, "drain budget must allow one drain");
        Self {
            max_concurrent,
            windows: Vec::new(),
        }
    }

    /// The configured budget.
    #[must_use]
    pub fn max_concurrent(&self) -> usize {
        self.max_concurrent
    }

    /// Requests a drain window of `stall_s` seconds starting no earlier
    /// than `now_s`; returns the granted start instant (`>= now_s`).
    ///
    /// The granted window is the earliest placement that keeps the number
    /// of overlapping granted windows below the budget. Placement is
    /// conservative — windows counted as conflicting need only overlap
    /// the candidate interval somewhere — which can only stagger *more*
    /// than strictly necessary, never break the invariant.
    pub fn acquire(&mut self, now_s: f64, stall_s: f64) -> f64 {
        // Windows fully in the past can no longer conflict (acquisitions
        // arrive in nondecreasing event time).
        self.windows.retain(|&(_, end)| end > now_s);
        if stall_s <= 0.0 {
            return now_s;
        }
        let mut start = now_s;
        loop {
            let end = start + stall_s;
            let conflicting: Vec<f64> = self
                .windows
                .iter()
                .filter(|&&(s, e)| s < end && e > start)
                .map(|&(_, e)| e)
                .collect();
            if conflicting.len() < self.max_concurrent {
                self.windows.push((start, end));
                return start;
            }
            // Budget exhausted somewhere in [start, end): retry once the
            // earliest conflicting window has ended.
            let earliest_end = conflicting.iter().copied().fold(f64::INFINITY, f64::min);
            debug_assert!(earliest_end > start, "conflict must end in the future");
            start = earliest_end;
        }
    }
}

/// Maximum number of intervals overlapping at any instant — the witness
/// the stagger tests check against the budget.
#[must_use]
pub fn max_overlap(windows: &[(f64, f64)]) -> usize {
    let mut edges: Vec<(f64, i64)> = Vec::with_capacity(windows.len() * 2);
    for &(s, e) in windows {
        if e > s {
            edges.push((s, 1));
            edges.push((e, -1));
        }
    }
    // Ends sort before starts at the same instant: windows are half-open.
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut active = 0i64;
    let mut worst = 0i64;
    for (_, delta) in edges {
        active += delta;
        worst = worst.max(active);
    }
    usize::try_from(worst.max(0)).expect("overlap fits usize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_slot_serializes_overlapping_requests() {
        let mut c = ReconfigCoordinator::new(1);
        let a = c.acquire(0.0, 0.1);
        let b = c.acquire(0.02, 0.1);
        let d = c.acquire(0.03, 0.1);
        assert_eq!(a, 0.0);
        assert!((b - 0.1).abs() < 1e-12, "second waits for the first");
        assert!((d - 0.2).abs() < 1e-12, "third waits for the second");
        assert_eq!(max_overlap(&[(a, a + 0.1), (b, b + 0.1), (d, d + 0.1)]), 1);
    }

    #[test]
    fn budget_two_admits_two_then_defers() {
        let mut c = ReconfigCoordinator::new(2);
        let a = c.acquire(0.0, 0.2);
        let b = c.acquire(0.01, 0.2);
        let d = c.acquire(0.02, 0.2);
        assert_eq!(a, 0.0);
        assert!((b - 0.01).abs() < 1e-12, "second fits in the budget");
        assert!(d >= 0.2 - 1e-12, "third defers past a window end");
        let windows = [(a, a + 0.2), (b, b + 0.2), (d, d + 0.2)];
        assert!(max_overlap(&windows) <= 2);
    }

    #[test]
    fn non_overlapping_requests_start_immediately() {
        let mut c = ReconfigCoordinator::new(1);
        assert_eq!(c.acquire(0.0, 0.1), 0.0);
        assert_eq!(c.acquire(0.5, 0.1), 0.5);
        assert_eq!(c.acquire(1.0, 0.1), 1.0);
    }

    #[test]
    fn zero_stall_is_a_no_op() {
        let mut c = ReconfigCoordinator::new(1);
        let a = c.acquire(0.0, 0.5);
        assert_eq!(a, 0.0);
        // A zero-length "drain" neither waits nor consumes the budget.
        assert_eq!(c.acquire(0.1, 0.0), 0.1);
        let active = c.windows.iter().filter(|&&(s, e)| s <= 0.1 && 0.1 < e);
        assert_eq!(active.count(), 1);
    }

    #[test]
    fn randomized_acquisitions_never_exceed_budget() {
        for k in 1..=3usize {
            let mut c = ReconfigCoordinator::new(k);
            let mut windows = Vec::new();
            // A deterministic pseudo-random schedule of acquisition times
            // and stall lengths.
            let mut t = 0.0;
            for i in 0u64..200 {
                t += (i.wrapping_mul(2_654_435_761) % 50) as f64 * 1e-3;
                let stall = 0.02 + (i.wrapping_mul(40_503) % 80) as f64 * 1e-3;
                let start = c.acquire(t, stall);
                assert!(start >= t - 1e-12);
                windows.push((start, start + stall));
            }
            assert!(
                max_overlap(&windows) <= k,
                "budget {k} violated: {}",
                max_overlap(&windows)
            );
        }
    }

    #[test]
    #[should_panic(expected = "drain budget")]
    fn zero_budget_is_rejected() {
        let _ = ReconfigCoordinator::new(0);
    }
}
