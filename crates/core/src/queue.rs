//! The modified priority queue of §4.6.
//!
//! Best-first search over the assignment lattice would otherwise linger on
//! states with few assignments (costs increase monotonically with
//! assignments) and visit exponentially many subsets. The queue is bounded
//! per level: level `i` (states with `i` assignments) holds at most
//! `max(1, ϱ − i + 1)` states. A full level accepts a new state only if it
//! is not worse than every resident of the level, evicting the worst.
//! Polling returns the globally cheapest state; ties prefer more
//! assignments.

use crate::state::SearchState;

/// Level-bounded priority queue.
#[derive(Debug, Default)]
pub struct BoundedLevelQueue {
    levels: Vec<Vec<SearchState>>,
    rho: usize,
    len: usize,
}

impl BoundedLevelQueue {
    /// Create a queue with width parameter ϱ. `rho = 0` is honoured as
    /// written: every level then holds exactly one state (the paper's
    /// `max(1, ϱ − i + 1)` with ϱ = 0), making the search fully greedy.
    pub fn new(rho: usize) -> BoundedLevelQueue {
        BoundedLevelQueue {
            levels: Vec::new(),
            rho,
            len: 0,
        }
    }

    /// Capacity of level `i`: `max(1, ϱ − i + 1)`.
    pub fn capacity(&self, level: usize) -> usize {
        (self.rho + 1).saturating_sub(level).max(1)
    }

    /// Number of queued states.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no states are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a state, respecting the level bound. Returns `false` if the
    /// state was rejected (level full of strictly better states).
    pub fn push(&mut self, state: SearchState) -> bool {
        let level = state.level();
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, Vec::new);
        }
        let cap = self.capacity(level);
        let bucket = &mut self.levels[level];
        if bucket.len() < cap {
            bucket.push(state);
            self.len += 1;
            return true;
        }
        // Find the worst resident (max cost; ties towards older states so
        // fresh equal-cost states replace stale ones deterministically).
        let (worst_idx, worst_cost) = bucket
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.cost))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are never NaN"))
            .expect("bucket is non-empty when full");
        if state.cost <= worst_cost {
            bucket[worst_idx] = state;
            true
        } else {
            false
        }
    }

    /// Position `(level, index)` of the state the next [`poll`] returns.
    ///
    /// [`poll`]: BoundedLevelQueue::poll
    fn poll_position(&self) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None; // (level, index)
        let mut best_key: Option<(f64, usize, usize)> = None; // (cost, level, id)
        for (level, bucket) in self.levels.iter().enumerate() {
            for (i, s) in bucket.iter().enumerate() {
                let better = match best_key {
                    None => true,
                    Some((bc, blvl, bid)) => {
                        match s.cost.partial_cmp(&bc).expect("costs are never NaN") {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Greater => false,
                            std::cmp::Ordering::Equal => {
                                level > blvl || (level == blvl && s.id < bid)
                            }
                        }
                    }
                };
                if better {
                    best = Some((level, i));
                    best_key = Some((s.cost, level, s.id));
                }
            }
        }
        best
    }

    /// Remove and return the globally cheapest state. Ties are broken
    /// towards states with more assignments ("returns states with a higher
    /// number of assignments first"), then towards *older* ids — children
    /// are generated in ranking order, so earlier ids carry better-ranked
    /// candidates.
    pub fn poll(&mut self) -> Option<SearchState> {
        let (level, idx) = self.poll_position()?;
        self.len -= 1;
        Some(self.levels[level].swap_remove(idx))
    }

    /// Peek at the cheapest cost without removing.
    pub fn min_cost(&self) -> Option<f64> {
        self.levels
            .iter()
            .flatten()
            .map(|s| s.cost)
            .min_by(|a, b| a.partial_cmp(b).expect("costs are never NaN"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Assignment;
    use affidavit_blocking::Blocking;
    use affidavit_functions::AttrFunction;
    use std::sync::Arc;

    fn state(id: usize, level: usize, cost: f64) -> SearchState {
        let mut assignments = vec![Assignment::Undecided; 8];
        for a in assignments.iter_mut().take(level) {
            *a = Assignment::Assigned(AttrFunction::Identity);
        }
        SearchState {
            assignments,
            blocking: Arc::new(Blocking::default()),
            cost,
            id,
            parent: None,
            pending: None,
        }
    }

    #[test]
    fn capacities_match_paper() {
        let q = BoundedLevelQueue::new(3);
        // max(1, ϱ − i + 1): level 1 → 3, level 2 → 2, level 3 → 1, 4 → 1.
        assert_eq!(q.capacity(1), 3);
        assert_eq!(q.capacity(2), 2);
        assert_eq!(q.capacity(3), 1);
        assert_eq!(q.capacity(4), 1);
        assert_eq!(q.capacity(7), 1);
    }

    #[test]
    fn poll_returns_cheapest() {
        let mut q = BoundedLevelQueue::new(5);
        q.push(state(1, 1, 10.0));
        q.push(state(2, 1, 3.0));
        q.push(state(3, 2, 7.0));
        assert_eq!(q.poll().unwrap().id, 2);
        assert_eq!(q.poll().unwrap().id, 3);
        assert_eq!(q.poll().unwrap().id, 1);
        assert!(q.poll().is_none());
    }

    #[test]
    fn tie_prefers_higher_level() {
        let mut q = BoundedLevelQueue::new(5);
        q.push(state(1, 1, 5.0));
        q.push(state(2, 3, 5.0));
        assert_eq!(q.poll().unwrap().id, 2);
    }

    #[test]
    fn full_level_rejects_worse() {
        let mut q = BoundedLevelQueue::new(1); // level 1 capacity = 1
        assert!(q.push(state(1, 1, 5.0)));
        assert!(!q.push(state(2, 1, 9.0))); // worse than all residents
        assert!(q.push(state(3, 1, 4.0))); // better: evicts
        assert_eq!(q.len(), 1);
        assert_eq!(q.poll().unwrap().id, 3);
    }

    #[test]
    fn equal_cost_is_accepted_on_full_level() {
        // "not worse than all states" — equal cost must be accepted.
        let mut q = BoundedLevelQueue::new(1);
        q.push(state(1, 1, 5.0));
        assert!(q.push(state(2, 1, 5.0)));
        assert_eq!(q.poll().unwrap().id, 2);
    }

    #[test]
    fn eviction_keeps_level_size() {
        let mut q = BoundedLevelQueue::new(2); // level 1 cap = 2
        q.push(state(1, 1, 5.0));
        q.push(state(2, 1, 6.0));
        q.push(state(3, 1, 1.0)); // evicts id 2
        assert_eq!(q.len(), 2);
        let a = q.poll().unwrap();
        let b = q.poll().unwrap();
        assert_eq!((a.id, b.id), (3, 1));
    }

    #[test]
    fn capacity_beyond_rho_clamps_to_one() {
        // Regression: the formula `max(1, ϱ − i + 1)` must clamp for every
        // level past ϱ, not just the ones existing tests touched.
        let q = BoundedLevelQueue::new(3);
        for level in 4..64 {
            assert_eq!(q.capacity(level), 1, "level {level}");
        }
        // And push honours the clamp far beyond ϱ.
        let mut q = BoundedLevelQueue::new(2);
        assert!(q.push(state(1, 7, 5.0)));
        assert!(
            !q.push(state(2, 7, 9.0)),
            "worse state on a full deep level"
        );
        assert!(q.push(state(3, 7, 4.0)), "better state evicts");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn rho_zero_follows_the_paper_formula() {
        // Regression: ϱ = 0 used to be silently clamped to 1, giving level
        // 0 capacity 2 instead of the paper's max(1, 0 − 0 + 1) = 1.
        let q = BoundedLevelQueue::new(0);
        for level in 0..8 {
            assert_eq!(q.capacity(level), 1, "level {level}");
        }
        let mut q = BoundedLevelQueue::new(0);
        assert!(q.push(state(1, 0, 5.0)));
        assert!(!q.push(state(2, 0, 9.0)), "level 0 holds exactly one state");
        assert!(
            q.push(state(3, 0, 2.0)),
            "cheaper state evicts the resident"
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.poll().unwrap().id, 3);
    }
}
