//! Search states (Def. 4.1).
//!
//! A state is a `d`-tuple assigning to each attribute either `∗`
//! (undecided), `⊞` (identified as needing a value mapping, resolved at
//! finalization) or a concrete function from `F`.

use std::sync::Arc;

use affidavit_blocking::Blocking;
use affidavit_functions::AttrFunction;

/// Per-attribute component of a search state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Assignment {
    /// `∗` — the function of this attribute is still undecided.
    Undecided,
    /// `⊞` — a value mapping is best suited; resolved at the very end of
    /// the search when the alignment is maximally determined.
    MapMarked,
    /// A concrete attribute function.
    Assigned(AttrFunction),
}

impl Assignment {
    /// True for `∗` or `⊞` (the function is not yet determined).
    pub fn is_open(&self) -> bool {
        !matches!(self, Assignment::Assigned(_))
    }
}

/// A node of the search lattice, carrying its blocking result and cost.
#[derive(Debug, Clone)]
pub struct SearchState {
    /// One assignment per attribute.
    pub assignments: Vec<Assignment>,
    /// The blocking result Φ^H under the assigned functions — or, while
    /// [`pending`](SearchState::pending) names an attribute, the parent's
    /// blocking, still to be refined on that attribute.
    pub blocking: Arc<Blocking>,
    /// `c(H)` per Def. 4.6 (see `cost` module for normalization notes).
    pub cost: f64,
    /// Unique id (tracing / parent links).
    pub id: usize,
    /// Id of the parent state, if any.
    pub parent: Option<usize>,
    /// The attribute `blocking` is not yet refined on. A child is scored
    /// by counting (`cost` is already exact) and shares its parent's
    /// blocking until the driver polls it; its function is the one
    /// assigned in `assignments`. `None` once the blocking is built.
    pub pending: Option<usize>,
}

impl SearchState {
    /// Number of concretely assigned attributes — the state's level in the
    /// search lattice.
    pub fn level(&self) -> usize {
        self.assignments
            .iter()
            .filter(|a| matches!(a, Assignment::Assigned(_)))
            .count()
    }

    /// End state check (Def. 4.2): every attribute's function is
    /// determined, i.e. no `∗` and no `⊞` remains.
    pub fn is_end_state(&self) -> bool {
        self.assignments
            .iter()
            .all(|a| matches!(a, Assignment::Assigned(_)))
    }

    /// Indices of `∗` attributes.
    pub fn undecided_attrs(&self) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, Assignment::Undecided))
            .map(|(i, _)| i)
            .collect()
    }

    /// The concrete function tuple, if this is an end state.
    pub fn functions(&self) -> Option<Vec<AttrFunction>> {
        self.assignments
            .iter()
            .map(|a| match a {
                Assignment::Assigned(f) => Some(f.clone()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_blocking::Blocking;

    fn state(assignments: Vec<Assignment>) -> SearchState {
        SearchState {
            assignments,
            blocking: Arc::new(Blocking::default()),
            cost: 0.0,
            id: 0,
            parent: None,
            pending: None,
        }
    }

    #[test]
    fn level_counts_assigned_only() {
        let st = state(vec![
            Assignment::Assigned(AttrFunction::Identity),
            Assignment::Undecided,
            Assignment::MapMarked,
        ]);
        assert_eq!(st.level(), 1);
        assert!(!st.is_end_state());
        assert_eq!(st.undecided_attrs(), vec![1]);
        assert!(st.functions().is_none());
    }

    #[test]
    fn end_state() {
        let st = state(vec![
            Assignment::Assigned(AttrFunction::Identity),
            Assignment::Assigned(AttrFunction::Uppercase),
        ]);
        assert!(st.is_end_state());
        assert_eq!(st.functions().unwrap().len(), 2);
    }
}
