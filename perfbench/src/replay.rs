//! Replays one state expansion of an instance from outside the search.
//!
//! `functions`, `blocking` and `core`'s ranking and cost have no outside
//! entry point per call: they run only inside `Affidavit::explain`. The
//! traced run therefore repeats, call by call, what the search does at
//! its root: `Blocking::root`, the configured start states (one identity
//! refinement per attribute for `H^id`, the overlap matcher and its
//! refinements for `Hs`), and then the expansion of the start state the
//! search polls first. For every open attribute that expansion samples a
//! random alignment, builds the greedy map, induces candidates, ranks
//! them, applies and refines for the greedy map and for each ranked
//! candidate, and costs each child. Each call is timed and gets its own
//! span.
//!
//! Expanding the all-`∗` root itself is not replayed: its single block
//! holds every record, and ranking over it takes minutes on adult.

use std::time::Instant;

use affidavit_blocking::{
    greedy_map_from_alignment, overlap_start_attrs, sample_random_alignment, Blocking,
    OverlapConfig,
};
use affidavit_core::cost::child_state_cost;
use affidavit_core::induction::{induce_candidates, InductionParams};
use affidavit_core::ranking::rank_candidates;
use affidavit_core::state::Assignment;
use affidavit_core::stats::{cochran_sample_size, induction_sample_size};
use affidavit_core::{AffidavitConfig, InitStrategy, ProblemInstance};
use affidavit_functions::{ApplyScratch, AttrFunction};
use affidavit_table::{AttrId, ScratchPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::Run;

/// Summed times (ms) and counts of the replayed calls.
#[derive(Default, Clone, Copy)]
pub struct ReplayTotals {
    pub refine_ms: f64,
    /// Records (live sources plus targets) fed into refinement.
    pub refine_records: u64,
    pub blocks_out: u64,
    pub overlap_ms: f64,
    /// Alignment sampling plus greedy-map building.
    pub greedy_map_ms: f64,
    pub induce_ms: f64,
    pub candidates: u64,
    pub apply_ms: f64,
    pub rank_ms: f64,
    pub ranked: u64,
    /// Ranked candidates whose child beat the greedy-map benchmark.
    pub kept: u64,
    pub cost_ms: f64,
}

fn timed<T>(span: &'static str, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let _span = affidavit_obs::span(span);
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64() * 1000.0;
    out
}

struct Replay<'a> {
    instance: &'a ProblemInstance,
    config: &'a AffidavitConfig,
    totals: &'a mut ReplayTotals,
    apply: ApplyScratch,
}

impl Replay<'_> {
    /// Refine `parent` on `attr` under `func` and cost the child.
    fn child(
        &mut self,
        parent: &Blocking,
        assignments: &[Assignment],
        attr: AttrId,
        func: &AttrFunction,
        pool: &mut ScratchPool<'_>,
    ) -> (Blocking, f64) {
        let (source, target) = (&self.instance.source, &self.instance.target);
        let apply = &mut self.apply;
        let child = timed("bench.blocking.refine", &mut self.totals.refine_ms, || {
            parent.refine(attr, func, apply, source, target, pool)
        });
        self.totals.refine_records += (parent.live_sources() + parent.total_targets()) as u64;
        self.totals.blocks_out += child.len() as u64;
        let (delta, alpha, arity) = (
            self.instance.delta(),
            self.config.alpha,
            self.instance.arity(),
        );
        let cost = timed("bench.core.cost", &mut self.totals.cost_ms, || {
            child_state_cost(assignments, func.psi(), &child, delta, alpha, arity)
        });
        (child, cost)
    }

    /// The start state the search polls first: its blocking and
    /// assignments.
    fn start_state(&mut self, root: Blocking) -> (Blocking, Vec<Assignment>) {
        let (source, target) = (&self.instance.source, &self.instance.target);
        let open = vec![Assignment::Undecided; self.instance.arity()];
        let mut pool = ScratchPool::new(self.instance.pool.reader());
        match self.config.init {
            InitStrategy::Empty => (root, open),
            InitStrategy::Id => {
                let mut best: Option<(f64, usize, Blocking)> = None;
                for a in 0..open.len() {
                    let (child, cost) = self.child(
                        &root,
                        &open,
                        AttrId(a as u32),
                        &AttrFunction::Identity,
                        &mut pool,
                    );
                    if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                        best = Some((cost, a, child));
                    }
                }
                match best {
                    Some((_, a, blocking)) => {
                        let mut assignments = open;
                        assignments[a] = Assignment::Assigned(AttrFunction::Identity);
                        (blocking, assignments)
                    }
                    None => (root, open),
                }
            }
            InitStrategy::Overlap => {
                let cfg = OverlapConfig {
                    max_pairs_per_value: self.config.max_block_size,
                };
                let attrs = timed(
                    "bench.blocking.overlap",
                    &mut self.totals.overlap_ms,
                    || overlap_start_attrs(source, target, cfg),
                );
                let (mut blocking, mut assignments) = (root, open);
                for attr in attrs {
                    blocking = self
                        .child(
                            &blocking,
                            &assignments,
                            attr,
                            &AttrFunction::Identity,
                            &mut pool,
                        )
                        .0;
                    assignments[attr.0 as usize] = Assignment::Assigned(AttrFunction::Identity);
                }
                (blocking, assignments)
            }
        }
    }

    /// Expand every open attribute of a state.
    fn expand(&mut self, state: &Blocking, assignments: &[Assignment]) {
        let (source, target) = (&self.instance.source, &self.instance.target);
        let config = self.config;
        let induction = InductionParams {
            k: induction_sample_size(config.theta, config.confidence),
            min_support: config.min_support,
            max_examples_per_target: config.max_examples_per_target,
            use_corpus: config.use_corpus,
        };
        let k_rank = cochran_sample_size(config.theta);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let alignment = timed(
            "bench.blocking.alignment",
            &mut self.totals.greedy_map_ms,
            || sample_random_alignment(state, &mut rng),
        );
        for (a, assignment) in assignments.iter().enumerate() {
            if !matches!(assignment, Assignment::Undecided) {
                continue;
            }
            let attr = AttrId(a as u32);
            let mut pool = ScratchPool::new(self.instance.pool.reader());
            let mut rng = StdRng::seed_from_u64(config.seed ^ (a as u64).wrapping_mul(0x9E37_79B9));
            let gmap = timed(
                "bench.blocking.greedy_map",
                &mut self.totals.greedy_map_ms,
                || greedy_map_from_alignment(&alignment, attr, source, target),
            );
            let g_func = if gmap.is_empty() {
                AttrFunction::Identity
            } else {
                AttrFunction::Map(gmap)
            };
            let (_, g_cost) = self.child(state, assignments, attr, &g_func, &mut pool);
            let candidates = timed("bench.functions.induce", &mut self.totals.induce_ms, || {
                induce_candidates(
                    state,
                    attr,
                    source,
                    target,
                    &mut pool,
                    &config.registry,
                    induction,
                    &mut rng,
                )
            });
            self.totals.candidates += candidates.len() as u64;
            let ranked = timed("bench.core.rank", &mut self.totals.rank_ms, || {
                rank_candidates(
                    state,
                    attr,
                    candidates.into_iter().map(|c| c.func).collect(),
                    source,
                    target,
                    &mut pool,
                    k_rank,
                    config.beta.max(1),
                    &mut rng,
                )
            });
            self.totals.ranked += ranked.len() as u64;
            let mut column = Vec::new();
            for candidate in &ranked {
                let mut scratch = ApplyScratch::new();
                timed("bench.functions.apply", &mut self.totals.apply_ms, || {
                    scratch.apply_column(
                        &candidate.func,
                        source.column(attr),
                        &mut pool,
                        &mut column,
                    )
                });
                if self
                    .child(state, assignments, attr, &candidate.func, &mut pool)
                    .1
                    < g_cost
                {
                    self.totals.kept += 1;
                }
            }
        }
    }
}

/// Replay the root of the search on `instance` under `config`, adding
/// to `totals`.
pub fn root_expansion(
    instance: &ProblemInstance,
    config: &AffidavitConfig,
    totals: &mut ReplayTotals,
) {
    let mut replay = Replay {
        instance,
        config,
        totals,
        apply: ApplyScratch::new(),
    };
    let root = timed("bench.blocking.root", &mut replay.totals.refine_ms, || {
        Blocking::root(&instance.source, &instance.target)
    });
    let (state, assignments) = replay.start_state(root);
    replay.expand(&state, &assignments);
}

impl ReplayTotals {
    /// Report the replay as per-layer metrics.
    pub fn record(&self, run: &mut Run) {
        run.layer("blocking.refine_ms", self.refine_ms);
        run.layer(
            "blocking.refine_records_per_s",
            self.refine_records as f64 / (self.refine_ms / 1000.0).max(1e-9),
        );
        run.layer("blocking.blocks_out", self.blocks_out as f64);
        run.layer("blocking.overlap_ms", self.overlap_ms);
        run.layer("blocking.greedy_map_ms", self.greedy_map_ms);
        run.layer("functions.induce_ms", self.induce_ms);
        run.layer("functions.candidates", self.candidates as f64);
        run.layer("functions.apply_ms", self.apply_ms);
        run.layer("core.rank_ms", self.rank_ms);
        run.layer(
            "core.rank_kept_ratio",
            self.kept as f64 / self.ranked.max(1) as f64,
        );
        run.layer("core.cost_ms", self.cost_ms);
    }
}
