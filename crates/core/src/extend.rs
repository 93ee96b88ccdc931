//! State extension — the `Extensions(H)` procedure of Algorithm 1, as a
//! parallel two-phase engine that refines only what gets polled.
//!
//! For a polled state, the β most determined undecided attributes are
//! tried: candidate functions are induced from block-sampled examples,
//! ranked by histogram overlap, and an extension is kept only if it is
//! cheaper than extending with the *greedy map* `Hд` built from a random
//! alignment — the signal that a simple function genuinely explains the
//! attribute. Attributes where the greedy map wins are ⊞-marked; if every
//! remaining attribute is map-suited the state is finalized into an end
//! state by resolving the ⊞s one after another (§4.3).
//!
//! # Two-phase structure
//!
//! **Phase 1 (parallel, read-only):** every attribute of the β-batch is
//! expanded by an independent worker against the *frozen* shared state
//! (`SearchCtx`): greedy benchmark, candidate induction and ranking run
//! on a per-worker `WorkerScratch` — an interning overlay over the frozen
//! pool, an application memo and a per-attribute seeded RNG. Workers
//! share nothing mutable. Each child (the benchmark and every ranked
//! candidate) is **scored by counting**: the state cost c(H) (Def. 4.6)
//! reads only ψ and the block cardinalities, so
//! `Blocking::refine_bounds` yields the child's `(ct, cs)` without
//! building a single block. It applies and interns in `refine`'s exact
//! per-record order, so the worker's overlay ends as if it had refined.
//!
//! **Phase 2 (sequential merge):** the driver walks the results in batch
//! order, absorbs each worker's newly interned strings into the shared
//! pool, rewrites escaping symbols through the returned remap, assigns
//! state ids and records trace nodes. Because both the per-worker RNG
//! streams and the merge order are independent of scheduling, the search
//! is byte-identical at every thread count.
//!
//! # Refinement on poll
//!
//! A scored child shares its parent's blocking and records the attribute
//! still to refine in [`SearchState::pending`]; its function already sits
//! in its assignments. The ϱ-bounded queue (§4.6) drops most children
//! unpolled, so the driver builds a blocking only right after polling a
//! state (`materialize`), before the end-state check, expansion and
//! finalization. The counting pass already interned every value that
//! refinement produces, so it leaves the pool untouched. The `H^id`
//! start states are scored the same way; the overlap start chain and ⊞
//! finalization refine eagerly (`make_child`).

use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

use affidavit_blocking::{greedy_map_from_alignment, sample_random_alignment, Blocking};
use affidavit_functions::AttrFunction;
use affidavit_table::{AttrId, RecordId};

use crate::cost::{child_state_cost_from_counts, state_cost};
use crate::induction::{induce_candidates, InductionParams};
use crate::ranking::rank_candidates;
use crate::search::{Ctx, SearchCtx, WorkerScratch};
use crate::state::{Assignment, SearchState};
use crate::trace::TraceNode;

/// Create the child of `state` that assigns `func` to `attr`, refining the
/// blocking and computing the child's cost. Driver-side (sequential) path:
/// interns directly into the shared pool. The overlap start chain and ⊞
/// finalization build their states this way, eagerly.
pub(crate) fn make_child(
    ctx: &mut Ctx<'_>,
    state: &SearchState,
    attr: usize,
    func: AttrFunction,
) -> SearchState {
    let blocking = refine_on_driver(ctx, &state.blocking, attr, &func);
    let cost = child_cost(
        ctx.search_ctx().cost_params(),
        state,
        &func,
        (blocking.ct(), blocking.cs()),
    );
    register_child(ctx, state, attr, func, Some(blocking), cost)
}

/// Create the child of `state` that assigns `func` to `attr`, scored by a
/// counting pass: its blocking is built only if the driver polls it (see
/// [`materialize`]). Driver-side; the `H^id` start states use it.
pub(crate) fn make_pending_child(
    ctx: &mut Ctx<'_>,
    state: &SearchState,
    attr: usize,
    func: AttrFunction,
) -> SearchState {
    let counts = {
        let _span = affidavit_obs::span("expand.score");
        state.blocking.refine_bounds(
            AttrId(attr as u32),
            &func,
            &mut ctx.scratch,
            &ctx.instance.source,
            &ctx.instance.target,
            &mut ctx.instance.pool,
        )
    };
    let cost = child_cost(ctx.search_ctx().cost_params(), state, &func, counts);
    register_child(ctx, state, attr, func, None, cost)
}

/// Build the blocking of a polled state that still shares its parent's:
/// refine it on the pending attribute. The counting pass that scored the
/// child already interned every value this refinement produces, so the
/// pool does not grow, and the cost it was queued under is exact.
pub(crate) fn materialize(ctx: &mut Ctx<'_>, mut state: SearchState) -> SearchState {
    let Some(attr) = state.pending.take() else {
        return state;
    };
    let _span = affidavit_obs::span("search.materialize");
    let Assignment::Assigned(func) = &state.assignments[attr] else {
        unreachable!("a pending attribute carries its assigned function");
    };
    let pool_len = ctx.instance.pool.len();
    let blocking = refine_on_driver(ctx, &state.blocking, attr, func);
    debug_assert_eq!(
        ctx.instance.pool.len(),
        pool_len,
        "poll-time refinement must intern nothing"
    );
    debug_assert_eq!(
        state_cost(
            &state.assignments,
            &blocking,
            ctx.delta,
            ctx.cfg.alpha,
            ctx.arity
        ),
        state.cost,
        "counted and refined child costs must agree"
    );
    state.blocking = Arc::new(blocking);
    state
}

/// Refine `parent` on `attr` under `func` on the driver, interning into
/// the shared pool.
fn refine_on_driver(
    ctx: &mut Ctx<'_>,
    parent: &Blocking,
    attr: usize,
    func: &AttrFunction,
) -> Blocking {
    // Driver-side refinements touch every live record; above the fan-out
    // threshold, split the work over the worker pool — `refine_parallel`
    // is byte-identical to the serial path, including the shared pool's
    // contents.
    let records = parent.live_sources() + parent.total_targets();
    if ctx.cfg.threads != 1 && records >= ctx.cfg.parallel_min_records {
        parent.refine_parallel(
            AttrId(attr as u32),
            func,
            &ctx.instance.source,
            &ctx.instance.target,
            &mut ctx.instance.pool,
        )
    } else {
        parent.refine(
            AttrId(attr as u32),
            func,
            &mut ctx.scratch,
            &ctx.instance.source,
            &ctx.instance.target,
            &mut ctx.instance.pool,
        )
    }
}

/// The `(delta, alpha, arity)` triple `child_cost` needs, extracted so
/// both the driver and the workers can call it.
#[derive(Clone, Copy)]
pub(crate) struct CostParams {
    pub delta: i64,
    pub alpha: f64,
    pub arity: usize,
}

impl SearchCtx<'_> {
    pub(crate) fn cost_params(&self) -> CostParams {
        CostParams {
            delta: self.delta,
            alpha: self.cfg.alpha,
            arity: self.arity,
        }
    }
}

/// Cost of the child of `state` assigning `func` to a previously open
/// attribute, from the child blocking's `(ct, cs)`. ψ of a function does
/// not read the pool, so this is valid for functions still carrying
/// scratch symbols, and it is computed incrementally — no
/// assignment-vector clone.
fn child_cost(
    params: CostParams,
    state: &SearchState,
    func: &AttrFunction,
    counts: (u64, u64),
) -> f64 {
    child_state_cost_from_counts(
        &state.assignments,
        func.psi(),
        counts,
        params.delta,
        params.alpha,
        params.arity,
    )
}

/// Driver-side: create a child state from already-computed parts,
/// assigning its id and recording trace/stat bookkeeping. This is the
/// single point where extension results enter shared search state, and it
/// runs in deterministic merge order. Without a `blocking` the child
/// shares its parent's and records `attr` as pending.
fn register_child(
    ctx: &mut Ctx<'_>,
    state: &SearchState,
    attr: usize,
    func: AttrFunction,
    blocking: Option<Blocking>,
    cost: f64,
) -> SearchState {
    // `cost` was computed incrementally as cf(parent) + ψ(func), which is
    // only valid when the attribute was previously open (contributing 0).
    debug_assert!(
        state.assignments[attr].is_open(),
        "extensions must target open attributes"
    );
    let mut assignments = state.assignments.clone();
    assignments[attr] = Assignment::Assigned(func.clone());
    let id = ctx.next_id();
    ctx.stats.states_generated += 1;
    if let Some(trace) = ctx.trace.as_mut() {
        let name = ctx.instance.schema().name(AttrId(attr as u32)).to_owned();
        let label = format!("{} ← {}", name, func.display(&ctx.instance.pool));
        let level = assignments
            .iter()
            .filter(|a| matches!(a, Assignment::Assigned(_)))
            .count();
        trace.add(TraceNode {
            id,
            parent: Some(state.id),
            level,
            cost,
            label,
            polled_order: None,
            kept: false,
            end: assignments
                .iter()
                .all(|a| matches!(a, Assignment::Assigned(_))),
        });
    }
    let (blocking, pending) = match blocking {
        Some(blocking) => (Arc::new(blocking), None),
        None => (Arc::clone(&state.blocking), Some(attr)),
    };
    SearchState {
        assignments,
        blocking,
        cost,
        id,
        parent: Some(state.id),
        pending,
    }
}

/// Undecided attributes ordered by indeterminacy (most determined first,
/// ties towards the lower attribute index) — the `Order-By-Indeterminacy`
/// step.
fn order_by_indeterminacy(source: &affidavit_table::Table, state: &SearchState) -> Vec<usize> {
    let _span = affidavit_obs::span("expand.order");
    let mut attrs = state.undecided_attrs();
    let keys: Vec<usize> = attrs
        .iter()
        .map(|&a| state.blocking.indeterminacy(AttrId(a as u32), source))
        .collect();
    let mut order: Vec<usize> = (0..attrs.len()).collect();
    order.sort_by_key(|&i| (keys[i], attrs[i]));
    attrs = order.into_iter().map(|i| attrs[i]).collect();
    attrs
}

/// One candidate child scored by a worker: function (possibly carrying
/// scratch symbols) and cost. Its blocking is built only if it is polled.
struct CandChild {
    func: AttrFunction,
    cost: f64,
    /// Beat the greedy benchmark (only such children enter the frontier;
    /// the rest still get trace nodes, as in the sequential engine).
    kept: bool,
}

/// Everything one worker produced for one attribute.
struct AttrExpansion {
    attr: usize,
    /// Pool length the worker's scratch was frozen at.
    base_len: usize,
    /// Strings the worker interned, in interning order.
    new_strings: Vec<Arc<str>>,
    /// The greedy-map benchmark child `Hд`.
    greedy: CandChild,
    /// All ranked candidates, in rank order (kept and rejected).
    ranked: Vec<CandChild>,
}

/// Phase 1 worker: expand one attribute against the frozen context.
/// Shares nothing mutable; deterministic given `(cfg.seed, state.id, attr)`.
fn expand_attr(
    sctx: &SearchCtx<'_>,
    state: &SearchState,
    attr: usize,
    alignment: &[(RecordId, RecordId)],
) -> AttrExpansion {
    let mut ws = sctx.scratch_for(state.id, attr);
    let params = sctx.cost_params();
    let score = |func: &AttrFunction, ws: &mut WorkerScratch<'_>| {
        let _span = affidavit_obs::span("expand.score");
        let counts = state.blocking.refine_bounds(
            AttrId(attr as u32),
            func,
            &mut ws.apply,
            sctx.source,
            sctx.target,
            &mut ws.pool,
        );
        child_cost(params, state, func, counts)
    };

    // The greedy-map benchmark Hд. An empty map (every aligned value
    // already agrees) is the identity — normalize so explanations never
    // show `map{}`.
    let g_func = {
        let _span = affidavit_obs::span("expand.greedy_map");
        let gmap =
            greedy_map_from_alignment(alignment, AttrId(attr as u32), sctx.source, sctx.target);
        if gmap.is_empty() {
            AttrFunction::Identity
        } else {
            AttrFunction::Map(gmap)
        }
    };
    let g_cost = score(&g_func, &mut ws);

    // Induce and rank candidates for this attribute.
    let induction = InductionParams {
        k: sctx.k_induce,
        min_support: sctx.cfg.min_support,
        max_examples_per_target: sctx.cfg.max_examples_per_target,
        use_corpus: sctx.cfg.use_corpus,
    };
    let cands = induce_candidates(
        &state.blocking,
        AttrId(attr as u32),
        sctx.source,
        sctx.target,
        &mut ws.pool,
        &sctx.cfg.registry,
        induction,
        &mut ws.rng,
    );
    let ranked = {
        let _span = affidavit_obs::span("expand.rank");
        rank_candidates(
            &state.blocking,
            AttrId(attr as u32),
            cands.into_iter().map(|c| c.func).collect(),
            sctx.source,
            sctx.target,
            &mut ws.pool,
            sctx.k_rank,
            sctx.cfg.beta.max(1),
            &mut ws.rng,
        )
    };

    let children = ranked
        .into_iter()
        .map(|rc| {
            let cost = score(&rc.func, &mut ws);
            CandChild {
                func: rc.func,
                cost,
                kept: cost < g_cost,
            }
        })
        .collect();

    AttrExpansion {
        attr,
        base_len: ws.pool.base_len(),
        new_strings: ws.pool.take_new_strings(),
        greedy: CandChild {
            func: g_func,
            cost: g_cost,
            kept: false,
        },
        ranked: children,
    }
}

/// Phase 1 for a whole state: order the undecided attributes, expand the
/// β-batch (and, while nothing beats its greedy benchmark, one further
/// attribute at a time) against the frozen context. Returns the
/// per-attribute expansions in processed order; nothing in them has
/// touched shared search state yet.
fn expand_state(
    sctx: &SearchCtx<'_>,
    state: &SearchState,
    alignment: &[(RecordId, RecordId)],
) -> Vec<AttrExpansion> {
    let astar = order_by_indeterminacy(sctx.source, state);
    debug_assert!(!astar.is_empty(), "expand_state called on an end state");
    let mut cursor = astar.iter().copied();
    // Poll β attributes first, then one at a time.
    let mut batch: Vec<usize> = cursor.by_ref().take(sctx.cfg.beta.max(1)).collect();
    let worth_spawning = state.blocking.live_sources() + state.blocking.total_targets()
        >= sctx.cfg.parallel_min_records;
    let mut parts: Vec<AttrExpansion> = Vec::new();
    let mut any_kept = false;

    while !any_kept && !batch.is_empty() {
        // Attribute-level fan-out.
        let expanded: Vec<AttrExpansion> =
            if sctx.cfg.threads != 1 && batch.len() > 1 && worth_spawning {
                batch
                    .par_iter()
                    .map(|&attr| expand_attr(sctx, state, attr, alignment))
                    .collect()
            } else {
                batch
                    .iter()
                    .map(|&attr| expand_attr(sctx, state, attr, alignment))
                    .collect()
            };
        for exp in expanded {
            any_kept |= exp.ranked.iter().any(|c| c.kept);
            parts.push(exp);
        }
        batch = cursor.by_ref().take(1).collect();
    }

    parts
}

/// Phase 2: absorb a state expansion into the shared pool and register
/// every child (greedy benchmark + ranked candidates, in processed order),
/// returning the kept extensions. This is where ids, trace nodes and pool
/// contents are assigned, so it runs on the driver in processed order.
/// An empty result means every expanded attribute is map-suited.
fn consume_state_expansion(
    ctx: &mut Ctx<'_>,
    state: &SearchState,
    parts: Vec<AttrExpansion>,
) -> Vec<SearchState> {
    let mut ext: Vec<SearchState> = Vec::new();
    for part in parts {
        let remap = ctx.instance.pool.absorb(part.base_len, &part.new_strings);
        // Register the greedy benchmark child (id + trace parity with
        // the historical sequential engine; never kept).
        let _hg = register_child(
            ctx,
            state,
            part.attr,
            part.greedy.func.remap(&remap),
            None,
            part.greedy.cost,
        );
        for cand in part.ranked {
            let child = register_child(
                ctx,
                state,
                part.attr,
                cand.func.remap(&remap),
                None,
                cand.cost,
            );
            if cand.kept {
                ext.push(child);
            }
        }
        // Map-marking is implicit: attrs with no kept candidate stay ∗.
    }
    ext
}

/// The `Extensions(H)` procedure. Returns the kept extensions, or — when
/// every undecided attribute turns out to be map-suited — a single
/// finalized end state.
pub(crate) fn extensions(ctx: &mut Ctx<'_>, state: &SearchState) -> Vec<SearchState> {
    let alignment = sample_random_alignment(&state.blocking, &mut ctx.rng);
    let started = Instant::now();
    let exp = {
        let sctx = ctx.search_ctx();
        expand_state(&sctx, state, &alignment)
    };
    let elapsed = started.elapsed();
    ctx.stats.extension_time += elapsed;
    affidavit_obs::metrics().observe("search_expansion_micros", elapsed.as_micros() as f64);
    let ext = consume_state_expansion(ctx, state, exp);
    if ext.is_empty() {
        // Every undecided attribute is best served by a value mapping:
        // mark all ⊞ and finalize (Algorithm 1's fallback branch).
        return vec![crate::finalize::finalize(ctx, state)];
    }
    ext
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AffidavitConfig;
    use crate::instance::ProblemInstance;
    use crate::search::Ctx;
    use affidavit_blocking::Blocking;
    use affidavit_table::{Schema, Table, ValuePool};

    fn instance() -> ProblemInstance {
        let mut pool = ValuePool::new();
        let rows_s: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("k{i}"), format!("{}", i * 1000), "usd".into()])
            .collect();
        let rows_t: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("k{i}"), format!("{i}"), "USD".into()])
            .collect();
        let s = Table::from_rows(Schema::new(["k", "Val", "Unit"]), &mut pool, rows_s);
        let t = Table::from_rows(Schema::new(["k", "Val", "Unit"]), &mut pool, rows_t);
        ProblemInstance::new(s, t, pool).unwrap()
    }

    #[test]
    fn extends_with_cheap_functions() {
        let mut inst = instance();
        let cfg = AffidavitConfig::paper_id();
        let mut ctx = Ctx::new(&mut inst, &cfg);
        // Start from the state that assigns id to the key attribute.
        let root = ctx.root_state();
        let start = make_child(&mut ctx, &root, 0, AttrFunction::Identity);
        let exts = extensions(&mut ctx, &start);
        assert!(!exts.is_empty());
        // Every extension must be cheaper than its greedy-map benchmark
        // and strictly extend the parent.
        for e in &exts {
            assert_eq!(e.level(), 2);
            assert_eq!(e.parent, Some(start.id));
        }
        // Among the extensions there should be the true scaling or the
        // uppercase function (both are dramatically cheaper than maps).
        let found_structural = exts.iter().any(|e| {
            e.assignments.iter().any(|a| {
                matches!(
                    a,
                    Assignment::Assigned(AttrFunction::Scale(_))
                        | Assignment::Assigned(AttrFunction::Uppercase)
                )
            })
        });
        assert!(found_structural);
    }

    #[test]
    fn parallel_extensions_match_sequential() {
        // The two-phase engine must produce identical children (functions,
        // costs, ids) at any thread count.
        let describe = |threads: usize| {
            let mut inst = instance();
            let mut cfg = AffidavitConfig::paper_id().with_threads(threads);
            cfg.parallel_min_records = 0; // force the fan-out path even on this tiny instance
            let mut ctx = Ctx::new(&mut inst, &cfg);
            let root = ctx.root_state();
            let start = make_child(&mut ctx, &root, 0, AttrFunction::Identity);
            extensions(&mut ctx, &start)
                .iter()
                .map(|e| (e.id, e.cost, format!("{:?}", e.assignments)))
                .collect::<Vec<_>>()
        };
        let seq = describe(1);
        let par = describe(4);
        assert_eq!(seq, par);
    }

    #[test]
    fn polled_children_are_refined_without_interning() {
        // Noise sources whose scaled values no target carries: scoring
        // `Val ← x/1000` interns new strings, which the driver absorbs
        // before any child is polled.
        let mut pool = ValuePool::new();
        let mut rows_s: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("k{i}"), format!("{}", i * 1000)])
            .collect();
        rows_s.push(vec!["gone".into(), "123457".into()]);
        rows_s.push(vec!["lost".into(), "98765".into()]);
        let rows_t: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("k{i}"), format!("{i}")])
            .collect();
        let s = Table::from_rows(Schema::new(["k", "Val"]), &mut pool, rows_s);
        let t = Table::from_rows(Schema::new(["k", "Val"]), &mut pool, rows_t);
        let mut inst = ProblemInstance::new(s, t, pool).unwrap();
        let cfg = AffidavitConfig::paper_id();
        let mut ctx = Ctx::new(&mut inst, &cfg);
        let root = ctx.root_state();
        let start = make_child(&mut ctx, &root, 0, AttrFunction::Identity);
        let before_expansion = ctx.instance.pool.len();
        let exts = extensions(&mut ctx, &start);
        assert!(
            ctx.instance.pool.len() > before_expansion,
            "scoring must have interned the noise's scaled values"
        );
        assert!(!exts.is_empty());
        for child in exts {
            let attr = child.pending.expect("expansion children are pending");
            assert!(Arc::ptr_eq(&child.blocking, &start.blocking));
            let Assignment::Assigned(func) = child.assignments[attr].clone() else {
                panic!("pending attribute without a function");
            };
            let pool_len = ctx.instance.pool.len();
            let polled = materialize(&mut ctx, child);
            assert_eq!(ctx.instance.pool.len(), pool_len, "materialize interned");
            assert_eq!(polled.pending, None);
            // The same blocking and cost as building the child eagerly.
            let eager = make_child(&mut ctx, &start, attr, func);
            let shape = |st: &SearchState| {
                st.blocking
                    .blocks
                    .iter()
                    .map(|b| (b.src.clone(), b.tgt.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(shape(&polled), shape(&eager));
            assert_eq!(polled.blocking.dead_src, eager.blocking.dead_src);
            assert_eq!(polled.cost, eager.cost);
        }
    }

    #[test]
    fn id_start_states_are_scored_without_refining() {
        let mut inst = instance();
        let cfg = AffidavitConfig::paper_id();
        let mut ctx = Ctx::new(&mut inst, &cfg);
        let root = ctx.root_state();
        for attr in 0..3 {
            let pending = make_pending_child(&mut ctx, &root, attr, AttrFunction::Identity);
            let eager = make_child(&mut ctx, &root, attr, AttrFunction::Identity);
            assert_eq!(pending.pending, Some(attr));
            assert!(Arc::ptr_eq(&pending.blocking, &root.blocking));
            assert_eq!(pending.cost, eager.cost);
            let polled = materialize(&mut ctx, pending);
            assert_eq!(polled.blocking.len(), eager.blocking.len());
        }
    }

    #[test]
    fn indeterminacy_ordering_prefers_determined() {
        let mut inst = instance();
        let cfg = AffidavitConfig::paper_id();
        let mut ctx = Ctx::new(&mut inst, &cfg);
        let root = ctx.root_state();
        let start = make_child(&mut ctx, &root, 0, AttrFunction::Identity);
        let order = order_by_indeterminacy(&ctx.instance.source, &start);
        // Unit has 1 distinct source value per block; Val has 1 as well
        // (singleton blocks) — ties break towards the lower index (1).
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn root_state_blocking_is_single_block() {
        let mut inst = instance();
        let cfg = AffidavitConfig::paper_id();
        let mut ctx = Ctx::new(&mut inst, &cfg);
        let root = ctx.root_state();
        assert_eq!(root.blocking.len(), 1);
        assert!(Blocking::root(&ctx.instance.source, &ctx.instance.target).blocks[0].is_mixed());
    }
}
