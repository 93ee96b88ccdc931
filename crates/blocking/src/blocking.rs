//! Blocking results Φ^H (Definitions 4.3 and 4.4) with incremental
//! refinement.

use std::sync::Arc;

use affidavit_functions::{ApplyScratch, AttrFunction};
use affidavit_table::{AttrId, Interner, RecordId, ScratchPool, Sym, Table, ValuePool};
use rayon::prelude::*;

use crate::slots::StampedSlots;

/// One block φ(κ): the source and target records sharing a blocking index.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Source records in the block (`φ_S(κ)`).
    pub src: Vec<RecordId>,
    /// Target records in the block (`φ_T(κ)`).
    pub tgt: Vec<RecordId>,
}

impl Block {
    /// True if the block holds both source and target records — only such
    /// blocks can contribute alignment examples.
    pub fn is_mixed(&self) -> bool {
        !self.src.is_empty() && !self.tgt.is_empty()
    }

    /// Target surplus `max(0, |φ_T| − |φ_S|)`.
    pub fn target_surplus(&self) -> u64 {
        (self.tgt.len() as u64).saturating_sub(self.src.len() as u64)
    }

    /// Source surplus `max(0, |φ_S| − |φ_T|)`.
    pub fn source_surplus(&self) -> u64 {
        (self.src.len() as u64).saturating_sub(self.tgt.len() as u64)
    }
}

/// The blocking result Φ^H of a search state.
///
/// `dead_src` holds source records on which some assigned function was
/// inapplicable (partial application returned `None`); they can never align
/// with any target under this state and count towards the `cs` lower bound.
#[derive(Debug, Clone, Default)]
pub struct Blocking {
    /// All blocks, in deterministic (parent-order, first-seen) order.
    pub blocks: Vec<Block>,
    /// Source records excluded by partial function application.
    pub dead_src: Vec<RecordId>,
}

/// Split one parent block by the transformed source value vs. the raw
/// target value of `attr`, appending the resulting sub-blocks (in
/// first-seen key order) to `out_blocks` and inapplicable sources to
/// `dead`. `groups` is the caller's key → sub-block table, reused across
/// blocks so the serial path keeps one allocation.
#[allow(clippy::too_many_arguments)]
fn split_block<I: Interner>(
    block: &Block,
    attr: AttrId,
    func: &AttrFunction,
    scratch: &mut ApplyScratch,
    source: &Table,
    target: &Table,
    pool: &mut I,
    groups: &mut StampedSlots<usize>,
    out_blocks: &mut Vec<Block>,
    dead: &mut Vec<RecordId>,
) {
    // One bounds-checked column fetch per table, then contiguous-slice
    // indexing inside the loop: the per-record apply/intern order is
    // unchanged, so pool evolution is byte-identical to the row walk.
    let src_col = source.column(attr);
    let tgt_col = target.column(attr);
    groups.begin();
    for &sid in &block.src {
        let raw = src_col[sid.index()];
        match scratch.apply(func, raw, pool) {
            Some(key) => group(groups, out_blocks, key).src.push(sid),
            None => dead.push(sid),
        }
    }
    for &tid in &block.tgt {
        group(groups, out_blocks, tgt_col[tid.index()])
            .tgt
            .push(tid);
    }
}

/// The sub-block of `key` in the block being split, appended to `out` on
/// the block's first sight of `key`.
fn group<'a>(groups: &mut StampedSlots<usize>, out: &'a mut Vec<Block>, key: Sym) -> &'a mut Block {
    let (slot, fresh) = groups.slot(key.index());
    if fresh {
        *slot = out.len();
        out.push(Block::default());
    }
    &mut out[*slot]
}

/// The `[sources, targets]` count slot of `key` in the current block,
/// with `key` recorded in `order` on the block's first sight of it.
fn count_slot<'a>(
    counts: &'a mut StampedSlots<[u32; 2]>,
    order: &mut Vec<Sym>,
    key: Sym,
) -> &'a mut [u32; 2] {
    let (slot, fresh) = counts.slot(key.index());
    if fresh {
        order.push(key);
    }
    slot
}

impl Blocking {
    /// The root blocking of the empty assignment `H^∅ = (∗, …, ∗)`: a
    /// single block containing every record.
    pub fn root(source: &Table, target: &Table) -> Blocking {
        Blocking {
            blocks: vec![Block {
                src: source.record_ids().collect(),
                tgt: target.record_ids().collect(),
            }],
            dead_src: Vec::new(),
        }
    }

    /// Refine on a newly assigned attribute: every block splits by the
    /// *transformed* source value vs. the raw target value of `attr`.
    ///
    /// Function application is memoized in the caller's [`ApplyScratch`]
    /// (reset on entry) and interns transformed values into `pool` — a
    /// worker passes its `ScratchPool` overlay here, so refinement never
    /// touches shared mutable state.
    pub fn refine<I: Interner>(
        &self,
        attr: AttrId,
        func: &AttrFunction,
        scratch: &mut ApplyScratch,
        source: &Table,
        target: &Table,
        pool: &mut I,
    ) -> Blocking {
        scratch.begin();
        let mut out = Blocking {
            blocks: Vec::with_capacity(self.blocks.len()),
            dead_src: self.dead_src.clone(),
        };
        let mut groups = StampedSlots::new();
        for block in &self.blocks {
            split_block(
                block,
                attr,
                func,
                scratch,
                source,
                target,
                pool,
                &mut groups,
                &mut out.blocks,
                &mut out.dead_src,
            );
        }
        out
    }

    /// The `(ct(), cs())` of [`refine`](Blocking::refine)'s result,
    /// counted without building it.
    ///
    /// The search scores every candidate child but refines only the few
    /// it polls; the cost reads just these two bounds. Application and
    /// interning follow `refine` exactly — memo reset on entry, then per
    /// block every source in order, then the targets — so `pool` and
    /// `scratch` end in the same state as after `refine`, and a later
    /// `refine` of the same child interns nothing.
    pub fn refine_bounds<I: Interner>(
        &self,
        attr: AttrId,
        func: &AttrFunction,
        scratch: &mut ApplyScratch,
        source: &Table,
        target: &Table,
        pool: &mut I,
    ) -> (u64, u64) {
        scratch.begin();
        let src_col = source.column(attr);
        let tgt_col = target.column(attr);
        let (mut ct, mut cs) = (0u64, self.dead_src.len() as u64);
        // `[sources, targets]` per key of the current block, indexed by
        // symbol; `begin` moves to the next block, resetting every key.
        let mut counts = StampedSlots::new();
        let mut order: Vec<Sym> = Vec::new();
        for block in &self.blocks {
            if block.tgt.is_empty() {
                // Every source is surplus or dead; apply only for the
                // pool side effect.
                for &sid in &block.src {
                    scratch.apply(func, src_col[sid.index()], pool);
                }
                cs += block.src.len() as u64;
                continue;
            }
            if block.src.is_empty() {
                ct += block.tgt.len() as u64;
                continue;
            }
            counts.begin();
            for &sid in &block.src {
                match scratch.apply(func, src_col[sid.index()], pool) {
                    Some(key) => count_slot(&mut counts, &mut order, key)[0] += 1,
                    None => cs += 1,
                }
            }
            for &tid in &block.tgt {
                count_slot(&mut counts, &mut order, tgt_col[tid.index()])[1] += 1;
            }
            for key in order.drain(..) {
                let [s, t] = *counts.slot(key.index()).0;
                ct += u64::from(t.saturating_sub(s));
                cs += u64::from(s.saturating_sub(t));
            }
        }
        (ct, cs)
    }

    /// [`refine`](Blocking::refine), fanned out over the input blocks —
    /// the per-block lever for the paper's 500k-record instances, where a
    /// single refinement touches every live record.
    ///
    /// Each worker splits one block against its own [`ScratchPool`]
    /// overlay of the frozen pool and its own [`ApplyScratch`] memo; the
    /// driver then concatenates partitions in block order and absorbs each
    /// worker's newly interned strings in that same order, so the output
    /// blocking **and** the pool's contents are byte-identical to the
    /// serial path at every thread count (grouping keys never escape the
    /// workers — only the pool side effects need replaying).
    ///
    /// Callers gate on thread count and instance size; this method always
    /// fans out (degrading to the serial path only for trivial inputs).
    pub fn refine_parallel(
        &self,
        attr: AttrId,
        func: &AttrFunction,
        source: &Table,
        target: &Table,
        pool: &mut ValuePool,
    ) -> Blocking {
        let _span = affidavit_obs::span("blocking.refine");
        if self.blocks.len() <= 1 {
            // One block means one worker: the fan-out would only add
            // overhead on the already-hot path.
            return self.refine(attr, func, &mut ApplyScratch::new(), source, target, pool);
        }
        struct BlockSplit {
            blocks: Vec<Block>,
            dead: Vec<RecordId>,
            base_len: usize,
            new_strings: Vec<Arc<str>>,
        }
        // One contiguous chunk of blocks per worker (not one block per work
        // item): each chunk shares a single scratch overlay, apply memo and
        // grouping buffers, preserving the serial path's cross-block memo
        // hits within a chunk.
        let threads = rayon::current_num_threads().max(1);
        let chunk_size = self.blocks.len().div_ceil(threads);
        let ranges: Vec<(usize, usize)> = (0..self.blocks.len())
            .step_by(chunk_size)
            .map(|lo| (lo, (lo + chunk_size).min(self.blocks.len())))
            .collect();
        let splits: Vec<BlockSplit> = {
            let reader = pool.reader();
            ranges
                .par_iter()
                .map(|&(lo, hi)| {
                    let mut ws = ScratchPool::new(reader);
                    let mut scratch = ApplyScratch::new();
                    scratch.begin();
                    let mut groups = StampedSlots::new();
                    let mut blocks = Vec::new();
                    let mut dead = Vec::new();
                    for block in &self.blocks[lo..hi] {
                        split_block(
                            block,
                            attr,
                            func,
                            &mut scratch,
                            source,
                            target,
                            &mut ws,
                            &mut groups,
                            &mut blocks,
                            &mut dead,
                        );
                    }
                    BlockSplit {
                        blocks,
                        dead,
                        base_len: ws.base_len(),
                        new_strings: ws.take_new_strings(),
                    }
                })
                .collect()
        };
        let mut out = Blocking {
            blocks: Vec::with_capacity(self.blocks.len()),
            dead_src: self.dead_src.clone(),
        };
        for split in splits {
            // Replay the pool side effect in block order: the serial path
            // interns every transformed source value as it groups, and
            // later symbol assignment must not depend on which path ran.
            let _ = pool.absorb(split.base_len, &split.new_strings);
            out.blocks.extend(split.blocks);
            out.dead_src.extend(split.dead);
        }
        out
    }

    /// Lower bound on inserted targets from this blocking alone:
    /// `ct(H) = Σ_{|φ_T| > |φ_S|} (|φ_T| − |φ_S|)` (§4.5).
    pub fn ct(&self) -> u64 {
        self.blocks.iter().map(Block::target_surplus).sum()
    }

    /// Lower bound on deleted sources:
    /// `cs(H) = Σ_{|φ_S| > |φ_T|} (|φ_S| − |φ_T|)` plus the dead sources.
    pub fn cs(&self) -> u64 {
        let surplus: u64 = self.blocks.iter().map(Block::source_surplus).sum();
        surplus + self.dead_src.len() as u64
    }

    /// Iterate over the mixed blocks (both sides non-empty).
    pub fn mixed_blocks(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter().filter(|b| b.is_mixed())
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Indeterminacy estimate of an attribute under this blocking (§4.3):
    /// the maximum number of distinct *source* values of `attr` over all
    /// mixed blocks — an upper bound for how many source values compete as
    /// the origin of a target value.
    pub fn indeterminacy(&self, attr: AttrId, source: &Table) -> usize {
        let col = source.column(attr);
        // One stamped slot per symbol: a value counts once per block.
        let mut seen = StampedSlots::<()>::new();
        let mut max = 0usize;
        for block in self.mixed_blocks() {
            // A block holds at most as many distinct values as sources.
            if block.src.len() <= max {
                continue;
            }
            seen.begin();
            let distinct = block
                .src
                .iter()
                .filter(|sid| seen.slot(col[sid.index()].index()).1)
                .count();
            max = max.max(distinct);
        }
        max
    }

    /// Total number of source records still inside blocks (excludes dead).
    pub fn live_sources(&self) -> usize {
        self.blocks.iter().map(|b| b.src.len()).sum()
    }

    /// Total number of target records (always all of T).
    pub fn total_targets(&self) -> usize {
        self.blocks.iter().map(|b| b.tgt.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Schema, ValuePool};

    fn tables() -> (Table, Table, ValuePool) {
        let mut pool = ValuePool::new();
        // Mirrors the spirit of Figure 3: Type / Val / Unit / Org.
        let s = Table::from_rows(
            Schema::new(["Type", "Val", "Unit", "Org"]),
            &mut pool,
            vec![
                vec!["C", "6540", "USD", "SAP"],
                vec!["C", "9800", "USD", "SAP"],
                vec!["C", "0", "USD", "SAP"],
                vec!["A", "80000", "USD", "IBM"],
            ],
        );
        let t = Table::from_rows(
            Schema::new(["Type", "Val", "Unit", "Org"]),
            &mut pool,
            vec![
                vec!["C", "9.8", "k $", "SAP"],
                vec!["C", "6.54", "k $", "SAP"],
                vec!["A", "80", "k $", "IBM"],
            ],
        );
        (s, t, pool)
    }

    #[test]
    fn root_has_single_block() {
        let (s, t, _) = tables();
        let b = Blocking::root(&s, &t);
        assert_eq!(b.len(), 1);
        assert_eq!(b.blocks[0].src.len(), 4);
        assert_eq!(b.blocks[0].tgt.len(), 3);
        assert_eq!(b.ct(), 0);
        assert_eq!(b.cs(), 1); // 4 sources, 3 targets in one block
    }

    #[test]
    fn figure3_style_refinement() {
        // Refine on Type (id), Unit (const 'k $'), Org (id) — the block of
        // index ('C', 'k $', 'SAP') must hold 3 sources and 2 targets.
        let (s, t, mut pool) = tables();
        let ksym = pool.intern("k $");
        let mut scratch = ApplyScratch::new();

        let b = Blocking::root(&s, &t)
            .refine(
                AttrId(0),
                &AttrFunction::Identity,
                &mut scratch,
                &s,
                &t,
                &mut pool,
            )
            .refine(
                AttrId(2),
                &AttrFunction::Constant(ksym),
                &mut scratch,
                &s,
                &t,
                &mut pool,
            )
            .refine(
                AttrId(3),
                &AttrFunction::Identity,
                &mut scratch,
                &s,
                &t,
                &mut pool,
            );

        let mixed: Vec<&Block> = b.mixed_blocks().collect();
        assert_eq!(mixed.len(), 2);
        let sap = mixed.iter().find(|blk| blk.src.len() == 3).unwrap();
        assert_eq!(sap.tgt.len(), 2);
        assert_eq!(b.cs(), 1);
        assert_eq!(b.ct(), 0);
    }

    #[test]
    fn dead_sources_counted_in_cs() {
        let (s, t, mut pool) = tables();
        // Scaling applies to Val but not to Type — refine on Type with a
        // numeric function: every source dies.
        let f = AttrFunction::Scale(affidavit_table::Rational::new(1, 1000).unwrap());
        let b = Blocking::root(&s, &t).refine(
            AttrId(0),
            &f,
            &mut ApplyScratch::new(),
            &s,
            &t,
            &mut pool,
        );
        assert_eq!(b.dead_src.len(), 4);
        assert_eq!(b.cs(), 4);
        assert_eq!(b.ct(), 3); // all targets now unmatched
    }

    #[test]
    fn indeterminacy_shrinks_with_refinement() {
        let (s, t, mut pool) = tables();
        let root = Blocking::root(&s, &t);
        let before = root.indeterminacy(AttrId(1), &s); // all 4 Val values
        assert_eq!(before, 4);
        let refined = root.refine(
            AttrId(0),
            &AttrFunction::Identity,
            &mut ApplyScratch::new(),
            &s,
            &t,
            &mut pool,
        );
        let after = refined.indeterminacy(AttrId(1), &s);
        assert_eq!(after, 3); // the C-block has 3 distinct Val values
    }

    /// `(per-block (src, tgt) record lists, dead sources)` — the exact
    /// observable content of a blocking.
    type ExactBlocking = (Vec<(Vec<RecordId>, Vec<RecordId>)>, Vec<RecordId>);

    /// Exact comparison of two blockings: block order, record order within
    /// blocks, and dead-source order all included.
    fn exact(b: &Blocking) -> ExactBlocking {
        (
            b.blocks
                .iter()
                .map(|blk| (blk.src.clone(), blk.tgt.clone()))
                .collect(),
            b.dead_src.clone(),
        )
    }

    fn assert_parallel_matches_serial(base: &Blocking, s: &Table, t: &Table, pool: &ValuePool) {
        for func in [
            AttrFunction::Identity,
            AttrFunction::Scale(affidavit_table::Rational::new(1, 1000).unwrap()),
        ] {
            for attr in [0u32, 1] {
                let mut serial_pool = pool.clone();
                let serial = base.refine(
                    AttrId(attr),
                    &func,
                    &mut ApplyScratch::new(),
                    s,
                    t,
                    &mut serial_pool,
                );
                for threads in [1usize, 2, 4, 8] {
                    let mut par_pool = pool.clone();
                    let pool_handle = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let parallel = pool_handle
                        .install(|| base.refine_parallel(AttrId(attr), &func, s, t, &mut par_pool));
                    assert_eq!(
                        exact(&serial),
                        exact(&parallel),
                        "attr {attr} func {func:?} threads {threads}"
                    );
                    // Pool side-effect parity: identical contents in
                    // identical order, so downstream symbol numbering can
                    // never depend on which refine path ran.
                    let serial_strings: Vec<&str> = serial_pool.iter().map(|(_, v)| v).collect();
                    let par_strings: Vec<&str> = par_pool.iter().map(|(_, v)| v).collect();
                    assert_eq!(serial_strings, par_strings, "pool diverged");
                }
            }
        }
    }

    #[test]
    fn parallel_refine_matches_serial_on_figure3_tables() {
        let (s, t, mut pool) = tables();
        let base = Blocking::root(&s, &t).refine(
            AttrId(0),
            &AttrFunction::Identity,
            &mut ApplyScratch::new(),
            &s,
            &t,
            &mut pool,
        );
        assert!(base.len() > 1, "fan-out path needs several blocks");
        assert_parallel_matches_serial(&base, &s, &t, &pool);
    }

    #[test]
    fn parallel_refine_handles_adversarial_block_shapes() {
        let (s, t, pool) = tables();
        // Empty blocks, source-only and target-only blocks interleaved
        // with a giant mixed block — shapes the search itself produces
        // only in corner cases.
        let adversarial = Blocking {
            blocks: vec![
                Block::default(),
                Block {
                    src: s.record_ids().collect(),
                    tgt: t.record_ids().collect(),
                },
                Block::default(),
                Block {
                    src: s.record_ids().take(2).collect(),
                    tgt: Vec::new(),
                },
                Block {
                    src: Vec::new(),
                    tgt: t.record_ids().take(1).collect(),
                },
            ],
            dead_src: vec![affidavit_table::RecordId(3)],
        };
        assert_parallel_matches_serial(&adversarial, &s, &t, &pool);
        // All-singleton blocks: every record alone.
        let singletons = Blocking {
            blocks: s
                .record_ids()
                .map(|sid| Block {
                    src: vec![sid],
                    tgt: Vec::new(),
                })
                .chain(t.record_ids().map(|tid| Block {
                    src: Vec::new(),
                    tgt: vec![tid],
                }))
                .collect(),
            dead_src: Vec::new(),
        };
        assert_parallel_matches_serial(&singletons, &s, &t, &pool);
    }

    #[test]
    fn refinement_order_is_deterministic() {
        let (s, t, mut pool) = tables();
        let mut scratch = ApplyScratch::new();
        let b1 = Blocking::root(&s, &t).refine(
            AttrId(3),
            &AttrFunction::Identity,
            &mut scratch,
            &s,
            &t,
            &mut pool,
        );
        let b2 = Blocking::root(&s, &t).refine(
            AttrId(3),
            &AttrFunction::Identity,
            &mut scratch,
            &s,
            &t,
            &mut pool,
        );
        let shape1: Vec<(usize, usize)> = b1
            .blocks
            .iter()
            .map(|b| (b.src.len(), b.tgt.len()))
            .collect();
        let shape2: Vec<(usize, usize)> = b2
            .blocks
            .iter()
            .map(|b| (b.src.len(), b.tgt.len()))
            .collect();
        assert_eq!(shape1, shape2);
    }
}
