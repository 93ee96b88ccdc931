//! `Blocking::refine` and `Blocking::indeterminacy` group through dense
//! symbol tables; these properties hold them to the naive definitions:
//! first-seen grouping by linear scan, and a sort-and-dedup count.

mod common;

use affidavit_blocking::{Block, Blocking};
use affidavit_functions::{ApplyScratch, AttrFunction};
use affidavit_table::{AttrId, Interner, RecordId, ScratchPool, Sym, Table, ValuePool};
use common::{blockings, functions, table};
use proptest::prelude::*;

/// Refinement by definition: per parent block, sub-blocks in first-seen
/// key order (found by linear scan), sources before targets, each
/// function applied afresh per record.
fn naive_refine<I: Interner>(
    blocking: &Blocking,
    attr: AttrId,
    func: &AttrFunction,
    source: &Table,
    target: &Table,
    pool: &mut I,
) -> Blocking {
    fn group(groups: &mut Vec<(Sym, Block)>, key: Sym) -> &mut Block {
        let i = match groups.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                groups.push((key, Block::default()));
                groups.len() - 1
            }
        };
        &mut groups[i].1
    }
    let mut out = Blocking {
        blocks: Vec::new(),
        dead_src: blocking.dead_src.clone(),
    };
    for block in &blocking.blocks {
        let mut groups = Vec::new();
        for &sid in &block.src {
            match func.apply(source.value(sid, attr), pool) {
                Some(key) => group(&mut groups, key).src.push(sid),
                None => out.dead_src.push(sid),
            }
        }
        for &tid in &block.tgt {
            group(&mut groups, target.value(tid, attr)).tgt.push(tid);
        }
        out.blocks.extend(groups.into_iter().map(|(_, b)| b));
    }
    out
}

fn naive_indeterminacy(blocking: &Blocking, attr: AttrId, source: &Table) -> usize {
    blocking
        .mixed_blocks()
        .map(|block| {
            let mut values: Vec<Sym> = block
                .src
                .iter()
                .map(|&sid| source.value(sid, attr))
                .collect();
            values.sort_unstable();
            values.dedup();
            values.len()
        })
        .max()
        .unwrap_or(0)
}

/// `(per-block (src, tgt) record lists, dead sources)`.
type ExactBlocking = (Vec<(Vec<RecordId>, Vec<RecordId>)>, Vec<RecordId>);

/// Block order, record order within blocks, and dead-source order.
fn exact(b: &Blocking) -> ExactBlocking {
    (
        b.blocks
            .iter()
            .map(|blk| (blk.src.clone(), blk.tgt.clone()))
            .collect(),
        b.dead_src.clone(),
    )
}

proptest! {
    #[test]
    fn refine_matches_first_seen_grouping(
        src in prop::collection::vec(prop::array::uniform2(0u8..8), 1..40),
        tgt in prop::collection::vec(prop::array::uniform2(0u8..8), 1..40),
        src_block in prop::collection::vec(0u8..5, 40),
        tgt_block in prop::collection::vec(0u8..4, 40),
    ) {
        let mut pool = ValuePool::new();
        let s = table(&src, &mut pool);
        let t = table(&tgt, &mut pool);
        let funcs = functions(&mut pool);
        // One memo reused across calls, as a search worker does.
        let mut memo = ApplyScratch::new();
        for blocking in blockings(&s, &t, &src_block, &tgt_block) {
            for func in &funcs {
                for attr in [AttrId(0), AttrId(1)] {
                    let mut refine_pool = ScratchPool::new(pool.reader());
                    let mut naive_pool = ScratchPool::new(pool.reader());
                    let refined = blocking.refine(attr, func, &mut memo, &s, &t, &mut refine_pool);
                    let expected = naive_refine(&blocking, attr, func, &s, &t, &mut naive_pool);
                    prop_assert_eq!(exact(&refined), exact(&expected), "{:?} on {:?}", func, attr);
                    prop_assert_eq!(
                        refine_pool.take_new_strings(),
                        naive_pool.take_new_strings(),
                        "{:?} on {:?} interned differently", func, attr
                    );
                    // The fanned-out path shares the grouping code.
                    let mut par_pool = pool.clone();
                    let parallel = rayon::ThreadPoolBuilder::new()
                        .num_threads(2)
                        .build()
                        .unwrap()
                        .install(|| blocking.refine_parallel(attr, func, &s, &t, &mut par_pool));
                    prop_assert_eq!(exact(&parallel), exact(&expected), "{:?} on {:?} in parallel", func, attr);
                }
            }
        }
    }

    #[test]
    fn indeterminacy_counts_distinct_source_values(
        src in prop::collection::vec(prop::array::uniform2(0u8..8), 1..40),
        tgt in prop::collection::vec(prop::array::uniform2(0u8..8), 1..40),
        src_block in prop::collection::vec(0u8..5, 40),
        tgt_block in prop::collection::vec(0u8..4, 40),
    ) {
        let mut pool = ValuePool::new();
        let s = table(&src, &mut pool);
        let t = table(&tgt, &mut pool);
        let mut memo = ApplyScratch::new();
        for blocking in blockings(&s, &t, &src_block, &tgt_block) {
            // Refined blockings add many small mixed blocks.
            let refined = blocking.refine(AttrId(0), &AttrFunction::Identity, &mut memo, &s, &t, &mut pool);
            for b in [&blocking, &refined] {
                for attr in [AttrId(0), AttrId(1)] {
                    prop_assert_eq!(b.indeterminacy(attr, &s), naive_indeterminacy(b, attr, &s));
                }
            }
        }
    }
}
