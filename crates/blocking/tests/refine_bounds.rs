//! `Blocking::refine_bounds` must be `refine` without the blocks: the
//! same `(ct, cs)` and the same interning, in the same order.

use affidavit_blocking::{Block, Blocking};
use affidavit_functions::{ApplyScratch, AttrFunction};
use affidavit_table::{AttrId, Rational, RecordId, Schema, ScratchPool, Table, ValuePool};
use proptest::prelude::*;

/// Numbers and text mixed, so partial functions such as `Scale` leave
/// some sources inapplicable (dead).
const DOMAIN: [&str; 8] = ["10", "2500", "0.5", "7", "abc", "IBM", "x y", "70"];

fn table(rows: &[[u8; 2]], pool: &mut ValuePool) -> Table {
    let rows: Vec<Vec<&str>> = rows
        .iter()
        .map(|r| r.iter().map(|&v| DOMAIN[v as usize]).collect())
        .collect();
    Table::from_rows(Schema::new(["a", "b"]), pool, rows)
}

fn functions(pool: &mut ValuePool) -> Vec<AttrFunction> {
    vec![
        AttrFunction::Identity,
        AttrFunction::Scale(Rational::new(1, 1000).unwrap()),
        AttrFunction::Scale(Rational::new(3, 2).unwrap()),
        AttrFunction::Uppercase,
        AttrFunction::Constant(pool.intern("7")),
    ]
}

/// The blocking shapes refinement must handle: the giant mixed root
/// block, and a random partition interleaved with an empty block,
/// source-only and target-only blocks, and inherited dead sources.
fn blockings(s: &Table, t: &Table, src_block: &[u8], tgt_block: &[u8]) -> Vec<Blocking> {
    const BLOCKS: usize = 4;
    let mut partition = Blocking {
        blocks: vec![Block::default(); BLOCKS],
        dead_src: Vec::new(),
    };
    for (sid, &b) in s.record_ids().zip(src_block) {
        match partition.blocks.get_mut(b as usize) {
            Some(block) => block.src.push(sid),
            None => partition.dead_src.push(sid),
        }
    }
    for (tid, &b) in t.record_ids().zip(tgt_block) {
        partition.blocks[b as usize % BLOCKS].tgt.push(tid);
    }
    partition.blocks.insert(1, Block::default());
    partition.blocks.push(Block {
        src: s.record_ids().take(2).collect(),
        tgt: Vec::new(),
    });
    partition.blocks.push(Block {
        src: Vec::new(),
        tgt: t.record_ids().take(2).collect(),
    });
    let mut root = Blocking::root(s, t);
    root.dead_src.push(RecordId(0));
    vec![Blocking::root(s, t), root, partition]
}

proptest! {
    #[test]
    fn refine_bounds_matches_refine(
        src in prop::collection::vec(prop::array::uniform2(0u8..8), 1..40),
        tgt in prop::collection::vec(prop::array::uniform2(0u8..8), 1..40),
        src_block in prop::collection::vec(0u8..5, 40),
        tgt_block in prop::collection::vec(0u8..4, 40),
    ) {
        let mut pool = ValuePool::new();
        let s = table(&src, &mut pool);
        let t = table(&tgt, &mut pool);
        let funcs = functions(&mut pool);
        // One scratch each, reused across calls: the memo reset on
        // entry must hold for both passes.
        let (mut refine_memo, mut count_memo) = (ApplyScratch::new(), ApplyScratch::new());
        for blocking in blockings(&s, &t, &src_block, &tgt_block) {
            for func in &funcs {
                for attr in [AttrId(0), AttrId(1)] {
                    let mut refine_pool = ScratchPool::new(pool.reader());
                    let mut count_pool = ScratchPool::new(pool.reader());
                    let refined =
                        blocking.refine(attr, func, &mut refine_memo, &s, &t, &mut refine_pool);
                    let counts = blocking
                        .refine_bounds(attr, func, &mut count_memo, &s, &t, &mut count_pool);
                    prop_assert_eq!(counts, (refined.ct(), refined.cs()), "{:?} on {:?}", func, attr);
                    prop_assert_eq!(
                        refine_pool.take_new_strings(),
                        count_pool.take_new_strings(),
                        "{:?} on {:?} interned differently", func, attr
                    );
                }
            }
        }
    }

    /// After counting into a pool, refining the same child into it
    /// interns nothing: the driver's poll-time refinement relies on it.
    #[test]
    fn refine_after_refine_bounds_interns_nothing(
        src in prop::collection::vec(prop::array::uniform2(0u8..8), 1..40),
        tgt in prop::collection::vec(prop::array::uniform2(0u8..8), 1..40),
    ) {
        let mut pool = ValuePool::new();
        let s = table(&src, &mut pool);
        let t = table(&tgt, &mut pool);
        let root = Blocking::root(&s, &t);
        let mut memo = ApplyScratch::new();
        for func in functions(&mut pool) {
            for attr in [AttrId(0), AttrId(1)] {
                let counts = root.refine_bounds(attr, &func, &mut memo, &s, &t, &mut pool);
                let len = pool.len();
                let refined = root.refine(attr, &func, &mut memo, &s, &t, &mut pool);
                prop_assert_eq!(pool.len(), len);
                prop_assert_eq!(counts, (refined.ct(), refined.cs()));
            }
        }
    }
}
