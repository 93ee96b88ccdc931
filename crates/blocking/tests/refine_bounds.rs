//! `Blocking::refine_bounds` must be `refine` without the blocks: the
//! same `(ct, cs)` and the same interning, in the same order.

mod common;

use affidavit_blocking::Blocking;
use affidavit_functions::ApplyScratch;
use affidavit_table::{AttrId, ScratchPool, ValuePool};
use common::{blockings, functions, table};
use proptest::prelude::*;

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
