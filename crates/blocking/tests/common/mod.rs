//! Table, function and partition generators shared by the refinement
//! property tests.

use affidavit_blocking::{Block, Blocking};
use affidavit_functions::AttrFunction;
use affidavit_table::{Rational, RecordId, Schema, Table, ValuePool};

/// Numbers and text mixed, so partial functions such as `Scale` leave
/// some sources inapplicable (dead).
const DOMAIN: [&str; 8] = ["10", "2500", "0.5", "7", "abc", "IBM", "x y", "70"];

/// A two-attribute table with each cell drawn from `DOMAIN`.
pub fn table(rows: &[[u8; 2]], pool: &mut ValuePool) -> Table {
    let rows: Vec<Vec<&str>> = rows
        .iter()
        .map(|r| r.iter().map(|&v| DOMAIN[v as usize]).collect())
        .collect();
    Table::from_rows(Schema::new(["a", "b"]), pool, rows)
}

/// Total and partial functions, so some sources die.
pub fn functions(pool: &mut ValuePool) -> Vec<AttrFunction> {
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
pub fn blockings(s: &Table, t: &Table, src_block: &[u8], tgt_block: &[u8]) -> Vec<Blocking> {
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
