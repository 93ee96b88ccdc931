//! Overlap-score a-priori matching — the `Hs` initialization strategy
//! (§4.2).
//!
//! Each attribute is independently assumed unchanged; records that share a
//! value on some attribute score +1 per shared attribute. For every source
//! record, the highest-scoring target record forms an a-priori alignment
//! pair (ties go to the smaller target record id). Attributes are then
//! ranked by how often their values agree on those pairs, and the `k'`
//! most frequently agreeing ones (where `k'` is the mode of the pair
//! overlap scores) are assigned `id` in the start state.
//!
//! To avoid a quadratic record comparison, scores only come from pairs
//! that share at least one value, and a value is skipped entirely when its
//! source count × target count exceeds `max_pairs_per_value` (paper
//! default 100,000) — precisely the behaviour that makes `Hs` collapse on
//! low-distinctness tables like *chess* or *nursery* in Table 2 (every
//! informative value is too frequent, leaving only the misleading
//! artificial primary key).
//!
//! The scored pairs themselves are never stored. Per attribute, the
//! targets carrying each admissible value form one contiguous posting
//! list (CSR layout), and each source record notes the list of its own
//! value. Sources are then scored one at a time, in record order, into a
//! reused `|T|`-slot accumulator reset by a stamp, keeping only the
//! running best target. Memory is O(arity·(|S|+|T|)) however many pairs
//! share a value; the 100,000-pair skip above still decides which pairs
//! are scored.

use affidavit_table::{AttrId, FxHashMap, RecordId, Table};

use crate::slots::StampedSlots;

/// Configuration of the overlap matcher.
#[derive(Debug, Clone, Copy)]
pub struct OverlapConfig {
    /// Skip values whose source×target pair count exceeds this bound
    /// (paper default: 100 000).
    pub max_pairs_per_value: usize,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig {
            max_pairs_per_value: 100_000,
        }
    }
}

/// Compute the attribute set `A_id` for the `Hs` start state. The returned
/// attributes should be assigned `id`; an empty result means no informative
/// overlap was found (the caller falls back to `H^∅` semantics).
pub fn overlap_start_attrs(source: &Table, target: &Table, cfg: OverlapConfig) -> Vec<AttrId> {
    let _span = affidavit_obs::span("blocking.overlap");
    let arity = source.schema().arity();
    if source.is_empty() || target.is_empty() || arity == 0 {
        return Vec::new();
    }
    let pairs = best_pairs(source, target, cfg);
    if pairs.is_empty() {
        return Vec::new();
    }
    agreeing_attrs(source, target, &pairs)
}

/// The a-priori alignment: for every source record with some admissible
/// shared value, its best target `(sid, tid, score)` — highest overlap
/// score, ties to the smaller `tid` — in source record order. The tables
/// need at least one attribute.
fn best_pairs(
    source: &Table,
    target: &Table,
    cfg: OverlapConfig,
) -> Vec<(RecordId, RecordId, u32)> {
    let arity = source.schema().arity();
    // `lists[sid * arity + a]`: the range of `postings[a]` holding the
    // targets that share source `sid`'s admissible value on attribute
    // `a` (empty when there are none).
    let mut lists: Vec<(u32, u32)> = vec![(0, 0); source.len() * arity];
    let mut postings: Vec<Vec<RecordId>> = Vec::with_capacity(arity);
    // `[source count, target count, posting cursor]` per value of the
    // current attribute.
    let mut values = StampedSlots::<[u32; 3]>::new();
    let mut first_seen = Vec::new();
    for a in 0..arity {
        let attr = AttrId(a as u32);
        let src_col = source.column(attr);
        let tgt_col = target.column(attr);
        values.begin();
        for &v in tgt_col {
            let (slot, fresh) = values.slot(v.index());
            slot[1] += 1;
            if fresh {
                first_seen.push(v);
            }
        }
        for &v in src_col {
            values.slot(v.index()).0[0] += 1;
        }
        // One run per admissible value shared by both sides; the cursor
        // of any other value stays parked at `u32::MAX`.
        let mut len = 0u32;
        for v in first_seen.drain(..) {
            let slot = values.slot(v.index()).0;
            let [s, t, _] = *slot;
            let n_pairs = s as usize * t as usize;
            slot[2] = if s > 0 && n_pairs <= cfg.max_pairs_per_value {
                len += t;
                len - t
            } else {
                u32::MAX
            };
        }
        let mut list = vec![RecordId(0); len as usize];
        for (t, &v) in tgt_col.iter().enumerate() {
            let slot = values.slot(v.index()).0;
            if slot[2] != u32::MAX {
                list[slot[2] as usize] = RecordId(t as u32);
                slot[2] += 1;
            }
        }
        // Every cursor now sits at the end of its run.
        for (i, &v) in src_col.iter().enumerate() {
            let [_, t, end] = *values.slot(v.index()).0;
            if t > 0 && end != u32::MAX {
                lists[i * arity + a] = (end - t, end);
            }
        }
        postings.push(list);
    }

    let mut scores = StampedSlots::<u32>::new();
    let mut pairs = Vec::new();
    for (i, row) in lists.chunks_exact(arity).enumerate() {
        scores.begin();
        let mut best: Option<(RecordId, u32)> = None;
        for (list, &(lo, hi)) in postings.iter().zip(row) {
            for &tid in &list[lo as usize..hi as usize] {
                let score = scores.slot(tid.index()).0;
                *score += 1;
                let score = *score;
                // Scores only grow, so the running best ends as the
                // overall best under (score desc, tid asc).
                if best.is_none_or(|(b_tid, b_score)| {
                    score > b_score || (score == b_score && tid < b_tid)
                }) {
                    best = Some((tid, score));
                }
            }
        }
        if let Some((tid, score)) = best {
            pairs.push((RecordId(i as u32), tid, score));
        }
    }
    pairs
}

/// The attributes the start state assigns `id`, from the a-priori
/// alignment `pairs` (non-empty).
fn agreeing_attrs(
    source: &Table,
    target: &Table,
    pairs: &[(RecordId, RecordId, u32)],
) -> Vec<AttrId> {
    let arity = source.schema().arity();
    // k' = the most frequent overlap score among the chosen pairs.
    let mut score_freq: FxHashMap<u32, usize> = FxHashMap::default();
    for &(_, _, score) in pairs {
        *score_freq.entry(score).or_default() += 1;
    }
    let k_prime = score_freq
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(b.0)))
        .map(|(score, _)| *score as usize)
        .unwrap_or(0);
    if k_prime == 0 {
        return Vec::new();
    }

    // Rank attributes by how often their values agree on the pairs.
    let mut agree = vec![0usize; arity];
    #[allow(clippy::needless_range_loop)] // `a` also builds the AttrId
    for a in 0..arity {
        let attr = AttrId(a as u32);
        let src_col = source.column(attr);
        let tgt_col = target.column(attr);
        for &(sid, tid, _) in pairs {
            if src_col[sid.index()] == tgt_col[tid.index()] {
                agree[a] += 1;
            }
        }
    }
    let mut ranked: Vec<(usize, usize)> = agree.iter().copied().enumerate().collect();
    // Sort by agreement count descending, attribute index ascending.
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
        .into_iter()
        .take(k_prime.min(arity))
        .filter(|&(_, count)| count > 0)
        .map(|(a, _)| AttrId(a as u32))
        .collect()
}

/// The matcher before posting lists, kept verbatim as the test oracle:
/// it holds every scored pair in a nested hash map. Cut in two at the
/// phase boundary so its pair set can be compared as well.
#[cfg(test)]
mod nested_map {
    use super::OverlapConfig;
    use affidavit_table::{AttrId, FxHashMap, RecordId, Sym, Table};

    /// Phase 1: the best pair per source, in hash-map order.
    pub(super) fn pairs(
        source: &Table,
        target: &Table,
        cfg: OverlapConfig,
    ) -> Vec<(RecordId, RecordId, u32)> {
        let arity = source.schema().arity();
        // Per attribute: value -> target records carrying it.
        // Score accumulation: (source record -> (target record -> score)).
        let mut scores: FxHashMap<RecordId, FxHashMap<RecordId, u32>> = FxHashMap::default();
        let mut tgt_index: FxHashMap<Sym, Vec<RecordId>> = FxHashMap::default();
        let mut src_count: FxHashMap<Sym, usize> = FxHashMap::default();

        for a in 0..arity {
            let attr = AttrId(a as u32);
            tgt_index.clear();
            src_count.clear();
            // One contiguous column slice per table and attribute; record ids
            // are the slice positions, so iteration order (and with it every
            // downstream tie-break) is unchanged.
            let src_col = source.column(attr);
            let tgt_col = target.column(attr);
            for (t, &v) in tgt_col.iter().enumerate() {
                tgt_index.entry(v).or_default().push(RecordId(t as u32));
            }
            for &v in src_col {
                *src_count.entry(v).or_default() += 1;
            }
            for (i, &v) in src_col.iter().enumerate() {
                let sid = RecordId(i as u32);
                let Some(tids) = tgt_index.get(&v) else {
                    continue;
                };
                let n_pairs = src_count.get(&v).copied().unwrap_or(0) * tids.len();
                if n_pairs > cfg.max_pairs_per_value {
                    continue; // too frequent to be informative
                }
                let entry = scores.entry(sid).or_default();
                for &tid in tids {
                    *entry.entry(tid).or_default() += 1;
                }
            }
        }

        // Best target per source record (ties towards the smaller record id for
        // determinism), forming the a-priori alignment.
        let mut pairs: Vec<(RecordId, RecordId, u32)> = Vec::with_capacity(scores.len());
        for (sid, tmap) in &scores {
            let best = tmap
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .map(|(tid, score)| (*tid, *score))
                .expect("score map entries are non-empty");
            pairs.push((*sid, best.0, best.1));
        }
        pairs
    }

    pub(super) fn overlap_start_attrs(
        source: &Table,
        target: &Table,
        cfg: OverlapConfig,
    ) -> Vec<AttrId> {
        let arity = source.schema().arity();
        if source.is_empty() || target.is_empty() || arity == 0 {
            return Vec::new();
        }
        let pairs = pairs(source, target, cfg);
        if pairs.is_empty() {
            return Vec::new();
        }

        // k' = the most frequent overlap score among the chosen pairs.
        let mut score_freq: FxHashMap<u32, usize> = FxHashMap::default();
        for &(_, _, score) in &pairs {
            *score_freq.entry(score).or_default() += 1;
        }
        let k_prime = score_freq
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(b.0)))
            .map(|(score, _)| *score as usize)
            .unwrap_or(0);
        if k_prime == 0 {
            return Vec::new();
        }

        // Rank attributes by how often their values agree on the pairs.
        let mut agree = vec![0usize; arity];
        #[allow(clippy::needless_range_loop)] // `a` also builds the AttrId
        for a in 0..arity {
            let attr = AttrId(a as u32);
            let src_col = source.column(attr);
            let tgt_col = target.column(attr);
            for &(sid, tid, _) in &pairs {
                if src_col[sid.index()] == tgt_col[tid.index()] {
                    agree[a] += 1;
                }
            }
        }
        let mut ranked: Vec<(usize, usize)> = agree.iter().copied().enumerate().collect();
        // Sort by agreement count descending, attribute index ascending.
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
            .into_iter()
            .take(k_prime.min(arity))
            .filter(|&(_, count)| count > 0)
            .map(|(a, _)| AttrId(a as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Schema, ValuePool};
    use proptest::prelude::*;

    /// A table over the first `arity` columns of `rows`, each cell one of
    /// `alphabet` values shared by every attribute and both tables.
    fn table(rows: &[Vec<u8>], arity: usize, alphabet: u8, pool: &mut ValuePool) -> Table {
        let names: Vec<String> = (0..arity).map(|a| format!("a{a}")).collect();
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                r[..arity]
                    .iter()
                    .map(|v| format!("v{}", v % alphabet))
                    .collect()
            })
            .collect();
        Table::from_rows(Schema::new(names), pool, rows)
    }

    proptest! {
        /// Small alphabets make score ties and over-budget values common;
        /// the budgets cover skip-everything, skip-almost-everything and
        /// the paper default.
        #[test]
        fn matches_the_nested_map_matcher(
            arity in 1usize..5,
            alphabet in 2u8..6,
            src in prop::collection::vec(prop::collection::vec(0u8..5, 4), 0..41),
            tgt in prop::collection::vec(prop::collection::vec(0u8..5, 4), 0..41),
        ) {
            let mut pool = ValuePool::new();
            let s = table(&src, arity, alphabet, &mut pool);
            let t = table(&tgt, arity, alphabet, &mut pool);
            for max_pairs_per_value in [0, 1, 3, 50, 100_000] {
                let cfg = OverlapConfig { max_pairs_per_value };
                let mut expected = nested_map::pairs(&s, &t, cfg);
                expected.sort_unstable();
                prop_assert_eq!(best_pairs(&s, &t, cfg), expected, "budget {}", max_pairs_per_value);
                prop_assert_eq!(
                    overlap_start_attrs(&s, &t, cfg),
                    nested_map::overlap_start_attrs(&s, &t, cfg),
                    "budget {}", max_pairs_per_value
                );
            }
        }
    }

    /// Three attributes: k1/k2 unchanged, v transformed; the matcher should
    /// pick (a subset of) {k1, k2}.
    #[test]
    fn picks_unchanged_attributes() {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["k1", "k2", "v"]),
            &mut pool,
            vec![
                vec!["a", "x", "1"],
                vec!["b", "y", "2"],
                vec!["c", "z", "3"],
            ],
        );
        let t = Table::from_rows(
            Schema::new(["k1", "k2", "v"]),
            &mut pool,
            vec![
                vec!["a", "x", "100"],
                vec!["b", "y", "200"],
                vec!["c", "z", "300"],
            ],
        );
        let attrs = overlap_start_attrs(&s, &t, OverlapConfig::default());
        assert!(!attrs.is_empty());
        assert!(attrs.iter().all(|a| a.0 < 2), "must not pick v: {attrs:?}");
        // Score of every correct pair is 2 (k1+k2 agree) → k' = 2.
        assert_eq!(attrs.len(), 2);
    }

    /// Low-distinctness attributes exceed the pair budget; the only value
    /// small enough to pair on is a permuted unique key, which aligns
    /// records *wrongly* — reproducing the `Hs` failure mode of Table 2.
    #[test]
    fn frequent_values_are_skipped() {
        let mut pool = ValuePool::new();
        let cat = |i: usize| if i.is_multiple_of(2) { "x" } else { "y" };
        let rows_s: Vec<Vec<String>> = (0..20)
            .map(|i| vec![cat(i).to_owned(), format!("{i}")])
            .collect();
        // Target row j carries pk (j + 7) % 20, so the pk pairing matches
        // source i with target position (i + 13) % 20 — an odd shift that
        // never agrees on the alternating category attribute.
        let rows_t: Vec<Vec<String>> = (0..20)
            .map(|j| vec![cat(j).to_owned(), format!("{}", (j + 7) % 20)])
            .collect();
        let s = Table::from_rows(Schema::new(["cat", "pk"]), &mut pool, rows_s);
        let t = Table::from_rows(Schema::new(["cat", "pk"]), &mut pool, rows_t);
        let attrs = overlap_start_attrs(
            &s,
            &t,
            OverlapConfig {
                max_pairs_per_value: 50,
            },
        );
        // Each 'cat' value generates 10×10 = 100 pairs > 50 and is skipped;
        // the pairs come from the (misleading) permuted pk, on which no
        // category value agrees — so only pk is chosen.
        assert_eq!(attrs, vec![AttrId(1)]);
    }

    #[test]
    fn empty_tables_yield_no_attrs() {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(Schema::new(["a"]), &mut pool, Vec::<Vec<&str>>::new());
        let t = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["x"]]);
        assert!(overlap_start_attrs(&s, &t, OverlapConfig::default()).is_empty());
    }

    #[test]
    fn no_shared_values_yields_no_attrs() {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["x"], vec!["y"]]);
        let t = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["p"], vec!["q"]]);
        assert!(overlap_start_attrs(&s, &t, OverlapConfig::default()).is_empty());
    }
}
