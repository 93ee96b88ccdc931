//! Overlap-score a-priori matching — the `Hs` initialization strategy
//! (§4.2).
//!
//! Each attribute is independently assumed unchanged; records that share a
//! value on some attribute score +1 per shared attribute. For every source
//! record, the highest-scoring target record forms an a-priori alignment
//! pair. Attributes are then ranked by how often their values agree on
//! those pairs, and the `k'` most frequently agreeing ones (where `k'` is
//! the mode of the pair overlap scores) are assigned `id` in the start
//! state.
//!
//! To avoid a quadratic record comparison, scores are only accumulated for
//! pairs that share at least one value, and a value is skipped entirely when
//! it would generate more than `max_pairs_per_value` pairs — precisely the
//! behaviour that makes `Hs` collapse on low-distinctness tables like
//! *chess* or *nursery* in Table 2 (every informative value is too frequent,
//! leaving only the misleading artificial primary key).

use affidavit_table::{AttrId, FxHashMap, RecordId, Sym, Table};

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

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Schema, ValuePool};

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
