//! Near-duplicate detection via shingling + MinHash.
//!
//! The curation stage deduplicates the corpus (§2.1). Exact-match hashing
//! misses lightly mutated copies, so we estimate Jaccard similarity of
//! word k-shingle sets with MinHash signatures and drop documents whose
//! estimated similarity to an earlier document exceeds a threshold.
//!
//! Candidate lookup uses **LSH banding**: the 64-hash signature is split
//! into bands, each band hashed into a bucket table, and a new document is
//! compared only against kept documents sharing at least one band bucket —
//! instead of `any()` over every kept signature. The band width is chosen
//! from the threshold so banding is *exact*, not probabilistic (see
//! [`MinHashDeduper::band_rows`]), and every banded candidate is still
//! verified with [`Signature::similarity`], so [`MinHashDeduper::dedup`]
//! makes **identical keep/drop decisions** to an all-pairs scan — the
//! tests keep that scan as an oracle, and a property test holds them equal.

use std::collections::HashMap;

use crate::corpus::Document;

/// Number of hash functions in a signature.
const SIGNATURE_LEN: usize = 64;

/// FNV-1a over a shingle.
fn fnv1a(words: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= 0x1f; // shingle separator
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over one band of signature minima (the LSH bucket key).
fn band_key(rows: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in rows {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// A MinHash signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature([u64; SIGNATURE_LEN]);

impl Signature {
    /// Estimated Jaccard similarity: fraction of agreeing minima.
    pub fn similarity(&self, other: &Signature) -> f64 {
        let agree = self
            .0
            .iter()
            .zip(other.0.iter())
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / SIGNATURE_LEN as f64
    }
}

/// The deduplicator.
#[derive(Debug, Clone)]
pub struct MinHashDeduper {
    /// Words per shingle.
    pub shingle_len: usize,
    /// Similarity at or above which a document is a duplicate.
    pub threshold: f64,
    /// Per-hash mixing constants (odd multipliers).
    mixers: [u64; SIGNATURE_LEN],
}

impl MinHashDeduper {
    /// Default configuration: 5-word shingles, 0.6 similarity threshold.
    pub fn new() -> Self {
        Self::with_params(5, 0.6)
    }

    /// Custom shingle length and threshold.
    ///
    /// # Panics
    /// Panics on a zero shingle length or a threshold outside `(0, 1]`.
    pub fn with_params(shingle_len: usize, threshold: f64) -> Self {
        assert!(shingle_len > 0, "shingle length must be positive");
        assert!(threshold > 0.0 && threshold <= 1.0, "bad threshold");
        let mut mixers = [0u64; SIGNATURE_LEN];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for m in &mut mixers {
            // SplitMix64 step; force odd for invertible multiply.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *m = (z ^ (z >> 31)) | 1;
        }
        MinHashDeduper {
            shingle_len,
            threshold,
            mixers,
        }
    }

    /// Rows per LSH band: the widest band (fewest buckets to probe) that
    /// still catches *every* pair at or above the threshold.
    ///
    /// A pair with `similarity >= threshold` disagrees on at most
    /// `D = 64 - ceil(64·threshold)` signature positions. With more than
    /// `D` bands, the disagreements cannot break every band (pigeonhole),
    /// so at least one band matches exactly and the pair lands in a shared
    /// bucket. Banding therefore has no false negatives; false positives
    /// are removed by the exact similarity check.
    pub fn band_rows(&self) -> usize {
        let agree_min = (SIGNATURE_LEN as f64 * self.threshold).ceil() as usize;
        let max_disagree = SIGNATURE_LEN - agree_min.min(SIGNATURE_LEN);
        // Widest power-of-two band with band count > max_disagree.
        let mut rows = SIGNATURE_LEN;
        while SIGNATURE_LEN / rows <= max_disagree {
            rows /= 2;
        }
        rows.max(1)
    }

    /// Compute a document's signature. Short documents (fewer words than a
    /// shingle) hash as a single shingle.
    pub fn signature(&self, text: &str) -> Signature {
        let words: Vec<&str> = text.split_whitespace().collect();
        let mut mins = [u64::MAX; SIGNATURE_LEN];
        let mut feed = |h: u64| {
            for (i, &mix) in self.mixers.iter().enumerate() {
                let v = h.wrapping_mul(mix).rotate_left(17);
                if v < mins[i] {
                    mins[i] = v;
                }
            }
        };
        if words.len() < self.shingle_len {
            feed(fnv1a(&words));
        } else {
            for sh in words.windows(self.shingle_len) {
                feed(fnv1a(sh));
            }
        }
        Signature(mins)
    }

    /// Split a corpus into `(kept, dropped_duplicates)`. The first
    /// occurrence always survives; later similar documents drop.
    ///
    /// LSH-banded: candidate kept documents come from shared band buckets
    /// (see [`band_rows`](Self::band_rows)); only candidates pay the exact
    /// signature comparison. Decisions are identical to comparing every
    /// document against every kept signature.
    pub fn dedup(&self, docs: Vec<Document>) -> (Vec<Document>, Vec<Document>) {
        let rows = self.band_rows();
        let bands = SIGNATURE_LEN / rows;
        let mut kept: Vec<Document> = Vec::new();
        let mut kept_sigs: Vec<Signature> = Vec::new();
        let mut dropped = Vec::new();
        // (band index, band hash) -> kept-document indices.
        let mut buckets: HashMap<(u32, u64), Vec<u32>> = HashMap::new();
        let mut candidates: Vec<u32> = Vec::new();
        for doc in docs {
            let sig = self.signature(&doc.text);
            candidates.clear();
            for b in 0..bands {
                let key = (b as u32, band_key(&sig.0[b * rows..(b + 1) * rows]));
                if let Some(ids) = buckets.get(&key) {
                    candidates.extend_from_slice(ids);
                }
            }
            candidates.sort_unstable();
            candidates.dedup();
            let is_dup = candidates
                .iter()
                .any(|&i| kept_sigs[i as usize].similarity(&sig) >= self.threshold);
            if is_dup {
                dropped.push(doc);
            } else {
                let id = kept.len() as u32;
                for b in 0..bands {
                    let key = (b as u32, band_key(&sig.0[b * rows..(b + 1) * rows]));
                    buckets.entry(key).or_default().push(id);
                }
                kept.push(doc);
                kept_sigs.push(sig);
            }
        }
        (kept, dropped)
    }
}

impl Default for MinHashDeduper {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusGenerator;
    use acme_sim_core::SimRng;
    use proptest::prelude::*;

    /// The all-pairs oracle for [`MinHashDeduper::dedup`]: compare every
    /// document against every kept signature. Quadratic in kept-corpus size.
    fn dedup_allpairs(d: &MinHashDeduper, docs: Vec<Document>) -> (Vec<Document>, Vec<Document>) {
        let mut kept: Vec<Document> = Vec::new();
        let mut kept_sigs: Vec<Signature> = Vec::new();
        let mut dropped = Vec::new();
        for doc in docs {
            let sig = d.signature(&doc.text);
            let is_dup = kept_sigs.iter().any(|s| s.similarity(&sig) >= d.threshold);
            if is_dup {
                dropped.push(doc);
            } else {
                kept.push(doc);
                kept_sigs.push(sig);
            }
        }
        (kept, dropped)
    }

    #[test]
    fn identical_texts_have_identical_signatures() {
        let d = MinHashDeduper::new();
        let a = d.signature("the quick brown fox jumps over the lazy dog again and again");
        let b = d.signature("the quick brown fox jumps over the lazy dog again and again");
        assert_eq!(a, b);
        assert_eq!(a.similarity(&b), 1.0);
    }

    #[test]
    fn unrelated_texts_score_low() {
        let d = MinHashDeduper::new();
        let mut rng = SimRng::new(1);
        let gen = CorpusGenerator::new(2000, 200.0);
        let docs = gen.generate(&mut rng, 40);
        let originals: Vec<_> = docs.iter().filter(|x| x.duplicate_of.is_none()).collect();
        let a = d.signature(&originals[0].text);
        let b = d.signature(&originals[1].text);
        assert!(a.similarity(&b) < 0.2, "sim {}", a.similarity(&b));
    }

    #[test]
    fn mutated_copy_scores_high() {
        let d = MinHashDeduper::new();
        let base: Vec<String> = (0..300).map(|i| format!("w{i}")).collect();
        let mut mutated = base.clone();
        mutated[7] = "CHANGED".to_owned();
        mutated[150] = "ALSO".to_owned();
        let a = d.signature(&base.join(" "));
        let b = d.signature(&mutated.join(" "));
        assert!(a.similarity(&b) > 0.7, "sim {}", a.similarity(&b));
    }

    #[test]
    fn band_rows_guarantee_holds_across_thresholds() {
        for (threshold, expect_rows) in [(0.01, 1), (0.5, 1), (0.52, 2), (0.6, 2), (0.9, 8)] {
            let d = MinHashDeduper::with_params(5, threshold);
            let rows = d.band_rows();
            assert_eq!(rows, expect_rows, "threshold {threshold}");
            // The exactness condition: more bands than possible
            // disagreements at the threshold.
            let agree_min = (64.0 * threshold).ceil() as usize;
            assert!(64 / rows > 64 - agree_min, "threshold {threshold}");
        }
    }

    #[test]
    fn dedup_recovers_planted_duplicates() {
        let mut rng = SimRng::new(2);
        let gen = CorpusGenerator::new(2000, 150.0);
        let docs = gen.generate(&mut rng, 400);
        let planted = docs.iter().filter(|d| d.duplicate_of.is_some()).count();
        let (kept, dropped) = MinHashDeduper::new().dedup(docs);
        assert_eq!(kept.len() + dropped.len(), 400);
        // Recall: most planted duplicates are caught.
        let caught_planted = dropped.iter().filter(|d| d.duplicate_of.is_some()).count();
        assert!(
            caught_planted as f64 >= 0.85 * planted as f64,
            "caught {caught_planted} of {planted}"
        );
        // Precision: few originals are dropped (coincidental overlap only).
        let false_drops = dropped.iter().filter(|d| d.duplicate_of.is_none()).count();
        assert!(
            (false_drops as f64) < 0.05 * 400.0,
            "false drops {false_drops}"
        );
    }

    #[test]
    fn lsh_matches_allpairs_on_generated_corpora() {
        for seed in [3, 4, 5] {
            let mut rng = SimRng::new(seed);
            let docs = CorpusGenerator::new(1500, 120.0).generate(&mut rng, 300);
            for threshold in [0.3, 0.6, 0.85] {
                let d = MinHashDeduper::with_params(5, threshold);
                let (k1, x1) = d.dedup(docs.clone());
                let (k2, x2) = dedup_allpairs(&d, docs.clone());
                let ids = |v: &[Document]| v.iter().map(|d| d.id).collect::<Vec<_>>();
                assert_eq!(ids(&k1), ids(&k2), "seed {seed} threshold {threshold}");
                assert_eq!(ids(&x1), ids(&x2), "seed {seed} threshold {threshold}");
            }
        }
    }

    #[test]
    fn first_occurrence_survives() {
        let docs = vec![
            Document {
                id: 0,
                text: "a b c d e f g h i j".into(),
                duplicate_of: None,
                toxic: false,
            },
            Document {
                id: 1,
                text: "a b c d e f g h i j".into(),
                duplicate_of: Some(0),
                toxic: false,
            },
        ];
        let (kept, dropped) = MinHashDeduper::new().dedup(docs);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].id, 0);
        assert_eq!(dropped[0].id, 1);
    }

    #[test]
    fn short_documents_are_handled() {
        let d = MinHashDeduper::new();
        let s = d.signature("tiny");
        assert_eq!(s.similarity(&d.signature("tiny")), 1.0);
        assert!(s.similarity(&d.signature("other")) < 0.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The banded LSH dedup makes exactly the same keep/drop decisions
        /// as the exhaustive all-pairs scan, across loose and strict
        /// thresholds.
        #[test]
        fn lsh_dedup_matches_allpairs(
            texts in prop::collection::vec(crate::arb_text(), 1..40),
            seed in any::<u64>(),
            threshold_pick in 0usize..3,
        ) {
            let mut rng = SimRng::new(seed);
            // Mix in near-duplicates so the threshold actually bites.
            let mut docs: Vec<Document> = texts
                .iter()
                .enumerate()
                .map(|(i, t)| Document { id: i as u64, text: t.clone(), duplicate_of: None, toxic: false })
                .collect();
            let n = docs.len();
            for k in 0..(n / 3).max(1) {
                let src = rng.below(n as u64) as usize;
                let mut text = docs[src].text.clone();
                if rng.below(2) == 0 {
                    text.push_str(" extra tail words here");
                }
                docs.push(Document {
                    id: (n + k) as u64,
                    text,
                    duplicate_of: Some(src as u64),
                    toxic: false,
                });
            }

            let mut d = MinHashDeduper::new();
            d.threshold = [0.3, 0.6, 0.9][threshold_pick];
            let (lsh_kept, lsh_dropped) = d.dedup(docs.clone());
            let (ap_kept, ap_dropped) = dedup_allpairs(&d, docs);
            let ids = |v: &[Document]| v.iter().map(|doc| doc.id).collect::<Vec<_>>();
            prop_assert_eq!(ids(&lsh_kept), ids(&ap_kept));
            prop_assert_eq!(ids(&lsh_dropped), ids(&ap_dropped));
        }
    }
}
