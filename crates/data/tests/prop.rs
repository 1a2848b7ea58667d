//! Property-based tests for the data-preparation substrate.

use acme_data::dedup::MinHashDeduper;
use acme_data::tokenizer::BpeTokenizer;
use acme_sim_core::SimRng;
use proptest::prelude::*;

/// Words over a small alphabet so BPE has merge opportunities.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec("[abcdef]{1,8}", 1..60).prop_map(|ws| ws.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// BPE round-trips arbitrary whitespace-normalized text, even text it
    /// never saw during training (byte fallback).
    #[test]
    fn bpe_round_trips(train in prop::collection::vec(arb_text(), 1..20), probe in arb_text()) {
        let tok = BpeTokenizer::train(&train, 400);
        let normalized = probe.split_whitespace().collect::<Vec<_>>().join(" ");
        prop_assert_eq!(tok.decode(&tok.encode(&probe)), normalized);
    }

    /// More vocabulary never increases the token count of any text.
    #[test]
    fn larger_vocab_never_hurts(train in prop::collection::vec(arb_text(), 4..20)) {
        let small = BpeTokenizer::train(&train, 300);
        let large = BpeTokenizer::train(&train, 600);
        for t in train.iter().take(5) {
            prop_assert!(large.encode(t).len() <= small.encode(t).len());
        }
    }

    /// MinHash similarity is symmetric, bounded, and 1.0 on identity.
    #[test]
    fn minhash_similarity_properties(a in arb_text(), b in arb_text()) {
        let d = MinHashDeduper::new();
        let sa = d.signature(&a);
        let sb = d.signature(&b);
        let ab = sa.similarity(&sb);
        let ba = sb.similarity(&sa);
        prop_assert_eq!(ab, ba);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert_eq!(sa.similarity(&sa), 1.0);
    }

    /// Dedup partitions the input: kept + dropped = all, first occurrence
    /// of any exact duplicate pair survives.
    #[test]
    fn dedup_partitions(texts in prop::collection::vec(arb_text(), 1..30), seed in any::<u64>()) {
        use acme_data::corpus::Document;
        let mut rng = SimRng::new(seed);
        // Duplicate a random subset exactly.
        let mut docs: Vec<Document> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| Document { id: i as u64, text: t.clone(), duplicate_of: None, toxic: false })
            .collect();
        let n = docs.len();
        let dup_src = rng.below(n as u64) as usize;
        let copied = docs[dup_src].text.clone();
        docs.push(Document { id: n as u64, text: copied, duplicate_of: Some(dup_src as u64), toxic: false });

        let (kept, dropped) = MinHashDeduper::new().dedup(docs);
        prop_assert_eq!(kept.len() + dropped.len(), n + 1);
        // The exact copy is dropped (its source came first).
        prop_assert!(kept.iter().all(|d| d.id != n as u64) || !dropped.is_empty());
        prop_assert!(dropped.iter().any(|d| d.id == n as u64));
    }
}
