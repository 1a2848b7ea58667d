//! Byte-pair encoding.
//!
//! The paper notes that "all the data must be tokenized to ensure
//! compatibility with the model's input" (§2.1). This is a from-scratch
//! BPE: pre-tokenize on whitespace, seed the vocabulary with all bytes,
//! then greedily merge the most frequent adjacent pair until the target
//! vocabulary size is reached. Encoding applies merges in learned order;
//! decoding concatenates the byte sequences back.
//!
//! Training is **incremental**: pair counts and a per-pair index of the
//! words containing each pair are maintained across merges, so each merge
//! touches only the words it changes instead of recounting every pair in
//! the corpus ([`BpeTokenizer::train`]). The original recount-everything
//! trainer is kept in this module's tests as the oracle the differential
//! tests hold the incremental trainer to, merge for merge.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Token id type.
pub type TokenId = u32;

/// A trained BPE tokenizer.
#[derive(Debug, Clone)]
pub struct BpeTokenizer {
    /// Byte sequence for every token id.
    token_bytes: Vec<Vec<u8>>,
    /// Merge rules: `(left, right) -> (priority rank, merged id)`. A merged
    /// pair can never become adjacent again, so each pair is ranked once.
    merge_map: HashMap<(TokenId, TokenId), (u32, TokenId)>,
}

/// Tokens 0..=255 are the raw bytes.
const BYTE_TOKENS: usize = 256;

/// The word table both trainers start from: each distinct word as a byte
/// token sequence with its corpus frequency, in a deterministic order.
fn word_table<S: AsRef<str>>(corpus: &[S]) -> Vec<(Vec<TokenId>, u64)> {
    let mut word_freq: HashMap<&str, u64> = HashMap::new();
    for doc in corpus {
        for w in doc.as_ref().split_whitespace() {
            *word_freq.entry(w).or_insert(0) += 1;
        }
    }
    let mut words: Vec<(Vec<TokenId>, u64)> = word_freq
        .into_iter()
        .map(|(w, f)| (w.bytes().map(|b| b as TokenId).collect(), f))
        .collect();
    // Deterministic order regardless of hash seeds.
    words.sort_by(|a, b| a.0.cmp(&b.0));
    words
}

/// Mutable trainer state for the incremental algorithm: live pair counts,
/// the words each pair occurs in, and a lazily-invalidated max-heap over
/// `(count, smaller-pair-wins)` candidates.
struct PairIndex {
    counts: HashMap<(TokenId, TokenId), u64>,
    /// Word indices where each pair has (at some point) occurred. Entries
    /// can go stale when another merge destroys the occurrence; consumers
    /// re-verify against the word. Never shrinks below the live set.
    occurs: HashMap<(TokenId, TokenId), Vec<u32>>,
    /// Max-heap of `(count, Reverse(pair))`: highest count first, ties
    /// broken toward the smaller pair — the same total order the reference
    /// trainer's `max_by` uses. Entries are snapshots; a popped entry is
    /// valid only if its count still matches `counts`.
    heap: BinaryHeap<(u64, Reverse<(TokenId, TokenId)>)>,
}

impl PairIndex {
    fn build(words: &[(Vec<TokenId>, u64)]) -> Self {
        let mut counts: HashMap<(TokenId, TokenId), u64> = HashMap::new();
        let mut occurs: HashMap<(TokenId, TokenId), Vec<u32>> = HashMap::new();
        for (wi, (toks, f)) in words.iter().enumerate() {
            for w in toks.windows(2) {
                let pair = (w[0], w[1]);
                *counts.entry(pair).or_insert(0) += f;
                occurs.entry(pair).or_default().push(wi as u32);
            }
        }
        let heap = counts.iter().map(|(&p, &c)| (c, Reverse(p))).collect();
        PairIndex {
            counts,
            occurs,
            heap,
        }
    }

    /// Pop the most frequent live pair (ties: smaller pair). Stale heap
    /// snapshots are discarded on the way.
    fn pop_best(&mut self) -> Option<((TokenId, TokenId), u64)> {
        while let Some(&(count, Reverse(pair))) = self.heap.peek() {
            if self.counts.get(&pair) == Some(&count) {
                return Some((pair, count));
            }
            self.heap.pop();
        }
        None
    }

    fn add(&mut self, pair: (TokenId, TokenId), f: u64, touched: &mut Vec<(TokenId, TokenId)>) {
        *self.counts.entry(pair).or_insert(0) += f;
        touched.push(pair);
    }

    fn sub(&mut self, pair: (TokenId, TokenId), f: u64, touched: &mut Vec<(TokenId, TokenId)>) {
        let c = self
            .counts
            .get_mut(&pair)
            .expect("decrement of uncounted pair");
        *c -= f;
        if *c == 0 {
            self.counts.remove(&pair);
        }
        touched.push(pair);
    }

    /// Push fresh heap snapshots for every touched pair.
    fn refresh(&mut self, touched: &mut Vec<(TokenId, TokenId)>) {
        touched.sort_unstable();
        touched.dedup();
        for pair in touched.drain(..) {
            if let Some(&c) = self.counts.get(&pair) {
                self.heap.push((c, Reverse(pair)));
            }
        }
    }
}

impl BpeTokenizer {
    /// Train on a corpus of documents up to `vocab_size` tokens.
    ///
    /// Incremental algorithm: after the initial count, each merge pulls the
    /// winning pair from a max-heap, rewrites only the words that contain
    /// it (via the per-pair occurrence index), and patches the neighbour
    /// pair counts in place — no corpus-wide recount. Produces exactly the
    /// merges of the recount-everything trainer the tests keep as an oracle.
    ///
    /// # Panics
    /// Panics if `vocab_size < 256` (the byte alphabet is the floor).
    pub fn train<S: AsRef<str>>(corpus: &[S], vocab_size: usize) -> Self {
        assert!(
            vocab_size >= BYTE_TOKENS,
            "vocab must cover the byte alphabet"
        );
        let mut words = word_table(corpus);
        let mut index = PairIndex::build(&words);

        let mut token_bytes: Vec<Vec<u8>> = (0..BYTE_TOKENS).map(|b| vec![b as u8]).collect();
        let mut merge_map = HashMap::new();
        // Scratch buffers reused across merges.
        let mut touched: Vec<(TokenId, TokenId)> = Vec::new();
        let mut sites: Vec<u32> = Vec::new();

        while token_bytes.len() < vocab_size {
            let Some((pair, count)) = index.pop_best() else {
                break;
            };
            if count < 2 {
                break; // nothing left worth merging
            }
            let new_id = token_bytes.len() as TokenId;
            let mut bytes = token_bytes[pair.0 as usize].clone();
            bytes.extend_from_slice(&token_bytes[pair.1 as usize]);
            token_bytes.push(bytes);
            merge_map.insert(pair, (merge_map.len() as u32, new_id));

            // Rewrite only the words that (may) contain the pair.
            sites.clear();
            if let Some(list) = index.occurs.remove(&pair) {
                sites.extend(list);
            }
            sites.sort_unstable();
            sites.dedup();
            for &wi in &sites {
                let (toks, f) = &mut words[wi as usize];
                let f = *f;
                if !toks.windows(2).any(|w| (w[0], w[1]) == pair) {
                    continue; // stale index entry: an earlier merge ate it
                }
                // In-place greedy left-to-right rewrite with a write
                // cursor, patching neighbour pair counts as we go. The
                // written prefix is final; `toks[r..]` is still pending.
                let len = toks.len();
                let (mut w, mut r) = (0usize, 0usize);
                while r < len {
                    if r + 1 < len && toks[r] == pair.0 && toks[r + 1] == pair.1 {
                        index.sub(pair, f, &mut touched);
                        if w > 0 {
                            let prev = toks[w - 1];
                            index.sub((prev, pair.0), f, &mut touched);
                            index.add((prev, new_id), f, &mut touched);
                            index.occurs.entry((prev, new_id)).or_default().push(wi);
                        }
                        if r + 2 < len {
                            index.sub((pair.1, toks[r + 2]), f, &mut touched);
                            index.add((new_id, toks[r + 2]), f, &mut touched);
                            index
                                .occurs
                                .entry((new_id, toks[r + 2]))
                                .or_default()
                                .push(wi);
                        }
                        toks[w] = new_id;
                        r += 2;
                    } else {
                        toks[w] = toks[r];
                        r += 1;
                    }
                    w += 1;
                }
                toks.truncate(w);
            }
            index.refresh(&mut touched);
        }

        BpeTokenizer {
            token_bytes,
            merge_map,
        }
    }

    /// Replace every non-overlapping `pair` occurrence (greedy, left to
    /// right) with `new_id`, compacting in place behind a write cursor —
    /// one O(n) pass, no per-occurrence `Vec::remove` shifting.
    fn apply_merge(toks: &mut Vec<TokenId>, pair: (TokenId, TokenId), new_id: TokenId) {
        let len = toks.len();
        let (mut w, mut r) = (0usize, 0usize);
        while r < len {
            if r + 1 < len && toks[r] == pair.0 && toks[r + 1] == pair.1 {
                toks[w] = new_id;
                r += 2;
            } else {
                toks[w] = toks[r];
                r += 1;
            }
            w += 1;
        }
        toks.truncate(w);
    }

    /// Vocabulary size (bytes + learned merges).
    pub fn vocab_size(&self) -> usize {
        self.token_bytes.len()
    }

    /// Encode text into token ids (whitespace becomes word boundaries; a
    /// space byte token joins words so decoding can restore them).
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        let mut out = Vec::new();
        let mut first = true;
        for word in text.split_whitespace() {
            if !first {
                out.push(b' ' as TokenId);
            }
            first = false;
            let mut toks: Vec<TokenId> = word.bytes().map(|b| b as TokenId).collect();
            // Repeatedly apply the lowest-rank applicable merge.
            loop {
                let best = toks
                    .windows(2)
                    .filter_map(|w| {
                        let pair = (w[0], w[1]);
                        self.merge_map
                            .get(&pair)
                            .map(|&(rank, id)| (rank, pair, id))
                    })
                    .min_by_key(|&(rank, _, _)| rank);
                match best {
                    Some((_, pair, id)) => Self::apply_merge(&mut toks, pair, id),
                    None => break,
                }
            }
            out.extend(toks);
        }
        out
    }

    /// Decode token ids back to text.
    ///
    /// # Panics
    /// Panics on an out-of-vocabulary id or invalid UTF-8 (cannot happen
    /// for ids produced by [`encode`](Self::encode) on valid text).
    pub fn decode(&self, tokens: &[TokenId]) -> String {
        let mut bytes = Vec::new();
        for &t in tokens {
            bytes.extend_from_slice(&self.token_bytes[t as usize]);
        }
        String::from_utf8(bytes).expect("token stream decodes to UTF-8")
    }

    /// Compression: bytes of text per token, over a sample.
    pub fn bytes_per_token(&self, text: &str) -> f64 {
        let toks = self.encode(text);
        if toks.is_empty() {
            return 0.0;
        }
        text.split_whitespace().collect::<Vec<_>>().join(" ").len() as f64 / toks.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusGenerator;
    use acme_sim_core::SimRng;
    use proptest::prelude::*;

    /// The original trainer, kept as the differential oracle for
    /// [`BpeTokenizer::train`]: recount every adjacent pair over the whole
    /// word table for each merge. Quadratic in corpus size × merge count.
    fn train_reference<S: AsRef<str>>(corpus: &[S], vocab_size: usize) -> BpeTokenizer {
        assert!(
            vocab_size >= BYTE_TOKENS,
            "vocab must cover the byte alphabet"
        );
        let mut words = word_table(corpus);
        let mut token_bytes: Vec<Vec<u8>> = (0..BYTE_TOKENS).map(|b| vec![b as u8]).collect();
        let mut merge_map = HashMap::new();

        while token_bytes.len() < vocab_size {
            // Count adjacent pairs, weighted by word frequency.
            let mut pair_counts: HashMap<(TokenId, TokenId), u64> = HashMap::new();
            for (toks, f) in &words {
                for w in toks.windows(2) {
                    *pair_counts.entry((w[0], w[1])).or_insert(0) += f;
                }
            }
            // Most frequent pair; ties break toward the smaller pair so
            // training is deterministic.
            let Some((&pair, &count)) = pair_counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            else {
                break;
            };
            if count < 2 {
                break; // nothing left worth merging
            }
            let new_id = token_bytes.len() as TokenId;
            let mut bytes = token_bytes[pair.0 as usize].clone();
            bytes.extend_from_slice(&token_bytes[pair.1 as usize]);
            token_bytes.push(bytes);
            merge_map.insert(pair, (merge_map.len() as u32, new_id));
            // Apply the merge to every word.
            for (toks, _) in &mut words {
                BpeTokenizer::apply_merge(toks, pair, new_id);
            }
        }

        BpeTokenizer {
            token_bytes,
            merge_map,
        }
    }

    fn sample_corpus() -> Vec<String> {
        let mut rng = SimRng::new(1);
        CorpusGenerator::new(800, 60.0)
            .generate(&mut rng, 200)
            .into_iter()
            .map(|d| d.text)
            .collect()
    }

    #[test]
    fn trains_to_requested_vocab() {
        let tok = BpeTokenizer::train(&sample_corpus(), 512);
        assert_eq!(tok.vocab_size(), 512);
        assert_eq!(tok.merge_map.len(), 256);
    }

    #[test]
    fn encode_decode_round_trips() {
        let corpus = sample_corpus();
        let tok = BpeTokenizer::train(&corpus, 600);
        for doc in corpus.iter().take(20) {
            let normalized = doc.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(tok.decode(&tok.encode(doc)), normalized);
        }
        // Unseen text still round-trips (byte fallback).
        assert_eq!(
            tok.decode(&tok.encode("entirely unseen words 123")),
            "entirely unseen words 123"
        );
    }

    #[test]
    fn merges_compress_text() {
        let corpus = sample_corpus();
        let bytes_only = BpeTokenizer::train(&corpus, 256);
        let trained = BpeTokenizer::train(&corpus, 1024);
        let text = &corpus[0];
        let raw = bytes_only.encode(text).len();
        let merged = trained.encode(text).len();
        assert!(
            (merged as f64) < raw as f64 * 0.6,
            "1024-vocab BPE should cut tokens: {merged} vs {raw}"
        );
        assert!(trained.bytes_per_token(text) > 1.5);
    }

    #[test]
    fn frequent_words_become_single_tokens() {
        // A corpus dominated by one word: it must merge into one token.
        let corpus: Vec<String> = vec!["banana banana banana banana banana".to_owned(); 50];
        let tok = BpeTokenizer::train(&corpus, 280);
        assert_eq!(tok.encode("banana").len(), 1);
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = sample_corpus();
        let a = BpeTokenizer::train(&corpus, 400);
        let b = BpeTokenizer::train(&corpus, 400);
        assert_eq!(a.merge_map, b.merge_map);
        assert_eq!(a.encode(&corpus[3]), b.encode(&corpus[3]));
    }

    #[test]
    fn incremental_matches_reference_trainer() {
        let corpus = sample_corpus();
        for vocab in [256, 300, 512, 900] {
            let fast = BpeTokenizer::train(&corpus, vocab);
            let slow = train_reference(&corpus, vocab);
            assert_eq!(fast.merge_map, slow.merge_map, "vocab {vocab}");
            assert_eq!(fast.token_bytes, slow.token_bytes, "vocab {vocab}");
        }
    }

    #[test]
    fn incremental_handles_overlapping_runs() {
        // "aaaa..." makes (a,a) self-overlap: greedy left-to-right pairing
        // must match the reference exactly, including neighbour updates
        // where the previous written token is the freshly merged one.
        let corpus = vec!["aaaaaaa aaaa aa a".to_owned(); 9];
        let fast = BpeTokenizer::train(&corpus, 270);
        let slow = train_reference(&corpus, 270);
        assert_eq!(fast.merge_map, slow.merge_map);
        assert_eq!(fast.encode("aaaaaaa"), slow.encode("aaaaaaa"));
    }

    #[test]
    fn stops_when_nothing_left_to_merge() {
        let tok = BpeTokenizer::train(&["ab"], 10_000);
        // Only one pair exists; training stops far short of the target.
        assert!(tok.vocab_size() < 300);
        let slow = train_reference(&["ab"], 10_000);
        assert_eq!(tok.merge_map, slow.merge_map);
    }

    #[test]
    fn empty_input_encodes_empty() {
        let tok = BpeTokenizer::train(&sample_corpus(), 300);
        assert!(tok.encode("").is_empty());
        assert_eq!(tok.decode(&[]), "");
        assert_eq!(tok.bytes_per_token(""), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The incremental trainer learns exactly the reference trainer's
        /// merges (same pairs, same ranks, same ids) on arbitrary corpora.
        #[test]
        fn incremental_trainer_matches_reference(
            train in prop::collection::vec(crate::arb_text(), 1..25),
            extra_vocab in 0usize..400,
        ) {
            let vocab = 256 + extra_vocab;
            let fast = BpeTokenizer::train(&train, vocab);
            let slow = train_reference(&train, vocab);
            prop_assert_eq!(&fast.merge_map, &slow.merge_map);
            prop_assert_eq!(fast.vocab_size(), slow.vocab_size());
        }
    }
}
