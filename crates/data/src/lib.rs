//! The data-preparation substrate (§2.1, stage 1; Appendix A.2).
//!
//! The first stage of the paper's LLM development pipeline gathers
//! pretraining corpora and curates them "through processes like
//! detoxification and deduplication", then tokenizes everything for the
//! model. This crate builds that stage from scratch:
//!
//! * [`corpus`] — a synthetic document generator (Zipfian vocabulary,
//!   log-normal document lengths, controllable near-duplicate and toxic
//!   fractions) standing in for the paper's private web-scale corpora;
//! * [`tokenizer`] — byte-pair encoding: trainable merges, encode/decode
//!   round-trips;
//! * [`dedup`] — shingling + MinHash near-duplicate detection;
//! * [`detox`] — wordlist-based toxicity filtering;
//! * [`pipeline`] — the end-to-end curation pipeline with stage statistics;
//! * [`loader`] — the two dataloader strategies Appendix A.2 compares:
//!   Megatron-style *metadata preloading* (large host-memory footprint) vs
//!   InternEvo's *on-the-fly* loading (small footprint, same throughput).

#![warn(missing_docs)]

pub mod corpus;
pub mod dedup;
pub mod detox;
pub mod loader;
pub mod pipeline;
pub mod tokenizer;

pub use corpus::CorpusGenerator;
pub use dedup::MinHashDeduper;
pub use detox::Detoxifier;
pub use loader::{DataLoader, LoaderStrategy};
pub use pipeline::{DataPipeline, PipelineStats};
pub use tokenizer::BpeTokenizer;

/// Words over a small alphabet so BPE has merge opportunities and dedup
/// sees shared shingles: the text strategy of the differential proptests.
#[cfg(test)]
fn arb_text() -> impl proptest::strategy::Strategy<Value = String> {
    use proptest::prelude::*;
    prop::collection::vec("[abcdef]{1,8}", 1..60).prop_map(|ws| ws.join(" "))
}
