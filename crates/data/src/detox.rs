//! Detoxification (§2.1): wordlist-based filtering of toxic documents.

use std::collections::BTreeSet;

use crate::corpus::{Document, TOXIC_TERMS};

/// A wordlist-based toxicity filter.
#[derive(Debug, Clone)]
pub struct Detoxifier {
    terms: BTreeSet<String>,
}

impl Detoxifier {
    /// The default filter over the synthetic marker terms.
    pub fn new() -> Self {
        Detoxifier {
            terms: TOXIC_TERMS.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Whether a text trips the filter.
    pub fn is_toxic(&self, text: &str) -> bool {
        text.split_whitespace().any(|w| self.terms.contains(w))
    }

    /// Split a corpus into `(clean, removed)`.
    pub fn filter(&self, docs: Vec<Document>) -> (Vec<Document>, Vec<Document>) {
        docs.into_iter().partition(|d| !self.is_toxic(&d.text))
    }
}

impl Default for Detoxifier {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusGenerator;
    use acme_sim_core::SimRng;

    #[test]
    fn flags_marker_terms_only_as_whole_words() {
        let d = Detoxifier::new();
        assert!(d.is_toxic("hello zzxcurse world"));
        assert!(
            !d.is_toxic("hello zzxcurseword world"),
            "substring must not match"
        );
        assert!(!d.is_toxic("perfectly clean text"));
    }

    #[test]
    fn filter_removes_exactly_the_toxic_docs() {
        let mut rng = SimRng::new(1);
        let docs = CorpusGenerator::new(1500, 100.0).generate(&mut rng, 600);
        let toxic_truth = docs.iter().filter(|d| d.toxic).count();
        let (clean, removed) = Detoxifier::new().filter(docs);
        assert_eq!(removed.len(), toxic_truth);
        assert!(clean.iter().all(|d| !d.toxic));
        assert!(removed.iter().all(|d| d.toxic));
    }
}
