//! Real-time log compression (§6.1, "Real-time Log Compression").
//!
//! Pretraining logs reach hundreds of MB, mostly repeated metric records.
//! The system keeps a growing set of **Filter Rules** — line templates that
//! match regular output — and strips matching lines before diagnosis. New
//! rules are written by the **Log Agent**: the paper uses an LLM that reads
//! log segments and emits regular expressions, with self-consistency voting
//! across repeated passes; our deterministic stand-in mines frequent line
//! templates (digits and floats abstracted away) and applies the same
//! voting idea across log segments, so rules learned on one job transfer to
//! repeated/similar tasks exactly as described.
//!
//! Hot-path notes: each line is normalized once, into one `Templates`
//! buffer that template mining, compression and the diagnosis rule stage
//! all read; rule lookup is a hash-set probe on that template (not a
//! scan), and mining counts `&str` keys borrowed from the buffer, so it
//! allocates only for the templates it accepts. No hash order leaks out:
//! mining returns only a count and compression keeps line order, so
//! everything observable stays deterministic.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Replace every digit run (including decimals, exponents, hex fragments)
/// with `#`, producing the line's template.
pub fn normalize(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    normalize_into(line, &mut out);
    out
}

/// [`normalize`] into a caller-owned buffer (cleared first), so a caller
/// normalizing line after line allocates nothing.
pub fn normalize_into(line: &str, out: &mut String) {
    out.clear();
    push_template(line, out);
}

/// Append `line`'s template to `out`.
fn push_template(line: &str, out: &mut String) {
    let mut in_number = false;
    for c in line.chars() {
        let numeric =
            c.is_ascii_digit() || (in_number && (c == '.' || c == 'e' || c == '-' || c == '+'));
        if numeric {
            if !in_number {
                out.push('#');
                in_number = true;
            }
        } else {
            in_number = false;
            out.push(c);
        }
    }
}

/// Lines that must never be filtered, whatever the rules say: anything that
/// smells like an error or a traceback.
fn is_protected(line: &str) -> bool {
    line.contains("ERROR")
        || line.contains("Error")
        || line.contains("Traceback")
        || line.contains("FATAL")
        || line.contains("  File \"")
}

/// Every line's template and protected flag, computed in one pass. The
/// templates sit end to end in one `String`, so a log costs two
/// allocations however long it is, and learning, compression and rule
/// matching read the same template instead of each normalizing the line
/// again.
#[derive(Debug)]
pub(crate) struct Templates {
    text: String,
    /// Per line: its template's byte range in `text`, and whether the line
    /// is protected.
    lines: Vec<(usize, usize, bool)>,
}

impl Templates {
    /// Normalize each of `lines` once.
    pub(crate) fn of(lines: &[String]) -> Self {
        let mut t = Templates {
            text: String::with_capacity(lines.iter().map(String::len).sum()),
            lines: Vec::with_capacity(lines.len()),
        };
        for line in lines {
            let start = t.text.len();
            push_template(line, &mut t.text);
            t.lines.push((start, t.text.len(), is_protected(line)));
        }
        t
    }

    /// Line `i`'s template.
    pub(crate) fn template(&self, i: usize) -> &str {
        let (start, end, _) = self.lines[i];
        &self.text[start..end]
    }

    /// `(template, protected)` for each line in `range`, in line order.
    fn iter(&self, range: Range<usize>) -> impl Iterator<Item = (&str, bool)> {
        self.lines[range]
            .iter()
            .map(|&(start, end, protected)| (&self.text[start..end], protected))
    }
}

/// The rule store + compressor.
#[derive(Debug, Clone, Default)]
pub struct LogCompressor {
    rules: HashSet<String>,
}

impl LogCompressor {
    /// An empty compressor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rules held.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Install many rules (e.g., transferred from a similar past task).
    pub fn add_rules(&mut self, templates: impl IntoIterator<Item = String>) {
        self.rules.extend(templates);
    }

    /// Strip regular output; keep everything else (order preserved).
    pub fn compress<'a>(&self, lines: &'a [String]) -> Vec<&'a String> {
        self.kept(&Templates::of(lines))
            .into_iter()
            .map(|i| &lines[i])
            .collect()
    }

    /// The indices of the lines [`Self::compress`] keeps: protected lines
    /// and lines whose template no rule matches, in order.
    pub(crate) fn kept(&self, templates: &Templates) -> Vec<usize> {
        templates
            .iter(0..templates.lines.len())
            .enumerate()
            .filter(|&(_, (template, protected))| protected || !self.rules.contains(template))
            .map(|(i, _)| i)
            .collect()
    }

    /// Bytes-kept over bytes-in for a line set.
    pub fn compression_ratio(&self, lines: &[String]) -> f64 {
        let total: usize = lines.iter().map(|l| l.len() + 1).sum();
        if total == 0 {
            return 1.0;
        }
        let kept: usize = self.compress(lines).iter().map(|l| l.len() + 1).sum();
        kept as f64 / total as f64
    }
}

/// The template-mining Log Agent.
#[derive(Debug, Clone, Copy)]
pub struct LogAgent {
    /// Minimum occurrences (per segment) for a template to count as
    /// "regular output".
    pub min_count: usize,
    /// Number of segments for self-consistency voting.
    pub segments: usize,
    /// Votes required to accept a template.
    pub votes_required: usize,
}

impl Default for LogAgent {
    fn default() -> Self {
        LogAgent {
            min_count: 3,
            segments: 3,
            votes_required: 2,
        }
    }
}

impl LogAgent {
    /// Mine filter-rule templates from a log and install them in the
    /// compressor; returns how many new rules were learned.
    ///
    /// Self-consistency: the log is split into `segments`, each segment
    /// proposes the templates it sees at least `min_count` times, and only
    /// templates proposed by at least `votes_required` segments are
    /// accepted (the deterministic analogue of having another LLM vote
    /// over repeated Log-Agent passes). Protected lines never vote.
    ///
    /// Templates the compressor already holds are skipped during counting:
    /// re-adding an existing rule is a no-op, so once the rule set has
    /// converged (the steady state when streaming many similar logs) the
    /// voting machinery touches only genuinely new templates.
    pub fn learn_into(&self, compressor: &mut LogCompressor, lines: &[String]) -> usize {
        self.learn(compressor, &Templates::of(lines))
    }

    /// [`Self::learn_into`] over templates already computed.
    pub(crate) fn learn(&self, compressor: &mut LogCompressor, templates: &Templates) -> usize {
        assert!(self.segments >= self.votes_required && self.votes_required >= 1);
        let before = compressor.rule_count();
        let n = templates.lines.len();
        let seg_len = n.div_ceil(self.segments).max(1);
        let mut votes: HashMap<&str, usize> = HashMap::new();
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for start in (0..n).step_by(seg_len) {
            counts.clear();
            for (template, protected) in templates.iter(start..n.min(start + seg_len)) {
                if !protected && !compressor.rules.contains(template) {
                    *counts.entry(template).or_insert(0) += 1;
                }
            }
            for (&template, &c) in &counts {
                if c >= self.min_count {
                    *votes.entry(template).or_insert(0) += 1;
                }
            }
        }
        compressor.add_rules(
            votes
                .into_iter()
                .filter(|&(_, v)| v >= self.votes_required)
                .map(|(template, _)| template.to_owned()),
        );
        compressor.rule_count() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logs::LogBundle;
    use crate::taxonomy::FailureReason;
    use acme_sim_core::SimRng;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The pre-index rule miner, kept as the differential oracle for
    /// [`LogAgent::learn_into`]: `BTreeMap` counting with a fresh `String`
    /// per line, returning the accepted templates sorted.
    fn mine_rules_reference(agent: &LogAgent, lines: &[String]) -> Vec<String> {
        if lines.is_empty() {
            return vec![];
        }
        let seg_len = lines.len().div_ceil(agent.segments);
        let mut votes: BTreeMap<String, usize> = BTreeMap::new();
        for seg in lines.chunks(seg_len.max(1)) {
            let mut counts: BTreeMap<String, usize> = BTreeMap::new();
            for line in seg {
                if is_protected(line) {
                    continue;
                }
                *counts.entry(normalize(line)).or_insert(0) += 1;
            }
            for (tpl, c) in counts {
                if c >= agent.min_count {
                    *votes.entry(tpl).or_insert(0) += 1;
                }
            }
        }
        votes
            .into_iter()
            .filter(|&(_, v)| v >= agent.votes_required)
            .map(|(tpl, _)| tpl)
            .collect()
    }

    /// The pre-index compressor, kept as the differential oracle for
    /// [`LogCompressor::compress`]: `BTreeSet` rules and a fresh
    /// normalization `String` per line.
    fn compress_reference<'a>(rules: &BTreeSet<String>, lines: &'a [String]) -> Vec<&'a String> {
        lines
            .iter()
            .filter(|l| is_protected(l) || !rules.contains(&normalize(l)))
            .collect()
    }

    /// A compressor's rules, sorted.
    fn sorted_rules(c: &LogCompressor) -> Vec<String> {
        let mut rules: Vec<String> = c.rules.iter().cloned().collect();
        rules.sort_unstable();
        rules
    }

    /// One log line from a small template alphabet: the number varies, the
    /// template does not. The last two templates are protected lines.
    fn template_line(template: usize, n: u32) -> String {
        match template {
            0 => format!("INFO train: step={n} loss={}.{}", n % 7, n % 1000),
            1 => format!("INFO grad_norm: step={n}"),
            2 => format!("WARN dataloader: retry {n}"),
            3 => format!("ERROR rank {n}: CUDA error: boom"),
            _ => format!("  File \"train.py\", line {n}, in step"),
        }
    }

    #[test]
    fn normalize_abstracts_numbers() {
        assert_eq!(
            normalize("INFO train: step=120 loss=2.0481 lr=4.00e-04"),
            "INFO train: step=# loss=# lr=#"
        );
        assert_eq!(normalize("no numbers here"), "no numbers here");
        assert_eq!(normalize("x999y"), "x#y");
    }

    #[test]
    fn normalize_into_reuses_buffer() {
        let mut buf = String::from("stale contents");
        normalize_into("step=42", &mut buf);
        assert_eq!(buf, "step=#");
        normalize_into("plain", &mut buf);
        assert_eq!(buf, "plain");
    }

    #[test]
    fn same_template_different_values_collide() {
        let a = normalize("INFO grad_norm: step=1 norm=1.234");
        let b = normalize("INFO grad_norm: step=999 norm=0.777");
        assert_eq!(a, b);
    }

    #[test]
    fn agent_learns_metric_templates_not_errors() {
        let mut rng = SimRng::new(1);
        let bundle = LogBundle::generate(FailureReason::CudaError, 300, &mut rng);
        let mut c = LogCompressor::new();
        let learned = LogAgent::default().learn_into(&mut c, &bundle.lines);
        assert!(learned >= 3, "learned {learned} rules");
        assert!(c.rules.iter().all(|r| !r.contains("Error")), "{c:?}");
    }

    #[test]
    fn compress_matches_reference() {
        let mut rng = SimRng::new(10);
        let bundle = LogBundle::generate(FailureReason::EccError, 500, &mut rng);
        let mut fast = LogCompressor::new();
        LogAgent::default().learn_into(&mut fast, &bundle.lines);
        let slow: BTreeSet<String> = fast.rules.iter().cloned().collect();
        assert_eq!(
            fast.compress(&bundle.lines),
            compress_reference(&slow, &bundle.lines)
        );
    }

    #[test]
    fn compression_keeps_errors_and_strips_noise() {
        let mut rng = SimRng::new(2);
        let bundle = LogBundle::generate(FailureReason::NvLinkError, 500, &mut rng);
        let mut c = LogCompressor::new();
        LogAgent::default().learn_into(&mut c, &bundle.lines);
        let kept = c.compress(&bundle.lines);
        // Huge reduction...
        assert!(
            kept.len() < bundle.lines.len() / 10,
            "kept {} of {}",
            kept.len(),
            bundle.lines.len()
        );
        assert!(c.compression_ratio(&bundle.lines) < 0.1);
        // ...but every error line survives.
        let text: String = kept
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("NVLink Error"));
        assert!(text.contains("Watchdog caught collective operation timeout"));
        assert!(text.contains("Traceback"));
    }

    #[test]
    fn rules_transfer_to_similar_tasks() {
        // Learn on one job, apply to a fresh log of the same shape — the
        // paper's "repetitive or similar tasks" fast path.
        let mut rng = SimRng::new(3);
        let first = LogBundle::generate(FailureReason::RuntimeError, 400, &mut rng);
        let mut c = LogCompressor::new();
        LogAgent::default().learn_into(&mut c, &first.lines);
        let second = LogBundle::generate(FailureReason::ValueError, 400, &mut rng);
        let ratio = c.compression_ratio(&second.lines);
        assert!(ratio < 0.1, "transfer ratio {ratio:.3}");
    }

    #[test]
    fn protected_lines_never_match_even_if_ruled() {
        let line = "ERROR rank 3: CUDA error: boom 1".to_owned();
        let mut c = LogCompressor::new();
        c.add_rules([normalize(&line)]);
        assert_eq!(c.compress(std::slice::from_ref(&line)), [&line]);
    }

    #[test]
    fn self_consistency_rejects_segment_local_patterns() {
        // A template frequent in only one segment (burst) is rejected.
        let mut lines: Vec<String> = Vec::new();
        for i in 0..30 {
            lines.push(format!("INFO steady: tick {i}"));
        }
        // A burst of 5 identical-template lines confined to the tail third.
        for i in 0..5 {
            lines.push(format!("WARN burst: retry {i}"));
        }
        let agent = LogAgent {
            min_count: 3,
            segments: 3,
            votes_required: 2,
        };
        let mut c = LogCompressor::new();
        agent.learn_into(&mut c, &lines);
        let rules = sorted_rules(&c);
        assert!(rules.iter().any(|r| r.starts_with("INFO steady")));
        assert!(
            !rules.iter().any(|r| r.starts_with("WARN burst")),
            "{rules:?}"
        );
    }

    #[test]
    fn empty_log_yields_nothing() {
        let mut c = LogCompressor::new();
        assert_eq!(LogAgent::default().learn_into(&mut c, &[]), 0);
        assert_eq!(c.compression_ratio(&[]), 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `learn_into` mines exactly the reference miner's rules on random
        /// logs and agent settings: into a fresh compressor, and into one
        /// carried across logs, which ends up holding the union and counts
        /// only the templates each log adds.
        #[test]
        fn learn_into_matches_reference(
            logs in prop::collection::vec(
                prop::collection::vec((0usize..5, any::<u32>()), 0..60),
                1..4,
            ),
            min_count in 1usize..5,
            segments in 1usize..5,
            votes_pick in 0usize..4,
        ) {
            let agent = LogAgent {
                min_count,
                segments,
                votes_required: 1 + votes_pick % segments,
            };
            let mut carried = LogCompressor::new();
            let mut union: BTreeSet<String> = BTreeSet::new();
            for log in &logs {
                let lines: Vec<String> = log.iter().map(|&(t, n)| template_line(t, n)).collect();
                let expect = mine_rules_reference(&agent, &lines);
                let mut fresh = LogCompressor::new();
                agent.learn_into(&mut fresh, &lines);
                prop_assert_eq!(sorted_rules(&fresh), expect.clone(), "{:?}", agent);
                let before = union.len();
                union.extend(expect);
                let learned = agent.learn_into(&mut carried, &lines);
                prop_assert_eq!(learned, union.len() - before, "{:?}", agent);
            }
            prop_assert_eq!(sorted_rules(&carried), union.into_iter().collect::<Vec<_>>());
        }
    }
}
