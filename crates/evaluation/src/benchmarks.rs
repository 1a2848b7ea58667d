//! The benchmark-dataset registry.
//!
//! §6.2 evaluates each checkpoint across ~60 datasets (the makespan
//! experiment uses 63). Datasets differ wildly in cost structure:
//!
//! * most compute a cheap exact-match/accuracy metric on CPU;
//! * coding sets (HumanEval, MBPP, DS-1000) run synthesized-program
//!   correctness sandboxes for tens of seconds to minutes of pure CPU;
//! * conversation sets (MT-Bench, AlpacaEval) call an external LLM judge —
//!   up to ~30 minutes during which the GPU would otherwise sit idle (§4.2).
//!
//! Inference costs are scaled for a 7B model on one A100.

/// How the dataset's metric is computed after inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Exact-match / accuracy / F1: seconds of CPU.
    Simple,
    /// Synthesized-program correctness sandbox: heavy CPU.
    CodeSandbox,
    /// External LLM-judge API: very long CPU-side wait.
    LlmJudge,
}

/// One benchmark dataset's cost profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dataset {
    /// Dataset name.
    pub name: &'static str,
    /// Metric style.
    pub metric: MetricKind,
    /// Tokenization / preprocessing seconds (uncached).
    pub preprocess_secs: f64,
    /// GPU inference seconds for a 7B model on one A100.
    pub inference_secs: f64,
    /// Post-inference metric computation seconds (CPU side).
    pub metric_secs: f64,
}

impl Dataset {
    /// GPU-busy seconds when metric computation is decoupled to CPU jobs.
    pub fn decoupled_gpu_secs(&self) -> f64 {
        self.preprocess_secs + self.inference_secs
    }
}

/// The 63-dataset evaluation suite.
pub fn registry() -> Vec<Dataset> {
    use MetricKind::*;
    let d = |name, metric, preprocess_secs, inference_secs, metric_secs| Dataset {
        name,
        metric,
        preprocess_secs,
        inference_secs,
        metric_secs,
    };
    vec![
        // Knowledge & examination.
        d("mmlu", Simple, 28.0, 496.0, 6.0),
        d("cmmlu", Simple, 24.0, 416.0, 5.0),
        d("ceval", Simple, 22.0, 384.0, 5.0),
        d("agieval", Simple, 18.0, 320.0, 4.0),
        d("bbh", Simple, 16.0, 368.0, 5.0),
        d("arc-easy", Simple, 6.0, 96.0, 2.0),
        d("arc-challenge", Simple, 6.0, 88.0, 2.0),
        d("openbookqa", Simple, 4.0, 56.0, 2.0),
        d("triviaqa", Simple, 20.0, 288.0, 4.0),
        d("naturalquestions", Simple, 18.0, 272.0, 4.0),
        d("truthfulqa", Simple, 6.0, 112.0, 3.0),
        // Reasoning & math.
        d("gsm8k", Simple, 10.0, 352.0, 8.0),
        d("math", Simple, 12.0, 416.0, 10.0),
        d("svamp", Simple, 3.0, 64.0, 2.0),
        d("asdiv", Simple, 3.0, 72.0, 2.0),
        d("mawps", Simple, 3.0, 56.0, 2.0),
        d("tabmwp", Simple, 8.0, 144.0, 4.0),
        d("strategyqa", Simple, 5.0, 104.0, 2.0),
        d("drop", Simple, 14.0, 240.0, 6.0),
        // Commonsense & language understanding.
        d("hellaswag", Simple, 12.0, 176.0, 3.0),
        d("piqa", Simple, 5.0, 72.0, 2.0),
        d("siqa", Simple, 5.0, 72.0, 2.0),
        d("winogrande", Simple, 4.0, 64.0, 2.0),
        d("commonsenseqa", Simple, 4.0, 64.0, 2.0),
        d("boolq", Simple, 6.0, 88.0, 2.0),
        d("copa", Simple, 1.0, 13.0, 1.0),
        d("wic", Simple, 2.0, 24.0, 1.0),
        d("wsc", Simple, 1.0, 16.0, 1.0),
        d("rte", Simple, 2.0, 29.0, 1.0),
        d("cb", Simple, 1.0, 10.0, 1.0),
        d("anli", Simple, 6.0, 96.0, 2.0),
        d("multirc", Simple, 8.0, 120.0, 3.0),
        d("record", Simple, 10.0, 152.0, 3.0),
        d("lambada", Simple, 6.0, 88.0, 2.0),
        // Reading comprehension.
        d("race-middle", Simple, 8.0, 136.0, 3.0),
        d("race-high", Simple, 10.0, 168.0, 3.0),
        d("squad2", Simple, 12.0, 192.0, 5.0),
        d("quac", Simple, 10.0, 160.0, 4.0),
        d("coqa", Simple, 9.0, 152.0, 4.0),
        d("narrativeqa", Simple, 16.0, 256.0, 6.0),
        d("qasper", Simple, 12.0, 208.0, 5.0),
        d("quality", Simple, 13.0, 224.0, 5.0),
        d("tydiqa", Simple, 10.0, 168.0, 4.0),
        // Chinese NLU suite.
        d("c3", Simple, 7.0, 112.0, 3.0),
        d("cluewsc", Simple, 2.0, 22.0, 1.0),
        d("ocnli", Simple, 4.0, 56.0, 2.0),
        d("cmnli", Simple, 5.0, 72.0, 2.0),
        d("chid", Simple, 6.0, 88.0, 2.0),
        d("afqmc", Simple, 3.0, 45.0, 1.0),
        d("tnews", Simple, 3.0, 48.0, 1.0),
        d("csl", Simple, 3.0, 42.0, 1.0),
        // Generation & summarization.
        d("xsum", Simple, 12.0, 304.0, 14.0),
        d("lcsts", Simple, 9.0, 192.0, 10.0),
        d("summscreen", Simple, 14.0, 336.0, 12.0),
        d("govreport", Simple, 16.0, 384.0, 12.0),
        d("flores", Simple, 8.0, 208.0, 8.0),
        d("wmt22", Simple, 9.0, 240.0, 8.0),
        // Coding: sandboxed correctness tests (§4.2, Figure 13).
        d("humaneval", CodeSandbox, 25.0, 113.0, 42.0),
        d("mbpp", CodeSandbox, 20.0, 240.0, 60.0),
        d("ds1000", CodeSandbox, 22.0, 272.0, 90.0),
        d("humaneval-x", CodeSandbox, 26.0, 288.0, 80.0),
        // Conversation: external LLM judge (§4.2: "up to 30 minutes").
        d("mtbench", LlmJudge, 10.0, 384.0, 60.0),
        d("alpacaeval", LlmJudge, 12.0, 416.0, 55.0),
    ]
}

/// Fetch a dataset by name.
pub fn by_name(name: &str) -> Option<Dataset> {
    registry().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_63_datasets() {
        assert_eq!(registry().len(), 63);
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> = registry().iter().map(|d| d.name).collect();
        assert_eq!(names.len(), 63);
    }

    #[test]
    fn humaneval_matches_figure13() {
        let h = by_name("humaneval").unwrap();
        assert_eq!(h.metric, MetricKind::CodeSandbox);
        // Figure 13: the trailing correctness test idles the GPU for 42 s
        // ≈ 19% of the trial; with a ~40 s contended load the front matter
        // is ~29.5%.
        assert_eq!(h.metric_secs, 42.0);
        let total = 40.0 + h.preprocess_secs + h.inference_secs + h.metric_secs;
        let front = (40.0 + h.preprocess_secs) / total;
        let tail = h.metric_secs / total;
        assert!((front - 0.295).abs() < 0.02, "front {front:.3}");
        assert!((tail - 0.19).abs() < 0.02, "tail {tail:.3}");
    }

    #[test]
    fn llm_judge_dominates_metric_cost() {
        let r = registry();
        let judges: Vec<_> = r
            .iter()
            .filter(|d| d.metric == MetricKind::LlmJudge)
            .collect();
        assert_eq!(judges.len(), 2);
        for j in &judges {
            // "These procedures can take up to 30 minutes" in the worst
            // case; our steady-state judges spend minutes of CPU-side
            // waiting — still the heaviest metric class per prompt.
            assert!(j.metric_secs >= 50.0);
            assert!(j.metric_secs <= 1800.0);
        }
    }

    #[test]
    fn coupled_vs_decoupled_gpu_time() {
        let h = by_name("mtbench").unwrap();
        assert_eq!(h.decoupled_gpu_secs(), h.preprocess_secs + h.inference_secs);
        // Decoupling saves the most on judge datasets.
        let simple = by_name("copa").unwrap();
        assert!(h.metric_secs > 50.0 * simple.metric_secs);
    }

    #[test]
    fn most_metrics_are_cheap() {
        let r = registry();
        let cheap = r.iter().filter(|d| d.metric_secs <= 15.0).count();
        assert!(cheap as f64 / r.len() as f64 > 0.8);
    }

    #[test]
    fn by_name_misses_gracefully() {
        assert!(by_name("nonexistent").is_none());
    }
}
