//! Golden-output regression test: the full `repro all --seed 42` report
//! must equal the archived `docs/repro_seed42.txt` byte for byte. Any
//! behavioural drift in any experiment — kernel rewrites included — shows
//! up here, and the failure names the first `### id` block that drifted,
//! went missing or appeared, so nobody has to diff the whole report.
//!
//! When an *intentional* output change lands, regenerate the file with
//! `repro all --seed 42 > docs/repro_seed42.txt` in the same commit.

const GOLDEN: &str = include_str!("../../../docs/repro_seed42.txt");

/// Split a report into its header and one `(id, block)` pair per
/// experiment, in report order. A block runs from its `### id — title`
/// line to the next one.
fn blocks(report: &str) -> (&str, Vec<(&str, &str)>) {
    let mut starts: Vec<usize> = report.match_indices("\n### ").map(|(i, _)| i + 1).collect();
    let header = &report[..starts.first().copied().unwrap_or(report.len())];
    starts.push(report.len());
    let blocks = starts
        .windows(2)
        .map(|w| {
            let block = &report[w[0]..w[1]];
            let id = block["### ".len()..]
                .split_whitespace()
                .next()
                .unwrap_or_default();
            (id, block)
        })
        .collect();
    (header, blocks)
}

/// `None` when `actual` equals `golden`; otherwise a message naming the
/// first golden block that drifted or went missing, else the first extra
/// block.
fn first_drift(golden: &str, actual: &str) -> Option<String> {
    if golden == actual {
        return None;
    }
    let (golden_header, golden_blocks) = blocks(golden);
    let (actual_header, actual_blocks) = blocks(actual);
    if golden_header != actual_header {
        return Some(format!(
            "the report header drifted: {actual_header:?}, golden {golden_header:?}"
        ));
    }
    for &(id, g) in &golden_blocks {
        let Some(a) = find(&actual_blocks, id) else {
            return Some(format!("### {id} is missing"));
        };
        if g != a {
            let n = g
                .lines()
                .zip(a.lines())
                .take_while(|(gl, al)| gl == al)
                .count();
            let line = |b: &str| b.lines().nth(n).unwrap_or("<end of block>").to_owned();
            return Some(format!(
                "### {id} drifted at its line {}:\n  golden: {}\n  actual: {}",
                n + 1,
                line(g),
                line(a)
            ));
        }
    }
    Some(
        actual_blocks
            .iter()
            .find(|b| find(&golden_blocks, b.0).is_none())
            .map_or("the blocks are reordered or repeated".to_owned(), |b| {
                format!("### {} is extra", b.0)
            }),
    )
}

/// The block with this id, if the report has one.
fn find<'a>(blocks: &[(&str, &'a str)], id: &str) -> Option<&'a str> {
    blocks.iter().find(|b| b.0 == id).map(|b| b.1)
}

#[test]
fn repro_all_seed42_matches_golden_file() {
    let selection = acme::experiments::select(&["all".to_string()]).unwrap();
    let runs =
        acme::experiments::run_selection(&selection, acme::experiments::RunParams::new(42), 4);
    let report = acme_bench::render_report(42, &runs);
    if let Some(drift) = first_drift(GOLDEN, &report) {
        panic!(
            "seed-42 report differs from docs/repro_seed42.txt: {drift}\nIf the change is \
             intentional, regenerate the file with `repro all --seed 42 > docs/repro_seed42.txt`."
        );
    }
}

#[test]
fn first_drift_names_the_first_changed_block() {
    assert_eq!(first_drift(GOLDEN, GOLDEN), None);
    let (_, golden_blocks) = blocks(GOLDEN);
    assert_eq!(golden_blocks.len(), 42);
    assert_eq!(golden_blocks[0].0, "table1");

    let drifted = GOLDEN.replacen("Seren    128", "Seren    129", 1);
    let drift = first_drift(GOLDEN, &drifted).unwrap();
    assert!(
        drift.starts_with("### table1 drifted at its line 4:"),
        "{drift}"
    );

    let fig6 = find(&golden_blocks, "fig6").unwrap();
    let missing = GOLDEN.replacen(fig6, "", 1);
    assert_eq!(
        first_drift(GOLDEN, &missing).unwrap(),
        "### fig6 is missing"
    );

    let extra = GOLDEN.replacen(fig6, &format!("### fig99 — doctored\nx\n\n{fig6}"), 1);
    assert_eq!(first_drift(GOLDEN, &extra).unwrap(), "### fig99 is extra");

    let header = GOLDEN.replacen("seed 42", "seed 7", 1);
    assert!(first_drift(GOLDEN, &header)
        .unwrap()
        .starts_with("the report header drifted"));
}
