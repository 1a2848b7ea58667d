//! Plain-text rendering for experiment output.
//!
//! The repro harness prints each paper table/figure as aligned text so that
//! `EXPERIMENTS.md` can record paper-vs-measured without any plotting stack.

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns and a header rule.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i] - cell.chars().count();
                out.push_str(cell);
                for _ in 0..pad {
                    out.push(' ');
                }
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols - 1);
        for _ in 0..rule_len {
            out.push('-');
        }
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Format a float with `digits` decimal places.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Anything that can answer quantile queries — an exact
/// [`Cdf`](crate::cdf::Cdf) or a
/// [`QuantileSketch`](crate::sketch::QuantileSketch). Rendering is generic
/// over this so the exact and sketched summaries share one byte-level
/// print path.
pub trait Quantiles {
    /// The `p`-quantile of the summarized samples, `p ∈ [0, 1]`.
    fn quantile(&self, p: f64) -> f64;
}

impl Quantiles for crate::cdf::Cdf {
    fn quantile(&self, p: f64) -> f64 {
        crate::cdf::Cdf::quantile(self, p)
    }
}

/// Render several labelled quantile summaries side by side — the compact
/// textual stand-in for an overlaid-CDF figure. Generic over exact CDFs
/// and sketches; identical formatting either way.
pub fn render_quantiles<Q: Quantiles>(
    title: &str,
    labelled: &[(&str, &Q)],
    quantiles: &[f64],
) -> String {
    let mut t = Table::new(
        std::iter::once("p".to_owned()).chain(labelled.iter().map(|(name, _)| (*name).to_owned())),
    );
    for &q in quantiles {
        t.row(
            std::iter::once(format!("p{:02.0}", q * 100.0)).chain(
                labelled
                    .iter()
                    .map(|(_, c)| format!("{:.3}", c.quantile(q))),
            ),
        );
    }
    format!("== {title} ==\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdf::Cdf;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["long-name", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "value"/"1"/"22" start at the same offset.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].len().min(col), col);
        assert_eq!(&lines[3][..9], "long-name");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.925), "92.5%");
    }

    #[test]
    fn cdf_quantile_grid() {
        let a = Cdf::from_samples(vec![1.0, 2.0, 3.0]).unwrap();
        let b = Cdf::from_samples(vec![10.0, 20.0, 30.0]).unwrap();
        let s = render_quantiles("demo", &[("a", &a), ("b", &b)], &[0.5]);
        assert!(s.contains("== demo =="));
        assert!(s.contains("p50"));
        assert!(s.contains("2.000"));
        assert!(s.contains("20.000"));
    }

    #[test]
    fn sketch_and_cdf_share_the_print_path() {
        let samples: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let cdf = Cdf::from_samples(samples.clone()).unwrap();
        let mut sk = crate::sketch::QuantileSketch::with_capacity(256);
        for &x in &samples {
            sk.insert(x);
        }
        let a = render_quantiles("demo", &[("s", &cdf)], &[0.0, 1.0]);
        let b = render_quantiles("demo", &[("s", &sk)], &[0.0, 1.0]);
        // p=0 / p=1 are exact in both, so an uncompacted sketch renders
        // the same extreme rows through the same format path.
        assert_eq!(a.lines().next(), b.lines().next());
        assert!(b.contains("p00") && b.contains("99.000"));
    }

    #[test]
    fn empty_table() {
        let t = Table::new(["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.render().lines().count(), 2);
    }
}
