//! The Table-3 failure taxonomy.
//!
//! Every row of the paper's Table 3 — reason, category, occurrence count,
//! GPU demand (average/median), time-to-failure (average/median minutes),
//! and time-to-restart (average/median minutes) — transcribed as the
//! calibration source for the injector and the ground truth for the
//! diagnosis experiments.

/// Failure category (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FailureCategory {
    /// Hardware / platform / remote-storage faults. Few in number, huge in
    /// GPU-time impact.
    Infrastructure,
    /// Runtime errors from the training framework and tensor stack.
    Framework,
    /// Programming errors and user oversights.
    Script,
}

impl FailureCategory {
    /// Every category, in declaration order (the order `as usize` indexes).
    pub const ALL: [FailureCategory; 3] = [
        FailureCategory::Infrastructure,
        FailureCategory::Framework,
        FailureCategory::Script,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FailureCategory::Infrastructure => "Infrastructure",
            FailureCategory::Framework => "Framework",
            FailureCategory::Script => "Script",
        }
    }
}

/// Which clusters a failure reason was observed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterScope {
    /// Seren only.
    SerenOnly,
    /// Kalos only.
    KalosOnly,
    /// Both clusters.
    Both,
}

/// The 29 failure reasons of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the names are the documentation
pub enum FailureReason {
    NvLinkError,
    CudaError,
    NodeFailure,
    EccError,
    NetworkError,
    ConnectionError,
    S3StorageError,
    NcclTimeoutError,
    NcclRemoteError,
    DataloaderKilled,
    AttributeError,
    OutOfMemoryError,
    RuntimeError,
    AssertionError,
    ValueError,
    ZeroDivisionError,
    ModelLoadingError,
    DatasetLoadingError,
    FileNotFoundError,
    OsError,
    TypeError,
    NameError,
    PermissionError,
    ImportError,
    KeyError,
    SyntaxError,
    ArgumentError,
    CalledProcessError,
    IndexError,
}

/// One Table-3 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureSpec {
    /// The reason.
    pub reason: FailureReason,
    /// Its category.
    pub category: FailureCategory,
    /// Occurrences over the six-month trace.
    pub num: u32,
    /// Average GPU demand of the failing job.
    pub demand_avg: f64,
    /// Median GPU demand.
    pub demand_median: f64,
    /// Average time to failure, minutes.
    pub ttf_avg_mins: f64,
    /// Median time to failure, minutes.
    pub ttf_median_mins: f64,
    /// Average time to restart, minutes.
    pub ttr_avg_mins: f64,
    /// Median time to restart, minutes.
    pub ttr_median_mins: f64,
    /// Where it occurs.
    pub scope: ClusterScope,
}

impl FailureReason {
    /// All reasons, Table-3 order.
    pub const ALL: [FailureReason; 29] = [
        FailureReason::NvLinkError,
        FailureReason::CudaError,
        FailureReason::NodeFailure,
        FailureReason::EccError,
        FailureReason::NetworkError,
        FailureReason::ConnectionError,
        FailureReason::S3StorageError,
        FailureReason::NcclTimeoutError,
        FailureReason::NcclRemoteError,
        FailureReason::DataloaderKilled,
        FailureReason::AttributeError,
        FailureReason::OutOfMemoryError,
        FailureReason::RuntimeError,
        FailureReason::AssertionError,
        FailureReason::ValueError,
        FailureReason::ZeroDivisionError,
        FailureReason::ModelLoadingError,
        FailureReason::DatasetLoadingError,
        FailureReason::FileNotFoundError,
        FailureReason::OsError,
        FailureReason::TypeError,
        FailureReason::NameError,
        FailureReason::PermissionError,
        FailureReason::ImportError,
        FailureReason::KeyError,
        FailureReason::SyntaxError,
        FailureReason::ArgumentError,
        FailureReason::CalledProcessError,
        FailureReason::IndexError,
    ];

    /// Display label matching the paper's wording.
    pub fn label(self) -> &'static str {
        match self {
            FailureReason::NvLinkError => "NVLink Error",
            FailureReason::CudaError => "CUDA Error",
            FailureReason::NodeFailure => "Node Failure",
            FailureReason::EccError => "ECC Error",
            FailureReason::NetworkError => "Network Error",
            FailureReason::ConnectionError => "Connection Error",
            FailureReason::S3StorageError => "S3 Storage Error",
            FailureReason::NcclTimeoutError => "NCCL Timeout Error",
            FailureReason::NcclRemoteError => "NCCL Remote Error",
            FailureReason::DataloaderKilled => "Dataloader Killed",
            FailureReason::AttributeError => "Attribute Error",
            FailureReason::OutOfMemoryError => "Out of Memory Error",
            FailureReason::RuntimeError => "Runtime Error",
            FailureReason::AssertionError => "Assertion Error",
            FailureReason::ValueError => "Value Error",
            FailureReason::ZeroDivisionError => "Zero Division Error",
            FailureReason::ModelLoadingError => "Model Loading Error",
            FailureReason::DatasetLoadingError => "Dataset Loading Error",
            FailureReason::FileNotFoundError => "File Not Found Error",
            FailureReason::OsError => "OS Error",
            FailureReason::TypeError => "Type Error",
            FailureReason::NameError => "Name Error",
            FailureReason::PermissionError => "Permission Error",
            FailureReason::ImportError => "Import Error",
            FailureReason::KeyError => "Key Error",
            FailureReason::SyntaxError => "Syntax Error",
            FailureReason::ArgumentError => "Argument Error",
            FailureReason::CalledProcessError => "Called Process Error",
            FailureReason::IndexError => "Index Error",
        }
    }

    /// The Table-3 row for this reason.
    pub fn spec(self) -> FailureSpec {
        use ClusterScope::*;
        use FailureCategory::*;
        use FailureReason::*;
        let row = |category, num, da, dm, ta, tm, ra, rm, scope| FailureSpec {
            reason: self,
            category,
            num,
            demand_avg: da,
            demand_median: dm,
            ttf_avg_mins: ta,
            ttf_median_mins: tm,
            ttr_avg_mins: ra,
            ttr_median_mins: rm,
            scope,
        };
        match self {
            NvLinkError => row(
                Infrastructure,
                54,
                800.0,
                896.0,
                868.1,
                155.3,
                95.6,
                0.2,
                Both,
            ),
            CudaError => row(
                Infrastructure,
                21,
                847.0,
                1024.0,
                923.2,
                586.0,
                78.3,
                2.0,
                Both,
            ),
            NodeFailure => row(
                Infrastructure,
                16,
                712.0,
                768.0,
                1288.8,
                535.8,
                102.8,
                21.5,
                SerenOnly,
            ),
            EccError => row(
                Infrastructure,
                12,
                680.0,
                512.0,
                1303.4,
                1192.3,
                2.8,
                1.8,
                Both,
            ),
            NetworkError => row(
                Infrastructure,
                12,
                758.0,
                768.0,
                549.6,
                310.1,
                592.1,
                7.4,
                Both,
            ),
            ConnectionError => row(Infrastructure, 147, 29.0, 1.0, 51.9, 0.5, 0.8, 0.0, Both),
            S3StorageError => row(
                Infrastructure,
                10,
                422.0,
                256.0,
                2317.8,
                202.2,
                6.2,
                0.2,
                SerenOnly,
            ),
            NcclTimeoutError => row(
                Infrastructure,
                6,
                596.0,
                512.0,
                159.7,
                48.1,
                66.7,
                43.6,
                KalosOnly,
            ),
            NcclRemoteError => row(
                Infrastructure,
                3,
                1152.0,
                1024.0,
                50.5,
                22.6,
                0.0,
                0.7,
                KalosOnly,
            ),
            DataloaderKilled => row(
                Framework, 6, 445.0, 508.0, 1580.6, 961.4, 115.1, 0.9, KalosOnly,
            ),
            AttributeError => row(Framework, 67, 228.0, 8.0, 67.8, 1.2, 2.4, 0.0, Both),
            OutOfMemoryError => row(Framework, 14, 572.0, 640.0, 323.8, 14.5, 122.7, 1.2, Both),
            RuntimeError => row(Framework, 65, 441.0, 352.0, 66.4, 3.9, 10.9, 1.5, Both),
            AssertionError => row(Framework, 105, 413.0, 256.0, 41.7, 3.0, 185.9, 1.6, Both),
            ValueError => row(Framework, 33, 387.0, 256.0, 9.9, 3.7, 27.4, 0.6, Both),
            ZeroDivisionError => row(Framework, 5, 499.0, 256.0, 14.5, 15.6, 2.5, 1.1, Both),
            ModelLoadingError => row(Framework, 104, 8.0, 8.0, 2.6, 2.6, 0.0, 0.0, KalosOnly),
            DatasetLoadingError => row(Framework, 5, 1.0, 1.0, 1.6, 1.6, 0.0, 0.0, KalosOnly),
            FileNotFoundError => row(Script, 568, 21.0, 1.0, 14.2, 0.4, 0.4, 0.0, Both),
            OsError => row(Script, 266, 8.0, 1.0, 9.6, 0.8, 0.3, 0.0, Both),
            TypeError => row(Script, 620, 18.0, 4.0, 0.9, 0.3, 0.2, 0.0, Both),
            NameError => row(Script, 18, 247.0, 24.0, 3.2, 0.5, 2.9, 2.4, Both),
            PermissionError => row(Script, 7, 438.0, 512.0, 4.3, 0.8, 2.4, 2.2, SerenOnly),
            ImportError => row(Script, 111, 93.0, 8.0, 1.1, 0.4, 0.7, 0.0, Both),
            KeyError => row(Script, 260, 7.0, 0.0, 3.0, 1.6, 0.1, 0.0, Both),
            SyntaxError => row(Script, 10, 391.0, 384.0, 0.7, 0.6, 1.7, 1.7, Both),
            ArgumentError => row(Script, 3, 344.0, 512.0, 0.7, 0.7, 2.7, 0.7, SerenOnly),
            CalledProcessError => row(Script, 4, 256.0, 256.0, 0.2, 0.2, 11.7, 10.9, SerenOnly),
            IndexError => row(Script, 23, 6.0, 1.0, 1.6, 0.9, 0.8, 0.0, KalosOnly),
        }
    }

    /// Category shorthand.
    pub fn category(self) -> FailureCategory {
        self.spec().category
    }

    /// Whether the reason indicates recoverable infrastructure trouble that
    /// the automatic system should handle end-to-end.
    pub fn is_infrastructure(self) -> bool {
        self.category() == FailureCategory::Infrastructure
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_nine_reasons() {
        assert_eq!(FailureReason::ALL.len(), 29);
        // Labels are unique.
        let labels: std::collections::HashSet<_> =
            FailureReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), 29);
    }

    #[test]
    fn total_occurrences_match_table3() {
        let total: u32 = FailureReason::ALL.iter().map(|r| r.spec().num).sum();
        // Sum of the Num column.
        assert_eq!(total, 2575);
    }

    #[test]
    fn infrastructure_is_few_in_number() {
        let infra: u32 = FailureReason::ALL
            .iter()
            .filter(|r| r.is_infrastructure())
            .map(|r| r.spec().num)
            .sum();
        let frac = infra as f64 / 2575.0;
        // §5.2: "only 11% failed job quantity".
        assert!((0.09..0.13).contains(&frac), "infra count share {frac:.3}");
    }

    #[test]
    fn infrastructure_dominates_gpu_time() {
        // Approximate each reason's GPU time as num × demand_avg × ttf_avg.
        let gpu_time = |cat: FailureCategory| -> f64 {
            FailureReason::ALL
                .iter()
                .map(|r| r.spec())
                .filter(|s| s.category == cat)
                .map(|s| s.num as f64 * s.demand_avg * s.ttf_avg_mins)
                .sum()
        };
        let infra = gpu_time(FailureCategory::Infrastructure);
        let total =
            infra + gpu_time(FailureCategory::Framework) + gpu_time(FailureCategory::Script);
        let share = infra / total;
        // §5.2: infrastructure failures take over 82% of failed GPU time.
        assert!(share > 0.78, "infra GPU-time share {share:.3}");
    }

    #[test]
    fn category_ordering_of_ttf() {
        // Script errors die fast; infrastructure failures strike mid-run.
        let mean_ttf = |cat: FailureCategory| -> f64 {
            let rows: Vec<_> = FailureReason::ALL
                .iter()
                .map(|r| r.spec())
                .filter(|s| s.category == cat)
                .collect();
            rows.iter().map(|s| s.ttf_avg_mins).sum::<f64>() / rows.len() as f64
        };
        assert!(mean_ttf(FailureCategory::Script) < 10.0);
        assert!(mean_ttf(FailureCategory::Infrastructure) > 300.0);
    }

    #[test]
    fn nvlink_row_verbatim() {
        let s = FailureReason::NvLinkError.spec();
        assert_eq!(s.num, 54);
        assert_eq!(s.demand_avg, 800.0);
        assert_eq!(s.ttf_median_mins, 155.3);
        assert_eq!(s.ttr_avg_mins, 95.6);
        assert_eq!(s.scope, ClusterScope::Both);
    }

    #[test]
    fn scopes_cover_single_cluster_reasons() {
        assert_eq!(
            FailureReason::NodeFailure.spec().scope,
            ClusterScope::SerenOnly
        );
        assert_eq!(
            FailureReason::NcclTimeoutError.spec().scope,
            ClusterScope::KalosOnly
        );
        assert_eq!(
            FailureReason::IndexError.spec().scope,
            ClusterScope::KalosOnly
        );
    }
}
