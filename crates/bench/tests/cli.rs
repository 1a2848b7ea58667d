//! The `repro` binary's exit contract, held at the process boundary: an
//! experiment that panics prints its own `FAILED` block on stdout and the
//! process exits 1; nothing outside the runner's panic containment may
//! take the whole run down.

use std::process::Command;

/// The smallest `--scale` whose storm horizon (14 days × scale) overflows
/// `SimDuration`'s microsecond `u64`.
const OVERFLOWING_SCALE: &str = "15250285";

#[test]
fn overflowing_scale_fails_each_experiment_in_its_own_block() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["policylab", "netstorm", "--scale", OVERFLOWING_SCALE])
        .args(["--jobs", "1"])
        .output()
        .expect("repro runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    for id in ["policylab", "netstorm"] {
        let block = format!("### {id} — FAILED\nexperiment panicked: SimDuration overflow");
        assert!(
            stdout.contains(&block),
            "no `{id}` FAILED block in:\n{stdout}"
        );
    }
}
