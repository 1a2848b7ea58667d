//! Calibration run of the repo benchmark (`perfbench/run.py --trace 0`).
//!
//! Fixed work that uses none of the program's code and links none of its
//! crates: random writes into a table, square roots and number formatting,
//! once over a 1 MiB table that stays in a core's L2 cache and once over a
//! 16 MiB table that lives in the shared L3. How long one process running
//! it takes measures how fast the box runs at that moment; the benchmark
//! runs it before and after every pass and reports pass times at a fixed
//! reference speed. Both tables are needed: on a box whose L3 other tenants
//! share, passes of `fleet` slow down like the first and passes of the
//! storm experiments like the second.

use std::fmt::Write as _;

/// (table bytes, steps): about 15 ms and 25 ms on a 2.1 GHz Intel Xeon core.
const PHASES: [(usize, u64); 2] = [(1 << 20, 2_000_000), (16 << 20, 1_000_000)];

fn kernel(table_bytes: usize, steps: u64) -> u64 {
    let mut table = vec![0u64; table_bytes / 8];
    let mask = table.len() - 1;
    let mut text = String::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & mask;
        table[slot] = table[slot].wrapping_add(i);
        acc += ((x >> 11) as f64).sqrt();
        if i % 64 == 0 {
            text.clear();
            let _ = write!(text, "{acc:.3}");
        }
    }
    table.iter().fold(text.len() as u64, |h, &v| h.rotate_left(5) ^ v)
}

fn main() {
    for (table_bytes, steps) in PHASES {
        std::hint::black_box(kernel(table_bytes, steps));
    }
}
