//! Fast fault detection: the two-round NCCL test (§6.1.3).
//!
//! To localize the node behind an NVLink/NCCL failure, the system
//!
//! 1. splits all nodes into two-node worlds (one three-node world if the
//!    count is odd) and runs an allgather in each; a world fails iff it
//!    contains a faulty node, so members of failing worlds are *suspects*;
//! 2. pairs each suspect with a node from a passing world and re-runs the
//!    allgather; the suspect is faulty iff its world fails again.
//!
//! Identified nodes are then cordoned off.

use std::collections::BTreeSet;

/// The outcome of a two-round test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoRoundResult {
    /// Nodes confirmed faulty.
    pub identified: BTreeSet<usize>,
    /// Suspects after round one.
    pub suspects: BTreeSet<usize>,
    /// Allgather worlds executed in round one.
    pub round1_worlds: usize,
    /// Allgather worlds executed in round two.
    pub round2_worlds: usize,
    /// True when no passing world existed to source known-good partners —
    /// the test degrades to flagging all suspects.
    pub degraded: bool,
}

/// Runs two-round tests over a node fleet.
#[derive(Debug, Clone, Copy)]
pub struct NcclTester {
    nodes: usize,
}

impl NcclTester {
    /// A tester over `nodes` nodes.
    ///
    /// # Panics
    /// Panics if fewer than two nodes.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes >= 2, "need at least two nodes to pair");
        NcclTester { nodes }
    }

    /// Execute the procedure against the hidden faulty set.
    ///
    /// # Panics
    /// Panics if `faulty` references nodes outside the fleet.
    pub fn run(&self, faulty: &BTreeSet<usize>) -> TwoRoundResult {
        assert!(
            faulty.iter().all(|&n| n < self.nodes),
            "faulty node outside the fleet"
        );

        // Round 1: pair consecutive nodes; odd fleet → final world of 3.
        let mut worlds: Vec<Vec<usize>> = Vec::new();
        let mut i = 0;
        while i < self.nodes {
            let remaining = self.nodes - i;
            if remaining == 3 {
                worlds.push(vec![i, i + 1, i + 2]);
                i += 3;
            } else {
                worlds.push(vec![i, i + 1]);
                i += 2;
            }
        }
        let round1_worlds = worlds.len();

        let mut suspects: BTreeSet<usize> = BTreeSet::new();
        let mut good_pool: Vec<usize> = Vec::new();
        for w in &worlds {
            if w.iter().any(|n| faulty.contains(n)) {
                suspects.extend(w.iter().copied());
            } else {
                good_pool.extend(w.iter().copied());
            }
        }

        if suspects.is_empty() {
            return TwoRoundResult {
                identified: BTreeSet::new(),
                suspects,
                round1_worlds,
                round2_worlds: 0,
                degraded: false,
            };
        }

        if good_pool.is_empty() {
            // Every world failed: nothing is known-good to pair against.
            return TwoRoundResult {
                identified: suspects.clone(),
                suspects,
                round1_worlds,
                round2_worlds: 0,
                degraded: true,
            };
        }

        // Round 2: each suspect pairs with a known-good node (cycling
        // through the pool; each pairing is an independent world).
        let mut identified = BTreeSet::new();
        let mut round2_worlds = 0;
        for (k, &s) in suspects.iter().enumerate() {
            let _partner = good_pool[k % good_pool.len()];
            round2_worlds += 1;
            if faulty.contains(&s) {
                identified.insert(s);
            }
        }

        TwoRoundResult {
            identified,
            suspects,
            round1_worlds,
            round2_worlds,
            degraded: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(xs: &[usize]) -> BTreeSet<usize> {
        xs.iter().copied().collect()
    }

    #[test]
    fn healthy_fleet_identifies_nothing() {
        let r = NcclTester::new(16).run(&BTreeSet::new());
        assert!(r.identified.is_empty());
        assert!(r.suspects.is_empty());
        assert_eq!(r.round1_worlds, 8);
        assert_eq!(r.round2_worlds, 0);
    }

    #[test]
    fn single_faulty_node_found_exactly() {
        let r = NcclTester::new(16).run(&set(&[5]));
        assert_eq!(r.identified, set(&[5]));
        // Its round-1 partner was suspected but cleared.
        assert_eq!(r.suspects, set(&[4, 5]));
        assert_eq!(r.round2_worlds, 2);
        assert!(!r.degraded);
    }

    #[test]
    fn both_nodes_of_a_pair_faulty() {
        let r = NcclTester::new(8).run(&set(&[2, 3]));
        assert_eq!(r.identified, set(&[2, 3]));
    }

    #[test]
    fn odd_fleet_forms_a_three_node_world() {
        let t = NcclTester::new(7);
        let r = t.run(&set(&[6]));
        // Worlds: [0,1], [2,3], [4,5,6] — the trailing trio.
        assert_eq!(r.round1_worlds, 3);
        assert_eq!(r.suspects, set(&[4, 5, 6]));
        assert_eq!(r.identified, set(&[6]));
    }

    #[test]
    fn scattered_faults_across_fleet() {
        let faulty = set(&[0, 9, 14]);
        let r = NcclTester::new(20).run(&faulty);
        assert_eq!(r.identified, faulty);
        assert_eq!(r.suspects.len(), 6);
    }

    #[test]
    fn all_worlds_failing_degrades_gracefully() {
        // Every pair holds a faulty node.
        let faulty = set(&[0, 2, 4, 6]);
        let r = NcclTester::new(8).run(&faulty);
        assert!(r.degraded);
        // Degraded mode over-approximates but never misses.
        assert!(r.identified.is_superset(&faulty));
    }

    #[test]
    fn test_count_scales_linearly() {
        let t = NcclTester::new(302); // Kalos-sized fleet
        let r = t.run(&set(&[100]));
        assert_eq!(r.round1_worlds, 151);
        assert_eq!(r.round2_worlds, 2);
        // Two rounds beat 302 sequential node checks by a wide margin.
        assert!(r.round1_worlds + r.round2_worlds < 302);
        // Every node of the fleet, faulty alone, is identified exactly.
        for node in 0..302 {
            let faulty = set(&[node]);
            assert_eq!(t.run(&faulty).identified, faulty, "node {node}");
        }
        // The netstorm replay's k = 8 fat tree: 128 hosts, 4 under each
        // ToR. Each ToR's aligned domain, faulty alone, is identified
        // exactly, so the replay cordons that domain without a test run.
        let t = NcclTester::new(128);
        for edge in 0..32 {
            let faulty: BTreeSet<usize> = (4 * edge..4 * edge + 4).collect();
            assert_eq!(t.run(&faulty).identified, faulty, "ToR {edge}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the fleet")]
    fn rejects_out_of_range_faults() {
        NcclTester::new(4).run(&set(&[9]));
    }
}
