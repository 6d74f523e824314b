//! Determinism properties of the simulator entry points.
//!
//! The kernel's total event order `(time, key, seq)` makes every run a
//! pure function of its inputs: simulating the same schedule twice must
//! produce **bit-identical** reports — timings, busy intervals, traces
//! and counters included ([`SimReport`] derives `PartialEq` precisely so
//! this can be asserted wholesale).

use ccube_collectives::{
    ring_allreduce, tree_allreduce, BinaryTree, Chunking, DoubleBinaryTree, Embedding, Overlap,
};
use ccube_sim::{simulate, Arbitration, SimOptions, SimReport};
use ccube_topology::{dgx1, hierarchical, ByteSize, Topology};
use proptest::prelude::*;

fn overlap_strategy() -> impl Strategy<Value = Overlap> {
    prop_oneof![Just(Overlap::None), Just(Overlap::ReductionBroadcast)]
}

fn arbitration_strategy() -> impl Strategy<Value = Arbitration> {
    prop_oneof![Just(Arbitration::FifoHol), Just(Arbitration::ChunkPriority)]
}

/// Runs the same simulation twice and demands bit-identical reports.
fn assert_deterministic(
    topo: &Topology,
    schedule: &ccube_collectives::Schedule,
    embedding: &Embedding,
    opts: &SimOptions,
) -> SimReport {
    let a = simulate(topo, schedule, embedding, opts).expect("first run");
    let b = simulate(topo, schedule, embedding, opts).expect("second run");
    assert_eq!(a, b, "two runs of the same inputs diverged");
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn simulate_is_deterministic_on_dgx1(
        p in 2usize..=8,
        kib in 1u64..2048,
        k in 1usize..24,
        overlap in overlap_strategy(),
        arbitration in arbitration_strategy(),
        use_tree in 0usize..2,
    ) {
        let topo = dgx1();
        let opts = SimOptions { arbitration, ..SimOptions::default() };
        let n = ByteSize::kib(kib);
        let (s, e) = if use_tree == 1 {
            let tree = BinaryTree::inorder(p).unwrap();
            let s = tree_allreduce(
                std::slice::from_ref(&tree),
                &Chunking::even(n, k),
                overlap,
            );
            let e = Embedding::identity(&topo, &s).unwrap();
            (s, e)
        } else {
            let s = ring_allreduce(p, n);
            let e = Embedding::identity(&topo, &s).unwrap();
            (s, e)
        };
        let report = assert_deterministic(&topo, &s, &e, &opts);
        prop_assert!(report.makespan() > ccube_topology::Seconds::ZERO);
    }

    #[test]
    fn simulate_is_deterministic_on_hierarchical(
        p in 2usize..32,
        kib in 1u64..2048,
        k in 2usize..24,
        overlap in overlap_strategy(),
        arbitration in arbitration_strategy(),
        use_double_tree in 0usize..2,
    ) {
        let topo = hierarchical(p);
        let opts = SimOptions { arbitration, ..SimOptions::default() };
        let n = ByteSize::kib(kib);
        let (s, e) = if use_double_tree == 1 && p >= 2 {
            match DoubleBinaryTree::new(p) {
                Ok(dt) => {
                    let s = tree_allreduce(dt.trees(), &Chunking::even(n, k), overlap);
                    let e = Embedding::nic(&topo, &s).unwrap();
                    (s, e)
                }
                Err(_) => {
                    let s = ring_allreduce(p, n);
                    let e = Embedding::nic(&topo, &s).unwrap();
                    (s, e)
                }
            }
        } else {
            let s = ring_allreduce(p, n);
            let e = Embedding::nic(&topo, &s).unwrap();
            (s, e)
        };
        // Shared NIC channels are where arbitration actually bites, so
        // this exercises the contended paths of the pool.
        let report = assert_deterministic(&topo, &s, &e, &opts);
        prop_assert!(report.makespan() > ccube_topology::Seconds::ZERO);
    }
}
