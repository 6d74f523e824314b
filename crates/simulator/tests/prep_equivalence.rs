//! Equivalence contract of the preparation cache and the reusable
//! arena: every `simulate*` engine must produce **bit-identical**
//! reports with the cache warm, cold, or disabled (`--no-prep-cache`),
//! and repeated runs on a thread's recycled arena must replay exactly.
//!
//! The cache-enable switch is process-global, so every test that
//! toggles it holds a shared lock; the caches and counters themselves
//! are thread-local (one per test thread), so tests never share state.

use ccube_collectives::{
    lower_schedule, ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Embedding,
    LinkTiming, Overlap, PreparedLowering, Schedule,
};
use ccube_sim::{
    prep_cache_stats, reset_prep_cache, set_prep_cache_enabled, simulate, simulate_faulted,
    simulate_system, FabricSpec, FaultEvent, FaultPlan, HopMode, SimOptions, SystemJob,
};
use ccube_topology::{dgx1, hierarchical, ByteSize, ChannelId, Seconds, Topology};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that flip the global cache switch.
fn flag_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the cache disabled, restoring it afterwards even on
/// panic.
fn with_cache_disabled<R>(f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_prep_cache_enabled(true);
        }
    }
    let _restore = Restore;
    set_prep_cache_enabled(false);
    f()
}

/// The C1 configuration: overlapped double tree on the DGX-1.
fn c1(topo: &Topology, bytes: ByteSize, k: usize) -> (Schedule, Embedding) {
    let dt = DoubleBinaryTree::new(8).expect("8 ranks");
    let s = tree_allreduce(
        dt.trees(),
        &Chunking::even(bytes, k),
        Overlap::ReductionBroadcast,
    );
    let e = Embedding::dgx1_double_tree(topo, &s).expect("embeds");
    (s, e)
}

#[test]
fn cached_runs_are_bit_identical_to_uncached_runs() {
    let _guard = flag_lock();
    let topo = dgx1();
    let opts = SimOptions::default();
    // A grid that shares structure across points (same schedule shape,
    // different payloads) so the second and third points are cache hits.
    let grid = [ByteSize::mib(1), ByteSize::mib(4), ByteSize::mib(16)];

    reset_prep_cache();
    let cached: Vec<_> = grid
        .iter()
        .map(|&n| {
            let (s, e) = c1(&topo, n, 16);
            simulate(&topo, &s, &e, &opts).expect("cached run")
        })
        .collect();
    let stats = prep_cache_stats();
    assert_eq!(stats.misses, 1, "one structure, lowered cold once");
    assert_eq!(stats.hits, 2, "the other two points hit the cache");

    let cold: Vec<_> = with_cache_disabled(|| {
        grid.iter()
            .map(|&n| {
                let (s, e) = c1(&topo, n, 16);
                simulate(&topo, &s, &e, &opts).expect("cold run")
            })
            .collect()
    });
    assert_eq!(cached, cold, "cache on/off must be bit-identical");
}

#[test]
fn ring_and_low_bandwidth_points_round_trip_the_cache() {
    let _guard = flag_lock();
    let topo = dgx1();
    reset_prep_cache();
    // Same structure under two different LinkTimings (high/low
    // bandwidth): the second point rescales the cached routes.
    let s = ring_allreduce(8, ByteSize::mib(64));
    let e = Embedding::identity(&topo, &s).expect("embeds");
    let hi = simulate(&topo, &s, &e, &SimOptions::default()).expect("hi");
    let lo = simulate(&topo, &s, &e, &SimOptions::low_bandwidth()).expect("lo");
    assert_eq!(prep_cache_stats().misses, 1);
    assert_eq!(prep_cache_stats().hits, 1);

    let (hi2, lo2) = with_cache_disabled(|| {
        (
            simulate(&topo, &s, &e, &SimOptions::default()).expect("hi cold"),
            simulate(&topo, &s, &e, &SimOptions::low_bandwidth()).expect("lo cold"),
        )
    });
    assert_eq!(hi, hi2);
    assert_eq!(lo, lo2);
}

#[test]
fn fabric_runs_are_bit_identical_with_cache_toggled() {
    let _guard = flag_lock();
    let topo = hierarchical(16);
    let s = ring_allreduce(16, ByteSize::mib(8));
    let e = Embedding::nic(&topo, &s).expect("embeds");
    for hop_mode in [HopMode::CutThrough, HopMode::StoreForward] {
        let spec = FabricSpec {
            radix: Some(4),
            oversubscription: 2.0,
            uplink_latency: Seconds::from_micros(1.0),
            hop_mode,
            ..FabricSpec::default()
        };
        let opts =
            SimOptions::scale_out().with_network(ccube_sim::NetworkModel::SwitchFabric(spec));
        reset_prep_cache();
        let warm1 = simulate(&topo, &s, &e, &opts).expect("warm 1");
        let warm2 = simulate(&topo, &s, &e, &opts).expect("warm 2");
        assert_eq!(warm1, warm2, "repeat point must replay exactly");
        assert!(prep_cache_stats().hits >= 1, "second run must hit");
        let cold = with_cache_disabled(|| simulate(&topo, &s, &e, &opts).expect("cold"));
        assert_eq!(warm1, cold, "fabric cache on/off must be bit-identical");
    }
}

#[test]
fn faulted_runs_are_bit_identical_with_cache_toggled() {
    let _guard = flag_lock();
    let topo = dgx1();
    let (s, e) = c1(&topo, ByteSize::mib(16), 16);
    let opts = SimOptions::default();
    let plan = FaultPlan::new(vec![
        FaultEvent::LinkDown {
            channel: ChannelId(0),
            from: Seconds::ZERO,
            until: Seconds::from_millis(1.0),
        },
        FaultEvent::Degraded {
            channel: ChannelId(3),
            from: Seconds::from_micros(50.0),
            until: Seconds::from_millis(2.0),
            rate: 0.5,
        },
    ])
    .expect("valid plan");
    reset_prep_cache();
    let warm1 = simulate_faulted(&topo, &s, &e, &opts, &plan).expect("warm 1");
    let warm2 = simulate_faulted(&topo, &s, &e, &opts, &plan).expect("warm 2");
    assert_eq!(warm1, warm2, "faulted replay on a warm cache diverged");
    let cold = with_cache_disabled(|| simulate_faulted(&topo, &s, &e, &opts, &plan).expect("cold"));
    assert_eq!(warm1, cold, "faulted cache on/off must be bit-identical");
}

#[test]
fn system_runs_share_the_cache_with_the_network_engine() {
    let _guard = flag_lock();
    let topo = dgx1();
    let (s, e) = c1(&topo, ByteSize::mib(4), 8);
    let opts = SimOptions::default();
    let job = SystemJob {
        schedule: s.clone(),
        compute: vec![],
        transfer_gates: vec![],
    };
    reset_prep_cache();
    let _net = simulate(&topo, &s, &e, &opts).expect("net");
    let warm = simulate_system(&topo, &job, &e, &opts).expect("system warm");
    let stats = prep_cache_stats();
    assert_eq!(stats.misses, 1, "system engine reuses the network prep");
    assert_eq!(stats.hits, 1);
    let cold =
        with_cache_disabled(|| simulate_system(&topo, &job, &e, &opts).expect("system cold"));
    assert_eq!(warm, cold);
}

#[test]
fn arena_reuse_replays_bit_identically_across_many_runs() {
    // No flag toggles here — this pins the reusable-kernel half of the
    // contract: the thread's arena is recycled on every call, and a
    // hundred interleaved heterogeneous runs must each replay exactly.
    let topo = dgx1();
    let ring = ring_allreduce(8, ByteSize::mib(2));
    let er = Embedding::identity(&topo, &ring).expect("embeds");
    let (tree, et) = c1(&topo, ByteSize::mib(2), 8);
    let opts = SimOptions::default();
    let ring0 = simulate(&topo, &ring, &er, &opts).expect("ring 0");
    let tree0 = simulate(&topo, &tree, &et, &opts).expect("tree 0");
    for i in 0..50 {
        let r = simulate(&topo, &ring, &er, &opts).expect("ring i");
        let t = simulate(&topo, &tree, &et, &opts).expect("tree i");
        assert_eq!(ring0, r, "ring diverged on arena reuse, iteration {i}");
        assert_eq!(tree0, t, "tree diverged on arena reuse, iteration {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cached-and-rescaled `TransferSpec`s are `assert_eq!` (exact float
    /// bits) to freshly lowered ones, across random schedule shapes,
    /// payloads, and timing knobs on both substrate topologies.
    #[test]
    fn prepared_lowering_rescales_bit_identically(
        p in 2usize..=8,
        kib in 1u64..4096,
        k in 1usize..24,
        scale_thousandths in 1u64..4000,
        fwd_ns in 0u64..10_000,
        use_tree in 0usize..2,
        use_hier in 0usize..2,
    ) {
        let topo = if use_hier == 1 { hierarchical(p) } else { dgx1() };
        let n = ByteSize::kib(kib);
        let (s, e) = if use_tree == 1 {
            let tree = ccube_collectives::BinaryTree::inorder(p).unwrap();
            let s = tree_allreduce(
                std::slice::from_ref(&tree),
                &Chunking::even(n, k),
                Overlap::None,
            );
            let e = if use_hier == 1 {
                Embedding::nic(&topo, &s).unwrap()
            } else {
                Embedding::identity(&topo, &s).unwrap()
            };
            (s, e)
        } else {
            let s = ring_allreduce(p, n);
            let e = if use_hier == 1 {
                Embedding::nic(&topo, &s).unwrap()
            } else {
                Embedding::identity(&topo, &s).unwrap()
            };
            (s, e)
        };
        let timing = LinkTiming {
            bandwidth_scale: scale_thousandths as f64 / 1000.0,
            forwarding_latency: Seconds::new(fwd_ns as f64 * 1e-9),
        };
        let fresh = lower_schedule(&s, &e, &topo, &timing).unwrap();
        let prepared = PreparedLowering::new(&s, &e, &topo).unwrap();
        let rescaled = prepared.lower(&s, &timing);
        prop_assert_eq!(fresh, rescaled);
    }

    /// Repeated faulted runs on the recycled arena replay bit-identically
    /// under sampled fault plans (the fault layer exercises reroutes and
    /// rescales over the recycled pool and kernel).
    #[test]
    fn faulted_replay_is_bit_identical_on_reuse(
        seed in 0u64..512,
        kib in 64u64..2048,
        k in 1usize..12,
    ) {
        let topo = dgx1();
        let (s, e) = c1(&topo, ByteSize::kib(kib), k.max(1));
        let model = ccube_sim::FaultModel::severity(2, Seconds::from_millis(1.0));
        let plan = FaultPlan::sample(&model, &topo, &ccube_sim::SimRng::new(seed));
        let opts = SimOptions::default();
        let a = simulate_faulted(&topo, &s, &e, &opts, &plan).unwrap();
        let b = simulate_faulted(&topo, &s, &e, &opts, &plan).unwrap();
        prop_assert_eq!(a, b);
    }
}
