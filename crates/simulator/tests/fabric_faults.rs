//! Fault tolerance of the multi-uplink spine/leaf fabric: adaptive
//! failover onto surviving uplinks, stall-until-repair when diversity
//! is exhausted, typed `Unroutable` on permanent total severance, and
//! the validation edges of fabric-native fault targets.

use ccube_collectives::{tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap, Schedule};
use ccube_sim::{
    forever, simulate_system, simulate_system_faulted, FabricSpec, FaultEvent, FaultPlan,
    NetworkModel, SimError, SimOptions, SimRng, SimStats, SystemJob, TraceRecord, UplinkPolicy,
};
use ccube_topology::{hierarchical, ByteSize, ChannelId, Seconds};
use proptest::prelude::*;

fn compute_less(schedule: Schedule) -> SystemJob {
    SystemJob {
        schedule,
        compute: vec![],
        transfer_gates: vec![],
    }
}

/// A radix-4 spine/leaf spec over `hierarchical(16)`: 4 leaves with
/// `uplinks` slots each, total uplink capacity held constant so the
/// healthy makespan is invariant in `uplinks`.
fn spec(uplinks: usize, policy: UplinkPolicy) -> FabricSpec {
    FabricSpec {
        radix: Some(4),
        spines: uplinks.max(1),
        uplinks,
        uplink_policy: policy,
        ..FabricSpec::default()
    }
}

fn opts_for(uplinks: usize, policy: UplinkPolicy) -> SimOptions {
    SimOptions::scale_out().with_network(NetworkModel::SwitchFabric(spec(uplinks, policy)))
}

/// The C1 double tree on `hierarchical(16)`: its cross-leaf edges have
/// both even and odd source nodes, so hash striping spreads them over
/// both uplink slots (a unidirectional ring would put every leaf
/// crossing on one slot and leave the other idle).
fn setup() -> (ccube_topology::Topology, SystemJob, Embedding) {
    let topo = hierarchical(16);
    let dt = DoubleBinaryTree::new(16).expect("16 ranks");
    let s = tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(8), 16),
        Overlap::ReductionBroadcast,
    );
    let e = Embedding::nic(&topo, &s).expect("nic embedding");
    (topo, compute_less(s), e)
}

#[test]
fn two_uplinks_fail_over_and_beat_the_single_uplink_fabric() {
    let (topo, job, e) = setup();
    let one = opts_for(1, UplinkPolicy::Failover);
    let two = opts_for(2, UplinkPolicy::Failover);
    let healthy1 = simulate_system(&topo, &job, &e, &one).expect("healthy 1-uplink");
    let healthy2 = simulate_system(&topo, &job, &e, &two).expect("healthy 2-uplink");

    // Slot 0 of every leaf down for most of the healthy run — valid on
    // both fabrics (every leaf has a slot 0).
    let window = healthy1.makespan * 0.75;
    let plan = FaultPlan::new(
        (0..4)
            .map(|leaf| FaultEvent::UplinkDown {
                leaf,
                uplink: 0,
                from: Seconds::ZERO,
                until: window,
            })
            .collect(),
    )
    .expect("valid plan");

    let r1 = simulate_system_faulted(&topo, &job, &e, &one, &plan).expect("1-uplink recovers");
    let r2 = simulate_system_faulted(&topo, &job, &e, &two, &plan).expect("2-uplink recovers");

    // One uplink: no diversity, every crossing stalls out the window.
    assert_eq!(r1.stats.failovers, 0, "k=1 has nowhere to fail over");
    assert!(r1.makespan > healthy1.makespan);
    // Two uplinks: slot-0 traffic moves to slot 1 and the run recovers.
    assert!(r2.stats.failovers >= 1, "k=2 must record failover reroutes");
    // Slowdown (faulted over own healthy makespan) is the cross-fabric
    // comparable: the 2-uplink fabric must degrade strictly less.
    let slow1 = r1.makespan.as_secs_f64() / healthy1.makespan.as_secs_f64();
    let slow2 = r2.makespan.as_secs_f64() / healthy2.makespan.as_secs_f64();
    assert!(
        slow2 < slow1,
        "failover must strictly beat the stalled single-uplink fabric: {slow2} vs {slow1}"
    );
    // Every recorded failover appears in the trace.
    let traced = r2
        .trace
        .records()
        .filter(|rec| matches!(rec, TraceRecord::Failover { .. }))
        .count() as u64;
    assert_eq!(traced, r2.stats.failovers);
    // Replay is bit-identical.
    let again = simulate_system_faulted(&topo, &job, &e, &two, &plan).expect("replay");
    assert_eq!(r2, again);
}

#[test]
fn hash_policy_stalls_until_repair_instead_of_failing_over() {
    let (topo, job, e) = setup();
    let opts = opts_for(2, UplinkPolicy::Hash);
    let healthy = simulate_system(&topo, &job, &e, &opts).expect("healthy");
    let plan = FaultPlan::new(vec![FaultEvent::UplinkDown {
        leaf: 0,
        uplink: 0,
        from: Seconds::ZERO,
        until: healthy.makespan * 0.5,
    }])
    .expect("valid");
    let r = simulate_system_faulted(&topo, &job, &e, &opts, &plan).expect("completes");
    assert_eq!(r.stats.failovers, 0, "hash striping never revises");
    assert!(r.makespan > healthy.makespan, "striped traffic stalls");
}

#[test]
fn switch_down_takes_a_whole_spine_and_failover_recovers() {
    let (topo, job, e) = setup();
    let opts = opts_for(2, UplinkPolicy::Failover);
    let healthy = simulate_system(&topo, &job, &e, &opts).expect("healthy");
    // Spine 0 serves slot 0 of every leaf (2 spines, slot j -> spine j).
    let plan = FaultPlan::new(vec![FaultEvent::SwitchDown {
        spine: 0,
        from: Seconds::ZERO,
        until: healthy.makespan * 0.75,
    }])
    .expect("valid");
    let r = simulate_system_faulted(&topo, &job, &e, &opts, &plan).expect("recovers");
    assert!(r.stats.failovers >= 1, "spine loss must trigger failover");
    // Per-uplink busy time is reported: 2 slots x 2 legs x 4 leaves.
    assert_eq!(r.stats.uplink_busy.len(), 16);
    // Surviving-spine ports carried traffic during the outage.
    assert!(r.stats.uplink_busy.iter().any(|b| !b.is_zero()));
}

#[test]
fn permanent_total_severance_is_unroutable_not_deadlock() {
    let (topo, job, e) = setup();
    let opts = opts_for(2, UplinkPolicy::Failover);
    // Both slots of leaf 0 permanently down: exhausted diversity.
    let plan = FaultPlan::new(
        (0..2)
            .map(|slot| FaultEvent::UplinkDown {
                leaf: 0,
                uplink: slot,
                from: Seconds::ZERO,
                until: forever(),
            })
            .collect(),
    )
    .expect("valid");
    match simulate_system_faulted(&topo, &job, &e, &opts, &plan) {
        Err(SimError::Unroutable { .. }) => {}
        other => panic!("expected Unroutable, got {other:?}"),
    }
}

#[test]
fn forever_fault_on_the_last_surviving_uplink_is_unroutable() {
    let (topo, job, e) = setup();
    let opts = opts_for(2, UplinkPolicy::Failover);
    let healthy = simulate_system(&topo, &job, &e, &opts).expect("healthy");
    // Slot 0 dies at t=0 and repairs late; slot 1 — the last survivor
    // while slot 0 is out — dies forever mid-run. After slot 0 repairs
    // the fabric is routable again, so the run completes; but if slot 0
    // is ALSO permanent, it cannot.
    let transient_then_fatal = |slot0_until: Seconds| {
        FaultPlan::new(vec![
            FaultEvent::UplinkDown {
                leaf: 0,
                uplink: 0,
                from: Seconds::ZERO,
                until: slot0_until,
            },
            FaultEvent::UplinkDown {
                leaf: 0,
                uplink: 1,
                from: healthy.makespan * 0.25,
                until: forever(),
            },
        ])
        .expect("valid")
    };
    let recovers = transient_then_fatal(healthy.makespan * 0.5);
    let r = simulate_system_faulted(&topo, &job, &e, &opts, &recovers)
        .expect("slot 0 repair restores routability");
    assert!(r.makespan >= healthy.makespan);
    let fatal = transient_then_fatal(forever());
    match simulate_system_faulted(&topo, &job, &e, &opts, &fatal) {
        Err(SimError::Unroutable { .. }) => {}
        other => panic!("expected Unroutable, got {other:?}"),
    }
}

#[test]
fn overlapping_uplink_windows_on_one_slot_compose_like_counters() {
    let (topo, job, e) = setup();
    let opts = opts_for(2, UplinkPolicy::Hash);
    let healthy = simulate_system(&topo, &job, &e, &opts).expect("healthy");
    let m = healthy.makespan;
    // Two overlapping windows on the same slot: the port is down until
    // the LATER repair, equivalent to one merged window.
    let overlapping = FaultPlan::new(vec![
        FaultEvent::UplinkDown {
            leaf: 0,
            uplink: 0,
            from: Seconds::ZERO,
            until: m * 0.4,
        },
        FaultEvent::UplinkDown {
            leaf: 0,
            uplink: 0,
            from: m * 0.2,
            until: m * 0.6,
        },
    ])
    .expect("valid");
    let merged = FaultPlan::new(vec![FaultEvent::UplinkDown {
        leaf: 0,
        uplink: 0,
        from: Seconds::ZERO,
        until: m * 0.6,
    }])
    .expect("valid");
    let a = simulate_system_faulted(&topo, &job, &e, &opts, &overlapping).expect("runs");
    let b = simulate_system_faulted(&topo, &job, &e, &opts, &merged).expect("runs");
    assert_eq!(
        a.makespan, b.makespan,
        "overlapping windows must compose to their union"
    );
}

#[test]
fn uplink_and_link_down_overlap_on_the_same_leaf_without_deadlock() {
    let (topo, job, e) = setup();
    let opts = opts_for(2, UplinkPolicy::Failover);
    let healthy = simulate_system(&topo, &job, &e, &opts).expect("healthy");
    let m = healthy.makespan;
    // An uplink outage on leaf 0 overlapping a NIC link flap on node 0
    // (which lives on leaf 0): two independent fault mechanisms on the
    // same corner of the fabric, both transient.
    let plan = FaultPlan::new(vec![
        FaultEvent::UplinkDown {
            leaf: 0,
            uplink: 0,
            from: Seconds::ZERO,
            until: m * 0.5,
        },
        FaultEvent::LinkDown {
            channel: ChannelId(0),
            from: m * 0.25,
            until: m * 0.75,
        },
    ])
    .expect("valid");
    let r = simulate_system_faulted(&topo, &job, &e, &opts, &plan).expect("completes");
    assert!(r.makespan > healthy.makespan);
    let again = simulate_system_faulted(&topo, &job, &e, &opts, &plan).expect("replay");
    assert_eq!(r, again, "mixed fault kinds must replay bit-identically");
}

#[test]
fn repair_exactly_at_the_horizon_boundary_completes() {
    let (topo, job, e) = setup();
    let opts = opts_for(2, UplinkPolicy::Hash);
    let healthy = simulate_system(&topo, &job, &e, &opts).expect("healthy");
    // The repair lands exactly on the healthy makespan: stalled traffic
    // resumes at that instant and the run still terminates.
    let plan = FaultPlan::new(vec![FaultEvent::UplinkDown {
        leaf: 0,
        uplink: 0,
        from: Seconds::ZERO,
        until: healthy.makespan,
    }])
    .expect("valid");
    let r = simulate_system_faulted(&topo, &job, &e, &opts, &plan).expect("completes");
    assert!(r.makespan >= healthy.makespan);
}

#[test]
fn fabric_targets_are_rejected_under_the_channel_approximation() {
    let (topo, job, e) = setup();
    let plan = FaultPlan::new(vec![FaultEvent::UplinkDown {
        leaf: 0,
        uplink: 0,
        from: Seconds::ZERO,
        until: forever(),
    }])
    .expect("valid as a plan");
    match simulate_system_faulted(&topo, &job, &e, &SimOptions::scale_out(), &plan) {
        Err(SimError::FaultPlanInvalid(msg)) => {
            assert!(msg.contains("switch-fabric"), "got: {msg}")
        }
        other => panic!("expected FaultPlanInvalid, got {other:?}"),
    }
}

#[test]
fn out_of_range_fabric_targets_are_rejected() {
    let (topo, job, e) = setup();
    let opts = opts_for(2, UplinkPolicy::Hash);
    let cases = [
        FaultEvent::UplinkDown {
            leaf: 99,
            uplink: 0,
            from: Seconds::ZERO,
            until: forever(),
        },
        FaultEvent::UplinkDown {
            leaf: 0,
            uplink: 2,
            from: Seconds::ZERO,
            until: forever(),
        },
        FaultEvent::SwitchDown {
            spine: 2,
            from: Seconds::ZERO,
            until: forever(),
        },
    ];
    for ev in cases {
        let plan = FaultPlan::new(vec![ev]).expect("structurally valid");
        match simulate_system_faulted(&topo, &job, &e, &opts, &plan) {
            Err(SimError::FaultPlanInvalid(_)) => {}
            other => panic!("expected FaultPlanInvalid for {ev:?}, got {other:?}"),
        }
    }
}

#[test]
fn sampled_uplink_plans_are_pure_functions_of_the_seed() {
    let rng = SimRng::new(0xF0);
    let a = FaultPlan::sample_uplinks(
        4,
        2,
        Seconds::from_micros(500.0),
        Seconds::from_micros(200.0),
        Seconds::from_micros(2_000.0),
        &rng,
    );
    let b = FaultPlan::sample_uplinks(
        4,
        2,
        Seconds::from_micros(500.0),
        Seconds::from_micros(200.0),
        Seconds::from_micros(2_000.0),
        &rng,
    );
    assert_eq!(a.events(), b.events());
    assert!(!a.is_empty(), "these rates produce outages");
    // Sampling with fewer slots yields a prefix-compatible plan: every
    // event targets slot 0, so it is valid on ANY fabric.
    let narrow = FaultPlan::sample_uplinks(
        4,
        1,
        Seconds::from_micros(500.0),
        Seconds::from_micros(200.0),
        Seconds::from_micros(2_000.0),
        &rng,
    );
    assert!(narrow
        .events()
        .iter()
        .all(|e| matches!(e, FaultEvent::UplinkDown { uplink: 0, .. })));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No sampled k-uplink fault plan deadlocks the fabric engine: every
    /// run either completes (all transient windows eventually repair) or
    /// is impossible — and with finite windows, impossibility is ruled
    /// out, so completion is guaranteed and replayable, converging to a
    /// makespan no better than the no-fault run.
    #[test]
    fn sampled_uplink_plans_never_deadlock_and_converge_after_repair(
        seed in 0u64..5_000,
        uplinks in 1usize..4,
        policy_ix in 0usize..3,
    ) {
        let policy = [UplinkPolicy::Hash, UplinkPolicy::LeastQueued, UplinkPolicy::Failover]
            [policy_ix];
        let (topo, job, e) = setup();
        let opts = opts_for(uplinks, policy);
        let healthy = simulate_system(&topo, &job, &e, &opts).expect("healthy");
        let plan = FaultPlan::sample_uplinks(
            4,
            uplinks,
            healthy.makespan * 0.5,
            healthy.makespan * 0.25,
            healthy.makespan,
            &SimRng::new(seed),
        );
        let first = simulate_system_faulted(&topo, &job, &e, &opts, &plan);
        match first {
            Ok(r) => {
                // Transient faults only: the run converges after repair.
                prop_assert!(r.makespan >= healthy.makespan - Seconds::new(1e-12));
                prop_assert_eq!(r.transfer_complete.len(), healthy.transfer_complete.len());
                let replay = simulate_system_faulted(&topo, &job, &e, &opts, &plan)
                    .expect("replay outcome matches");
                prop_assert_eq!(r, replay, "seed {} must replay bit-identically", seed);
            }
            Err(SimError::Deadlock { .. }) => {
                prop_assert!(false, "a transient uplink plan must never deadlock");
            }
            Err(e) => prop_assert!(false, "unexpected error: {:?}", e),
        }
    }
}

// ---------------------------------------------------------------------
// Fault-layer differentials: windows whose effects depend on per-channel
// and per-transfer bookkeeping staying current as the run moves (stacked
// degradations, reroutes, overlapping uplink and spine outages). Each
// run is pinned to the values the engine produced when these cases were
// written: makespan bits, an FNV-1a digest of the `SimStats` debug
// rendering, the failover count and the reroute count.
// ---------------------------------------------------------------------

/// `(makespan bits, SimStats digest, failovers, reroutes_taken)`.
type Pin = (u64, u64, u64, u64);

fn stats_digest(stats: &SimStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{stats:?}").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn pin(
    topo: &ccube_topology::Topology,
    job: &SystemJob,
    e: &Embedding,
    opts: &SimOptions,
    plan: &FaultPlan,
) -> Pin {
    let r = simulate_system_faulted(topo, job, e, opts, plan).expect("faulted run completes");
    (
        r.makespan.as_secs_f64().to_bits(),
        stats_digest(&r.stats),
        r.stats.failovers,
        r.stats.reroutes_taken,
    )
}

/// Compares `got` with the pinned table; on a mismatch the message holds
/// the whole table as it stands now.
fn assert_pins(got: &[(String, Pin)], want: &[(&str, Pin)]) {
    let table: String = got
        .iter()
        .map(|(name, (m, d, f, r))| {
            format!("    (\"{name}\", ({m:#018x}, {d:#018x}, {f}, {r})),\n")
        })
        .collect();
    assert_eq!(got.len(), want.len(), "pinned cases:\n{table}");
    for ((name, p), (wname, w)) in got.iter().zip(want) {
        assert_eq!(name, wname, "pinned cases:\n{table}");
        assert_eq!(p, w, "{name} drifted; pinned cases now:\n{table}");
    }
}

/// Three overlapping `Degraded` windows with different rates on node 0's
/// injection channel, and two on node 2's ejection channel, all opening
/// and closing at distinct times: every boundary changes the rate of a
/// channel that in-flight transfers hold.
fn stacked_degradations(m: Seconds) -> FaultPlan {
    let deg = |channel: u32, rate: f64, from: f64, until: Option<f64>| FaultEvent::Degraded {
        channel: ChannelId(channel),
        from: m * from,
        until: until.map_or_else(forever, |u| m * u),
        rate,
    };
    FaultPlan::new(vec![
        deg(0, 0.5, 0.05, Some(0.5)),
        deg(0, 0.3, 0.2, Some(0.7)),
        deg(0, 0.8, 0.35, None),
        deg(5, 0.6, 0.1, Some(0.4)),
        deg(5, 0.9, 0.3, Some(0.6)),
    ])
    .expect("valid")
}

#[test]
fn stacked_degraded_windows_on_one_channel_are_pinned() {
    const WANT: &[(&str, Pin)] = &[
        ("approx", (0x3f5ec0046ce9a892, 0x28dd705501d5605d, 0, 0)),
        ("hash", (0x3f60044db679f69f, 0x2a451c9d2ce67c52, 0, 0)),
        ("failover", (0x3f60044db679f69f, 0x2a451c9d2ce67c52, 0, 0)),
    ];
    let (topo, job, e) = setup();
    let mut got = Vec::new();
    for (name, opts) in [
        ("approx", SimOptions::scale_out()),
        ("hash", opts_for(2, UplinkPolicy::Hash)),
        ("failover", opts_for(2, UplinkPolicy::Failover)),
    ] {
        let healthy = simulate_system(&topo, &job, &e, &opts).expect("healthy");
        let plan = stacked_degradations(healthy.makespan);
        got.push((name.to_string(), pin(&topo, &job, &e, &opts, &plan)));
    }
    assert_pins(&got, WANT);
}

#[test]
fn link_down_then_uplink_down_on_the_fabric_is_pinned() {
    const WANT: &[(&str, Pin)] = &[
        ("failover", (0x3f5fd00d1cc0cf52, 0xb53d8c64ee72f737, 47, 0)),
        (
            "least-queued",
            (0x3f5d103e8c0bcd36, 0x6108b6987e175044, 118, 0),
        ),
    ];
    let (topo, job, e) = setup();
    let mut got = Vec::new();
    for policy in [UplinkPolicy::Failover, UplinkPolicy::LeastQueued] {
        let opts = opts_for(2, policy);
        let m = simulate_system(&topo, &job, &e, &opts)
            .expect("healthy")
            .makespan;
        // Node 0's injection channel carries leaf 0's spine crossings;
        // on a spine/leaf fabric every channel is a NIC channel, so its
        // traffic waits for repair and is then caught by the uplink
        // outages on its own leaf and on leaf 1.
        let plan = FaultPlan::new(vec![
            FaultEvent::LinkDown {
                channel: ChannelId(0),
                from: m * 0.1,
                until: m * 0.4,
            },
            FaultEvent::UplinkDown {
                leaf: 0,
                uplink: 0,
                from: m * 0.3,
                until: m * 0.6,
            },
            FaultEvent::UplinkDown {
                leaf: 1,
                uplink: 1,
                from: m * 0.45,
                until: m * 0.8,
            },
        ])
        .expect("valid");
        got.push((
            policy.label().to_string(),
            pin(&topo, &job, &e, &opts, &plan),
        ));
    }
    assert_pins(&got, WANT);
}

#[test]
fn reroutes_then_degradations_on_the_new_paths_are_pinned() {
    const WANT: &[(&str, Pin)] = &[
        ("approx", (0x3f596404038f3e43, 0x62b0a3822201f2a3, 0, 25)),
        ("fabric", (0x3f596404038f3e43, 0x289aed7df66cb0e8, 0, 25)),
    ];
    // On the DGX-1 a downed NVLink re-routes its waiting traffic onto
    // detours; degradation windows opening afterwards on every NVLink
    // must rescale the transfers on their new paths, not their old ones.
    let topo = ccube_topology::dgx1();
    let s = ccube_collectives::ring_allreduce(8, ByteSize::mib(16));
    let e = Embedding::identity(&topo, &s).expect("identity");
    let job = compute_less(s);
    let used: Vec<ChannelId> = {
        let r = simulate_system(&topo, &job, &e, &SimOptions::default()).expect("healthy");
        (0..topo.channels().len())
            .filter(|&c| !r.channel_busy[c].is_zero())
            .map(|c| ChannelId(c as u32))
            .collect()
    };
    let mut got = Vec::new();
    for (name, opts) in [
        ("approx", SimOptions::default()),
        (
            "fabric",
            SimOptions::default().with_network(NetworkModel::SwitchFabric(FabricSpec {
                uplink_policy: UplinkPolicy::LeastQueued,
                ..FabricSpec::default()
            })),
        ),
    ] {
        let m = simulate_system(&topo, &job, &e, &opts)
            .expect("healthy")
            .makespan;
        let mut events = vec![
            FaultEvent::LinkDown {
                channel: used[0],
                from: Seconds::ZERO,
                until: m * 0.5,
            },
            FaultEvent::LinkDown {
                channel: used[3],
                from: m * 0.15,
                until: m * 0.6,
            },
        ];
        for (i, ch) in topo.channels().iter().enumerate() {
            if ch.class() == ccube_topology::ChannelClass::NvLink {
                events.push(FaultEvent::Degraded {
                    channel: ch.id(),
                    from: m * (0.2 + 0.01 * (i % 7) as f64),
                    until: m * (0.7 + 0.01 * (i % 5) as f64),
                    rate: 0.5,
                });
            }
        }
        let plan = FaultPlan::new(events).expect("valid");
        got.push((name.to_string(), pin(&topo, &job, &e, &opts, &plan)));
    }
    assert_pins(&got, WANT);
}

#[test]
fn switch_down_overlapping_uplink_down_is_pinned() {
    const WANT: &[(&str, Pin)] = &[
        ("hash", (0x3f63bc53fc811850, 0x8cc5e969874484c6, 0, 0)),
        (
            "least-queued",
            (0x3f62758f827632c3, 0xb80a6f1e582e92ac, 169, 0),
        ),
        ("failover", (0x3f63d576cad0b3d1, 0x249d253bece45f47, 123, 0)),
    ];
    let (topo, job, e) = setup();
    let mut got = Vec::new();
    for policy in [
        UplinkPolicy::Hash,
        UplinkPolicy::LeastQueued,
        UplinkPolicy::Failover,
    ] {
        let opts = opts_for(2, policy);
        let m = simulate_system(&topo, &job, &e, &opts)
            .expect("healthy")
            .makespan;
        // Spine 0 (slot 0 everywhere) overlaps an outage of slot 1 on
        // leaf 1, which leaves leaf 1 with no slot for a while, and a
        // second slot-0 outage on leaf 2 that outlives the spine's.
        let plan = FaultPlan::new(vec![
            FaultEvent::SwitchDown {
                spine: 0,
                from: m * 0.1,
                until: m * 0.6,
            },
            FaultEvent::UplinkDown {
                leaf: 1,
                uplink: 1,
                from: m * 0.3,
                until: m * 0.8,
            },
            FaultEvent::UplinkDown {
                leaf: 2,
                uplink: 0,
                from: Seconds::ZERO,
                until: m * 0.7,
            },
        ])
        .expect("valid");
        got.push((
            policy.label().to_string(),
            pin(&topo, &job, &e, &opts, &plan),
        ));
    }
    assert_pins(&got, WANT);
}
