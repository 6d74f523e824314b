//! Fault-plan severance analysis: classifies every window of a
//! [`FaultPlan`] as reroutable, stall-until-repair, or permanently
//! severed — *statically*, without running the fault engine.
//!
//! The fault engine ([`simulate_faulted`](crate::simulate_faulted))
//! discovers a fatal plan by replaying it; this pass reads the plan
//! against the statically lowered routes and the fabric graph and
//! reports, per event, what the engine's recovery machinery could do
//! (diagnostic series shared with `ccube_collectives::analyze`):
//!
//! * `CC021` (Info) — every affected transfer has a surviving fallback:
//!   the channel router finds a detour/host-bridge route, or an
//!   adaptive uplink policy has a surviving slot to fail over to.
//! * `CC022` (Warn) — no fallback while down (structural NIC path, no
//!   surviving route, hash-striped uplink traffic, or exhausted slot
//!   diversity), but the outage is finite: traffic stalls until repair.
//! * `CC023` (Error) — the same, but the outage is permanent: the
//!   engine would drain [`SimError::Unroutable`](crate::SimError).
//!
//! The classification mirrors the engine's recovery rules exactly —
//! NIC-class paths are structural and never re-routed; channel reroutes
//! run a [`Router`] with every concurrently-down channel blocked;
//! uplink failover needs a non-`Hash` policy and a surviving slot
//! (checked against every overlapping uplink/spine outage). It is
//! evaluated against the *statically lowered* routes: a plan whose
//! windows only matter after a chain of prior reroutes may classify
//! conservatively, and a window that outlives all traffic may flag a
//! severance the engine never hits. The shipped guarantee, asserted by
//! the consistency suite, is one-directional: whenever the engine
//! reports `Unroutable`, this pass reports a `CC023`.
//!
//! Degraded-bandwidth and straggler windows never block progress and
//! produce no finding.

use crate::engine::SimOptions;
use crate::fabric::{NetworkModel, UplinkPolicy};
use crate::faults::{FaultEvent, FaultPlan};
use ccube_collectives::analyze::{LintCode, LintReport, Span};
use ccube_collectives::{lower_schedule, Embedding, LowerError, Schedule, TransferSpec};
use ccube_topology::{
    ChannelClass, ChannelId, FabricGraph, PortId, PortKind, Router, Seconds, Topology,
};
use std::collections::BTreeSet;
use std::rc::Rc;

/// Inclusive-exclusive window overlap.
fn overlaps(f1: Seconds, u1: Seconds, f2: Seconds, u2: Seconds) -> bool {
    f1 < u2 && f2 < u1
}

/// Renders a fault window for messages.
fn window(from: Seconds, until: Seconds) -> String {
    if until.as_secs_f64().is_infinite() {
        format!("from {from} permanently")
    } else {
        format!("in [{from}, {until})")
    }
}

/// The uplink slots of `leaf` that are down at some point of the
/// `[from, until)` window, from every overlapping uplink/spine event.
fn down_slots(
    plan: &FaultPlan,
    graph: &FabricGraph,
    leaf: u32,
    from: Seconds,
    until: Seconds,
) -> BTreeSet<usize> {
    let k = graph.uplinks_per_leaf();
    let mut out = BTreeSet::new();
    for e in plan.events() {
        if !overlaps(from, until, e.from(), e.until()) {
            continue;
        }
        match *e {
            FaultEvent::UplinkDown {
                leaf: l, uplink, ..
            } if l == leaf => {
                out.insert(uplink as usize);
            }
            FaultEvent::SwitchDown { spine, .. } => {
                for slot in 0..k {
                    if graph.spine_of_uplink(slot as u32) == spine {
                        out.insert(slot);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// The switch fabric a plan's uplink and spine windows act on, with
/// every spec's static port route indexed by the uplink crossings it
/// uses.
struct Crossings {
    graph: Rc<FabricGraph>,
    policy: UplinkPolicy,
    /// Spec indices per uplink `(leaf, slot)` at `leaf * k + slot`: the
    /// specs whose port route uses the slot's up or down port on that
    /// leaf, ascending.
    users: Vec<Vec<u32>>,
}

impl Crossings {
    fn new(graph: Rc<FabricGraph>, policy: UplinkPolicy, ports: &[Vec<PortId>]) -> Self {
        let k = graph.uplinks_per_leaf();
        let mut users = vec![Vec::new(); graph.num_switches() * k];
        for (i, route) in ports.iter().enumerate() {
            for &p in route {
                let port = graph.port(p);
                if let (PortKind::UplinkUp | PortKind::UplinkDown, Some(slot)) =
                    (port.kind(), port.uplink())
                {
                    let list = &mut users[port.switch().index() * k + slot as usize];
                    if list.last() != Some(&(i as u32)) {
                        list.push(i as u32);
                    }
                }
            }
        }
        Crossings {
            graph,
            policy,
            users,
        }
    }

    /// The specs crossing uplink `slot` of `leaf` (empty for a target
    /// this fabric does not have).
    fn users(&self, leaf: u32, slot: u32) -> &[u32] {
        let k = self.graph.uplinks_per_leaf();
        if slot as usize >= k {
            return &[];
        }
        self.users
            .get(leaf as usize * k + slot as usize)
            .map_or(&[], Vec::as_slice)
    }
}

/// Statically classifies every window of `plan` against the lowered
/// routes of `(schedule, embedding, topo)` under `opts` (whose network
/// model decides whether uplink/spine events have a fabric to act on).
///
/// The routes are lowered once per call, or read from the preparation
/// cache when the same structure was simulated on this thread; port
/// routes are expanded at most once, only for a plan with uplink or
/// spine windows. Each window then reads the transfers it touches from
/// a per-channel or per-uplink index instead of rescanning every
/// transfer.
///
/// See the module docs for the exact classification rules and the
/// one-directional consistency guarantee with the fault engine.
///
/// # Examples
///
/// ```
/// use ccube_collectives::analyze::LintCode;
/// use ccube_sim::faults::{forever, FaultEvent, FaultPlan};
/// use ccube_sim::{severance, SimOptions};
/// use ccube_collectives::{ring_allreduce, Embedding};
/// use ccube_topology::{hierarchical, ByteSize, ChannelId, Seconds};
///
/// let topo = hierarchical(8);
/// let s = ring_allreduce(8, ByteSize::mib(4));
/// let e = Embedding::nic(&topo, &s).unwrap();
/// // A NIC injection channel down forever: structural, no reroute.
/// let plan = FaultPlan::new(vec![FaultEvent::LinkDown {
///     channel: ChannelId(0),
///     from: Seconds::ZERO,
///     until: forever(),
/// }])
/// .unwrap();
/// let report = severance::analyze_severance(&plan, &topo, &s, &e, &SimOptions::default());
/// assert!(report
///     .diagnostics()
///     .iter()
///     .any(|d| d.code == LintCode::FaultSevered));
/// ```
pub fn analyze_severance(
    plan: &FaultPlan,
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    opts: &SimOptions,
) -> LintReport {
    let mut report = LintReport::default();
    let spec = match &opts.network {
        NetworkModel::SwitchFabric(spec) => Some(spec),
        NetworkModel::ChannelApprox => None,
    };
    let has_link_down = plan
        .events()
        .iter()
        .any(|e| matches!(e, FaultEvent::LinkDown { .. }));
    let has_uplink_down = plan.events().iter().any(|e| {
        matches!(
            e,
            FaultEvent::UplinkDown { .. } | FaultEvent::SwitchDown { .. }
        )
    });
    let timing = opts.link_timing();
    // Port routes matter only to uplink and spine windows on a fabric.
    let want_ports = spec.filter(|_| has_uplink_down);
    let (specs, cached_ports) =
        match crate::prep::peek(topo, schedule, embedding, &timing, want_ports) {
            Some(found) => found,
            None => match lower_schedule(schedule, embedding, topo, &timing) {
                Ok(specs) => (Rc::new(specs), None),
                Err(err) => {
                    push_lower_error(&mut report, err);
                    return report.finish();
                }
            },
        };
    let crossings = want_ports.map(|spec| {
        let graph = crate::prep::fabric_graph_for(topo, spec);
        let ports = cached_ports
            .unwrap_or_else(|| Rc::new(ccube_collectives::lower_to_ports(&specs, &graph)));
        Crossings::new(graph, spec.uplink_policy, &ports)
    });
    let channel_users = if has_link_down {
        crate::faults::channel_users(&specs, topo.channels().len())
    } else {
        Vec::new()
    };

    for e in plan.events() {
        match *e {
            FaultEvent::Degraded { .. } | FaultEvent::Straggler { .. } => {
                // Slows traffic, never blocks it: no severance finding.
            }
            FaultEvent::LinkDown {
                channel,
                from,
                until,
            } => {
                let users = channel_users
                    .get(channel.index())
                    .map_or(&[][..], Vec::as_slice);
                link_down_lints(
                    &mut report,
                    plan,
                    topo,
                    schedule,
                    embedding,
                    &specs,
                    users,
                    channel,
                    from,
                    until,
                );
            }
            FaultEvent::UplinkDown {
                leaf,
                uplink,
                from,
                until,
            } => {
                let Some(fabric) = &crossings else {
                    continue;
                };
                let users = fabric.users(leaf, uplink);
                if users.is_empty() {
                    continue;
                }
                let graph = &*fabric.graph;
                let policy = fabric.policy;
                let k = graph.uplinks_per_leaf();
                let down = down_slots(plan, graph, leaf, from, until);
                let survivors: Vec<usize> = (0..k).filter(|s| !down.contains(s)).collect();
                let adaptive = policy != UplinkPolicy::Hash;
                let span = Span {
                    transfers: users.iter().map(|&i| specs[i as usize].id).collect(),
                    ..Span::default()
                };
                let w = window(from, until);
                if adaptive && !survivors.is_empty() {
                    report.push(
                        LintCode::FaultReroutable,
                        format!(
                            "uplink {uplink} on sw{leaf} down {w}: {} crossings fail over to \
                             surviving slot(s) {survivors:?} under the {} policy",
                            users.len(),
                            policy.label()
                        ),
                        span,
                    );
                } else {
                    let why = if adaptive {
                        "no surviving uplink slot".to_string()
                    } else {
                        format!("hash striping pins them to slot {uplink}")
                    };
                    if until.as_secs_f64().is_infinite() {
                        report.push(
                            LintCode::FaultSevered,
                            format!(
                                "uplink {uplink} on sw{leaf} down {w}: {} crossings are severed \
                                 ({why}); the fault engine drains Unroutable",
                                users.len()
                            ),
                            span,
                        );
                    } else {
                        report.push(
                            LintCode::FaultStall,
                            format!(
                                "uplink {uplink} on sw{leaf} down {w}: {} crossings stall until \
                                 repair ({why})",
                                users.len()
                            ),
                            span,
                        );
                    }
                }
            }
            FaultEvent::SwitchDown { spine, from, until } => {
                let Some(fabric) = &crossings else {
                    continue;
                };
                let graph = &*fabric.graph;
                let policy = fabric.policy;
                let k = graph.uplinks_per_leaf();
                let spine_slots: BTreeSet<usize> = (0..k)
                    .filter(|&s| graph.spine_of_uplink(s as u32) == spine)
                    .collect();
                if spine_slots.is_empty() {
                    continue;
                }
                let leaves = graph.num_switches() as u32;
                let mut is_user = vec![false; specs.len()];
                for leaf in 0..leaves {
                    for &slot in &spine_slots {
                        for &i in fabric.users(leaf, slot as u32) {
                            is_user[i as usize] = true;
                        }
                    }
                }
                let users: Vec<u32> = (0..specs.len() as u32)
                    .filter(|&i| is_user[i as usize])
                    .collect();
                if users.is_empty() {
                    continue;
                }
                // A leaf survives if it keeps at least one slot that is
                // neither on this spine nor downed by an overlapping
                // event. The leaves at stake are every leaf an affected
                // transfer crosses, through any slot.
                let all_survive = (0..leaves)
                    .filter(|&leaf| {
                        (0..k as u32).any(|slot| {
                            fabric
                                .users(leaf, slot)
                                .iter()
                                .any(|&i| is_user[i as usize])
                        })
                    })
                    .all(|leaf| {
                        let down = down_slots(plan, graph, leaf, from, until);
                        (0..k).any(|s| !down.contains(&s))
                    });
                let adaptive = policy != UplinkPolicy::Hash;
                let span = Span {
                    transfers: users.iter().map(|&i| specs[i as usize].id).collect(),
                    ..Span::default()
                };
                let w = window(from, until);
                if adaptive && all_survive {
                    report.push(
                        LintCode::FaultReroutable,
                        format!(
                            "spine {spine} down {w}: {} crossings fail over off slot(s) \
                             {spine_slots:?} under the {} policy",
                            users.len(),
                            policy.label()
                        ),
                        span,
                    );
                } else {
                    let why = if adaptive {
                        "a leaf loses every uplink slot".to_string()
                    } else {
                        "hash striping cannot leave the downed spine".to_string()
                    };
                    if until.as_secs_f64().is_infinite() {
                        report.push(
                            LintCode::FaultSevered,
                            format!(
                                "spine {spine} down {w}: {} crossings are severed ({why}); \
                                 the fault engine drains Unroutable",
                                users.len()
                            ),
                            span,
                        );
                    } else {
                        report.push(
                            LintCode::FaultStall,
                            format!(
                                "spine {spine} down {w}: {} crossings stall until repair ({why})",
                                users.len()
                            ),
                            span,
                        );
                    }
                }
            }
        }
    }
    report.finish()
}

/// The finding for a schedule that does not lower.
fn push_lower_error(report: &mut LintReport, err: LowerError) {
    match err {
        LowerError::MissingRoute(edge) => report.push(
            LintCode::MissingRoute,
            format!("embedding has no route for logical edge {edge}"),
            Span {
                edges: vec![edge],
                ..Span::default()
            },
        ),
        LowerError::UnknownChannel {
            edge,
            channel_index,
        } => report.push(
            LintCode::InvalidRoute,
            format!("route for {edge} references unknown channel index {channel_index}"),
            Span {
                edges: vec![edge],
                ..Span::default()
            },
        ),
    }
}

/// Classifies one `LinkDown` window: mirrors the engine's
/// `reroute_pass` (structural NIC paths wait; everything else asks a
/// [`Router`] with every concurrently-down channel blocked).
#[allow(clippy::too_many_arguments)]
fn link_down_lints(
    report: &mut LintReport,
    plan: &FaultPlan,
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    specs: &[TransferSpec],
    users: &[u32],
    channel: ChannelId,
    from: Seconds,
    until: Seconds,
) {
    if users.is_empty() {
        return;
    }
    let mut router = Router::new(topo);
    for e in plan.events() {
        if let FaultEvent::LinkDown { channel: c, .. } = *e {
            if overlaps(from, until, e.from(), e.until()) {
                router.block_channel(c);
            }
        }
    }
    let transfers = schedule.transfers();
    let mut stuck: Vec<usize> = Vec::new();
    let mut structural = 0usize;
    for &i in users {
        let i = i as usize;
        if specs[i]
            .path
            .iter()
            .any(|&c| topo.channel(c).class() == ChannelClass::Nic)
        {
            structural += 1;
            stuck.push(i);
            continue;
        }
        let src = embedding.gpu_of(transfers[i].src);
        let dst = embedding.gpu_of(transfers[i].dst);
        if router.route(src, dst).is_err() {
            stuck.push(i);
        }
    }
    let w = window(from, until);
    if stuck.is_empty() {
        report.push(
            LintCode::FaultReroutable,
            format!(
                "{channel} down {w}: all {} transfers on it re-route over surviving paths",
                users.len()
            ),
            Span {
                transfers: users.iter().map(|&i| specs[i as usize].id).collect(),
                channels: vec![channel],
                ..Span::default()
            },
        );
        return;
    }
    let why = if structural > 0 {
        format!("{structural} on structural NIC paths that are never re-routed")
    } else {
        "no surviving route while concurrent outages last".to_string()
    };
    let span = Span {
        transfers: stuck.iter().map(|&i| specs[i].id).collect(),
        channels: vec![channel],
        ..Span::default()
    };
    if until.as_secs_f64().is_infinite() {
        report.push(
            LintCode::FaultSevered,
            format!(
                "{channel} down {w}: {} of {} transfers are severed ({why}); \
                 the fault engine drains Unroutable",
                stuck.len(),
                users.len()
            ),
            span,
        );
    } else {
        report.push(
            LintCode::FaultStall,
            format!(
                "{channel} down {w}: {} of {} transfers stall until repair ({why})",
                stuck.len(),
                users.len()
            ),
            span,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{FabricSpec, HopMode};
    use crate::faults::forever;
    use ccube_collectives::ring_allreduce;
    use ccube_topology::{dgx1, hierarchical, ByteSize};

    fn hier8() -> (Topology, Schedule, Embedding) {
        let topo = hierarchical(8);
        let s = ring_allreduce(8, ByteSize::mib(4));
        let e = Embedding::nic(&topo, &s).unwrap();
        (topo, s, e)
    }

    #[test]
    fn permanent_nic_down_is_severed() {
        let (topo, s, e) = hier8();
        let plan = FaultPlan::new(vec![FaultEvent::LinkDown {
            channel: ChannelId(0),
            from: Seconds::ZERO,
            until: forever(),
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &s, &e, &SimOptions::default());
        assert!(!report.is_clean());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::FaultSevered));
    }

    #[test]
    fn finite_nic_down_stalls() {
        let (topo, s, e) = hier8();
        let plan = FaultPlan::new(vec![FaultEvent::LinkDown {
            channel: ChannelId(0),
            from: Seconds::from_micros(10.0),
            until: Seconds::from_micros(500.0),
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &s, &e, &SimOptions::default());
        assert!(report.is_clean());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::FaultStall));
    }

    #[test]
    fn dgx1_nvlink_down_reroutes() {
        let topo = dgx1();
        let s = ring_allreduce(8, ByteSize::mib(4));
        let e = Embedding::identity(&topo, &s).unwrap();
        // An NVLink used by the ring, down forever: the router finds a
        // surviving path (path diversity is the DGX-1's whole point).
        let opts = SimOptions::default();
        let specs = lower_schedule(&s, &e, &topo, &opts.link_timing()).unwrap();
        let used = specs
            .iter()
            .flat_map(|t| t.path.iter().copied())
            .find(|&c| topo.channel(c).class() == ChannelClass::NvLink)
            .unwrap();
        let plan = FaultPlan::new(vec![FaultEvent::LinkDown {
            channel: used,
            from: Seconds::ZERO,
            until: forever(),
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &s, &e, &SimOptions::default());
        assert!(report.is_clean(), "{report}");
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::FaultReroutable));
    }

    #[test]
    fn degraded_windows_are_quiet() {
        let (topo, s, e) = hier8();
        let plan = FaultPlan::new(vec![FaultEvent::Degraded {
            channel: ChannelId(0),
            from: Seconds::ZERO,
            until: forever(),
            rate: 0.25,
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &s, &e, &SimOptions::default());
        assert!(report.diagnostics().is_empty());
    }

    fn fabric_opts(uplinks: usize, policy: UplinkPolicy) -> SimOptions {
        SimOptions::default().with_network(NetworkModel::SwitchFabric(FabricSpec {
            radix: Some(4),
            uplinks,
            spines: uplinks,
            uplink_policy: policy,
            hop_mode: HopMode::CutThrough,
            ..FabricSpec::passthrough()
        }))
    }

    #[test]
    fn single_uplink_permanent_outage_is_severed() {
        let (topo, s, e) = hier8();
        let plan = FaultPlan::new(vec![FaultEvent::UplinkDown {
            leaf: 0,
            uplink: 0,
            from: Seconds::ZERO,
            until: forever(),
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &s, &e, &fabric_opts(1, UplinkPolicy::Hash));
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::FaultSevered));
    }

    #[test]
    fn failover_policy_survives_one_slot_outage() {
        let (topo, s, e) = hier8();
        // Hash striping may leave one slot idle, so down each slot in
        // turn: whichever carries traffic must fail over cleanly.
        let mut rerouted = 0;
        for slot in 0..2u32 {
            let plan = FaultPlan::new(vec![FaultEvent::UplinkDown {
                leaf: 0,
                uplink: slot,
                from: Seconds::ZERO,
                until: forever(),
            }])
            .unwrap();
            let report = analyze_severance(
                &plan,
                &topo,
                &s,
                &e,
                &fabric_opts(2, UplinkPolicy::Failover),
            );
            assert!(report.is_clean(), "{report}");
            rerouted += report
                .diagnostics()
                .iter()
                .filter(|d| d.code == LintCode::FaultReroutable)
                .count();
        }
        assert!(rerouted >= 1);
    }

    #[test]
    fn cached_routes_classify_exactly_like_a_cold_lowering() {
        // Test threads start with an empty preparation cache, so the
        // first two reports lower cold.
        let topo = hierarchical(16);
        let c1 = |mib| {
            let dt = ccube_collectives::DoubleBinaryTree::new(16).unwrap();
            ccube_collectives::tree_allreduce(
                dt.trees(),
                &ccube_collectives::Chunking::even(ByteSize::mib(mib), 8),
                ccube_collectives::Overlap::ReductionBroadcast,
            )
        };
        let (s1, s2) = (c1(4), c1(16));
        let e = Embedding::nic(&topo, &s1).unwrap();
        let opts = fabric_opts(2, UplinkPolicy::Failover);
        let mut events: Vec<FaultEvent> = (0..4)
            .map(|leaf| FaultEvent::UplinkDown {
                leaf,
                uplink: leaf % 2,
                from: Seconds::from_micros(20.0 * f64::from(leaf)),
                until: Seconds::from_micros(300.0),
            })
            .collect();
        events.push(FaultEvent::SwitchDown {
            spine: 1,
            from: Seconds::from_micros(100.0),
            until: forever(),
        });
        events.push(FaultEvent::LinkDown {
            channel: ChannelId(3),
            from: Seconds::ZERO,
            until: Seconds::from_micros(50.0),
        });
        let plan = FaultPlan::new(events).unwrap();
        let cold1 = analyze_severance(&plan, &topo, &s1, &e, &opts).to_json();
        let cold2 = analyze_severance(&plan, &topo, &s2, &e, &opts).to_json();
        assert!(
            cold1.contains("CC021") && cold1.contains("CC023"),
            "{cold1}"
        );
        crate::simulate_faulted(&topo, &s1, &e, &opts, &FaultPlan::empty()).unwrap();
        let (entries, stats) = (crate::prep_cache_len(), crate::prep_cache_stats());
        assert_eq!(entries, 1, "the run cached its structure");
        // Same payload: the cached specs and port routes; another
        // payload: the cached routes rescaled, never stored.
        assert_eq!(
            analyze_severance(&plan, &topo, &s1, &e, &opts).to_json(),
            cold1
        );
        assert_eq!(
            analyze_severance(&plan, &topo, &s2, &e, &opts).to_json(),
            cold2
        );
        assert_eq!(crate::prep_cache_len(), entries);
        assert_eq!(crate::prep_cache_stats(), stats);
    }

    #[test]
    fn a_schedule_without_routes_gets_a_diagnostic_not_a_panic() {
        let (topo, ring, e) = hier8();
        // The ring's embedding has no route for the tree's edges.
        let dt = ccube_collectives::DoubleBinaryTree::new(8).unwrap();
        let tree = ccube_collectives::tree_allreduce(
            dt.trees(),
            &ccube_collectives::Chunking::even(ByteSize::mib(4), 4),
            ccube_collectives::Overlap::ReductionBroadcast,
        );
        crate::simulate(&topo, &ring, &e, &SimOptions::default()).unwrap();
        let plan = FaultPlan::new(vec![FaultEvent::LinkDown {
            channel: ChannelId(0),
            from: Seconds::ZERO,
            until: forever(),
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &tree, &e, &SimOptions::default());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::MissingRoute));
    }

    #[test]
    fn hash_policy_stalls_on_finite_uplink_outage() {
        let (topo, s, e) = hier8();
        let plan = FaultPlan::new(vec![FaultEvent::UplinkDown {
            leaf: 0,
            uplink: 0,
            from: Seconds::ZERO,
            until: Seconds::from_millis(2.0),
        }])
        .unwrap();
        let report = analyze_severance(&plan, &topo, &s, &e, &fabric_opts(2, UplinkPolicy::Hash));
        // Leaf 0's cross traffic stripes somewhere; if slot 0 carries
        // any of it, it stalls (never severed: the window is finite).
        assert!(report
            .diagnostics()
            .iter()
            .all(|d| d.code != LintCode::FaultSevered));
    }
}
