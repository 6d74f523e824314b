//! The switch-fabric network model.
//!
//! The channel approximation treats the scale-out interconnect as plain
//! exclusive channels — an ideal, non-blocking switch. A
//! [`NetworkModel`] selects between that approximation
//! ([`NetworkModel::ChannelApprox`], the default) and
//! [`NetworkModel::SwitchFabric`], under which the scheduler's network
//! layer runs transfers on the ports of the [`FabricGraph`] derived from
//! the topology: per-port queues under the same FIFO / chunk-priority
//! arbitration, configurable leaf radix, uplink oversubscription and
//! spine/leaf uplink slots, and per-hop cut-through or store-and-forward
//! latency.
//!
//! **Equivalence contract**: under a passthrough fabric (no leaf split,
//! zero uplink latency, [`HopMode::CutThrough`]) every channel maps to
//! exactly one port with the channel's own bandwidth and latency, so the
//! scheduler performs the same pool operations in the same kernel order
//! as under the channel approximation and the results agree with it.

use crate::resource::ChannelPool;
use ccube_topology::{ChannelId, FabricConfig, FabricGraph, PortId, PortKind, Seconds};

/// Per-hop latency accounting of the switch fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HopMode {
    /// Cut-through switching: a transfer occupies its whole port path at
    /// once (wormhole, like the channel approximation) and pays the sum
    /// of port latencies plus one serialization at the bottleneck port.
    #[default]
    CutThrough,
    /// Store-and-forward switching: each port is held in sequence for a
    /// full per-hop serialization (`port latency + bytes / port
    /// bandwidth`), so a message crossing `h` ports pays `h`
    /// serializations — but releases each port as soon as its hop is
    /// done, letting fan-in traffic interleave hop by hop.
    StoreForward,
}

/// How a transfer's uplink slot is (re)chosen when a leaf has more than
/// one uplink toward the spines.
///
/// The static default baked into cached port routes is hash striping by
/// source node ([`FabricGraph::port_route`]); the adaptive policies
/// revise that choice per transfer at grant time from the live per-port
/// state. Adaptive revision applies under [`HopMode::CutThrough`] (where
/// a transfer owns its whole port path and the up/down pair can move
/// jointly); store-and-forward hops keep the static striping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UplinkPolicy {
    /// Keep the static hash-striped slot. Zero adaptivity: a downed
    /// uplink stalls its striped traffic until repair. With one uplink
    /// per leaf every policy degenerates to this.
    #[default]
    Hash,
    /// Score every surviving slot by live occupancy plus waiter-queue
    /// depth of its up/down pair and move on strict improvement
    /// (smallest slot wins ties).
    LeastQueued,
    /// Keep the assigned slot while it is alive; when a fault downs it,
    /// move to the first surviving slot (scanning upward, wrapping).
    Failover,
}

impl UplinkPolicy {
    /// Stable lowercase label (CSV columns, CLI round-trip).
    pub fn label(&self) -> &'static str {
        match self {
            UplinkPolicy::Hash => "hash",
            UplinkPolicy::LeastQueued => "least-queued",
            UplinkPolicy::Failover => "failover",
        }
    }
}

/// Configuration of the [`NetworkModel::SwitchFabric`] model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricSpec {
    /// Endpoints per leaf switch (`None`: all nodes on one leaf — the
    /// passthrough shape).
    pub radix: Option<usize>,
    /// Uplink oversubscription ratio (see
    /// [`FabricConfig::oversubscription`]).
    pub oversubscription: f64,
    /// Extra fixed latency per uplink port traversal.
    pub uplink_latency: Seconds,
    /// Per-hop latency accounting.
    pub hop_mode: HopMode,
    /// Number of spine switches behind the leaves (uplink slot `j`
    /// attaches to spine `j % spines`).
    pub spines: usize,
    /// Uplink up/down pairs per leaf. The leaf's aggregate uplink
    /// capacity is split evenly across them, so `1` reproduces the
    /// single-uplink fabric exactly.
    pub uplinks: usize,
    /// How transfers are steered across the uplink slots.
    pub uplink_policy: UplinkPolicy,
}

impl Default for FabricSpec {
    fn default() -> Self {
        FabricSpec {
            radix: None,
            oversubscription: 1.0,
            uplink_latency: Seconds::ZERO,
            hop_mode: HopMode::CutThrough,
            spines: 1,
            uplinks: 1,
            uplink_policy: UplinkPolicy::Hash,
        }
    }
}

impl FabricSpec {
    /// The passthrough configuration, under which the fabric must
    /// reproduce the channel approximation (the equivalence contract).
    pub fn passthrough() -> Self {
        FabricSpec::default()
    }

    /// The topology-side derivation config.
    pub(crate) fn fabric_config(&self) -> FabricConfig {
        FabricConfig {
            radix: self.radix,
            oversubscription: self.oversubscription,
            uplink_latency: self.uplink_latency,
            spines: self.spines,
            uplinks_per_leaf: self.uplinks,
        }
    }
}

/// Which network model an engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum NetworkModel {
    /// The historical NIC-channel approximation: channels are ideal,
    /// exclusive resources; the switch between them is non-blocking and
    /// invisible. Default — bit-identical to the pre-refactor engines.
    #[default]
    ChannelApprox,
    /// The explicit switch fabric: transfers are scheduled on the ports
    /// of the derived [`FabricGraph`], with per-port queues and uplink
    /// contention.
    SwitchFabric(FabricSpec),
}

/// The uplink slot of a spine crossing at `(up, down)`: an uplink-up
/// port followed by the uplink-down port of the same slot, the pair
/// [`choose_uplinks`] rescores.
fn crossing_slot(graph: &FabricGraph, up: ChannelId, down: ChannelId) -> Option<usize> {
    let (up, down) = (graph.port(PortId(up.0)), graph.port(PortId(down.0)));
    match (up.kind(), down.kind(), up.uplink(), down.uplink()) {
        (PortKind::UplinkUp, PortKind::UplinkDown, Some(a), Some(b)) if a == b => Some(a as usize),
        _ => None,
    }
}

/// Whether a port path (as pool resource indices) holds a spine
/// crossing; [`choose_uplinks`] returns `None` for every path that does
/// not.
pub(crate) fn has_crossing(graph: &FabricGraph, path: &[ChannelId]) -> bool {
    path.windows(2)
        .any(|w| crossing_slot(graph, w[0], w[1]).is_some())
}

/// Revises the uplink slots of an expanded port path (given as pool
/// resource indices) under `policy`, from the pool's live down/free/
/// queue-depth state. Each adjacent `(uplink-up, uplink-down)` pair is
/// rescored independently; both legs move jointly so the route stays on
/// one spine. Slot substitution never changes a cut-through duration —
/// the slots of a leaf are homogeneous by construction — so callers can
/// keep their cached timings. Returns the revised path and the first
/// revised uplink-up port, or `None` if every crossing keeps its slot
/// (including when no surviving slot exists: exhausted diversity
/// degrades to stall-until-repair, never to an invalid route).
pub(crate) fn choose_uplinks(
    graph: &FabricGraph,
    pool: &ChannelPool,
    path: &[ChannelId],
    policy: UplinkPolicy,
) -> Option<(Vec<ChannelId>, ChannelId)> {
    if policy == UplinkPolicy::Hash {
        return None;
    }
    let mut out: Option<Vec<ChannelId>> = None;
    let mut moved_to: Option<ChannelId> = None;
    let mut i = 0;
    while i + 1 < path.len() {
        let Some(cur) = crossing_slot(graph, path[i], path[i + 1]) else {
            i += 1;
            continue;
        };
        let up = graph.port(PortId(path[i].0));
        let down = graph.port(PortId(path[i + 1].0));
        let ups = graph.uplinks_up(up.switch());
        let downs = graph.uplinks_down(down.switch());
        let k = ups.len().min(downs.len());
        let alive = |s: usize| {
            !pool.is_link_down(ChannelId(ups[s].0)) && !pool.is_link_down(ChannelId(downs[s].0))
        };
        let chosen = match policy {
            UplinkPolicy::Hash => cur,
            UplinkPolicy::Failover => {
                if alive(cur) {
                    cur
                } else {
                    (1..k)
                        .map(|d| (cur + d) % k)
                        .find(|&s| alive(s))
                        .unwrap_or(cur)
                }
            }
            UplinkPolicy::LeastQueued => {
                let score = |s: usize| {
                    let u = ChannelId(ups[s].0);
                    let d = ChannelId(downs[s].0);
                    pool.waiting_on(u)
                        + pool.waiting_on(d)
                        + usize::from(!pool.is_free(u))
                        + usize::from(!pool.is_free(d))
                };
                let best = (0..k).filter(|&s| alive(s)).min_by_key(|&s| (score(s), s));
                match best {
                    Some(b) if !alive(cur) || score(b) < score(cur) => b,
                    _ => cur,
                }
            }
        };
        if chosen != cur {
            let revised = out.get_or_insert_with(|| path.to_vec());
            revised[i] = ChannelId(ups[chosen].0);
            revised[i + 1] = ChannelId(downs[chosen].0);
            if moved_to.is_none() {
                moved_to = Some(ChannelId(ups[chosen].0));
            }
        }
        i += 2;
    }
    out.map(|p| (p, moved_to.expect("a revised path has a revised slot")))
}
