//! Sweep-wide preparation cache.
//!
//! Every figure of the paper is a sweep whose adjacent points share the
//! same topology, schedule structure, embedding, and fabric, differing
//! only in payload size or a timing knob — yet each `simulate*` call
//! historically re-resolved every route ([`lower_schedule`]), re-ran the
//! debug analyzer gate, and re-expanded port paths from scratch. This
//! module caches that preparation work: a `SimPrepared` artifact
//! (resolved routes with timing coefficients, the analyzer-gate verdict,
//! and the port-path expansion per fabric) keyed by the *structure* of
//! `(topology, schedule, embedding)` — everything the lowering and the
//! gate read **except** payload sizes and [`LinkTiming`], which are
//! rescaled per point via [`PreparedLowering::lower`].
//!
//! # Determinism and equivalence contract
//!
//! * The cache is **thread-local**: each sweep worker builds its own,
//!   so worker count and work-stealing order can never change what any
//!   point computes. The sweep executor merges only the hit/miss
//!   *counters* back to the caller (numbers never flow through them).
//! * A cache hit is bit-identical to a cold run: the key covers every
//!   input the lowering and the structural gate read, and
//!   [`PreparedLowering`] replays the float operations of
//!   [`lower_schedule`] in the same order. The golden-figure suites run
//!   with the cache enabled; `--no-prep-cache` must reproduce them.
//! * The internal `HashMap` is keyed by fingerprint and only ever
//!   probed by key — nothing iterates it, so its nondeterministic
//!   iteration order cannot leak into results (audited in
//!   `scripts/determinism_allowlist.txt`).
//!
//! The global [`set_prep_cache_enabled`] switch (the CLI's
//! `--no-prep-cache`) short-circuits every lookup to the cold path.

use crate::fabric::FabricSpec;
use ccube_collectives::{
    lower_schedule, EdgeKey, Embedding, LinkTiming, LowerError, PreparedLowering, Rank, Schedule,
    TransferSpec,
};
use ccube_topology::{FabricGraph, PortId, Topology};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

/// Global cache switch (default on). Per-run results are identical
/// either way; this exists as the `--no-prep-cache` escape hatch and for
/// cold-vs-warm benchmarking.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables the preparation cache process-wide.
///
/// Results are bit-identical either way — disabling only forces every
/// `simulate*` call back onto the cold `lower_schedule` + analyzer-gate
/// path (the CLI exposes this as `--no-prep-cache`).
pub fn set_prep_cache_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the preparation cache is currently enabled.
pub fn prep_cache_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Hit/miss counters of the preparation cache.
///
/// `hits` counts `simulate*` preparations served from a cached
/// `SimPrepared`; `misses` counts cold preparations (route resolution
/// plus, in debug builds, the analyzer gate). After a parallel sweep the
/// workers' counters are merged into the calling thread's, so the totals
/// are worker-count-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrepCacheStats {
    /// Preparations served from the cache.
    pub hits: u64,
    /// Cold preparations (first sight of a structure).
    pub misses: u64,
}

impl PrepCacheStats {
    fn absorb(&mut self, other: PrepCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Each transfer's port path over one fabric, shared.
type PortRoutes = Rc<Vec<Vec<PortId>>>;

/// The cached preparation artifact for one `(topology, schedule
/// structure, embedding)` key: the resolved lowering, the most recent
/// payload/timing rescale, and the port-path expansion per fabric.
///
/// The analyzer-gate verdict is implicit: in debug builds the gate runs
/// on every miss and panics on a dirty input, so an entry's existence
/// *is* the cached "gate clean" verdict.
struct SimPrepared {
    lowering: Rc<PreparedLowering>,
    /// Most recent `(payload+timing fingerprint, lowered specs)` —
    /// points that repeat exactly (policy-search fitness calls, repeated
    /// figure evaluations) share the specs with zero re-lowering.
    specs: Option<(u128, Rc<Vec<TransferSpec>>)>,
    /// Most recent `(fabric fingerprint, port-path expansion)`.
    ports: Option<(u128, PortRoutes)>,
}

#[derive(Default)]
struct PrepCache {
    map: HashMap<u128, SimPrepared>,
    /// Fabric graphs keyed by `(topology, fabric spec)` — independent of
    /// any schedule, so switch-fabric sweeps rebuild the port graph once
    /// per topology instead of once per point.
    graphs: HashMap<u128, Rc<FabricGraph>>,
    stats: PrepCacheStats,
}

thread_local! {
    static CACHE: RefCell<PrepCache> = RefCell::new(PrepCache::default());
}

/// The calling thread's cache counters (cumulative since the last
/// [`reset_prep_cache`]). After a parallel sweep the workers' counters
/// have been merged in, so this is the whole sweep's tally.
pub fn prep_cache_stats() -> PrepCacheStats {
    CACHE.with(|c| c.borrow().stats)
}

/// Drops every cached entry and zeroes the counters on the calling
/// thread. Benchmarks use this to measure cold starts.
pub fn reset_prep_cache() {
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        c.map.clear();
        c.graphs.clear();
        c.stats = PrepCacheStats::default();
    });
}

/// Number of prepared structures currently cached on this thread.
pub fn prep_cache_len() -> usize {
    CACHE.with(|c| c.borrow().map.len())
}

/// Merges a finished sweep worker's counters into the calling thread's
/// tally (used by the sweep executor; entries themselves stay
/// worker-local and die with the worker).
pub(crate) fn absorb_stats(stats: PrepCacheStats) {
    if stats != PrepCacheStats::default() {
        CACHE.with(|c| c.borrow_mut().stats.absorb(stats));
    }
}

/// Snapshots and zeroes the calling thread's counters (a sweep worker
/// calls this at the end of its run so the executor can
/// [`absorb_stats`] them on the coordinating thread).
pub(crate) fn take_stats() -> PrepCacheStats {
    CACHE.with(|c| std::mem::take(&mut c.borrow_mut().stats))
}

// ---------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------

/// A 128-bit streaming fingerprint (two independent multiply-xor
/// accumulators with a splitmix finisher). Not cryptographic — it keys a
/// cache whose end-to-end outputs are golden-tested, and 128 bits make
/// accidental collisions astronomically unlikely (~10⁻³⁰ for the
/// thousands of distinct structures a run sees).
struct Fp {
    a: u64,
    b: u64,
}

impl Fp {
    fn new() -> Self {
        Fp {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn push(&mut self, v: u64) {
        self.a = (self.a ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        self.b = (self.b ^ v.rotate_left(32)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    }

    fn finish(self) -> u128 {
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (u128::from(mix(self.a)) << 64) | u128::from(mix(self.b))
    }
}

/// Everything of the topology the lowering and the gate read: GPU
/// count and, per channel, endpoints, latency, and bandwidth.
fn fp_topology(h: &mut Fp, topo: &Topology) {
    h.push(topo.num_gpus() as u64);
    h.push(topo.channels().len() as u64);
    for ch in topo.channels() {
        h.push(u64::from(ch.src().0));
        h.push(u64::from(ch.dst().0));
        h.push(ch.latency().as_secs_f64().to_bits());
        h.push(ch.bandwidth().as_bytes_per_sec().to_bits());
    }
}

/// The schedule's *structure*: every transfer field the lowering or the
/// structural gate reads, **except** payload bytes (the rescalable
/// dimension — see [`fp_payload_timing`]).
fn fp_schedule_structure(h: &mut Fp, schedule: &Schedule) {
    h.push(schedule.num_ranks() as u64);
    h.push(schedule.chunking().num_chunks() as u64);
    h.push(schedule.transfers().len() as u64);
    for t in schedule.transfers() {
        h.push(u64::from(t.src.0));
        h.push(u64::from(t.dst.0));
        h.push(u64::from(t.chunk.0));
        h.push(u64::from(t.tree.0));
        h.push(t.deps.len() as u64);
        for d in &t.deps {
            h.push(u64::from(d.0));
        }
    }
}

/// The embedding as the schedule actually uses it: the rank→GPU map and
/// each transfer's route (endpoints, channels, via), visited in transfer
/// order — deterministic, and it never touches the embedding's internal
/// `HashMap` iteration order.
fn fp_embedding(h: &mut Fp, schedule: &Schedule, embedding: &Embedding) {
    for r in 0..schedule.num_ranks() {
        h.push(u64::from(embedding.gpu_of(Rank(r as u32)).0));
    }
    for t in schedule.transfers() {
        let key = EdgeKey {
            src: t.src,
            dst: t.dst,
            tree: t.tree,
        };
        match embedding.route(&key) {
            None => h.push(u64::MAX),
            Some(route) => {
                h.push(u64::from(route.src().0));
                h.push(u64::from(route.dst().0));
                h.push(route.via().map_or(u64::MAX - 1, |g| u64::from(g.0)));
                h.push(route.channels().len() as u64);
                for c in route.channels() {
                    h.push(u64::from(c.0));
                }
            }
        }
    }
}

fn structural_key(topo: &Topology, schedule: &Schedule, embedding: &Embedding) -> u128 {
    let mut h = Fp::new();
    fp_topology(&mut h, topo);
    fp_schedule_structure(&mut h, schedule);
    fp_embedding(&mut h, schedule, embedding);
    h.finish()
}

/// The per-point rescale dimensions: payload bytes per transfer plus the
/// [`LinkTiming`] knobs.
fn fp_payload_timing(schedule: &Schedule, timing: &LinkTiming) -> u128 {
    let mut h = Fp::new();
    h.push(timing.bandwidth_scale.to_bits());
    h.push(timing.forwarding_latency.as_secs_f64().to_bits());
    for t in schedule.transfers() {
        h.push(t.bytes.as_u64());
    }
    h.finish()
}

fn fp_fabric(spec: &FabricSpec) -> u128 {
    let mut h = Fp::new();
    h.push(spec.radix.map_or(u64::MAX, |r| r as u64));
    h.push(spec.oversubscription.to_bits());
    h.push(spec.uplink_latency.as_secs_f64().to_bits());
    h.push(match spec.hop_mode {
        crate::fabric::HopMode::CutThrough => 0,
        crate::fabric::HopMode::StoreForward => 1,
    });
    // The spine shape changes both the derived graph and the cached port
    // paths; the policy changes neither but keeps distinct sweep points
    // from sharing a fingerprint in stats.
    h.push(spec.spines as u64);
    h.push(spec.uplinks as u64);
    h.push(match spec.uplink_policy {
        crate::fabric::UplinkPolicy::Hash => 0,
        crate::fabric::UplinkPolicy::LeastQueued => 1,
        crate::fabric::UplinkPolicy::Failover => 2,
    });
    h.finish()
}

// ---------------------------------------------------------------------
// Engine entry points
// ---------------------------------------------------------------------

/// A prepared lowering handed to the scheduler: the specs plus the cache key
/// they were found under (None when the cache is disabled), so follow-up
/// lookups (port paths) skip re-fingerprinting.
pub(crate) struct Prep {
    key: Option<u128>,
    /// Lowered transfer specs for the requested `(payload, timing)`
    /// point. Shared: the fault layer clones them only when a reroute
    /// edits one.
    pub specs: Rc<Vec<TransferSpec>>,
}

/// Runs the structural analyzer gate (debug builds, cold path only) and
/// lowers `schedule`, through the preparation cache when enabled.
///
/// Cold path semantics are exactly the historical engines': the gate
/// debug-panics on a dirty schedule/embedding, then [`lower_schedule`]
/// resolves the routes. A cache hit skips both — the entry's existence
/// proves the gate passed, and [`PreparedLowering::lower`] rescales the
/// cached routes bit-identically.
///
/// # Errors
///
/// The errors of [`lower_schedule`] (missing route, unknown channel).
pub(crate) fn gate_and_lower(
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    timing: &LinkTiming,
) -> Result<Prep, LowerError> {
    if !prep_cache_enabled() {
        run_gate(topo, schedule, embedding);
        return Ok(Prep {
            key: None,
            specs: Rc::new(lower_schedule(schedule, embedding, topo, timing)?),
        });
    }
    let key = structural_key(topo, schedule, embedding);
    let point_fp = fp_payload_timing(schedule, timing);
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if c.map.contains_key(&key) {
            c.stats.hits += 1;
            let entry = c.map.get_mut(&key).expect("entry present");
            if let Some((fp, specs)) = &entry.specs {
                if *fp == point_fp {
                    return Ok(Prep {
                        key: Some(key),
                        specs: Rc::clone(specs),
                    });
                }
            }
            let specs = Rc::new(entry.lowering.lower(schedule, timing));
            entry.specs = Some((point_fp, Rc::clone(&specs)));
            return Ok(Prep {
                key: Some(key),
                specs,
            });
        }
        // Cold path: gate (debug), resolve routes, insert.
        run_gate(topo, schedule, embedding);
        let lowering = Rc::new(PreparedLowering::new(schedule, embedding, topo)?);
        let specs = Rc::new(lowering.lower(schedule, timing));
        c.stats.misses += 1;
        c.map.insert(
            key,
            SimPrepared {
                lowering,
                specs: Some((point_fp, Rc::clone(&specs))),
                ports: None,
            },
        );
        Ok(Prep {
            key: Some(key),
            specs,
        })
    })
}

/// The structural gate every engine debug-asserts on (no-op in release
/// builds, exactly as before the cache existed).
fn run_gate(topo: &Topology, schedule: &Schedule, embedding: &Embedding) {
    let _ = (topo, schedule, embedding);
    #[cfg(debug_assertions)]
    {
        let lint = ccube_collectives::analyze::gate(schedule, embedding, topo);
        debug_assert!(
            lint.is_clean(),
            "schedule/embedding failed the static gate:\n{lint}"
        );
    }
}

/// The port-path expansion of `prep`'s specs over `graph`, cached per
/// fabric spec when the cache holds `prep`'s entry.
pub(crate) fn ports_for(prep: &Prep, spec: &FabricSpec, graph: &FabricGraph) -> PortRoutes {
    let Some(key) = prep.key else {
        return Rc::new(ccube_collectives::lower_to_ports(&prep.specs, graph));
    };
    let fabric_fp = fp_fabric(spec);
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        let Some(entry) = c.map.get_mut(&key) else {
            return Rc::new(ccube_collectives::lower_to_ports(&prep.specs, graph));
        };
        if let Some((fp, ports)) = &entry.ports {
            if *fp == fabric_fp {
                return Rc::clone(ports);
            }
        }
        let ports = Rc::new(ccube_collectives::lower_to_ports(&prep.specs, graph));
        entry.ports = Some((fabric_fp, Rc::clone(&ports)));
        ports
    })
}

/// The lowered specs of `(topo, schedule, embedding)` at `timing`, and
/// their port paths over `fabric` when that expansion is cached too,
/// read from an existing cache entry. `None` when the cache is off or
/// holds no entry for this structure. Unlike [`gate_and_lower`] this
/// never inserts, never runs the structural gate and counts neither a
/// hit nor a miss; a point whose payload differs from the entry's most
/// recent one is rescaled without being stored.
pub(crate) fn peek(
    topo: &Topology,
    schedule: &Schedule,
    embedding: &Embedding,
    timing: &LinkTiming,
    fabric: Option<&FabricSpec>,
) -> Option<(Rc<Vec<TransferSpec>>, Option<PortRoutes>)> {
    if !prep_cache_enabled() {
        return None;
    }
    let key = structural_key(topo, schedule, embedding);
    CACHE.with(|c| {
        let c = c.borrow();
        let entry = c.map.get(&key)?;
        let point_fp = fp_payload_timing(schedule, timing);
        let specs = match &entry.specs {
            Some((fp, specs)) if *fp == point_fp => Rc::clone(specs),
            _ => Rc::new(entry.lowering.lower(schedule, timing)),
        };
        let ports = fabric.and_then(|spec| match &entry.ports {
            Some((fp, ports)) if *fp == fp_fabric(spec) => Some(Rc::clone(ports)),
            _ => None,
        });
        Some((specs, ports))
    })
}

/// The fabric graph for `(topo, spec)`, cached per topology so
/// switch-fabric sweeps build the port graph once instead of per point.
pub(crate) fn fabric_graph_for(topo: &Topology, spec: &FabricSpec) -> Rc<FabricGraph> {
    let build = || Rc::new(FabricGraph::from_topology(topo, &spec.fabric_config()));
    if !prep_cache_enabled() {
        return build();
    }
    let mut h = Fp::new();
    fp_topology(&mut h, topo);
    let key = h.finish() ^ fp_fabric(spec);
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if let Some(g) = c.graphs.get(&key) {
            return Rc::clone(g);
        }
        let g = build();
        c.graphs.insert(key, Rc::clone(&g));
        g
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_collectives::{ring_allreduce, Embedding};
    use ccube_topology::{dgx1, ByteSize};

    #[test]
    fn fingerprint_ignores_payload_but_not_structure() {
        let topo = dgx1();
        let a = ring_allreduce(8, ByteSize::mib(1));
        let b = ring_allreduce(8, ByteSize::mib(64));
        let c = ring_allreduce(8, ByteSize::mib(1));
        let ea = Embedding::identity(&topo, &a).unwrap();
        assert_eq!(
            structural_key(&topo, &a, &ea),
            structural_key(&topo, &b, &ea),
            "payload size must not change the structural key"
        );
        assert_eq!(
            structural_key(&topo, &a, &ea),
            structural_key(&topo, &c, &ea)
        );
        let tree = ccube_collectives::BinaryTree::inorder(8).unwrap();
        let different = ccube_collectives::tree_allreduce(
            std::slice::from_ref(&tree),
            &ccube_collectives::Chunking::even(ByteSize::mib(1), 4),
            ccube_collectives::Overlap::None,
        );
        let ed = Embedding::identity(&topo, &different).unwrap();
        assert_ne!(
            structural_key(&topo, &a, &ea),
            structural_key(&topo, &different, &ed),
            "a different transfer DAG is a different structure"
        );
        assert_ne!(
            fp_payload_timing(&a, &LinkTiming::default()),
            fp_payload_timing(&b, &LinkTiming::default())
        );
    }

    #[test]
    fn cache_toggle_round_trips() {
        // Only exercises the switch itself; the equivalence suites flip
        // it around real runs in their own (process-isolated) binary.
        let was = prep_cache_enabled();
        set_prep_cache_enabled(was);
        assert_eq!(prep_cache_enabled(), was);
    }
}
