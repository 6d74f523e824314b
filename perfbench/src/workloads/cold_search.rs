//! `cold_search`: a seeded stream of distinct structures pushed through
//! the search pipeline — `analyze_embedded`, a certified lower bound
//! (`makespan_lower_bound`, or `fabric_lower_bound` for points run over
//! a switch fabric), then one `simulate`.
//!
//! Structures vary in node count, tree chunk count and overlap, ring or
//! tree, topology (hierarchical, 2-D torus, NVSwitch, DGX-1) and
//! placement (NIC, identity, or a seeded permutation through
//! `Embedding::with_mapping`). No two points of a pass share a
//! structure, and each pass starts from an empty preparation cache, so
//! every `simulate` takes the miss path.

use super::{build_schedule, digest_run, link_timing, Algo, Outcome, Workload};
use crate::spans::span;
use crate::stats::Digest;
use ccube_collectives::analyze::analyze_embedded;
use ccube_collectives::{
    fabric_lower_bound, makespan_lower_bound, AnalyzeOptions, Embedding, PhysicalAnalyzeOptions,
};
use ccube_sim::{simulate, FabricSpec, NetworkModel, SimOptions, SimRng};
use ccube_topology::{
    dgx1, hierarchical, nvswitch, torus2d, ByteSize, FabricConfig, FabricGraph, GpuId, Topology,
};
use std::collections::BTreeSet;

/// Points per pass.
const POINTS: usize = 120;
/// Leaf radix of the switch fabric the hierarchical fabric points use.
const RADIX: usize = 4;

/// Digest of a full pass at [`super::DEFAULT_SEED`].
const RECORDED: u64 = 0xe724_e9ba_8f76_825f;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Topo {
    Hier(usize),
    Torus(usize, usize),
    NvSwitch(usize),
    Dgx1,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Placement {
    Nic,
    Identity,
    /// A permutation drawn from this seed.
    Permuted(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Point {
    topo: Topo,
    algo: Algo,
    k: usize,
    placement: Placement,
    /// Run over a spine/leaf switch fabric (hierarchical only).
    fabric: bool,
    mib: u64,
}

impl Topo {
    fn gpus(self) -> usize {
        match self {
            Topo::Hier(p) | Topo::NvSwitch(p) => p,
            Topo::Torus(r, c) => r * c,
            Topo::Dgx1 => 8,
        }
    }

    fn build(self) -> Topology {
        match self {
            Topo::Hier(p) => hierarchical(p),
            Topo::Torus(r, c) => torus2d(r, c),
            Topo::NvSwitch(p) => nvswitch(p),
            Topo::Dgx1 => dgx1(),
        }
    }
}

/// Torus shapes, one per torus point of a pass.
const TORI: [(usize, usize); 24] = [
    (3, 3),
    (3, 4),
    (4, 3),
    (3, 5),
    (5, 3),
    (4, 4),
    (3, 6),
    (6, 3),
    (4, 5),
    (5, 4),
    (3, 7),
    (7, 3),
    (4, 6),
    (6, 4),
    (5, 5),
    (3, 8),
    (8, 3),
    (4, 7),
    (7, 4),
    (5, 6),
    (6, 5),
    (4, 8),
    (8, 4),
    (6, 6),
];

/// Point `i` of a pass, on its `attempt`-th try at a structure not yet
/// seen. Topology, size, collective and chunk count depend on `i` (and
/// the retry count) alone, so every seed builds structures of the same
/// sizes: the analyzer's race check grows with the square of a
/// schedule's transfers, and seed-drawn sizes made a pass's cost vary by
/// a fifth. The seed draws placements, permutations and payloads.
fn draw(rng: &mut SimRng, i: usize, attempt: usize) -> Point {
    let round = i / 5;
    let topo = match i % 5 {
        slot @ (0 | 1) => Topo::Hier(4 * (4 + (2 * round + slot) % 13)),
        2 => Topo::Torus(TORI[round].0, TORI[round].1),
        3 => Topo::NvSwitch(4 * (2 + round % 11)),
        _ => Topo::Dgx1,
    };
    // Trees do not route on a torus; rings do.
    let algo = match topo {
        Topo::Torus(..) => Algo::Ring,
        _ => [Algo::Ring, Algo::C1, Algo::B][round % 3],
    };
    let k = if algo == Algo::Ring {
        0
    } else {
        2 * (1 + (7 * i + attempt) % 16)
    };
    // The placements each topology routes: the switched topologies have
    // no GPU-to-GPU channels, so trees need the NIC placement there, and
    // only the DGX-1's NVLink mesh (with detours and the host bridge)
    // routes an arbitrary permutation. Drawn at random, so a retry after
    // a repeated structure can move to another placement.
    let coin = rng.below(2) == 0;
    let placement = match topo {
        Topo::Hier(_) | Topo::NvSwitch(_) if algo != Algo::Ring || coin => Placement::Nic,
        Topo::Dgx1 if coin => Placement::Permuted(rng.next_u64()),
        _ => Placement::Identity,
    };
    Point {
        topo,
        algo,
        k,
        placement,
        fabric: i % 5 == 1,
        mib: 1 << rng.below(7),
    }
}

/// The `cold_search` workload.
pub struct ColdSearch {
    points: Vec<Point>,
}

impl ColdSearch {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SimRng::new(seed).fork(3);
        let mut seen = BTreeSet::new();
        let mut points = Vec::new();
        for i in 0..POINTS {
            for attempt in 0.. {
                assert!(attempt < 1000, "no distinct structure left for point {i}");
                let pt = draw(&mut rng, i, attempt);
                // The preparation cache keys neither the payload size nor
                // the network model.
                if seen.insert(Point {
                    mib: 0,
                    fabric: false,
                    ..pt
                }) {
                    points.push(pt);
                    break;
                }
            }
        }
        ColdSearch { points }
    }
}

impl Workload for ColdSearch {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn run_point(&self, i: usize) -> Outcome {
        let pt = self.points[i];
        let mut out = Outcome::default();
        let what = format!("{pt:?}");
        let topo = span("topology", || pt.topo.build());
        let p = pt.topo.gpus();
        let s = build_schedule(pt.algo, p, ByteSize::mib(pt.mib), pt.k);
        out.counters.transfers = s.transfers().len() as u64;
        let embedded = span("collectives.embedding", || match pt.placement {
            Placement::Nic => Embedding::nic(&topo, &s),
            Placement::Identity => Embedding::identity(&topo, &s),
            Placement::Permuted(seed) => {
                let mut mapping: Vec<GpuId> = (0..p as u32).map(GpuId).collect();
                shuffle(&mut SimRng::new(seed), &mut mapping);
                Embedding::with_mapping(&topo, &s, mapping, true)
            }
        });
        let e = match embedded {
            Ok(e) => e,
            Err(err) => {
                out.error = Some(format!("{what}: embedding: {err}"));
                return out;
            }
        };
        let lint = span("collectives.analyze", || {
            analyze_embedded(&s, &e, &topo, &AnalyzeOptions::default())
        });
        out.counters.diagnostics = lint.diagnostics().len() as u64;

        let mut opts = SimOptions::default().without_trace();
        let bound = if pt.fabric {
            let spec = FabricSpec {
                radix: Some(RADIX),
                ..FabricSpec::default()
            };
            opts = opts.with_network(NetworkModel::SwitchFabric(spec));
            let graph = span("topology", || {
                FabricGraph::from_topology(
                    &topo,
                    &FabricConfig {
                        radix: Some(RADIX),
                        ..FabricConfig::default()
                    },
                )
            });
            let physical = PhysicalAnalyzeOptions {
                timing: link_timing(&opts),
                store_forward: false,
            };
            span("collectives.physical", || {
                fabric_lower_bound(&s, &e, &topo, &graph, &physical)
            })
        } else {
            span("collectives.physical", || {
                makespan_lower_bound(&s, &e, &topo, &link_timing(&opts))
            })
        };

        let mut d = Digest::default();
        d.word(lint.diagnostics().len() as u64);
        match span("sim.simulate", || simulate(&topo, &s, &e, &opts)) {
            Ok(r) => {
                let makespan = r.makespan().as_secs_f64();
                digest_run(&mut d, makespan, r.stats());
                out.counters.add_stats(r.stats(), r.trace().len());
                match bound {
                    Some(b) if b.as_secs_f64() <= makespan => {}
                    Some(b) => {
                        out.error = Some(format!(
                            "{what}: lower bound {} exceeds makespan {makespan}",
                            b.as_secs_f64()
                        ))
                    }
                    None => out.error = Some(format!("{what}: no lower bound")),
                }
            }
            Err(err) => out.error = Some(format!("{what}: simulate: {err}")),
        }
        out.digest = d.finish();
        out
    }

    fn recorded_digest(&self) -> Option<u64> {
        Some(RECORDED)
    }

    fn cold_cache(&self) -> bool {
        true
    }
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(rng: &mut SimRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}
