//! `scaleout`: a seeded grid of AllReduce runs on `hierarchical(P)`.
//!
//! The grid is stratified so that every seed does the same amount of
//! kernel work: each node count appears with the same mix of ring, C1
//! and B points and the same tree chunk counts. The seed draws each
//! point's message size (log-uniform over 64 KiB–64 MiB); the points
//! run in grid order, so every seed allocates in the same pattern.
//! Message size never changes a schedule's structure, so
//! once the first pass has filled the preparation cache every later
//! point is a hit that only rescales payloads. Tracing is off.

use super::{build_schedule, digest_run, embed_nic, log_uniform, Algo, Outcome, Workload};
use crate::spans::span;
use crate::stats::Digest;
use ccube_sim::{simulate, SimOptions, SimRng};
use ccube_topology::{hierarchical, ByteSize};

/// Node counts of the grid.
const NODES: [usize; 7] = [32, 48, 64, 96, 128, 192, 256];
/// `(algorithm, tree chunk count)` mix run at every node count.
const MIX: [(Algo, usize); 15] = [
    (Algo::Ring, 0),
    (Algo::Ring, 0),
    (Algo::Ring, 0),
    (Algo::C1, 8),
    (Algo::C1, 8),
    (Algo::C1, 16),
    (Algo::C1, 16),
    (Algo::C1, 32),
    (Algo::C1, 32),
    (Algo::B, 8),
    (Algo::B, 8),
    (Algo::B, 16),
    (Algo::B, 16),
    (Algo::B, 32),
    (Algo::B, 32),
];

/// Digest of a full pass at [`super::DEFAULT_SEED`].
const RECORDED: u64 = 0x629e_871b_fe7e_8053;

/// One grid point.
#[derive(Debug, Clone, Copy)]
struct Point {
    p: usize,
    algo: Algo,
    k: usize,
    n: ByteSize,
}

/// The `scaleout` workload.
pub struct Scaleout {
    points: Vec<Point>,
    opts: SimOptions,
}

impl Scaleout {
    /// The grid for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SimRng::new(seed).fork(1);
        let mut points = Vec::new();
        for &p in &NODES {
            for &(algo, k) in &MIX {
                let n = log_uniform(&mut rng, 64 << 10, 64 << 20);
                points.push(Point { p, algo, k, n });
            }
        }
        Scaleout {
            points,
            opts: SimOptions::scale_out().without_trace(),
        }
    }
}

impl Workload for Scaleout {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn run_point(&self, i: usize) -> Outcome {
        let pt = self.points[i];
        let mut out = Outcome::default();
        let topo = span("topology", || hierarchical(pt.p));
        let s = build_schedule(pt.algo, pt.p, pt.n, pt.k);
        out.counters.transfers = s.transfers().len() as u64;
        let e = embed_nic(&topo, &s);
        let mut d = Digest::default();
        match span("sim.simulate", || simulate(&topo, &s, &e, &self.opts)) {
            Ok(r) => {
                digest_run(&mut d, r.makespan().as_secs_f64(), r.stats());
                d.word(r.turnaround().as_secs_f64().to_bits());
                out.counters.add_stats(r.stats(), r.trace().len());
            }
            Err(err) => {
                out.error = Some(format!("P={} {} K={}: {err}", pt.p, pt.algo.label(), pt.k))
            }
        }
        out.digest = d.finish();
        out
    }

    fn recorded_digest(&self) -> Option<u64> {
        Some(RECORDED)
    }
}
