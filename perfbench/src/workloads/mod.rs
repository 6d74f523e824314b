//! The four workloads and what they share: seeded point generation, the
//! per-point [`Outcome`], and the counters the per-layer metrics sum.

pub mod cold_search;
pub mod fabric_faults;
pub mod figures;
pub mod scaleout;

use crate::spans::span;
use crate::stats::Digest;
use ccube_collectives::{
    ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, LinkTiming, Overlap,
    Schedule,
};
use ccube_sim::{SimOptions, SimStats};
use ccube_topology::ByteSize;
use std::path::Path;

/// The seed whose simulated-result digests are recorded in the sources.
pub const DEFAULT_SEED: u64 = 1;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["figures", "scaleout", "fabric_faults", "cold_search"];

/// Counts the per-layer metrics sum over points. Everything here is a
/// simulated quantity, so it repeats exactly for a given seed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counters {
    /// `SimStats::events_processed`.
    pub events: u64,
    /// `SimStats::events_scheduled`.
    pub events_scheduled: u64,
    /// Max of `SimStats::max_event_queue_depth`.
    pub max_queue_depth: u64,
    /// `SimStats::force_starts`.
    pub force_starts: u64,
    /// Max of `SimStats::max_channel_queue_depth`.
    pub max_channel_queue_depth: u64,
    /// Σ `SimStats::total_queue_wait`, simulated seconds.
    pub queue_wait_s: f64,
    /// Trace records kept by the runs.
    pub trace_records: u64,
    /// Transfers in the schedules the points built.
    pub transfers: u64,
    /// Analyzer diagnostics.
    pub diagnostics: u64,
    /// `SimStats::failovers`.
    pub failovers: u64,
    /// Max of `SimStats::switch_queue_depth`.
    pub max_switch_queue_depth: u64,
    /// `SimStats::faults_injected`.
    pub faults_injected: u64,
    /// `SimStats::reroutes_taken`.
    pub reroutes: u64,
    /// Faulted runs that ended in a typed `Unroutable`.
    pub unroutable: u64,
}

impl Counters {
    /// Adds one run's statistics.
    pub fn add_stats(&mut self, s: &SimStats, trace_records: usize) {
        self.events += s.events_processed;
        self.events_scheduled += s.events_scheduled;
        self.max_queue_depth = self.max_queue_depth.max(s.max_event_queue_depth as u64);
        self.force_starts += s.force_starts;
        self.max_channel_queue_depth = self
            .max_channel_queue_depth
            .max(s.max_channel_queue_depth as u64);
        self.queue_wait_s += s.total_queue_wait().as_secs_f64();
        self.trace_records += trace_records as u64;
        self.failovers += s.failovers;
        let switch_depth = s.switch_queue_depth.iter().copied().max().unwrap_or(0);
        self.max_switch_queue_depth = self.max_switch_queue_depth.max(switch_depth as u64);
        self.faults_injected += s.faults_injected;
        self.reroutes += s.reroutes_taken;
    }

    /// Adds another point's counters.
    pub fn merge(&mut self, o: &Counters) {
        self.events += o.events;
        self.events_scheduled += o.events_scheduled;
        self.max_queue_depth = self.max_queue_depth.max(o.max_queue_depth);
        self.force_starts += o.force_starts;
        self.max_channel_queue_depth = self.max_channel_queue_depth.max(o.max_channel_queue_depth);
        self.queue_wait_s += o.queue_wait_s;
        self.trace_records += o.trace_records;
        self.transfers += o.transfers;
        self.diagnostics += o.diagnostics;
        self.failovers += o.failovers;
        self.max_switch_queue_depth = self.max_switch_queue_depth.max(o.max_switch_queue_depth);
        self.faults_injected += o.faults_injected;
        self.reroutes += o.reroutes;
        self.unroutable += o.unroutable;
    }
}

/// What one point produced: a digest of its simulated results, its
/// counters, and the first check it failed, if any.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Digest over the point's simulated results.
    pub digest: u64,
    /// Counters summed by the per-layer metrics.
    pub counters: Counters,
    /// Why the point failed its output check.
    pub error: Option<String>,
}

/// Folds a run's makespan and statistics into `d`: the simulated result
/// that must repeat exactly across passes, worker counts and cache
/// settings.
pub fn digest_run(d: &mut Digest, makespan: f64, s: &SimStats) {
    d.word(makespan.to_bits());
    d.word(s.events_processed);
    d.word(s.events_scheduled);
    d.word(s.max_event_queue_depth as u64);
    d.word(s.max_channel_queue_depth as u64);
    d.word(s.force_starts);
    d.word(s.total_queue_wait().as_secs_f64().to_bits());
    d.word(s.failovers);
    d.word(s.faults_injected);
    d.word(s.reroutes_taken);
}

/// One workload: a seeded list of points, each run independently.
pub trait Workload: Sync {
    /// Number of points in one pass.
    fn len(&self) -> usize;
    /// Runs point `i`, wrapping each library call in a span.
    fn run_point(&self, i: usize) -> Outcome;
    /// Digest over a pass's point digests recorded for [`DEFAULT_SEED`]
    /// (`None`: this workload checks its outputs another way).
    fn recorded_digest(&self) -> Option<u64>;
    /// Whether every pass starts from an empty preparation cache.
    fn cold_cache(&self) -> bool {
        false
    }
    /// Kernel events of one pass, for workloads whose points cannot
    /// count them themselves (the figure drivers keep their `SimStats`).
    fn hidden_events(&self) -> Option<Result<u64, String>> {
        None
    }
    /// What simulator trace recording costs on this workload. The
    /// default is for workloads that run with recording off.
    fn trace_overhead(&self) -> TraceCost {
        TraceCost::default()
    }
}

/// Host cost of the simulator's own trace recording on a workload.
#[derive(Default)]
pub struct TraceCost {
    /// Host ms of the simulator calls with recording on, minus off.
    pub overhead_ms: f64,
    /// Counters and spans of a trace-on replay of simulator calls the
    /// passes cannot see (the `figures` workload's Fig. 14 grid).
    pub replay: Option<(Counters, Vec<crate::spans::SpanRec>)>,
    /// Output checks that failed along the way.
    pub errors: Vec<String>,
}

/// Builds the workload `name` from `seed`, writing any files under `out`.
pub fn build(name: &str, seed: u64, out: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "figures" => Box::new(figures::Figures::new(out)),
        "scaleout" => Box::new(scaleout::Scaleout::new(seed)),
        "fabric_faults" => Box::new(fabric_faults::FabricFaults::new(seed)),
        "cold_search" => Box::new(cold_search::ColdSearch::new(seed)),
        _ => return None,
    })
}

/// A collective the search and sweep workloads build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algo {
    /// Unidirectional ring.
    Ring,
    /// Overlapped double binary tree (the paper's C1).
    C1,
    /// Baseline double binary tree (the paper's B).
    B,
}

impl Algo {
    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Ring => "ring",
            Algo::C1 => "C1",
            Algo::B => "B",
        }
    }
}

/// Builds the schedule of `algo` over `p` ranks, `n` bytes and `k` tree
/// chunks, inside a `collectives.schedule` span.
pub fn build_schedule(algo: Algo, p: usize, n: ByteSize, k: usize) -> Schedule {
    span("collectives.schedule", || match algo {
        Algo::Ring => ring_allreduce(p, n),
        Algo::C1 | Algo::B => {
            let dt = DoubleBinaryTree::new(p).expect("p >= 2");
            let overlap = if algo == Algo::C1 {
                Overlap::ReductionBroadcast
            } else {
                Overlap::None
            };
            tree_allreduce(dt.trees(), &Chunking::even(n, k), overlap)
        }
    })
}

/// The lowering timing a run under `opts` uses, for the bounds.
pub fn link_timing(opts: &SimOptions) -> LinkTiming {
    LinkTiming {
        bandwidth_scale: opts.bandwidth_scale,
        forwarding_latency: opts.forwarding_latency,
    }
}

/// Embeds `schedule` on `topo` with the NIC placement, in a span.
pub fn embed_nic(topo: &ccube_topology::Topology, schedule: &Schedule) -> Embedding {
    span("collectives.embedding", || {
        Embedding::nic(topo, schedule).expect("NIC embedding of a hierarchical topology")
    })
}

/// A size drawn log-uniformly from `[lo, hi]` bytes.
pub fn log_uniform(rng: &mut ccube_sim::SimRng, lo: u64, hi: u64) -> ByteSize {
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    ByteSize::new((a + (b - a) * rng.next_f64()).exp() as u64)
}
