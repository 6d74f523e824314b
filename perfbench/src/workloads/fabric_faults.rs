//! `fabric_faults`: healthy and faulted runs over a spine/leaf switch
//! fabric (radix 8, 2 spines, 2 uplinks per leaf).
//!
//! Every point runs a healthy `simulate_faulted`, samples a fault plan
//! over the healthy makespan (link faults with `FaultPlan::sample`, or
//! uplink outages with `FaultPlan::sample_uplinks`), replays the
//! schedule under that plan, and classifies the plan statically with
//! `analyze_severance`. The grid is stratified over node count,
//! collective, uplink policy, hop mode and plan kind, and runs in grid
//! order; the seed draws the message sizes and the plans.

use super::{
    build_schedule, digest_run, embed_nic, log_uniform, Algo, Outcome, TraceCost, Workload,
};
use crate::spans::{self, span};
use crate::stats::Digest;
use ccube_collectives::analyze::LintCode;
use ccube_sim::faults::FaultModel;
use ccube_sim::{
    analyze_severance, simulate_faulted, FabricSpec, FaultPlan, HopMode, NetworkModel, SimError,
    SimOptions, SimRng, UplinkPolicy,
};
use ccube_topology::{hierarchical, ByteSize};

/// Endpoints per leaf switch.
const RADIX: usize = 8;
/// Uplink slots per leaf (and spine switches).
const UPLINKS: usize = 2;
/// `(node count, collective, tree chunk count)` mix.
const MIX: [(usize, Algo, usize); 9] = [
    (64, Algo::Ring, 0),
    (64, Algo::Ring, 0),
    (64, Algo::C1, 4),
    (64, Algo::C1, 8),
    (64, Algo::C1, 16),
    (128, Algo::C1, 4),
    (128, Algo::C1, 8),
    (128, Algo::C1, 8),
    (128, Algo::C1, 16),
];
const POLICIES: [UplinkPolicy; 3] = [
    UplinkPolicy::Hash,
    UplinkPolicy::LeastQueued,
    UplinkPolicy::Failover,
];
const HOPS: [HopMode; 2] = [HopMode::CutThrough, HopMode::StoreForward];

/// Digest of a full pass at [`super::DEFAULT_SEED`].
const RECORDED: u64 = 0x1edd_d779_840d_e9d4;

#[derive(Debug, Clone, Copy)]
struct Point {
    p: usize,
    algo: Algo,
    k: usize,
    n: ByteSize,
    policy: UplinkPolicy,
    hop: HopMode,
    uplink_plan: bool,
    plan_seed: u64,
}

/// The `fabric_faults` workload.
pub struct FabricFaults {
    points: Vec<Point>,
}

impl FabricFaults {
    /// The grid for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SimRng::new(seed).fork(2);
        let mut points = Vec::new();
        for &(p, algo, k) in &MIX {
            for &policy in &POLICIES {
                for &hop in &HOPS {
                    for uplink_plan in [false, true] {
                        let n = log_uniform(&mut rng, 1 << 20, 16 << 20);
                        let plan_seed = rng.next_u64();
                        points.push(Point {
                            p,
                            algo,
                            k,
                            n,
                            policy,
                            hop,
                            uplink_plan,
                            plan_seed,
                        });
                    }
                }
            }
        }
        FabricFaults { points }
    }
}

impl Workload for FabricFaults {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn run_point(&self, i: usize) -> Outcome {
        self.run_with(i, true)
    }

    fn recorded_digest(&self) -> Option<u64> {
        Some(RECORDED)
    }

    fn trace_overhead(&self) -> TraceCost {
        let was = spans::enabled();
        spans::set_enabled(true);
        let mut sim_ms = [0.0; 2];
        let mut digests = [Vec::new(), Vec::new()];
        for (slot, trace) in [(0, false), (1, true)] {
            for i in 0..self.points.len() {
                digests[slot].push(self.run_with(i, trace).digest);
            }
            let recorded = spans::take();
            sim_ms[slot] =
                spans::total_ms(&recorded, "sim.fabric") + spans::total_ms(&recorded, "sim.faults");
        }
        spans::set_enabled(was);
        TraceCost {
            overhead_ms: sim_ms[1] - sim_ms[0],
            replay: None,
            errors: (digests[0] != digests[1])
                .then(|| "simulator trace recording changed a simulated result".to_string())
                .into_iter()
                .collect(),
        }
    }
}

impl FabricFaults {
    /// Runs point `i` with the simulator's trace recording on or off.
    fn run_with(&self, i: usize, trace: bool) -> Outcome {
        let pt = self.points[i];
        let mut out = Outcome::default();
        let mut opts = SimOptions::scale_out();
        if !trace {
            opts = opts.without_trace();
        }
        let opts = opts.with_network(NetworkModel::SwitchFabric(FabricSpec {
            radix: Some(RADIX),
            spines: UPLINKS,
            uplinks: UPLINKS,
            uplink_policy: pt.policy,
            hop_mode: pt.hop,
            ..FabricSpec::default()
        }));
        let topo = span("topology", || hierarchical(pt.p));
        let s = build_schedule(pt.algo, pt.p, pt.n, pt.k);
        out.counters.transfers = s.transfers().len() as u64;
        let e = embed_nic(&topo, &s);
        let what = format!(
            "P={} {} K={} {:?} {:?} {}",
            pt.p,
            pt.algo.label(),
            pt.k,
            pt.policy,
            pt.hop,
            if pt.uplink_plan { "uplinks" } else { "links" }
        );
        let mut d = Digest::default();

        let healthy = match span("sim.fabric", || {
            simulate_faulted(&topo, &s, &e, &opts, &FaultPlan::empty())
        }) {
            Ok(r) => r,
            Err(err) => {
                out.error = Some(format!("{what}: healthy run: {err}"));
                return out;
            }
        };
        digest_run(&mut d, healthy.makespan.as_secs_f64(), &healthy.stats);
        out.counters.add_stats(&healthy.stats, healthy.trace.len());

        let horizon = healthy.makespan;
        let rng = SimRng::new(pt.plan_seed);
        let plan = span("sim.faults.sample", || {
            if pt.uplink_plan {
                FaultPlan::sample_uplinks(
                    pt.p / RADIX,
                    UPLINKS,
                    horizon * 0.5,
                    horizon * 0.25,
                    horizon,
                    &rng,
                )
            } else {
                FaultPlan::sample(&FaultModel::severity(2, horizon), &topo, &rng)
            }
        });
        d.word(plan.len() as u64);

        let faulted = span("sim.faults", || {
            simulate_faulted(&topo, &s, &e, &opts, &plan)
        });
        let unroutable = match faulted {
            Ok(r) => {
                digest_run(&mut d, r.makespan.as_secs_f64(), &r.stats);
                out.counters.add_stats(&r.stats, r.trace.len());
                false
            }
            Err(SimError::Unroutable { src, dst }) => {
                d.word(u64::from(src.0) << 32 | u64::from(dst.0));
                out.counters.unroutable += 1;
                true
            }
            Err(err) => {
                out.error = Some(format!("{what}: faulted run: {err}"));
                return out;
            }
        };

        let report = span("sim.severance", || {
            analyze_severance(&plan, &topo, &s, &e, &opts)
        });
        out.counters.diagnostics += report.diagnostics().len() as u64;
        d.word(report.diagnostics().len() as u64);
        let severed = report
            .diagnostics()
            .iter()
            .any(|x| x.code == LintCode::FaultSevered);
        if unroutable && !severed {
            out.error = Some(format!(
                "{what}: engine reported Unroutable but severance found no CC023"
            ));
        }
        out.digest = d.finish();
        out
    }
}
