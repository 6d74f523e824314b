//! Engine-matrix golden: every simulator entry point over every network
//! model, pinned bit-for-bit.
//!
//! One row per (case, network, entry point, fault plan). A row holds the
//! makespan as raw `f64` bits, FNV-1a digests of the per-transfer (and
//! per-compute-task) completion bits, of the busy/queue vectors and of
//! the full `SimStats`, the kernel and pool counters, the fault counters
//! and the trace length — or the error the run returned. The committed
//! file `tests/data/engine_matrix_golden.csv` was generated from the
//! engines as they stood before the scheduler unification, so any drift
//! in any entry point, hop mode or uplink policy shows up here.
//!
//! Regenerate (only for an intended behaviour change) with
//! `ENGINE_MATRIX_BLESS=1 cargo test --release -p ccube --test engine_matrix`.

use ccube::pipeline::TrainingPipeline;
use ccube::systemjob::build_iteration_job;
use ccube_collectives::{
    ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap, Schedule,
};
use ccube_sim::faults::FaultModel;
use ccube_sim::{
    forever, simulate, simulate_faulted, simulate_system, simulate_system_faulted, FabricSpec,
    FaultEvent, FaultPlan, HopMode, NetworkModel, SimError, SimOptions, SimRng, SimStats,
    SystemJob, SystemReport, UplinkPolicy,
};
use ccube_topology::{dgx1, hierarchical, ByteSize, GpuId, Seconds, Topology};
use std::fmt::Write as _;

const GOLDEN: &str = "tests/data/engine_matrix_golden.csv";
const RADIX: usize = 4;
const UPLINKS: usize = 2;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn secs(&mut self, xs: impl IntoIterator<Item = Seconds>) {
        for x in xs {
            self.word(x.as_secs_f64().to_bits());
        }
    }

    fn bytes(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

struct Case {
    name: &'static str,
    topo: Topology,
    schedule: Schedule,
    embedding: Embedding,
    opts: SimOptions,
    /// A compute + communication job (`build_iteration_job`) on the same
    /// topology, for the system entry points.
    job: Option<(SystemJob, Embedding)>,
}

fn c1(p: usize) -> Schedule {
    let dt = DoubleBinaryTree::new(p).unwrap();
    tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(16), 16),
        Overlap::ReductionBroadcast,
    )
}

fn iteration_job(topo: &Topology, p: usize, nic: bool) -> (SystemJob, Embedding) {
    let pipeline = TrainingPipeline::dgx1(&ccube_dnn::zfnet(), 64);
    let job = build_iteration_job(&pipeline, Overlap::ReductionBroadcast, &vec![1.0; p]);
    let emb = if nic {
        Embedding::nic(topo, &job.schedule).unwrap()
    } else {
        Embedding::dgx1_double_tree(topo, &job.schedule).unwrap()
    };
    (job, emb)
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let topo = dgx1();
    let s = c1(8);
    let e = Embedding::dgx1_double_tree(&topo, &s).unwrap();
    let job = iteration_job(&topo, 8, false);
    out.push(Case {
        name: "dgx1_c1",
        topo,
        schedule: s,
        embedding: e,
        opts: SimOptions::default(),
        job: Some(job),
    });
    let topo = dgx1();
    let s = ring_allreduce(8, ByteSize::mib(16));
    let e = Embedding::identity(&topo, &s).unwrap();
    out.push(Case {
        name: "dgx1_ring",
        topo,
        schedule: s,
        embedding: e,
        opts: SimOptions::default(),
        job: None,
    });
    for p in [16, 128] {
        let topo = hierarchical(p);
        let s = c1(p);
        let e = Embedding::nic(&topo, &s).unwrap();
        let job = (p == 16).then(|| iteration_job(&topo, p, true));
        out.push(Case {
            name: if p == 16 { "hier16_c1" } else { "hier128_c1" },
            topo,
            schedule: s,
            embedding: e,
            opts: SimOptions::scale_out(),
            job,
        });
        let topo = hierarchical(p);
        let s = ring_allreduce(p, ByteSize::mib(16));
        let e = Embedding::nic(&topo, &s).unwrap();
        out.push(Case {
            name: if p == 16 {
                "hier16_ring"
            } else {
                "hier128_ring"
            },
            topo,
            schedule: s,
            embedding: e,
            opts: SimOptions::scale_out(),
            job: None,
        });
    }
    out
}

fn networks() -> Vec<(String, NetworkModel)> {
    let mut out = vec![
        ("approx".to_string(), NetworkModel::ChannelApprox),
        (
            "passthrough".to_string(),
            NetworkModel::SwitchFabric(FabricSpec::passthrough()),
        ),
    ];
    for policy in [
        UplinkPolicy::Hash,
        UplinkPolicy::LeastQueued,
        UplinkPolicy::Failover,
    ] {
        for hop in [HopMode::CutThrough, HopMode::StoreForward] {
            let hop_label = match hop {
                HopMode::CutThrough => "ct",
                HopMode::StoreForward => "sf",
            };
            out.push((
                format!("spineleaf_{}_{hop_label}", policy.label()),
                NetworkModel::SwitchFabric(FabricSpec {
                    radix: Some(RADIX),
                    spines: UPLINKS,
                    uplinks: UPLINKS,
                    uplink_policy: policy,
                    hop_mode: hop,
                    ..FabricSpec::default()
                }),
            ));
        }
    }
    out
}

/// The four plans of a row group, over the healthy `horizon`.
fn plans(topo: &Topology, horizon: Seconds) -> Vec<(&'static str, FaultPlan)> {
    let rng = SimRng::new(11);
    let leaves = topo.num_gpus().div_ceil(RADIX);
    let straggler = FaultPlan::new(vec![
        FaultEvent::Straggler {
            gpu: GpuId(1),
            from: Seconds::ZERO,
            until: forever(),
            slowdown: 1.5,
        },
        FaultEvent::Straggler {
            gpu: GpuId(3),
            from: horizon * 0.3,
            until: horizon * 0.6,
            slowdown: 2.0,
        },
    ])
    .unwrap();
    vec![
        ("empty", FaultPlan::empty()),
        (
            "sample",
            FaultPlan::sample(&FaultModel::severity(2, horizon), topo, &rng),
        ),
        (
            "uplinks",
            FaultPlan::sample_uplinks(
                leaves,
                UPLINKS,
                horizon * 0.5,
                horizon * 0.25,
                horizon,
                &rng,
            ),
        ),
        ("straggler", straggler),
    ]
}

fn stats_cols(out: &mut String, s: &SimStats, trace_len: usize) {
    let mut d = Fnv::new();
    d.bytes(&format!("{s:?}"));
    let _ = write!(
        out,
        ",{:016x},{},{},{},{},{},{},{},{},{}",
        d.0,
        s.events_scheduled,
        s.events_processed,
        s.max_event_queue_depth,
        s.max_channel_queue_depth,
        s.force_starts,
        s.failovers,
        s.faults_injected,
        s.reroutes_taken,
        trace_len
    );
}

fn error_row(out: &mut String, err: &SimError) {
    let _ = writeln!(out, ",error,{}", format!("{err:?}").replace(',', ";"));
}

fn system_row(out: &mut String, r: &Result<SystemReport, SimError>) {
    match r {
        Err(err) => error_row(out, err),
        Ok(r) => {
            let mut done = Fnv::new();
            done.secs(r.transfer_complete.iter().copied());
            done.secs(r.compute_complete.iter().copied());
            let mut busy = Fnv::new();
            busy.secs(r.channel_busy.iter().copied());
            let mut gpus: Vec<_> = r.gpu_busy.iter().collect();
            gpus.sort();
            for (g, b) in gpus {
                busy.word(u64::from(g.0));
                busy.word(b.as_secs_f64().to_bits());
            }
            let _ = write!(
                out,
                ",ok,{:016x},{:016x},{:016x}",
                r.makespan.as_secs_f64().to_bits(),
                done.0,
                busy.0
            );
            stats_cols(out, &r.stats, r.trace.len());
            out.push('\n');
        }
    }
}

fn matrix() -> String {
    let mut out = String::from(
        "case,network,entry,plan,status,makespan_bits,completion_fnv,busy_fnv,stats_fnv,\
         events_scheduled,events_processed,max_event_queue_depth,max_channel_queue_depth,\
         force_starts,failovers,faults_injected,reroutes_taken,trace_len\n",
    );
    for case in cases() {
        for (net_name, network) in networks() {
            let opts = case.opts.with_network(network);
            let row = |out: &mut String, entry: &str, plan: &str| {
                let _ = write!(out, "{},{net_name},{entry},{plan}", case.name);
            };

            row(&mut out, "simulate", "-");
            match simulate(&case.topo, &case.schedule, &case.embedding, &opts) {
                Err(err) => error_row(&mut out, &err),
                Ok(r) => {
                    let mut done = Fnv::new();
                    for t in r.timings() {
                        done.word(t.start.as_secs_f64().to_bits());
                        done.word(t.complete.as_secs_f64().to_bits());
                    }
                    let mut busy = Fnv::new();
                    busy.secs(r.channel_busy().iter().copied());
                    for ivs in r.channel_intervals() {
                        busy.word(ivs.len() as u64);
                        for iv in ivs {
                            busy.secs([iv.start, iv.end]);
                        }
                    }
                    let mut fwd: Vec<_> = r.forwarding_busy().iter().collect();
                    fwd.sort();
                    for (g, b) in fwd {
                        busy.word(u64::from(g.0));
                        busy.word(b.as_secs_f64().to_bits());
                    }
                    let _ = write!(
                        out,
                        ",ok,{:016x},{:016x},{:016x}",
                        r.makespan().as_secs_f64().to_bits(),
                        done.0,
                        busy.0
                    );
                    stats_cols(&mut out, r.stats(), r.trace().len());
                    out.push('\n');
                }
            }

            let comm_job = SystemJob {
                schedule: case.schedule.clone(),
                compute: vec![],
                transfer_gates: vec![],
            };
            row(&mut out, "simulate_system", "-");
            system_row(
                &mut out,
                &simulate_system(&case.topo, &comm_job, &case.embedding, &opts),
            );

            let healthy = simulate_faulted(
                &case.topo,
                &case.schedule,
                &case.embedding,
                &opts,
                &FaultPlan::empty(),
            );
            let horizon = healthy
                .as_ref()
                .map_or(Seconds::from_millis(1.0), |r| r.makespan);
            for (plan_name, plan) in plans(&case.topo, horizon) {
                row(&mut out, "simulate_faulted", plan_name);
                system_row(
                    &mut out,
                    &simulate_faulted(&case.topo, &case.schedule, &case.embedding, &opts, &plan),
                );
            }

            if let Some((job, emb)) = &case.job {
                row(&mut out, "simulate_system", "iteration_job");
                let healthy = simulate_system(&case.topo, job, emb, &opts);
                system_row(&mut out, &healthy);
                let horizon = healthy
                    .as_ref()
                    .map_or(Seconds::from_millis(1.0), |r| r.makespan);
                for (plan_name, plan) in plans(&case.topo, horizon) {
                    row(
                        &mut out,
                        "simulate_system_faulted",
                        &format!("iteration_job+{plan_name}"),
                    );
                    system_row(
                        &mut out,
                        &simulate_system_faulted(&case.topo, job, emb, &opts, &plan),
                    );
                }
            }
        }
    }
    out
}

#[test]
fn engine_matrix_matches_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(GOLDEN);
    let got = matrix();
    if std::env::var_os("ENGINE_MATRIX_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read golden");
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "engine matrix row {i} drifted");
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "engine matrix row count drifted"
        );
    }
}
