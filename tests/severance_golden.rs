//! Byte-stable golden for the static fault-plan severance analysis.
//!
//! One row per (schedule, network, plan): the `LintReport::to_json()` of
//! `analyze_severance`. The grid covers what `lint_fabric_severed.json`
//! does not: uplink and spine windows on a spine/leaf fabric (radix 8,
//! 2 spines, 2 uplinks per leaf) under every uplink policy, next to the
//! channel approximation, over sampled link plans, sampled uplink plans
//! and hand-built finite, permanent and overlapping outages. A diff in
//! `tests/data/severance_golden.json` means a classification, a message
//! or a span changed.
//!
//! To regenerate after an *intentional* contract change, print
//! [`render`]'s output into the data file.

use ccube_collectives::{
    ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap, Schedule,
};
use ccube_sim::faults::FaultModel;
use ccube_sim::{
    analyze_severance, forever, FabricSpec, FaultEvent, FaultPlan, NetworkModel, SimOptions,
    SimRng, UplinkPolicy,
};
use ccube_topology::{hierarchical, ByteSize, ChannelId, Seconds, Topology};
use std::fmt::Write as _;

const GOLDEN: &str = "tests/data/severance_golden.json";
const RADIX: usize = 8;
const UPLINKS: usize = 2;

/// The window scale of every plan; about the healthy makespan of the
/// smallest case.
fn horizon() -> Seconds {
    Seconds::from_millis(1.0)
}

fn c1(p: usize, k: usize) -> Schedule {
    let dt = DoubleBinaryTree::new(p).expect("power-of-two ranks");
    tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(8), k),
        Overlap::ReductionBroadcast,
    )
}

fn cases() -> Vec<(&'static str, Topology, Schedule)> {
    vec![
        (
            "hier64_ring",
            hierarchical(64),
            ring_allreduce(64, ByteSize::mib(4)),
        ),
        ("hier64_c1", hierarchical(64), c1(64, 8)),
        ("hier128_c1", hierarchical(128), c1(128, 8)),
    ]
}

fn networks() -> Vec<(&'static str, NetworkModel)> {
    let mut out = vec![("approx", NetworkModel::ChannelApprox)];
    for policy in [
        UplinkPolicy::Hash,
        UplinkPolicy::LeastQueued,
        UplinkPolicy::Failover,
    ] {
        out.push((
            policy.label(),
            NetworkModel::SwitchFabric(FabricSpec {
                radix: Some(RADIX),
                spines: UPLINKS,
                uplinks: UPLINKS,
                uplink_policy: policy,
                ..FabricSpec::default()
            }),
        ));
    }
    out
}

fn plans(topo: &Topology) -> Vec<(String, FaultPlan)> {
    let h = horizon();
    let leaves = topo.num_gpus().div_ceil(RADIX);
    let mut out = Vec::new();
    for seed in [1, 2] {
        let rng = SimRng::new(seed);
        out.push((
            format!("sample{seed}"),
            FaultPlan::sample(&FaultModel::severity(2, h), topo, &rng),
        ));
        out.push((
            format!("uplinks{seed}"),
            FaultPlan::sample_uplinks(leaves, UPLINKS, h * 0.5, h * 0.25, h, &rng),
        ));
    }
    let fixed = |name: &str, events: Vec<FaultEvent>| {
        (
            name.to_string(),
            FaultPlan::new(events).expect("valid plan"),
        )
    };
    out.push(fixed(
        "links",
        vec![
            FaultEvent::LinkDown {
                channel: ChannelId(2),
                from: Seconds::ZERO,
                until: forever(),
            },
            FaultEvent::LinkDown {
                channel: ChannelId(5),
                from: h * 0.1,
                until: h * 0.4,
            },
        ],
    ));
    out.push(fixed(
        "switch_finite",
        vec![FaultEvent::SwitchDown {
            spine: 0,
            from: h * 0.1,
            until: h * 0.6,
        }],
    ));
    out.push(fixed(
        "switch_forever",
        vec![FaultEvent::SwitchDown {
            spine: 1,
            from: h * 0.2,
            until: forever(),
        }],
    ));
    out.push(fixed(
        "uplink_forever",
        vec![FaultEvent::UplinkDown {
            leaf: 1,
            uplink: 0,
            from: Seconds::ZERO,
            until: forever(),
        }],
    ));
    out.push(fixed(
        "switch_over_uplink",
        vec![
            FaultEvent::SwitchDown {
                spine: 0,
                from: h * 0.2,
                until: h * 0.7,
            },
            FaultEvent::UplinkDown {
                leaf: 0,
                uplink: 1,
                from: h * 0.4,
                until: h * 0.9,
            },
        ],
    ));
    out
}

/// The golden file's contents: a JSON array, one row per line.
fn render() -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (case, topo, schedule) in cases() {
        let embedding = Embedding::nic(&topo, &schedule).expect("nic embedding");
        let plans = plans(&topo);
        for (network, model) in networks() {
            let opts = SimOptions::scale_out().with_network(model);
            for (plan_name, plan) in &plans {
                let report = analyze_severance(plan, &topo, &schedule, &embedding, &opts);
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"case\":\"{case}\",\"network\":\"{network}\",\"plan\":\"{plan_name}\",\
                     \"report\":{}}}",
                    report.to_json()
                );
            }
        }
    }
    out.push_str("\n]");
    out
}

#[test]
fn severance_json_matches_golden() {
    let path = format!("{}/../../{GOLDEN}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let got = render();
    let golden = golden.trim_end();
    if got != golden {
        let first_diff = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
        panic!(
            "severance golden drifted at line {}:\n  got:    {}\n  golden: {}",
            first_diff + 1,
            got.lines().nth(first_diff).unwrap_or("<end>"),
            golden.lines().nth(first_diff).unwrap_or("<end>")
        );
    }
}
