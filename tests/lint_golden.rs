//! Byte-stable goldens for `ccube lint --json` and the analyzer behind it.
//!
//! `lint_analyzer_golden.json` pins `analyze`/`analyze_embedded` output
//! over one structure per search-pipeline family plus hand-built faults
//! (see [`analyzer_json_is_byte_stable`]). Two `ccube lint` cases are
//! pinned as well: the DGX-1 CC schedule (the conflict-free
//! overlapped double tree — must lint clean) and the deliberately
//! conflicting single-tree embedding whose forced detour shares another
//! edge's channel. The JSON is hand-rolled with stable key order and
//! deterministic (BTreeMap-ordered) diagnostics, so the files must match
//! byte for byte; a diff means the lint output contract changed.
//!
//! To regenerate after an *intentional* contract change:
//!
//! ```text
//! cargo run --bin ccube -- lint dgx1-cc --json   # first array element
//! cargo run --bin ccube -- lint conflict --json
//! ```

use ccube::lint;
use ccube_collectives::analyze::{analyze, analyze_embedded};
use ccube_collectives::{
    ring_allreduce, tree_allreduce, AnalyzeOptions, BinaryTree, ChunkId, Chunking,
    DoubleBinaryTree, EdgeKey, Embedding, Overlap, Phase, Rank, Schedule, Transfer, TransferId,
    TreeIndex,
};
use ccube_topology::{
    dgx1, hierarchical, nvswitch, torus2d, ByteSize, ChannelClass, GpuId, Route, Topology,
};

fn golden(name: &str) -> String {
    let path = format!("{}/../../tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn dgx1_cc_json_is_byte_stable() {
    let case = lint::run_case("dgx1-cc").expect("known case");
    assert!(case.report.is_clean(), "{}", case.report);
    assert_eq!(case.to_json(), golden("lint_dgx1_cc.json").trim_end());
}

#[test]
fn conflict_json_is_byte_stable() {
    let case = lint::run_case("conflict").expect("known case");
    assert!(!case.report.is_clean(), "the demo must carry errors");
    assert_eq!(case.to_json(), golden("lint_conflict.json").trim_end());
}

#[test]
fn json_runs_are_deterministic() {
    // Same process, repeated runs: byte-identical output (no HashMap
    // iteration order anywhere in the lint path).
    for name in ["dgx1-cc", "conflict", "dgx1-naive-double"] {
        let a = lint::run_case(name).expect("known case").to_json();
        let b = lint::run_case(name).expect("known case").to_json();
        assert_eq!(a, b, "{name}");
    }
}

/// The physical-analyzer goldens: `(case, golden file)` pairs pinned
/// byte for byte. `lint_fabric_skew.json` is the PR 8 hazard — the ring
/// whose cross-leaf crossings all hash to uplink slot 1 — caught
/// statically as eight `CC016` warnings.
const FABRIC_GOLDENS: [(&str, &str); 4] = [
    ("hier16-ring-uplinks", "lint_fabric_skew.json"),
    ("hier16-oversub", "lint_fabric_oversub.json"),
    ("dgx1-cc-physical", "lint_fabric_clean.json"),
    ("severed-ring", "lint_fabric_severed.json"),
];

#[test]
fn fabric_json_is_byte_stable() {
    for (name, file) in FABRIC_GOLDENS {
        let case = lint::run_physical_case(name).expect("known case");
        assert_eq!(case.to_json(), golden(file).trim_end(), "{name}");
    }
}

#[test]
fn fabric_json_runs_are_deterministic() {
    for (name, _) in FABRIC_GOLDENS {
        let a = lint::run_physical_case(name).expect("known case").to_json();
        let b = lint::run_physical_case(name).expect("known case").to_json();
        assert_eq!(a, b, "{name}");
    }
}

/// The CI-gate contract: `ccube lint` exits 1 exactly when the gated
/// report set carries an error-severity diagnostic. `all` exempts the
/// DEMO cases (their errors are the demonstration); naming a case
/// explicitly gates on it, DEMO or not.
#[test]
fn lint_exit_codes_gate_on_errors() {
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_ccube"))
            .arg("lint")
            .args(args)
            .output()
            .expect("ccube runs")
    };
    // Shipped configurations are clean: full runs gate green.
    assert!(run(&["all"]).status.success());
    assert!(run(&["--physical", "all", "--json"]).status.success());
    // A clean named case exits 0, logical or physical.
    assert!(run(&["dgx1-cc"]).status.success());
    assert!(run(&["--physical", "dgx1-cc-physical"]).status.success());
    // A named case with errors exits 1 — the CI gate.
    assert_eq!(run(&["deadlock"]).status.code(), Some(1));
    assert_eq!(run(&["--physical", "severed-ring"]).status.code(), Some(1));
    // Unknown cases are usage errors (2), not lint failures.
    assert_eq!(run(&["nope"]).status.code(), Some(2));
    assert_eq!(run(&["--physical", "nope"]).status.code(), Some(2));
}

/// Double tree over `p` ranks, `k` chunks of a 64 MiB message.
fn double_tree(p: usize, k: usize, overlap: Overlap) -> Schedule {
    let dt = DoubleBinaryTree::new(p).expect("p >= 2");
    tree_allreduce(dt.trees(), &Chunking::even(ByteSize::mib(64), k), overlap)
}

/// One embedded structure per family the search pipeline lints: the
/// hierarchical ring/C1/B at two (P, K), a torus ring, NVSwitch, the
/// DGX-1 identity placement (whose doubled NVLinks conflict) and a
/// permuted DGX-1 placement that needs detour and host-bridge routes.
fn embedded_cases() -> Vec<(&'static str, Topology, Schedule, Embedding)> {
    let mut cases = Vec::new();
    let mut push = |name, topo: Topology, s: Schedule, nic: bool| {
        let e = if nic {
            Embedding::nic(&topo, &s)
        } else {
            Embedding::identity(&topo, &s)
        }
        .expect("embeds");
        cases.push((name, topo, s, e));
    };
    push(
        "hier16-ring-nic",
        hierarchical(16),
        ring_allreduce(16, ByteSize::mib(4)),
        true,
    );
    push(
        "hier16-c1-k4-nic",
        hierarchical(16),
        double_tree(16, 4, Overlap::ReductionBroadcast),
        true,
    );
    push(
        "hier16-b-k4-nic",
        hierarchical(16),
        double_tree(16, 4, Overlap::None),
        true,
    );
    push(
        "hier24-ring-identity",
        hierarchical(24),
        ring_allreduce(24, ByteSize::mib(8)),
        false,
    );
    push(
        "hier24-c1-k10-nic",
        hierarchical(24),
        double_tree(24, 10, Overlap::ReductionBroadcast),
        true,
    );
    push(
        "hier24-b-k10-nic",
        hierarchical(24),
        double_tree(24, 10, Overlap::None),
        true,
    );
    push(
        "torus3x4-ring-identity",
        torus2d(3, 4),
        ring_allreduce(12, ByteSize::mib(2)),
        false,
    );
    push(
        "nvswitch8-c1-k6-nic",
        nvswitch(8),
        double_tree(8, 6, Overlap::ReductionBroadcast),
        true,
    );
    push(
        "dgx1-c1-k16-identity",
        dgx1(),
        double_tree(8, 16, Overlap::ReductionBroadcast),
        false,
    );
    push(
        "dgx1-b-k8-identity",
        dgx1(),
        double_tree(8, 8, Overlap::None),
        false,
    );

    // Every GPU pair of the DGX-1 is at most one detour apart, so the
    // router never falls back to the host bridge on its own: move the
    // first detoured edge onto it by hand.
    let topo = dgx1();
    let s = double_tree(8, 8, Overlap::ReductionBroadcast);
    let mapping: Vec<GpuId> = [3u32, 6, 1, 4, 7, 0, 5, 2].into_iter().map(GpuId).collect();
    let mut e = Embedding::with_mapping(&topo, &s, mapping, true).expect("embeds");
    let detoured: Vec<EdgeKey> = s
        .logical_edges()
        .into_iter()
        .map(|(src, dst, tree)| EdgeKey { src, dst, tree })
        .filter(|k| e.route(k).is_some_and(|r| r.via().is_some()))
        .collect();
    assert!(detoured.len() > 1, "needs detour routes");
    let (sg, dg) = (e.gpu_of(detoured[0].src), e.gpu_of(detoured[0].dst));
    let host = topo
        .channels_between(sg, dg)
        .into_iter()
        .find(|&c| topo.channel(c).class() == ChannelClass::HostBridge)
        .expect("the host bridge joins every GPU pair");
    e.set_route(
        detoured[0],
        Route::direct(sg, dg, host, ChannelClass::HostBridge),
    );
    cases.push(("dgx1-c1-k8-permuted", topo, s, e));
    cases
}

/// The `mailbox-exchange` schedule: edge r0->r1 carries t0 and t1, and
/// r1's forward t2 consumes both, so a one-message mailbox deadlocks.
fn mailbox_exchange() -> Schedule {
    let t = |id: u32, src: u32, dst: u32, deps: Vec<TransferId>| Transfer {
        id: TransferId(id),
        src: Rank(src),
        dst: Rank(dst),
        chunk: ChunkId(0),
        bytes: ByteSize::kib(4),
        phase: Phase::Reduce,
        tree: TreeIndex(0),
        deps,
    };
    Schedule::new_unchecked(
        "mailbox-exchange",
        3,
        Chunking::even(ByteSize::kib(4), 1),
        vec![
            t(0, 0, 1, vec![]),
            t(1, 0, 1, vec![]),
            t(2, 1, 2, vec![TransferId(0), TransferId(1)]),
        ],
    )
}

/// Two transfers on one channel where the first depends on the second:
/// a dependency and a FIFO wait close a cycle.
fn fifo_cycle() -> Schedule {
    let t = |id: u32, deps: Vec<TransferId>| Transfer {
        id: TransferId(id),
        src: Rank(0),
        dst: Rank(1),
        chunk: ChunkId(0),
        bytes: ByteSize::kib(4),
        phase: Phase::Reduce,
        tree: TreeIndex(0),
        deps,
    };
    Schedule::new_unchecked(
        "fifo-cycle",
        2,
        Chunking::even(ByteSize::kib(4), 1),
        vec![t(0, vec![TransferId(1)]), t(1, vec![])],
    )
}

/// The baseline single tree labeled as overlapped: it exceeds the
/// overlapped class bound (CC013).
fn mislabeled_step_bound() -> Schedule {
    let tree = BinaryTree::inorder(8).expect("8 ranks");
    let baseline = tree_allreduce(
        std::slice::from_ref(&tree),
        &Chunking::even(ByteSize::mib(8), 8),
        Overlap::None,
    );
    Schedule::new(
        "overlapped-tree",
        baseline.num_ranks(),
        baseline.chunking().clone(),
        baseline.transfers().to_vec(),
    )
}

/// The overlapped double tree on 8 ranks with every data-carrying
/// dependency of its first such transfer dropped: CC005 races.
fn dropped_dependency() -> Schedule {
    let good = double_tree(8, 8, Overlap::ReductionBroadcast);
    let carries = |t: &Transfer, d: &TransferId| {
        let dep = &good.transfers()[d.index()];
        dep.chunk == t.chunk && (dep.dst == t.src || dep.dst == t.dst)
    };
    let mut transfers = good.transfers().to_vec();
    let victim = transfers
        .iter()
        .position(|t| t.deps.iter().any(|d| carries(t, d)))
        .expect("a data-carrying dependency exists");
    let t = transfers[victim].clone();
    transfers[victim].deps.retain(|d| !carries(&t, d));
    Schedule::new(
        good.algorithm().to_string(),
        good.num_ranks(),
        good.chunking().clone(),
        transfers,
    )
}

/// A single tree over two ranks that sends chunk 1 before chunk 0 on the
/// same channel, so chunk 0 completes last: CC006.
fn inverted_delivery() -> Schedule {
    let t = |id: u32, chunk: u32, phase: Phase, deps: Vec<TransferId>| {
        let (src, dst) = if phase == Phase::Reduce {
            (0, 1)
        } else {
            (1, 0)
        };
        Transfer {
            id: TransferId(id),
            src: Rank(src),
            dst: Rank(dst),
            chunk: ChunkId(chunk),
            bytes: ByteSize::kib(4),
            phase,
            tree: TreeIndex(0),
            deps,
        }
    };
    Schedule::new(
        "overlapped-tree",
        2,
        Chunking::even(ByteSize::kib(8), 2),
        vec![
            t(0, 1, Phase::Reduce, vec![]),
            t(1, 1, Phase::Broadcast, vec![TransferId(0)]),
            t(2, 0, Phase::Reduce, vec![]),
            t(3, 0, Phase::Broadcast, vec![TransferId(2)]),
        ],
    )
}

/// Every analyzer golden case as `"name": report` lines of one JSON
/// object.
fn analyzer_golden() -> String {
    let mut rows: Vec<(&str, String)> = embedded_cases()
        .into_iter()
        .map(|(name, topo, s, e)| {
            let report = analyze_embedded(&s, &e, &topo, &AnalyzeOptions::default());
            (name, report.to_json())
        })
        .collect();
    let mailbox = AnalyzeOptions {
        mailbox_capacity: Some(1),
        ..AnalyzeOptions::default()
    };
    rows.push((
        "mailbox-exchange-cap1",
        analyze(&mailbox_exchange(), &mailbox).to_json(),
    ));
    let default = AnalyzeOptions::default();
    rows.push(("fifo-cycle", analyze(&fifo_cycle(), &default).to_json()));
    rows.push((
        "mislabeled-step-bound",
        analyze(&mislabeled_step_bound(), &default).to_json(),
    ));
    rows.push((
        "dropped-dependency",
        analyze(&dropped_dependency(), &default).to_json(),
    ));
    rows.push((
        "inverted-delivery",
        analyze(&inverted_delivery(), &default).to_json(),
    ));
    let body: Vec<String> = rows
        .iter()
        .map(|(name, json)| format!("\"{name}\":{json}"))
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}

/// The analyzer's own output, byte for byte, over the structures the
/// search pipeline lints and five hand-built faults: the wait-for
/// witness labels (`-dep->`, `-fifo->`, `-mailbox->`), the CC005 race
/// messages, a CC006 inversion and a CC013 step bound. On a mismatch the new output is
/// written next to the test binaries; after an *intentional* contract
/// change, copy it over `tests/data/lint_analyzer_golden.json`.
#[test]
fn analyzer_json_is_byte_stable() {
    let actual = analyzer_golden();
    let expected = golden("lint_analyzer_golden.json");
    if actual != expected.trim_end() {
        let out = format!("{}/lint_analyzer_golden.json", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&out, format!("{actual}\n")).expect("write the new output");
        panic!("analyzer output differs from tests/data/lint_analyzer_golden.json; new output in {out}");
    }
    for label in [
        "-dep->",
        "-fifo->",
        "-mailbox->",
        "CC005",
        "CC006",
        "CC009",
        "CC012",
    ] {
        assert!(actual.contains(label), "the golden must pin {label}");
    }
}
