//! `figures`: the 20-figure table `ccube figures` writes, driver by
//! driver, into a scratch directory.
//!
//! `ccube::experiments::run_all_with_network` fans its private figure
//! table out over the sweep executor and then writes the CSVs. Timing
//! each driver needs the table itself, so [`TABLE`] lists the same 20
//! drivers with the same arguments; every pass checks each CSV against
//! the digest recorded here, and the fresh-process set-up runs call
//! `run_all_with_network` itself and must write the same bytes.

use super::{Outcome, TraceCost, Workload};
use crate::spans::{self, span};
use crate::stats::{digest_bytes, Digest};
use ccube::experiments::{
    extensions, fig01, fig03, fig04, fig12, fig13, fig14, fig15, fig16, fig17, policy_search,
    resilience, scaleout_fabric,
};
use ccube_sim::{NetworkModel, SimOptions};
use std::path::{Path, PathBuf};

/// One figure of the table.
pub struct Figure {
    /// CSV file name.
    pub file: &'static str,
    /// Span name of the driver call: `core.experiments.<csv-stem>`.
    pub layer: &'static str,
    /// Renders the CSV under a network model.
    pub driver: fn(NetworkModel) -> String,
}

/// A [`Figure`] named after its CSV stem.
macro_rules! figure {
    ($stem:literal, $driver:expr) => {
        Figure {
            file: concat!($stem, ".csv"),
            layer: concat!("core.experiments.", $stem),
            driver: $driver,
        }
    };
}

/// The figure table of `ccube figures`, in its order.
pub const TABLE: [Figure; 20] = [
    figure!("fig01_allreduce_ratio", |_| fig01::to_csv(&fig01::run())),
    figure!("fig03_granularity", |_| fig03::to_csv(&fig03::run())),
    figure!("fig04_ring_vs_tree", |_| fig04::to_csv(&fig04::run())),
    figure!("fig12_comm_overlap", |net| fig12::to_csv(&fig12::run_net(
        net
    ))),
    figure!("fig13_overall", |_| fig13::to_csv(&fig13::run())),
    figure!("fig14_scaleout", |net| fig14::to_csv(&fig14::run_net(net))),
    figure!("fig15_detour", |net| fig15::to_csv(&fig15::run_with_net(
        64, net
    ))),
    figure!("fig16_patterns", |_| fig16::to_csv(&fig16::run())),
    figure!("fig17_resnet_layers", |_| fig17::to_csv(&fig17::run(64))),
    figure!("ext_topology_study", |_| extensions::topology_to_csv(
        &extensions::topology_study()
    )),
    figure!("ext_detour_vs_host", |_| extensions::detour_to_csv(
        &extensions::detour_vs_host()
    )),
    figure!("ext_chunk_sensitivity", |_| extensions::chunk_to_csv(
        &extensions::chunk_sensitivity()
    )),
    figure!("ext_cosim_validation", |_| extensions::cosim_to_csv(
        &extensions::cosim_validation()
    )),
    figure!("ext_overlap_strategies", |_| extensions::strategy_to_csv(
        &extensions::overlap_strategy_study()
    )),
    figure!("ext_policy_search", |_| policy_search::to_csv(
        &policy_search::run()
    )),
    figure!("ext_resilience", |net| resilience::to_csv(
        &resilience::run_with_network(resilience::DEFAULT_SEED, 1, net)
    )),
    figure!("ext_fabric_resilience", |_| resilience::fabric_to_csv(
        &resilience::run_fabric()
    )),
    figure!("ext_scaleout_fabric", |_| scaleout_fabric::fabric_to_csv(
        &scaleout_fabric::fabric_study()
    )),
    figure!("ext_nvswitch_sweep", |_| scaleout_fabric::sweep_to_csv(
        &scaleout_fabric::nvswitch_sweep()
    )),
    figure!("ext_torus_sweep", |_| scaleout_fabric::sweep_to_csv(
        &scaleout_fabric::torus_sweep()
    )),
];

/// FNV-1a digest of every CSV `ccube figures` writes, as of the commit
/// that added this benchmark (ChannelApprox network).
pub const RECORDED: [u64; 20] = [
    0xd6af_9157_fd60_93a9,
    0x0a1d_7092_be4e_951e,
    0xda27_37dc_6bbd_6fc9,
    0x0ed1_4d86_5439_33df,
    0x75d1_4414_4c57_5ff4,
    0x2c88_295c_03e0_4bb3,
    0x3216_e513_3bb0_e47a,
    0x6947_9376_9622_bbc5,
    0xc235_aff7_9d68_af50,
    0x3e27_18a8_a24b_e565,
    0x8ef6_e716_769e_97c8,
    0x57c3_a599_cd7b_22c8,
    0xf428_c1aa_b742_15ee,
    0xab9b_ff44_8125_b10b,
    0xa5d5_6cd5_3018_48c6,
    0x52a4_8cda_cb5c_3970,
    0x3656_5e98_2167_6b0d,
    0xefbb_759c_6f56_c6f8,
    0x9c73_e9da_dbc8_b544,
    0xb56e_0677_224b_1b34,
];

/// Figures that have byte goldens under `tests/data/`.
pub const GOLDENS: [(&str, &str); 5] = [
    ("ext_resilience.csv", "ext_resilience_golden.csv"),
    (
        "ext_fabric_resilience.csv",
        "ext_fabric_resilience_golden.csv",
    ),
    ("ext_scaleout_fabric.csv", "ext_scaleout_fabric_golden.csv"),
    ("ext_nvswitch_sweep.csv", "ext_nvswitch_sweep_golden.csv"),
    ("ext_torus_sweep.csv", "ext_torus_sweep_golden.csv"),
];

/// Where the byte goldens live, relative to the repository root.
const GOLDEN_DIR: &str = "tests/data";

/// Checks the CSV of figure `i`: its recorded digest and, where one
/// exists, its byte golden.
pub fn check_csv(i: usize, bytes: &[u8]) -> Option<String> {
    let name = TABLE[i].file;
    let digest = digest_bytes(bytes);
    if digest != RECORDED[i] {
        return Some(format!(
            "{name}: digest {digest:016x}, recorded {:016x}",
            RECORDED[i]
        ));
    }
    let &(_, golden) = GOLDENS.iter().find(|&&(n, _)| n == name)?;
    match std::fs::read(Path::new(GOLDEN_DIR).join(golden)) {
        Ok(g) if g == bytes => None,
        Ok(_) => Some(format!("{name}: differs from {GOLDEN_DIR}/{golden}")),
        Err(e) => Some(format!("{name}: cannot read {GOLDEN_DIR}/{golden}: {e}")),
    }
}

/// The `figures` workload.
pub struct Figures {
    dir: PathBuf,
}

impl Figures {
    /// Writes CSVs under `out/figures`.
    pub fn new(out: &Path) -> Self {
        Figures {
            dir: out.join("figures"),
        }
    }
}

impl Workload for Figures {
    fn len(&self) -> usize {
        TABLE.len()
    }

    fn run_point(&self, i: usize) -> Outcome {
        let Figure {
            file,
            layer,
            driver,
        } = TABLE[i];
        let csv = span(layer, || driver(NetworkModel::ChannelApprox));
        let mut out = Outcome {
            digest: digest_bytes(csv.as_bytes()),
            ..Outcome::default()
        };
        if let Err(e) = std::fs::create_dir_all(&self.dir)
            .and_then(|()| std::fs::write(self.dir.join(file), csv.as_bytes()))
        {
            out.error = Some(format!("{file}: write failed: {e}"));
        } else {
            out.error = check_csv(i, csv.as_bytes());
        }
        out
    }

    fn recorded_digest(&self) -> Option<u64> {
        None
    }

    fn hidden_events(&self) -> Option<Result<u64, String>> {
        let (csv, counters) = fig14_replica(&SimOptions::scale_out());
        Some(match check_replica(&csv) {
            None => Ok(counters.events),
            Some(e) => Err(e),
        })
    }

    fn trace_overhead(&self) -> TraceCost {
        let was = spans::enabled();
        spans::set_enabled(true);
        // Alternated, and the faster of two replays of each setting
        // kept: one replay takes about a second and host noise between
        // two of them is of the order of the overhead itself.
        let mut best = [f64::INFINITY; 2];
        let mut errors = Vec::new();
        let mut replay = None;
        for _ in 0..2 {
            for (slot, opts) in [
                (0, SimOptions::scale_out().without_trace()),
                (1, SimOptions::scale_out()),
            ] {
                let (csv, counters) = fig14_replica(&opts);
                let spans = spans::take();
                best[slot] = best[slot].min(spans::total_ms(&spans, "sim.simulate"));
                errors.extend(check_replica(&csv));
                if slot == 1 {
                    replay = Some((counters, spans));
                }
            }
        }
        spans::set_enabled(was);
        TraceCost {
            overhead_ms: best[1] - best[0],
            replay,
            errors,
        }
    }
}

/// Checks the Fig. 14 replica's CSV against the figure's recorded digest.
fn check_replica(csv: &str) -> Option<String> {
    let digest = digest_bytes(csv.as_bytes());
    (digest != RECORDED[5]).then(|| {
        format!(
            "fig14 replica: digest {digest:016x}, recorded {:016x}",
            RECORDED[5]
        )
    })
}

/// One fresh-process set-up as the CLI does it: `run_all_with_network`
/// on one worker into `dir`, then every CSV checked. Returns the digest
/// over the per-file digests, the files expected, and the files failed.
pub fn run_all_cli(dir: &Path) -> Result<(u64, usize, usize), String> {
    ccube::experiments::run_all_with_network(dir, 1, NetworkModel::ChannelApprox)
        .map_err(|e| format!("run_all_with_network: {e}"))?;
    let mut d = Digest::default();
    let mut failed = 0;
    for (i, fig) in TABLE.iter().enumerate() {
        let problem = match std::fs::read(dir.join(fig.file)) {
            Ok(bytes) => {
                d.word(digest_bytes(&bytes));
                check_csv(i, &bytes)
            }
            Err(e) => Some(format!("{}: {e}", fig.file)),
        };
        if let Some(e) = problem {
            eprintln!("{e}");
            failed += 1;
        }
    }
    Ok((d.finish(), TABLE.len(), failed))
}

/// The Fig. 14 grid simulated call by call, the way `fig14::run_net`
/// does it, under `opts` (the driver's own options are
/// `SimOptions::scale_out()`, trace on). The figure driver hides its
/// `SimStats`; this replica exposes them (for `events_per_s` and the
/// `sim.*` layers on this workload) and renders the same CSV, which the
/// caller checks against the recorded digest.
pub fn fig14_replica(opts: &SimOptions) -> (String, super::Counters) {
    use super::{build_schedule, embed_nic, Algo};
    use ccube_topology::{hierarchical, ByteSize};
    let mut counters = super::Counters::default();
    let mut rows = Vec::new();
    for p in [4usize, 8, 16, 32, 64, 128, 256] {
        for n in [ByteSize::kib(16), ByteSize::mib(1), ByteSize::mib(64)] {
            let k = fig14::chunk_count(n);
            let mut run = |algo| {
                let s = build_schedule(algo, p, n, k);
                counters.transfers += s.transfers().len() as u64;
                let topo = span("topology", || hierarchical(p));
                let e = embed_nic(&topo, &s);
                let r = span("sim.simulate", || ccube_sim::simulate(&topo, &s, &e, opts))
                    .expect("fig14 point simulates");
                counters.add_stats(r.stats(), r.trace().len());
                r
            };
            let (ring, c1, b) = (run(Algo::Ring), run(Algo::C1), run(Algo::B));
            rows.push(fig14::Row {
                p,
                n,
                k,
                t_ring: ring.makespan(),
                t_c1: c1.makespan(),
                t_b: b.makespan(),
                c1_over_ring: ring.makespan() / c1.makespan(),
                turnaround_speedup: b.turnaround() / c1.turnaround(),
            });
        }
    }
    (fig14::to_csv(&rows), counters)
}
