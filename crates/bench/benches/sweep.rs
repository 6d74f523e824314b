//! Sweep-executor and DES hot-path benchmark.
//!
//! Not a criterion harness: this bench measures wall-clock scaling of
//! the parallel sweep executor against its serial output (which the
//! golden tests prove bit-identical) plus the single-run kernel rates
//! with tracing on and off, and writes the numbers to
//! `BENCH_sweep.json` at the repository root so the results are
//! machine-readable.
//!
//! ```text
//! cargo bench -p ccube-bench --bench sweep
//! ```

use ccube::experiments::fig14;
use ccube_collectives::{ring_allreduce, Embedding};
use ccube_sim::{simulate, FabricSpec, SimOptions};
use ccube_topology::{hierarchical, ByteSize, Seconds};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// [`System`] with a call counter: the per-point allocation figures in
/// the `prep_cache` block come from deltas of [`ALLOCS`]. Bench binary
/// only — the library crates stay `forbid(unsafe_code)`.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations performed by one serial pass over the fig14 grid.
fn grid_allocs(ps: &[usize], ns: &[ByteSize]) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    std::hint::black_box(fig14::run_with_threads(ps, ns, 1));
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Median wall-clock seconds of `reps` runs of `f`.
fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn json_f(x: f64) -> String {
    format!("{x:.6}")
}

fn main() {
    // `cargo bench` passes --bench; an explicit --quick shrinks the reps
    // for smoke runs.
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 5 };

    // --- Sweep scaling: the Fig. 14 grid, serial vs parallel. ---------
    let ps = [4usize, 8, 16, 32, 64];
    let ns = [ByteSize::kib(16), ByteSize::mib(1), ByteSize::mib(16)];
    let points = ps.len() * ns.len();
    let serial_rows = fig14::run_with_threads(&ps, &ns, 1);

    let t_serial = median_secs(reps, || {
        assert_eq!(fig14::run_with_threads(&ps, &ns, 1).len(), points);
    });
    println!(
        "sweep fig14 grid  {points} points  serial          {:>8.1} ms  {:>8.1} points/s",
        t_serial * 1e3,
        points as f64 / t_serial
    );

    let mut parallel_json = Vec::new();
    for threads in [2usize, 4, 8] {
        let t = median_secs(reps, || {
            let rows = fig14::run_with_threads(&ps, &ns, threads);
            assert_eq!(rows, serial_rows, "parallel sweep diverged from serial");
        });
        let speedup = t_serial / t;
        println!(
            "sweep fig14 grid  {points} points  {threads} workers  {:>8.1} ms  {:>8.1} points/s  x{speedup:.2}",
            t * 1e3,
            points as f64 / t
        );
        parallel_json.push(format!(
            "{{\"threads\":{threads},\"secs\":{},\"points_per_sec\":{},\"speedup_vs_serial\":{}}}",
            json_f(t),
            json_f(points as f64 / t),
            json_f(speedup)
        ));
    }

    // --- Preparation cache: cold vs warm over the same grid. ----------
    // Cold disables the cache (every point re-lowers and re-gates, the
    // pre-PR behaviour); warm runs with the cache primed. One counted
    // pass each also records heap allocations per point.
    ccube_sim::set_prep_cache_enabled(false);
    let t_prep_cold = median_secs(reps, || {
        assert_eq!(fig14::run_with_threads(&ps, &ns, 1).len(), points);
    });
    let cold_allocs = grid_allocs(&ps, &ns) / points as u64;
    ccube_sim::set_prep_cache_enabled(true);
    ccube_sim::reset_prep_cache();
    let warm_rows = fig14::run_with_threads(&ps, &ns, 1); // prime
    assert_eq!(warm_rows, serial_rows, "prep cache changed sweep results");
    let misses = ccube_sim::prep_cache_stats().misses;
    let t_prep_warm = median_secs(reps, || {
        assert_eq!(fig14::run_with_threads(&ps, &ns, 1).len(), points);
    });
    let warm_allocs = grid_allocs(&ps, &ns) / points as u64;
    let hits = ccube_sim::prep_cache_stats().hits;
    println!(
        "prep fig14 grid  {points} points  cache off  {:>8.1} ms  {:>8.1} points/s  {cold_allocs} allocs/pt",
        t_prep_cold * 1e3,
        points as f64 / t_prep_cold
    );
    println!(
        "prep fig14 grid  {points} points  cache warm {:>8.1} ms  {:>8.1} points/s  {warm_allocs} allocs/pt  x{:.2}",
        t_prep_warm * 1e3,
        points as f64 / t_prep_warm,
        t_prep_cold / t_prep_warm
    );

    // --- Kernel rate: one large scale-out run, trace on vs off. -------
    let p = 64;
    let topo = hierarchical(p);
    let s = ring_allreduce(p, ByteSize::mib(16));
    let e = Embedding::nic(&topo, &s).unwrap();
    let traced = SimOptions::scale_out();
    let untraced = SimOptions::scale_out().without_trace();
    let events = simulate(&topo, &s, &e, &traced)
        .unwrap()
        .stats()
        .events_processed;

    let t_on = median_secs(reps, || {
        std::hint::black_box(simulate(&topo, &s, &e, &traced).unwrap());
    });
    let t_off = median_secs(reps, || {
        std::hint::black_box(simulate(&topo, &s, &e, &untraced).unwrap());
    });
    println!(
        "kernel hier64 ring  {events} events  trace on   {:>8.1} ms  {:>10.0} events/s",
        t_on * 1e3,
        events as f64 / t_on
    );
    println!(
        "kernel hier64 ring  {events} events  trace off  {:>8.1} ms  {:>10.0} events/s  x{:.2}",
        t_off * 1e3,
        events as f64 / t_off,
        t_on / t_off
    );

    // --- Switch-fabric rate: the same run on the switch-fabric model. -
    // Passthrough processes the same event count as the approximation
    // (the equivalence contract); the split fabric adds uplink hops, so
    // its events/sec is the network layer's overhead figure.
    let passthrough = SimOptions::scale_out().without_trace().with_network(
        ccube_sim::NetworkModel::SwitchFabric(FabricSpec::passthrough()),
    );
    let split = SimOptions::scale_out().without_trace().with_network(
        ccube_sim::NetworkModel::SwitchFabric(FabricSpec {
            radix: Some(8),
            oversubscription: 2.0,
            uplink_latency: Seconds::from_micros(1.0),
            ..FabricSpec::passthrough()
        }),
    );
    let split_events = simulate(&topo, &s, &e, &split)
        .unwrap()
        .stats()
        .events_processed;
    let t_pass = median_secs(reps, || {
        std::hint::black_box(simulate(&topo, &s, &e, &passthrough).unwrap());
    });
    let t_split = median_secs(reps, || {
        std::hint::black_box(simulate(&topo, &s, &e, &split).unwrap());
    });
    println!(
        "fabric hier64 ring  {events} events  passthrough {:>7.1} ms  {:>10.0} events/s  x{:.2} vs approx",
        t_pass * 1e3,
        events as f64 / t_pass,
        t_off / t_pass
    );
    println!(
        "fabric hier64 ring  {split_events} events  radix8/2:1  {:>7.1} ms  {:>10.0} events/s",
        t_split * 1e3,
        split_events as f64 / t_split
    );

    // --- Policy-search bound pruning: DES runs paid with and without
    // the certified lower bounds (surviving rows provably identical).
    let full_start = Instant::now();
    let full = ccube::experiments::policy_search::run_full(1);
    let t_search_full = full_start.elapsed().as_secs_f64();
    let bounded_start = Instant::now();
    let bounded = ccube::experiments::policy_search::run_bounded();
    let t_search_bounded = bounded_start.elapsed().as_secs_f64();
    assert!(
        bounded.rows.iter().all(|r| full.rows.contains(r)),
        "bounded search rows diverged from the full grid"
    );
    println!(
        "search bound-pruning  {} candidates  full {} sims {:>6.2} s  bounded {} sims {:>6.2} s",
        bounded.candidates,
        full.rows.len(),
        t_search_full,
        bounded.simulated,
        t_search_bounded
    );

    // --- Machine-readable record at the repository root. --------------
    // The host block makes the "no speedup on a 1-core box" caveat
    // self-documenting: speedups are meaningless without the
    // parallelism the run actually had available.
    let json = format!(
        "{{\n  \"host\": {{\n    \"available_parallelism\": {},\n    \"sweep_workers\": {},\n    \"threads_benchmarked\": [1,2,4,8]\n  }},\n  \"sweep\": {{\n    \"grid\": \"fig14 {}x{}\",\n    \"points\": {},\n    \"serial_secs\": {},\n    \"serial_points_per_sec\": {},\n    \"parallel\": [{}]\n  }},\n  \"prep_cache\": {{\n    \"grid\": \"fig14 serial\",\n    \"cold_secs\": {},\n    \"cold_points_per_sec\": {},\n    \"cold_allocs_per_point\": {},\n    \"warm_secs\": {},\n    \"warm_points_per_sec\": {},\n    \"warm_allocs_per_point\": {},\n    \"speedup_warm_vs_cold\": {},\n    \"misses_first_pass\": {},\n    \"hits_after_priming\": {}\n  }},\n  \"kernel\": {{\n    \"workload\": \"hier64 ring 16MiB\",\n    \"events\": {},\n    \"trace_on_secs\": {},\n    \"trace_on_events_per_sec\": {},\n    \"trace_off_secs\": {},\n    \"trace_off_events_per_sec\": {},\n    \"speedup_trace_off\": {}\n  }},\n  \"fabric\": {{\n    \"workload\": \"hier64 ring 16MiB\",\n    \"passthrough_events\": {},\n    \"passthrough_secs\": {},\n    \"passthrough_events_per_sec\": {},\n    \"split_spec\": \"radix 8, oversubscription 2.0, uplink 1us\",\n    \"split_events\": {},\n    \"split_secs\": {},\n    \"split_events_per_sec\": {}\n  }},\n  \"bound_pruning\": {{\n    \"grid\": \"policy_search\",\n    \"candidates\": {},\n    \"simulated_full\": {},\n    \"simulated_bounded\": {},\n    \"skipped_by_bound\": {},\n    \"full_secs\": {},\n    \"bounded_secs\": {},\n    \"rows_identical\": true\n  }}\n}}\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        ccube_sim::available_threads(),
        ps.len(),
        ns.len(),
        points,
        json_f(t_serial),
        json_f(points as f64 / t_serial),
        parallel_json.join(","),
        json_f(t_prep_cold),
        json_f(points as f64 / t_prep_cold),
        cold_allocs,
        json_f(t_prep_warm),
        json_f(points as f64 / t_prep_warm),
        warm_allocs,
        json_f(t_prep_cold / t_prep_warm),
        misses,
        hits,
        events,
        json_f(t_on),
        json_f(events as f64 / t_on),
        json_f(t_off),
        json_f(events as f64 / t_off),
        json_f(t_on / t_off),
        events,
        json_f(t_pass),
        json_f(events as f64 / t_pass),
        split_events,
        json_f(t_split),
        json_f(split_events as f64 / t_split),
        bounded.candidates,
        full.rows.len(),
        bounded.simulated,
        bounded.skipped.len(),
        json_f(t_search_full),
        json_f(t_search_bounded)
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    std::fs::write(path, json).expect("write BENCH_sweep.json");
    println!("wrote {path}");
}
