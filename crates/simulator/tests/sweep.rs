//! Determinism of the parallel sweep executor.
//!
//! [`sweep`] promises that the output is bit-identical to a serial run
//! regardless of the worker count — these tests exercise that promise
//! on real simulations (not just toy closures), pin down the RNG
//! forking rule that makes seeded sweeps order-independent, and check
//! the worker budget nested sweeps share with the outermost one.

use ccube_collectives::{ring_allreduce, Embedding};
use ccube_sim::kernel::SimRng;
use ccube_sim::sweep::{sweep, sweep_seeded};
use ccube_sim::{prep_cache_stats, reset_prep_cache, simulate, SimOptions, SimReport};
use ccube_topology::{dgx1, ByteSize};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier};
use std::thread::ThreadId;
use std::time::Duration;

/// A small but real sweep: ring AllReduce on DGX-1 over a grid of
/// message sizes, with and without tracing.
fn simulate_point(kib: u64, traced: bool) -> SimReport {
    let topo = dgx1();
    let schedule = ring_allreduce(8, ByteSize::kib(kib));
    let emb = Embedding::identity(&topo, &schedule).unwrap();
    let opts = if traced {
        SimOptions::default()
    } else {
        SimOptions::default().without_trace()
    };
    simulate(&topo, &schedule, &emb, &opts).unwrap()
}

#[test]
fn parallel_simulation_sweep_is_bit_identical_to_serial() {
    let points: Vec<u64> = (1..=48).map(|i| i * 37).collect();
    let serial = sweep(&points, 1, |_, &kib| simulate_point(kib, true));
    for threads in [2, 3, 8] {
        let parallel = sweep(&points, threads, |_, &kib| simulate_point(kib, true));
        assert_eq!(serial, parallel, "{threads} workers diverged from serial");
    }
}

#[test]
fn trace_off_fast_path_preserves_timings() {
    let points: Vec<u64> = (1..=16).map(|i| i * 91).collect();
    let traced = sweep(&points, 4, |_, &kib| simulate_point(kib, true));
    let untraced = sweep(&points, 4, |_, &kib| simulate_point(kib, false));
    for (a, b) in traced.iter().zip(&untraced) {
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.timings(), b.timings());
        assert_eq!(a.stats(), b.stats());
        assert!(b.trace().records().next().is_none());
    }
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Runs `body` on its own thread and fails the test if it neither
/// returns nor panics within the watchdog timeout (a hung sweep).
fn within_watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        let _ = tx.send(result);
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Ok(value)) => value,
        Ok(Err(panic)) => std::panic::resume_unwind(panic),
        Err(_) => panic!("sweep hung past the watchdog timeout"),
    }
}

/// Counts points in flight and remembers the most seen at once.
#[derive(Default)]
struct Gauge {
    now: AtomicUsize,
    peak: AtomicUsize,
}

impl Gauge {
    fn run<R>(&self, work: impl FnOnce() -> R) -> R {
        let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        let out = work();
        self.now.fetch_sub(1, Ordering::SeqCst);
        out
    }
}

/// A few microseconds of real work, so points overlap when they can.
fn spin(seed: usize) -> u64 {
    (0..20_000u64).fold(seed as u64, |acc, x| {
        std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(x))
    })
}

#[test]
fn nested_sweeps_return_input_order_at_every_worker_count() {
    let outer: Vec<usize> = (0..12).collect();
    let inner: Vec<usize> = (0..9).collect();
    let expected: Vec<Vec<usize>> = outer
        .iter()
        .map(|o| inner.iter().map(|i| o * 100 + i).collect())
        .collect();
    for outer_threads in WORKER_COUNTS {
        for inner_threads in WORKER_COUNTS {
            let got = sweep(&outer, outer_threads, |_, &o| {
                sweep(&inner, inner_threads, |_, &i| o * 100 + i)
            });
            assert_eq!(
                got, expected,
                "outer {outer_threads}, inner {inner_threads}"
            );
        }
    }
}

#[test]
fn nested_points_never_exceed_the_outer_worker_budget() {
    let outer: Vec<usize> = (0..8).collect();
    let inner: Vec<usize> = (0..16).collect();
    for outer_threads in WORKER_COUNTS {
        let gauge = Gauge::default();
        sweep(&outer, outer_threads, |_, &o| {
            gauge.run(|| spin(o));
            sweep(&inner, 8, |_, &i| {
                gauge.run(|| spin(i));
                // A third level draws on the same budget.
                sweep(&[o, i], 8, |_, &x| gauge.run(|| spin(x)))
            })
        });
        let peak = gauge.peak.load(Ordering::SeqCst);
        assert!(
            (1..=outer_threads).contains(&peak),
            "{peak} points ran at once under an outer budget of {outer_threads}"
        );
    }
}

#[test]
fn a_serial_outer_sweep_runs_every_nested_point_on_the_caller() {
    let outer: Vec<usize> = (0..6).collect();
    let inner: Vec<usize> = (0..10).collect();
    let caller = std::thread::current().id();
    let ids: Vec<Vec<Vec<ThreadId>>> = sweep(&outer, 1, |_, _| {
        sweep(&inner, 8, |_, _| {
            sweep(&[0u8; 3], 8, |_, _| std::thread::current().id())
        })
    });
    assert!(ids.iter().flatten().flatten().all(|&id| id == caller));
}

#[test]
fn a_nested_panic_propagates_without_hanging() {
    let outcome = within_watchdog(|| {
        std::panic::catch_unwind(|| {
            let outer: Vec<usize> = (0..4).collect();
            let inner: Vec<usize> = (0..32).collect();
            // Both outer workers sit inside nested sweeps whose helpers
            // wait for a slot that never frees while the panic unwinds.
            sweep(&outer, 2, |_, &o| {
                sweep(&inner, 8, |_, &i| {
                    assert!(!(o == 1 && i == 5), "nested boom");
                    spin(i)
                })
            })
        })
        .is_err()
    });
    assert!(
        outcome,
        "the nested panic did not reach the top-level caller"
    );

    // A serial outer sweep that unwound must not leave its one-slot
    // budget behind: the next top-level sweep on the thread gets both
    // workers (the barrier needs two points in flight at once).
    within_watchdog(|| {
        let serial = std::panic::catch_unwind(|| {
            sweep(&[0u8, 1], 1, |_, &p| assert!(p == 0, "serial boom"))
        });
        assert!(serial.is_err());
        let barrier = Barrier::new(2);
        sweep(&[0u8, 1], 2, |_, _| {
            barrier.wait();
        });
    });
}

#[test]
fn a_finished_outer_caller_frees_its_slot_for_a_nested_sweep() {
    within_watchdog(|| {
        let caller = std::thread::current().id();
        let outer_barrier = Barrier::new(2);
        let inner_barrier = Barrier::new(2);
        sweep(&[0u8, 1], 2, |_, _| {
            // Both outer points run at once, one on the caller.
            outer_barrier.wait();
            if std::thread::current().id() != caller {
                // Two inner points in flight at once need the slot the
                // caller holds until its outer point returns.
                sweep(&[0u8, 1], 2, |_, _| {
                    inner_barrier.wait();
                });
            }
        });
    });
}

#[test]
fn nested_simulation_sweeps_count_every_preparation() {
    let outer: Vec<u64> = (1..=4).collect();
    let inner: Vec<u64> = (1..=6).collect();
    let mut totals = Vec::new();
    for threads in WORKER_COUNTS {
        reset_prep_cache();
        let reports = sweep(&outer, threads, |_, &o| {
            sweep(&inner, threads, |_, &i| simulate_point(o * 64 + i, false))
        });
        assert_eq!(reports.len(), outer.len());
        let stats = prep_cache_stats();
        totals.push(stats.hits + stats.misses);
    }
    assert_eq!(totals, vec![(4 * 6) as u64; WORKER_COUNTS.len()]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forked streams are a pure function of `(seed, index)`: the order
    /// in which forks are taken — and how many draws other forks make —
    /// never changes a fork's output.
    #[test]
    fn fork_streams_are_independent_of_execution_order(
        seed in 0u64..u64::MAX,
        indices in prop::collection::vec(0u64..1024, 1..32),
        draws in prop::collection::vec(1usize..16, 1..32),
    ) {
        let draw_stream = |i: u64, n: usize| -> Vec<u64> {
            let mut rng = SimRng::new(seed).fork(i);
            (0..n).map(|_| rng.next_u64()).collect()
        };

        // Reference: fork each index in ascending order, one draw each.
        let mut indices = indices;
        indices.sort_unstable();
        indices.dedup();
        let reference: Vec<Vec<u64>> =
            indices.iter().map(|&i| draw_stream(i, 1)).collect();

        // Same forks taken in reverse, with varying draw counts per
        // stream: the first draw of each stream must be unchanged.
        for (pos, &i) in indices.iter().enumerate().rev() {
            let n = draws[pos % draws.len()];
            let stream = draw_stream(i, n);
            prop_assert_eq!(stream[0], reference[pos][0]);
        }

        // Distinct indices get distinct streams (splitmix64 is a
        // bijection, so first draws of distinct forks never collide).
        let mut firsts: Vec<u64> = reference.iter().map(|s| s[0]).collect();
        firsts.sort_unstable();
        firsts.dedup();
        prop_assert_eq!(firsts.len(), indices.len());
    }

    /// `sweep_seeded` hands every point the same fork no matter how many
    /// workers run the sweep.
    #[test]
    fn seeded_sweep_is_worker_count_invariant(
        seed in 0u64..u64::MAX,
        len in 1usize..128,
        threads in 2usize..12,
    ) {
        let points: Vec<usize> = (0..len).collect();
        let draw = |_: usize, _: &usize, mut rng: SimRng| rng.next_u64();
        let serial = sweep_seeded(&points, seed, 1, draw);
        let parallel = sweep_seeded(&points, seed, threads, draw);
        prop_assert_eq!(serial, parallel);
    }
}
