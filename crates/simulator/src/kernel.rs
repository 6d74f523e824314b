//! The discrete-event kernel under the crate's one scheduler, and the
//! deterministic RNG every seeded sampler draws from.
//!
//! `Kernel` is a deterministic future-event queue whose pop order is the
//! total order `(time, key, sequence)`: `key` is a caller-chosen
//! priority (the scheduler's node and fault keys), and the monotone
//! `sequence` number makes the order total even for identical
//! `(time, key)` pairs, so replays are bit-identical run to run.
//!
//! Determinism contract: a kernel fed the same `schedule` calls in the
//! same order pops the same events at the same times, and a [`SimRng`]
//! with the same seed returns the same draws. Nothing here reads
//! wall-clock time or ambient randomness.

use ccube_topology::Seconds;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Deterministic simulation RNG (splitmix64).
///
/// Small, fast, and seedable — every stream of draws is a pure function
/// of the seed, which is what replayable simulation needs. Not
/// cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates an RNG from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A value uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of the raw draw.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An independent RNG derived from this one's seed and `stream`.
    /// Forked streams are stable: the same `(seed, stream)` always
    /// yields the same sequence, regardless of draws on `self`.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut probe = SimRng {
            state: self.state ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93),
        };
        SimRng::new(probe.next_u64())
    }
}

/// Counters the kernel maintains while running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct KernelStats {
    /// Events pushed into the queue over the whole run.
    pub(crate) events_scheduled: u64,
    /// Events popped and handed to the caller.
    pub(crate) events_processed: u64,
    /// High-water mark of the future-event queue.
    pub(crate) max_queue_depth: usize,
}

/// One scheduled event; the ordering ignores the payload.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: Seconds,
    key: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.key, self.seq).cmp(&(other.time, other.key, other.seq))
    }
}

/// A deterministic future-event queue with a simulation clock.
///
/// `E` is the event payload type; the kernel never inspects it.
#[derive(Debug, Clone)]
pub(crate) struct Kernel<E> {
    now: Seconds,
    seq: u64,
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    stats: KernelStats,
}

impl<E> Kernel<E> {
    /// A kernel starting at `t = 0`.
    pub(crate) fn new() -> Self {
        Kernel {
            now: Seconds::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            stats: KernelStats::default(),
        }
    }

    /// Rewinds the kernel to a fresh `t = 0` state, keeping the event
    /// heap's allocation. A reset kernel is observationally identical to
    /// `Kernel::new()` — same clock, sequence counter and stats — so a
    /// run on a recycled kernel replays bit-identically.
    pub(crate) fn reset(&mut self) {
        self.now = Seconds::ZERO;
        self.seq = 0;
        self.heap.clear();
        self.stats = KernelStats::default();
    }

    /// The current simulation time (the timestamp of the last popped
    /// event).
    pub(crate) fn now(&self) -> Seconds {
        self.now
    }

    /// Schedules `event` at absolute `time` with tie-break priority
    /// `key`. Events at equal `(time, key)` pop in scheduling order.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `time` is before the current clock — the past
    /// is immutable in a DES.
    pub(crate) fn schedule(&mut self, time: Seconds, key: u64, event: E) {
        debug_assert!(time >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            time,
            key,
            seq,
            event,
        }));
        self.stats.events_scheduled += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.heap.len());
    }

    /// Pops the next event with its key, advancing the clock to its
    /// timestamp.
    pub(crate) fn pop(&mut self) -> Option<(Seconds, u64, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.now = s.time;
        self.stats.events_processed += 1;
        Some((s.time, s.key, s.event))
    }

    /// The kernel's counters.
    pub(crate) fn stats(&self) -> KernelStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_key_seq_order() {
        let mut k: Kernel<u32> = Kernel::new();
        let t = Seconds::from_micros(5.0);
        k.schedule(t, 2, 102);
        k.schedule(t, 1, 101);
        k.schedule(Seconds::from_micros(1.0), 9, 9);
        k.schedule(t, 1, 201); // same (time, key): scheduling order wins
        let order: Vec<u32> = std::iter::from_fn(|| k.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![9, 101, 201, 102]);
    }

    #[test]
    fn clock_is_monotone_and_stats_count() {
        let mut k: Kernel<()> = Kernel::new();
        for i in 0..10u64 {
            k.schedule(Seconds::from_micros(10.0 - i as f64), 0, ());
        }
        let mut prev = Seconds::ZERO;
        while let Some((t, _, ())) = k.pop() {
            assert!(t >= prev);
            prev = t;
        }
        let s = k.stats();
        assert_eq!(s.events_scheduled, 10);
        assert_eq!(s.events_processed, 10);
        assert_eq!(s.max_queue_depth, 10);
    }

    #[test]
    fn rng_is_deterministic_and_forkable() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
            let _ = b.next_f64();
        }
        let mut f1 = SimRng::new(42).fork(3);
        let mut f2 = SimRng::new(42).fork(3);
        let mut f3 = SimRng::new(42).fork(4);
        assert_eq!(f1.next_u64(), f2.next_u64());
        assert_ne!(f1.next_u64(), f3.next_u64());
    }

    #[test]
    fn pops_earliest_first_and_advances_the_clock() {
        let mut k: Kernel<&str> = Kernel::new();
        k.schedule(Seconds::from_micros(2.0), 0, "late");
        k.schedule(Seconds::from_micros(1.0), 0, "early");
        assert_eq!(k.pop().unwrap().2, "early");
        assert_eq!(k.now(), Seconds::from_micros(1.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn kernel_pops_any_event_set_in_total_order(
            times in prop::collection::vec(0u64..1000, 1..64),
        ) {
            // Whatever the insertion order, events pop sorted by
            // (time, key, seq) — replaying the same set twice gives the
            // same sequence.
            let mut runs = Vec::new();
            for _ in 0..2 {
                let mut kernel: Kernel<usize> = Kernel::new();
                for (i, &t) in times.iter().enumerate() {
                    kernel.schedule(Seconds::from_micros(t as f64), t % 7, i);
                }
                let mut popped = Vec::new();
                while let Some((at, key, ev)) = kernel.pop() {
                    popped.push((at, key, ev));
                }
                prop_assert_eq!(popped.len(), times.len());
                for w in popped.windows(2) {
                    prop_assert!(w[0].0 <= w[1].0, "clock went backwards");
                }
                runs.push(popped);
            }
            prop_assert_eq!(&runs[0], &runs[1]);
        }
    }
}
