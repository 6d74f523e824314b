//! The one event loop behind every simulator entry point.
//!
//! [`simulate`](crate::simulate), [`simulate_system`](crate::simulate_system),
//! [`simulate_faulted`](crate::simulate_faulted) and
//! [`simulate_system_faulted`](crate::simulate_system_faulted) are thin
//! wrappers: each borrows its input as a [`Job`], names its [`Entry`],
//! and shapes the [`Outcome`] into its report. The scheduler owns the
//! dependency bookkeeping over transfers and compute tasks, the
//! [`ChannelPool`] arbitration, one exclusive [`ComputeStream`] per GPU
//! and the [`Kernel`] event order, plus two optional layers:
//!
//! * the **network layer** (`NetworkModel::SwitchFabric`): port paths in
//!   place of channel paths, fabric durations, the store-and-forward hop
//!   split, grant-time uplink revision and per-switch queue depths;
//! * the **fault layer** (a non-empty [`FaultPlan`]): boundary events
//!   keyed below traffic, generation-counted rescales of in-flight work,
//!   reroute and failover passes that visit only the transfers a
//!   boundary can affect (per-channel and spine-crossing indexes), and
//!   the `Unroutable` diagnosis.
//!
//! Event order is the kernel's `(time, key, seq)`: a transfer hop's
//! completion is keyed `NODE_KEYS + (hop << 1)`, a compute task's
//! `NODE_KEYS + (task << 1 | 1)`, and a fault boundary by its plan index,
//! below `NODE_KEYS`, so a boundary at `t` is visible to all traffic at
//! `t`. Hops are dense in transfer order, so without the store-and-forward
//! split hop id equals transfer id. A completion unblocks its dependents
//! before the resources it freed are served.
//!
//! Two facts differ by entry point and are set here, never by users:
//!
//! | entry | store-and-forward | grant-time uplink revision |
//! |---|---|---|
//! | `simulate` | one pool task per port hop | under cut-through |
//! | `simulate_system`, empty-plan `simulate_*faulted` | whole port path, summed hop time | no |
//! | non-empty-plan `simulate_*faulted` | whole port path, summed hop time | both hop modes |

use crate::engine::SimOptions;
use crate::error::SimError;
use crate::fabric::{choose_uplinks, has_crossing, HopMode, NetworkModel, UplinkPolicy};
use crate::faults::{channel_users, FaultEvent, FaultPlan};
use crate::kernel::Kernel;
use crate::report::{SimStats, TransferTiming};
use crate::resource::{ChannelPool, ComputeStream};
use crate::system::{ComputeTask, ComputeTaskId, SystemJob};
use crate::trace::{BusyInterval, SimTrace, TraceRecord};
use ccube_collectives::{Embedding, LinkTiming, Schedule, TransferId, TransferSpec};
use ccube_topology::{
    ByteSize, ChannelClass, ChannelId, FabricGraph, GpuId, PortId, Router, Seconds, SwitchId,
    Topology,
};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// What one run executes: transfers plus optional compute tasks and
/// compute→transfer gates, all borrowed.
pub(crate) struct Job<'a> {
    pub(crate) schedule: &'a Schedule,
    pub(crate) compute: &'a [ComputeTask],
    pub(crate) gates: &'a [(TransferId, ComputeTaskId)],
}

impl<'a> Job<'a> {
    /// A communication-only job.
    pub(crate) fn transfers(schedule: &'a Schedule) -> Self {
        Job {
            schedule,
            compute: &[],
            gates: &[],
        }
    }

    /// A borrowed [`SystemJob`].
    pub(crate) fn system(job: &'a SystemJob) -> Self {
        Job {
            schedule: &job.schedule,
            compute: &job.compute,
            gates: &job.transfer_gates,
        }
    }
}

/// The public entry point a run serves; it fixes the hop split, the
/// grant-time revision rule and the report shape (module table).
#[derive(Clone, Copy)]
pub(crate) enum Entry<'a> {
    Simulate,
    System,
    /// A system run under a non-empty plan: the fault layer is on.
    Faulted(&'a FaultPlan),
}

/// Fault boundaries are keyed by plan index; every traffic key is offset
/// past them.
const NODE_KEYS: u64 = 1 << 32;
const NO_HOP: u32 = u32::MAX;

/// A popped event. The kernel stores only the key and a `u32` payload:
/// the key names the node (a fault's plan index below `NODE_KEYS`, then
/// hops at even and compute tasks at odd offsets) and the payload is the
/// completion generation, or whether a fault boundary starts or ends.
/// Stale generations are rescheduled completions and get ignored.
enum Ev {
    FaultStart(u32),
    FaultEnd(u32),
    Hop(u32, u32),
    Compute(u32, u32),
}

const FAULT_END: u32 = 0;
const FAULT_START: u32 = 1;

impl Ev {
    fn decode(key: u64, payload: u32) -> Ev {
        if key < NODE_KEYS {
            let i = key as u32;
            if payload == FAULT_START {
                Ev::FaultStart(i)
            } else {
                Ev::FaultEnd(i)
            }
        } else {
            let id = ((key - NODE_KEYS) >> 1) as u32;
            if key & 1 == 0 {
                Ev::Hop(id, payload)
            } else {
                Ev::Compute(id, payload)
            }
        }
    }
}

/// One schedulable unit of a transfer: its whole path, or a single port
/// under the store-and-forward split.
#[derive(Debug, Clone, Copy)]
struct Hop {
    transfer: u32,
    /// The next hop of the same transfer, or [`NO_HOP`].
    next: u32,
    first: bool,
    last: bool,
    duration: Seconds,
}

/// Per-thread tables reused across runs (a sweep runs thousands). Every
/// run resets them to a state observationally identical to fresh ones,
/// so reuse never changes a result.
struct Arena {
    pool: ChannelPool,
    kernel: Kernel<u32>,
    /// The hops and each transfer's first hop under the store-and-forward
    /// split; both empty otherwise, when every transfer is one hop whose
    /// id is the transfer id. (Each table below stays empty when it would
    /// only repeat what the lowered specs already say, which keeps the
    /// per-run set-up of the healthy channel path to the pool and the
    /// dependency tables.)
    hops: Vec<Hop>,
    first_hop: Vec<u32>,
    /// Each transfer's duration under the network model or after a fault
    /// reroute; empty when the lowered spec durations apply unchanged.
    durations: Vec<Seconds>,
    /// Unsatisfied dependencies per node (transfers, then compute).
    deps_remaining: Vec<u32>,
    dependents: Vec<Vec<u32>>,
    /// Completion generation per event slot (hops, then compute); only
    /// the fault layer reschedules, so it is empty without one.
    generation: Vec<u32>,
    started: Vec<u32>,
}

impl Default for Arena {
    fn default() -> Self {
        Arena {
            pool: ChannelPool::new(0, crate::Arbitration::FifoHol),
            kernel: Kernel::new(),
            hops: Vec::new(),
            first_hop: Vec::new(),
            durations: Vec::new(),
            deps_remaining: Vec::new(),
            dependents: Vec::new(),
            generation: Vec::new(),
            started: Vec::new(),
        }
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::default());
}

/// The network layer: the derived port graph, each transfer's port
/// route, and this run's hop facts.
struct Net {
    graph: Rc<FabricGraph>,
    ports: Rc<Vec<Vec<PortId>>>,
    policy: UplinkPolicy,
    hop_mode: HopMode,
    /// Store-and-forward runs one pool task per port.
    split: bool,
    /// Uplink slots are rescored whenever a hop becomes ready.
    revise: bool,
    switch_queue_depth: Vec<usize>,
}

impl Net {
    fn new(
        topo: &Topology,
        job: &Job<'_>,
        embedding: &Embedding,
        opts: &SimOptions,
        entry: Entry<'_>,
        prep: &crate::prep::Prep,
    ) -> Option<Net> {
        let NetworkModel::SwitchFabric(spec) = opts.network else {
            return None;
        };
        let graph = crate::prep::fabric_graph_for(topo, &spec);
        // A schedule that lowers cleanly must also have a port path for
        // every channel it uses (the physical analyzer's hard gate).
        #[cfg(debug_assertions)]
        {
            let gate = ccube_collectives::gate_physical(job.schedule, embedding, topo, &graph);
            debug_assert!(
                gate.is_clean(),
                "schedule/embedding failed the physical gate:\n{gate}"
            );
        }
        let _ = (job, embedding);
        let adaptive = spec.uplink_policy != UplinkPolicy::Hash;
        let (split, revise) = match entry {
            Entry::Simulate => (
                spec.hop_mode == HopMode::StoreForward,
                adaptive && spec.hop_mode == HopMode::CutThrough,
            ),
            Entry::System => (false, false),
            Entry::Faulted(_) => (false, adaptive),
        };
        Some(Net {
            switch_queue_depth: vec![0; graph.num_switches()],
            ports: crate::prep::ports_for(prep, &spec, &graph),
            graph,
            policy: spec.uplink_policy,
            hop_mode: spec.hop_mode,
            split,
            revise,
        })
    }

    /// One port's serialization: its latency plus the payload at its
    /// (scaled) bandwidth.
    fn port_time(&self, p: PortId, bytes: ByteSize, timing: &LinkTiming) -> Seconds {
        let port = self.graph.port(p);
        port.latency()
            + Seconds::new(
                bytes.as_f64() / (port.bandwidth().as_bytes_per_sec() * timing.bandwidth_scale),
            )
    }

    /// End-to-end duration over a port route. Cut-through mirrors the
    /// lowering's wormhole model over the ports (so a passthrough fabric
    /// reproduces the channel approximation exactly); store-and-forward
    /// sums one serialization per port.
    fn duration(
        &self,
        route: &[PortId],
        bytes: ByteSize,
        detour: bool,
        timing: &LinkTiming,
    ) -> Seconds {
        let mut total = match self.hop_mode {
            HopMode::CutThrough => {
                let mut alpha = Seconds::ZERO;
                let mut bottleneck = f64::INFINITY;
                for &p in route {
                    let port = self.graph.port(p);
                    alpha += port.latency();
                    bottleneck = bottleneck.min(port.bandwidth().as_bytes_per_sec());
                }
                if detour {
                    alpha += timing.forwarding_latency;
                }
                return alpha
                    + Seconds::new(bytes.as_f64() / (bottleneck * timing.bandwidth_scale));
            }
            HopMode::StoreForward => route.iter().fold(Seconds::ZERO, |acc, &p| {
                acc + self.port_time(p, bytes, timing)
            }),
        };
        if detour {
            total += timing.forwarding_latency;
        }
        total
    }

    /// A channel path as the pool resources (ports) it occupies.
    fn resource_path(&self, channels: &[ChannelId]) -> Vec<ChannelId> {
        self.graph
            .port_route(channels)
            .into_iter()
            .map(|p| ChannelId(p.0))
            .collect()
    }

    /// Folds a per-port quantity back to per-channel (each channel's
    /// endpoint ports summed; uplink ports have no channel).
    fn channel_values(&self, per_port: &[Seconds], num_channels: usize) -> Vec<Seconds> {
        let mut out = vec![Seconds::ZERO; num_channels];
        for (pi, port) in self.graph.ports().iter().enumerate() {
            if let Some(c) = port.channel() {
                out[c.index()] += per_port[pi];
            }
        }
        out
    }
}

/// The fault layer's state. Its indexes follow every reroute, so a
/// boundary visits only the transfers it can affect.
struct Faults<'p> {
    plan: &'p FaultPlan,
    /// Which plan events are currently active.
    active: Vec<bool>,
    /// Product of the active degradation rates per channel, refreshed
    /// when a `Degraded` window on that channel opens or closes.
    rate: Vec<f64>,
    /// Per channel, the transfers whose current channel path uses it,
    /// ascending. Finished transfers are dropped lazily.
    users: Vec<Vec<u32>>,
    /// The transfers whose current pool path holds a spine crossing,
    /// ascending; empty unless the uplink policy is adaptive. Finished
    /// transfers are dropped lazily.
    crossing: Vec<u32>,
    /// Scheduled finish and start per event slot, for rescaling.
    finish_at: Vec<Seconds>,
    start_at: Vec<Seconds>,
    /// Effective bandwidth rate each running transfer was scheduled at.
    eff_of: Vec<f64>,
    compute_running: Vec<bool>,
    injected: u64,
    reroutes: u64,
}

impl Faults<'_> {
    /// Product of the active degradation rates on `channel`, in plan
    /// order.
    fn channel_rate(&self, channel: ChannelId) -> f64 {
        let mut rate = 1.0;
        for (i, e) in self.plan.events().iter().enumerate() {
            if let FaultEvent::Degraded {
                channel: c,
                rate: r,
                ..
            } = *e
            {
                if self.active[i] && c == channel {
                    rate *= r;
                }
            }
        }
        rate
    }

    /// Moves transfer `t` from the channel lists of `old` to those of
    /// `new`, keeping each list ascending.
    fn reindex(&mut self, t: u32, old: &[ChannelId], new: &[ChannelId]) {
        for c in old {
            let list = &mut self.users[c.index()];
            if let Ok(i) = list.binary_search(&t) {
                list.remove(i);
            }
        }
        for c in new {
            let list = &mut self.users[c.index()];
            if let Err(i) = list.binary_search(&t) {
                list.insert(i, t);
            }
        }
    }

    /// Adds transfer `t` to the crossing set or removes it, keeping the
    /// set ascending.
    fn set_crossing(&mut self, t: u32, crosses: bool) {
        match (self.crossing.binary_search(&t), crosses) {
            (Err(i), true) => self.crossing.insert(i, t),
            (Ok(i), false) => {
                self.crossing.remove(i);
            }
            _ => {}
        }
    }

    /// Product of the active straggler slowdowns on `gpu`.
    fn gpu_slowdown(&self, gpu: GpuId) -> f64 {
        let mut slowdown = 1.0;
        for (i, e) in self.plan.events().iter().enumerate() {
            if let FaultEvent::Straggler {
                gpu: g,
                slowdown: s,
                ..
            } = *e
            {
                if self.active[i] && g == gpu {
                    slowdown *= s;
                }
            }
        }
        slowdown
    }
}

/// A transfer's effective rate: its bottleneck degradation under the
/// per-channel `rate` table.
fn path_rate(rate: &[f64], path: &[ChannelId]) -> f64 {
    path.iter().map(|c| rate[c.index()]).fold(1.0, f64::min)
}

/// What a run produced; the entry points shape it into their reports.
pub(crate) struct Outcome {
    pub(crate) timings: Vec<TransferTiming>,
    pub(crate) compute_complete: Vec<Seconds>,
    pub(crate) makespan: Seconds,
    pub(crate) channel_busy: Vec<Seconds>,
    pub(crate) channel_intervals: Vec<Vec<BusyInterval>>,
    pub(crate) forwarding_busy: HashMap<GpuId, Seconds>,
    pub(crate) gpu_busy: HashMap<GpuId, Seconds>,
    pub(crate) trace: SimTrace,
    pub(crate) stats: SimStats,
}

/// Runs `job` over `topo` through `embedding` for `entry`.
///
/// # Errors
///
/// Lowering errors, [`SimError::FaultPlanInvalid`] for a plan that does
/// not fit the topology or network, [`SimError::Deadlock`] when the
/// event queue drains with work outstanding, and
/// [`SimError::Unroutable`] when faulted traffic can never finish.
pub(crate) fn run(
    topo: &Topology,
    job: &Job<'_>,
    embedding: &Embedding,
    opts: &SimOptions,
    entry: Entry<'_>,
) -> Result<Outcome, SimError> {
    if let Entry::Faulted(plan) = entry {
        plan.validate_against(topo)?;
    }
    // The structural gate (debug builds) and the lowering both go
    // through the preparation cache.
    let prep = crate::prep::gate_and_lower(topo, job.schedule, embedding, &opts.link_timing())?;
    let net = Net::new(topo, job, embedding, opts, entry, &prep);
    let faults = match entry {
        Entry::Faulted(plan) => {
            plan.validate_fabric_events(net.as_ref().map(|n| n.graph.as_ref()))?;
            Some(plan)
        }
        _ => None,
    };
    let mut ar = ARENA.with(|a| std::mem::take(&mut *a.borrow_mut()));
    let run = Run::new(
        topo,
        job,
        embedding,
        opts,
        entry,
        &prep.specs,
        net,
        faults,
        &mut ar,
    );
    let out = run.execute();
    ARENA.with(|a| *a.borrow_mut() = ar);
    out
}

struct Run<'a> {
    topo: &'a Topology,
    job: &'a Job<'a>,
    embedding: &'a Embedding,
    opts: &'a SimOptions,
    entry: Entry<'a>,
    /// The lowered transfers, cloned only if a fault reroute edits one.
    specs: Cow<'a, [TransferSpec]>,
    net: Option<Net>,
    faults: Option<Faults<'a>>,
    ar: &'a mut Arena,
    streams: HashMap<GpuId, ComputeStream>,
    trace: SimTrace,
    timings: Vec<TransferTiming>,
    compute_complete: Vec<Seconds>,
    forwarding_busy: HashMap<GpuId, Seconds>,
    makespan: Seconds,
    /// Valid (current-generation) completion events in the kernel.
    in_flight: usize,
    failovers: u64,
}

impl<'a> Run<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        topo: &'a Topology,
        job: &'a Job<'a>,
        embedding: &'a Embedding,
        opts: &'a SimOptions,
        entry: Entry<'a>,
        specs: &'a [TransferSpec],
        net: Option<Net>,
        plan: Option<&'a FaultPlan>,
        ar: &'a mut Arena,
    ) -> Self {
        let transfers = job.schedule.transfers();
        let (nt, nc) = (transfers.len(), job.compute.len());
        let timing = opts.link_timing();

        // Dependency edges over transfers then compute tasks, in the
        // order their dependents are later unblocked.
        ar.deps_remaining.clear();
        ar.deps_remaining.resize(nt + nc, 0);
        ar.dependents.truncate(nt + nc);
        for v in ar.dependents.iter_mut() {
            v.clear();
        }
        ar.dependents.resize_with(nt + nc, Vec::new);
        for t in transfers {
            ar.deps_remaining[t.id.index()] += t.deps.len() as u32;
            for d in &t.deps {
                ar.dependents[d.index()].push(t.id.0);
            }
        }
        for (t, c) in job.gates {
            ar.deps_remaining[t.index()] += 1;
            ar.dependents[nt + c.index()].push(t.0);
        }
        for c in job.compute {
            let me = nt + c.id.index();
            ar.deps_remaining[me] += (c.deps_compute.len() + c.deps_transfers.len()) as u32;
            for d in &c.deps_compute {
                ar.dependents[nt + d.index()].push(me as u32);
            }
            for d in &c.deps_transfers {
                ar.dependents[d.index()].push(me as u32);
            }
        }

        // Hops and pool tasks: one per transfer, or one per port under
        // the store-and-forward split. Arbitration keys are (chunk, hop).
        let num_resources = net
            .as_ref()
            .map_or(topo.channels().len(), |n| n.graph.num_ports());
        ar.pool.reset(num_resources, opts.arbitration);
        ar.hops.clear();
        ar.first_hop.clear();
        ar.durations.clear();
        for (t, s) in specs.iter().enumerate() {
            let key = (s.chunk.0, t as u32);
            match &net {
                Some(n) => {
                    let route = &n.ports[t];
                    let duration = n.duration(route, s.bytes, s.via.is_some(), &timing);
                    ar.durations.push(duration);
                    if !n.split {
                        ar.pool
                            .add_task_path(route.iter().map(|p| ChannelId(p.0)), key);
                        continue;
                    }
                    ar.first_hop.push(ar.hops.len() as u32);
                    for (k, &p) in route.iter().enumerate() {
                        let h = ar.hops.len() as u32;
                        let last = k + 1 == route.len();
                        let mut d = n.port_time(p, s.bytes, &timing);
                        if last && s.via.is_some() {
                            d += timing.forwarding_latency;
                        }
                        ar.pool
                            .add_task_path(std::iter::once(ChannelId(p.0)), (s.chunk.0, h));
                        ar.hops.push(Hop {
                            transfer: t as u32,
                            next: if last { NO_HOP } else { h + 1 },
                            first: k == 0,
                            last,
                            duration: d,
                        });
                    }
                }
                None => {
                    if plan.is_some() {
                        ar.durations.push(s.duration);
                    }
                    ar.pool.add_task_path(s.path.iter().copied(), key);
                }
            }
        }
        let nh = if ar.hops.is_empty() {
            nt
        } else {
            ar.hops.len()
        };
        ar.generation.clear();
        if plan.is_some() {
            ar.generation.resize(nh + nc, 0);
        }
        ar.kernel.reset();

        let mut streams = HashMap::new();
        for c in job.compute {
            streams.entry(c.gpu).or_insert_with(ComputeStream::new);
        }
        let plan_len = plan.map_or(0, FaultPlan::len);
        let faults = plan.map(|plan| Faults {
            plan,
            active: vec![false; plan_len],
            rate: vec![1.0; topo.channels().len()],
            users: channel_users(specs, topo.channels().len()),
            crossing: match &net {
                Some(n) if n.policy != UplinkPolicy::Hash => (0..nt as u32)
                    .filter(|&t| has_crossing(&n.graph, ar.pool.path(t)))
                    .collect(),
                _ => Vec::new(),
            },
            finish_at: vec![Seconds::ZERO; nh + nc],
            start_at: vec![Seconds::ZERO; nh + nc],
            eff_of: vec![1.0; nh],
            compute_running: vec![false; nc],
            injected: 0,
            reroutes: 0,
        });
        let zero = TransferTiming {
            start: Seconds::ZERO,
            complete: Seconds::ZERO,
        };
        Run {
            topo,
            job,
            embedding,
            opts,
            entry,
            specs: Cow::Borrowed(specs),
            net,
            faults,
            ar,
            streams,
            trace: opts.make_trace_for(nh.saturating_mul(4) + nc.saturating_mul(2) + 2 * plan_len),
            timings: vec![zero; nt],
            compute_complete: vec![Seconds::ZERO; nc],
            forwarding_busy: HashMap::new(),
            makespan: Seconds::ZERO,
            in_flight: 0,
            failovers: 0,
        }
    }

    fn num_transfers(&self) -> usize {
        self.timings.len()
    }

    fn num_hops(&self) -> usize {
        if self.ar.hops.is_empty() {
            self.num_transfers()
        } else {
            self.ar.hops.len()
        }
    }

    /// Transfer `t`'s duration (see [`Arena::durations`]).
    fn duration(&self, t: usize) -> Seconds {
        match self.ar.durations.get(t) {
            Some(&d) => d,
            None => self.specs[t].duration,
        }
    }

    /// Hop `h`: a port of a store-and-forward split, or else transfer
    /// `h` as a whole.
    fn hop(&self, h: u32) -> Hop {
        match self.ar.hops.get(h as usize) {
            Some(&hop) => hop,
            None => Hop {
                transfer: h,
                next: NO_HOP,
                first: true,
                last: true,
                duration: self.duration(h as usize),
            },
        }
    }

    fn first_hop(&self, t: usize) -> u32 {
        self.ar.first_hop.get(t).copied().unwrap_or(t as u32)
    }

    /// The current completion generation of an event slot.
    fn generation(&self, slot: usize) -> u32 {
        self.ar.generation.get(slot).copied().unwrap_or(0)
    }

    /// Starts hop `h` at `now`: schedules its completion (stretched by
    /// the active degradation under the fault layer).
    fn begin_hop(&mut self, h: u32, now: Seconds) {
        let hop = self.hop(h);
        let t = hop.transfer as usize;
        let mut duration = hop.duration;
        if let Some(f) = &mut self.faults {
            let eff = path_rate(&f.rate, &self.specs[t].path);
            duration = Seconds::new(duration.as_secs_f64() / eff);
            f.finish_at[h as usize] = now + duration;
            f.start_at[h as usize] = now;
            f.eff_of[h as usize] = eff;
        }
        let gen = self.generation(h as usize);
        self.ar.kernel.schedule(now + duration, hop_key(h), gen);
        self.in_flight += 1;
        if hop.first {
            self.timings[t].start = now;
            self.trace.push(TraceRecord::TransferStart {
                id: self.specs[t].id,
                at: now,
            });
        }
    }

    /// Starts compute task `c` at `now` on its (already acquired) stream.
    fn begin_compute(&mut self, c: u32, now: Seconds) {
        let task = &self.job.compute[c as usize];
        let finish = now + self.streams[&task.gpu].scale(task.duration);
        let slot = self.num_hops() + c as usize;
        if let Some(f) = &mut self.faults {
            f.finish_at[slot] = finish;
            f.start_at[slot] = now;
            f.compute_running[c as usize] = true;
        }
        let gen = self.generation(slot);
        self.ar.kernel.schedule(finish, compute_key(c), gen);
        self.in_flight += 1;
        self.trace.push(TraceRecord::ComputeStart {
            id: c,
            gpu: task.gpu,
            at: now,
        });
    }

    /// Declares hop `h` ready: rescores its uplink slots first when the
    /// run revises at grant time, then starts it or records the queue
    /// depth it met.
    fn ready_hop(&mut self, h: u32, now: Seconds) {
        if self.net.as_ref().is_some_and(|n| n.revise) {
            self.revise_uplinks(h, now);
        }
        if self.ar.pool.mark_ready(h, now, &mut self.trace) {
            self.begin_hop(h, now);
        } else if let Some(n) = &mut self.net {
            for &port in self.ar.pool.path(h) {
                let depth = self.ar.pool.waiting_on(port);
                let s = n.graph.port(PortId(port.0)).switch().index();
                n.switch_queue_depth[s] = n.switch_queue_depth[s].max(depth);
            }
        }
    }

    fn ready_compute(&mut self, c: u32, now: Seconds) {
        let gpu = self.job.compute[c as usize].gpu;
        let stream = self.streams.get_mut(&gpu).expect("gpu stream exists");
        if stream.acquire(c) {
            self.begin_compute(c, now);
        }
    }

    /// Moves hop `h` onto the uplink slots its policy prefers now.
    /// Returns whether it moved.
    fn revise_uplinks(&mut self, h: u32, now: Seconds) -> bool {
        let Some(n) = &self.net else { return false };
        let Some((revised, port)) =
            choose_uplinks(&n.graph, &self.ar.pool, self.ar.pool.path(h), n.policy)
        else {
            return false;
        };
        self.ar.pool.reroute(h, revised);
        self.failovers += 1;
        let t = self.hop(h).transfer as usize;
        self.trace.push(TraceRecord::Failover {
            id: self.specs[t].id,
            port,
            at: now,
        });
        true
    }

    /// Counts down the dependents of a finished node (transfer `node`,
    /// or compute task `node - transfers`) and readies the free ones.
    fn unblock(&mut self, node: usize, now: Seconds) {
        let nt = self.num_transfers();
        for i in 0..self.ar.dependents[node].len() {
            let d = self.ar.dependents[node][i] as usize;
            self.ar.deps_remaining[d] -= 1;
            if self.ar.deps_remaining[d] == 0 {
                if d < nt {
                    self.ready_hop(self.first_hop(d), now);
                } else {
                    self.ready_compute((d - nt) as u32, now);
                }
            }
        }
    }

    /// Starts every waiter the pool admits after `h` released its path.
    fn serve(&mut self, h: u32, now: Seconds) {
        let mut started = std::mem::take(&mut self.ar.started);
        started.clear();
        self.ar.pool.serve(h, now, &mut self.trace, &mut started);
        for &s in &started {
            self.begin_hop(s, now);
        }
        self.ar.started = started;
    }

    fn execute(mut self) -> Result<Outcome, SimError> {
        let (nt, nc) = (self.num_transfers(), self.job.compute.len());
        // Faults active from t = 0 apply before seeding, so no transfer
        // starts on an initially-down channel.
        if let Some(plan) = self.faults.as_ref().map(|f| f.plan) {
            for (i, e) in plan.events().iter().enumerate() {
                if e.from() == Seconds::ZERO {
                    self.apply_start(i as u32, Seconds::ZERO);
                } else {
                    self.ar.kernel.schedule(e.from(), i as u64, FAULT_START);
                }
                if !e.is_permanent() {
                    self.ar.kernel.schedule(e.until(), i as u64, FAULT_END);
                }
            }
        }
        // Seed: dependency-free transfers, then compute tasks.
        for t in 0..nt {
            if self.ar.deps_remaining[t] == 0 {
                self.ready_hop(self.first_hop(t), Seconds::ZERO);
            }
        }
        for c in 0..nc {
            if self.ar.deps_remaining[nt + c] == 0 {
                self.ready_compute(c as u32, Seconds::ZERO);
            }
        }

        let mut remaining = nt + nc;
        while remaining > 0 {
            if self.in_flight == 0 {
                // Nothing in flight: break a chunk-priority reservation
                // stall, or advance to the next fault boundary.
                let now = self.ar.kernel.now();
                if let Some(h) = self.ar.pool.force_start(now, &mut self.trace) {
                    self.begin_hop(h, now);
                    continue;
                }
            }
            let Some((now, key, payload)) = self.ar.kernel.pop() else {
                return Err(self.drained_error(remaining));
            };
            match Ev::decode(key, payload) {
                Ev::FaultStart(e) => self.apply_start(e, now),
                Ev::FaultEnd(e) => self.apply_end(e, now),
                Ev::Hop(h, gen) => {
                    if gen != self.generation(h as usize) {
                        continue;
                    }
                    self.in_flight -= 1;
                    self.makespan = self.makespan.max(now);
                    let hop = self.hop(h);
                    self.ar.pool.complete(h, now);
                    if hop.last {
                        remaining -= 1;
                        self.finish_transfer(hop.transfer as usize, now);
                    } else {
                        self.ready_hop(hop.next, now);
                    }
                    self.serve(h, now);
                }
                Ev::Compute(c, gen) => {
                    let slot = self.num_hops() + c as usize;
                    if gen != self.generation(slot) {
                        continue;
                    }
                    self.in_flight -= 1;
                    self.makespan = self.makespan.max(now);
                    remaining -= 1;
                    self.finish_compute(c, now);
                }
            }
        }
        Ok(self.outcome())
    }

    fn finish_transfer(&mut self, t: usize, now: Seconds) {
        self.timings[t].complete = now;
        let id = self.specs[t].id;
        self.trace.push(TraceRecord::TransferEnd { id, at: now });
        if let Some(via) = self.specs[t].via {
            let d = self.duration(t);
            *self.forwarding_busy.entry(via).or_insert(Seconds::ZERO) += d;
            self.trace.push(TraceRecord::DetourHop { id, via, at: now });
        }
        self.unblock(t, now);
    }

    fn finish_compute(&mut self, c: u32, now: Seconds) {
        let ci = c as usize;
        let slot = self.num_hops() + ci;
        self.compute_complete[ci] = now;
        let task = &self.job.compute[ci];
        self.trace.push(TraceRecord::ComputeEnd {
            id: c,
            gpu: task.gpu,
            at: now,
        });
        let occupancy = match &mut self.faults {
            // Rescaled tasks ran at several speeds: charge wall time.
            Some(f) => {
                f.compute_running[ci] = false;
                now - f.start_at[slot]
            }
            None => self.streams[&task.gpu].scale(task.duration),
        };
        let gpu = task.gpu;
        self.unblock(self.num_transfers() + ci, now);
        let stream = self.streams.get_mut(&gpu).expect("gpu stream exists");
        if let Some(next) = stream.release(occupancy) {
            self.begin_compute(next, now);
        }
    }

    fn outcome(mut self) -> Outcome {
        let num_channels = self.topo.channels().len();
        let pool = &mut self.ar.pool;
        let kstats = self.ar.kernel.stats();
        let max_stream_waiting = self.streams.values().map(ComputeStream::max_waiting).max();
        let mut stats = SimStats {
            events_scheduled: kstats.events_scheduled,
            events_processed: kstats.events_processed,
            max_event_queue_depth: kstats.max_queue_depth,
            max_channel_queue_depth: pool.max_waiting().max(max_stream_waiting.unwrap_or(0)),
            force_starts: pool.force_starts(),
            failovers: self.failovers,
            ..SimStats::default()
        };
        let intervals = pool.take_intervals();
        let (channel_busy, channel_intervals) = match &mut self.net {
            None => {
                stats.queue_wait = pool.queue_wait().to_vec();
                (pool.busy().to_vec(), intervals)
            }
            Some(n) => {
                // Endpoint ports fold back to their channels; uplink
                // ports show only in the per-port stats.
                stats.queue_wait = n.channel_values(pool.queue_wait(), num_channels);
                stats.port_busy = pool.busy().to_vec();
                if !matches!(self.entry, Entry::System) {
                    stats.uplink_busy = n
                        .graph
                        .ports()
                        .iter()
                        .filter(|p| p.uplink().is_some())
                        .map(|p| stats.port_busy[p.id().index()])
                        .collect();
                }
                if matches!(self.entry, Entry::Simulate) {
                    stats.switch_queue_depth = std::mem::take(&mut n.switch_queue_depth);
                }
                let mut per_channel = vec![Vec::new(); num_channels];
                for (pi, ivs) in intervals.into_iter().enumerate() {
                    if let Some(c) = n.graph.ports()[pi].channel() {
                        per_channel[c.index()] = ivs;
                    }
                }
                (n.channel_values(pool.busy(), num_channels), per_channel)
            }
        };
        if let Some(f) = &self.faults {
            stats.faults_injected = f.injected;
            stats.reroutes_taken = f.reroutes;
            (stats.channel_downtime, stats.time_degraded) =
                f.plan.downtime(self.makespan, num_channels);
        }
        Outcome {
            timings: self.timings,
            compute_complete: self.compute_complete,
            makespan: self.makespan,
            channel_busy,
            channel_intervals,
            forwarding_busy: self.forwarding_busy,
            gpu_busy: self
                .streams
                .iter()
                .filter(|(_, s)| s.busy() > Seconds::ZERO)
                .map(|(&g, s)| (g, s.busy()))
                .collect(),
            trace: self.trace,
            stats,
        }
    }

    // -----------------------------------------------------------------
    // Fault layer
    // -----------------------------------------------------------------

    /// The pool resources a channel occupies.
    fn res_path(&self, channels: &[ChannelId]) -> Vec<ChannelId> {
        match &self.net {
            Some(n) => n.resource_path(channels),
            None => channels.to_vec(),
        }
    }

    /// Whether `channel` is down (any of its ports, under the fabric).
    fn is_channel_down(&self, channel: ChannelId) -> bool {
        let pool = &self.ar.pool;
        match &self.net {
            Some(n) => n
                .graph
                .ports_for_channel(channel)
                .iter()
                .any(|p| pool.is_link_down(ChannelId(p.0))),
            None => pool.is_link_down(channel),
        }
    }

    /// Activates plan event `e` at `now`.
    fn apply_start(&mut self, e: u32, now: Seconds) {
        let Some(f) = &mut self.faults else { return };
        f.active[e as usize] = true;
        f.injected += 1;
        let event = f.plan.events()[e as usize];
        self.trace
            .push(TraceRecord::FaultStart { fault: e, at: now });
        match event {
            FaultEvent::LinkDown { channel, .. } => {
                for r in self.res_path(&[channel]) {
                    self.ar.pool.set_link_down(r);
                }
                self.reroute_pass(now);
            }
            FaultEvent::Degraded { channel, .. } => self.rescale_channel(channel, now),
            FaultEvent::Straggler { gpu, .. } => self.rescale_gpu(gpu, now),
            FaultEvent::UplinkDown { .. } | FaultEvent::SwitchDown { .. } => {
                for r in self.fault_ports(&event) {
                    self.ar.pool.set_link_down(r);
                }
                // Downed ports drain their in-flight wormholes; queued
                // port paths fail over to surviving uplinks right away.
                self.failover_pass(now);
            }
        }
    }

    /// Lifts plan event `e` at `now`.
    fn apply_end(&mut self, e: u32, now: Seconds) {
        let Some(f) = &mut self.faults else { return };
        f.active[e as usize] = false;
        let event = f.plan.events()[e as usize];
        self.trace.push(TraceRecord::FaultEnd { fault: e, at: now });
        match event {
            FaultEvent::LinkDown { channel, .. } => {
                for r in self.res_path(&[channel]) {
                    self.ar.pool.set_link_up(r);
                    self.serve_if_up(r, now);
                }
            }
            FaultEvent::Degraded { channel, .. } => self.rescale_channel(channel, now),
            FaultEvent::Straggler { gpu, .. } => self.rescale_gpu(gpu, now),
            FaultEvent::UplinkDown { .. } | FaultEvent::SwitchDown { .. } => {
                let ports = self.fault_ports(&event);
                for &r in &ports {
                    self.ar.pool.set_link_up(r);
                }
                // Transfers stranded on a slot that is still down revise
                // onto the repaired one before its queues are served.
                self.failover_pass(now);
                for r in ports {
                    self.serve_if_up(r, now);
                }
            }
        }
    }

    /// Serves a repaired resource's waiters once no fault holds it down.
    fn serve_if_up(&mut self, r: ChannelId, now: Seconds) {
        if self.ar.pool.is_link_down(r) {
            return;
        }
        let mut started = std::mem::take(&mut self.ar.started);
        started.clear();
        self.ar
            .pool
            .serve_channel(r, now, &mut self.trace, &mut started);
        for &s in &started {
            self.begin_hop(s, now);
        }
        self.ar.started = started;
    }

    /// The pool ports a fabric-native fault downs: both legs of the
    /// uplink crossing, or every crossing homed on a downed spine.
    fn fault_ports(&self, e: &FaultEvent) -> Vec<ChannelId> {
        let Some(n) = &self.net else {
            return Vec::new(); // validated away under ChannelApprox
        };
        let g = &n.graph;
        let mut out = Vec::new();
        for leaf in 0..g.num_switches() {
            let sw = SwitchId(leaf as u32);
            for (slot, (&u, &d)) in g.uplinks_up(sw).iter().zip(g.uplinks_down(sw)).enumerate() {
                let hit = match *e {
                    FaultEvent::UplinkDown {
                        leaf: l, uplink, ..
                    } => l as usize == leaf && uplink as usize == slot,
                    FaultEvent::SwitchDown { spine, .. } => g.spine_of_uplink(slot as u32) == spine,
                    _ => false,
                };
                if hit {
                    out.push(ChannelId(u.0));
                    out.push(ChannelId(d.0));
                }
            }
        }
        out
    }

    /// Rescores the uplink slots of every waiting transfer with a spine
    /// crossing, in id order, under the adaptive policy: `Failover` moves
    /// crossings off dead slots, `LeastQueued` also moves them off live
    /// but busier ones. Slot substitution is duration-invariant, so specs
    /// and timings stay untouched; a crossing with no surviving slot
    /// stalls until repair. Transfers without a crossing are never moved
    /// ([`choose_uplinks`] has nothing to rescore), so only the crossing
    /// set is visited.
    fn failover_pass(&mut self, now: Seconds) {
        let Some(f) = &mut self.faults else { return };
        let mut crossing = std::mem::take(&mut f.crossing);
        let pool = &self.ar.pool;
        crossing.retain(|&t| !pool.is_done(t));
        for &tid in &crossing {
            if self.ar.pool.is_running(tid) {
                continue;
            }
            if self.revise_uplinks(tid, now) && self.ar.pool.poke(tid, now, &mut self.trace) {
                self.begin_hop(tid, now);
            }
        }
        if let Some(f) = &mut self.faults {
            f.crossing = crossing;
        }
    }

    /// Re-routes every waiting transfer whose path crosses a down
    /// channel onto the best surviving route (direct → detour → host
    /// bridge, one `Router` per pass, allocating in transfer order).
    /// NIC paths are structural and wait for repair instead; a transfer
    /// with no surviving route keeps its path and waits too. The
    /// candidates are the users of the down channels, visited in id
    /// order because each allocation loads the router for the next.
    fn reroute_pass(&mut self, now: Seconds) {
        let down: Vec<ChannelId> = (0..self.topo.channels().len() as u32)
            .map(ChannelId)
            .filter(|&c| self.is_channel_down(c))
            .collect();
        let Some(f) = &mut self.faults else { return };
        let mut router = Router::new(self.topo);
        let mut candidates = Vec::new();
        let pool = &self.ar.pool;
        for c in down {
            router.block_channel(c);
            let users = &mut f.users[c.index()];
            users.retain(|&t| !pool.is_done(t));
            candidates.extend_from_slice(users);
        }
        candidates.sort_unstable();
        candidates.dedup();
        let transfers = self.job.schedule.transfers();
        let timing = self.opts.link_timing();
        for tid in candidates {
            let t = tid as usize;
            if self.ar.pool.is_running(tid) {
                continue;
            }
            let path = &self.specs[t].path;
            if !path.iter().any(|&c| self.is_channel_down(c))
                || path
                    .iter()
                    .any(|&c| self.topo.channel(c).class() == ChannelClass::Nic)
            {
                continue;
            }
            let src = self.embedding.gpu_of(transfers[t].src);
            let dst = self.embedding.gpu_of(transfers[t].dst);
            let Ok(route) = router.allocate(src, dst) else {
                continue;
            };
            let bytes = transfers[t].bytes;
            let duration = match &self.net {
                Some(n) => n.duration(
                    &n.graph.port_route(route.channels()),
                    bytes,
                    route.is_detour(),
                    &timing,
                ),
                // The lowering's wormhole model on the new path.
                None => {
                    let mut alpha = Seconds::ZERO;
                    let mut bottleneck = f64::INFINITY;
                    for &c in route.channels() {
                        let ch = self.topo.channel(c);
                        alpha += ch.latency();
                        bottleneck = bottleneck.min(ch.bandwidth().as_bytes_per_sec());
                    }
                    if route.is_detour() {
                        alpha += timing.forwarding_latency;
                    }
                    alpha + Seconds::new(bytes.as_f64() / (bottleneck * timing.bandwidth_scale))
                }
            };
            let spec = &mut self.specs.to_mut()[t];
            let old = std::mem::replace(&mut spec.path, route.channels().to_vec());
            spec.via = route.via();
            spec.duration = duration;
            self.ar.durations[t] = duration;
            let res = self.res_path(route.channels());
            self.ar.pool.reroute(tid, res);
            if let Some(f) = &mut self.faults {
                f.reroutes += 1;
                f.reindex(tid, &old, route.channels());
                // A new route may gain or lose a spine crossing.
                if let Some(n) = self.net.as_ref().filter(|n| n.policy != UplinkPolicy::Hash) {
                    f.set_crossing(tid, has_crossing(&n.graph, self.ar.pool.path(tid)));
                }
            }
            self.trace.push(TraceRecord::Reroute {
                id: self.specs[t].id,
                at: now,
            });
            if self.ar.pool.poke(tid, now, &mut self.trace) {
                self.begin_hop(tid, now);
            }
        }
    }

    /// Refreshes `channel`'s rate after a `Degraded` window on it opened
    /// or closed, and rescales the in-flight transfers crossing it:
    /// remaining work finishes at the new rate.
    fn rescale_channel(&mut self, channel: ChannelId, now: Seconds) {
        let Some(f) = &mut self.faults else { return };
        f.rate[channel.index()] = f.channel_rate(channel);
        let pool = &self.ar.pool;
        f.users[channel.index()].retain(|&t| !pool.is_done(t));
        for &tid in &f.users[channel.index()] {
            let t = tid as usize;
            if !self.ar.pool.is_running(tid) {
                continue;
            }
            let eff_new = path_rate(&f.rate, &self.specs[t].path);
            let eff_old = f.eff_of[t];
            if eff_new == eff_old {
                continue;
            }
            let finish = now + (f.finish_at[t] - now) * (eff_old / eff_new);
            f.finish_at[t] = finish;
            f.eff_of[t] = eff_new;
            self.ar.generation[t] += 1;
            let gen = self.ar.generation[t];
            self.ar.kernel.schedule(finish, hop_key(tid), gen);
        }
    }

    /// Rescales in-flight compute on `gpu` after its straggler factor
    /// changed, and sets the stream's slowdown for later tasks.
    fn rescale_gpu(&mut self, gpu: GpuId, now: Seconds) {
        let nh = self.num_hops();
        let Some(f) = &mut self.faults else { return };
        let sd_new = f.gpu_slowdown(gpu);
        let Some(stream) = self.streams.get_mut(&gpu) else {
            return; // no compute task ever runs there
        };
        let sd_old = stream.slowdown();
        if sd_new == sd_old {
            return;
        }
        stream.set_slowdown(sd_new);
        for (c, task) in self.job.compute.iter().enumerate() {
            if !f.compute_running[c] || task.gpu != gpu {
                continue;
            }
            let slot = nh + c;
            let finish = now + (f.finish_at[slot] - now) * (sd_new / sd_old);
            f.finish_at[slot] = finish;
            self.ar.generation[slot] += 1;
            let gen = self.ar.generation[slot];
            self.ar.kernel.schedule(finish, compute_key(c as u32), gen);
        }
    }

    /// The error for a drained queue with work outstanding:
    /// [`SimError::Unroutable`] if an unfinished transfer is stuck
    /// behind a (by now permanent) outage, otherwise a deadlock.
    fn drained_error(&self, remaining: usize) -> SimError {
        if self.faults.is_some() {
            let transfers = self.job.schedule.transfers();
            for tid in 0..self.num_transfers() as u32 {
                let t = tid as usize;
                if self.ar.pool.is_done(tid) {
                    continue;
                }
                let stuck = self.specs[t].path.iter().any(|&c| self.is_channel_down(c))
                    || (self.net.is_some()
                        && self
                            .ar
                            .pool
                            .path(tid)
                            .iter()
                            .any(|&r| self.ar.pool.is_link_down(r)));
                if stuck {
                    return SimError::Unroutable {
                        src: self.embedding.gpu_of(transfers[t].src),
                        dst: self.embedding.gpu_of(transfers[t].dst),
                    };
                }
            }
        }
        SimError::Deadlock { remaining }
    }
}

fn hop_key(h: u32) -> u64 {
    NODE_KEYS + (u64::from(h) << 1)
}

fn compute_key(c: u32) -> u64 {
    NODE_KEYS + ((u64::from(c) << 1) | 1)
}
