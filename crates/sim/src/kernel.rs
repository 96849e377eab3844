//! The tickable step kernel: the engine's run loop as a resumable state
//! machine.
//!
//! [`StepKernel`] owns the complete runtime state of one simulation and
//! advances it exactly one time step per [`StepKernel::tick`], through
//! the same phases the monolithic loop used to run inline:
//!
//! ```text
//!        +------------+   +---------+   +----------+   +---------+   +---------+
//! t ---> | 0 creation |-->| receive |-->| generate |-->| schedule|-->| execute |
//!        +------------+   +---------+   +----------+   +---------+   +---------+
//!                                                                        |
//!                              t+1 <---- step end <---- forward  <-------+
//! ```
//!
//! Each tick returns a typed [`StepEffects`] value (objects created /
//! delivered / departed, transactions arrived / scheduled / committed /
//! aborted) instead of mutating everything behind a closed function.
//! [`crate::Engine::run`] is now a thin driver over this kernel; callers
//! needing finer control use [`StepKernel::run_for`],
//! [`StepKernel::run_until`], or the checkpoint/resume pair
//! ([`StepKernel::checkpoint`] / [`RunCheckpoint::resume`]).
//!
//! **One write channel.** The phases mutate the §II state and record
//! what they did only in the tick's [`StepEffects`] (plus the bodies of
//! retired transactions, in a per-tick buffer). Everything else folds
//! that record at two fixed points: before the policy call, the policy
//! window ([`SystemView::step_effects`]) takes the tick's created,
//! delivered and arrived items; at step end the window is reset to its
//! scheduled, committed, aborted and departed items, the `RunLog` (kept
//! iff [`Retention::Full`]) folds the tick, and the observers see it
//! together with a read-only [`SystemView`] of the state after the tick
//! ([`StepObserver::on_step_end_in`]), so none keeps its own copy.
//!
//! **Resumability contract.** A checkpoint taken between two ticks
//! captures *all* state the remaining steps depend on: the live set and
//! schedule, object places, pending edge loads, the policy window, the
//! full-retention log, the workload source, and the policy itself (via
//! [`SchedulingPolicy::fork`], which also carries policy-owned state
//! such as the message-level policy's forwarding trail). Resuming and
//! driving to completion therefore produces a [`RunResult`]
//! byte-identical to an uninterrupted run — pinned by `tests/resume.rs`
//! for all six policies. Observers are *not* part of a checkpoint (they
//! are purely observational); re-attach with [`StepKernel::with_observer`].

use crate::arena::RuntimeState;
use crate::effects::{edge_key, Delivery, Departure, StepEffects};
use crate::engine::{EngineConfig, Retention};
use crate::metrics::{Log2Histogram, Metrics, RunResult, Violation};
use crate::observer::{Phase, StepObserver};
use crate::policy::SchedulingPolicy;
use crate::runlog::RunLog;
use crate::state::{LiveTxn, ObjectPlace, ObjectState, SystemView};
use dtm_graph::{Network, NodeId};
use dtm_model::{ObjectId, ObjectInfo, Schedule, Time, Transaction, TxnId, WorkloadSource};
use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::time::Instant;

/// The engine's run loop as a resumable state machine. See the module
/// docs for the phase order and the resumability contract.
pub struct StepKernel<P, S> {
    network: Network,
    policy: P,
    config: EngineConfig,
    source: S,

    now: Time,
    /// Object specs not yet created, ordered by (created_at, id).
    // dtm-lint: bounded -- drained front-to-back by create_objects as created_at comes due
    pending_objects: VecDeque<ObjectInfo>,
    /// Arena-backed live transactions, objects and the requester index,
    /// plus the policy window (the effects since the last policy call).
    state: RuntimeState,
    /// The full-retention history folded from each tick's effects;
    /// `Some` iff [`Retention::Full`].
    log: Option<RunLog>,
    /// Bodies of the transactions this tick retired (committed or
    /// aborted), in retirement order: moved into the log at step end,
    /// or dropped there under streaming retention.
    // dtm-lint: bounded -- emptied at every step end; capacity plateaus at the largest retirement batch
    retired: Vec<Transaction>,
    /// Scheduled, uncommitted transactions ordered by (time, id).
    // dtm-lint: bounded -- entries leave at commit in phase_execute; O(scheduled live txns)
    exec_queue: BTreeSet<(Time, TxnId)>,
    /// Per object (dense, indexed by object id): scheduled pending
    /// requesters kept sorted by (time, id), each entry carrying its
    /// transaction's home node so the forward phase resolves an object's
    /// target without an arena lookup. Sorted `Vec`s beat ordered trees
    /// here: the forward scan reads `first()` per object per tick, and
    /// the lists are small (the object's scheduled backlog). Entries are
    /// removed on commit/abort, so every list's size is bounded by the
    /// live set — there are no per-transaction tombstones to prune, and
    /// the vector itself is bounded by the object population (which
    /// never shrinks by design: objects are the system's shared data,
    /// not its workload).
    // dtm-lint: bounded -- outer Vec is O(object population) by design; inner lists shrink as requests are served
    requesters: Vec<Vec<(Time, TxnId, NodeId)>>,
    /// In-transit objects: a min-heap on (arrive, id) from which the
    /// receive phase pops due deliveries instead of scanning every
    /// object. Invariant: one entry per object in `ObjectPlace::Hop`,
    /// pushed at departure and popped exactly when the hop completes —
    /// entries are never removed early, so a heap (cheaper per op than
    /// an ordered set) suffices.
    // dtm-lint: bounded -- popped exactly when each hop completes; O(objects in flight)
    transit: BinaryHeap<Reverse<(Time, ObjectId)>>,
    /// Objects currently traversing each undirected edge. Maintained
    /// **only when `config.link_capacity` is set** — it exists to answer
    /// the capacity admission check in the forward phase, and nothing
    /// else reads it (`StepEffects::edge_loads` and the congestion
    /// metrics are derived from effects/events, not from this map).
    /// Entries are removed when their load returns to zero, so the map
    /// holds only edges with objects currently on them.
    // dtm-lint: bounded -- entries removed when their load returns to zero; O(occupied edges)
    edge_load: BTreeMap<(NodeId, NodeId), u32>,

    // dtm-lint: bounded -- fixed at construction; never grows after new()
    observers: Vec<Box<dyn StepObserver>>,
    /// Per-tick bitmask of observers accepting `on_phase` this step
    /// (bit i = observer i; observers past bit 63 are always called).
    /// Recomputed at the top of every tick, never checkpointed.
    phase_mask: u64,
    // dtm-lint: bounded -- empty in correct runs; growth is itself the reported failure
    violations: Vec<Violation>,
    comm_cost: u64,
    hops: u64,

    /// Commits folded into scalars so streaming retention needs no maps.
    commit_count: u64,
    /// Time of the latest commit (the makespan).
    last_commit: Time,
    /// Sojourn latency (commit − generation) of the transactions
    /// generated at or after `sojourn_warmup`.
    sojourn: Log2Histogram,
    /// The streaming warmup cutoff; 0 under [`Retention::Full`].
    sojourn_warmup: Time,

    /// Reusable buffer for the source's arrivals (phase 2): drained every
    /// tick, so the steady-state tick allocates nothing on quiet steps.
    // dtm-lint: bounded -- drained every tick; capacity plateaus at the largest arrival batch
    arrivals_buf: Vec<Transaction>,
    /// Scratch (object, target home) buffer for the forward phase.
    // dtm-lint: bounded -- cleared every forward phase; capacity plateaus at in-flight moves
    scratch_moves: Vec<(ObjectId, NodeId)>,
    /// Scratch due-transaction buffer for the execute phase.
    // dtm-lint: bounded -- cleared every execute phase; capacity plateaus at the due batch
    scratch_due: Vec<(Time, TxnId)>,
    /// Scratch object-id buffers reused by the execute phase
    /// (same-step object consumption) and `apply_fragment`.
    // dtm-lint: bounded -- cleared every use; capacity plateaus at objects touched per step
    scratch_used: Vec<ObjectId>,
    // dtm-lint: bounded -- cleared every use; capacity plateaus at objects touched per step
    scratch_objs: Vec<ObjectId>,

    /// Effects of the most recent tick (buffers reused across ticks):
    /// the phases' only write channel besides the §II state.
    effects: StepEffects,
}

/// Where a run stands, under open-system (never-exhausting) sources as
/// well as closed batches. See [`StepKernel::status`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// More work may come: the source is live or transactions are in
    /// flight, and the step limit has not been reached.
    Open,
    /// The source is exhausted and every live transaction committed — the
    /// closed-batch notion of "done".
    Drained,
    /// The inclusive step limit was exceeded with the run still open.
    StepLimit,
}

/// Sizes of the kernel's internal bookkeeping structures
/// ([`StepKernel::map_stats`]), each bounded for the life of a run —
/// the map-level companion of the arena's `slot_high_water()`
/// invariant, pinned under streaming churn by `tests/streaming.rs`:
///
/// - `exec_queue` ≤ live transactions (entries removed on commit/abort);
/// - `requester_entries` ≤ Σ |object set| over scheduled live
///   transactions (same removal discipline);
/// - `requester_objects` and `in_transit` ≤ objects ever created;
/// - `edge_load_entries` ≤ in-transit objects, and 0 whenever
///   `link_capacity` is unset (the map only feeds the admission check);
/// - `forwarding_entries` is always 0: the kernel keeps no forwarding
///   trail (its one reader, the message-level Algorithm 3 policy, folds
///   its own from [`StepEffects::departed`]). The field stays until the
///   benchmark's `kernel.map.forwarding_entries` metric is retired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelMapStats {
    /// Scheduled, uncommitted transactions awaiting execution.
    pub exec_queue: usize,
    /// Total (time, txn) entries across all per-object requester sets.
    pub requester_entries: usize,
    /// Objects with an (possibly empty) requester set allocated.
    pub requester_objects: usize,
    /// Objects currently traversing an edge.
    pub in_transit: usize,
    /// Edges with at least one object on them (capacity runs only).
    pub edge_load_entries: usize,
    /// Always 0; kept for the benchmark metric that reads it (see the
    /// struct docs).
    pub forwarding_entries: usize,
}

/// A deterministic snapshot of a [`StepKernel`] between two ticks.
///
/// Captures everything the remaining steps depend on *except* the
/// attached observers (see the module docs). Obtained via
/// [`StepKernel::checkpoint`]; [`RunCheckpoint::resume`] turns it back
/// into a live kernel.
pub struct RunCheckpoint<P, S> {
    kernel: StepKernel<P, S>,
}

impl<P, S> RunCheckpoint<P, S> {
    /// The step the checkpointed run will execute next.
    pub fn now(&self) -> Time {
        self.kernel.now
    }

    /// Turn the snapshot back into a live kernel (no observers
    /// attached; see [`StepKernel::with_observer`]).
    pub fn resume(self) -> StepKernel<P, S> {
        self.kernel
    }
}

impl<P: SchedulingPolicy, S: WorkloadSource> StepKernel<P, S> {
    /// Build a kernel at step 0. Usually reached through
    /// [`crate::Engine::into_kernel`].
    pub(crate) fn new(
        network: Network,
        policy: P,
        config: EngineConfig,
        observers: Vec<Box<dyn StepObserver>>,
        source: S,
    ) -> Self {
        // Objects are created lazily at their creation step; collect specs.
        let mut pending: Vec<ObjectInfo> = source.objects().to_vec();
        pending.sort_by_key(|o| (o.created_at, o.id));
        let (log, sojourn_warmup) = match config.retention {
            Retention::Full => (Some(RunLog::new(config.record_events)), 0),
            Retention::Streaming { warmup } => (None, warmup),
        };
        StepKernel {
            network,
            policy,
            config,
            source,
            now: 0,
            pending_objects: VecDeque::from(pending),
            state: RuntimeState::new(),
            log,
            retired: Vec::new(),
            exec_queue: BTreeSet::new(),
            requesters: Vec::new(),
            transit: BinaryHeap::new(),
            edge_load: BTreeMap::new(),
            observers,
            phase_mask: 0,
            violations: Vec::new(),
            comm_cost: 0,
            hops: 0,
            commit_count: 0,
            last_commit: 0,
            sojourn: Log2Histogram::new(),
            sojourn_warmup,
            arrivals_buf: Vec::new(),
            scratch_moves: Vec::new(),
            scratch_due: Vec::new(),
            scratch_used: Vec::new(),
            scratch_objs: Vec::new(),
            effects: StepEffects::default(),
        }
    }

    /// Attach a [`StepObserver`]; see [`crate::Engine::with_observer`].
    pub fn with_observer(mut self, observer: impl StepObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// The step the next [`StepKernel::tick`] will execute.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of live (generated, uncommitted) transactions.
    pub fn live_count(&self) -> usize {
        self.state.txns().len()
    }

    /// Effects of the most recent tick (empty before the first).
    pub fn last_effects(&self) -> &StepEffects {
        &self.effects
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The policy driving this run, for reading its own gauges.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// A read-only [`SystemView`] of the current state, as a policy
    /// would see it.
    pub fn view(&self) -> SystemView<'_> {
        SystemView::from_state(self.now, &self.network, &self.state)
    }

    /// True once the run is over: the source is exhausted and every
    /// transaction committed ([`StepKernel::drained`]), or the step
    /// limit was exceeded. Open-system sources never exhaust, so their
    /// kernels report `done()` only at the step limit — drive them with
    /// [`StepKernel::run_for`] / [`StepKernel::run_until`] instead of
    /// running to completion.
    pub fn done(&self) -> bool {
        self.drained() || self.now > self.config.max_steps
    }

    /// True when the source will produce no further arrivals **and**
    /// every live transaction has committed — the closed-batch notion of
    /// completion, split out from the step-limit stop of
    /// [`StepKernel::done`].
    pub fn drained(&self) -> bool {
        self.source.exhausted() && self.state.txns().is_empty()
    }

    /// Where the run stands: [`RunStatus::Drained`] if cleanly complete,
    /// [`RunStatus::StepLimit`] if stopped by the inclusive step limit
    /// while still open, [`RunStatus::Open`] otherwise.
    pub fn status(&self) -> RunStatus {
        if self.drained() {
            RunStatus::Drained
        } else if self.now > self.config.max_steps {
            RunStatus::StepLimit
        } else {
            RunStatus::Open
        }
    }

    /// Commits so far (maintained in every retention mode).
    pub fn commit_count(&self) -> u64 {
        self.commit_count
    }

    /// Time of the latest commit so far (0 before the first).
    pub fn last_commit_at(&self) -> Time {
        self.last_commit
    }

    /// Sojourn latency histogram (commit − generation), filled in every
    /// retention mode; under [`Retention::Streaming`] only for
    /// transactions generated at or after the configured warmup.
    pub fn sojourn_latency(&self) -> &Log2Histogram {
        &self.sojourn
    }

    /// High-water mark of transaction-arena *slots* ever allocated. With
    /// free-list recycling this is bounded by the peak live set, not by
    /// the total number of transactions that streamed through — the
    /// bounded-memory invariant open-system runs assert.
    pub fn arena_high_water(&self) -> usize {
        self.state.txns().slot_high_water()
    }

    /// Peak number of simultaneously live transactions so far (the
    /// arena's own record: transactions join the live set only there).
    pub fn peak_live(&self) -> usize {
        self.state.txns().peak_live()
    }

    /// Sizes of the kernel's internal bookkeeping maps, for boundedness
    /// assertions in long-run (streaming) tests. See [`KernelMapStats`]
    /// for the invariant each gauge is expected to satisfy.
    pub fn map_stats(&self) -> KernelMapStats {
        KernelMapStats {
            exec_queue: self.exec_queue.len(),
            requester_entries: self.requesters.iter().map(|s| s.len()).sum(),
            requester_objects: self.requesters.len(),
            in_transit: self.transit.len(),
            edge_load_entries: self.edge_load.len(),
            forwarding_entries: 0,
        }
    }

    /// Advance exactly one time step through all phases, returning its
    /// effects — or `None` if the run is already [`StepKernel::done`].
    pub fn tick(&mut self) -> Option<&StepEffects> {
        if self.done() {
            return None;
        }
        let t = self.now;
        self.effects.clear();
        self.effects.t = t;
        // Timing is decided once per tick: when every attached observer
        // declines (or none is attached), no phase pays for Instant::now.
        let timed = !self.observers.is_empty() && self.observers.iter().any(|o| o.wants_timing(t));
        // Phase callbacks likewise: ask each observer once per tick, not
        // five times, so step-end-only observers (health monitors, ring
        // recorders on unsampled steps) cost nothing during phases.
        self.phase_mask = 0;
        for (i, obs) in self.observers.iter().enumerate().take(64) {
            if obs.wants_phases(t) {
                self.phase_mask |= 1 << i;
            }
        }

        // 0. Object creation.
        self.create_objects(t);

        // 1. Receive: complete edge traversals.
        let mark = phase_mark(timed);
        let received = self.phase_receive(t);
        self.phase_end(t, Phase::Receive, received, mark);

        // 2. Generate.
        let mark = phase_mark(timed);
        let arrived = self.phase_generate(t);
        self.phase_end(t, Phase::Generate, arrived, mark);

        // 3. Schedule. The policy window first takes this tick's head.
        let mark = phase_mark(timed);
        self.state.effects_mut().extend_head(&self.effects);
        let fragment_len = self.phase_schedule(t);
        self.phase_end(t, Phase::Schedule, fragment_len, mark);

        // 4. Execute.
        let mark = phase_mark(timed);
        let committed = self.phase_execute(t);
        self.phase_end(t, Phase::Execute, committed, mark);

        // 5. Forward.
        let mark = phase_mark(timed);
        let departed = self.phase_forward(t);
        self.phase_end(t, Phase::Forward, departed, mark);

        // Step end. Until the next policy call the window holds only
        // this tick's tail; retired bodies outlive the tick only in the log.
        self.effects.live_after = self.state.txns().len();
        self.state.effects_mut().reset_to_tail(&self.effects);
        if let Some(log) = &mut self.log {
            log.fold(&self.effects, &self.state, &mut self.retired);
        }
        self.retired.clear();
        if !self.observers.is_empty() {
            let view = SystemView::from_state(t, &self.network, &self.state);
            for obs in &mut self.observers {
                obs.on_step_end_in(&view, &self.effects);
            }
        }
        self.now += 1;
        Some(&self.effects)
    }

    /// Advance at most `n` steps; returns how many actually ran (fewer
    /// only when the run completed first). On a never-exhausting source
    /// this runs exactly `n` steps (step limit permitting); interleave
    /// with [`StepKernel::status`] / [`StepKernel::live_count`] to watch
    /// backlog evolve.
    pub fn run_for(&mut self, n: u64) -> u64 {
        let mut ran = 0;
        while ran < n && self.tick().is_some() {
            ran += 1;
        }
        ran
    }

    /// Advance until `pred` accepts a tick's effects. Returns `true` if
    /// the predicate fired, `false` if the run completed first.
    pub fn run_until(&mut self, mut pred: impl FnMut(&StepEffects) -> bool) -> bool {
        loop {
            match self.tick() {
                Some(fx) => {
                    if pred(fx) {
                        return true;
                    }
                }
                None => return false,
            }
        }
    }

    /// Snapshot the run between two ticks (see the module docs for the
    /// resumability contract). The policy is captured through
    /// [`SchedulingPolicy::fork`]; observers are not carried over.
    pub fn checkpoint(&self) -> RunCheckpoint<P, S>
    where
        P: Clone,
        S: Clone,
    {
        RunCheckpoint {
            kernel: StepKernel {
                network: self.network.clone(),
                policy: self.policy.fork(),
                config: self.config.clone(),
                source: self.source.clone(),
                now: self.now,
                pending_objects: self.pending_objects.clone(),
                state: self.state.clone(),
                log: self.log.clone(),
                // Empty between ticks.
                retired: Vec::new(),
                exec_queue: self.exec_queue.clone(),
                requesters: self.requesters.clone(),
                transit: self.transit.clone(),
                edge_load: self.edge_load.clone(),
                observers: Vec::new(),
                phase_mask: 0,
                violations: self.violations.clone(),
                comm_cost: self.comm_cost,
                hops: self.hops,
                commit_count: self.commit_count,
                last_commit: self.last_commit,
                sojourn: self.sojourn.clone(),
                sojourn_warmup: self.sojourn_warmup,
                // Scratch buffers hold no state between ticks.
                arrivals_buf: Vec::new(),
                scratch_moves: Vec::new(),
                scratch_due: Vec::new(),
                scratch_used: Vec::new(),
                scratch_objs: Vec::new(),
                effects: self.effects.clone(),
            },
        }
    }

    /// Drive the run to completion and seal the result. Equivalent to
    /// the pre-kernel `Engine::run`.
    pub fn finish(mut self) -> RunResult {
        while self.tick().is_some() {}
        // Inclusive bound: steps 0..=max_steps ran; reaching
        // max_steps + 1 with live transactions is the violation. A
        // clean finish (source exhausted, live set empty) at the same
        // step is *not* one.
        if self.status() == RunStatus::StepLimit {
            let mut sample: Vec<TxnId> = self.state.txns().ids().collect();
            sample.sort_unstable();
            sample.truncate(Violation::MAX_REPORTED_LIVE);
            self.violations.push(Violation::MaxStepsExceeded {
                live: self.state.txns().len(),
                sample,
            });
        }
        let mut result = RunResult {
            metrics: Metrics {
                makespan: self.last_commit,
                committed: self.commit_count as usize,
                comm_cost: self.comm_cost,
                hops: self.hops,
                latency: self.sojourn.summary(),
                peak_live: self.peak_live(),
                steps: self.now,
            },
            violations: self.violations,
            policy: self.policy.name(),
            ..RunResult::default()
        };
        // Full retention swaps in the id-keyed maps and exact latency;
        // streaming keeps them empty by design.
        if let Some(log) = self.log {
            log.seal(&self.state, &mut result);
        }
        result
    }

    fn phase_end(&mut self, t: Time, phase: Phase, items: usize, started: Option<Instant>) {
        if self.phase_mask == 0 && self.observers.len() <= 64 {
            return;
        }
        let elapsed = started.map_or(std::time::Duration::ZERO, |s| s.elapsed());
        for (i, obs) in self.observers.iter_mut().enumerate() {
            if i < 64 && self.phase_mask & (1 << i) == 0 {
                continue;
            }
            obs.on_phase(t, phase, items, elapsed);
        }
    }

    /// Phase 0: create objects whose creation step has come.
    // dtm-lint: hot-path
    fn create_objects(&mut self, t: Time) {
        while let Some(first) = self.pending_objects.front() {
            if first.created_at > t {
                break;
            }
            // dtm-lint: allow(C1) -- front() above returned Some, the deque is non-empty
            let info = self.pending_objects.pop_front().expect("non-empty");
            self.state.insert_object(ObjectState {
                info,
                place: ObjectPlace::At(info.origin),
                last_holder: None,
            });
            self.effects.created.push(info.id);
        }
    }

    /// Phase 1: objects completing edge traversals arrive at their next
    /// node. Returns the number of deliveries.
    ///
    /// Due deliveries are popped from the in-transit min-queue in
    /// O(due · log) — a quiet step costs one `first()` peek, not a scan
    /// of every object. With `speed_divisor >= 1` (asserted at engine
    /// construction) every due entry has `arrive == t` exactly, so the
    /// (arrive, id) pop order coincides with the object-id scan order
    /// the pre-queue kernel used — deliveries stay byte-identical.
    // dtm-lint: hot-path
    fn phase_receive(&mut self, t: Time) -> usize {
        let mut received = 0;
        while let Some(&Reverse((arrive, id))) = self.transit.peek() {
            if arrive > t {
                break;
            }
            self.transit.pop();
            received += 1;
            let st = self.state.object_mut(id).expect("object exists"); // dtm-lint: allow(C1) -- transit entries are inserted/removed in lockstep with ObjectPlace::Hop
            let ObjectPlace::Hop { from, next, .. } = st.place else {
                debug_assert!(false, "transit entry for a resting object");
                continue;
            };
            st.place = ObjectPlace::At(next);
            if self.config.link_capacity.is_some() {
                // Exact load accounting (the map feeds the capacity
                // admission check): decrement must find the departure's
                // increment, and an edge whose load returns to zero is
                // dropped so checkpoints carry no dead keys.
                let key = edge_key(from, next);
                match self.edge_load.get_mut(&key) {
                    Some(load) => {
                        debug_assert!(*load > 0, "edge load underflow on {key:?}");
                        *load -= 1;
                        if *load == 0 {
                            self.edge_load.remove(&key);
                        }
                    }
                    None => debug_assert!(false, "delivery on untracked edge {key:?}"),
                }
            }
            self.effects.delivered.push(Delivery {
                object: id,
                from,
                node: next,
            });
        }
        received
    }

    /// Phase 2: the workload source's arrivals join the live set.
    /// Returns the number of arrivals (ids land in `effects.arrived`).
    // dtm-lint: hot-path
    fn phase_generate(&mut self, t: Time) -> usize {
        let mut batch = std::mem::take(&mut self.arrivals_buf);
        self.source.arrivals_into(t, &mut batch);
        for txn in batch.drain(..) {
            debug_assert_eq!(txn.generated_at, t, "source produced wrong time");
            self.effects.arrived.push(txn.id);
            self.state.insert_txn(LiveTxn {
                txn,
                scheduled: None,
            });
        }
        self.arrivals_buf = batch;
        self.effects.arrived.len()
    }

    /// Phase 3: consult the policy once and merge its fragment. The
    /// view publishes the policy window: every change since the previous
    /// policy call (see the module docs). Returns the raw fragment
    /// length.
    // dtm-lint: hot-path
    fn phase_schedule(&mut self, t: Time) -> usize {
        let fragment = {
            let view = SystemView::from_state(t, &self.network, &self.state);
            self.policy.step(&view, &self.effects.arrived)
        };
        let fragment_len = fragment.len();
        self.apply_fragment(fragment);
        fragment_len
    }

    /// Merge a policy's schedule fragment, enforcing the "never re-time"
    /// and "never in the past" rules.
    // dtm-lint: hot-path
    fn apply_fragment(&mut self, fragment: Schedule) {
        let t = self.now;
        let mut objects = std::mem::take(&mut self.scratch_objs);
        for (txn, exec_at) in fragment.iter() {
            let Some(lt) = self.state.txn_mut(txn) else {
                self.violations.push(Violation::UnknownTxn { txn });
                continue;
            };
            if lt.scheduled.is_some() {
                self.violations.push(Violation::Rescheduled { txn });
                continue;
            }
            if exec_at < t {
                self.violations.push(Violation::ScheduledInPast {
                    txn,
                    proposed: exec_at,
                    now: t,
                });
                continue;
            }
            lt.scheduled = Some(exec_at);
            let home = lt.txn.home;
            objects.clear();
            objects.extend(lt.txn.objects());
            self.exec_queue.insert((exec_at, txn));
            for &o in &objects {
                let i = o.index();
                if i >= self.requesters.len() {
                    self.requesters.resize_with(i + 1, Vec::new); // dtm-lint: allow(H1) -- grows once per new object; the population is monotone, so a warmed steady state never resizes
                }
                let list = &mut self.requesters[i];
                let entry = (exec_at, txn, home);
                if let Err(pos) = list.binary_search(&entry) {
                    list.insert(pos, entry);
                }
            }
            self.effects.scheduled.push((txn, exec_at));
        }
        self.scratch_objs = objects;
    }

    /// Phase 4: commit every due transaction whose objects are
    /// assembled. Returns the number of commits (aborts not counted).
    ///
    /// Two conflicting transactions never commit at the same step: an
    /// object consumed by a commit at this step is unavailable to later
    /// same-step commits (atomicity of the exclusive accesses).
    // dtm-lint: hot-path
    fn phase_execute(&mut self, t: Time) -> usize {
        let mut due = std::mem::take(&mut self.scratch_due);
        // Pop (rather than range-copy-then-remove) so each due entry
        // costs one ordered-set operation; the rare stays-queued case
        // (`allow_late_execution`) reinserts below.
        while let Some(&(exec_at, txn_id)) = self.exec_queue.first() {
            if exec_at > t {
                break;
            }
            self.exec_queue.pop_first();
            due.push((exec_at, txn_id));
        }
        // Objects consumed by this step's commits. Linear membership is
        // fine: a step commits a handful of transactions of k objects
        // each, and the buffer is reused across ticks (no allocation).
        let mut used_this_step = std::mem::take(&mut self.scratch_used);
        used_this_step.clear();
        for (exec_at, txn_id) in due.drain(..) {
            let lt = self
                .state
                .txns()
                .get(txn_id)
                .expect("scheduled txn is live"); // dtm-lint: allow(C1) -- exec_queue holds only live transactions (entries removed on commit/abort)
            let home = lt.txn.home;
            let assembled = lt.txn.objects().all(|o| {
                !used_this_step.contains(&o)
                    && matches!(
                        self.state.objects().get(o).map(|s| s.place),
                        Some(ObjectPlace::At(v)) if v == home
                    )
            });
            if assembled {
                // Commit.
                let txn = self.state.remove_txn(txn_id).expect("live").txn; // dtm-lint: allow(C1) -- committed txn was read from the live arena two lines above
                for o in txn.objects() {
                    used_this_step.push(o);
                    if let Some(list) = self.requesters.get_mut(o.index()) {
                        if let Ok(pos) = list.binary_search(&(exec_at, txn_id, home)) {
                            list.remove(pos);
                        }
                    }
                    // dtm-lint: allow(C1) -- object ids in a live txn's read/write set always exist in the arena
                    self.state.object_mut(o).expect("object exists").last_holder = Some(txn_id);
                }
                self.effects.committed.push(txn_id);
                self.commit_count += 1;
                self.last_commit = t;
                if txn.generated_at >= self.sojourn_warmup {
                    self.sojourn.record(t - txn.generated_at);
                }
                self.source.on_commit(&txn, t);
                self.retired.push(txn);
            } else if exec_at == t && !self.config.allow_late_execution {
                // Missed its designated slot: scheduler/infrastructure bug.
                self.violations.push(Violation::MissedExecution {
                    txn: txn_id,
                    scheduled: exec_at,
                });
                let txn = self.state.remove_txn(txn_id).expect("live").txn; // dtm-lint: allow(C1) -- violating txn was read from the live arena above
                for o in txn.objects() {
                    if let Some(list) = self.requesters.get_mut(o.index()) {
                        if let Ok(pos) = list.binary_search(&(exec_at, txn_id, txn.home)) {
                            list.remove(pos);
                        }
                    }
                }
                self.effects.aborted.push(txn_id);
                // Treat as aborted: tell the source so closed loops go on.
                self.source.on_commit(&txn, t);
                self.retired.push(txn);
            } else {
                // allow_late_execution: stays queued, retried next step.
                self.exec_queue.insert((exec_at, txn_id));
            }
        }
        self.scratch_due = due;
        self.scratch_used = used_this_step;
        self.effects.committed.len()
    }

    /// Phase 5: move every resting object one hop toward its earliest
    /// pending scheduled requester. Returns the number of departures.
    ///
    /// The scan walks the requester index, not the object arena: only
    /// objects with a scheduled requester can move, and each entry
    /// already carries the requester's home, so idle objects cost
    /// nothing and moving ones resolve their target without arena
    /// lookups. Index order is object-id order — the same departure
    /// order the arena scan produced.
    // dtm-lint: hot-path
    fn phase_forward(&mut self, t: Time) -> usize {
        let mut moves = std::mem::take(&mut self.scratch_moves);
        for (i, list) in self.requesters.iter().enumerate() {
            if let Some(&(_, _, home)) = list.first() {
                moves.push((ObjectId(i as u32), home));
            }
        }
        for (id, target_home) in moves.drain(..) {
            // One mutable arena probe serves both the place check and the
            // later in-place update; borrows of sibling fields (network,
            // edge_load) stay disjoint from `state`.
            // Objects whose creation step has not come yet cannot move;
            // the old arena scan skipped them implicitly.
            let Some(st) = self.state.object_mut(id) else {
                continue;
            };
            let ObjectPlace::At(here) = st.place else {
                continue;
            };
            if here == target_home {
                continue; // staged at the requester's node
            }
            let (next, w) = self.network.hop_toward(here, target_home);
            if let Some(cap) = self.config.link_capacity {
                // Admission + increment in one ordered-map probe: all of
                // a step's departures on an edge batch against the same
                // entry, and uncapacitated runs skip the map entirely.
                match self.edge_load.entry(edge_key(here, next)) {
                    Entry::Occupied(mut e) => {
                        if *e.get() >= cap {
                            continue; // edge saturated: wait a step
                        }
                        *e.get_mut() += 1;
                    }
                    Entry::Vacant(e) => {
                        if cap == 0 {
                            continue; // zero-capacity edge never admits
                        }
                        e.insert(1);
                    }
                }
            }
            let arrive = t + w * self.config.speed_divisor;
            st.place = ObjectPlace::Hop {
                from: here,
                next,
                arrive,
            };
            self.transit.push(Reverse((arrive, id)));
            self.effects.departed.push(Departure {
                object: id,
                from: here,
                to: next,
                arrive,
            });
            self.comm_cost += w;
            self.hops += 1;
        }
        self.scratch_moves = moves;
        self.effects.departed.len()
    }
}

/// Phase-timing start mark (only when the step is timed, so unobserved
/// and unsampled steps never pay for `Instant::now`).
fn phase_mark(timed: bool) -> Option<Instant> {
    if timed {
        Some(Instant::now())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::events::Event;
    use crate::policy::FixedSchedulePolicy;
    use dtm_graph::topology;
    use dtm_model::{Instance, TraceSource};

    fn obj(id: u32, origin: u32) -> ObjectInfo {
        ObjectInfo {
            id: ObjectId(id),
            origin: NodeId(origin),
            created_at: 0,
        }
    }

    fn txn(id: u64, home: u32, objs: &[u32], t: Time) -> Transaction {
        Transaction::new(
            TxnId(id),
            NodeId(home),
            objs.iter().map(|&o| ObjectId(o)),
            t,
        )
    }

    /// Line of 4; object at node 0; T0 at node 2 (exec 2), T1 at node 3
    /// (exec 3). The per-tick effects narrate the whole run.
    fn small_kernel() -> StepKernel<FixedSchedulePolicy, TraceSource> {
        let net = topology::line(4);
        let inst = Instance::new(
            vec![obj(0, 0)],
            vec![txn(0, 2, &[0], 0), txn(1, 3, &[0], 0)],
        );
        let sched: Schedule = [(TxnId(0), 2), (TxnId(1), 3)].into_iter().collect();
        Engine::new(
            net,
            FixedSchedulePolicy::new(sched),
            EngineConfig::default(),
        )
        .into_kernel(TraceSource::new(inst))
    }

    #[test]
    fn tick_effects_narrate_each_step() {
        let mut k = small_kernel();
        assert!(!k.done());
        assert_eq!(k.now(), 0);

        // Step 0: object created, both txns arrive + are scheduled, the
        // object departs toward node 2.
        let fx = k.tick().expect("step 0 runs");
        assert_eq!(fx.t, 0);
        assert_eq!(fx.created, vec![ObjectId(0)]);
        assert_eq!(fx.arrived, vec![TxnId(0), TxnId(1)]);
        assert_eq!(fx.scheduled, vec![(TxnId(0), 2), (TxnId(1), 3)]);
        assert!(fx.committed.is_empty());
        assert_eq!(fx.departed.len(), 1);
        assert_eq!(fx.departed[0].object, ObjectId(0));
        assert_eq!(fx.live_after, 2);
        assert_eq!(fx.edge_loads()[&(NodeId(0), NodeId(1))], 1);

        // Step 1: the object hops 0->1 (delivery), then departs 1->2.
        let fx = k.tick().expect("step 1 runs");
        assert_eq!(fx.delivered.len(), 1);
        assert_eq!(fx.departed.len(), 1);
        assert!(!fx.is_empty());

        // Step 2: delivery at node 2, T0 commits, object departs to 3.
        let fx = k.tick().expect("step 2 runs");
        assert_eq!(fx.committed, vec![TxnId(0)]);
        assert_eq!(fx.live_after, 1);

        // Step 3: delivery at node 3, T1 commits. Run is done.
        let fx = k.tick().expect("step 3 runs");
        assert_eq!(fx.committed, vec![TxnId(1)]);
        assert_eq!(fx.live_after, 0);
        assert!(k.done());
        assert!(k.tick().is_none());

        let res = k.finish();
        res.expect_ok();
        assert_eq!(res.commits[&TxnId(0)], 2);
        assert_eq!(res.commits[&TxnId(1)], 3);
    }

    /// Line of 4; the object rests at node 1, T0's home. T0 (home 1)
    /// and T1 (home 3) are both scheduled at their generation step 0:
    /// T0 commits and T1 misses its slot, both in the tick that
    /// generated them.
    fn same_tick_kernel() -> StepKernel<FixedSchedulePolicy, TraceSource> {
        let inst = Instance::new(
            vec![obj(0, 1)],
            vec![txn(0, 1, &[0], 0), txn(1, 3, &[0], 0)],
        );
        let sched: Schedule = [(TxnId(0), 0), (TxnId(1), 0)].into_iter().collect();
        Engine::new(
            topology::line(4),
            FixedSchedulePolicy::new(sched),
            EngineConfig::default(),
        )
        .into_kernel(TraceSource::new(inst))
    }

    /// The event log is folded from the effects at step end, after both
    /// transactions left the live arena: their homes come from the
    /// tick's retired bodies.
    #[test]
    fn events_of_same_tick_retirements_carry_homes() {
        let mut k = same_tick_kernel();
        let fx = k.tick().expect("step 0 runs");
        assert_eq!(fx.committed, vec![TxnId(0)]);
        assert_eq!(fx.aborted, vec![TxnId(1)]);
        assert!(k.done());
        let res = k.finish();
        let (t, object) = (0, ObjectId(0));
        assert_eq!(
            res.events,
            vec![
                Event::ObjectCreated {
                    t,
                    object,
                    node: NodeId(1)
                },
                Event::Generated {
                    t,
                    txn: TxnId(0),
                    node: NodeId(1)
                },
                Event::Generated {
                    t,
                    txn: TxnId(1),
                    node: NodeId(3)
                },
                Event::Scheduled {
                    t,
                    txn: TxnId(0),
                    exec_at: 0
                },
                Event::Scheduled {
                    t,
                    txn: TxnId(1),
                    exec_at: 0
                },
                Event::Committed {
                    t,
                    txn: TxnId(0),
                    node: NodeId(1)
                },
            ]
        );
        assert_eq!(
            res.violations,
            vec![Violation::MissedExecution {
                txn: TxnId(1),
                scheduled: 0
            }]
        );
        assert_eq!(res.txns.len(), 2, "aborted bodies are retained too");
        assert_eq!(res.commits[&TxnId(0)], 0);
    }

    /// Between ticks the policy window holds exactly the last tick's
    /// tail (scheduled, committed, aborted, departed); its head
    /// (created, delivered, arrived) joins at the next policy call.
    #[test]
    fn window_holds_the_last_ticks_tail() {
        for mut k in [small_kernel(), same_tick_kernel()] {
            while let Some(fx) = k.tick().cloned() {
                let w = k.view().step_effects();
                assert!(w.created.is_empty() && w.delivered.is_empty() && w.arrived.is_empty());
                assert_eq!(w.scheduled, fx.scheduled);
                assert_eq!(w.committed, fx.committed);
                assert_eq!(w.aborted, fx.aborted);
                assert_eq!(w.departed, fx.departed);
            }
        }
        // The same-tick kernel's window carries a commit and an abort.
        let mut k = same_tick_kernel();
        k.tick();
        let w = k.view().step_effects();
        assert_eq!((w.committed.len(), w.aborted.len()), (1, 1));
    }

    /// The sojourn histogram is filled under full retention too (no
    /// warmup), and agrees with the exact latency summary's count.
    #[test]
    fn full_retention_fills_the_sojourn_histogram() {
        let mut k = small_kernel();
        while k.tick().is_some() {}
        let sojourns = k.sojourn_latency().count();
        let res = k.finish();
        assert_eq!(sojourns, res.metrics.committed as u64);
        assert_eq!(res.metrics.latency.count, res.metrics.committed);
        assert_eq!(res.metrics.latency.max, 3);
    }

    #[test]
    fn run_until_stops_on_predicate_or_completion() {
        let mut k = small_kernel();
        assert!(k.run_until(|fx| !fx.committed.is_empty()));
        assert_eq!(k.last_effects().committed, vec![TxnId(0)]);
        assert_eq!(k.now(), 3);
        // No tick ever commits 99 transactions: runs to completion.
        assert!(!k.run_until(|fx| fx.committed.len() == 99));
        assert!(k.done());
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let uninterrupted = small_kernel().finish();
        let mut k = small_kernel();
        k.run_for(2);
        let cp = k.checkpoint();
        assert_eq!(cp.now(), 2);
        // The original keeps running; the resumed copy must agree.
        let original = k.finish();
        let resumed = cp.resume().finish();
        assert_eq!(original.commits, resumed.commits);
        assert_eq!(original.events, resumed.events);
        assert_eq!(uninterrupted.events, resumed.events);
        assert_eq!(uninterrupted.schedule, resumed.schedule);
    }

    #[test]
    fn view_exposes_current_state() {
        let mut k = small_kernel();
        k.run_for(1);
        let view = k.view();
        assert_eq!(view.now, 1);
        assert_eq!(view.live_count(), 2);
        assert!(view.live(TxnId(0)).is_some());
        assert_eq!(k.live_count(), 2);
    }

    /// Streaming retention on a finite trace: same commits (as counted
    /// scalars), empty per-transaction maps, drained status, and a
    /// sojourn histogram honoring the warmup cutoff.
    #[test]
    fn streaming_retention_matches_full_counts_with_empty_maps() {
        let net = topology::line(4);
        let make_inst = || {
            Instance::new(
                vec![obj(0, 0)],
                vec![txn(0, 2, &[0], 0), txn(1, 3, &[0], 0)],
            )
        };
        let sched: Schedule = [(TxnId(0), 2), (TxnId(1), 3)].into_iter().collect();
        let full = Engine::new(
            net.clone(),
            FixedSchedulePolicy::new(sched.clone()),
            EngineConfig::default(),
        )
        .run(TraceSource::new(make_inst()));
        full.expect_ok();

        let cfg = EngineConfig {
            retention: crate::engine::Retention::Streaming { warmup: 0 },
            ..EngineConfig::default()
        };
        let mut k = Engine::new(net, FixedSchedulePolicy::new(sched), cfg)
            .into_kernel(TraceSource::new(make_inst()));
        assert_eq!(k.status(), RunStatus::Open);
        while k.tick().is_some() {}
        assert!(k.drained());
        assert_eq!(k.status(), RunStatus::Drained);
        assert_eq!(k.commit_count(), 2);
        assert_eq!(k.last_commit_at(), 3);
        // Sojourn latencies: T0 committed at 2, T1 at 3, both generated
        // at 0 — the histogram saw both.
        assert_eq!(k.sojourn_latency().count(), 2);
        assert_eq!(k.sojourn_latency().max(), 3);
        let res = k.finish();
        res.expect_ok();
        assert_eq!(res.metrics.committed, full.metrics.committed);
        assert_eq!(res.metrics.makespan, full.metrics.makespan);
        assert_eq!(res.metrics.comm_cost, full.metrics.comm_cost);
        assert_eq!(res.metrics.hops, full.metrics.hops);
        assert_eq!(res.metrics.latency.count, full.metrics.latency.count);
        assert_eq!(res.metrics.latency.max, full.metrics.latency.max);
        // Bounded-memory contract: no per-transaction history retained.
        assert!(res.txns.is_empty());
        assert!(res.commits.is_empty());
        assert!(res.schedule.is_empty());
        assert!(res.events.is_empty());
    }

    /// The warmup cutoff excludes early generations from the sojourn
    /// histogram without affecting the commit count.
    #[test]
    fn streaming_warmup_excludes_cold_start_from_latency() {
        let net = topology::line(4);
        let inst = Instance::new(
            vec![obj(0, 0)],
            vec![txn(0, 2, &[0], 0), txn(1, 3, &[0], 1)],
        );
        let sched: Schedule = [(TxnId(0), 2), (TxnId(1), 3)].into_iter().collect();
        let cfg = EngineConfig {
            retention: crate::engine::Retention::Streaming { warmup: 1 },
            ..EngineConfig::default()
        };
        let mut k = Engine::new(net, FixedSchedulePolicy::new(sched), cfg)
            .into_kernel(TraceSource::new(inst));
        while k.tick().is_some() {}
        assert_eq!(k.commit_count(), 2);
        // Only T1 (generated at 1 >= warmup 1) is in the histogram.
        assert_eq!(k.sojourn_latency().count(), 1);
        assert_eq!(k.sojourn_latency().max(), 2); // committed 3 − generated 1
    }

    /// `run_for` advances exactly the requested number of steps while
    /// the run stays open, and counts partial progress once it drains.
    #[test]
    fn run_for_advances_open_runs_step_by_step() {
        let mut k = small_kernel();
        assert_eq!(k.run_for(2), 2);
        assert_eq!(k.now(), 2);
        assert_eq!(k.status(), RunStatus::Open);
        // The run needs 4 steps total; asking for 10 runs only 2 more.
        assert_eq!(k.run_for(10), 2);
        assert_eq!(k.status(), RunStatus::Drained);
        assert!(k.done());
        assert_eq!(k.run_for(10), 0);
    }

    /// Edge-load accounting round-trips exactly across a multi-hop run
    /// under a capacity bound: every occupied edge has exactly one map
    /// entry while occupied, the entry disappears when its load returns
    /// to zero, and the map is empty once all movement has completed —
    /// no dead keys survive into checkpoints.
    #[test]
    fn edge_load_round_trips_across_multi_hop_run() {
        let net = topology::line(4);
        let inst = Instance::new(
            vec![obj(0, 0)],
            vec![txn(0, 2, &[0], 0), txn(1, 3, &[0], 0)],
        );
        let sched: Schedule = [(TxnId(0), 2), (TxnId(1), 3)].into_iter().collect();
        let cfg = EngineConfig {
            link_capacity: Some(2),
            ..EngineConfig::default()
        };
        let mut k = Engine::new(net, FixedSchedulePolicy::new(sched), cfg)
            .into_kernel(TraceSource::new(inst));
        let mut peak_entries = 0;
        while k.tick().is_some() {
            let stats = k.map_stats();
            // One object: its edge is tracked iff it is in transit.
            assert_eq!(stats.edge_load_entries, stats.in_transit);
            peak_entries = peak_entries.max(stats.edge_load_entries);
        }
        assert_eq!(peak_entries, 1, "the object occupied edges en route");
        let stats = k.map_stats();
        assert_eq!(stats.edge_load_entries, 0, "loads decremented to removal");
        assert_eq!(stats.in_transit, 0);
        assert_eq!(stats.exec_queue, 0);
        assert_eq!(stats.requester_entries, 0);
        k.finish().expect_ok();
    }

    /// Without a capacity bound nothing reads the kernel's edge-load
    /// map (congestion metrics come from events, per-step loads from
    /// effects), so it is not maintained at all.
    #[test]
    fn edge_load_map_unused_without_capacity() {
        let mut k = small_kernel();
        while k.tick().is_some() {
            assert_eq!(k.map_stats().edge_load_entries, 0);
        }
        k.finish().expect_ok();
    }

    /// `finish` on a kernel that exceeded its step limit still records
    /// the violation exactly once, as the last violation.
    #[test]
    fn finish_seals_step_limit_violation() {
        let net = topology::line(2);
        let inst = Instance::new(vec![obj(0, 0)], vec![txn(0, 1, &[0], 0)]);
        let cfg = EngineConfig {
            max_steps: 5,
            ..EngineConfig::default()
        };
        let mut k = Engine::new(net, FixedSchedulePolicy::new(Schedule::new()), cfg)
            .into_kernel(TraceSource::new(inst));
        while k.tick().is_some() {}
        assert!(k.done());
        assert!(k.violations().is_empty()); // sealed only by finish()
        let res = k.finish();
        assert!(matches!(
            res.violations[..],
            [Violation::MaxStepsExceeded { live: 1, .. }]
        ));
        // The still-live transaction is retained with the retired ones.
        assert_eq!(res.txns.keys().copied().collect::<Vec<_>>(), [TxnId(0)]);
    }
}
