//! The engine core: a scheduled disk request queue behind a
//! [`BlockDevice`] facade.
//!
//! [`EngineCore`] owns the [`SimDisk`] and its pending-request queue.
//! File systems are generic over [`BlockDevice`], so they mount an
//! [`EngineDisk`] — a cheap handle onto the shared core — and every
//! asynchronous write they issue lands in the queue, where adjacent
//! writes coalesce into one transfer and a full queue pushes back on the
//! writer. The head serves requests someone is blocked on — every read
//! and every started sync write — before any background write; within
//! each of the two classes it goes oldest-first, an installed QoS ledger
//! narrows the candidates to the best tenant's requests, and the
//! bounded-wait aging check overrides both. Background writes drain at
//! every sync point (flush, a full queue, an overlapping submission), so
//! a write-back waits for readers but never indefinitely.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

use obs::{Counter, Registry};
use sim_disk::{
    AccessKind, BlockDevice, Clock, DiskError, DiskResult, IoCompletion, SimDisk, SubmittedIo,
    SECTOR_SIZE,
};

use crate::driver::RequestEngine;
use crate::qos::{FairShare, QosSpec};

/// Tuning knobs for the request engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum pending requests before a submitter is stalled
    /// (backpressure).
    pub queue_depth: usize,
    /// Bounded-wait guarantee: once the oldest request someone is
    /// blocked on (a read or a started sync write) has waited this long,
    /// it is serviced next regardless of QoS (anti-starvation aging).
    /// Among background writes the same bound overrides QoS only: an
    /// aged write-back never jumps a blocked request.
    pub max_wait_ns: u64,
    /// Whether adjacent pending writes coalesce into one transfer.
    pub coalesce: bool,
    /// How many times a read failing with a media error
    /// ([`DiskError::Unreadable`]) is retried before the error is
    /// surfaced to the caller. Transient faults recover within their
    /// retry budget; latent faults exhaust it.
    pub read_retries: u32,
    /// Base delay for the exponential backoff between read retries, in
    /// virtual nanoseconds: attempt `n` waits `retry_backoff_ns * 2^n`,
    /// with the exponent capped so large retry budgets plateau instead
    /// of overflowing.
    pub retry_backoff_ns: u64,
    /// When set, coalescing never merges writes into a transfer that
    /// crosses a multiple of this many sectors. A striped volume sets it
    /// to the stripe-unit size so a per-spindle queue cannot fuse pieces
    /// of different stripe units into one head pass.
    pub stripe_boundary_sectors: Option<u64>,
    /// Per-request latency budget for hedging, measured from submission.
    /// When a pending read's predicted completion blows this deadline,
    /// [`EngineCore::hedge_overdue`] reports it so the owner can race a
    /// redundant path (e.g. XOR reconstruction on a parity volume)
    /// against the slow original. `None` disables hedging.
    pub hedge_deadline_ns: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            queue_depth: 32,
            max_wait_ns: 100_000_000,
            coalesce: true,
            read_retries: 3,
            retry_backoff_ns: 1_000_000,
            stripe_boundary_sectors: None,
            hedge_deadline_ns: None,
        }
    }
}

impl EngineConfig {
    /// Sets the queue-depth knob.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Sets the bounded-wait (anti-starvation) threshold.
    pub fn with_max_wait_ns(mut self, max_wait_ns: u64) -> Self {
        self.max_wait_ns = max_wait_ns;
        self
    }

    /// Enables or disables write coalescing.
    pub fn with_coalesce(mut self, coalesce: bool) -> Self {
        self.coalesce = coalesce;
        self
    }

    /// Sets the media-error read-retry budget.
    pub fn with_read_retries(mut self, read_retries: u32) -> Self {
        self.read_retries = read_retries;
        self
    }

    /// Sets the base retry backoff delay, in virtual nanoseconds.
    pub fn with_retry_backoff_ns(mut self, retry_backoff_ns: u64) -> Self {
        self.retry_backoff_ns = retry_backoff_ns;
        self
    }

    /// Forbids coalescing across multiples of `sectors` (stripe units).
    pub fn with_stripe_boundary_sectors(mut self, sectors: u64) -> Self {
        self.stripe_boundary_sectors = Some(sectors);
        self
    }

    /// Arms per-request read hedging with the given latency budget (see
    /// [`EngineConfig::hedge_deadline_ns`]).
    pub fn with_hedge_deadline_ns(mut self, deadline_ns: u64) -> Self {
        self.hedge_deadline_ns = Some(deadline_ns);
        self
    }
}

obs::instruments! {
    /// The engine's handles into its disk's [`obs::Registry`].
    struct EngineObs {
        queue_depth, Gauge, "engine.queue_depth", "Requests pending in the queue now.";
        queue_depth_max, Gauge, "engine.queue_depth_max", "High-water mark of the queue depth.";
        max_queue_wait, Gauge, "engine.max_queue_wait_ns", "Longest queue wait any request has seen.";
        coalesced, Counter, "engine.coalesced_writes", "Pending writes merged into an adjacent pending write.";
        absorbed, Counter, "engine.absorbed_writes", "Writes absorbed by a queued write to the same range.";
        queue_read_hits, Counter, "engine.queue_read_hits", "Reads served from a queued write's payload.";
        backpressure_stalls, Counter, "engine.backpressure_stalls", "Submissions stalled by a full queue.";
        backpressure_ns, Counter, "engine.backpressure_ns", "Virtual time submitters spent stalled on a full queue.";
        dep_stalls, Counter, "engine.dependency_stalls", "Requests that waited behind an overlapping queued request.";
        dep_stall_ns, Counter, "engine.dependency_stall_ns", "Virtual time spent in dependency stalls.";
        sched_decisions, Counter, "engine.sched_decisions", "Queue picks made.";
        aged_picks, Counter, "engine.aged_picks", "Picks forced by the bounded-wait aging guarantee.";
        qos_picks, Counter, "engine.qos_picks", "Picks the QoS ledger narrowed.";
        waited_wait, Counter, "engine.waited.disk_wait_ns", "Queue wait of requests someone is blocked on \
            (every read, every started sync write): the engine-queue share of a foreground stall.";
        background_wait, Counter, "engine.background.disk_wait_ns", "Queue wait of background writes \
            (write-back nobody waits on), which the pick rule serves after every waited request.";
        max_waited_wait, Gauge, "engine.max_waited_wait_ns", "Longest queue wait any request someone \
            is blocked on has seen.";
        retries, Counter, "engine.retries", "Reads retried after a media error.";
        retry_exhausted, Counter, "engine.retry_exhausted", "Reads that failed their whole retry budget.";
        hedges, Counter, "engine.hedges", "Reads whose predicted completion blew the hedge deadline — each \
            one a notification that let the owner race a redundant path.";
        hedge_wins, Counter, "engine.hedge_wins", "Hedged races the redundant path won (the slow original lost).";
        maintenance_wait, Counter, "engine.maintenance.disk_wait_ns", "Queue wait accumulated by maintenance-class \
            requests (cleaning, scrubbing) — the counterpart of the per-client wait counters, so \
            maintenance I/O never lands in a foreground client's account.";
        client_bytes, Counter, "engine.io_bytes.client", "Bytes submitted by foreground clients. With the other \
            two classes and the absorbed and queue-read-hit byte counters this partitions every \
            submitted byte: `client + maintenance + system == disk transfers + absorbed + queue \
            read hits` holds exactly (the accounting regression test).";
        maintenance_bytes, Counter, "engine.io_bytes.maintenance", "Bytes submitted by the maintenance class.";
        system_bytes, Counter, "engine.io_bytes.system", "Bytes submitted with no owner (format, setup).";
        absorbed_bytes, Counter, "engine.absorbed_bytes", "Bytes of absorbed writes.";
        queue_read_hit_bytes, Counter, "engine.queue_read_hit_bytes", "Bytes of reads served from the queue.";
    }
}

/// Owner sentinel for maintenance-class requests (segment cleaning,
/// scrubbing): their queue waits land in `engine.maintenance.disk_wait_ns`
/// instead of any foreground client's account.
pub const MAINT_OWNER: usize = usize::MAX;

/// Largest transfer a coalesced write may grow to, in bytes.
const MAX_TRANSFER_BYTES: u64 = 1 << 20;

/// How many pick decisions are recorded as `sched` trace events (the
/// rest are counted but not traced, to bound the event ring).
const TRACE_DECISIONS: u64 = 64;

/// Ceiling on the retry-backoff exponent: attempt `n` waits
/// `retry_backoff_ns * 2^min(n, MAX_BACKOFF_SHIFT)`. 2^20 of the 1 ms
/// default base is ~17 virtual minutes — beyond any plausible media
/// recovery — and the cap keeps absurd `read_retries` settings from
/// overflowing the shift or the clock.
const MAX_BACKOFF_SHIFT: u32 = 20;

/// True when someone is blocked on pending request `p`: every read
/// (synchronous, or started through the async and batch facades) and
/// every write started by [`EngineCore::start_sync_write`] (`awaited`).
/// Everything else is background write-back.
fn is_waited(awaited: &BTreeSet<u64>, p: &SubmittedIo) -> bool {
    p.kind() == AccessKind::Read || awaited.contains(&p.id())
}

/// One queue pick: the request, its class, and the rule that chose it
/// (`aged`, `qos`, or the class's plain oldest-first `waited` /
/// `background`), which the `sched` trace event names.
#[derive(Clone, Copy)]
struct Pick {
    id: u64,
    waited: bool,
    rule: &'static str,
}

/// The shared request-engine state: disk, queue, and accounting.
pub struct EngineCore {
    disk: SimDisk,
    clock: Arc<Clock>,
    cfg: EngineConfig,
    /// Client currently executing on the (single) virtual CPU; new
    /// submissions are attributed to it.
    current_client: Option<usize>,
    /// When set, new submissions belong to the maintenance class
    /// regardless of `current_client`.
    maintenance: bool,
    /// Token → in-flight read of [`EngineDisk`]'s
    /// [`BlockDevice::start_read_async`] facade.
    tracked_reads: BTreeMap<u64, ReadHandle>,
    next_read_token: u64,
    /// Request id → clients credited with it (a coalesced request
    /// carries every contributor).
    owners: BTreeMap<u64, Vec<usize>>,
    /// Requests serviced in the background (pick order reached them
    /// before their submitter waited) hold their completion — a read's
    /// payload or media error, a started sync write's finish time — here
    /// until the claim loop takes it. Only the split start/finish API
    /// leaves requests pending long enough for this to happen, e.g. a
    /// striped volume with several pieces outstanding on one spindle.
    unclaimed: BTreeMap<u64, DiskResult<IoCompletion>>,
    /// Writes started by `start_sync_write` and not yet finished: the
    /// only writes whose background completion anyone will claim.
    awaited_writes: BTreeSet<u64>,
    /// Per-client queue-wait counters, indexed by client id.
    per_client_wait: Vec<Counter>,
    /// Per-client completed-bytes counters, indexed by client id (a
    /// coalesced request's bytes split evenly across its owners).
    per_client_bytes: Vec<Counter>,
    /// When set, the queue pick is QoS-aware: latency-class tenants'
    /// requests go first, and among bulk tenants the one furthest behind
    /// its weighted fair share is serviced next. The aging guarantee is
    /// checked *before* the ledger, so QoS never starves anyone.
    qos: Option<FairShare>,
    decisions_traced: u64,
    depth_high_water: u64,
    /// The access-trace label [`EngineCore::annotate`] set for the next
    /// request a caller starts: handed to the disk with that request's
    /// submission, dropped if the request needs none.
    label: &'static str,
    obs: EngineObs,
}

impl EngineCore {
    /// Wraps `disk` in a request engine. The engine registers its
    /// instruments in the disk's registry, so one mount
    /// ([`BlockDevice::attach_obs`], when a file system mounts) shows both.
    pub fn new(disk: SimDisk, cfg: EngineConfig) -> Self {
        let clock = Arc::clone(disk.clock());
        let obs = EngineObs::new(disk.obs());
        Self {
            disk,
            clock,
            cfg,
            current_client: None,
            maintenance: false,
            tracked_reads: BTreeMap::new(),
            next_read_token: 1,
            owners: BTreeMap::new(),
            unclaimed: BTreeMap::new(),
            awaited_writes: BTreeSet::new(),
            per_client_wait: Vec::new(),
            per_client_bytes: Vec::new(),
            qos: None,
            decisions_traced: 0,
            depth_high_water: 0,
            label: "",
            obs,
        }
    }

    /// Labels the next request a caller starts, for access tracing. The
    /// label is stored with that request when it is submitted, so the
    /// queued work serviced ahead of it keeps its own labels.
    pub fn annotate(&mut self, label: &'static str) {
        self.label = label;
    }

    /// Wraps the core for sharing between an [`EngineDisk`] (owned by the
    /// file system) and the driving event loop.
    pub fn into_shared(self) -> Rc<RefCell<EngineCore>> {
        Rc::new(RefCell::new(self))
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Mutable access to the policy knobs (e.g. to arm or drop a hedge
    /// deadline mid-run when a spindle's health changes).
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.cfg
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// The underlying disk.
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// The underlying disk, mutably (e.g. to arm a crash plan).
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
    }

    /// Consumes the engine and returns the disk (e.g. to extract the
    /// surviving image after a crash).
    pub fn into_disk(self) -> SimDisk {
        self.disk
    }

    /// Sets the client subsequent submissions are attributed to
    /// (`None` = unattributed system work such as format or setup).
    pub fn set_client(&mut self, client: Option<usize>) {
        self.current_client = client;
    }

    /// Enables or disables the maintenance I/O class: while on, new
    /// submissions are owned by [`MAINT_OWNER`] instead of the current
    /// client, so cleaning issued *during* a foreground operation is
    /// never charged to that client's wait account.
    pub fn set_maintenance(&mut self, on: bool) {
        self.maintenance = on;
    }

    /// Returns true while the maintenance I/O class is on.
    pub fn maintenance(&self) -> bool {
        self.maintenance
    }

    /// Number of requests currently pending in the queue — the engine's
    /// idle signal for idle-gated maintenance.
    pub fn queue_len(&self) -> u64 {
        self.disk.pending_len() as u64
    }

    /// True when the underlying media is dead (see
    /// [`SimDisk::kill_media`]): an offline spindle rejects every
    /// request, so volumes route around it instead of submitting.
    pub fn is_offline(&self) -> bool {
        self.disk.is_dead()
    }

    /// Drops every engine-side record of queued requests: ownership
    /// attribution, unclaimed background completions, and tracked reads
    /// still waiting in the device queue (already-served hits survive
    /// until claimed). A volume calls this when it kills the spindle —
    /// the disk discards its queue with the media, and the engine's
    /// bookkeeping must not dangle on ids that will never complete.
    pub fn discard_queue(&mut self) {
        self.owners.clear();
        self.unclaimed.clear();
        self.awaited_writes.clear();
        self.tracked_reads
            .retain(|_, h| matches!(h, ReadHandle::Hit(_)));
        self.obs.queue_depth.set(0);
    }

    /// The effective owner of a new submission under the current
    /// attribution state, if any.
    fn submission_owner(&self) -> Option<usize> {
        if self.maintenance {
            Some(MAINT_OWNER)
        } else {
            self.current_client
        }
    }

    /// Creates per-client queue-wait and completed-bytes counters for
    /// clients `0..n`.
    pub fn register_clients(&mut self, n: usize) {
        let per_client = |what: &str| -> Vec<Counter> {
            (0..n)
                .map(|c| self.obs.registry.counter(&format!("engine.c{c:03}.{what}")))
                .collect()
        };
        self.per_client_wait = per_client("disk_wait_ns");
        self.per_client_bytes = per_client("io_bytes_done");
    }

    /// Installs (or clears, with `None`) a per-client QoS spec. While a
    /// spec is installed, queue picks service latency-class tenants
    /// first and divide capacity among bulk tenants by weight; the
    /// bounded-wait aging guarantee still overrides every QoS decision.
    pub fn set_qos(&mut self, spec: Option<QosSpec>) {
        self.qos = spec.map(FairShare::new);
    }

    /// The installed QoS ledger, if any (introspection for tests).
    pub fn qos(&self) -> Option<&FairShare> {
        self.qos.as_ref()
    }

    /// The virtual time at which the device next picks a request: it must
    /// be idle and the request must have been submitted.
    fn pick_time(&self) -> Option<u64> {
        let oldest = self
            .disk
            .pending()
            .iter()
            .map(|p| p.submitted_at_ns())
            .min()?;
        Some(self.disk.busy_until_ns().max(oldest))
    }

    /// Chooses which pending request the head services at time `t`.
    ///
    /// Requests someone is blocked on ([`is_waited`]) go before any
    /// background write: the candidates are the eligible waited
    /// requests, or the background writes when no waited one is
    /// eligible. Within that class the oldest goes first (ties break on
    /// request id, never on container order). If it has waited
    /// `max_wait_ns` it is chosen unconditionally — the bounded-wait
    /// guarantee, which QoS cannot defeat. Below the aging bound, an
    /// installed QoS ledger narrows the candidates to the best tenant's
    /// requests — latency class first, then lowest weighted virtual
    /// time — and the oldest of those is picked. So an aged write-back
    /// never jumps a read; background writes wait for blocked requests,
    /// and every sync point (flush, a full queue, an overlapping
    /// submission) still drains them.
    fn pick_id(&mut self, t: u64) -> Pick {
        let pending = self.disk.pending();
        let awaited = &self.awaited_writes;
        let waited = pending
            .iter()
            .any(|p| p.submitted_at_ns() <= t && is_waited(awaited, p));
        let eligible = || {
            pending
                .iter()
                .filter(move |p| p.submitted_at_ns() <= t && is_waited(awaited, p) == waited)
        };
        let oldest = eligible()
            .min_by_key(|p| (p.submitted_at_ns(), p.id()))
            .expect("pick_id with no eligible request");
        let pick = |id, rule| Pick { id, waited, rule };
        if t - oldest.submitted_at_ns() >= self.cfg.max_wait_ns {
            self.obs.aged_picks.inc();
            return pick(oldest.id(), "aged");
        }
        if let Some(fair) = self.qos.as_mut() {
            // Best client owner of each eligible request (a coalesced
            // request carries the best of its contributors); requests
            // with no foreground owner (system, maintenance) are only
            // picked when no client request in the class is eligible —
            // aging keeps them from starving.
            let best_owner = eligible()
                .flat_map(|p| self.owners.get(&p.id()).into_iter().flatten())
                .filter(|&&c| c != MAINT_OWNER)
                .copied()
                .min_by_key(|&c| fair.key(c));
            if let Some(owner) = best_owner {
                let owned = eligible()
                    .filter(|p| {
                        self.owners
                            .get(&p.id())
                            .is_some_and(|os| os.contains(&owner))
                    })
                    .min_by_key(|p| (p.submitted_at_ns(), p.id()))
                    .expect("the best owner owns an eligible request");
                fair.pick(std::iter::once(owner));
                self.obs.qos_picks.inc();
                return pick(owned.id(), "qos");
            }
        }
        pick(oldest.id(), if waited { "waited" } else { "background" })
    }

    /// Services request `id` and runs engine bookkeeping: decision
    /// trace, fairness attribution, and queue gauges.
    fn complete_with_bookkeeping(&mut self, pick: Pick, sync: bool) -> DiskResult<IoCompletion> {
        let id = pick.id;
        let done = match self.disk.complete(id, sync) {
            Ok(done) => done,
            Err(e @ DiskError::Unreadable { .. }) => {
                // A media error fails only this request; the rest of the
                // queue (and its attribution) is still live.
                self.owners.remove(&id);
                self.obs.queue_depth.set(self.disk.pending_len() as u64);
                return Err(e);
            }
            Err(e) => {
                // The disk discarded the queue (crash): owners and any
                // unclaimed outcomes are stale.
                self.owners.clear();
                self.unclaimed.clear();
                self.awaited_writes.clear();
                return Err(e);
            }
        };
        self.obs.sched_decisions.inc();
        if self.decisions_traced < TRACE_DECISIONS {
            self.decisions_traced += 1;
            self.obs.registry.event(
                done.finish_ns,
                "sched",
                format!(
                    "rule={} id={} kind={} sector={} bytes={} wait_ns={} seq={}",
                    pick.rule,
                    done.id,
                    done.kind,
                    done.sector,
                    done.bytes,
                    done.wait_ns,
                    done.sequential,
                ),
            );
        }
        if let Some(owners) = self.owners.remove(&done.id) {
            // A coalesced request's bytes are split evenly across its
            // contributors so per-client completed-bytes stay a partition.
            let share = done.bytes / owners.len().max(1) as u64;
            for c in owners {
                if c == MAINT_OWNER {
                    self.obs.maintenance_wait.add(done.wait_ns);
                } else {
                    if let Some(counter) = self.per_client_wait.get(c) {
                        counter.add(done.wait_ns);
                    }
                    if let Some(counter) = self.per_client_bytes.get(c) {
                        counter.add(share);
                    }
                    if let Some(fair) = self.qos.as_mut() {
                        fair.charge(c, share);
                    }
                }
            }
        }
        if pick.waited {
            self.obs.waited_wait.add(done.wait_ns);
            if done.wait_ns > self.obs.max_waited_wait.get() {
                self.obs.max_waited_wait.set(done.wait_ns);
            }
        } else {
            self.obs.background_wait.add(done.wait_ns);
        }
        if done.wait_ns > self.obs.max_queue_wait.get() {
            self.obs.max_queue_wait.set(done.wait_ns);
        }
        self.obs.queue_depth.set(self.disk.pending_len() as u64);
        Ok(done)
    }

    /// Services the next picked request in the background. The
    /// queue must be non-empty. Returns `None` when the pick was a read
    /// that failed with a media error — the error is stashed for its
    /// waiter and the queue moves on.
    fn service_one(&mut self) -> DiskResult<Option<IoCompletion>> {
        let t = self.pick_time().expect("service_one on an empty queue");
        let pick = self.pick_id(t);
        self.service_background(pick)
    }

    /// Lazily progresses the device up to the current virtual time:
    /// requests whose service would start strictly before *now* complete
    /// in the background, without advancing the clock.
    pub fn pump(&mut self) -> DiskResult<()> {
        let now = self.clock.now_ns();
        while let Some(t) = self.pick_time() {
            if t >= now {
                break;
            }
            self.service_one()?;
        }
        Ok(())
    }

    /// Records ownership, per-class byte accounting, and queue-depth
    /// gauges for a new submission.
    fn note_submitted(&mut self, id: u64) {
        let bytes = self.pending_shape(id).2;
        match self.submission_owner() {
            Some(MAINT_OWNER) => {
                self.owners.entry(id).or_default().push(MAINT_OWNER);
                self.obs.maintenance_bytes.add(bytes);
            }
            Some(c) => {
                self.owners.entry(id).or_default().push(c);
                self.obs.client_bytes.add(bytes);
                // A tenant returning from idle starts at the system
                // virtual time: idling banks no QoS credit.
                if let Some(fair) = self.qos.as_mut() {
                    fair.note_active(c);
                }
            }
            None => self.obs.system_bytes.add(bytes),
        }
        let depth = self.disk.pending_len() as u64;
        self.obs.queue_depth.set(depth);
        if depth > self.depth_high_water {
            self.depth_high_water = depth;
            self.obs.queue_depth_max.set(depth);
        }
    }

    /// Services pending requests until none overlaps `[sector, end)`.
    ///
    /// Submitting a request that overlaps a queued one would let the
    /// queue reorder dependent accesses; draining first keeps the
    /// platter state equal to program order.
    fn drain_overlapping(&mut self, sector: u64, len: usize) -> DiskResult<()> {
        let end = sector + (len / SECTOR_SIZE) as u64;
        let before = self.clock.now_ns();
        let mut cleared_at = before;
        // Service in pick order rather than by targeting the
        // overlapping id: picks respect the bounded-wait aging guarantee,
        // so a stream of dependent drains cannot starve an aged request
        // elsewhere in the queue.
        while self
            .disk
            .pending()
            .iter()
            .any(|p| p.sector() < end && sector < p.end_sector())
        {
            if let Some(done) = self.service_one()? {
                cleared_at = done.finish_ns;
            }
        }
        if cleared_at > before {
            // A write-after-write (or read-after-write) hazard: the
            // submitter waits until the dependent data is on the platter,
            // so hazards are a real synchronization point — otherwise an
            // overloaded submitter could push its whole backlog into the
            // device's future and backpressure would never engage.
            self.clock.advance_to_ns(cleared_at);
            self.obs.dep_stalls.inc();
            self.obs.dep_stall_ns.add(cleared_at - before);
        }
        Ok(())
    }

    /// The claim loop: services queued requests in pick order until
    /// `id` completes, and hands over its completion.
    ///
    /// `id` may already have been serviced in the background (its
    /// outcome is then claimed from `unclaimed`), and siblings picked
    /// ahead of `id` are stashed there for their own waiters rather
    /// than discarded. Only when a caller `waited` is the completion
    /// tagged sync and the clock advanced to its finish.
    fn claim(&mut self, id: u64, waited: bool) -> DiskResult<IoCompletion> {
        let done = loop {
            if let Some(res) = self.unclaimed.remove(&id) {
                break res?;
            }
            let Some(t) = self.pick_time() else {
                // A crash loses the queue with it: a request submitted
                // before it has nothing left to claim.
                assert!(
                    self.disk.has_crashed(),
                    "claim of a request not in the queue"
                );
                return Err(DiskError::Crashed);
            };
            let pick = self.pick_id(t);
            if pick.id == id {
                self.awaited_writes.remove(&id);
                break self.complete_with_bookkeeping(pick, waited)?;
            }
            self.service_background(pick)?;
        };
        if waited {
            self.clock.advance_to_ns(done.finish_ns);
        }
        Ok(done)
    }

    /// Predicted virtual completion time of request `id`: if it was
    /// already serviced in the background, its actual finish; otherwise
    /// `max(busy_until, submitted_at)`, plus a service estimate for
    /// every queued request the pick rule puts ahead of it — an
    /// earlier-submitted request of its own class, and for a background
    /// write every waited request too (the backlog the device must chew
    /// through first — `busy_until` only covers work whose service has
    /// *started*) — plus the request's own estimate (each including any
    /// fail-slow penalty the media would charge). QoS reordering makes
    /// the backlog term an estimate, but aging bounds how far reality
    /// can drift from that order. Deterministic and non-mutating. `None`
    /// when `id` is unknown or already failed.
    pub fn estimated_finish_ns(&self, id: u64) -> Option<u64> {
        if let Some(res) = self.unclaimed.get(&id) {
            return res.as_ref().ok().map(|done| done.finish_ns);
        }
        let p = self.disk.pending().iter().find(|p| p.id() == id)?;
        let rank = |q: &SubmittedIo| (!is_waited(&self.awaited_writes, q), q.id());
        let mut start = self.disk.busy_until_ns().max(p.submitted_at_ns());
        for q in self.disk.pending() {
            if rank(q) < rank(p) {
                start += self.disk.estimate_service_ns(start, q.sector(), q.bytes());
            }
        }
        Some(start + self.disk.estimate_service_ns(start, p.sector(), p.bytes()))
    }

    /// The hedge hook: true when pending read `id`'s predicted latency
    /// (completion minus submission) blows the configured
    /// [`EngineConfig::hedge_deadline_ns`]. Each overdue report counts
    /// one `engine.hedges` — the owner is expected to race a redundant
    /// path and drain the original via [`EngineCore::drain_read`]. Never
    /// fires when hedging is disabled or the read has landed by now, and
    /// never changes the queue, so aging and QoS are untouched.
    pub fn hedge_overdue(&mut self, id: u64) -> bool {
        let Some(deadline) = self.cfg.hedge_deadline_ns else {
            return false;
        };
        let submitted = if let Some(res) = self.unclaimed.get(&id) {
            match res {
                Ok(done) => done.submitted_at_ns,
                Err(_) => return false,
            }
        } else {
            match self.disk.pending().iter().find(|p| p.id() == id) {
                Some(p) => p.submitted_at_ns(),
                None => return false,
            }
        };
        let Some(finish) = self.estimated_finish_ns(id) else {
            return false;
        };
        let overdue = finish > self.clock.now_ns() && finish.saturating_sub(submitted) > deadline;
        if overdue {
            self.obs.hedges.inc();
            self.obs.registry.event(
                self.clock.now_ns(),
                "hedge",
                format!(
                    "read id={id} predicted_lat_ns={} deadline_ns={deadline}",
                    finish.saturating_sub(submitted)
                ),
            );
        }
        overdue
    }

    /// Credits one hedged race to the redundant path (the caller decided
    /// the reconstruction finished before the slow original).
    pub fn record_hedge_win(&mut self) {
        self.obs.hedge_wins.inc();
    }

    /// The submission-side hedge hook: true when a read of
    /// `[sector, sector + len)` would stall on an overlapping queued
    /// request long enough that its total predicted latency (hazard
    /// clear, then service) blows [`EngineConfig::hedge_deadline_ns`].
    ///
    /// [`EngineCore::hedge_overdue`] cannot catch this case: the
    /// read-after-write hazard is paid *inside* submission (the
    /// submitter's clock advances to the overlapping request's finish
    /// before the read even has an id), so by the time a pending id
    /// exists the stall is already sunk. The owner is expected to call
    /// this before submitting and, when it fires, serve the read from a
    /// redundant path instead — read steering. Each firing counts one
    /// `engine.hedges`; like [`EngineCore::hedge_overdue`] it never
    /// mutates the queue.
    pub fn submit_hazard_overdue(&mut self, sector: u64, len: usize) -> bool {
        let Some(deadline) = self.cfg.hedge_deadline_ns else {
            return false;
        };
        let end = sector + (len / SECTOR_SIZE) as u64;
        let now = self.clock.now_ns();
        let mut clear_ns = now;
        for p in self.disk.pending() {
            if p.sector() < end && sector < p.end_sector() {
                let start = self.disk.busy_until_ns().max(p.submitted_at_ns()).max(now);
                let finish = start + self.disk.estimate_service_ns(start, p.sector(), p.bytes());
                clear_ns = clear_ns.max(finish);
            }
        }
        if clear_ns == now {
            return false;
        }
        let service = self.disk.estimate_service_ns(clear_ns, sector, len as u64);
        let overdue = (clear_ns - now) + service > deadline;
        if overdue {
            self.obs.hedges.inc();
            self.obs.registry.event(
                now,
                "hedge",
                format!(
                    "read sector={sector} hazard_clear_lat_ns={} deadline_ns={deadline}",
                    (clear_ns - now) + service
                ),
            );
        }
        overdue
    }

    /// Services queued requests in pick order until `id` completes,
    /// **without advancing the shared clock** — the device does the work
    /// (its busy horizon moves and later requests queue behind it) but
    /// no caller waits on it. This is how the losing side of a hedged
    /// race is drained: the foreground pays only the winner's latency
    /// while the loser still physically occupies its spindle.
    pub fn drain_read(&mut self, id: u64) -> DiskResult<IoCompletion> {
        self.claim(id, false)
    }

    /// Services `pick` on behalf of nobody: a completed read (or its
    /// media error) or awaited sync write is stashed for its eventual
    /// waiter; other writes need no delivery. Only fatal errors (crash)
    /// propagate.
    fn service_background(&mut self, pick: Pick) -> DiskResult<Option<IoCompletion>> {
        match self.complete_with_bookkeeping(pick, false) {
            Ok(done) => {
                if done.data.is_some() || self.awaited_writes.remove(&pick.id) {
                    self.unclaimed.insert(pick.id, Ok(done.clone()));
                }
                Ok(Some(done))
            }
            Err(e @ DiskError::Unreadable { .. }) => {
                self.unclaimed.insert(pick.id, Err(e));
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Queues an asynchronous write: absorb into an identical pending
    /// write, coalesce with adjacent ones, and stall the submitter if the
    /// queue is over depth (backpressure).
    pub fn submit_async_write(&mut self, sector: u64, buf: &[u8]) -> DiskResult<()> {
        let label = std::mem::take(&mut self.label);
        self.pump()?;

        // Write absorption: an identical-range queued write takes the new
        // payload in place — no second transfer.
        let identical = self
            .disk
            .pending()
            .iter()
            .find(|p| {
                p.kind() == AccessKind::Write
                    && p.sector() == sector
                    && p.bytes() == buf.len() as u64
            })
            .map(|p| p.id());
        if let Some(id) = identical {
            self.disk.absorb_pending(id, buf);
            self.obs.absorbed.inc();
            self.obs.absorbed_bytes.add(buf.len() as u64);
            if let Some(c) = self.submission_owner() {
                let owners = self.owners.entry(id).or_default();
                if !owners.contains(&c) {
                    owners.push(c);
                }
                if c != MAINT_OWNER {
                    if let Some(fair) = self.qos.as_mut() {
                        fair.note_active(c);
                    }
                }
            }
            return Ok(());
        }
        self.drain_overlapping(sector, buf.len())?;

        self.disk.annotate(label);
        let id = self.disk.submit_write(sector, buf)?;
        self.note_submitted(id);
        if self.cfg.coalesce {
            self.try_coalesce(id);
        }

        while self.disk.pending_len() > self.cfg.queue_depth {
            // Queue full: the submitter stalls until a slot frees up.
            let before = self.clock.now_ns();
            if let Some(done) = self.service_one()? {
                if done.finish_ns > before {
                    self.clock.advance_to_ns(done.finish_ns);
                    self.obs.backpressure_stalls.inc();
                    self.obs.backpressure_ns.add(done.finish_ns - before);
                }
            }
        }
        Ok(())
    }

    /// Merges queued write `id` with sector-adjacent queued writes (one
    /// merge in each direction), keeping the total transfer under
    /// [`MAX_TRANSFER_BYTES`]. Returns the surviving id. A merge keeps
    /// the front request's id, so a write someone will claim by id (one
    /// in `awaited_writes`) is never taken as the back neighbour.
    fn try_coalesce(&mut self, mut id: u64) -> u64 {
        // Merge a front neighbour (ends where `id` starts).
        let me = self.pending_shape(id);
        let front = self.disk.pending().iter().find_map(|p| {
            (p.id() != id
                && p.kind() == AccessKind::Write
                && p.end_sector() == me.0
                && p.bytes() + me.2 <= MAX_TRANSFER_BYTES
                && !self.crosses_stripe_boundary(p.sector(), me.1))
                .then_some(p.id())
        });
        if let Some(front_id) = front {
            self.disk.merge_pending(front_id, id);
            self.merge_owners(id, front_id);
            self.obs.coalesced.inc();
            id = front_id;
        }
        // Merge a back neighbour (starts where `id` now ends).
        let me = self.pending_shape(id);
        let back = self.disk.pending().iter().find_map(|p| {
            (p.id() != id
                && p.kind() == AccessKind::Write
                && !self.awaited_writes.contains(&p.id())
                && p.sector() == me.1
                && p.bytes() + me.2 <= MAX_TRANSFER_BYTES
                && !self.crosses_stripe_boundary(me.0, p.end_sector()))
                .then_some(p.id())
        });
        if let Some(back_id) = back {
            self.disk.merge_pending(id, back_id);
            self.merge_owners(back_id, id);
            self.obs.coalesced.inc();
        }
        self.obs.queue_depth.set(self.disk.pending_len() as u64);
        id
    }

    /// True when a transfer covering `[start, end)` sectors would span a
    /// multiple of the configured stripe boundary — such a merge would
    /// fuse pieces of different stripe units into one head pass.
    fn crosses_stripe_boundary(&self, start: u64, end: u64) -> bool {
        match self.cfg.stripe_boundary_sectors {
            Some(unit) if unit > 0 && end > start => start / unit != (end - 1) / unit,
            _ => false,
        }
    }

    /// `(sector, end_sector, bytes)` of pending request `id`.
    fn pending_shape(&self, id: u64) -> (u64, u64, u64) {
        let p = self
            .disk
            .pending()
            .iter()
            .find(|p| p.id() == id)
            .expect("pending_shape: unknown id");
        (p.sector(), p.end_sector(), p.bytes())
    }

    /// Moves the owners of `from` onto `into` (after a merge).
    fn merge_owners(&mut self, from: u64, into: u64) {
        if let Some(from_owners) = self.owners.remove(&from) {
            let into_owners = self.owners.entry(into).or_default();
            for c in from_owners {
                if !into_owners.contains(&c) {
                    into_owners.push(c);
                }
            }
        }
    }

    /// Performs a synchronous write: queued, scheduled alongside pending
    /// work, and waited for.
    pub fn do_sync_write(&mut self, sector: u64, buf: &[u8]) -> DiskResult<()> {
        let id = self.start_sync_write(sector, buf)?;
        self.finish_write(id)
    }

    /// Submits a synchronous write without waiting for it; pair with
    /// [`EngineCore::finish_write`].
    ///
    /// The split lets a striped volume submit a sub-request on every
    /// spindle *before* waiting on any of them, so the spindles service
    /// their pieces in overlapped virtual time.
    /// `start_sync_write` + `finish_write` performs exactly the request
    /// sequence of [`EngineCore::do_sync_write`].
    pub fn start_sync_write(&mut self, sector: u64, buf: &[u8]) -> DiskResult<u64> {
        let label = std::mem::take(&mut self.label);
        self.pump()?;
        self.drain_overlapping(sector, buf.len())?;
        self.disk.annotate(label);
        let id = self.disk.submit_write(sector, buf)?;
        self.note_submitted(id);
        self.awaited_writes.insert(id);
        Ok(id)
    }

    /// Waits for a write started with [`EngineCore::start_sync_write`]:
    /// queued requests are serviced in pick order until `id` completes,
    /// and the clock advances to its finish time.
    pub fn finish_write(&mut self, id: u64) -> DiskResult<()> {
        self.claim(id, true).map(|_| ())
    }

    /// Performs a read. Reads wholly contained in a queued write are
    /// served from the queue (no head movement — the data is in the
    /// controller's memory); anything else is queued, scheduled, and
    /// waited for.
    pub fn do_read(&mut self, sector: u64, buf: &mut [u8]) -> DiskResult<()> {
        let handle = self.start_read(sector, buf.len())?;
        self.finish_read(handle, buf)
    }

    /// Starts a read of `len` bytes at `sector` without waiting for it;
    /// pair with [`EngineCore::finish_read`]. A read wholly contained in
    /// a queued write is answered immediately from the queued payload.
    ///
    /// `start_read` + `finish_read` performs exactly the request
    /// sequence of [`EngineCore::do_read`].
    pub fn start_read(&mut self, sector: u64, len: usize) -> DiskResult<ReadHandle> {
        let label = std::mem::take(&mut self.label);
        self.pump()?;
        let end = sector + (len / SECTOR_SIZE) as u64;
        let hit = self.disk.pending().iter().find(|p| {
            p.kind() == AccessKind::Write && p.sector() <= sector && end <= p.end_sector()
        });
        if let Some(p) = hit {
            let off = (sector - p.sector()) as usize * SECTOR_SIZE;
            let data = p.data().expect("write without payload")[off..off + len].to_vec();
            self.obs.queue_read_hits.inc();
            self.obs.queue_read_hit_bytes.add(len as u64);
            return Ok(ReadHandle::Hit(data));
        }
        self.drain_overlapping(sector, len)?;
        self.disk.annotate(label);
        let id = self.disk.submit_read(sector, len)?;
        self.note_submitted(id);
        Ok(ReadHandle::Pending { id, sector, len })
    }

    /// Finishes a read started with [`EngineCore::start_read`], filling
    /// `buf`. Media errors ([`DiskError::Unreadable`]) are retried with
    /// exponential backoff up to the configured budget; each retry is a
    /// fresh submission (the disk consumed the failed attempt).
    pub fn finish_read(&mut self, handle: ReadHandle, buf: &mut [u8]) -> DiskResult<()> {
        let (mut id, sector) = match handle {
            ReadHandle::Hit(data) => {
                buf.copy_from_slice(&data);
                return Ok(());
            }
            ReadHandle::Pending { id, sector, .. } => (id, sector),
        };
        let mut attempt = 0u32;
        loop {
            match self.claim(id, true) {
                Ok(done) => {
                    buf.copy_from_slice(done.data.as_deref().expect("read without data"));
                    return Ok(());
                }
                Err(e @ DiskError::Unreadable { .. }) => {
                    // Media error: the disk consumed the attempt, so a
                    // retry is a fresh submission. Back off exponentially
                    // on the virtual clock between attempts, as a real
                    // driver would between recalibration passes.
                    if attempt >= self.cfg.read_retries {
                        self.obs.retry_exhausted.inc();
                        self.obs.registry.event(
                            self.clock.now_ns(),
                            "retry",
                            format!("exhausted sector={sector} attempts={}", attempt + 1),
                        );
                        return Err(e);
                    }
                    // The exponential backoff is capped: a large
                    // configured retry budget must plateau, not overflow
                    // the shift (attempt >= 64 panics in debug builds)
                    // or push the virtual clock absurdly far.
                    let delay = self
                        .cfg
                        .retry_backoff_ns
                        .saturating_mul(1u64 << attempt.min(MAX_BACKOFF_SHIFT));
                    attempt += 1;
                    self.obs.retries.inc();
                    self.obs.registry.event(
                        self.clock.now_ns(),
                        "retry",
                        format!("read sector={sector} attempt={attempt} backoff_ns={delay}"),
                    );
                    self.clock.advance_ns(delay);
                    id = self.disk.submit_read(sector, buf.len())?;
                    self.note_submitted(id);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Drains the whole queue (in pick order) and waits for the device
    /// to go idle: the durability barrier.
    pub fn flush_all(&mut self) -> DiskResult<()> {
        while self.disk.pending_len() > 0 {
            self.service_one()?;
        }
        self.disk.flush()?;
        self.obs.queue_depth.set(0);
        Ok(())
    }

    /// Whether every accepted write is durable now: the queue is first
    /// pumped to the current virtual time, then the disk answers.
    pub fn writes_durable(&mut self) -> bool {
        self.pump().is_ok() && self.disk.writes_durable()
    }
}

/// An in-flight read started with [`EngineCore::start_read`]: all a
/// caller keeps of it until [`EngineCore::finish_read`] claims it — an
/// [`EngineDisk`] async-read token and a striped volume's tracked read
/// both map straight to one.
#[derive(Debug)]
pub enum ReadHandle {
    /// Served from a queued write's payload; no disk request was made.
    Hit(Vec<u8>),
    /// Submitted to the device queue: request `id`, reading `len` bytes
    /// at `sector` (a media-error retry resubmits that range).
    Pending {
        /// The device request id.
        id: u64,
        /// First sector read.
        sector: u64,
        /// Length in bytes.
        len: usize,
    },
}

impl RequestEngine for Rc<RefCell<EngineCore>> {
    fn clock(&self) -> Arc<Clock> {
        Arc::clone(self.borrow().clock())
    }

    fn pump(&self) -> DiskResult<()> {
        self.borrow_mut().pump()
    }

    fn set_client(&self, client: Option<usize>) {
        self.borrow_mut().set_client(client);
    }

    fn register_clients(&self, n: usize) {
        self.borrow_mut().register_clients(n);
    }

    fn queue_depth(&self) -> u64 {
        self.borrow().queue_len()
    }

    fn set_qos(&self, spec: Option<QosSpec>) {
        self.borrow_mut().set_qos(spec);
    }
}

/// A cheap [`BlockDevice`] handle onto a shared [`EngineCore`].
///
/// The file system owns one handle; the driving event loop holds another
/// (via the `Rc`). All I/O the file system issues is routed through the
/// engine's scheduled queue.
#[derive(Clone)]
pub struct EngineDisk(Rc<RefCell<EngineCore>>);

impl EngineDisk {
    /// Creates a handle onto `core`.
    pub fn new(core: Rc<RefCell<EngineCore>>) -> Self {
        Self(core)
    }

    /// The shared core.
    pub fn core(&self) -> &Rc<RefCell<EngineCore>> {
        &self.0
    }
}

impl BlockDevice for EngineDisk {
    fn num_sectors(&self) -> u64 {
        self.0.borrow().disk.num_sectors()
    }

    fn read(&mut self, sector: u64, buf: &mut [u8]) -> DiskResult<()> {
        self.0.borrow_mut().do_read(sector, buf)
    }

    fn write(&mut self, sector: u64, buf: &[u8], sync: bool) -> DiskResult<()> {
        if sync {
            self.0.borrow_mut().do_sync_write(sector, buf)
        } else {
            self.0.borrow_mut().submit_async_write(sector, buf)
        }
    }

    fn flush(&mut self) -> DiskResult<()> {
        self.0.borrow_mut().flush_all()
    }

    fn writes_durable(&mut self) -> bool {
        self.0.borrow_mut().writes_durable()
    }

    fn annotate(&mut self, label: &'static str) {
        self.0.borrow_mut().annotate(label);
    }

    fn attach_obs(&mut self, registry: &Registry) {
        // The disk's registry holds the engine's instruments too.
        self.0.borrow_mut().disk.attach_obs(registry);
    }

    fn set_maintenance(&mut self, on: bool) {
        self.0.borrow_mut().set_maintenance(on);
    }

    fn maintenance(&self) -> bool {
        self.0.borrow().maintenance
    }

    /// The read is submitted to the queue and virtual time keeps moving
    /// under other traffic until the token is claimed — if the device
    /// serviced it in the background meanwhile, claiming it costs no
    /// additional time at all.
    fn start_read_async(&mut self, sector: u64, len: usize) -> Option<u64> {
        let mut core = self.0.borrow_mut();
        // A submission error (crash) falls back to the synchronous path,
        // which reports it properly.
        let handle = core.start_read(sector, len).ok()?;
        let token = core.next_read_token;
        core.next_read_token += 1;
        core.tracked_reads.insert(token, handle);
        Some(token)
    }

    fn finish_read_async(&mut self, token: u64) -> DiskResult<Vec<u8>> {
        let mut core = self.0.borrow_mut();
        let handle = core
            .tracked_reads
            .remove(&token)
            .expect("finish_read_async: unknown token");
        match handle {
            ReadHandle::Hit(data) => Ok(data),
            ReadHandle::Pending { len, .. } => {
                let mut buf = vec![0u8; len];
                core.finish_read(handle, &mut buf)?;
                Ok(buf)
            }
        }
    }
}
