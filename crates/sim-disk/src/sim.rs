//! The mechanically modelled disk simulator.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::Registry;

use crate::clock::Clock;
use crate::device::{check_request, BlockDevice, DiskError, DiskResult};
use crate::fault::{CrashPlan, FaultMode, MediaFaultPlan, ReadOutcome};
use crate::geometry::DiskGeometry;
use crate::stats::{AccessKind, AccessRecord, AccessTrace, DiskObs, IoStats};
use crate::SECTOR_SIZE;

/// A request in the device queue, submitted with [`SimDisk::submit_read`]
/// / [`SimDisk::submit_write`] (a [`BlockDevice`] call submits one too and
/// services it at once).
///
/// A queued request has no effect on the platter, the head, the clock, or
/// any statistic until [`SimDisk::complete`] services it — an I/O scheduler
/// sitting above the disk is free to reorder or merge queued requests.
#[derive(Debug, Clone)]
pub struct SubmittedIo {
    id: u64,
    kind: AccessKind,
    sector: u64,
    bytes: u64,
    submitted_at_ns: u64,
    /// Access-trace label, taken from [`BlockDevice::annotate`] at
    /// submission.
    label: &'static str,
    /// Payload for writes; `None` for reads.
    data: Option<Vec<u8>>,
}

impl SubmittedIo {
    /// Identifier to pass to [`SimDisk::complete`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Read or write.
    pub fn kind(&self) -> AccessKind {
        self.kind
    }

    /// First sector of the request.
    pub fn sector(&self) -> u64 {
        self.sector
    }

    /// Length in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// One past the last sector of the request.
    pub fn end_sector(&self) -> u64 {
        self.sector + self.bytes / SECTOR_SIZE as u64
    }

    /// Virtual time at which the request entered the queue.
    pub fn submitted_at_ns(&self) -> u64 {
        self.submitted_at_ns
    }

    /// The access-trace label it was submitted with (`""` for none).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The write payload (`None` for reads).
    pub fn data(&self) -> Option<&[u8]> {
        self.data.as_deref()
    }
}

/// The outcome of servicing one queued request via [`SimDisk::complete`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoCompletion {
    /// Identifier of the completed request.
    pub id: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// First sector of the request.
    pub sector: u64,
    /// Length in bytes.
    pub bytes: u64,
    /// Virtual time at which the request entered the queue.
    pub submitted_at_ns: u64,
    /// Virtual time at which the head started servicing the request.
    pub start_ns: u64,
    /// Virtual time at which service finished.
    pub finish_ns: u64,
    /// Head time consumed (seek + rotation + transfer, plus any
    /// fail-slow stall the media charged).
    pub service_ns: u64,
    /// Time spent waiting in the queue (`start_ns - submitted_at_ns`).
    pub wait_ns: u64,
    /// True if the request started where the previous one ended.
    pub sequential: bool,
    /// Data read from the platter (`None` for writes).
    pub data: Option<Vec<u8>>,
}

/// Where a request's bytes live while [`SimDisk`] serves it: the bytes a
/// write puts down, or the buffer a read fills.
enum Payload<'a> {
    Write(&'a [u8]),
    Read(&'a mut [u8]),
}

/// A disk with a seek + rotation + transfer cost model over a virtual clock.
///
/// The device behaves as a single-server queue. Every request is serviced
/// after the previous one finishes:
///
/// * A request that starts exactly where the previous request ended is
///   **sequential**: the head is already positioned, so it pays only
///   transfer time. This is what makes LFS's segment-sized writes an
///   order of magnitude cheaper per byte than FFS's scattered updates.
/// * Any other request is **random**: it pays a distance-dependent seek
///   plus average rotational latency plus transfer time.
///
/// Every request is serviced by one routine, whether a [`BlockDevice`]
/// call issued it or a scheduler queued it and claimed it with
/// [`SimDisk::complete`]; synchronous versus asynchronous only decides
/// who waits. A synchronous call (every read, and writes with
/// `sync = true`) advances the shared [`Clock`] to its completion time.
/// An asynchronous write only pushes out the device's busy horizon; the
/// virtual CPU keeps running. [`BlockDevice::flush`] waits for the
/// horizon, which is how the harness closes a measurement phase.
#[derive(Debug)]
pub struct SimDisk {
    geometry: DiskGeometry,
    clock: Arc<Clock>,
    data: Vec<u8>,
    trace: AccessTrace,
    /// Sector where the previous request ended (head position proxy).
    head: u64,
    /// Virtual time at which the device becomes idle.
    busy_until_ns: u64,
    /// Number of write requests persisted so far (for fault injection).
    ///
    /// Counts in *persist order*: a write counts when it is serviced —
    /// a [`BlockDevice`] call's write at once, a queued write when
    /// [`SimDisk::complete`] reaches it.
    write_index: u64,
    /// When set, crash plans index into this *shared* write counter
    /// instead of the per-disk one, so a multi-spindle volume can arm
    /// one plan across all spindles and crash whichever disk services
    /// the globally N-th write. See [`SimDisk::share_write_index`].
    shared_write_index: Option<Arc<AtomicU64>>,
    crash_plan: Option<CrashPlan>,
    crashed: bool,
    /// Armed per-sector media faults; see [`MediaFaultPlan`].
    media_faults: Option<MediaFaultPlan>,
    next_label: &'static str,
    /// Requests submitted through the async path, not yet serviced.
    pending: Vec<SubmittedIo>,
    next_io_id: u64,
    /// Volatile write cache, populated only while a
    /// [`FaultMode::ReorderWindow`] plan is armed: `(sector, data)` of
    /// asynchronous writes acknowledged but not yet on the platter.
    held: VecDeque<(u64, Vec<u8>)>,
    obs: DiskObs,
}

impl SimDisk {
    /// Creates a zero-filled simulated disk.
    pub fn new(geometry: DiskGeometry, clock: Arc<Clock>) -> Self {
        let bytes = geometry.num_sectors as usize * SECTOR_SIZE;
        Self {
            geometry,
            clock,
            data: vec![0; bytes],
            trace: AccessTrace::default(),
            head: 0,
            busy_until_ns: 0,
            write_index: 0,
            shared_write_index: None,
            crash_plan: None,
            crashed: false,
            media_faults: None,
            next_label: "",
            pending: Vec::new(),
            next_io_id: 0,
            held: VecDeque::new(),
            obs: DiskObs::new(&Registry::new()),
        }
    }

    /// Creates a simulated disk over an existing image (e.g. after a crash).
    ///
    /// # Panics
    ///
    /// Panics if the image size does not match the geometry.
    pub fn from_image(geometry: DiskGeometry, clock: Arc<Clock>, image: Vec<u8>) -> Self {
        assert_eq!(
            image.len(),
            geometry.num_sectors as usize * SECTOR_SIZE,
            "image size does not match geometry"
        );
        let mut disk = Self::new(geometry, clock);
        disk.data = image;
        disk
    }

    /// Returns the geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// Returns the shared clock.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Accumulated I/O statistics: a view of the disk's obs counters
    /// (the one ledger the service routine writes).
    pub fn stats(&self) -> IoStats {
        self.obs.stats()
    }

    /// The disk's registry — once attached, a window onto the whole
    /// stack it reports into.
    pub fn obs(&self) -> &Registry {
        &self.obs.registry
    }

    /// Returns the access trace.
    pub fn trace(&self) -> &AccessTrace {
        &self.trace
    }

    /// Returns the access trace mutably (to enable/clear it).
    pub fn trace_mut(&mut self) -> &mut AccessTrace {
        &mut self.trace
    }

    /// Arms a crash plan. See [`CrashPlan`].
    pub fn arm_crash(&mut self, plan: CrashPlan) {
        self.crash_plan = Some(plan);
    }

    /// Draws crash-plan write indices from `counter` instead of this
    /// disk's private count.
    ///
    /// A striped volume hands every spindle the same counter and arms
    /// the same [`CrashPlan`] on each: writes are then numbered in
    /// global persist order across spindles, and exactly the spindle
    /// servicing the N-th write crashes — the others stop at their next
    /// request, just like drives sharing a failed power supply.
    pub fn share_write_index(&mut self, counter: Arc<AtomicU64>) {
        self.shared_write_index = Some(counter);
    }

    /// Returns true if the armed crash has triggered.
    pub fn has_crashed(&self) -> bool {
        self.crashed
    }

    /// Arms (or replaces) a media-fault plan. See [`MediaFaultPlan`].
    pub fn inject_media_faults(&mut self, plan: MediaFaultPlan) {
        self.media_faults = Some(plan);
    }

    /// The armed media-fault plan, if any (faults clear as sectors are
    /// rewritten or transient errors exhaust their failure budget).
    pub fn media_faults(&self) -> Option<&MediaFaultPlan> {
        self.media_faults.as_ref()
    }

    /// Kills the whole spindle, as if the head crashed: every subsequent
    /// read and write fails with [`DiskError::Unreadable`] until
    /// [`SimDisk::replace_media`] swaps in a fresh drive. Still-queued
    /// submissions and volatile held writes are lost with the media.
    pub fn kill_media(&mut self) {
        let plan = self.media_faults.take().unwrap_or_default();
        self.media_faults = Some(plan.kill());
        self.pending.clear();
        self.held.clear();
        self.obs
            .registry
            .event(self.clock.now_ns(), "media-fault", "spindle dead".to_string());
    }

    /// True when the media is dead (see [`SimDisk::kill_media`]).
    pub fn is_dead(&self) -> bool {
        self.media_faults.as_ref().is_some_and(|p| p.is_dead())
    }

    /// Swaps in a blank replacement drive: the image zeroes, every
    /// armed media fault (including a whole-spindle kill) clears, and
    /// the head parks at sector 0. Statistics, the crash plan, and the
    /// (possibly shared) write counter stay with the bay, not the
    /// drive — a rebuild's writes still count in global persist order.
    pub fn replace_media(&mut self) {
        self.data.iter_mut().for_each(|b| *b = 0);
        self.media_faults = None;
        self.pending.clear();
        self.held.clear();
        self.head = 0;
        self.obs.registry.event(
            self.clock.now_ns(),
            "media-fault",
            "spindle replaced".to_string(),
        );
    }

    /// Fails the request with [`DiskError::Unreadable`] when the whole
    /// spindle is dead. Writes check this *before* the crash plan: a
    /// request a dead drive rejects never counts as a persist event.
    fn dead_check(&mut self, sector: u64) -> DiskResult<()> {
        if !self.is_dead() {
            return Ok(());
        }
        self.obs.faults_unreadable.inc();
        self.obs.registry.event(
            self.clock.now_ns(),
            "media-fault",
            format!("dead spindle rejects sector={sector}"),
        );
        Err(DiskError::Unreadable { sector })
    }

    /// Consumes the disk and returns the surviving raw image.
    ///
    /// Still-queued submissions and writes held in a volatile
    /// [`FaultMode::ReorderWindow`] cache are **not** part of the image —
    /// only flushed or serviced data survives, exactly as after a power
    /// failure.
    pub fn into_image(self) -> Vec<u8> {
        self.data
    }

    /// Borrows the raw image (what the platters currently hold).
    pub fn image(&self) -> &[u8] {
        &self.data
    }

    /// The mechanical model, the one place it is computed: the seek /
    /// rotation / transfer decomposition of a request of `bytes` at
    /// `sector` from the current head position, as
    /// `(seek_ns, rotation_ns, transfer_ns, sequential)`. Pure — the
    /// head does not move.
    fn mechanics(&self, sector: u64, bytes: u64) -> (u64, u64, u64, bool) {
        let sequential = sector == self.head;
        let (seek, rotation) = if sequential {
            (0, 0)
        } else {
            let distance = sector.abs_diff(self.head);
            (
                self.geometry.seek_ns(distance),
                self.geometry.avg_rotational_latency_ns(),
            )
        };
        (seek, rotation, self.geometry.transfer_ns(bytes), sequential)
    }

    /// [`SimDisk::mechanics`] for a request being serviced: the head
    /// then moves to the request's end.
    fn service(&mut self, sector: u64, bytes: u64) -> (u64, u64, u64, bool) {
        let cost = self.mechanics(sector, bytes);
        self.head = sector + bytes / SECTOR_SIZE as u64;
        cost
    }

    /// Extra latency the armed fail-slow schedule charges a request whose
    /// service starts at `start_ns` (0 when none is armed).
    fn latency_fault_ns(&self, start_ns: u64, base_service_ns: u64) -> u64 {
        self.media_faults
            .as_ref()
            .map_or(0, |p| p.latency_extra_ns(start_ns, base_service_ns))
    }

    /// What the mechanical model alone — seek + rotation + transfer
    /// from the current head position, the drive's "datasheet" cost —
    /// says a request of `bytes` at `sector` should take, ignoring any
    /// armed latency faults. This is the healthy-expectation baseline a
    /// fail-slow detector divides observed service time by: absolute
    /// latency cannot separate a sequential read on a sick drive from a
    /// long random read on a healthy one, but the ratio to this model
    /// can.
    pub fn estimate_base_service_ns(&self, sector: u64, bytes: u64) -> u64 {
        let (seek, rotation, transfer, _) = self.mechanics(sector, bytes);
        seek + rotation + transfer
    }

    /// Non-mutating estimate of what servicing a request of `bytes` at
    /// `sector` would cost if the head picked it up once the device goes
    /// idle (or at `start_ns`, whichever is later), including any armed
    /// fail-slow penalty. The head does not move and nothing is
    /// accounted — this is the engine's crystal ball for hedging
    /// decisions, and it is exact when the request is serviced next.
    pub fn estimate_service_ns(&self, start_ns: u64, sector: u64, bytes: u64) -> u64 {
        let base = self.estimate_base_service_ns(sector, bytes);
        base + self.latency_fault_ns(start_ns, base)
    }

    /// Evaluates the armed crash plan against the write that is about to
    /// persist. Returns `Some(persisted_bytes)` if the crash fires; the
    /// caller must stop with [`DiskError::Crashed`] after applying the
    /// prefix. On a crash every held and still-queued write is lost.
    fn crash_check(&mut self, sector: u64, len: usize) -> Option<usize> {
        // Writes are numbered in persist order — globally, across every
        // disk sharing the counter, when one is installed.
        let this_write = match &self.shared_write_index {
            Some(counter) => counter.fetch_add(1, Ordering::Relaxed),
            None => self.write_index,
        };
        self.write_index += 1;
        let plan = self.crash_plan?;
        if this_write != plan.crash_at_write {
            return None;
        }
        self.crashed = true;
        let persisted = match plan.mode {
            FaultMode::DropWrite | FaultMode::ReorderWindow { .. } => 0,
            // A torn write must actually tear: at least the final sector
            // of the triggering request is lost, whatever `sectors` says,
            // so the plan is never indistinguishable from no fault.
            FaultMode::TornWrite { sectors } => {
                (sectors as usize * SECTOR_SIZE).min(len.saturating_sub(SECTOR_SIZE))
            }
        };
        let held_lost = self.held.len();
        let queued_lost = self.pending.len();
        self.held.clear();
        self.pending.clear();
        self.obs.registry.event(
            self.clock.now_ns(),
            "crash",
            format!(
                "write_index={this_write} sector={sector} persisted_bytes={persisted} \
                 held_lost={held_lost} queued_lost={queued_lost}"
            ),
        );
        Some(persisted)
    }

    /// Applies the armed media-fault plan to a read of `count` sectors at
    /// `sector`. Consumes one attempt from transient faults in the range.
    ///
    /// Returns `Ok(rotted)` — the sectors whose bytes must be corrupted in
    /// the output — or `Err(Unreadable)` when a latent/transient fault in
    /// the range fails the whole request. Counters and trace events are
    /// recorded here.
    fn media_read_check(&mut self, sector: u64, count: u64) -> DiskResult<Vec<u64>> {
        self.dead_check(sector)?;
        let outcome = match self.media_faults.as_mut() {
            Some(plan) => plan.on_read(sector, count),
            None => return Ok(Vec::new()),
        };
        match outcome {
            ReadOutcome::Ok { rotted } => {
                if !rotted.is_empty() {
                    self.obs.faults_rot_reads.inc();
                }
                Ok(rotted)
            }
            ReadOutcome::Unreadable {
                sector: bad,
                transient,
            } => {
                if transient {
                    self.obs.faults_transient.inc();
                } else {
                    self.obs.faults_unreadable.inc();
                }
                self.obs.registry.event(
                    self.clock.now_ns(),
                    "media-fault",
                    format!("unreadable sector={bad} transient={transient}"),
                );
                Err(DiskError::Unreadable { sector: bad })
            }
        }
    }

    /// XORs each rotted sector's bytes in `buf` (a buffer starting at
    /// `base_sector`) with the plan's deterministic corruption mask.
    fn apply_rot(&self, base_sector: u64, buf: &mut [u8], rotted: &[u64]) {
        let Some(plan) = self.media_faults.as_ref() else {
            return;
        };
        for &s in rotted {
            let mask = plan.rot_mask(s);
            let start = (s - base_sector) as usize * SECTOR_SIZE;
            for byte in &mut buf[start..start + SECTOR_SIZE] {
                *byte ^= mask;
            }
        }
    }

    /// Clears media faults covered by a persisted write (sector remap).
    fn media_write_clear(&mut self, sector: u64, count: u64) {
        let cleared = match self.media_faults.as_mut() {
            Some(plan) => plan.on_write(sector, count),
            None => return,
        };
        if cleared > 0 {
            self.obs.faults_cleared.add(cleared);
        }
    }

    // --- The request lifecycle: submit, then serve ----------------------

    /// Queues a read of `bytes` bytes at `sector` without servicing it.
    ///
    /// Returns an id to pass to [`SimDisk::complete`]. Queued requests
    /// cost nothing until completed.
    pub fn submit_read(&mut self, sector: u64, bytes: usize) -> DiskResult<u64> {
        self.submit(AccessKind::Read, sector, bytes, None)
    }

    /// Queues a write of `buf` at `sector` without servicing it.
    ///
    /// The payload reaches the platter only when [`SimDisk::complete`]
    /// services the request — **persistence order is completion order** —
    /// and a crash discards every still-queued submission.
    pub fn submit_write(&mut self, sector: u64, buf: &[u8]) -> DiskResult<u64> {
        self.submit(AccessKind::Write, sector, buf.len(), Some(buf.to_vec()))
    }

    /// Queues a request — with its payload, or none for a read or a
    /// [`BlockDevice`] call — after the checks both paths share: a
    /// crashed disk, an out-of-range request and dead media are rejected
    /// before any service.
    fn submit(
        &mut self,
        kind: AccessKind,
        sector: u64,
        bytes: usize,
        data: Option<Vec<u8>>,
    ) -> DiskResult<u64> {
        let label = std::mem::take(&mut self.next_label);
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        check_request(sector, bytes, self.geometry.num_sectors)?;
        self.dead_check(sector)?;
        let id = self.next_io_id;
        self.next_io_id += 1;
        self.pending.push(SubmittedIo {
            id,
            kind,
            sector,
            bytes: bytes as u64,
            submitted_at_ns: self.clock.now_ns(),
            label,
            data,
        });
        Ok(id)
    }

    /// The queued requests, in submission order.
    pub fn pending(&self) -> &[SubmittedIo] {
        &self.pending
    }

    /// Number of queued requests.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Virtual time at which the device becomes idle.
    pub fn busy_until_ns(&self) -> u64 {
        self.busy_until_ns
    }

    /// Merges queued write `back` into queued write `front`.
    ///
    /// `front` must end exactly where `back` starts; the merged request
    /// keeps `front`'s id and the earlier of the two submission times, so
    /// one head pass services both payloads (write coalescing).
    ///
    /// # Panics
    ///
    /// Panics if either id is unknown, either request is a read, or the
    /// requests are not sector-adjacent.
    pub fn merge_pending(&mut self, front: u64, back: u64) {
        let back_pos = self
            .pending
            .iter()
            .position(|p| p.id == back)
            .expect("merge_pending: unknown back id");
        let back_req = self.pending.remove(back_pos);
        let front_req = self
            .pending
            .iter_mut()
            .find(|p| p.id == front)
            .expect("merge_pending: unknown front id");
        assert_eq!(front_req.kind, AccessKind::Write, "merge_pending: front is a read");
        assert_eq!(back_req.kind, AccessKind::Write, "merge_pending: back is a read");
        assert_eq!(
            front_req.end_sector(),
            back_req.sector,
            "merge_pending: requests are not adjacent"
        );
        front_req
            .data
            .as_mut()
            .expect("write without payload")
            .extend_from_slice(back_req.data.as_deref().expect("write without payload"));
        front_req.bytes += back_req.bytes;
        front_req.submitted_at_ns = front_req.submitted_at_ns.min(back_req.submitted_at_ns);
        self.obs.coalesced.inc();
    }

    /// Replaces the payload of queued write `id` with `buf` (same length).
    ///
    /// Models write absorption: a later write to the same range updates
    /// the queued request in place instead of queueing a second transfer.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown, is a read, or `buf` has a different
    /// length than the queued request.
    pub fn absorb_pending(&mut self, id: u64, buf: &[u8]) {
        let req = self
            .pending
            .iter_mut()
            .find(|p| p.id == id)
            .expect("absorb_pending: unknown id");
        assert_eq!(req.kind, AccessKind::Write, "absorb_pending: target is a read");
        assert_eq!(req.bytes, buf.len() as u64, "absorb_pending: length mismatch");
        req.data.as_mut().expect("write without payload").copy_from_slice(buf);
    }

    /// Services queued request `id` through the disk's one service
    /// routine (the one every [`BlockDevice`] call uses): the head seeks
    /// to it, the payload moves, and the request is accounted exactly
    /// once. The clock is *not* advanced: the caller decides whether
    /// anyone waited. `sync` only tags the completion for statistics and
    /// tracing.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a queued request.
    pub fn complete(&mut self, id: u64, sync: bool) -> DiskResult<IoCompletion> {
        // A crash discards the queue, so its ids are unknown from then on.
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        let pos = self
            .pending
            .iter()
            .position(|p| p.id == id)
            .expect("complete: unknown io id");
        let mut req = self.pending.remove(pos);
        match req.data.take() {
            Some(payload) => self.serve(&req, Payload::Write(&payload), sync, None),
            None => {
                let mut out = vec![0; req.bytes as usize];
                let done = self.serve(&req, Payload::Read(&mut out), sync, None)?;
                Ok(IoCompletion { data: Some(out), ..done })
            }
        }
    }

    /// The one service routine. Every request is serviced here exactly
    /// once — a scheduler's queued request when it calls
    /// [`SimDisk::complete`], a [`BlockDevice`] call's request the moment
    /// it is submitted. Synchronous versus asynchronous is only about who
    /// waits: this routine never touches the clock. The bytes move
    /// through `payload` (the queue's copy, or a [`BlockDevice`] caller's
    /// own buffer), so the returned completion carries no data.
    ///
    /// Service starts when the device is free **and** the request has
    /// been submitted (`start = max(busy_until, submitted_at)`); the gap
    /// is queue wait, which accumulates in [`IoStats::queue_wait_ns`] —
    /// never in busy time. This is the only place service time enters
    /// `busy_ns` and its seek / rotation / transfer / stall
    /// decomposition, so overlapped queueing cannot double-count it.
    ///
    /// A write first meets the crash plan (a crash lands only the torn
    /// prefix) and clears the media faults it covers; with `hold` set —
    /// an asynchronous write under an armed [`FaultMode::ReorderWindow`]
    /// of that many writes — its payload goes to the volatile cache
    /// instead of the platter. A read consumes its media-fault attempt,
    /// returns rotted bytes as rotted, and sees data the volatile cache
    /// still holds; a failed one fills nothing. The head travels even to
    /// an unreadable sector, so the request is accounted first.
    fn serve(
        &mut self,
        req: &SubmittedIo,
        payload: Payload<'_>,
        sync: bool,
        hold: Option<usize>,
    ) -> DiskResult<IoCompletion> {
        let count = req.bytes / SECTOR_SIZE as u64;
        let media = match payload {
            Payload::Write(data) => {
                self.dead_check(req.sector)?;
                if let Some(persisted) = self.crash_check(req.sector, data.len()) {
                    // Power failed mid-request; the caller observes an error.
                    self.persist(req.sector, &data[..persisted]);
                    return Err(DiskError::Crashed);
                }
                // An accepted write remaps its sectors: media faults clear.
                self.media_write_clear(req.sector, count);
                Ok(Vec::new())
            }
            Payload::Read(_) => self.media_read_check(req.sector, count),
        };

        let start_ns = self.busy_until_ns.max(req.submitted_at_ns);
        let wait_ns = start_ns - req.submitted_at_ns;
        let (seek_ns, rotation_ns, transfer_ns, sequential) = self.service(req.sector, req.bytes);
        let stall_ns = self.latency_fault_ns(start_ns, seek_ns + rotation_ns + transfer_ns);
        let service_ns = seek_ns + rotation_ns + transfer_ns + stall_ns;
        let finish_ns = start_ns + service_ns;
        self.busy_until_ns = finish_ns;

        match (payload, &media) {
            (Payload::Write(data), _) => match hold {
                // The drive acks (and is charged) now, but the payload
                // stays off the platter until it ages out of the window
                // or a flush drains it.
                Some(window) => {
                    self.held.push_back((req.sector, data.to_vec()));
                    while self.held.len() > window {
                        let (sector, data) = self.held.pop_front().expect("non-empty");
                        self.persist(sector, &data);
                    }
                }
                None => self.persist(req.sector, data),
            },
            (Payload::Read(out), Ok(rotted)) => {
                let offset = req.sector as usize * SECTOR_SIZE;
                out.copy_from_slice(&self.data[offset..offset + out.len()]);
                // Bit-rot lives on the platter, so it applies before the
                // volatile-cache overlay: held data is pristine.
                self.apply_rot(req.sector, out, rotted);
                // Overlaid in FIFO order so later held writes win.
                for (held_sector, held) in &self.held {
                    let held_start = *held_sector as usize * SECTOR_SIZE;
                    let lo = offset.max(held_start);
                    let hi = (offset + out.len()).min(held_start + held.len());
                    if lo < hi {
                        out[lo - offset..hi - offset]
                            .copy_from_slice(&held[lo - held_start..hi - held_start]);
                    }
                }
            }
            (Payload::Read(_), Err(_)) => {}
        }

        self.obs.queue_wait_ns.add(wait_ns);
        self.obs.busy_ns.add(service_ns);
        self.obs.seek_ns.add(seek_ns);
        self.obs.rotation_ns.add(rotation_ns);
        self.obs.transfer_ns.add(transfer_ns);
        self.obs.stall_ns.add(stall_ns);
        if sequential {
            self.obs.sequential.inc();
        } else {
            self.obs.seeks.inc();
        }
        match req.kind {
            AccessKind::Read => {
                self.obs.reads.inc();
                self.obs.bytes_read.add(req.bytes);
                self.obs.read_lat.record(service_ns);
            }
            AccessKind::Write => {
                self.obs.writes.inc();
                self.obs.bytes_written.add(req.bytes);
                self.obs.write_lat.record(service_ns);
                if sync {
                    self.obs.sync_writes.inc();
                }
            }
        }
        self.trace.record(AccessRecord {
            kind: req.kind,
            sector: req.sector,
            bytes: req.bytes,
            sync,
            sequential,
            issued_at_ns: req.submitted_at_ns,
            service_ns,
            label: req.label,
        });

        // The head travelled and the attempt was accounted; only now
        // does an unreadable sector surface to the caller.
        media?;
        Ok(IoCompletion {
            id: req.id,
            kind: req.kind,
            sector: req.sector,
            bytes: req.bytes,
            submitted_at_ns: req.submitted_at_ns,
            start_ns,
            finish_ns,
            service_ns,
            wait_ns,
            sequential,
            data: None,
        })
    }

    /// Serves a [`BlockDevice`] call's just-submitted, payload-less
    /// request straight from (or into) the caller's buffer and, when the
    /// caller waits (`sync`), advances the clock to its finish — past a
    /// failed read too, whose head travel the caller sat through.
    fn serve_direct(
        &mut self,
        payload: Payload<'_>,
        sync: bool,
        hold: Option<usize>,
    ) -> DiskResult<()> {
        let req = self.pending.pop().expect("serve_direct: nothing submitted");
        let res = self.serve(&req, payload, sync, hold);
        if sync && !matches!(res, Err(DiskError::Crashed)) {
            self.clock.advance_to_ns(self.busy_until_ns);
        }
        res.map(|_| ())
    }

    /// Puts `data` on the platter at `sector`.
    fn persist(&mut self, sector: u64, data: &[u8]) {
        let start = sector as usize * SECTOR_SIZE;
        self.data[start..start + data.len()].copy_from_slice(data);
    }
}

impl BlockDevice for SimDisk {
    fn num_sectors(&self) -> u64 {
        self.geometry.num_sectors
    }

    fn read(&mut self, sector: u64, buf: &mut [u8]) -> DiskResult<()> {
        self.submit(AccessKind::Read, sector, buf.len(), None)?;
        // Reads are always synchronous: the caller needs the data.
        self.serve_direct(Payload::Read(buf), true, None)
    }

    fn write(&mut self, sector: u64, buf: &[u8], sync: bool) -> DiskResult<()> {
        self.submit(AccessKind::Write, sector, buf.len(), None)?;
        // Synchronous writes are force-unit-access: they persist at once,
        // without draining older held writes.
        let hold = match self.crash_plan {
            Some(CrashPlan {
                mode: FaultMode::ReorderWindow { window },
                ..
            }) if !sync => Some(window),
            _ => None,
        };
        self.serve_direct(Payload::Write(buf), sync, hold)
    }

    fn flush(&mut self) -> DiskResult<()> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        // Service still-queued submissions in submission order, then
        // drain the volatile cache: flush is the durability barrier.
        while let Some(front) = self.pending.first() {
            let id = front.id;
            self.complete(id, false)?;
        }
        while let Some((sector, data)) = self.held.pop_front() {
            self.persist(sector, &data);
        }
        self.clock.advance_to_ns(self.busy_until_ns);
        Ok(())
    }

    /// Durable once the queue is empty, the volatile cache holds nothing
    /// and the busy horizon has passed: an asynchronous write persists
    /// when it is serviced, but is only *finished* at its completion time.
    fn writes_durable(&mut self) -> bool {
        !self.crashed
            && self.pending.is_empty()
            && self.held.is_empty()
            && self.busy_until_ns <= self.clock.now_ns()
    }

    fn annotate(&mut self, label: &'static str) {
        self.next_label = label;
    }

    fn attach_obs(&mut self, registry: &Registry) {
        registry.mount("", &self.obs.registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_disk() -> SimDisk {
        SimDisk::new(DiskGeometry::tiny_test(1024), Clock::new())
    }

    #[test]
    fn data_round_trips() {
        let mut disk = small_disk();
        let payload = vec![0x5A; SECTOR_SIZE * 4];
        disk.write(10, &payload, true).unwrap();
        let mut out = vec![0; SECTOR_SIZE * 4];
        disk.read(10, &mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn killed_media_rejects_all_io_until_replaced() {
        let mut disk = small_disk();
        disk.write(10, &vec![0x5A; SECTOR_SIZE], true).unwrap();
        disk.kill_media();
        assert!(disk.is_dead());
        let moved = |d: &SimDisk| (d.clock().now_ns(), d.stats().busy_ns, d.stats().reads);
        let before = moved(&disk);
        let mut out = vec![0; SECTOR_SIZE];
        assert_eq!(
            disk.read(10, &mut out),
            Err(DiskError::Unreadable { sector: 10 })
        );
        assert_eq!(
            disk.write(20, &vec![1; SECTOR_SIZE], true),
            Err(DiskError::Unreadable { sector: 20 })
        );
        assert_eq!(
            disk.submit_read(10, SECTOR_SIZE),
            Err(DiskError::Unreadable { sector: 10 })
        );
        assert_eq!(
            disk.submit_write(10, &vec![2; SECTOR_SIZE]),
            Err(DiskError::Unreadable { sector: 10 })
        );
        // A dead drive never consumes crash-plan persist slots: only
        // the one pre-kill write counted.
        assert_eq!(disk.write_index, 1);
        // Dead media is rejected at submission: no head travel, no wait.
        assert_eq!(moved(&disk), before);

        disk.replace_media();
        assert!(!disk.is_dead());
        disk.read(10, &mut out).unwrap();
        assert_eq!(out, vec![0; SECTOR_SIZE], "replacement drive is blank");
        disk.write(10, &vec![7; SECTOR_SIZE], true).unwrap();
        disk.read(10, &mut out).unwrap();
        assert_eq!(out, vec![7; SECTOR_SIZE]);
    }

    #[test]
    fn kill_media_discards_queued_submissions() {
        let mut disk = small_disk();
        disk.submit_write(4, &vec![9; SECTOR_SIZE]).unwrap();
        assert_eq!(disk.pending_len(), 1);
        disk.kill_media();
        assert_eq!(disk.pending_len(), 0, "queued IO dies with the media");
    }

    #[test]
    fn sync_write_advances_clock_async_does_not() {
        let mut disk = small_disk();
        let buf = vec![0; SECTOR_SIZE];
        let clock = Arc::clone(disk.clock());

        disk.write(100, &buf, false).unwrap();
        assert_eq!(clock.now_ns(), 0, "async write must not stall the CPU");

        disk.write(500, &buf, true).unwrap();
        assert!(clock.now_ns() > 0, "sync write must stall the CPU");
    }

    #[test]
    fn flush_waits_for_queued_writes() {
        let mut disk = small_disk();
        let buf = vec![0; SECTOR_SIZE * 8];
        let clock = Arc::clone(disk.clock());
        disk.write(0, &buf, false).unwrap();
        disk.write(512, &buf, false).unwrap();
        assert_eq!(clock.now_ns(), 0);
        disk.flush().unwrap();
        let after_flush = clock.now_ns();
        assert!(after_flush > 0);
        // Flushing again is free.
        disk.flush().unwrap();
        assert_eq!(clock.now_ns(), after_flush);
    }

    #[test]
    fn writes_are_durable_once_the_busy_horizon_passes() {
        let mut disk = small_disk();
        let clock = Arc::clone(disk.clock());
        assert!(disk.writes_durable(), "an idle disk holds nothing");
        disk.write(0, &vec![0; SECTOR_SIZE * 8], false).unwrap();
        assert!(!disk.writes_durable(), "the write is still in service");
        assert_eq!(clock.now_ns(), 0, "the query never waits");
        clock.advance_to_ns(disk.busy_until_ns());
        assert!(disk.writes_durable());
        // A queued submission is not durable until it is serviced.
        let id = disk.submit_write(64, &[1; SECTOR_SIZE]).unwrap();
        assert!(!disk.writes_durable());
        disk.complete(id, false).unwrap();
        clock.advance_to_ns(disk.busy_until_ns());
        assert!(disk.writes_durable());
    }

    #[test]
    fn writes_held_in_a_reorder_window_are_not_durable_until_flushed() {
        let mut disk = small_disk();
        let clock = Arc::clone(disk.clock());
        disk.arm_crash(CrashPlan::reorder_at(u64::MAX, 4));
        disk.write(30, &[1; SECTOR_SIZE], false).unwrap();
        // However long we wait, the volatile cache still holds it.
        clock.advance_ns(1_000_000_000);
        assert!(!disk.writes_durable());
        disk.flush().unwrap();
        assert!(disk.writes_durable());
    }

    #[test]
    fn sequential_requests_skip_the_seek() {
        let mut disk = small_disk();
        let buf = vec![0; SECTOR_SIZE];
        disk.write(0, &buf, true).unwrap();
        disk.write(1, &buf, true).unwrap(); // Continues at the head.
        disk.write(700, &buf, true).unwrap(); // Random.
                                              // The head starts at sector 0, so the first write is sequential too.
        assert_eq!(disk.stats().sequential, 2);
        assert_eq!(disk.stats().seeks, 1);
    }

    #[test]
    fn sequential_transfer_is_much_faster_per_byte() {
        let geometry = DiskGeometry::wren_iv();
        let clock = Clock::new();
        let mut disk = SimDisk::new(geometry.clone(), Arc::clone(&clock));

        // One 1 MB sequential write.
        let megabyte = vec![0; 1 << 20];
        disk.write(0, &megabyte, true).unwrap();
        let sequential_ns = clock.now_ns();

        // 256 scattered 4 KB writes of the same total volume.
        let four_kb = vec![0; 4096];
        let before = clock.now_ns();
        for i in 0..256u64 {
            // Stride far enough apart to force seeks.
            disk.write(10_000 + i * 1_000, &four_kb, true).unwrap();
        }
        let random_ns = clock.now_ns() - before;

        assert!(
            random_ns > 5 * sequential_ns,
            "random ({random_ns} ns) should be much slower than sequential ({sequential_ns} ns)"
        );
    }

    #[test]
    fn crash_drop_discards_the_triggering_write() {
        let mut disk = small_disk();
        let ones = vec![1; SECTOR_SIZE];
        disk.write(0, &ones, true).unwrap();
        disk.arm_crash(CrashPlan::drop_at(1));
        let twos = vec![2; SECTOR_SIZE];
        assert_eq!(disk.write(0, &twos, true), Err(DiskError::Crashed));
        assert!(disk.has_crashed());
        // Everything after the crash fails.
        let mut buf = vec![0; SECTOR_SIZE];
        assert_eq!(disk.read(0, &mut buf), Err(DiskError::Crashed));
        // The surviving image still holds the first write.
        assert_eq!(&disk.into_image()[..SECTOR_SIZE], &ones[..]);
    }

    #[test]
    fn crash_tear_persists_a_prefix() {
        let mut disk = small_disk();
        disk.arm_crash(CrashPlan::tear_at(0, 1));
        let payload: Vec<u8> = (0..SECTOR_SIZE * 3)
            .map(|i| (i / SECTOR_SIZE) as u8 + 1)
            .collect();
        assert_eq!(disk.write(5, &payload, false), Err(DiskError::Crashed));
        let image = disk.into_image();
        let start = 5 * SECTOR_SIZE;
        assert_eq!(&image[start..start + SECTOR_SIZE], &payload[..SECTOR_SIZE]);
        assert_eq!(
            &image[start + SECTOR_SIZE..start + 2 * SECTOR_SIZE],
            &vec![0; SECTOR_SIZE][..],
            "torn sectors must not persist"
        );
    }

    #[test]
    fn crash_tear_with_oversized_sector_count_still_tears() {
        // Regression: `sectors >= request length` used to persist the
        // whole write, making the torn plan indistinguishable from no
        // fault. At least the final sector must always be lost.
        let mut disk = small_disk();
        disk.arm_crash(CrashPlan::tear_at(0, 1000));
        let payload = vec![0xAB; SECTOR_SIZE * 3];
        assert_eq!(disk.write(5, &payload, true), Err(DiskError::Crashed));
        let image = disk.into_image();
        let start = 5 * SECTOR_SIZE;
        assert_eq!(
            &image[start..start + 2 * SECTOR_SIZE],
            &payload[..2 * SECTOR_SIZE],
            "leading sectors persist"
        );
        assert_eq!(
            &image[start + 2 * SECTOR_SIZE..start + 3 * SECTOR_SIZE],
            &vec![0; SECTOR_SIZE][..],
            "the final sector of an oversized tear must be lost"
        );
    }

    #[test]
    fn crash_tear_of_single_sector_write_drops_it() {
        let mut disk = small_disk();
        disk.arm_crash(CrashPlan::tear_at(0, 7));
        assert_eq!(
            disk.write(9, &vec![0xCD; SECTOR_SIZE], true),
            Err(DiskError::Crashed)
        );
        let image = disk.into_image();
        assert_eq!(
            &image[9 * SECTOR_SIZE..10 * SECTOR_SIZE],
            &vec![0; SECTOR_SIZE][..]
        );
    }

    #[test]
    fn latent_media_fault_fails_reads_until_rewritten() {
        let mut disk = small_disk();
        disk.write(20, &vec![7; SECTOR_SIZE * 2], true).unwrap();
        disk.inject_media_faults(MediaFaultPlan::new(9).latent(21));
        let mut buf = vec![0; SECTOR_SIZE * 2];
        assert_eq!(
            disk.read(20, &mut buf),
            Err(DiskError::Unreadable { sector: 21 })
        );
        // The attempt was accounted: the head travelled to the sector.
        assert_eq!(disk.stats().reads, 1);
        assert_eq!(disk.obs().snapshot().counter("faults.unreadable_reads"), 1);
        // A read not touching the sector is clean.
        let mut one = vec![0; SECTOR_SIZE];
        disk.read(20, &mut one).unwrap();
        assert_eq!(one, vec![7; SECTOR_SIZE]);
        // A rewrite remaps the sector; reads succeed again.
        disk.write(21, &vec![8; SECTOR_SIZE], true).unwrap();
        disk.read(20, &mut buf).unwrap();
        assert_eq!(&buf[SECTOR_SIZE..], &vec![8; SECTOR_SIZE][..]);
        assert_eq!(disk.obs().snapshot().counter("faults.cleared_by_write"), 1);
        assert!(disk.media_faults().unwrap().is_empty());
    }

    #[test]
    fn transient_media_fault_succeeds_after_k_retries() {
        let mut disk = small_disk();
        disk.write(4, &vec![3; SECTOR_SIZE], true).unwrap();
        disk.inject_media_faults(MediaFaultPlan::new(1).transient(4, 2));
        let mut buf = vec![0; SECTOR_SIZE];
        assert_eq!(disk.read(4, &mut buf), Err(DiskError::Unreadable { sector: 4 }));
        assert_eq!(disk.read(4, &mut buf), Err(DiskError::Unreadable { sector: 4 }));
        disk.read(4, &mut buf).unwrap();
        assert_eq!(buf, vec![3; SECTOR_SIZE]);
        assert_eq!(disk.obs().snapshot().counter("faults.transient_errors"), 2);
    }

    #[test]
    fn rot_corrupts_reads_deterministically_and_silently() {
        let mut disk = small_disk();
        disk.write(40, &vec![0x55; SECTOR_SIZE * 2], true).unwrap();
        disk.inject_media_faults(MediaFaultPlan::new(77).rot(41));
        let mut a = vec![0; SECTOR_SIZE * 2];
        disk.read(40, &mut a).unwrap();
        assert_eq!(&a[..SECTOR_SIZE], &vec![0x55; SECTOR_SIZE][..]);
        assert_ne!(&a[SECTOR_SIZE..], &vec![0x55; SECTOR_SIZE][..], "rotted sector is corrupt");
        // Deterministic: a second read returns the same corrupt bytes.
        let mut b = vec![0; SECTOR_SIZE * 2];
        disk.read(40, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(disk.obs().snapshot().counter("faults.rot_reads"), 2);
        // The platter itself is untouched; rewriting clears the rot.
        disk.write(41, &vec![0x66; SECTOR_SIZE], true).unwrap();
        disk.read(40, &mut a).unwrap();
        assert_eq!(&a[SECTOR_SIZE..], &vec![0x66; SECTOR_SIZE][..]);
    }

    #[test]
    fn media_faults_apply_on_the_submit_complete_path() {
        let mut disk = small_disk();
        disk.write(10, &vec![1; SECTOR_SIZE], true).unwrap();
        disk.write(12, &vec![4; SECTOR_SIZE], true).unwrap();
        // Arm after the writes: a write to a faulted sector would clear it.
        disk.inject_media_faults(MediaFaultPlan::new(5).transient(10, 1).rot(12));

        let r = disk.submit_read(10, SECTOR_SIZE).unwrap();
        assert_eq!(disk.complete(r, true), Err(DiskError::Unreadable { sector: 10 }));
        // The failed attempt was accounted and consumed the transient.
        assert_eq!(disk.stats().reads, 1);
        let retry = disk.submit_read(10, SECTOR_SIZE).unwrap();
        let done = disk.complete(retry, true).unwrap();
        assert_eq!(done.data.as_deref(), Some(&vec![1; SECTOR_SIZE][..]));

        let r2 = disk.submit_read(12, SECTOR_SIZE).unwrap();
        let done2 = disk.complete(r2, true).unwrap();
        assert_ne!(done2.data.as_deref(), Some(&vec![4; SECTOR_SIZE][..]), "rot corrupts queued reads too");
    }

    #[test]
    fn fail_slow_inflates_service_and_accounts_stall_separately() {
        use crate::fault::FailSlowProfile;
        let mut disk = small_disk();
        let buf = vec![0; SECTOR_SIZE];
        // Healthy baseline: a random single-sector write, seek distance
        // 100 (head starts at 0).
        disk.write(100, &buf, true).unwrap();
        let healthy_ns = disk.clock().now_ns();
        assert_eq!(disk.stats().stall_ns, 0, "healthy media never stalls");

        // 4x multiplier from now on: the same shape of request takes 4x.
        disk.inject_media_faults(MediaFaultPlan::new(0).fail_slow(
            FailSlowProfile::at(disk.clock().now_ns()).with_multiplier_pct(400),
        ));
        let before = disk.clock().now_ns();
        // Head is at 101; sector 201 repeats the same 100-sector seek.
        disk.write(201, &buf, true).unwrap();
        let slow_ns = disk.clock().now_ns() - before;
        // Identical seek distance, rotation, and transfer, so the 4x
        // shows through exactly.
        assert_eq!(slow_ns, 4 * healthy_ns);

        let stats = disk.stats();
        assert_eq!(stats.stall_ns, 3 * healthy_ns, "the extra 3x is stall");
        // The busy decomposition stays exact with the stall component.
        assert_eq!(
            stats.seek_ns + stats.rotation_ns + stats.transfer_ns + stats.stall_ns,
            stats.busy_ns
        );
        let snap = disk.obs().snapshot();
        assert_eq!(snap.counter("disk.stall_ns"), stats.stall_ns);
        assert_eq!(
            snap.counter("disk.seek_ns")
                + snap.counter("disk.rotation_ns")
                + snap.counter("disk.transfer_ns")
                + snap.counter("disk.stall_ns"),
            snap.counter("disk.busy_ns")
        );
    }

    #[test]
    fn fail_slow_applies_on_the_submit_complete_path_and_estimate_is_exact() {
        use crate::fault::FailSlowProfile;
        let mut disk = small_disk();
        disk.write(10, &vec![6; SECTOR_SIZE], true).unwrap();
        disk.inject_media_faults(
            MediaFaultPlan::new(0).fail_slow(FailSlowProfile::at(0).with_multiplier_pct(300)),
        );
        let id = disk.submit_read(10, SECTOR_SIZE).unwrap();
        // The estimate sees the same start time complete() will use.
        let start = disk.busy_until_ns().max(disk.clock().now_ns());
        let est = disk.estimate_service_ns(start, 10, SECTOR_SIZE as u64);
        let done = disk.complete(id, true).unwrap();
        assert_eq!(done.service_ns, est, "estimate is exact for the next request");
        assert!(disk.stats().stall_ns > 0);
        assert_eq!(done.data.as_deref(), Some(&vec![6; SECTOR_SIZE][..]));
    }

    #[test]
    fn image_survives_into_new_disk() {
        let geometry = DiskGeometry::tiny_test(64);
        let mut disk = SimDisk::new(geometry.clone(), Clock::new());
        disk.write(3, &vec![9; SECTOR_SIZE], true).unwrap();
        let image = disk.into_image();
        let mut revived = SimDisk::from_image(geometry, Clock::new(), image);
        let mut buf = vec![0; SECTOR_SIZE];
        revived.read(3, &mut buf).unwrap();
        assert_eq!(buf, vec![9; SECTOR_SIZE]);
    }

    #[test]
    fn annotate_labels_the_next_traced_access() {
        let mut disk = small_disk();
        disk.trace_mut().enable();
        disk.annotate("inode");
        disk.write(0, &vec![0; SECTOR_SIZE], true).unwrap();
        disk.write(1, &vec![0; SECTOR_SIZE], true).unwrap();
        let records = disk.trace().records();
        assert_eq!(records[0].label, "inode");
        assert_eq!(records[1].label, "");
    }

    /// `stats()` is a view of the obs counters: every field reads the
    /// counter of the same name, before and after a prefixed mount.
    #[test]
    fn obs_mirrors_stats_and_decomposes_busy_time() {
        let mut disk = small_disk();
        disk.write(0, &vec![0; SECTOR_SIZE * 2], true).unwrap();
        disk.write(500, &vec![0; SECTOR_SIZE], false).unwrap();
        let mut buf = vec![0; SECTOR_SIZE];
        disk.read(7, &mut buf).unwrap();

        let stats = disk.stats();
        assert_eq!((stats.reads, stats.writes, stats.sync_writes), (1, 2, 1));
        assert_eq!(stats.bytes_written, 3 * SECTOR_SIZE as u64);
        assert_eq!(stats.seeks + stats.sequential, stats.total_requests());

        let check = |snap: &obs::Snapshot, prefix: &str, stats: &IoStats| {
            let c = |name: &str| snap.counter(&format!("{prefix}disk.{name}"));
            let from_counters = IoStats {
                reads: c("reads"),
                writes: c("writes"),
                sync_writes: c("sync_writes"),
                seeks: c("seeks"),
                sequential: c("sequential"),
                bytes_read: c("bytes_read"),
                bytes_written: c("bytes_written"),
                busy_ns: c("busy_ns"),
                seek_ns: c("seek_ns"),
                rotation_ns: c("rotation_ns"),
                transfer_ns: c("transfer_ns"),
                stall_ns: c("stall_ns"),
                queue_wait_ns: c("queue_wait_ns"),
                coalesced: c("coalesced_writes"),
            };
            assert_eq!(&from_counters, stats);
        };
        let snap = disk.obs().snapshot();
        check(&snap, "", &stats);
        // The decomposition is exact.
        assert_eq!(
            stats.seek_ns + stats.rotation_ns + stats.transfer_ns,
            stats.busy_ns
        );
        // Every request lands in a service-time histogram.
        let read_lat = snap.hist("disk.read_service_ns").unwrap();
        let write_lat = snap.hist("disk.write_service_ns").unwrap();
        assert_eq!(read_lat.count, stats.reads);
        assert_eq!(write_lat.count, stats.writes);
        assert_eq!(read_lat.sum + write_lat.sum, stats.busy_ns);

        // Mounted under a prefix, the view follows the counters.
        Registry::new().mount("volume.spindle.3.", disk.obs());
        disk.read(7, &mut buf).unwrap();
        let stats = disk.stats();
        assert_eq!(stats.reads, 2);
        check(&disk.obs().snapshot(), "volume.spindle.3.", &stats);
    }

    #[test]
    fn attach_obs_carries_counts_into_shared_registry() {
        let mut disk = small_disk();
        disk.write(0, &vec![0; SECTOR_SIZE], true).unwrap();
        let shared = obs::Registry::new();
        disk.attach_obs(&shared);
        disk.write(1, &vec![0; SECTOR_SIZE], true).unwrap();
        assert_eq!(shared.snapshot().counter("disk.writes"), 2);
        // The disk now reports through the shared registry.
        shared.counter("probe").inc();
        assert_eq!(disk.obs().snapshot().counter("probe"), 1);
    }

    #[test]
    fn submit_complete_round_trips_data_and_accounts_once() {
        let mut disk = small_disk();
        let payload = vec![0xA5; SECTOR_SIZE * 2];
        let w = disk.submit_write(8, &payload).unwrap();
        // Nothing happens until completion: no stats, no platter change.
        assert_eq!(disk.stats().writes, 0);
        assert_eq!(&disk.image()[8 * SECTOR_SIZE..9 * SECTOR_SIZE], &[0u8; SECTOR_SIZE][..]);

        let done = disk.complete(w, false).unwrap();
        assert_eq!(done.sector, 8);
        assert_eq!(done.bytes, SECTOR_SIZE as u64 * 2);
        assert_eq!(disk.stats().writes, 1);
        assert_eq!(disk.stats().busy_ns, done.service_ns);

        let r = disk.submit_read(8, SECTOR_SIZE * 2).unwrap();
        let read_done = disk.complete(r, true).unwrap();
        assert_eq!(read_done.data.as_deref(), Some(&payload[..]));
        // Completion never advances the clock; the caller decides.
        assert_eq!(disk.clock().now_ns(), 0);
    }

    #[test]
    fn queue_wait_is_tracked_but_never_counts_as_busy() {
        let mut disk = small_disk();
        let buf = vec![0; SECTOR_SIZE];
        let a = disk.submit_write(100, &buf).unwrap();
        let b = disk.submit_write(700, &buf).unwrap();
        let c = disk.submit_write(300, &buf).unwrap();
        // Service out of submission order: b waits behind a, c behind both.
        let da = disk.complete(a, false).unwrap();
        let db = disk.complete(b, false).unwrap();
        let dc = disk.complete(c, false).unwrap();
        assert_eq!(da.wait_ns, 0);
        assert_eq!(db.wait_ns, da.service_ns);
        assert_eq!(dc.wait_ns, da.service_ns + db.service_ns);

        let stats = disk.stats();
        // Overlapped queueing must not double-count service time: the
        // busy decomposition stays exact at any queue depth, and queue
        // wait lives in its own counter.
        assert_eq!(stats.busy_ns, da.service_ns + db.service_ns + dc.service_ns);
        assert_eq!(stats.seek_ns + stats.rotation_ns + stats.transfer_ns, stats.busy_ns);
        assert_eq!(stats.queue_wait_ns, db.wait_ns + dc.wait_ns);
        let snap = disk.obs().snapshot();
        assert_eq!(snap.counter("disk.queue_wait_ns"), stats.queue_wait_ns);
    }

    #[test]
    fn merge_pending_coalesces_adjacent_writes_into_one_transfer() {
        let mut disk = small_disk();
        let a = disk.submit_write(10, &vec![1; SECTOR_SIZE]).unwrap();
        let b = disk.submit_write(11, &vec![2; SECTOR_SIZE]).unwrap();
        disk.merge_pending(a, b);
        assert_eq!(disk.pending_len(), 1);
        assert_eq!(disk.stats().coalesced, 1);

        let done = disk.complete(a, false).unwrap();
        assert_eq!(done.bytes, SECTOR_SIZE as u64 * 2);
        // One request, one head pass.
        assert_eq!(disk.stats().writes, 1);
        let image = disk.into_image();
        assert_eq!(&image[10 * SECTOR_SIZE..11 * SECTOR_SIZE], &vec![1; SECTOR_SIZE][..]);
        assert_eq!(&image[11 * SECTOR_SIZE..12 * SECTOR_SIZE], &vec![2; SECTOR_SIZE][..]);
    }

    #[test]
    fn absorb_pending_replaces_a_queued_payload() {
        let mut disk = small_disk();
        let w = disk.submit_write(5, &vec![1; SECTOR_SIZE]).unwrap();
        disk.absorb_pending(w, &vec![9; SECTOR_SIZE]);
        disk.complete(w, false).unwrap();
        assert_eq!(disk.stats().writes, 1, "absorption queues no second transfer");
        assert_eq!(&disk.into_image()[5 * SECTOR_SIZE..6 * SECTOR_SIZE], &vec![9; SECTOR_SIZE][..]);
    }

    #[test]
    fn completion_order_is_persistence_order() {
        let mut disk = small_disk();
        disk.arm_crash(CrashPlan::drop_at(u64::MAX)); // Never fires; counts writes.
        let a = disk.submit_write(10, &vec![1; SECTOR_SIZE]).unwrap();
        let b = disk.submit_write(20, &vec![2; SECTOR_SIZE]).unwrap();
        disk.complete(b, false).unwrap();
        disk.complete(a, false).unwrap();
        // write_index counts in persist order: b first, then a.
        assert_eq!(disk.stats().writes, 2);
    }

    #[test]
    fn flush_services_queued_submissions() {
        let mut disk = small_disk();
        let clock = Arc::clone(disk.clock());
        disk.submit_write(40, &vec![7; SECTOR_SIZE]).unwrap();
        disk.submit_write(50, &vec![8; SECTOR_SIZE]).unwrap();
        disk.flush().unwrap();
        assert_eq!(disk.pending_len(), 0);
        assert!(clock.now_ns() > 0);
        assert_eq!(&disk.image()[40 * SECTOR_SIZE..40 * SECTOR_SIZE + 1], &[7][..]);
        assert_eq!(&disk.image()[50 * SECTOR_SIZE..50 * SECTOR_SIZE + 1], &[8][..]);
    }

    #[test]
    fn crash_at_completion_discards_queued_submissions() {
        let mut disk = small_disk();
        disk.arm_crash(CrashPlan::drop_at(0));
        let a = disk.submit_write(10, &vec![1; SECTOR_SIZE]).unwrap();
        let _b = disk.submit_write(20, &vec![2; SECTOR_SIZE]).unwrap();
        assert_eq!(disk.complete(a, false), Err(DiskError::Crashed));
        assert!(disk.has_crashed());
        let image = disk.into_image();
        assert_eq!(&image[10 * SECTOR_SIZE..11 * SECTOR_SIZE], &[0u8; SECTOR_SIZE][..]);
        assert_eq!(&image[20 * SECTOR_SIZE..21 * SECTOR_SIZE], &[0u8; SECTOR_SIZE][..]);
    }

    #[test]
    fn reorder_window_holds_async_writes_until_flush() {
        let mut disk = small_disk();
        disk.arm_crash(CrashPlan::reorder_at(u64::MAX, 4));
        let ones = vec![1; SECTOR_SIZE];
        disk.write(30, &ones, false).unwrap();
        // Held, not on the platter — but reads still see it (cache hit).
        assert_eq!(&disk.image()[30 * SECTOR_SIZE..30 * SECTOR_SIZE + 1], &[0][..]);
        let mut buf = vec![0; SECTOR_SIZE];
        disk.read(30, &mut buf).unwrap();
        assert_eq!(buf, ones);
        // Flush is the durability barrier.
        disk.flush().unwrap();
        assert_eq!(&disk.image()[30 * SECTOR_SIZE..31 * SECTOR_SIZE], &ones[..]);
    }

    #[test]
    fn reorder_window_ages_out_oldest_write() {
        let mut disk = small_disk();
        disk.arm_crash(CrashPlan::reorder_at(u64::MAX, 2));
        for i in 0..3u64 {
            disk.write(10 + i, &vec![i as u8 + 1; SECTOR_SIZE], false).unwrap();
        }
        // Window of 2: the oldest write (sector 10) aged out to the platter.
        assert_eq!(&disk.image()[10 * SECTOR_SIZE..10 * SECTOR_SIZE + 1], &[1][..]);
        assert_eq!(&disk.image()[11 * SECTOR_SIZE..11 * SECTOR_SIZE + 1], &[0][..]);
    }

    #[test]
    fn reorder_window_crash_loses_held_writes_but_not_synced_ones() {
        let mut disk = small_disk();
        disk.arm_crash(CrashPlan::reorder_at(3, 8));
        let synced = vec![9; SECTOR_SIZE];
        disk.write(5, &synced, true).unwrap(); // write 0: durable (FUA)
        disk.write(10, &vec![1; SECTOR_SIZE], false).unwrap(); // write 1: held
        disk.write(11, &vec![2; SECTOR_SIZE], false).unwrap(); // write 2: held
        assert_eq!(
            disk.write(12, &vec![3; SECTOR_SIZE], false),
            Err(DiskError::Crashed) // write 3: trigger
        );
        let image = disk.into_image();
        assert_eq!(&image[5 * SECTOR_SIZE..6 * SECTOR_SIZE], &synced[..]);
        for sector in [10usize, 11, 12] {
            assert_eq!(
                &image[sector * SECTOR_SIZE..sector * SECTOR_SIZE + 1],
                &[0][..],
                "held/triggering write to sector {sector} must be lost"
            );
        }
    }

    #[test]
    fn stats_track_bytes_and_sync() {
        let mut disk = small_disk();
        disk.write(0, &vec![0; SECTOR_SIZE * 2], true).unwrap();
        disk.write(50, &vec![0; SECTOR_SIZE], false).unwrap();
        let mut buf = vec![0; SECTOR_SIZE];
        disk.read(0, &mut buf).unwrap();
        let stats = disk.stats();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.sync_writes, 1);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.bytes_written, SECTOR_SIZE as u64 * 3);
        assert_eq!(stats.bytes_read, SECTOR_SIZE as u64);
    }
}
