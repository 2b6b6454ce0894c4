//! The striped volume: N spindles behind one [`BlockDevice`].
//!
//! A [`StripedVolume`] owns one [`EngineCore`] per spindle — each an
//! independent [`SimDisk`] with its own mechanical model and request
//! queue, all sharing one virtual [`Clock`] —
//! and fans every logical request out to per-spindle pieces according
//! to a [`StripeLayout`]. A logical request completes only when all of
//! its pieces have landed; a partial failure surfaces the first piece's
//! [`DiskError`], translated back into the volume's logical address
//! space.
//!
//! Each piece mechanic exists once, for every layout:
//!
//! * **One fan-out read.** Every read splits the request, starts every
//!   piece before finishing any — so spindles overlap in virtual time —
//!   then finishes, hedges or reconstructs every piece even when one
//!   fails; [`StripedVolume::start_read_async`] holds it between the two.
//!   The read half of a partial-row parity write does the same.
//! * **One piece writer.** Data pieces and parity chunks go through
//!   the same loop: asynchronous pieces only push out each spindle's
//!   busy horizon, so horizons grow in parallel and the final flush
//!   waits for the *maximum* horizon, not the sum; synchronous pieces
//!   are all started before any is finished.
//! * **One survivor XOR.** Reconstruction starts a read on every other
//!   spindle and XORs the results — the degraded read, the rebuild, and
//!   the reconstruction side of a hedged race alike.
//!
//! One layout predicate decides whether a piece can be reconstructed
//! instead of read: the volume keeps parity and every other spindle is
//! online. It gates every hedge and every steer; under RAID-0 it never
//! holds, and a piece's error is the read's.
//!
//! Crash plans arm across all spindles with a shared write index (see
//! [`SimDisk::share_write_index`]): power fails at the globally N-th
//! write, wherever it lands, and every spindle stops together.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use engine::{EngineConfig, EngineCore, Maintenance, RequestEngine, Step};
use obs::Registry;
use sim_disk::{
    check_request, BlockDevice, Clock, CrashPlan, DiskError, DiskGeometry, DiskResult, SimDisk,
    SECTOR_SIZE,
};
use vfs::FsResult;

use crate::health::{HealthEvent, HealthMonitor, HealthPolicy, HealthState};
use crate::policy::{StripeLayout, StripePolicyKind, SubRequest};
use crate::rebuild::{RebuildPolicy, RebuildRun, SpindleState};

/// Parameters of a striped volume.
#[derive(Debug, Clone)]
pub struct VolumeConfig {
    /// Number of spindles (independent disks). One is allowed: the
    /// volume then behaves exactly like a single engine-fronted disk.
    pub spindles: usize,
    /// Striping policy.
    pub policy: StripePolicyKind,
    /// Stripe-unit size in bytes: the LFS segment size for
    /// [`StripePolicyKind::RrSegment`], a small power of two for
    /// [`StripePolicyKind::Interleave`].
    pub chunk_bytes: usize,
    /// Per-spindle engine configuration (queue depth, hedging, ...).
    pub engine: EngineConfig,
}

impl VolumeConfig {
    /// Segment-granular round-robin over `spindles` disks.
    pub fn rr_segment(spindles: usize, segment_bytes: usize) -> Self {
        Self {
            spindles,
            policy: StripePolicyKind::RrSegment,
            chunk_bytes: segment_bytes,
            engine: EngineConfig::default(),
        }
    }

    /// RAID-0 block interleave over `spindles` disks.
    pub fn interleave(spindles: usize, chunk_bytes: usize) -> Self {
        Self {
            spindles,
            policy: StripePolicyKind::Interleave,
            chunk_bytes,
            engine: EngineConfig::default(),
        }
    }

    /// Per-segment parity over `spindles` disks: one LFS segment of
    /// `segment_bytes` covers exactly one data row (`spindles - 1`
    /// chunks), so full-segment writes compute parity from the write
    /// buffer alone and never read old data.
    ///
    /// # Panics
    ///
    /// Panics unless `spindles >= 2` and `segment_bytes` splits evenly
    /// into `spindles - 1` sector-aligned chunks.
    pub fn parity_segment(spindles: usize, segment_bytes: usize) -> Self {
        assert!(spindles >= 2, "parity needs at least 2 spindles");
        let data = spindles - 1;
        assert!(
            segment_bytes > 0 && segment_bytes.is_multiple_of(data * SECTOR_SIZE),
            "segment of {segment_bytes} bytes must split into {data} sector-aligned chunks"
        );
        Self {
            spindles,
            policy: StripePolicyKind::ParitySegment,
            chunk_bytes: segment_bytes / data,
            engine: EngineConfig::default(),
        }
    }

    /// Replaces the per-spindle engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

obs::instruments! {
    /// The volume's aggregate instruments (each spindle's registry is
    /// mounted under `volume.spindle.<i>.`).
    struct VolumeObs {
        reads, Counter, "volume.reads", "Logical reads.";
        writes, Counter, "volume.writes", "Logical writes.";
        bytes_read, Counter, "volume.bytes_read", "Logical bytes read.";
        bytes_written, Counter, "volume.bytes_written", "Logical bytes written.";
        subrequests, Counter, "volume.subrequests", "Per-spindle pieces the logical requests split into.";
        rmw_writes, Counter, "volume.rmw_writes", "Parity rows a write covered only partly whose parity \
            was read-modify-written (old parity and the written pieces' old data read first).";
        reconstruct_writes, Counter, "volume.reconstruct_writes", "Parity rows a write covered only partly \
            whose parity was reconstruct-written (only the uncovered old data read first): the cheaper way \
            by bytes read, taken while every spindle is online.";
        rmw_read_bytes, Counter, "volume.rmw_read_bytes", "Bytes read to compute partial-row parity, by \
            read-modify-write or reconstruct-write.";
        degraded_reads, Counter, "volume.degraded_reads", "Logical reads that needed at least one XOR reconstruction.";
        reconstructions, Counter, "volume.reconstructions", "Per-piece XOR reconstructions (a degraded read may need several).";
        rebuild_steps, Counter, "volume.rebuild.steps", "Rebuild steps taken.";
        rebuild_rows, Counter, "volume.rebuild.rows", "Stripe rows a rebuild regenerated.";
        rebuild_bytes, Counter, "volume.rebuild.bytes_written", "Bytes a rebuild wrote to the replacement spindle.";
        rebuild_completed, Counter, "volume.rebuild.runs_completed", "Rebuilds that ran to the last row.";
        resync_rows_fixed, Counter, "volume.resync_rows_fixed", "Rows whose parity a [`StripedVolume::resync_parity`] scan rewrote.";
        hedged_reads, Counter, "volume.hedged_reads", "Hedged races run: a deadline-blown direct read raced against \
            XOR reconstruction from the survivors.";
        health_suspects, Counter, "volume.health.suspects", "Spindles the health monitor marked suspect.";
        health_recoveries, Counter, "volume.health.recoveries", "Suspect spindles that cleared the SLO and were forgiven.";
        health_evictions, Counter, "volume.health.evictions", "Spindles the health monitor auto-evicted (fail-slow).";
        health_spares_used, Counter, "volume.health.spares_used", "Hot spares consumed by automatic failover.";
        rebuild_remaining, Gauge, "volume.rebuild.remaining_rows", "Rows the running rebuild still has to regenerate.";
        spindles, Gauge, "volume.spindles", "Spindles in the array.";
        spindles_online, Gauge, "volume.spindles_online", "Spindles currently serving requests.";
        balance, Gauge, "volume.stripe_balance_millis", "Jain fairness of bytes written across online spindles, in thousandths.";
    }
}

/// XORs `src` into `dst` byte by byte (`dst.len()` must equal
/// `src.len()`); the whole parity subsystem reduces to this.
fn xor_into(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

/// A logical read between its start and its finish: each sub-request
/// with its [`Piece`], and the health evictions its start queued.
struct VolumeRead {
    /// First logical sector and length in bytes.
    sector: u64,
    len: usize,
    pieces: Vec<(SubRequest, Piece)>,
    evict: Vec<usize>,
}

/// A read piece between its start and its finish.
enum Piece {
    /// Submitted to its spindle.
    Direct(engine::ReadHandle),
    /// Not read directly: the spindle serves no reads, or the
    /// submission failed with this error.
    Missed(DiskError),
    /// Steered to reconstruction at submission (the submission-side
    /// hedge).
    Steered,
}

/// How a piece's direct read ended.
enum Landed {
    /// The spindle's bytes fill the piece.
    Direct,
    /// A hedged race's reconstruction covered a failed direct read.
    Covered,
    /// The read failed with this error; the piece is not filled.
    Failed(DiskError),
}

/// One per-spindle piece of a logical write.
struct WritePiece<'a> {
    spindle: usize,
    sector: u64,
    data: &'a [u8],
    /// A row's parity chunk rather than a piece of the caller's buffer.
    parity: bool,
}

/// N independent spindles striped into one logical block device.
pub struct StripedVolume {
    spindles: Vec<EngineCore>,
    layout: StripeLayout,
    cfg: VolumeConfig,
    clock: Arc<Clock>,
    /// Logical capacity: with several spindles, each disk contributes
    /// only whole stripe units.
    num_sectors: u64,
    /// Global write index shared by every spindle's crash plan.
    global_writes: Arc<AtomicU64>,
    /// Set once any spindle reports [`DiskError::Crashed`]; all
    /// subsequent volume operations fail fast — one power supply.
    crashed: bool,
    /// Token → asynchronous read started and not yet claimed.
    held_reads: BTreeMap<u64, VolumeRead>,
    next_read_token: u64,
    /// Per-spindle availability (all [`SpindleState::Online`] until
    /// [`StripedVolume::kill_spindle`]).
    states: Vec<SpindleState>,
    /// The in-flight rebuild, if a replaced spindle is being refilled.
    rebuild: Option<RebuildRun>,
    /// Fail-slow watcher over the spindles, when armed (see
    /// [`StripedVolume::set_health_policy`]).
    health: Option<HealthMonitor>,
    /// Blank drives on the shelf for automatic failover.
    hot_spares: usize,
    /// Pacing for a rebuild the health monitor starts on its own.
    spare_rebuild_policy: RebuildPolicy,
    /// The access-trace label for the next logical request (see
    /// [`StripedVolume::annotate`]).
    label: &'static str,
    obs: VolumeObs,
}

impl StripedVolume {
    /// Creates a volume of `cfg.spindles` zero-filled disks, each with
    /// `geometry`, sharing `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.spindles` is zero or `cfg.chunk_bytes` is not a
    /// positive multiple of the sector size.
    pub fn new(geometry: DiskGeometry, clock: Arc<Clock>, cfg: VolumeConfig) -> Self {
        Self::build(geometry, clock, cfg, None)
    }

    /// Revives a volume from per-spindle images (e.g. after a crash).
    ///
    /// # Panics
    ///
    /// Panics if the image count does not match `cfg.spindles` or any
    /// image does not match `geometry`.
    pub fn from_images(
        geometry: DiskGeometry,
        clock: Arc<Clock>,
        cfg: VolumeConfig,
        images: Vec<Vec<u8>>,
    ) -> Self {
        assert_eq!(images.len(), cfg.spindles, "one image per spindle");
        Self::build(geometry, clock, cfg, Some(images))
    }

    fn build(
        geometry: DiskGeometry,
        clock: Arc<Clock>,
        cfg: VolumeConfig,
        images: Option<Vec<Vec<u8>>>,
    ) -> Self {
        assert!(cfg.spindles >= 1, "a volume needs at least one spindle");
        let layout = StripeLayout::new(cfg.chunk_bytes, cfg.policy.is_parity());
        assert!(
            !layout.parity || cfg.spindles >= 2,
            "parity needs at least 2 spindles"
        );
        let chunk_sectors = layout.chunk_sectors;
        // A single spindle is the identity mapping over the whole disk;
        // with several, each contributes only whole stripe units — and
        // under a parity layout one chunk per row is redundancy, not
        // address space.
        let num_sectors = if cfg.spindles == 1 {
            geometry.num_sectors
        } else {
            (geometry.num_sectors / chunk_sectors)
                * chunk_sectors
                * layout.data_per_row(cfg.spindles) as u64
        };
        // Per-spindle engines never coalesce across a stripe boundary
        // (two physically adjacent chunks belong to different stripe
        // units). A 1-spindle volume keeps the engine config untouched
        // so it behaves exactly like a plain EngineDisk.
        let mut engine_cfg = cfg.engine.clone();
        if cfg.spindles > 1 {
            engine_cfg = engine_cfg.with_stripe_boundary_sectors(chunk_sectors);
        }

        let obs = VolumeObs::new(&Registry::new());
        let global_writes = Arc::new(AtomicU64::new(0));
        let mut images = images.map(|v| v.into_iter());
        let spindles: Vec<EngineCore> = (0..cfg.spindles)
            .map(|i| {
                let mut disk = match images.as_mut().and_then(|it| it.next()) {
                    Some(image) => {
                        SimDisk::from_image(geometry.clone(), Arc::clone(&clock), image)
                    }
                    None => SimDisk::new(geometry.clone(), Arc::clone(&clock)),
                };
                disk.share_write_index(Arc::clone(&global_writes));
                obs.registry.mount(&format!("volume.spindle.{i}."), disk.obs());
                EngineCore::new(disk, engine_cfg.clone())
            })
            .collect();
        obs.spindles.set(cfg.spindles as u64);
        obs.spindles_online.set(cfg.spindles as u64);
        obs.balance.set(1000);
        let states = vec![SpindleState::Online; cfg.spindles];
        Self {
            spindles,
            layout,
            cfg,
            clock,
            num_sectors,
            global_writes,
            crashed: false,
            held_reads: BTreeMap::new(),
            next_read_token: 1,
            states,
            rebuild: None,
            health: None,
            hot_spares: 0,
            spare_rebuild_policy: RebuildPolicy::default(),
            label: "",
            obs,
        }
    }

    /// Wraps the volume for sharing between a [`VolumeDisk`] (owned by
    /// the file system) and a driving event loop.
    pub fn into_shared(self) -> Rc<RefCell<StripedVolume>> {
        Rc::new(RefCell::new(self))
    }

    /// The volume configuration.
    pub fn config(&self) -> &VolumeConfig {
        &self.cfg
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Number of spindles.
    pub fn spindle_count(&self) -> usize {
        self.spindles.len()
    }

    /// Logical capacity in sectors.
    pub fn num_sectors(&self) -> u64 {
        self.num_sectors
    }

    /// The volume's registry — once attached, a window onto the whole
    /// stack it reports into.
    pub fn obs(&self) -> &Registry {
        &self.obs.registry
    }

    /// Spindle `i`'s engine (e.g. to inspect per-spindle stats).
    pub fn spindle(&self, i: usize) -> &EngineCore {
        &self.spindles[i]
    }

    /// Spindle `i`'s engine, mutably (e.g. to inject media faults into
    /// one disk for degraded-read tests).
    pub fn spindle_mut(&mut self, i: usize) -> &mut EngineCore {
        &mut self.spindles[i]
    }

    /// Writes persisted so far across all spindles, in global persist
    /// order — the index space crash plans trigger on.
    pub fn global_writes(&self) -> u64 {
        self.global_writes.load(Ordering::Relaxed)
    }

    /// Arms the same crash plan on every spindle. All spindles share
    /// one write index, so the plan fires on whichever spindle services
    /// the globally N-th write; the volume then fails every subsequent
    /// request, like drives behind one failed power supply.
    pub fn arm_crash_all(&mut self, plan: CrashPlan) {
        for core in &mut self.spindles {
            core.disk_mut().arm_crash(plan);
        }
    }

    /// True once any spindle's crash plan has fired (or the volume
    /// observed a crashed spindle).
    pub fn has_crashed(&self) -> bool {
        self.crashed || self.spindles.iter().any(|c| c.disk().has_crashed())
    }

    /// Consumes the volume and returns each spindle's surviving image.
    /// Still-queued submissions are lost, exactly as after a power
    /// failure.
    pub fn into_images(self) -> Vec<Vec<u8>> {
        self.spindles
            .into_iter()
            .map(|core| core.into_disk().into_image())
            .collect()
    }

    /// Latches a crash: the spindles share one power supply, so once
    /// any reports [`DiskError::Crashed`] every later volume operation
    /// fails fast. Returns `e` unchanged.
    fn latch(&mut self, e: DiskError) -> DiskError {
        if e == DiskError::Crashed {
            self.crashed = true;
        }
        e
    }

    /// Translates a per-spindle error into the volume's address space
    /// and latches the crashed state.
    fn translate(&mut self, spindle: usize, e: DiskError) -> DiskError {
        match self.latch(e) {
            DiskError::Unreadable { sector } => DiskError::Unreadable {
                sector: self.layout.to_logical(self.spindles.len(), spindle, sector),
            },
            other => other,
        }
    }

    /// Recomputes the stripe-balance gauge: Jain's fairness index over
    /// per-spindle bytes written, scaled by 1000 (1000 = perfectly
    /// balanced, 1000/n = one spindle takes everything). Offline and
    /// rebuilding spindles are excluded — a dead drive takes no writes
    /// by design, and a mid-rebuild replacement is catching up, so
    /// counting either would report phantom imbalance during degraded
    /// operation.
    fn update_balance(&mut self) {
        let written: Vec<f64> = self
            .spindles
            .iter()
            .zip(&self.states)
            .filter(|(_, state)| **state == SpindleState::Online)
            .map(|(c, _)| c.disk().stats().bytes_written as f64)
            .collect();
        let sum: f64 = written.iter().sum();
        let sum_sq: f64 = written.iter().map(|b| b * b).sum();
        let jain = if sum_sq == 0.0 {
            1000
        } else {
            ((sum * sum) / (written.len() as f64 * sum_sq) * 1000.0) as u64
        };
        self.obs.balance.set(jain);
    }

    fn split(&self, sector: u64, count: u64) -> Vec<SubRequest> {
        self.layout.split(self.spindles.len(), sector, count)
    }

    fn online_count(&self) -> u64 {
        self.states
            .iter()
            .filter(|s| **s == SpindleState::Online)
            .count() as u64
    }

    /// Availability of spindle `i`.
    pub fn spindle_state(&self, i: usize) -> SpindleState {
        self.states[i]
    }

    /// The in-flight rebuild, if a replaced spindle is being refilled.
    pub fn rebuild(&self) -> Option<&RebuildRun> {
        self.rebuild.as_ref()
    }

    /// Arms fail-slow health monitoring: every parity read feeds each
    /// touched spindle's predicted service latency (and media errors)
    /// into a [`HealthMonitor`], and a spindle that breaches `policy`
    /// past its hysteresis is auto-evicted — killed and, when a hot
    /// spare is stocked ([`StripedVolume::set_hot_spares`]), replaced
    /// and rebuilt online with zero operator actions.
    pub fn set_health_policy(&mut self, policy: HealthPolicy) {
        self.health = Some(HealthMonitor::new(self.spindles.len(), policy));
    }

    /// Stocks `n` blank hot spares for the health monitor's automatic
    /// failover; each eviction consumes one.
    pub fn set_hot_spares(&mut self, n: usize) {
        self.hot_spares = n;
    }

    /// Hot spares still on the shelf.
    pub fn hot_spares(&self) -> usize {
        self.hot_spares
    }

    /// Replaces the pacing policy for rebuilds the health monitor
    /// starts when it fails over to a hot spare.
    pub fn set_spare_rebuild_policy(&mut self, policy: RebuildPolicy) {
        self.spare_rebuild_policy = policy;
    }

    /// The health monitor's verdict on spindle `i` (`None` when
    /// monitoring is not armed).
    pub fn health_state(&self, i: usize) -> Option<HealthState> {
        self.health.as_ref().map(|h| h.state(i))
    }

    /// The health monitor's smoothed service-time inflation for
    /// spindle `i`, in per-mille of the mechanical model's cost
    /// (1000 = on-model; `None` when monitoring is not armed).
    pub fn health_inflation_millis(&self, i: usize) -> Option<u64> {
        self.health.as_ref().map(|h| h.ewma_inflation_millis(i))
    }

    /// Publishes spindle `i`'s health verdict as a gauge
    /// (`volume.health.state.<i>`: 0 healthy, 1 suspect, 2 evicted).
    /// The gauge first appears when the spindle's verdict first changes.
    fn health_state_gauge(&self, i: usize, state: HealthState) {
        let value = match state {
            HealthState::Healthy => 0,
            HealthState::Suspect => 1,
            HealthState::Evicted => 2,
        };
        self.obs
            .registry
            .gauge(&format!("volume.health.state.{i}"))
            .set(value);
    }

    /// Applies a health transition, publishing counters, gauges, and
    /// registry events. An eviction is *queued* on `evict` instead of
    /// applied, so a fan-out can land its in-flight pieces before the
    /// volume kills the spindle under them.
    fn apply_health_event(&mut self, event: Option<HealthEvent>, evict: &mut Vec<usize>) {
        match event {
            Some(HealthEvent::Suspected(i)) => {
                self.obs.health_suspects.inc();
                self.health_state_gauge(i, HealthState::Suspect);
                self.obs.registry.event(
                    self.clock.now_ns(),
                    "health",
                    format!("spindle {i} suspect (fail-slow)"),
                );
            }
            Some(HealthEvent::Recovered(i)) => {
                self.obs.health_recoveries.inc();
                self.health_state_gauge(i, HealthState::Healthy);
                self.obs.registry.event(
                    self.clock.now_ns(),
                    "health",
                    format!("spindle {i} recovered"),
                );
            }
            Some(HealthEvent::Evicted(i)) if !evict.contains(&i) => evict.push(i),
            // No verdict, or an eviction already queued.
            None | Some(HealthEvent::Evicted(_)) => {}
        }
    }

    /// Feeds one piece's predicted service-time inflation (observed
    /// over the mechanical model's cost for the same piece — a pure
    /// media signal, independent of queue depth and request shape) into
    /// the health monitor, queueing the spindle on `evict` when the
    /// verdict is eviction. Reads and writes carry the same signal, so
    /// both paths feed it: a read piece once per block it moves, a write
    /// piece once ([`HealthMonitor::observe_read`]). Only a parity
    /// volume is watched: RAID-0 has nowhere to evict to.
    fn feed_health(
        &mut self,
        spindle: usize,
        sector: u64,
        bytes: u64,
        read: bool,
        evict: &mut Vec<usize>,
    ) {
        if !self.layout.parity || self.states[spindle] != SpindleState::Online {
            return;
        }
        let Some(monitor) = self.health.as_mut() else {
            return;
        };
        let disk = self.spindles[spindle].disk();
        let start = disk.busy_until_ns().max(self.clock.now_ns());
        let svc = disk.estimate_service_ns(start, sector, bytes);
        let base = disk.estimate_base_service_ns(sector, bytes);
        let events = if read {
            monitor.observe_read(spindle, svc, base, bytes)
        } else {
            monitor.observe(spindle, svc, base).into_iter().collect()
        };
        for event in events {
            self.apply_health_event(Some(event), evict);
        }
    }

    /// An error observation is inflation-neutral: it feeds the error
    /// window at the spindle's current EWMA so a failing-but-fast
    /// spindle is judged on its errors alone.
    fn observe_health_error(&mut self, spindle: usize, evict: &mut Vec<usize>) {
        if !self.layout.parity {
            return;
        }
        let Some(monitor) = self.health.as_mut() else {
            return;
        };
        let event = monitor.observe_error(spindle);
        self.apply_health_event(event, evict);
    }

    /// Applies a health eviction: the spindle is killed (reads
    /// reconstruct, writes keep parity current) and, if a hot spare is
    /// stocked, the spare is swapped in and the online rebuild starts.
    fn auto_evict(&mut self, i: usize) {
        if !self.layout.parity || self.states[i] != SpindleState::Online {
            return;
        }
        self.obs.health_evictions.inc();
        self.health_state_gauge(i, HealthState::Evicted);
        self.obs.registry.event(
            self.clock.now_ns(),
            "health",
            format!("spindle {i} evicted (fail-slow)"),
        );
        self.kill_spindle(i);
        if self.hot_spares > 0 {
            self.hot_spares -= 1;
            self.obs.health_spares_used.inc();
            self.replace_spindle(i, self.spare_rebuild_policy)
                .expect("hot-spare failover: spindle was just killed on a parity volume");
        }
    }

    /// Kills spindle `i`: the media dies ([`SimDisk::kill_media`]), its
    /// queue is discarded (queued I/O dies with the drive), and the
    /// volume routes around it — on a parity volume reads reconstruct
    /// and writes keep parity current, so no data is lost; on a RAID-0
    /// volume requests touching the spindle simply fail.
    pub fn kill_spindle(&mut self, i: usize) {
        self.states[i] = SpindleState::Dead;
        self.spindles[i].disk_mut().kill_media();
        self.spindles[i].discard_queue();
        // Held pieces on it lost their queue: their claim reconstructs.
        for read in self.held_reads.values_mut() {
            for (sub, piece) in &mut read.pieces {
                if sub.spindle == i && matches!(piece, Piece::Direct(_)) {
                    *piece = Piece::Missed(DiskError::Unreadable { sector: sub.sector });
                }
            }
        }
        if self.rebuild.as_ref().is_some_and(|r| r.spindle() == i) {
            // The replacement died mid-rebuild; wait for the next one.
            self.rebuild = None;
        }
        self.obs.spindles_online.set(self.online_count());
        self.obs.registry.event(
            self.clock.now_ns(),
            "volume",
            format!("spindle {i} dead"),
        );
        self.update_balance();
    }

    /// Swaps a blank replacement into bay `i` and starts an online
    /// rebuild governed by `policy`. The replacement is written through
    /// immediately (so rebuilt rows stay fresh under foreground writes)
    /// but serves no reads until [`StripedVolume::rebuild_step`] walks
    /// every chunk row; the host event loop paces the steps via
    /// [`StripedVolume::rebuild_wants_step`].
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::Unsupported`] — without touching any media
    /// — when `i` is not a bay of this volume, the volume keeps no
    /// parity (RAID-0 has nothing to rebuild from), or spindle `i` is
    /// not [`SpindleState::Dead`] (replacing a live or already
    /// rebuilding drive would discard data a rebuild cannot recover).
    pub fn replace_spindle(&mut self, i: usize, policy: RebuildPolicy) -> DiskResult<()> {
        if i >= self.spindles.len() {
            return Err(DiskError::Unsupported("replace_spindle: no such bay"));
        }
        if !self.layout.parity {
            return Err(DiskError::Unsupported(
                "replace_spindle: only parity volumes can rebuild a replacement",
            ));
        }
        if self.states[i] != SpindleState::Dead {
            return Err(DiskError::Unsupported(
                "replace_spindle: spindle is not dead",
            ));
        }
        self.spindles[i].disk_mut().replace_media();
        self.states[i] = SpindleState::Rebuilding;
        let chunk = self.layout.chunk_sectors;
        let rows = self.spindles[i].disk().num_sectors() / chunk;
        self.rebuild = Some(RebuildRun::new(i, rows, policy));
        self.obs.rebuild_remaining.set(rows);
        self.obs.registry.event(
            self.clock.now_ns(),
            "volume",
            format!("spindle {i} replaced, rebuilding {rows} rows"),
        );
        self.update_balance();
        Ok(())
    }

    /// Whether the rebuild policy allows a step at the current queue
    /// depth (the idle gate; see [`RebuildPolicy`]).
    pub fn rebuild_wants_step(&self) -> bool {
        self.rebuild
            .as_ref()
            .is_some_and(|r| r.wants_step(self.queue_depth()))
    }

    /// Reconstructs and writes up to [`RebuildPolicy::max_step_rows`]
    /// chunk rows to the replacement, as maintenance-class I/O through
    /// the same engine queues foreground requests use. Every physical
    /// row — data or parity — is the XOR of the same row on the
    /// surviving spindles, so the rebuild needs no role bookkeeping.
    /// [`Step::Idle`] when no rebuild is in progress, [`Step::Completed`]
    /// when the final rows landed and the spindle is back online.
    pub fn rebuild_step(&mut self) -> DiskResult<Step> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        let Some(run) = self.rebuild.as_mut() else {
            return Ok(Step::Idle);
        };
        let target = run.spindle();
        let (first, rows) = run.claim_step();
        if rows == 0 {
            return Ok(Step::Idle);
        }
        let chunk = self.layout.chunk_sectors;
        self.set_maintenance(true);
        let mut row_buf = vec![0u8; chunk as usize * SECTOR_SIZE];
        for row in first..first + rows {
            let sector = row * chunk;
            let step = self
                .reconstruct_range(target, sector, &mut row_buf)
                .and_then(|()| self.spindles[target].do_sync_write(sector, &row_buf));
            if let Err(e) = step {
                self.set_maintenance(false);
                if let Some(run) = self.rebuild.as_mut() {
                    run.rewind_to(row);
                }
                return Err(self.latch(e));
            }
            self.obs.rebuild_rows.inc();
            self.obs.rebuild_bytes.add(row_buf.len() as u64);
        }
        self.set_maintenance(false);
        self.obs.rebuild_steps.inc();
        let remaining = self.rebuild.as_ref().expect("run in progress").remaining_rows();
        self.obs.rebuild_remaining.set(remaining);
        if remaining == 0 {
            self.states[target] = SpindleState::Online;
            self.rebuild = None;
            // The rebuilt drive is new hardware: judge it on its own
            // record, not its predecessor's.
            if let Some(monitor) = self.health.as_mut() {
                monitor.reset(target);
                self.health_state_gauge(target, HealthState::Healthy);
            }
            self.obs.rebuild_completed.inc();
            self.obs.spindles_online.set(self.online_count());
            self.obs.registry.event(
                self.clock.now_ns(),
                "volume",
                format!("spindle {target} rebuilt, back online"),
            );
            self.update_balance();
            return Ok(Step::Completed);
        }
        Ok(Step::Progress)
    }

    /// Recomputes parity from the data chunks on every row, closing the
    /// RAID-5 write hole after an unclean shutdown: a crash between a
    /// row's data write and its parity update leaves the row's XOR
    /// stale, and a later reconstruction through that row would corrupt
    /// *committed* bytes at the same within-row offsets on whichever
    /// spindle is being reconstructed. Data chunks are authoritative;
    /// parity is rewritten wherever the row XOR is nonzero. Run this
    /// before trusting the volume to tolerate a spindle loss again —
    /// exactly the resync a conventional array performs when assembled
    /// dirty. Returns the number of rows fixed.
    ///
    /// Only sound when every spindle's *media is current*. If any
    /// spindle stopped persisting before the shutdown (a dead drive
    /// re-presenting stale media), its latest logical contents exist
    /// only in the parity encoding, and "resyncing" parity from the
    /// stale media destroys exactly the bytes a rebuild must
    /// reproduce. Kill such a spindle first and rebuild it instead;
    /// never resync a dirty *degraded* assembly.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::Unsupported`] — without touching any media
    /// — on a non-parity volume, or on a degraded assembly (any spindle
    /// dead or rebuilding): a write hole plus a missing spindle is a
    /// genuine double fault with nothing authoritative to resync from,
    /// and overwriting parity there destroys the only copy of the
    /// missing spindle's bytes.
    pub fn resync_parity(&mut self) -> DiskResult<u64> {
        if !self.layout.parity {
            return Err(DiskError::Unsupported("resync_parity: not a parity volume"));
        }
        if self.states.iter().any(|s| *s != SpindleState::Online) {
            return Err(DiskError::Unsupported(
                "resync_parity: degraded assembly — kill and rebuild the stale spindle \
                 instead of resyncing parity over it",
            ));
        }
        let n = self.spindles.len();
        let chunk = self.layout.chunk_sectors;
        let rows = self.spindles[0].disk().num_sectors() / chunk;
        let bytes = chunk as usize * SECTOR_SIZE;
        let mut xor = vec![0u8; bytes];
        let mut tmp = vec![0u8; bytes];
        let mut fixed = 0u64;
        self.set_maintenance(true);
        for row in 0..rows {
            let sector = row * chunk;
            let p = self.layout.parity_spindle(row, n).expect("parity volume");
            xor.fill(0);
            let scan = (|| -> DiskResult<()> {
                for s in (0..n).filter(|&s| s != p) {
                    self.spindles[s].do_read(sector, &mut tmp)?;
                    xor_into(&mut xor, &tmp);
                }
                self.spindles[p].do_read(sector, &mut tmp)?;
                if xor != tmp {
                    self.spindles[p].do_sync_write(sector, &xor)?;
                    fixed += 1;
                }
                Ok(())
            })();
            if let Err(e) = scan {
                self.set_maintenance(false);
                return Err(self.latch(e));
            }
        }
        self.set_maintenance(false);
        self.obs.resync_rows_fixed.add(fixed);
        if fixed > 0 {
            self.obs.registry.event(
                self.clock.now_ns(),
                "volume",
                format!("parity resync rewrote {fixed} of {rows} rows"),
            );
        }
        Ok(fixed)
    }

    /// XORs physical range `[sector, sector + out.len())` of every
    /// spindle but `target` into `out`: `target`'s content there, for
    /// any mix of data and parity rows, because every row XORs to zero
    /// across the spindles. Every survivor's read is started before any
    /// is finished; `finish` completes one — waiting on it, or draining
    /// it off the clock for a hedged race. Fails before any I/O when a
    /// second spindle is unavailable (double fault). Errors come back
    /// untranslated.
    fn xor_survivors(
        &mut self,
        target: usize,
        sector: u64,
        out: &mut [u8],
        mut finish: impl FnMut(&mut EngineCore, engine::ReadHandle, &mut [u8]) -> DiskResult<()>,
    ) -> DiskResult<()> {
        if !self.survivors_online(target) {
            return Err(DiskError::Unreadable { sector });
        }
        let n = self.spindles.len();
        let mut started = Vec::with_capacity(n - 1);
        for s in (0..n).filter(|&s| s != target) {
            started.push((s, self.spindles[s].start_read(sector, out.len())?));
        }
        out.fill(0);
        let mut tmp = vec![0u8; out.len()];
        for (s, handle) in started {
            finish(&mut self.spindles[s], handle, &mut tmp)?;
            xor_into(out, &tmp);
        }
        Ok(())
    }

    /// XOR-reconstructs `out` for `target` from the survivors, waiting on
    /// each (see [`StripedVolume::xor_survivors`]).
    fn reconstruct_range(&mut self, target: usize, sector: u64, out: &mut [u8]) -> DiskResult<()> {
        self.xor_survivors(target, sector, out, |core, handle, tmp| {
            core.finish_read(handle, tmp)
        })?;
        self.obs.reconstructions.inc();
        Ok(())
    }

    /// [`StripedVolume::reconstruct_range`] with error mapping: crashes
    /// latch, anything else escapes as [`DiskError::Unreadable`] at
    /// `escape` — the *logical* sector the caller was serving, since a
    /// double fault has no single physical culprit worth reporting.
    fn reconstruct_or_escape(
        &mut self,
        target: usize,
        sector: u64,
        out: &mut [u8],
        escape: u64,
    ) -> DiskResult<()> {
        match self.reconstruct_range(target, sector, out) {
            Ok(()) => Ok(()),
            Err(DiskError::Crashed) => Err(self.latch(DiskError::Crashed)),
            Err(_) => Err(DiskError::Unreadable { sector: escape }),
        }
    }

    /// True when `spindle`'s pieces can be XOR-reconstructed instead of
    /// read: the layout keeps parity and every other spindle serves
    /// reads. This one predicate gates every hedge and every steer.
    fn survivors_online(&self, spindle: usize) -> bool {
        self.layout.parity
            && self
                .states
                .iter()
                .enumerate()
                .all(|(s, st)| s == spindle || *st == SpindleState::Online)
    }

    /// True when reads of `spindle` go to the spindle itself: always
    /// under RAID-0 (nothing else holds its bytes), and under parity
    /// only while it is online.
    fn serves_reads(&self, spindle: usize) -> bool {
        !self.layout.parity || self.states[spindle] == SpindleState::Online
    }

    /// Submits a piece's direct read to its spindle. A crash latches and
    /// aborts; any other failure leaves the piece [`Piece::Missed`].
    fn start_piece(&mut self, spindle: usize, sector: u64, len: usize) -> DiskResult<Piece> {
        match self.spindles[spindle].start_read(sector, len) {
            Ok(handle) => Ok(Piece::Direct(handle)),
            Err(DiskError::Crashed) => Err(self.latch(DiskError::Crashed)),
            Err(e) => Ok(Piece::Missed(e)),
        }
    }

    /// Finishes a piece's direct read into `out`. The hedge hook: a
    /// queued read whose predicted latency blows the deadline is raced
    /// against reconstruction ([`StripedVolume::hedged_race`]) when the
    /// piece can be reconstructed at all, unless it landed before the
    /// claim. A crash latches and aborts.
    fn finish_piece(
        &mut self,
        spindle: usize,
        sector: u64,
        handle: engine::ReadHandle,
        out: &mut [u8],
    ) -> DiskResult<Landed> {
        let finished = match handle {
            engine::ReadHandle::Pending { id, .. }
                if self.survivors_online(spindle) && self.spindles[spindle].hedge_overdue(id) =>
            {
                self.hedged_race(spindle, id, sector, out)
            }
            handle => self.spindles[spindle]
                .finish_read(handle, out)
                .map(|()| false),
        };
        match finished {
            Ok(false) => Ok(Landed::Direct),
            Ok(true) => Ok(Landed::Covered),
            Err(DiskError::Crashed) => Err(self.latch(DiskError::Crashed)),
            Err(e) => Ok(Landed::Failed(e)),
        }
    }

    /// The read half of a partial-row parity write (read-modify-write or
    /// reconstruct-write): the *current
    /// logical* content of physical range `[sector, sector + out.len())`
    /// on `spindle` — directly when it serves reads, by reconstruction
    /// when it is dead, rebuilding, or the direct read fails (escaping
    /// at logical `escape` on a double fault).
    ///
    /// It starts and finishes its piece like the fan-out read, so an
    /// overdue read is hedged — without that a fail-slow spindle charges
    /// its full degraded service to every partial-row *write*
    /// (checkpoints, superblocks). Unlike a foreground read it feeds no
    /// health observation, steers nothing and counts no degraded read.
    fn read_physical(
        &mut self,
        spindle: usize,
        sector: u64,
        out: &mut [u8],
        escape: u64,
    ) -> DiskResult<()> {
        if self.serves_reads(spindle) {
            if let Piece::Direct(handle) = self.start_piece(spindle, sector, out.len())? {
                if !matches!(
                    self.finish_piece(spindle, sector, handle, out)?,
                    Landed::Failed(_)
                ) {
                    return Ok(());
                }
            }
        }
        self.reconstruct_or_escape(spindle, sector, out, escape)
    }

    /// Reads `buf.len()` bytes at logical `sector`: the one read's start
    /// and finish halves at once. Under parity a piece its spindle cannot
    /// serve is XOR-reconstructed, an overdue one hedged
    /// ([`EngineConfig::hedge_deadline_ns`]); under RAID-0 its error, in
    /// logical terms, is the read's.
    pub fn read(&mut self, sector: u64, buf: &mut [u8]) -> DiskResult<()> {
        let read = self.start_volume_read(sector, buf.len())?;
        self.finish_volume_read(read, buf)
    }

    /// The start half of every read: splits the range and starts every
    /// piece. A piece on a dead or rebuilding spindle is left missed;
    /// every other one feeds the [`HealthMonitor`], and one a queued
    /// overlapping request would stall past the hedge deadline is
    /// steered to reconstruction. Evictions wait for the finish, so no
    /// started handle dangles on a killed spindle.
    fn start_volume_read(&mut self, sector: u64, len: usize) -> DiskResult<VolumeRead> {
        let label = std::mem::take(&mut self.label);
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        let count = check_request(sector, len, self.num_sectors)?;
        let subs = self.split(sector, count);
        self.obs.reads.inc();
        self.obs.bytes_read.add(len as u64);
        self.obs.subrequests.add(subs.len() as u64);
        let mut evict = Vec::new();
        let mut pieces = Vec::with_capacity(subs.len());
        for sub in subs {
            let (s, bytes) = (sub.spindle, sub.bytes());
            let piece = if !self.serves_reads(s) {
                Piece::Missed(DiskError::Unreadable { sector: sub.sector })
            } else {
                self.feed_health(s, sub.sector, bytes as u64, true, &mut evict);
                // The submission-side hedge: an overlapping queued
                // request (a still-in-flight segment write, say) would
                // stall this read *at submission* — the read-after-write
                // hazard is paid before the request even has an id, so
                // the in-queue hedge hook can never see it. When that
                // stall blows the deadline, skip the direct read.
                if self.survivors_online(s)
                    && self.spindles[s].submit_hazard_overdue(sub.sector, bytes)
                {
                    Piece::Steered
                } else {
                    self.spindles[s].annotate(label);
                    let piece = self.start_piece(s, sub.sector, bytes)?;
                    if let Piece::Missed(_) = piece {
                        self.observe_health_error(s, &mut evict);
                    }
                    piece
                }
            };
            pieces.push((sub, piece));
        }
        Ok(VolumeRead { sector, len, pieces, evict })
    }

    /// The finish half of every read: finishes, hedges or reconstructs
    /// each piece in logical order into `buf`. The first failing piece
    /// decides the error, yet every piece is finished so no queue is left
    /// holding a read; only a crash ends it early. Then it counts a
    /// degraded read and applies the start's evictions.
    fn finish_volume_read(&mut self, read: VolumeRead, buf: &mut [u8]) -> DiskResult<()> {
        let VolumeRead { sector, pieces, mut evict, .. } = read;
        let mut degraded = false;
        let mut first_err = None;
        for (sub, piece) in pieces {
            let s = sub.spindle;
            let logical = sector + (sub.offset / SECTOR_SIZE) as u64;
            let out = &mut buf[sub.offset..sub.offset + sub.bytes()];
            let missed = match piece {
                Piece::Direct(handle) => match self.finish_piece(s, sub.sector, handle, out)? {
                    Landed::Direct => continue,
                    Landed::Covered => {
                        degraded = true;
                        continue;
                    }
                    Landed::Failed(e) => {
                        self.observe_health_error(s, &mut evict);
                        Some(e)
                    }
                },
                Piece::Missed(e) => Some(e),
                Piece::Steered => None,
            };
            let served = match missed {
                Some(e) if !self.layout.parity => Err(self.translate(s, e)),
                _ => {
                    // A steered piece is a hedge the reconstruction won
                    // by forfeit, not a degraded read: the spindle is
                    // healthy enough to serve, just not worth waiting for.
                    let steered = missed.is_none();
                    if steered {
                        self.obs.hedged_reads.inc();
                    } else {
                        degraded = true;
                    }
                    let served = self.reconstruct_or_escape(s, sub.sector, out, logical);
                    if steered && served.is_ok() {
                        self.spindles[s].record_hedge_win();
                    }
                    served
                }
            };
            match served {
                Ok(()) => {}
                Err(DiskError::Crashed) => return Err(DiskError::Crashed),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if degraded {
            self.obs.degraded_reads.inc();
        }
        for i in evict {
            self.auto_evict(i);
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Writes `buf` at logical `sector`: split, add each touched row's
    /// updated parity chunk, then the one piece writer — synchronous
    /// writes start every piece before finishing any, asynchronous ones
    /// go into each spindle's queue, pushing out per-spindle busy
    /// horizons in parallel. Under parity a piece bound for a dead
    /// spindle is not written: the row's updated parity absorbs its
    /// content, so reads reconstruct the new data.
    pub fn write(&mut self, sector: u64, buf: &[u8], sync: bool) -> DiskResult<()> {
        let label = std::mem::take(&mut self.label);
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        let count = check_request(sector, buf.len(), self.num_sectors)?;
        let subs = self.split(sector, count);
        self.obs.writes.inc();
        self.obs.bytes_written.add(buf.len() as u64);
        self.obs.subrequests.add(subs.len() as u64);
        let result = self.row_parity(&subs, sector, buf).and_then(|parity| {
            let data = subs
                .iter()
                .filter(|sub| !self.layout.parity || self.states[sub.spindle] != SpindleState::Dead)
                .map(|sub| WritePiece {
                    spindle: sub.spindle,
                    sector: sub.sector,
                    data: &buf[sub.offset..sub.offset + sub.bytes()],
                    parity: false,
                });
            let parity = parity.iter().map(|(spindle, sector, data)| WritePiece {
                spindle: *spindle,
                sector: *sector,
                data,
                parity: true,
            });
            let pieces: Vec<WritePiece> = data.chain(parity).collect();
            self.write_pieces(&pieces, sync, label)
        });
        self.update_balance();
        result
    }

    /// Races pending direct read `id` on `spindle` against XOR
    /// reconstruction from the survivors. Both sides run to physical
    /// completion — the loser is *drained* (its spindle still does the
    /// work and later requests queue behind it) — but the caller's
    /// clock advances only to the winner's finish, so the foreground
    /// pays `min(direct, reconstruction)` latency. When both sides
    /// succeed the direct data fills `piece`; if the two disagree (the
    /// spindle's media rotted) the direct bytes are still served —
    /// exactly what the unhedged read returns, left for the file
    /// system's checksums to judge — the caller waits for them, and a
    /// `hedge` event records the divergence. A failed direct read is
    /// covered by the reconstruction (returns `true`: the piece was
    /// served degraded); a failed reconstruction falls back to the
    /// direct result.
    ///
    /// # Errors
    ///
    /// [`DiskError::Unreadable`] at the physical `sector` when both
    /// sides fail (double fault — the caller escapes to the logical
    /// address), [`DiskError::Crashed`] if any spindle crashed.
    fn hedged_race(
        &mut self,
        spindle: usize,
        id: u64,
        sector: u64,
        piece: &mut [u8],
    ) -> DiskResult<bool> {
        self.obs.hedged_reads.inc();
        // Drain both sides without advancing the shared clock; the
        // completion timestamps decide the race. A failed survivor
        // sinks the reconstruction, but the rest are still drained so
        // no queue is left holding a read.
        let mut recon = vec![0u8; piece.len()];
        let mut recon_finish = self.clock.now_ns();
        let mut recon_ok = true;
        let drained = self.xor_survivors(spindle, sector, &mut recon, |core, handle, tmp| {
            match handle {
                engine::ReadHandle::Hit(data) => tmp.copy_from_slice(&data),
                engine::ReadHandle::Pending { id: rid, .. } => match core.drain_read(rid) {
                    Ok(done) => {
                        recon_finish = recon_finish.max(done.finish_ns);
                        tmp.copy_from_slice(done.data.as_deref().expect("read without data"));
                    }
                    Err(DiskError::Crashed) => return Err(DiskError::Crashed),
                    Err(_) => recon_ok = false,
                },
            }
            Ok(())
        });
        let recon = match drained {
            Ok(()) if recon_ok => Some(recon),
            Err(DiskError::Crashed) => return Err(DiskError::Crashed),
            _ => None,
        };
        let direct = match self.spindles[spindle].drain_read(id) {
            Ok(done) => Some(done),
            Err(DiskError::Crashed) => return Err(DiskError::Crashed),
            Err(_) => None,
        };
        match (direct, recon) {
            (Some(done), recon) => {
                let data = done.data.as_deref().expect("read without data");
                let mut finish = done.finish_ns;
                match recon {
                    Some(recon) if recon != data => self.obs.registry.event(
                        self.clock.now_ns(),
                        "hedge",
                        format!(
                            "spindle {spindle} sector={sector}: reconstruction diverged from \
                             the direct read, serving the direct bytes"
                        ),
                    ),
                    Some(_) if recon_finish < done.finish_ns => {
                        self.spindles[spindle].record_hedge_win();
                        self.obs.reconstructions.inc();
                        finish = recon_finish;
                    }
                    // The reconstruction lost, or fell apart: the race
                    // cost nothing extra.
                    _ => {}
                }
                self.clock.advance_to_ns(finish);
                piece.copy_from_slice(data);
                Ok(false)
            }
            (None, Some(recon)) => {
                // The slow spindle also failed the read: the
                // reconstruction is authoritative — exactly the
                // degraded path, already paid for.
                self.clock.advance_to_ns(recon_finish);
                piece.copy_from_slice(&recon);
                self.spindles[spindle].record_hedge_win();
                self.obs.reconstructions.inc();
                Ok(true)
            }
            (None, None) => Err(DiskError::Unreadable { sector }),
        }
    }

    /// The parity chunk each row a write touches needs afterwards, as
    /// `(spindle, physical sector, bytes)`. Pieces are grouped by chunk
    /// row (under a parity policy no sub-request ever spans two rows —
    /// rotation breaks physical contiguity at every row boundary, so the
    /// splitter cannot merge across one). Parity is computed over the
    /// row's written span `[lo, hi)` — the physical range, relative to
    /// the row, from the lowest to the highest written sector:
    ///
    /// - **Full row** (every data chunk covered whole — the normal case
    ///   for LFS segment writes under [`crate::ParitySegment`]): parity
    ///   is the XOR of the buffer pieces. *No old data is read.*
    /// - **Partial row**, the cheaper of two ways by bytes to read (a
    ///   tie keeps read-modify-write):
    ///   - *read-modify-write*, `parity' = parity ⊕ Σ (old ⊕ new)` over
    ///     the written pieces: reads the old parity span and the old
    ///     data of every written piece, with any unavailable old content
    ///     reconstructed from the survivors
    ///     ([`StripedVolume::read_physical`]);
    ///   - *reconstruct-write*, `parity' = Σ new ⊕ Σ old-uncovered`:
    ///     reads only the span's bytes the write leaves uncovered on
    ///     each data spindle. It needs every spindle online — a dead or
    ///     rebuilding one's bytes would have to be reconstructed through
    ///     the very parity being replaced — so otherwise the row falls
    ///     back to read-modify-write.
    ///
    /// Every row's parity is computed before any write is issued, so
    /// the reads see pre-request state. A dead *parity* spindle leaves
    /// its rows unprotected (data writes through normally) until
    /// rebuild re-derives them. Empty under RAID-0.
    fn row_parity(
        &mut self,
        subs: &[SubRequest],
        base_sector: u64,
        buf: &[u8],
    ) -> DiskResult<Vec<(usize, u64, Vec<u8>)>> {
        if !self.layout.parity {
            return Ok(Vec::new());
        }
        let n = self.spindles.len();
        let chunk = self.layout.chunk_sectors;
        let dpr = self.layout.data_per_row(n);
        let mut rows: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, sub) in subs.iter().enumerate() {
            let row = sub.sector / chunk;
            debug_assert_eq!(
                (sub.sector + sub.sectors - 1) / chunk,
                row,
                "parity sub-request crosses a chunk-row boundary"
            );
            rows.entry(row).or_default().push(i);
        }
        let all_online = self.states.iter().all(|st| *st == SpindleState::Online);
        let mut parity_pieces: Vec<(usize, u64, Vec<u8>)> = Vec::new();
        for (&row, idxs) in &rows {
            let p = self
                .layout
                .parity_spindle(row, n)
                .expect("parity layout always parks parity");
            if self.states[p] == SpindleState::Dead {
                continue;
            }
            let row_base = row * chunk;
            let lo = idxs.iter().map(|&i| subs[i].sector - row_base).min().unwrap();
            let hi = idxs
                .iter()
                .map(|&i| subs[i].sector + subs[i].sectors - row_base)
                .max()
                .unwrap();
            let full_cover = idxs.len() == dpr
                && idxs
                    .iter()
                    .all(|&i| subs[i].sector == row_base && subs[i].sectors == chunk);
            let mut parity = vec![0u8; (hi - lo) as usize * SECTOR_SIZE];
            // Bytes each way would read: the parity span plus every
            // written piece, or the span less each data spindle's piece.
            let written: u64 = idxs.iter().map(|&i| subs[i].sectors).sum();
            let rmw_sectors = (hi - lo) + written;
            let rcw_sectors = dpr as u64 * (hi - lo) - written;
            if full_cover {
                for &i in idxs {
                    let sub = &subs[i];
                    xor_into(&mut parity, &buf[sub.offset..sub.offset + sub.bytes()]);
                }
            } else if all_online && rcw_sectors < rmw_sectors {
                self.obs.reconstruct_writes.inc();
                let span = row_base + lo..row_base + hi;
                for d in (0..n).filter(|&d| d != p) {
                    // The span less this spindle's piece, if it has one:
                    // `[span.start, a)` and `[b, span.end)`.
                    let piece = idxs.iter().map(|&i| &subs[i]).find(|sub| sub.spindle == d);
                    let (a, b) = piece.map_or((span.end, span.end), |sub| {
                        (sub.sector, sub.sector + sub.sectors)
                    });
                    for (from, to) in [(span.start, a), (b, span.end)] {
                        if from < to {
                            let at = (from - span.start) as usize * SECTOR_SIZE;
                            let out = &mut parity[at..at + (to - from) as usize * SECTOR_SIZE];
                            let mut old = vec![0u8; out.len()];
                            let escape = self.layout.to_logical(n, d, from);
                            self.read_physical(d, from, &mut old, escape)?;
                            self.obs.rmw_read_bytes.add(old.len() as u64);
                            xor_into(out, &old);
                        }
                    }
                    if let Some(sub) = piece {
                        let at = (a - span.start) as usize * SECTOR_SIZE;
                        xor_into(
                            &mut parity[at..at + sub.bytes()],
                            &buf[sub.offset..sub.offset + sub.bytes()],
                        );
                    }
                }
            } else {
                self.obs.rmw_writes.inc();
                let escape = base_sector + (subs[idxs[0]].offset / SECTOR_SIZE) as u64;
                self.read_physical(p, row_base + lo, &mut parity, escape)?;
                self.obs.rmw_read_bytes.add(parity.len() as u64);
                let mut old = vec![0u8; (hi - lo) as usize * SECTOR_SIZE];
                for &i in idxs {
                    let sub = &subs[i];
                    let a = (sub.sector - row_base - lo) as usize * SECTOR_SIZE;
                    let escape = base_sector + (sub.offset / SECTOR_SIZE) as u64;
                    let old_piece = &mut old[a..a + sub.bytes()];
                    self.read_physical(sub.spindle, sub.sector, old_piece, escape)?;
                    self.obs.rmw_read_bytes.add(sub.bytes() as u64);
                    xor_into(&mut parity[a..a + sub.bytes()], old_piece);
                    xor_into(
                        &mut parity[a..a + sub.bytes()],
                        &buf[sub.offset..sub.offset + sub.bytes()],
                    );
                }
            }
            parity_pieces.push((p, row_base + lo, parity));
        }
        Ok(parity_pieces)
    }

    /// The one piece writer. Async pieces go straight into their
    /// spindles' queues, pushing out per-spindle busy horizons in
    /// parallel; sync pieces are all started before any is finished, so
    /// the spindles seek in parallel. Writes carry the same
    /// media-inflation signal reads do and touch every spindle on every
    /// flush, so each piece feeds the health monitor; evictions are
    /// applied only once every piece has landed, since killing a
    /// spindle discards its queue. A failed piece aborts the write.
    /// Every piece carries the write's access-trace `label`.
    fn write_pieces(
        &mut self,
        pieces: &[WritePiece],
        sync: bool,
        label: &'static str,
    ) -> DiskResult<()> {
        let mut evict = Vec::new();
        let mut started = Vec::with_capacity(pieces.len());
        for p in pieces {
            self.feed_health(p.spindle, p.sector, p.data.len() as u64, false, &mut evict);
            let core = &mut self.spindles[p.spindle];
            core.annotate(label);
            let submitted = if sync {
                core.start_sync_write(p.sector, p.data)
                    .map(|id| started.push(id))
            } else {
                core.submit_async_write(p.sector, p.data)
            };
            if let Err(e) = submitted {
                return Err(self.piece_error(p, e));
            }
        }
        for (p, id) in pieces.iter().zip(started) {
            if let Err(e) = self.spindles[p.spindle].finish_write(id) {
                return Err(self.piece_error(p, e));
            }
        }
        for i in evict {
            self.auto_evict(i);
        }
        Ok(())
    }

    /// A write piece's error in the volume's terms: a data piece's
    /// sector translates to its logical address; a parity chunk's has
    /// no logical equivalent and keeps its physical sector.
    fn piece_error(&mut self, piece: &WritePiece, e: DiskError) -> DiskError {
        if piece.parity {
            self.latch(e)
        } else {
            self.translate(piece.spindle, e)
        }
    }

    /// Drains every spindle's queue and waits for all of them to go
    /// idle — the durability barrier. The clock lands on the *maximum*
    /// busy horizon: spindles drained their overlapped work in
    /// parallel.
    pub fn flush(&mut self) -> DiskResult<()> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        for i in 0..self.spindles.len() {
            if let Err(e) = self.spindles[i].flush_all() {
                return Err(self.translate(i, e));
            }
        }
        self.update_balance();
        Ok(())
    }

    /// Whether every accepted write is durable now on every spindle
    /// (each pumped to the current virtual time first). Never blocks.
    pub fn writes_durable(&mut self) -> bool {
        !self.crashed && self.spindles.iter_mut().all(EngineCore::writes_durable)
    }

    /// Marks subsequent submissions on every spindle as maintenance
    /// I/O (see [`EngineCore::set_maintenance`]).
    pub fn set_maintenance(&mut self, on: bool) {
        for core in &mut self.spindles {
            core.set_maintenance(on);
        }
    }

    /// Returns true while submissions are marked maintenance I/O.
    pub fn maintenance(&self) -> bool {
        self.spindles.first().is_some_and(EngineCore::maintenance)
    }

    /// Total requests pending across every spindle's queue.
    pub fn queue_depth(&self) -> u64 {
        self.spindles.iter().map(|c| c.queue_len()).sum()
    }

    /// The start half of [`StripedVolume::read`], held under the returned
    /// token. `None` only for a crashed volume or an invalid range.
    pub fn start_read_async(&mut self, sector: u64, len: usize) -> Option<u64> {
        let read = self.start_volume_read(sector, len).ok()?;
        let token = self.next_read_token;
        self.next_read_token += 1;
        self.held_reads.insert(token, read);
        Some(token)
    }

    /// Claims a read started by [`StripedVolume::start_read_async`]: the
    /// finish half of [`StripedVolume::read`]. A piece on a spindle
    /// killed since the start is reconstructed.
    pub fn finish_read_async(&mut self, token: u64) -> DiskResult<Vec<u8>> {
        let read = self
            .held_reads
            .remove(&token)
            .expect("finish_read_async: unknown token");
        let mut buf = vec![0u8; read.len];
        self.finish_volume_read(read, &mut buf)?;
        Ok(buf)
    }

    /// Lazily progresses every spindle to the current virtual time.
    pub fn pump(&mut self) -> DiskResult<()> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        for i in 0..self.spindles.len() {
            if let Err(e) = self.spindles[i].pump() {
                return Err(self.translate(i, e));
            }
        }
        Ok(())
    }

    /// Labels the next logical request, for access tracing: each of its
    /// own pieces carries the label to its spindle, and no other
    /// spindle sees it.
    pub fn annotate(&mut self, label: &'static str) {
        self.label = label;
    }

}

/// A cheap [`BlockDevice`] handle onto a shared [`StripedVolume`].
///
/// The file system owns one handle; a driving event loop may hold
/// another (via the `Rc`) and use the [`RequestEngine`] impl to pump
/// the spindles and attribute submissions to clients.
#[derive(Clone)]
pub struct VolumeDisk(Rc<RefCell<StripedVolume>>);

impl VolumeDisk {
    /// Creates a handle onto `volume`.
    pub fn new(volume: Rc<RefCell<StripedVolume>>) -> Self {
        Self(volume)
    }

    /// The shared volume.
    pub fn volume(&self) -> &Rc<RefCell<StripedVolume>> {
        &self.0
    }

    /// Consumes the last handle and returns each spindle's surviving
    /// image.
    ///
    /// # Panics
    ///
    /// Panics if other handles onto the volume are still alive.
    pub fn into_images(self) -> Vec<Vec<u8>> {
        Rc::try_unwrap(self.0)
            .ok()
            .expect("into_images: other volume handles still alive")
            .into_inner()
            .into_images()
    }
}

impl BlockDevice for VolumeDisk {
    fn num_sectors(&self) -> u64 {
        self.0.borrow().num_sectors()
    }

    fn read(&mut self, sector: u64, buf: &mut [u8]) -> DiskResult<()> {
        self.0.borrow_mut().read(sector, buf)
    }

    fn write(&mut self, sector: u64, buf: &[u8], sync: bool) -> DiskResult<()> {
        self.0.borrow_mut().write(sector, buf, sync)
    }

    fn flush(&mut self) -> DiskResult<()> {
        self.0.borrow_mut().flush()
    }

    fn writes_durable(&mut self) -> bool {
        self.0.borrow_mut().writes_durable()
    }

    fn annotate(&mut self, label: &'static str) {
        self.0.borrow_mut().annotate(label);
    }

    fn attach_obs(&mut self, registry: &Registry) {
        // The volume's registry holds its aggregate instruments and,
        // mounted under their prefixes, every spindle's.
        registry.mount("", self.0.borrow().obs());
    }

    fn set_maintenance(&mut self, on: bool) {
        self.0.borrow_mut().set_maintenance(on);
    }

    fn maintenance(&self) -> bool {
        self.0.borrow().maintenance()
    }

    fn start_read_async(&mut self, sector: u64, len: usize) -> Option<u64> {
        self.0.borrow_mut().start_read_async(sector, len)
    }

    fn finish_read_async(&mut self, token: u64) -> DiskResult<Vec<u8>> {
        self.0.borrow_mut().finish_read_async(token)
    }

    fn fanout(&self) -> usize {
        self.0.borrow().spindle_count()
    }

    fn spindle_of(&self, sector: u64) -> usize {
        let volume = self.0.borrow();
        volume
            .split(sector, 1)
            .first()
            .map(|sub| sub.spindle)
            .unwrap_or(0)
    }
}

/// The online rebuild as a host-loop maintenance task (see
/// [`StripedVolume::rebuild_wants_step`] and
/// [`StripedVolume::rebuild_step`]). It needs nothing from the host's
/// context: the handle reaches the volume itself, whose idle gate reads
/// its own queue depth.
impl<Cx: ?Sized> Maintenance<Cx> for VolumeDisk {
    fn wants_step(&self, _cx: &Cx, _queue_depth: u64) -> bool {
        self.0.borrow().rebuild_wants_step()
    }

    fn step(&mut self, _cx: &mut Cx) -> FsResult<Step> {
        Ok(self.0.borrow_mut().rebuild_step()?)
    }

    fn active(&self, _cx: &Cx) -> bool {
        self.0.borrow().rebuild().is_some()
    }
}

impl RequestEngine for VolumeDisk {
    fn clock(&self) -> Arc<Clock> {
        Arc::clone(self.0.borrow().clock())
    }

    fn pump(&self) -> DiskResult<()> {
        self.0.borrow_mut().pump()
    }

    fn set_client(&self, client: Option<usize>) {
        let mut volume = self.0.borrow_mut();
        for core in &mut volume.spindles {
            core.set_client(client);
        }
    }

    fn register_clients(&self, n: usize) {
        let mut volume = self.0.borrow_mut();
        for core in &mut volume.spindles {
            core.register_clients(n);
        }
    }

    fn queue_depth(&self) -> u64 {
        self.0.borrow().queue_depth()
    }

    fn set_qos(&self, spec: Option<engine::QosSpec>) {
        let mut volume = self.0.borrow_mut();
        for core in &mut volume.spindles {
            core.set_qos(spec.clone());
        }
    }
}
