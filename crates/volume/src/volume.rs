//! The striped volume: N spindles behind one [`BlockDevice`].
//!
//! A [`StripedVolume`] owns one [`EngineCore`] per spindle — each an
//! independent [`SimDisk`] with its own mechanical model and request
//! queue, all sharing one virtual [`Clock`] —
//! and fans every logical request out to per-spindle sub-requests
//! according to a [`StripeLayout`]. A logical request completes only
//! when all of its pieces have landed; a partial failure surfaces the
//! first piece's [`DiskError`], translated back into the volume's
//! logical address space.
//!
//! The overlap that makes striping pay comes from two places:
//!
//! * **Asynchronous writes** only push out each spindle's busy horizon,
//!   so horizons grow in parallel and the final flush waits for the
//!   *maximum* horizon, not the sum.
//! * **Synchronous requests** use the engine's split start/finish API:
//!   every piece is submitted before any is waited on, so the spindles
//!   service their pieces in overlapped virtual time.
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
use crate::rebuild::{RebuildPolicy, RebuildProgress, RebuildRun, SpindleState};

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

/// One tracked async read in flight against a single spindle. The
/// physical and logical addresses are kept so the claim can fall back
/// to XOR reconstruction if the spindle is killed (operator command or
/// health eviction) while the read is still queued.
#[derive(Debug, Clone, Copy)]
struct TrackedVolumeRead {
    spindle: usize,
    inner: u64,
    sector: u64,
    logical: u64,
    len: usize,
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
    /// Volume token → in-flight tracked async read.
    tracked_reads: std::collections::BTreeMap<u64, TrackedVolumeRead>,
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
            tracked_reads: std::collections::BTreeMap::new(),
            next_read_token: 1,
            states,
            rebuild: None,
            health: None,
            hot_spares: 0,
            spare_rebuild_policy: RebuildPolicy::default(),
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

    /// Translates a per-spindle error into the volume's address space
    /// and latches the crashed state.
    fn translate(&mut self, spindle: usize, e: DiskError) -> DiskError {
        match e {
            DiskError::Crashed => {
                self.crashed = true;
                DiskError::Crashed
            }
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

    /// Feeds one serviced-request observation (observed vs model-
    /// expected service time) into the health monitor and applies any
    /// suspect/recover transition immediately. Evictions are *returned*
    /// instead of applied, so a read loop can finish its in-flight
    /// pieces before the volume kills the spindle under them.
    fn observe_health(&mut self, spindle: usize, observed_ns: u64, expected_ns: u64) -> bool {
        let Some(monitor) = self.health.as_mut() else {
            return false;
        };
        let event = monitor.observe(spindle, observed_ns, expected_ns);
        self.apply_health_event(spindle, event)
    }

    /// Applies a health transition, publishing counters, gauges, and
    /// registry events. Returns true when the verdict is eviction.
    fn apply_health_event(&mut self, spindle: usize, event: Option<HealthEvent>) -> bool {
        match event {
            None => false,
            Some(HealthEvent::Suspected(i)) => {
                self.obs.health_suspects.inc();
                self.health_state_gauge(i, HealthState::Suspect);
                self.obs.registry.event(
                    self.clock.now_ns(),
                    "health",
                    format!("spindle {i} suspect (fail-slow)"),
                );
                false
            }
            Some(HealthEvent::Recovered(i)) => {
                self.obs.health_recoveries.inc();
                self.health_state_gauge(i, HealthState::Healthy);
                self.obs.registry.event(
                    self.clock.now_ns(),
                    "health",
                    format!("spindle {i} recovered"),
                );
                false
            }
            Some(HealthEvent::Evicted(i)) => {
                debug_assert_eq!(i, spindle);
                true
            }
        }
    }

    /// Feeds one piece's predicted service-time inflation (observed
    /// over the mechanical model's cost for the same piece — a pure
    /// media signal, independent of queue depth and request shape) into
    /// the health monitor, queueing the spindle on `evict` when the
    /// verdict is eviction. Reads and writes carry the same signal, so
    /// both paths feed it; callers apply `evict` only once no in-flight
    /// handle could dangle on the killed queue.
    fn feed_health(&mut self, spindle: usize, sector: u64, bytes: u64, evict: &mut Vec<usize>) {
        if self.health.is_none() || self.states[spindle] != SpindleState::Online {
            return;
        }
        let disk = self.spindles[spindle].disk();
        let start = disk.busy_until_ns().max(self.clock.now_ns());
        let svc = disk.estimate_service_ns(start, sector, bytes);
        let model = disk.estimate_base_service_ns(sector, bytes);
        if self.observe_health(spindle, svc, model) && !evict.contains(&spindle) {
            evict.push(spindle);
        }
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
    pub fn rebuild_step(&mut self) -> DiskResult<RebuildProgress> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        let Some(run) = self.rebuild.as_mut() else {
            return Ok(RebuildProgress::Idle);
        };
        let target = run.spindle();
        let (first, rows) = run.claim_step();
        if rows == 0 {
            return Ok(RebuildProgress::Idle);
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
                if e == DiskError::Crashed {
                    self.crashed = true;
                }
                return Err(e);
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
            return Ok(RebuildProgress::Completed);
        }
        Ok(RebuildProgress::Progress { rows })
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
                if e == DiskError::Crashed {
                    self.crashed = true;
                }
                return Err(e);
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

    /// XOR-reconstructs physical range `[sector, sector + out.len())`
    /// of `target` from the same range on every other spindle — valid
    /// for any mix of data and parity rows, because every parity row
    /// maintains XOR-across-spindles = 0. Fails if a second spindle is
    /// unavailable (double fault). Errors come back untranslated.
    fn reconstruct_range(&mut self, target: usize, sector: u64, out: &mut [u8]) -> DiskResult<()> {
        let n = self.spindles.len();
        let others: Vec<usize> = (0..n).filter(|&s| s != target).collect();
        for &s in &others {
            if self.states[s] != SpindleState::Online {
                return Err(DiskError::Unreadable { sector });
            }
        }
        let mut handles = Vec::with_capacity(others.len());
        for &s in &others {
            handles.push(self.spindles[s].start_read(sector, out.len())?);
        }
        out.fill(0);
        let mut tmp = vec![0u8; out.len()];
        for (&s, h) in others.iter().zip(handles) {
            self.spindles[s].finish_read(h, sector, &mut tmp)?;
            xor_into(out, &tmp);
        }
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
            Err(DiskError::Crashed) => {
                self.crashed = true;
                Err(DiskError::Crashed)
            }
            Err(_) => Err(DiskError::Unreadable { sector: escape }),
        }
    }

    /// Reads the *current logical* content of physical range
    /// `[sector, sector + out.len())` on `spindle`: directly when the
    /// spindle serves reads, by reconstruction when it is dead,
    /// rebuilding, or the direct read hits unreadable sectors.
    ///
    /// This is also the read half of a parity read-modify-write, so it
    /// gets the same hedge protection as [`StripedVolume::read_parity`]:
    /// without it a fail-slow spindle charges its full degraded service
    /// to every partial-row *write* (checkpoints, superblocks), which is
    /// exactly the foreground tail the hedge exists to cap.
    fn read_physical(
        &mut self,
        spindle: usize,
        sector: u64,
        out: &mut [u8],
        escape: u64,
    ) -> DiskResult<()> {
        if self.states[spindle] == SpindleState::Online {
            match self.spindles[spindle].start_read(sector, out.len()) {
                Ok(h) => {
                    let hedge = match &h {
                        engine::ReadHandle::Pending(id)
                            if self.survivors_online(spindle)
                                && self.spindles[spindle].hedge_overdue(*id) =>
                        {
                            Some(*id)
                        }
                        _ => None,
                    };
                    let finished = match hedge {
                        Some(id) => self.hedged_race(spindle, id, sector, out).map(|_| ()),
                        None => self.spindles[spindle].finish_read(h, sector, out),
                    };
                    match finished {
                        Ok(()) => return Ok(()),
                        Err(DiskError::Crashed) => {
                            self.crashed = true;
                            return Err(DiskError::Crashed);
                        }
                        Err(DiskError::Unreadable { .. }) => {}
                        Err(other) => return Err(other),
                    }
                }
                Err(DiskError::Crashed) => {
                    self.crashed = true;
                    return Err(DiskError::Crashed);
                }
                Err(DiskError::Unreadable { .. }) => {}
                Err(other) => return Err(other),
            }
        }
        self.reconstruct_or_escape(spindle, sector, out, escape)
    }

    /// Reads `buf.len()` bytes at logical `sector`, fanning the request
    /// out and joining all pieces. Every piece is started before any is
    /// waited on, so spindles overlap; the first failing piece (in
    /// logical order) decides the error, but every started piece is
    /// still finished so no queue is left holding a read.
    pub fn read(&mut self, sector: u64, buf: &mut [u8]) -> DiskResult<()> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        let count = check_request(sector, buf.len(), self.num_sectors)?;
        let subs = self.split(sector, count);
        self.obs.reads.inc();
        self.obs.bytes_read.add(buf.len() as u64);
        self.obs.subrequests.add(subs.len() as u64);
        if self.layout.parity {
            return self.read_parity(&subs, sector, buf);
        }
        let mut handles = Vec::with_capacity(subs.len());
        for sub in &subs {
            match self.spindles[sub.spindle].start_read(sub.sector, sub.bytes()) {
                Ok(h) => handles.push(h),
                Err(e) => return Err(self.translate(sub.spindle, e)),
            }
        }
        let mut first_err: Option<DiskError> = None;
        for (sub, handle) in subs.iter().zip(handles) {
            let piece = &mut buf[sub.offset..sub.offset + sub.bytes()];
            match self.spindles[sub.spindle].finish_read(handle, sub.sector, piece) {
                Ok(()) => {}
                Err(e) => {
                    let e = self.translate(sub.spindle, e);
                    if e == DiskError::Crashed {
                        return Err(e);
                    }
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Writes `buf` at logical `sector`. Synchronous writes submit
    /// every piece before waiting on any; asynchronous writes go into
    /// each spindle's queue, pushing out per-spindle busy horizons in
    /// parallel.
    pub fn write(&mut self, sector: u64, buf: &[u8], sync: bool) -> DiskResult<()> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        let count = check_request(sector, buf.len(), self.num_sectors)?;
        let subs = self.split(sector, count);
        self.obs.writes.inc();
        self.obs.bytes_written.add(buf.len() as u64);
        self.obs.subrequests.add(subs.len() as u64);
        let result = if self.layout.parity {
            self.write_parity(&subs, sector, buf, sync)
        } else {
            self.write_subs(&subs, buf, sync)
        };
        self.update_balance();
        result
    }

    /// The fan-out read for parity volumes: pieces on healthy spindles
    /// are read directly (all started before any is waited on); pieces
    /// on dead or rebuilding spindles — or whose direct read comes back
    /// unreadable — are served by XOR reconstruction across the
    /// survivors. Only a double fault escapes, translated to the
    /// logical sector of the piece that could not be served.
    ///
    /// With a hedge deadline armed ([`EngineConfig::hedge_deadline_ns`])
    /// a piece whose predicted direct latency blows the budget is raced
    /// against XOR reconstruction ([`StripedVolume::hedged_race`]), and
    /// with health monitoring armed every piece feeds its spindle's
    /// predicted service time into the [`HealthMonitor`] — evictions it
    /// decides are applied after the last piece lands, so no in-flight
    /// handle dangles on a killed spindle.
    fn read_parity(&mut self, subs: &[SubRequest], base_sector: u64, buf: &mut [u8]) -> DiskResult<()> {
        let mut handles: Vec<Option<engine::ReadHandle>> = Vec::with_capacity(subs.len());
        let mut steered: Vec<bool> = Vec::with_capacity(subs.len());
        let mut evict: Vec<usize> = Vec::new();
        for sub in subs {
            if self.states[sub.spindle] == SpindleState::Online {
                self.feed_health(sub.spindle, sub.sector, sub.bytes() as u64, &mut evict);
                // The submission-side hedge: an overlapping queued
                // request (a still-in-flight segment write, say) would
                // stall this read *at submission* — the read-after-write
                // hazard is paid before the request even has an id, so
                // the in-queue hedge hook below can never see it. When
                // the predicted stall blows the deadline and every
                // survivor is online, skip the direct read entirely and
                // steer the piece to reconstruction.
                if self.survivors_online(sub.spindle)
                    && self.spindles[sub.spindle].submit_hazard_overdue(sub.sector, sub.bytes())
                {
                    handles.push(None);
                    steered.push(true);
                    continue;
                }
                match self.spindles[sub.spindle].start_read(sub.sector, sub.bytes()) {
                    Ok(h) => handles.push(Some(h)),
                    Err(DiskError::Crashed) => {
                        self.crashed = true;
                        return Err(DiskError::Crashed);
                    }
                    // An unreadable submission routes to reconstruction
                    // like an unreadable completion would.
                    Err(DiskError::Unreadable { .. }) => {
                        if self.observe_health_error(sub.spindle) {
                            evict.push(sub.spindle);
                        }
                        handles.push(None);
                    }
                    Err(other) => return Err(other),
                }
            } else {
                handles.push(None);
            }
            steered.push(false);
        }
        let mut degraded = false;
        let mut first_err: Option<DiskError> = None;
        for ((sub, handle), was_steered) in subs.iter().zip(handles).zip(steered) {
            let logical = base_sector + (sub.offset / SECTOR_SIZE) as u64;
            let piece = &mut buf[sub.offset..sub.offset + sub.bytes()];
            let served = match handle {
                Some(h) => {
                    // The hedge hook: a queued piece whose predicted
                    // latency blows the deadline is raced against
                    // reconstruction — but only when every survivor is
                    // online, otherwise there is nothing to race.
                    let hedge = match &h {
                        engine::ReadHandle::Pending(id)
                            if self.survivors_online(sub.spindle)
                                && self.spindles[sub.spindle].hedge_overdue(*id) =>
                        {
                            Some(*id)
                        }
                        _ => None,
                    };
                    let finished = match hedge {
                        Some(id) => self
                            .hedged_race(sub.spindle, id, sub.sector, piece)
                            .map(|was_degraded| {
                                degraded |= was_degraded;
                            }),
                        None => self.spindles[sub.spindle].finish_read(h, sub.sector, piece),
                    };
                    match finished {
                        Ok(()) => true,
                        Err(DiskError::Crashed) => {
                            self.crashed = true;
                            return Err(DiskError::Crashed);
                        }
                        Err(DiskError::Unreadable { .. }) => {
                            if self.observe_health_error(sub.spindle) {
                                evict.push(sub.spindle);
                            }
                            false
                        }
                        Err(other) => return Err(other),
                    }
                }
                None => false,
            };
            if !served {
                // A steered piece is a hedge the reconstruction won by
                // forfeit, not a degraded read: the spindle is healthy
                // enough to serve, just not worth waiting for.
                if was_steered {
                    self.obs.hedged_reads.inc();
                } else {
                    degraded = true;
                }
                match self.reconstruct_or_escape(sub.spindle, sub.sector, piece, logical) {
                    Ok(()) => {
                        if was_steered {
                            self.spindles[sub.spindle].record_hedge_win();
                        }
                    }
                    Err(DiskError::Crashed) => return Err(DiskError::Crashed),
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        if degraded {
            self.obs.degraded_reads.inc();
        }
        for i in evict {
            self.auto_evict(i);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// True when every spindle other than `spindle` serves reads — the
    /// precondition for racing a reconstruction against a slow direct
    /// read.
    fn survivors_online(&self, spindle: usize) -> bool {
        self.states
            .iter()
            .enumerate()
            .all(|(s, st)| s == spindle || *st == SpindleState::Online)
    }

    /// An error observation is inflation-neutral: it feeds the error
    /// window at the spindle's current EWMA so a failing-but-fast
    /// spindle is judged on its errors alone.
    fn observe_health_error(&mut self, spindle: usize) -> bool {
        let Some(monitor) = self.health.as_mut() else {
            return false;
        };
        let event = monitor.observe_error(spindle);
        self.apply_health_event(spindle, event)
    }

    /// Races pending direct read `id` on `spindle` against XOR
    /// reconstruction from the survivors. Both sides run to physical
    /// completion — the loser is *drained* (its spindle still does the
    /// work and later requests queue behind it) — but the caller's
    /// clock advances only to the winner's finish, so the foreground
    /// pays `min(direct, reconstruction)` latency. When both sides
    /// succeed their bytes are asserted identical and the direct data
    /// fills `piece`; a failed direct read is covered by the
    /// reconstruction (returns `true`: the piece was served degraded);
    /// a failed reconstruction falls back to the direct result.
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
        let n = self.spindles.len();
        let others: Vec<usize> = (0..n).filter(|&s| s != spindle).collect();
        // Start the reconstruction on every survivor. A survivor that
        // rejects the submission sinks the reconstruction side; the
        // started remainder is still drained below so no queue is left
        // holding a read.
        let mut recon_handles: Vec<(usize, engine::ReadHandle)> = Vec::with_capacity(others.len());
        let mut recon_ok = true;
        for &s in &others {
            match self.spindles[s].start_read(sector, piece.len()) {
                Ok(h) => recon_handles.push((s, h)),
                Err(DiskError::Crashed) => return Err(DiskError::Crashed),
                Err(_) => {
                    recon_ok = false;
                    break;
                }
            }
        }
        // Drain both sides without advancing the shared clock; the
        // completion timestamps decide the race.
        let mut survivors: Vec<Vec<u8>> = Vec::with_capacity(recon_handles.len());
        let mut recon_finish = self.clock.now_ns();
        for (s, h) in recon_handles {
            match h {
                engine::ReadHandle::Hit(data) => survivors.push(data),
                engine::ReadHandle::Pending(rid) => match self.spindles[s].drain_read(rid) {
                    Ok(done) => {
                        recon_finish = recon_finish.max(done.finish_ns);
                        survivors.push(done.data.expect("read without data"));
                    }
                    Err(DiskError::Crashed) => return Err(DiskError::Crashed),
                    Err(_) => recon_ok = false,
                },
            }
        }
        let direct = match self.spindles[spindle].drain_read(id) {
            Ok(done) => Some(done),
            Err(DiskError::Crashed) => return Err(DiskError::Crashed),
            Err(_) => None,
        };
        let xor = recon_ok.then(|| {
            let mut xor = vec![0u8; piece.len()];
            for data in &survivors {
                xor_into(&mut xor, data);
            }
            xor
        });
        match (direct, xor) {
            (Some(done), Some(xor)) => {
                let data = done.data.as_deref().expect("read without data");
                assert_eq!(
                    xor, data,
                    "hedged reconstruction diverged from the direct read"
                );
                if recon_finish < done.finish_ns {
                    self.spindles[spindle].record_hedge_win();
                    self.obs.reconstructions.inc();
                }
                self.clock.advance_to_ns(recon_finish.min(done.finish_ns));
                piece.copy_from_slice(data);
                Ok(false)
            }
            (Some(done), None) => {
                // The reconstruction fell apart; the direct read still
                // answered — the race just cost nothing extra.
                self.clock.advance_to_ns(done.finish_ns);
                piece.copy_from_slice(done.data.as_deref().expect("read without data"));
                Ok(false)
            }
            (None, Some(xor)) => {
                // The slow spindle also failed the read: the
                // reconstruction is authoritative — exactly the
                // degraded path, already paid for.
                self.clock.advance_to_ns(recon_finish);
                piece.copy_from_slice(&xor);
                self.spindles[spindle].record_hedge_win();
                self.obs.reconstructions.inc();
                Ok(true)
            }
            (None, None) => Err(DiskError::Unreadable { sector }),
        }
    }

    /// The parity-maintaining write. Pieces are grouped by chunk row
    /// (under a parity policy no sub-request ever spans two rows —
    /// rotation breaks physical contiguity at every row boundary, so
    /// the splitter cannot merge across one) and each touched row's
    /// parity chunk is updated in the same request:
    ///
    /// - **Full row** (every data chunk covered whole — the normal case
    ///   for LFS segment writes under [`crate::ParitySegment`]): parity
    ///   is the XOR of the buffer pieces. *No old data is read.*
    /// - **Partial row**: read-modify-write,
    ///   `parity' = parity ⊕ Σ (old ⊕ new)` over the written pieces,
    ///   with any unavailable old content reconstructed from the
    ///   survivors.
    ///
    /// Pieces bound for a dead spindle are not written — the updated
    /// parity absorbs their content, so reads reconstruct the new data.
    /// A dead *parity* spindle leaves its rows unprotected (data writes
    /// through normally) until rebuild re-derives it. Rebuilding
    /// spindles are written through so finished rows stay fresh.
    fn write_parity(
        &mut self,
        subs: &[SubRequest],
        base_sector: u64,
        buf: &[u8],
        sync: bool,
    ) -> DiskResult<()> {
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
        // Compute every touched row's parity piece before issuing any
        // write, so RMW reads of old content see pre-request state.
        let mut parity_pieces: Vec<(usize, u64, Vec<u8>)> = Vec::new();
        for (&row, idxs) in &rows {
            let p = self
                .layout
                .parity_spindle(row, n)
                .expect("parity layout always parks parity");
            if self.states[p] == SpindleState::Dead {
                // The row's parity chunk died with its spindle: data
                // writes through unprotected until rebuild re-derives
                // the chunk from the new contents.
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
            if full_cover {
                // The LFS fast path: a whole row (one full segment
                // under ParitySegment) derives parity from the write
                // buffer alone.
                for &i in idxs {
                    let sub = &subs[i];
                    xor_into(&mut parity, &buf[sub.offset..sub.offset + sub.bytes()]);
                }
            } else {
                let escape = base_sector + (subs[idxs[0]].offset / SECTOR_SIZE) as u64;
                self.read_physical(p, row_base + lo, &mut parity, escape)?;
                let mut old = vec![0u8; (hi - lo) as usize * SECTOR_SIZE];
                for &i in idxs {
                    let sub = &subs[i];
                    let a = (sub.sector - row_base - lo) as usize * SECTOR_SIZE;
                    let escape = base_sector + (sub.offset / SECTOR_SIZE) as u64;
                    let old_piece = &mut old[a..a + sub.bytes()];
                    self.read_physical(sub.spindle, sub.sector, old_piece, escape)?;
                    xor_into(&mut parity[a..a + sub.bytes()], old_piece);
                    xor_into(
                        &mut parity[a..a + sub.bytes()],
                        &buf[sub.offset..sub.offset + sub.bytes()],
                    );
                }
            }
            parity_pieces.push((p, row_base + lo, parity));
        }
        // Writes carry the same media-inflation signal reads do, and
        // they touch every spindle on every flush — feeding them makes
        // the monitor converge on a limping drive within a handful of
        // segment writes instead of waiting for reads to land on it.
        // Evictions are applied only after every started piece has
        // landed: killing a spindle discards its queue.
        let mut evict: Vec<usize> = Vec::new();
        if !sync {
            for sub in subs {
                if self.states[sub.spindle] == SpindleState::Dead {
                    continue;
                }
                let piece = &buf[sub.offset..sub.offset + sub.bytes()];
                self.feed_health(sub.spindle, sub.sector, sub.bytes() as u64, &mut evict);
                if let Err(e) = self.spindles[sub.spindle].submit_async_write(sub.sector, piece) {
                    return Err(self.translate(sub.spindle, e));
                }
            }
            for (p, sector, parity) in &parity_pieces {
                self.feed_health(*p, *sector, parity.len() as u64, &mut evict);
                if let Err(e) = self.spindles[*p].submit_async_write(*sector, parity) {
                    return Err(self.translate_parity(e));
                }
            }
            for i in evict {
                self.auto_evict(i);
            }
            return Ok(());
        }
        // Sync: start every piece — data and parity — before finishing
        // any, so the spindles seek in parallel.
        let mut ids: Vec<(usize, u64, bool)> = Vec::new();
        for sub in subs {
            if self.states[sub.spindle] == SpindleState::Dead {
                continue;
            }
            let piece = &buf[sub.offset..sub.offset + sub.bytes()];
            self.feed_health(sub.spindle, sub.sector, sub.bytes() as u64, &mut evict);
            match self.spindles[sub.spindle].start_sync_write(sub.sector, piece) {
                Ok(id) => ids.push((sub.spindle, id, false)),
                Err(e) => return Err(self.translate(sub.spindle, e)),
            }
        }
        for (p, sector, parity) in &parity_pieces {
            self.feed_health(*p, *sector, parity.len() as u64, &mut evict);
            match self.spindles[*p].start_sync_write(*sector, parity) {
                Ok(id) => ids.push((*p, id, true)),
                Err(e) => return Err(self.translate_parity(e)),
            }
        }
        for (spindle, id, is_parity) in ids {
            if let Err(e) = self.spindles[spindle].finish_write(id) {
                return Err(if is_parity {
                    self.translate_parity(e)
                } else {
                    self.translate(spindle, e)
                });
            }
        }
        for i in evict {
            self.auto_evict(i);
        }
        Ok(())
    }

    /// Error translation for parity-chunk I/O: crashes latch, anything
    /// else keeps its physical sector — a parity address has no logical
    /// equivalent to translate to.
    fn translate_parity(&mut self, e: DiskError) -> DiskError {
        if e == DiskError::Crashed {
            self.crashed = true;
        }
        e
    }

    fn write_subs(&mut self, subs: &[SubRequest], buf: &[u8], sync: bool) -> DiskResult<()> {
        if !sync {
            for sub in subs {
                let piece = &buf[sub.offset..sub.offset + sub.bytes()];
                if let Err(e) = self.spindles[sub.spindle].submit_async_write(sub.sector, piece) {
                    return Err(self.translate(sub.spindle, e));
                }
            }
            return Ok(());
        }
        let mut ids = Vec::with_capacity(subs.len());
        for sub in subs {
            let piece = &buf[sub.offset..sub.offset + sub.bytes()];
            match self.spindles[sub.spindle].start_sync_write(sub.sector, piece) {
                Ok(id) => ids.push(id),
                Err(e) => return Err(self.translate(sub.spindle, e)),
            }
        }
        for (sub, id) in subs.iter().zip(ids) {
            if let Err(e) = self.spindles[sub.spindle].finish_write(id) {
                return Err(self.translate(sub.spindle, e));
            }
        }
        Ok(())
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

    /// Marks subsequent submissions on every spindle as maintenance
    /// I/O (see [`EngineCore::set_maintenance`]).
    pub fn set_maintenance(&mut self, on: bool) {
        for core in &mut self.spindles {
            core.set_maintenance(on);
        }
    }

    /// Total requests pending across every spindle's queue.
    pub fn queue_depth(&self) -> u64 {
        self.spindles.iter().map(|c| c.queue_len()).sum()
    }

    /// Starts a tracked non-blocking read if the logical range maps to a
    /// single spindle (always true for ranges inside one segment under
    /// segment round-robin). Multi-spindle ranges return `None` and the
    /// caller falls back to the synchronous fan-out read.
    pub fn start_read_async(&mut self, sector: u64, len: usize) -> Option<u64> {
        if self.crashed {
            return None;
        }
        let count = check_request(sector, len, self.num_sectors).ok()?;
        let subs = self.split(sector, count);
        let [sub] = subs.as_slice() else { return None };
        if self.states[sub.spindle] != SpindleState::Online {
            // Degraded: fall back to the reconstructing fan-out read.
            return None;
        }
        self.obs.reads.inc();
        self.obs.bytes_read.add(len as u64);
        self.obs.subrequests.inc();
        let inner = self.spindles[sub.spindle]
            .start_tracked_read(sub.sector, sub.bytes())
            .ok()?;
        let token = self.next_read_token;
        self.next_read_token += 1;
        self.tracked_reads.insert(
            token,
            TrackedVolumeRead {
                spindle: sub.spindle,
                inner,
                sector: sub.sector,
                logical: sector,
                len,
            },
        );
        Some(token)
    }

    /// Completes a read started by [`StripedVolume::start_read_async`].
    /// If the spindle was killed while the read was queued (operator
    /// command or health eviction — the engine's queue died with the
    /// media), a parity volume serves the claim by XOR reconstruction
    /// instead of dangling on a token that will never complete.
    pub fn finish_read_async(&mut self, token: u64) -> DiskResult<Vec<u8>> {
        let t = self
            .tracked_reads
            .remove(&token)
            .expect("finish_read_async: unknown token");
        if self.states[t.spindle] == SpindleState::Online {
            return self.spindles[t.spindle]
                .finish_tracked_read(t.inner)
                .map_err(|e| self.translate(t.spindle, e));
        }
        let mut buf = vec![0u8; t.len];
        self.reconstruct_or_escape(t.spindle, t.sector, &mut buf, t.logical)?;
        self.obs.degraded_reads.inc();
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

    /// Labels the next traced access on every spindle.
    pub fn annotate(&mut self, label: &'static str) {
        for core in &mut self.spindles {
            core.disk_mut().annotate(label);
        }
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

    /// Writes persisted so far across all spindles (global persist
    /// order).
    pub fn global_writes(&self) -> u64 {
        self.0.borrow().global_writes()
    }

    /// True once the volume has crashed.
    pub fn has_crashed(&self) -> bool {
        self.0.borrow().has_crashed()
    }

    /// Arms the same crash plan on every spindle (shared write index).
    pub fn arm_crash_all(&self, plan: CrashPlan) {
        self.0.borrow_mut().arm_crash_all(plan);
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

    /// Availability of spindle `i` (see [`StripedVolume::spindle_state`]).
    pub fn spindle_state(&self, i: usize) -> SpindleState {
        self.0.borrow().spindle_state(i)
    }

    /// Kills spindle `i` (see [`StripedVolume::kill_spindle`]).
    pub fn kill_spindle(&self, i: usize) {
        self.0.borrow_mut().kill_spindle(i);
    }

    /// Swaps in a replacement and starts the online rebuild (see
    /// [`StripedVolume::replace_spindle`]).
    pub fn replace_spindle(&self, i: usize, policy: RebuildPolicy) -> DiskResult<()> {
        self.0.borrow_mut().replace_spindle(i, policy)
    }

    /// Arms fail-slow health monitoring (see
    /// [`StripedVolume::set_health_policy`]).
    pub fn set_health_policy(&self, policy: HealthPolicy) {
        self.0.borrow_mut().set_health_policy(policy);
    }

    /// Stocks hot spares for automatic failover (see
    /// [`StripedVolume::set_hot_spares`]).
    pub fn set_hot_spares(&self, n: usize) {
        self.0.borrow_mut().set_hot_spares(n);
    }

    /// Sets the rebuild policy used when a hot spare swaps in (see
    /// [`StripedVolume::set_spare_rebuild_policy`]).
    pub fn set_spare_rebuild_policy(&self, policy: RebuildPolicy) {
        self.0.borrow_mut().set_spare_rebuild_policy(policy);
    }

    /// The health monitor's verdict on spindle `i` (see
    /// [`StripedVolume::health_state`]).
    pub fn health_state(&self, i: usize) -> Option<HealthState> {
        self.0.borrow().health_state(i)
    }

    /// Rewrites stale parity from the authoritative data chunks (see
    /// [`StripedVolume::resync_parity`]).
    pub fn resync_parity(&self) -> DiskResult<u64> {
        self.0.borrow_mut().resync_parity()
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
        Ok(match self.0.borrow_mut().rebuild_step()? {
            RebuildProgress::Idle => Step::Idle,
            RebuildProgress::Progress { .. } => Step::Progress,
            RebuildProgress::Completed => Step::Completed,
        })
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
