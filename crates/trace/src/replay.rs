//! The QoS-aware discrete-event replay driver.
//!
//! Replay is the workspace's one host loop, [`engine::run_schedule`],
//! over the trace's dependency graph ([`crate::graph::schedule`]): a
//! record is ready its think time after the last of its happens-before
//! predecessors (explicit edges and program order) finished.
//! [`replay_with`] also hands the loop a [`Maintenance`] task (the async
//! cleaner) to offer the idle time between dispatches.
//!
//! With QoS enabled the loop arbitrates the eligible set with the same
//! [`FairShare`] ledger the disk queue uses: an op-level aging bound
//! first (no tenant waits forever), then latency class, then lowest
//! weighted virtual service time — so a 4×-weight tenant is dispatched
//! 4× as often while every tenant is backlogged, and the engine-side
//! ledger keeps a latency tenant's disk requests ahead of a flooder's
//! queued backlog. With QoS disabled the pick is plain
//! earliest-ready-first, the closed-loop benches' discipline.
//!
//! After the loop, every dispatched record's happens-before edges are
//! checked against the recorded start and finish times and counted
//! (`dep_edges_checked`), so an equivalence test can assert both "no
//! edge violated" and "edges were actually exercised" (the vacuity
//! guard).

use engine::{run_schedule, FairShare, Maintenance, RequestEngine};
use obs::Registry;
use vfs::{FileKind, FileSystem, FsResult};

use crate::format::{Trace, TraceError, TraceOp};

/// Replay knobs.
#[derive(Debug, Clone, Default)]
pub struct ReplayConfig {
    /// Arbitrate dispatch (and the disk queue) with the trace's QoS
    /// spec; off = earliest-ready-first and a QoS-free queue.
    pub qos_enabled: bool,
}

impl ReplayConfig {
    /// Enables or disables QoS arbitration.
    pub fn with_qos(mut self, qos_enabled: bool) -> Self {
        self.qos_enabled = qos_enabled;
        self
    }
}

/// One tenant's replay outcome.
#[derive(Debug, Clone, Default)]
pub struct TenantSummary {
    /// Tenant id.
    pub client: usize,
    /// Operations dispatched.
    pub ops: u64,
    /// Operations that returned an error (counted, not fatal).
    pub failed: u64,
    /// Bytes written by the tenant's `write` records.
    pub bytes_written: u64,
    /// Bytes requested by the tenant's `read` records.
    pub bytes_read: u64,
    /// Sum of operation service latencies, in nanoseconds.
    pub total_latency_ns: u64,
    /// Worst single operation latency, in nanoseconds.
    pub max_latency_ns: u64,
    /// Every operation latency, sorted ascending (exact percentiles).
    pub latencies_ns: Vec<u64>,
}

impl TenantSummary {
    /// Nearest-rank percentile over the exact latencies (0 when the
    /// tenant ran no operations).
    pub fn percentile_ns(&self, pct: f64) -> u64 {
        percentile_ns(&self.latencies_ns, pct)
    }

    /// The tenant's p99 operation latency.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(99.0)
    }

    /// Bytes moved (written + read) — the throughput-share unit the
    /// proportional-share assertions use.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_written + self.bytes_read
    }
}

/// Outcome of one replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Virtual time from replay start to the closing sync.
    pub elapsed_ns: u64,
    /// Records dispatched (equals the trace's record count).
    pub total_ops: u64,
    /// Records whose operation returned an error, plus one if the
    /// closing sync failed (so it can exceed `total_ops` by one).
    pub failed_ops: u64,
    /// Happens-before edges verified at dispatch (explicit + program
    /// order) — the vacuity guard for the equivalence suite.
    pub dep_edges_checked: u64,
    /// Edges whose predecessor had not finished by dispatch. Always 0
    /// for a correct scheduler; asserted by tests.
    pub dep_violations: u64,
    /// Per-tenant bytes moved at the *contended horizon* — the instant
    /// the first tenant finished its last record, while every tenant
    /// was still backlogged. A closed trace completes all of every
    /// tenant's work eventually, so proportional-share comparisons must
    /// be made here, not on end-of-run totals.
    pub contended_bytes: Vec<u64>,
    /// Virtual length of the contended window, in nanoseconds.
    pub contended_ns: u64,
    /// Per-tenant outcomes, indexed by tenant id.
    pub per_tenant: Vec<TenantSummary>,
}

impl ReplayReport {
    /// Aggregate operations per second of virtual time.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Tenants `a`'s and `b`'s bytes over the contended window, as a
    /// ratio (`a / b`; infinity when `b` moved nothing).
    pub fn contended_ratio(&self, a: usize, b: usize) -> f64 {
        let bb = self.contended_bytes.get(b).copied().unwrap_or(0);
        if bb == 0 {
            return f64::INFINITY;
        }
        self.contended_bytes.get(a).copied().unwrap_or(0) as f64 / bb as f64
    }
}

/// Nearest-rank percentile of an ascending-sorted latency slice: the
/// smallest sample with at least `pct` percent of the samples at or
/// below it (0 for an empty slice).
pub fn percentile_ns(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // The rank is taken in integers, from `pct` in parts per million:
    // in floating point 99.9 % of 1000 samples is 999.0000000000001,
    // whose ceiling is the maximum instead of the 999th sample.
    let ppm = (pct * 10_000.0).round() as u128;
    let rank = (ppm * sorted.len() as u128).div_ceil(1_000_000) as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Replays `trace` against `fs` (mounted over `engine`'s queue),
/// recording per-tenant metrics under `trace.tNN.*` in `registry`.
///
/// The trace must already be valid (parse or generator output); a
/// malformed dependency graph is returned as its [`TraceError`].
pub fn replay<F: FileSystem + ?Sized>(
    fs: &mut F,
    engine: &impl RequestEngine,
    registry: &Registry,
    trace: &Trace,
    cfg: &ReplayConfig,
) -> Result<ReplayReport, TraceError> {
    replay_with(fs, engine, registry, trace, cfg, None)
}

/// [`replay`], offering `maintenance` — a task and the client id its
/// I/O is submitted as — the idle time before each dispatch. A failed
/// operation is counted and the replay goes on; a failed pump or
/// maintenance step ends the dispatch loop and counts as one failed op
/// (the closing sync still runs; `total_ops` says how far it got).
pub fn replay_with<F: FileSystem + ?Sized>(
    fs: &mut F,
    engine: &impl RequestEngine,
    registry: &Registry,
    trace: &Trace,
    cfg: &ReplayConfig,
    maintenance: Option<(&mut dyn Maintenance<F>, Option<usize>)>,
) -> Result<ReplayReport, TraceError> {
    let mut schedule = crate::graph::schedule(trace)?;
    let clock = engine.clock();

    engine.set_client(None);
    engine.register_clients(trace.clients);
    engine.set_qos(cfg.qos_enabled.then(|| trace.qos.clone()));
    let fair = cfg.qos_enabled.then(|| FairShare::new(trace.qos.clone()));

    let mut report = ReplayReport {
        contended_bytes: vec![0; trace.clients],
        per_tenant: (0..trace.clients)
            .map(|client| TenantSummary {
                client,
                ..TenantSummary::default()
            })
            .collect(),
        ..ReplayReport::default()
    };
    let start_ns = clock.now_ns();
    // When each record began and finished (never, if not dispatched).
    let mut span_ns = vec![(u64::MAX, u64::MAX); trace.records.len()];
    // Records left per tenant — the contended window closes when the
    // first (non-empty) tenant drains.
    let mut left: Vec<usize> = vec![0; trace.clients];
    for r in &trace.records {
        left[r.client] += 1;
    }
    let mut contended_open = true;
    let run = run_schedule(fs, engine, &mut schedule, fair, maintenance, |fs, turn| {
        let record = &trace.records[turn.record];
        let ok = record.op.apply(fs).is_ok();
        let t = &mut report.per_tenant[record.client];
        t.ops += 1;
        t.failed += u64::from(!ok);
        match &record.op {
            TraceOp::Write { len, .. } => t.bytes_written += *len as u64,
            TraceOp::Read { len, .. } => t.bytes_read += *len as u64,
            _ => {}
        }
        let (latency_ns, end_ns) = (turn.elapsed_ns(), clock.now_ns());
        t.latencies_ns.push(latency_ns);
        left[record.client] -= 1;
        if contended_open && left[record.client] == 0 {
            contended_open = false;
            report.contended_ns = end_ns - start_ns;
            for (c, t) in report.per_tenant.iter().enumerate() {
                report.contended_bytes[c] = t.bytes_total();
            }
        }
        span_ns[turn.record] = (end_ns - latency_ns, end_ns);
        Ok(())
    });

    // The happens-before audit: every predecessor of a dispatched record
    // must have finished by the time the record began.
    for (i, &(begin, _)) in span_ns.iter().enumerate() {
        if begin == u64::MAX {
            continue;
        }
        for &p in schedule.preds(i) {
            report.dep_edges_checked += 1;
            report.dep_violations += u64::from(span_ns[p].1 > begin);
        }
    }

    // Close the measurement: everything queued reaches the platter.
    engine.set_client(None);
    let synced = fs.sync();
    engine.set_qos(None);
    report.elapsed_ns = clock.now_ns() - start_ns;
    report.failed_ops = u64::from(run.is_err()) + u64::from(synced.is_err());
    let agg_hist = registry.hist("trace.op_ns");
    for t in &mut report.per_tenant {
        report.total_ops += t.ops;
        report.failed_ops += t.failed;
        t.latencies_ns.sort_unstable();
        t.total_latency_ns = t.latencies_ns.iter().sum();
        t.max_latency_ns = t.latencies_ns.last().copied().unwrap_or(0);
        let name = |what: &str| format!("trace.t{:02}.{what}", t.client);
        registry.counter(&name("ops")).add(t.ops);
        registry
            .counter(&name("bytes_written"))
            .add(t.bytes_written);
        registry.counter(&name("bytes_read")).add(t.bytes_read);
        let hist = (trace.clients <= obs::PER_CLIENT_INSTRUMENTS_MAX)
            .then(|| registry.hist(&name("op_ns")));
        for &ns in &t.latencies_ns {
            agg_hist.record(ns);
            if let Some(h) = &hist {
                h.record(ns);
            }
        }
    }
    registry.gauge("trace.clients").set(trace.clients as u64);
    registry
        .gauge("trace.dep_edges_checked")
        .set(report.dep_edges_checked);
    registry
        .gauge("trace.dep_violations")
        .set(report.dep_violations);
    Ok(report)
}

/// A deterministic digest of the file-system tree under `/`: every
/// path with its kind, size, and an FNV-1a hash of its contents,
/// sorted by path. Two file systems that replayed the same trace must
/// produce identical snapshots — the cross-fs equivalence check.
pub fn snapshot<F: FileSystem + ?Sized>(fs: &mut F) -> FsResult<Vec<(String, FileKind, u64, u64)>> {
    let mut out = Vec::new();
    let mut stack = vec!["/".to_string()];
    while let Some(dir) = stack.pop() {
        let mut entries = fs.readdir(&dir)?;
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        for e in entries {
            let path = if dir == "/" {
                format!("/{}", e.name)
            } else {
                format!("{dir}/{}", e.name)
            };
            match e.kind {
                FileKind::Directory => {
                    out.push((path.clone(), FileKind::Directory, 0, 0));
                    stack.push(path);
                }
                FileKind::Regular => {
                    let data = fs.read_file(&path)?;
                    out.push((path, FileKind::Regular, data.len() as u64, fnv1a(&data)));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{office, zipf_churn, GenSpec};
    use engine::{EngineConfig, EngineCore, Step};
    use sim_disk::{Clock, DiskGeometry, SimDisk};
    use std::sync::Arc;
    use vfs::model::ModelFs;
    use vfs::{DirEntry, FsError, FsStats, Ino, Metadata};

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = vec![10, 20, 30, 40];
        assert_eq!(percentile_ns(&sorted, 50.0), 20);
        assert_eq!(percentile_ns(&sorted, 99.0), 40);
        assert_eq!(percentile_ns(&[], 99.0), 0);
        // Hand-computed ranks, including the one floating point got
        // wrong: 99.9 % of 1000 samples is the 999th, not the maximum.
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_ns(&thousand, 99.9), 999);
        assert_eq!(percentile_ns(&thousand, 100.0), 1000);
        assert_eq!(percentile_ns(&thousand[..100], 99.0), 99);
        assert_eq!(percentile_ns(&thousand[..100], 0.0), 1);
        assert_eq!(percentile_ns(&[7], 50.0), 7);
    }

    /// Replay drives the model FS through a null engine wrapper: the
    /// model does no disk I/O, so the engine queue stays empty, but the
    /// dispatcher's graph walk and accounting are exercised end to end.
    fn rig() -> (ModelFs, std::rc::Rc<std::cell::RefCell<EngineCore>>, Registry) {
        let clock = Clock::new();
        let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
        let core = EngineCore::new(disk, EngineConfig::default());
        let registry = core.disk().obs().clone();
        (ModelFs::new(), core.into_shared(), registry)
    }

    #[test]
    fn office_replay_visits_every_record_and_respects_edges() {
        let trace = office(&GenSpec::small(3));
        let (mut fs, core, registry) = rig();
        let report = replay(&mut fs, &core, &registry, &trace, &ReplayConfig::default()).unwrap();
        assert_eq!(report.total_ops, trace.records.len() as u64);
        assert_eq!(report.dep_violations, 0);
        assert!(report.dep_edges_checked > 0, "vacuous dependency audit");
        assert_eq!(report.failed_ops, 0);
    }

    #[test]
    fn replay_counts_failures_without_stopping() {
        let text = "lfs-trace v1\nclients 1\n\
                    op 0 c0 t0 after - mkdir /a\n\
                    op 1 c0 t0 after - unlink /missing\n\
                    op 2 c0 t0 after - create /a/f\n";
        let trace = Trace::parse(text).unwrap();
        let (mut fs, core, registry) = rig();
        let report = replay(&mut fs, &core, &registry, &trace, &ReplayConfig::default()).unwrap();
        assert_eq!(report.total_ops, 3);
        assert_eq!(report.failed_ops, 1);
        assert_eq!(report.per_tenant[0].failed, 1);
        assert!(fs.lookup("/a/f").is_ok());
    }

    /// The model, except that `sync` always fails (a full or read-only
    /// volume at the closing flush).
    struct FailingSync(ModelFs);

    impl FileSystem for FailingSync {
        fn lookup(&mut self, path: &str) -> FsResult<Ino> {
            self.0.lookup(path)
        }
        fn create(&mut self, path: &str) -> FsResult<Ino> {
            self.0.create(path)
        }
        fn mkdir(&mut self, path: &str) -> FsResult<Ino> {
            self.0.mkdir(path)
        }
        fn unlink(&mut self, path: &str) -> FsResult<()> {
            self.0.unlink(path)
        }
        fn rmdir(&mut self, path: &str) -> FsResult<()> {
            self.0.rmdir(path)
        }
        fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
            self.0.rename(from, to)
        }
        fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
            self.0.link(existing, new)
        }
        fn read_at(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
            self.0.read_at(ino, offset, buf)
        }
        fn write_at(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
            self.0.write_at(ino, offset, data)
        }
        fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()> {
            self.0.truncate(ino, size)
        }
        fn stat(&mut self, ino: Ino) -> FsResult<Metadata> {
            self.0.stat(ino)
        }
        fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
            self.0.readdir(path)
        }
        fn fsync(&mut self, ino: Ino) -> FsResult<()> {
            self.0.fsync(ino)
        }
        fn sync(&mut self) -> FsResult<()> {
            Err(FsError::NoSpace)
        }
        fn drop_caches(&mut self) -> FsResult<()> {
            self.0.drop_caches()
        }
        fn fs_stats(&mut self) -> FsResult<FsStats> {
            self.0.fs_stats()
        }
    }

    #[test]
    fn a_failed_closing_sync_is_a_failed_op() {
        let text = "lfs-trace v1\nclients 1\n\
                    op 0 c0 t0 after - mkdir /a\n\
                    op 1 c0 t0 after - create /a/f\n";
        let trace = Trace::parse(text).unwrap();
        let (fs, core, registry) = rig();
        let mut fs = FailingSync(fs);
        let report = replay(&mut fs, &core, &registry, &trace, &ReplayConfig::default()).unwrap();
        assert_eq!(report.total_ops, 2);
        assert_eq!(report.failed_ops, 1, "the closing sync failed");
    }

    #[test]
    fn qos_replay_is_deterministic() {
        let trace = zipf_churn(&GenSpec::small(3));
        let run = || {
            let (mut fs, core, registry) = rig();
            let cfg = ReplayConfig::default().with_qos(true);
            let report = replay(&mut fs, &core, &registry, &trace, &cfg).unwrap();
            (format!("{report:?}"), snapshot(&mut fs).unwrap())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshots_of_equal_trees_match() {
        let trace = office(&GenSpec::small(2));
        let (mut a, core_a, reg_a) = rig();
        let (mut b, core_b, reg_b) = rig();
        replay(&mut a, &core_a, &reg_a, &trace, &ReplayConfig::default()).unwrap();
        let cfg = ReplayConfig::default().with_qos(true);
        replay(&mut b, &core_b, &reg_b, &trace, &cfg).unwrap();
        // Same trace, different dispatch policies: determinate traces
        // end in the same place.
        assert_eq!(snapshot(&mut a).unwrap(), snapshot(&mut b).unwrap());
    }

    /// A task that always wants a step; each costs `step_ns` and may
    /// leave a read in flight for `settle`. It logs `(start_ns, records
    /// done)` per step — a record here is one `mkdir` under `/`.
    struct FakeTask {
        clock: Arc<Clock>,
        step_ns: u64,
        settle: Option<u64>,
        log: Vec<(u64, usize)>,
    }

    impl Maintenance<ModelFs> for FakeTask {
        fn wants_step(&self, _fs: &ModelFs, _queue_depth: u64) -> bool {
            true
        }
        fn step(&mut self, fs: &mut ModelFs) -> FsResult<Step> {
            self.log.push((self.clock.now_ns(), fs.readdir("/")?.len()));
            self.clock.advance_ns(self.step_ns);
            Ok(Step::Progress)
        }
        fn active(&self, _fs: &ModelFs) -> bool {
            true
        }
        fn settle_ns(&self, _fs: &ModelFs) -> Option<u64> {
            self.settle
        }
    }

    /// Replays four `mkdir`s, each 100 ns after the previous one,
    /// hosting a [`FakeTask`]; returns its log and the replay's span.
    fn replay_hosting(step_ns: u64, settle: Option<u64>) -> (Vec<(u64, usize)>, u64) {
        let text = "lfs-trace v1\nclients 1\n\
                    op 0 c0 t100 after - mkdir /a\n\
                    op 1 c0 t100 after - mkdir /b\n\
                    op 2 c0 t100 after - mkdir /c\n\
                    op 3 c0 t100 after - mkdir /d\n";
        let trace = Trace::parse(text).unwrap();
        let (mut fs, core, registry) = rig();
        let mut task = FakeTask {
            clock: core.clock(),
            step_ns,
            settle,
            log: Vec::new(),
        };
        let cfg = ReplayConfig::default();
        let report = replay_with(
            &mut fs,
            &core,
            &registry,
            &trace,
            &cfg,
            Some((&mut task, None)),
        )
        .unwrap();
        assert_eq!(report.failed_ops, 0);
        (task.log, report.elapsed_ns)
    }

    #[test]
    fn replay_offers_stop_at_each_records_ready_time() {
        // 25 ns steps fill each 100 ns gap exactly: four steps before
        // every record, none started at or after its ready time, and no
        // offer once the last record is dispatched.
        let (log, elapsed_ns) = replay_hosting(25, None);
        let expected: Vec<(u64, usize)> = (0..4)
            .flat_map(|k| (0..4).map(move |s| (100 * k + 25 * s, k as usize)))
            .collect();
        assert_eq!(log, expected);
        assert_eq!(elapsed_ns, 400, "every record ran at its ready time");
    }

    #[test]
    fn a_replay_settle_never_delays_a_record() {
        // Each step leaves a read needing 250 ns: the wait spends idle
        // time only, so every record still runs at its ready time, and
        // the next step waits until the read has had its 250 ns.
        let (log, elapsed_ns) = replay_hosting(0, Some(250));
        assert_eq!(log, [(0, 0), (250, 2)]);
        assert_eq!(elapsed_ns, 400);
    }
}
