//! The QoS-aware discrete-event replay driver.
//!
//! The driver walks the trace's dependency graph, keeping every tenant's
//! next unblocked record as a candidate, and repeatedly dispatches one
//! record on the shared virtual clock: advance to the record's ready
//! time, pump the engine, attribute the operation to its tenant, apply
//! it to the file system, and unblock its successors. A record's ready
//! time is the latest finish among its happens-before predecessors
//! (explicit edges and program order) plus its think time.
//!
//! With QoS enabled the dispatcher arbitrates the eligible set with the
//! same [`FairShare`] ledger the disk queue uses: an op-level aging
//! bound first (no tenant waits forever), then latency class, then
//! lowest weighted virtual service time — so a 4×-weight tenant is
//! dispatched 4× as often while every tenant is backlogged, and the
//! engine-side ledger keeps a latency tenant's disk requests ahead of a
//! flooder's queued backlog. With QoS disabled the dispatcher is plain
//! earliest-ready-first, the closed-loop benches' discipline.
//!
//! Every dispatch checks its happens-before edges against recorded
//! finish times and counts them (`dep_edges_checked`), so an
//! equivalence test can assert both "no edge violated" and "edges were
//! actually exercised" (the vacuity guard).

use engine::{FairShare, RequestEngine};
use obs::Registry;
use vfs::{FileKind, FileSystem, FsResult};
use workload::trace::TraceOp;

use crate::format::{Trace, TraceError};
use crate::graph::DepGraph;

/// Op-level aging bound: an eligible record that has waited this long
/// is dispatched next regardless of QoS.
const MAX_OP_WAIT_NS: u64 = 50_000_000;

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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Virtual time from replay start to the closing sync.
    pub elapsed_ns: u64,
    /// Records dispatched (equals the trace's record count).
    pub total_ops: u64,
    /// Records whose operation returned an error.
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

    /// Tenant `c`'s share of total bytes moved, in [0, 1].
    pub fn bytes_share(&self, c: usize) -> f64 {
        let total: u64 = self.per_tenant.iter().map(TenantSummary::bytes_total).sum();
        if total == 0 {
            return 0.0;
        }
        self.per_tenant[c].bytes_total() as f64 / total as f64
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
    let mut graph = DepGraph::build(trace)?;
    let n = trace.records.len();
    let clock = engine.clock();

    engine.set_client(None);
    engine.register_clients(trace.clients);
    engine.set_qos(cfg.qos_enabled.then(|| trace.qos.clone()));
    let mut fair = cfg.qos_enabled.then(|| FairShare::new(trace.qos.clone()));

    let agg_hist = registry.hist("trace.op_ns");
    let emit_hists = trace.clients <= obs::PER_CLIENT_INSTRUMENTS_MAX;
    let tenant_hists: Vec<_> = (0..trace.clients)
        .map(|c| emit_hists.then(|| registry.hist(&format!("trace.t{c:02}.op_ns"))))
        .collect();
    let tenant_ops: Vec<_> = (0..trace.clients)
        .map(|c| registry.counter(&format!("trace.t{c:02}.ops")))
        .collect();
    let tenant_written: Vec<_> = (0..trace.clients)
        .map(|c| registry.counter(&format!("trace.t{c:02}.bytes_written")))
        .collect();
    let tenant_read: Vec<_> = (0..trace.clients)
        .map(|c| registry.counter(&format!("trace.t{c:02}.bytes_read")))
        .collect();

    let mut report = ReplayReport {
        elapsed_ns: 0,
        total_ops: 0,
        failed_ops: 0,
        dep_edges_checked: 0,
        dep_violations: 0,
        contended_bytes: vec![0; trace.clients],
        contended_ns: 0,
        per_tenant: (0..trace.clients)
            .map(|client| TenantSummary {
                client,
                ops: 0,
                failed: 0,
                bytes_written: 0,
                bytes_read: 0,
                total_latency_ns: 0,
                max_latency_ns: 0,
                latencies_ns: Vec::new(),
            })
            .collect(),
    };

    let start_ns = clock.now_ns();
    let mut finish_ns: Vec<Option<u64>> = vec![None; n];
    // Records left per tenant — the contended window closes when the
    // first (non-empty) tenant drains.
    let mut left: Vec<usize> = vec![0; trace.clients];
    for r in &trace.records {
        left[r.client] += 1;
    }
    let mut contended_open = true;
    while graph.remaining() > 0 {
        let available = graph.available_set();
        debug_assert!(!available.is_empty(), "valid graph with nothing available");
        // A record's ready time: latest predecessor finish plus think.
        let ready = |i: usize| -> u64 {
            let dep_horizon = graph.preds[i]
                .iter()
                .map(|&p| finish_ns[p].expect("available record with unfinished pred"))
                .max()
                .unwrap_or(start_ns);
            dep_horizon + trace.records[i].think_ns
        };
        let now = clock.now_ns();
        let horizon = available.iter().map(|&i| ready(i)).min().expect("non-empty");
        let now = now.max(horizon);
        let eligible: Vec<usize> = available
            .iter()
            .copied()
            .filter(|&i| ready(i) <= now)
            .collect();

        let picked = match fair.as_mut() {
            Some(fair) => {
                // Op-level aging first: QoS never starves a tenant.
                let oldest = eligible
                    .iter()
                    .copied()
                    .min_by_key(|&i| (ready(i), i))
                    .expect("non-empty eligible set");
                if now - ready(oldest) >= MAX_OP_WAIT_NS {
                    oldest
                } else {
                    let tenant = fair
                        .pick(eligible.iter().map(|&i| trace.records[i].client))
                        .expect("non-empty eligible set");
                    eligible
                        .iter()
                        .copied()
                        .filter(|&i| trace.records[i].client == tenant)
                        .min_by_key(|&i| (ready(i), i))
                        .expect("picked tenant has an eligible record")
                }
            }
            None => eligible
                .into_iter()
                .min_by_key(|&i| (ready(i), i))
                .expect("non-empty eligible set"),
        };

        let record = &trace.records[picked];
        let dispatch_ns = now.max(ready(picked));
        clock.advance_to_ns(dispatch_ns);
        let _ = engine.pump();
        engine.set_client(Some(record.client));

        let begin_ns = clock.now_ns();
        // The happens-before audit: every predecessor must have finished
        // by the time this record starts.
        for &p in &graph.preds[picked] {
            report.dep_edges_checked += 1;
            if finish_ns[p].expect("checked pred unfinished") > begin_ns {
                report.dep_violations += 1;
            }
        }
        let ok = record.op.apply(fs).is_ok();
        let end_ns = clock.now_ns();
        let latency_ns = end_ns - begin_ns;

        let t = &mut report.per_tenant[record.client];
        t.ops += 1;
        if !ok {
            t.failed += 1;
            report.failed_ops += 1;
        }
        match &record.op {
            TraceOp::Write { len, .. } => t.bytes_written += *len as u64,
            TraceOp::Read { len, .. } => t.bytes_read += *len as u64,
            _ => {}
        }
        t.total_latency_ns += latency_ns;
        t.max_latency_ns = t.max_latency_ns.max(latency_ns);
        t.latencies_ns.push(latency_ns);
        report.total_ops += 1;

        agg_hist.record(latency_ns);
        if let Some(h) = &tenant_hists[record.client] {
            h.record(latency_ns);
        }
        tenant_ops[record.client].inc();
        match &record.op {
            TraceOp::Write { len, .. } => tenant_written[record.client].add(*len as u64),
            TraceOp::Read { len, .. } => tenant_read[record.client].add(*len as u64),
            _ => {}
        }

        if let Some(fair) = fair.as_mut() {
            // Charge the tenant its service time (floored so zero-cost
            // cached operations still consume fair share).
            fair.charge(record.client, latency_ns.max(1_000));
        }
        left[record.client] -= 1;
        if contended_open && left[record.client] == 0 {
            contended_open = false;
            report.contended_ns = end_ns - start_ns;
            for (c, t) in report.per_tenant.iter().enumerate() {
                report.contended_bytes[c] = t.bytes_total();
            }
        }
        finish_ns[picked] = Some(end_ns);
        graph.complete(picked);
    }

    // Close the measurement: everything queued reaches the platter.
    engine.set_client(None);
    let _ = fs.sync();
    engine.set_qos(None);
    report.elapsed_ns = clock.now_ns() - start_ns;
    for t in &mut report.per_tenant {
        t.latencies_ns.sort_unstable();
    }
    registry
        .gauge("trace.clients")
        .set(trace.clients as u64);
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
    use engine::{EngineConfig, EngineCore};
    use sim_disk::{Clock, DiskGeometry, SimDisk};
    use std::sync::Arc;
    use vfs::model::ModelFs;

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
}
