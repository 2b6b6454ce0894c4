//! The multi-client small-file create workload.
//!
//! N closed-loop clients share one file system mounted on an
//! [`EngineDisk`](crate::EngineDisk), dispatched by
//! [`run_closed_loop`]: each client thinks (a deterministic jittered
//! delay that does *not* advance the shared clock — clients overlap),
//! then creates its next file, which advances the clock by the
//! operation's latency (CPU charges plus any synchronous disk waits).
//!
//! The run uses *strong scaling*: a fixed total number of files is split
//! evenly across clients, so every client count performs identical total
//! work against identically-sized directories, and throughput differences
//! measure concurrency alone.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use obs::Registry;
use sim_disk::{Clock, DiskResult};
use vfs::{FileSystem, FsResult};
use workload::small_files::SmallFileSpec;
use workload::payload;

use crate::driver::{run_closed_loop, LoopReport};
use crate::qos::QosSpec;
use crate::queue::EngineCore;

/// What the multi-client event loop needs from a request engine: the
/// shared clock, lazy background progress, and client attribution.
///
/// Implemented by a shared [`EngineCore`] (one spindle) and by
/// multi-spindle volumes that fan each call out to every spindle, so
/// the same event loop drives both.
pub trait RequestEngine {
    /// The shared virtual clock.
    fn clock(&self) -> Arc<Clock>;
    /// Lazily services queued requests whose start time has passed.
    fn pump(&self) -> DiskResult<()>;
    /// Attributes subsequent submissions to `client` (`None` = system
    /// work such as format or setup).
    fn set_client(&self, client: Option<usize>);
    /// Creates per-client queue-wait counters for clients `0..n`.
    fn register_clients(&self, n: usize);
    /// Total requests currently pending across the engine's queues — the
    /// idle signal for idle-gated maintenance such as async cleaning.
    fn queue_depth(&self) -> u64;
    /// Installs (or clears) a per-client QoS spec on every queue the
    /// engine schedules. The default does nothing, so engines without a
    /// QoS-aware queue keep compiling.
    fn set_qos(&self, _spec: Option<QosSpec>) {}
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

/// Parameters of a multi-client small-file run.
#[derive(Debug, Clone)]
pub struct MultiClientConfig {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Files each client creates (strong scaling: pass
    /// `total / clients`).
    pub files_per_client: usize,
    /// Size of each file in bytes.
    pub file_size: usize,
    /// Mean think time between a client's operations, in nanoseconds.
    pub think_ns: u64,
    /// Seed for the deterministic think-time jitter (±25%).
    pub seed: u64,
}

impl MultiClientConfig {
    /// A config with the default pacing (0.6 ms mean think time).
    pub fn new(clients: usize, files_per_client: usize, file_size: usize) -> Self {
        Self {
            clients,
            files_per_client,
            file_size,
            think_ns: 600_000,
            seed: 0x5EED,
        }
    }

    /// Sets the mean think time.
    pub fn with_think_ns(mut self, think_ns: u64) -> Self {
        self.think_ns = think_ns;
        self
    }
}

/// One client's outcome.
#[derive(Debug, Clone)]
pub struct ClientSummary {
    /// Client id.
    pub client: usize,
    /// Operations completed.
    pub ops: u64,
    /// Sum of operation latencies, in nanoseconds.
    pub total_latency_ns: u64,
    /// Worst single operation latency, in nanoseconds.
    pub max_latency_ns: u64,
}

/// Outcome of a multi-client run.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Number of clients.
    pub clients: usize,
    /// Total operations across all clients.
    pub total_ops: u64,
    /// Virtual time from first dispatch to final sync, in nanoseconds.
    pub elapsed_ns: u64,
    /// Per-client outcomes, indexed by client id.
    pub per_client: Vec<ClientSummary>,
}

impl MultiReport {
    /// Folds a finished closed-loop `run` into a report, recording the
    /// aggregate (`engine.op_ns`) and per-client (`engine.cNNN.op_ns`)
    /// latency histograms plus the client-count and fairness gauges.
    /// `end_ns` is the virtual time the measurement closed.
    pub(crate) fn publish(
        registry: &Registry,
        clients: usize,
        run: &LoopReport,
        end_ns: u64,
    ) -> MultiReport {
        let agg_hist = registry.hist("engine.op_ns");
        let client_hists: Vec<_> = (0..clients)
            .map(|c| {
                (clients <= obs::PER_CLIENT_INSTRUMENTS_MAX)
                    .then(|| registry.hist(&format!("engine.c{c:03}.op_ns")))
            })
            .collect();
        let mut per_client: Vec<ClientSummary> = (0..clients)
            .map(|client| ClientSummary {
                client,
                ops: 0,
                total_latency_ns: 0,
                max_latency_ns: 0,
            })
            .collect();
        for &(c, latency_ns) in &run.latencies {
            agg_hist.record(latency_ns);
            if let Some(h) = &client_hists[c] {
                h.record(latency_ns);
            }
            per_client[c].ops += 1;
            per_client[c].total_latency_ns += latency_ns;
            per_client[c].max_latency_ns = per_client[c].max_latency_ns.max(latency_ns);
        }
        let report = MultiReport {
            clients,
            total_ops: run.latencies.len() as u64,
            elapsed_ns: end_ns - run.start_ns,
            per_client,
        };
        registry.gauge("engine.clients").set(clients as u64);
        registry
            .gauge("engine.fairness_millis")
            .set(report.fairness_millis());
        report
    }

    /// Aggregate throughput in operations per second of virtual time.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Jain's fairness index over per-client mean latencies, scaled by
    /// 1000 (1000 = perfectly fair, 1000/n = one client hogs).
    pub fn fairness_millis(&self) -> u64 {
        let means: Vec<f64> = self
            .per_client
            .iter()
            .filter(|c| c.ops > 0)
            .map(|c| c.total_latency_ns as f64 / c.ops as f64)
            .collect();
        if means.is_empty() {
            return 1000;
        }
        let sum: f64 = means.iter().sum();
        let sum_sq: f64 = means.iter().map(|m| m * m).sum();
        if sum_sq == 0.0 {
            return 1000;
        }
        ((sum * sum) / (means.len() as f64 * sum_sq) * 1000.0) as u64
    }
}

/// Deterministic jittered think time: `mean` ±25%, keyed by
/// `(seed, client, op)`. The closed-loop drivers in this crate and in
/// `lfs-bench` all pace their clients with it.
pub fn jittered_think_ns(seed: u64, client: usize, op: usize, mean: u64) -> u64 {
    let mut x = seed
        ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (op as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    mean * (75 + x % 51) / 100
}

/// Runs the create phase of the shared-directory small-file workload
/// with `cfg.clients` concurrent clients, recording per-client latency
/// histograms (`engine.cNNN.op_ns`), the aggregate histogram
/// (`engine.op_ns`), and a fairness gauge into `registry`.
///
/// The file system must be mounted on a device backed by `core` — an
/// [`crate::EngineDisk`] over a shared [`EngineCore`], or any other
/// [`RequestEngine`] such as a striped volume (the loop pumps the
/// engine and attributes submissions to the dispatched client).
pub fn run_small_file_create<F: FileSystem>(
    fs: &mut F,
    core: &impl RequestEngine,
    registry: &Registry,
    cfg: &MultiClientConfig,
) -> FsResult<MultiReport> {
    assert!(cfg.clients > 0, "at least one client");
    let clock = core.clock();
    let specs: Vec<SmallFileSpec> = (0..cfg.clients)
        .map(|c| SmallFileSpec::for_client(c, cfg.files_per_client, cfg.file_size))
        .collect();
    let payloads: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| payload(s.seed, s.file_size))
        .collect();

    // Setup: the shared directory, unattributed to any client.
    core.set_client(None);
    fs.set_active_client(None);
    core.register_clients(cfg.clients);
    for d in 0..specs[0].ndirs() {
        match fs.mkdir(&specs[0].dir(d)) {
            Ok(_) | Err(vfs::FsError::AlreadyExists) => {}
            Err(e) => return Err(e),
        }
    }
    fs.sync()?;

    let run = run_closed_loop(
        fs,
        core,
        &vec![cfg.files_per_client; cfg.clients],
        |c, op| jittered_think_ns(cfg.seed, c, op, cfg.think_ns),
        None,
        |fs, turn| {
            fs.set_active_client(Some(turn.client as u32));
            fs.write_file(&specs[turn.client].path(turn.op), &payloads[turn.client])?;
            Ok(())
        },
    )?;

    // Close the measurement: drain every queued write.
    core.set_client(None);
    fs.set_active_client(None);
    fs.sync()?;
    Ok(MultiReport::publish(registry, cfg.clients, &run, clock.now_ns()))
}
