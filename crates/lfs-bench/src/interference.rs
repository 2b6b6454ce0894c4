//! Closed-loop overwrite churn with the cleaner as another engine
//! client.
//!
//! The workload keeps a fixed set of live files (slots) and overwrites
//! them continuously, so dead blocks accumulate in old segments exactly
//! as in the paper's sustained-use scenario (§4.3) and the cleaner must
//! keep reclaiming space for the log to survive. The driver extends the
//! `mt_scaling` closed-loop client model with one extra dispatchable
//! actor: when the caller hosts a [`CleanerTask`], the loop
//! ([`engine::run_schedule`]) offers it steps before the next foreground
//! client becomes ready. Cleaner I/O therefore competes in the same
//! request queues as the foreground clients, and per-operation
//! foreground latencies — collected exactly, for precise percentiles —
//! expose the interference.

use engine::{drain, jittered_think_ns, run_schedule, Maintenance, RequestEngine, Schedule};
use lfs_core::{CleanerTask, Lfs};
use sim_disk::BlockDevice;
use vfs::{FileSystem, FsResult};
use workload::payload;

/// Parameters of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of closed-loop foreground clients.
    pub clients: usize,
    /// Overwrites each client performs in the measured phase.
    pub ops_per_client: usize,
    /// Total live files, distributed round-robin across clients. The
    /// live set (`total_slots * file_size`) is what the cleaner must
    /// copy forward, so it sets the disk's steady-state utilization.
    pub total_slots: usize,
    /// Size of every slot file in bytes.
    pub file_size: usize,
    /// Mean think time between a client's operations (±25% jitter).
    pub think_ns: u64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

/// Outcome of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Foreground operations completed in the measured phase.
    pub total_ops: u64,
    /// Virtual time of the measured phase, in nanoseconds.
    pub elapsed_ns: u64,
    /// Exact median foreground operation latency.
    pub p50_ns: u64,
    /// Exact 99th-percentile foreground operation latency.
    pub p99_ns: u64,
    /// Worst foreground operation latency.
    pub max_ns: u64,
    /// Cleaner steps taken by the driver during the measured phase.
    pub cleaner_steps: u64,
}

impl ChurnOutcome {
    /// Foreground throughput in operations per second of virtual time.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// `client`'s slot path on its `op`-th operation, cycling over its own.
fn slot_path(cfg: &ChurnConfig, client: usize, op: usize) -> String {
    let owned = (cfg.total_slots - client).div_ceil(cfg.clients);
    let slot = client + (op % owned) * cfg.clients;
    format!("/d{client:02}/s{slot:04}")
}

/// Runs the overwrite-churn workload: a fill phase creating every slot
/// (system-attributed, unmeasured), then `clients * ops_per_client`
/// measured overwrites dispatched earliest-ready-first, with `cleaner`
/// (when given) offered steps as client id `cfg.clients` whenever its
/// policy wants one. Without one, cleaning happens only at the floor,
/// inside foreground operations. Ends by draining any in-progress
/// cleaner run and syncing.
pub fn run_overwrite_churn<D: BlockDevice>(
    fs: &mut Lfs<D>,
    core: &impl RequestEngine,
    cfg: &ChurnConfig,
    mut cleaner: Option<&mut CleanerTask>,
) -> FsResult<ChurnOutcome> {
    assert!(cfg.clients > 0, "at least one client");
    assert!(cfg.total_slots >= cfg.clients, "a slot per client");
    let clock = core.clock();
    let payloads: Vec<Vec<u8>> = (0..cfg.clients)
        .map(|c| payload(cfg.seed ^ ((c as u64) << 8), cfg.file_size))
        .collect();

    // Fill: every slot exists and is live before measurement starts.
    core.set_client(None);
    core.register_clients(cfg.clients + 1);
    for c in 0..cfg.clients {
        match fs.mkdir(&format!("/d{c:02}")) {
            Ok(_) | Err(vfs::FsError::AlreadyExists) => {}
            Err(e) => return Err(e),
        }
    }
    for slot in 0..cfg.total_slots {
        let c = slot % cfg.clients;
        fs.write_file(&format!("/d{c:02}/s{slot:04}"), &payloads[c])?;
    }
    fs.sync()?;

    let start_ns = clock.now_ns();
    let mut latencies = Vec::with_capacity(cfg.clients * cfg.ops_per_client);
    let mut cleaner_steps = run_schedule(
        fs,
        core,
        &mut Schedule::closed_loop(&vec![cfg.ops_per_client; cfg.clients], |c, op| {
            jittered_think_ns(cfg.seed, c, op, cfg.think_ns)
        }),
        None,
        cleaner
            .as_deref_mut()
            .map(|task| (task as &mut dyn Maintenance<Lfs<D>>, Some(cfg.clients))),
        |fs, turn| {
            // Overwrite in place: truncate kills every old block (they become
            // cleanable garbage), the rewrite appends fresh ones at the head.
            let c = turn.client;
            let ino = fs.lookup(&slot_path(cfg, c, turn.op))?;
            fs.truncate(ino, 0)?;
            let mut written = 0;
            while written < cfg.file_size {
                written += fs.write_at(ino, written as u64, &payloads[c][written..])?;
            }
            latencies.push(turn.elapsed_ns());
            Ok(())
        },
    )?;

    // Close the measurement: finish the cleaner's in-progress run (so
    // its relocations are committed, not parked), then drain every
    // queued write.
    core.set_client(None);
    if let Some(task) = cleaner {
        cleaner_steps += drain(task, fs)?;
    }
    fs.sync()?;
    let elapsed_ns = clock.now_ns() - start_ns;

    let agg_hist = fs.obs().hist("interference.fg_op_ns");
    for &ns in &latencies {
        agg_hist.record(ns);
    }
    latencies.sort_unstable();
    Ok(ChurnOutcome {
        total_ops: latencies.len() as u64,
        elapsed_ns,
        p50_ns: trace::percentile_ns(&latencies, 50.0),
        p99_ns: trace::percentile_ns(&latencies, 99.0),
        max_ns: *latencies.last().unwrap_or(&0),
        cleaner_steps,
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::rc::Rc;
    use std::sync::Arc;

    use engine::{EngineConfig, EngineCore, EngineDisk};
    use lfs_core::{Lfs, LfsConfig};
    use sim_disk::{Clock, DiskGeometry, SimDisk};

    use super::{run_overwrite_churn, slot_path, ChurnConfig};

    /// Ten slots over four clients: clients 0 and 1 own three each
    /// (`s0000`, `s0004`, `s0008`; `s0001`, `s0005`, `s0009`), clients 2
    /// and 3 two. Every client overwrites only its own files, so the
    /// run completes.
    #[test]
    fn churn_cycles_over_each_clients_own_slots() {
        let cfg = ChurnConfig {
            clients: 4,
            ops_per_client: 6,
            total_slots: 10,
            file_size: 1024,
            think_ns: 1_000_000,
            seed: 7,
        };
        let owned: Vec<BTreeSet<String>> = (0..cfg.clients)
            .map(|c| {
                (0..cfg.ops_per_client)
                    .map(|op| slot_path(&cfg, c, op))
                    .collect()
            })
            .collect();
        for (c, paths) in owned.iter().enumerate() {
            for path in paths {
                let slot: usize = path[path.len() - 4..].parse().unwrap();
                assert!(path.starts_with(&format!("/d{c:02}/")), "{path}");
                assert_eq!(
                    (slot % cfg.clients, slot < cfg.total_slots),
                    (c, true),
                    "{path}"
                );
            }
        }
        let counts: Vec<usize> = owned.iter().map(BTreeSet::len).collect();
        assert_eq!(counts, [3, 3, 2, 2]);

        let clock = Clock::new();
        let disk = SimDisk::new(DiskGeometry::tiny_test(4096), Arc::clone(&clock));
        let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
        let dev = EngineDisk::new(Rc::clone(&core));
        let mut fs = Lfs::format(dev, LfsConfig::small_test(), clock).expect("format");
        let outcome = run_overwrite_churn(&mut fs, &core, &cfg, None).expect("churn run");
        assert_eq!(outcome.total_ops, 24);
    }
}
