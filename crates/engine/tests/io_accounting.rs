//! Per-class I/O byte accounting closes exactly over a cleaner-heavy
//! run: every byte the device transferred (or absorbed in queue) is
//! attributed to exactly one class — foreground client, maintenance
//! (the async cleaner), or system — and nothing is counted twice.
//!
//! This is the regression fence for the maintenance class: a cleaner
//! code path that issues I/O without the maintenance tag (or a tag left
//! on across a foreground operation) shifts bytes between accounts and
//! breaks the identity, even though every functional test still passes.

use std::rc::Rc;
use std::sync::Arc;

use engine::{drain, EngineConfig, EngineCore, EngineDisk, Maintenance, RequestEngine};
use lfs_core::{AsyncCleanerPolicy, CleanerTask, Lfs, LfsConfig};
use sim_disk::{Clock, DiskGeometry, SimDisk};
use vfs::{FileSystem, FsError};

#[test]
fn class_accounts_cover_every_device_byte() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(4096), Arc::clone(&clock));
    let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
    let dev = EngineDisk::new(Rc::clone(&core));
    let mut fs = Lfs::format(dev, LfsConfig::small_test(), clock).unwrap();
    let mut cleaner = CleanerTask::new(
        AsyncCleanerPolicy::default()
            .with_watermarks(1 << 16, 1 << 17)
            .with_step_caps(2, 4),
    );
    let registry = fs.obs().clone();
    core.register_clients(1);

    // Churn as client 0: blobs big enough to overflow the cache, so
    // overwrites reach the disk and manufacture garbage; the cleaner is
    // offered steps between rounds and re-tags its own I/O maintenance.
    let blob = vec![0x5Au8; 20_000];
    for round in 0..120 {
        core.set_client(Some(0));
        let path = format!("/blob{}", round % 4);
        match fs.lookup(&path) {
            Ok(ino) => {
                fs.truncate(ino, 0).unwrap();
                let mut written = 0;
                while written < blob.len() {
                    written += fs.write_at(ino, written as u64, &blob[written..]).unwrap();
                }
            }
            Err(FsError::NotFound) => {
                fs.write_file(&path, &blob).unwrap();
            }
            Err(e) => panic!("round {round}: {e}"),
        }
        core.set_client(None);
        for _ in 0..8 {
            if !cleaner.wants_step(&fs, core.queue_depth()) {
                break;
            }
            cleaner.step(&mut fs).unwrap();
        }
    }
    core.set_client(None);
    drain(&mut cleaner, &mut fs).unwrap();
    fs.sync().unwrap();
    assert_eq!(core.queue_depth(), 0, "sync left requests queued");

    let client = registry.counter("engine.io_bytes.client").get();
    let maintenance = registry.counter("engine.io_bytes.maintenance").get();
    let system = registry.counter("engine.io_bytes.system").get();
    let absorbed = registry.counter("engine.absorbed_bytes").get();
    let read_hits = registry.counter("engine.queue_read_hit_bytes").get();
    let stats = core.borrow().disk().stats();

    // The run must exercise all three classes, or the identity below
    // could hold vacuously with a mis-tagged account pinned at zero.
    assert!(client > 0, "foreground churn moved no client bytes");
    assert!(
        maintenance > 0,
        "the async cleaner moved no maintenance bytes"
    );
    assert!(system > 0, "format/sync moved no system bytes");
    assert!(
        fs.stats().segments_cleaned > 0,
        "churn never made the cleaner clean a segment"
    );

    // The identity: every submitted byte either reached the platter, was
    // absorbed by an identical queued write, or was a read served from
    // the queue — and each is attributed to exactly one class.
    assert_eq!(
        client + maintenance + system,
        stats.bytes_read + stats.bytes_written + absorbed + read_hits,
        "class accounts (client {client} + maintenance {maintenance} + \
         system {system}) != device bytes (read {} + written {} + \
         absorbed {absorbed} + queue hits {read_hits})",
        stats.bytes_read,
        stats.bytes_written,
    );

    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "final fsck:\n{report}");
}
