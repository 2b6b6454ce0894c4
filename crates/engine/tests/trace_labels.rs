//! An access-trace label stays with the request it was set for, however
//! long that request queues: the engine services queued work ahead of a
//! caller's read, and that work keeps its own label.

use std::rc::Rc;
use std::sync::Arc;

use engine::{EngineConfig, EngineCore, EngineDisk};
use sim_disk::{AccessKind, BlockDevice, Clock, DiskGeometry, SimDisk, SECTOR_SIZE};

#[test]
fn a_queued_write_keeps_its_label_when_a_read_drains_it() {
    let clock = Clock::new();
    let mut disk = SimDisk::new(DiskGeometry::tiny_test(4096), Arc::clone(&clock));
    disk.trace_mut().enable();
    let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
    let mut dev = EngineDisk::new(Rc::clone(&core));

    dev.annotate("log-chunk");
    dev.write(100, &[7u8; 8 * SECTOR_SIZE], false).unwrap();
    assert_eq!(core.borrow().disk().pending_len(), 1, "the write is queued");
    // Overlapping but not contained: the queued write must land first.
    let mut buf = vec![0u8; 16 * SECTOR_SIZE];
    dev.annotate("file-data");
    dev.read(96, &mut buf).unwrap();
    assert_eq!(
        &buf[4 * SECTOR_SIZE..12 * SECTOR_SIZE],
        &[7u8; 8 * SECTOR_SIZE]
    );
    // A read the queue answers submits nothing and drops its label.
    dev.write(200, &[9u8; 8 * SECTOR_SIZE], false).unwrap();
    dev.annotate("file-data");
    dev.read(200, &mut buf[..8 * SECTOR_SIZE]).unwrap();
    dev.flush().unwrap();

    let core = core.borrow();
    let seen: Vec<(AccessKind, u64, &str)> = core
        .disk()
        .trace()
        .records()
        .iter()
        .map(|r| (r.kind, r.sector, r.label))
        .collect();
    assert_eq!(
        seen,
        [
            (AccessKind::Write, 100, "log-chunk"),
            (AccessKind::Read, 96, "file-data"),
            (AccessKind::Write, 200, ""),
        ]
    );
}
