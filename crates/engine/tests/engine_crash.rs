//! Integration of the request engine with the real file systems, and the
//! reorder-window crash test: LFS checkpoint recovery must survive a
//! crash that discards writes the queue had reordered (QoS narrowing,
//! coalescing) but not yet persisted.

use std::rc::Rc;
use std::sync::Arc;

use engine::{EngineConfig, EngineCore, EngineDisk, QosClass, QosSpec};
use ffs_baseline::{Ffs, FfsConfig};
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{Clock, CrashPlan, DiskGeometry, DiskError, SimDisk};
use vfs::{FileSystem, FsError};

/// A fresh engine over an 8 MB tiny-test disk.
fn engine() -> (std::rc::Rc<std::cell::RefCell<EngineCore>>, Arc<Clock>) {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
    let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
    (core, clock)
}

/// The durability query through the engine: a queued write is not
/// durable until the pumped queue has serviced it and its finish time
/// has passed; asking never moves the clock.
#[test]
fn queued_writes_become_durable_once_serviced_by_now() {
    use sim_disk::BlockDevice;
    let (core, clock) = engine();
    let mut dev = EngineDisk::new(Rc::clone(&core));
    assert!(dev.writes_durable(), "an idle engine holds nothing");
    dev.write(0, &[1; 4096], false).unwrap();
    assert!(!dev.writes_durable(), "the write is still queued");
    assert_eq!(clock.now_ns(), 0, "the query never waits");
    clock.advance_ns(1_000_000_000);
    assert!(dev.writes_durable(), "the pump serviced it a second ago");
    assert_eq!(core.borrow().queue_len(), 0);
    dev.write(64, &[2; 4096], false).unwrap();
    dev.flush().unwrap();
    assert!(dev.writes_durable());
}

#[test]
fn lfs_round_trips_through_the_engine() {
    let (core, clock) = engine();
    let dev = EngineDisk::new(Rc::clone(&core));
    let mut fs = Lfs::format(dev, LfsConfig::small_test(), clock).unwrap();

    for i in 0..24 {
        fs.write_file(&format!("/f{i:02}"), &vec![i as u8; 1500]).unwrap();
    }
    fs.sync().unwrap();
    for i in 0..24 {
        assert_eq!(fs.read_file(&format!("/f{i:02}")).unwrap(), vec![i as u8; 1500]);
    }
    let report = fs.fsck().unwrap();
    assert!(report.is_clean(), "fsck found problems:\n{report}");

    // The engine actually sat in the I/O path: it scheduled completions,
    // and after the final sync nothing is left queued.
    let registry = fs.obs().clone();
    assert!(registry.counter("engine.sched_decisions").get() > 0);
    assert_eq!(core.borrow().disk().pending_len(), 0);
}

#[test]
fn ffs_round_trips_through_the_engine() {
    let (core, clock) = engine();
    let dev = EngineDisk::new(Rc::clone(&core));
    let mut fs = Ffs::format(dev, FfsConfig::small_test(), clock).unwrap();

    fs.mkdir("/d").unwrap();
    for i in 0..16 {
        fs.write_file(&format!("/d/f{i:02}"), &vec![0xA0 | i as u8; 900]).unwrap();
    }
    fs.sync().unwrap();
    for i in 0..16 {
        assert_eq!(fs.read_file(&format!("/d/f{i:02}")).unwrap(), vec![0xA0 | i as u8; 900]);
    }
    assert_eq!(core.borrow().disk().pending_len(), 0);
}

/// The satellite crash test: with QoS narrowing + coalescing reordering
/// queued writes (two tenants, one latency-class, alternating files), a
/// crash that loses the whole reorder window (every write the queue was
/// still holding) must not damage anything the file system checkpointed
/// before the window opened.
#[test]
fn lfs_checkpoint_recovery_survives_scheduler_reordering() {
    let (core, clock) = engine();
    let dev = EngineDisk::new(Rc::clone(&core));
    let mut fs = Lfs::format(dev, LfsConfig::small_test(), clock).unwrap();

    // Batch 1: durable. sync() drains the engine queue and writes a
    // checkpoint, so this data is on the platter in persistence order.
    for i in 0..12 {
        fs.write_file(&format!("/keep{i:02}"), &vec![0x11 + i as u8; 2048]).unwrap();
    }
    fs.sync().unwrap();
    let durable_writes = core.borrow().disk().stats().writes;
    {
        let mut eng = core.borrow_mut();
        eng.register_clients(2);
        eng.set_qos(Some(QosSpec::uniform(2).with_class(1, QosClass::Latency)));
    }

    // Arm the fault: one persist-order write into batch 2's flush, the
    // disk crashes and the reorder window (every held and still-queued
    // write) is lost. Coalescing merges whole segment streams into very
    // few transfers, so the crash index sits right in the middle of them.
    core.borrow_mut()
        .disk_mut()
        .arm_crash(CrashPlan::reorder_at(durable_writes + 1, 8));

    // Batch 2: large enough to overflow the cache and force several
    // persist-order writes; the crash fires while the queue is
    // reordering them.
    let mut crashed = false;
    for i in 0..40 {
        core.borrow_mut().set_client(Some(i % 2));
        match fs.write_file(&format!("/lost{i:02}"), &vec![0xEE; 2048]) {
            Ok(_) => {}
            Err(FsError::Io(DiskError::Crashed)) => {
                crashed = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    }
    if !crashed {
        match fs.sync() {
            Err(FsError::Io(DiskError::Crashed)) => crashed = true,
            other => panic!("sync should have crashed, got {other:?}"),
        }
    }
    assert!(crashed, "the armed crash plan never fired");
    let snap = core.borrow().disk().obs().snapshot();
    assert!(
        snap.counter("engine.qos_picks") > 0 && snap.counter("engine.coalesced_writes") > 0,
        "nothing reordered the queue before the crash"
    );

    // Pull the surviving platter image out through the engine.
    let dev = fs.into_device();
    drop(dev);
    let disk = Rc::try_unwrap(core)
        .ok()
        .expect("all other engine handles dropped")
        .into_inner()
        .into_disk();
    assert!(disk.has_crashed());
    let geometry = disk.geometry().clone();
    let image = disk.into_image();

    // Recovery: remount from the image. The checkpoint plus roll-forward
    // must yield a clean file system with every batch-1 file intact,
    // regardless of what order the queue persisted batch-2 writes in.
    let clock2 = Clock::new();
    let disk2 = SimDisk::from_image(geometry, Arc::clone(&clock2), image);
    let mut fs2 = Lfs::mount(disk2, LfsConfig::small_test(), clock2).unwrap();
    let report = fs2.fsck().unwrap();
    assert!(report.is_clean(), "fsck after crash recovery:\n{report}");
    for i in 0..12 {
        assert_eq!(
            fs2.read_file(&format!("/keep{i:02}")).unwrap(),
            vec![0x11 + i as u8; 2048],
            "checkpointed file /keep{i:02} damaged by the crash"
        );
    }
}
