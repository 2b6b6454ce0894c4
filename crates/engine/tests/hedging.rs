//! Per-request latency deadlines and the hedge hook: the engine
//! predicts a pending read's completion, reports budget blowouts to the
//! owner, and lets the loser of a hedged race be drained without
//! charging the foreground clock.

use std::rc::Rc;
use std::sync::Arc;

use engine::{EngineConfig, EngineCore, EngineDisk, ReadHandle};
use sim_disk::{
    BlockDevice, Clock, DiskGeometry, FailSlowProfile, MediaFaultPlan, SimDisk, SECTOR_SIZE,
};

fn engine(cfg: EngineConfig) -> (Rc<std::cell::RefCell<EngineCore>>, Arc<Clock>) {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
    let core = EngineCore::new(disk, cfg).into_shared();
    (core, clock)
}

/// Predicted read latency for a single queued random read on this
/// geometry (used to pick deadlines on either side of it).
fn predicted_read_ns(core: &Rc<std::cell::RefCell<EngineCore>>, sector: u64) -> u64 {
    let eng = core.borrow();
    let start = eng.disk().busy_until_ns().max(eng.clock().now_ns());
    eng.disk().estimate_service_ns(start, sector, SECTOR_SIZE as u64)
}

#[test]
fn hedge_never_fires_on_a_healthy_disk_with_a_sane_deadline() {
    let (core, _clock) = engine(EngineConfig::default());
    let mut dev = EngineDisk::new(Rc::clone(&core));
    dev.write(100, &vec![7; SECTOR_SIZE], true).unwrap();

    // Deadline 10x the healthy service estimate: never overdue.
    let deadline = 10 * predicted_read_ns(&core, 100);
    core.borrow_mut().config_mut().hedge_deadline_ns = Some(deadline);

    let handle = core.borrow_mut().start_read(100, SECTOR_SIZE).unwrap();
    let ReadHandle::Pending { id, .. } = handle else {
        panic!("expected a queued read");
    };
    assert!(!core.borrow_mut().hedge_overdue(id));
    let mut buf = vec![0u8; SECTOR_SIZE];
    core.borrow_mut().finish_read(handle, &mut buf).unwrap();
    assert_eq!(buf, vec![7; SECTOR_SIZE]);
    let snap = core.borrow().disk().obs().snapshot();
    assert_eq!(snap.counter("engine.hedges"), 0, "vacuity: healthy disk");
    assert_eq!(snap.counter("engine.hedge_wins"), 0);
}

#[test]
fn hedge_fires_on_a_fail_slow_disk_and_counts_once_per_report() {
    let (core, _clock) = engine(EngineConfig::default());
    let mut dev = EngineDisk::new(Rc::clone(&core));
    dev.write(100, &vec![9; SECTOR_SIZE], true).unwrap();

    // Deadline 2x healthy; then a 10x fail-slow multiplier blows it.
    let deadline = 2 * predicted_read_ns(&core, 100);
    core.borrow_mut().config_mut().hedge_deadline_ns = Some(deadline);
    core.borrow_mut().disk_mut().inject_media_faults(
        MediaFaultPlan::new(0).fail_slow(FailSlowProfile::at(0).with_multiplier_pct(1000)),
    );

    let handle = core.borrow_mut().start_read(100, SECTOR_SIZE).unwrap();
    let ReadHandle::Pending { id, .. } = handle else {
        panic!("expected a queued read");
    };
    assert!(core.borrow_mut().hedge_overdue(id));
    let snap = core.borrow().disk().obs().snapshot();
    assert_eq!(snap.counter("engine.hedges"), 1);

    // The original stays in flight and still returns correct bytes.
    let mut buf = vec![0u8; SECTOR_SIZE];
    core.borrow_mut().finish_read(handle, &mut buf).unwrap();
    assert_eq!(buf, vec![9; SECTOR_SIZE]);
}

#[test]
fn hedge_is_off_without_a_deadline_even_under_fail_slow() {
    let (core, _clock) = engine(EngineConfig::default());
    let mut dev = EngineDisk::new(Rc::clone(&core));
    dev.write(50, &vec![1; SECTOR_SIZE], true).unwrap();
    core.borrow_mut().disk_mut().inject_media_faults(
        MediaFaultPlan::new(0).fail_slow(FailSlowProfile::at(0).with_multiplier_pct(1000)),
    );
    let handle = core.borrow_mut().start_read(50, SECTOR_SIZE).unwrap();
    let ReadHandle::Pending { id, .. } = handle else {
        panic!("expected a queued read");
    };
    assert!(!core.borrow_mut().hedge_overdue(id));
    assert_eq!(
        core.borrow().disk().obs().snapshot().counter("engine.hedges"),
        0
    );
    let mut buf = vec![0u8; SECTOR_SIZE];
    core.borrow_mut().finish_read(handle, &mut buf).unwrap();
}

#[test]
fn drain_read_completes_without_advancing_the_clock() {
    let (core, clock) = engine(EngineConfig::default());
    let mut dev = EngineDisk::new(Rc::clone(&core));
    dev.write(200, &vec![4; SECTOR_SIZE], true).unwrap();

    let handle = core.borrow_mut().start_read(200, SECTOR_SIZE).unwrap();
    let ReadHandle::Pending { id, .. } = handle else {
        panic!("expected a queued read");
    };
    let predicted = core.borrow().estimated_finish_ns(id).unwrap();
    let before = clock.now_ns();
    let done = core.borrow_mut().drain_read(id).unwrap();
    assert_eq!(clock.now_ns(), before, "drain must not charge the caller");
    assert_eq!(done.finish_ns, predicted, "the estimate was exact");
    assert!(done.finish_ns > before, "the work still happened in the future");
    assert_eq!(done.data.as_deref(), Some(&vec![4; SECTOR_SIZE][..]));
    // The spindle's busy horizon reflects the drained work: a later
    // request queues behind it.
    assert!(core.borrow().disk().busy_until_ns() >= done.finish_ns);
}

#[test]
fn estimated_finish_covers_background_serviced_reads() {
    let (core, _clock) = engine(EngineConfig::default());
    let mut dev = EngineDisk::new(Rc::clone(&core));
    dev.write(10, &vec![2; SECTOR_SIZE], true).unwrap();
    dev.write(20, &vec![3; SECTOR_SIZE], true).unwrap();

    // Two reads queued; draining one may service the other in the
    // background (policy order), parking it in the unclaimed stash.
    let ha = core.borrow_mut().start_read(10, SECTOR_SIZE).unwrap();
    let hb = core.borrow_mut().start_read(20, SECTOR_SIZE).unwrap();
    let (ReadHandle::Pending { id: a, .. }, ReadHandle::Pending { id: b, .. }) = (ha, hb) else {
        panic!("expected queued reads");
    };
    core.borrow_mut().drain_read(b).unwrap();
    // Whether `a` was background-serviced (stash branch) or is next up
    // from the post-drain head position, its estimate is now exact.
    let est_a = core.borrow().estimated_finish_ns(a).unwrap();
    let done_a = core.borrow_mut().drain_read(a).unwrap();
    assert_eq!(done_a.finish_ns, est_a);
    assert_eq!(done_a.data.as_deref(), Some(&vec![2; SECTOR_SIZE][..]));
}
