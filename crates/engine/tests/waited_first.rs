//! The pick rule's two classes: a request someone is blocked on (a read,
//! a started sync write) goes before any background write-back, and the
//! write-back still lands.
//!
//! 1. A sync read submitted behind a backlog of aged async writes waits
//!    for at most the write already in service — the backlog's age does
//!    not let it jump the read.
//! 2. Over arbitrary mixes of async writes, sync reads, sync writes and
//!    flushes, reads return what a `RamDisk` model holds, every write
//!    lands, the two class wait counters partition the disk's queue
//!    wait, and a waited request waits for at most the request in
//!    service — within the aging bound.

use std::sync::Arc;

use proptest::prelude::*;

use engine::{EngineConfig, EngineCore};
use sim_disk::{BlockDevice, Clock, DiskGeometry, RamDisk, SimDisk, SECTOR_SIZE};

const DEV_SECTORS: u64 = 256;

fn rig(cfg: EngineConfig) -> (EngineCore, Arc<Clock>) {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Arc::clone(&clock));
    (EngineCore::new(disk, cfg), clock)
}

/// The longest one request can occupy the head on this rig: a full
/// stroke, two rotations, and a transfer of the whole device (no
/// coalesced write can be longer).
fn worst_service_ns(core: &EngineCore) -> u64 {
    let geo = core.disk().geometry().clone();
    geo.max_seek_ns + 2 * geo.rotation_ns + geo.transfer_ns(geo.capacity_bytes())
}

#[test]
fn a_read_waits_only_for_the_write_in_service() {
    let max_wait_ns = 500_000;
    let (mut core, clock) = rig(EngineConfig::default()
        .with_max_wait_ns(max_wait_ns)
        .with_coalesce(false));
    let registry = core.disk().obs().clone();
    // Eight 12 KB write-backs, over a millisecond of head time each.
    for i in 0..8u64 {
        core.submit_async_write(i * 28, &vec![i as u8; 24 * SECTOR_SIZE])
            .unwrap();
    }
    // Past the aging bound: the first write is in service, the other
    // seven have waited longer than `max_wait_ns`.
    clock.advance_to_ns(2 * max_wait_ns);
    core.pump().unwrap();
    let queued = core.disk().pending_len();
    let in_service_until = core.disk().busy_until_ns();
    assert_eq!(
        queued, 7,
        "the backlog is queued behind one write in service"
    );
    assert!(in_service_until > clock.now_ns());

    let mut buf = vec![0u8; 8 * SECTOR_SIZE];
    core.do_read(240, &mut buf).unwrap();
    assert_eq!(
        core.disk().pending_len(),
        queued,
        "a queued write-back was serviced ahead of the read"
    );
    let wait = registry.gauge("engine.max_waited_wait_ns").get();
    assert_eq!(wait, in_service_until - 2 * max_wait_ns);
    assert_eq!(registry.counter("engine.aged_picks").get(), 0);

    // The write-back still lands.
    core.flush_all().unwrap();
    for i in 0..8u64 {
        let mut got = vec![0u8; 24 * SECTOR_SIZE];
        core.do_read(i * 28, &mut got).unwrap();
        assert!(got.iter().all(|&b| b == i as u8), "write {i} did not land");
    }
}

/// One operation the property issues against the engine.
#[derive(Debug, Clone)]
enum Op {
    WriteAsync {
        sector: u64,
        sectors: u8,
        fill: u8,
    },
    WriteSync {
        sector: u64,
        sectors: u8,
        fill: u8,
    },
    Read {
        sector: u64,
        sectors: u8,
    },
    /// Think time: queued work becomes servicable in the background.
    Advance {
        dns: u64,
    },
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let span = (0u64..DEV_SECTORS - 32, 1u8..32);
    prop_oneof![
        (span.clone(), any::<u8>()).prop_map(|((sector, sectors), fill)| Op::WriteAsync {
            sector,
            sectors,
            fill
        }),
        (span.clone(), any::<u8>()).prop_map(|((sector, sectors), fill)| Op::WriteSync {
            sector,
            sectors,
            fill
        }),
        span.prop_map(|(sector, sectors)| Op::Read { sector, sectors }),
        (1u64..5_000_000).prop_map(|dns| Op::Advance { dns }),
        Just(Op::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn waited_requests_go_first_and_every_write_lands(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        depth in 1usize..24,
        coalesce in any::<bool>(),
    ) {
        let (mut core, clock) = rig(EngineConfig::default()
            .with_queue_depth(depth)
            .with_coalesce(coalesce));
        // Aging at one worst-case service time: a waited request may sit
        // behind the request in service, never behind the backlog.
        let max_wait_ns = worst_service_ns(&core);
        core.config_mut().max_wait_ns = max_wait_ns;
        let registry = core.disk().obs().clone();
        let mut ram = RamDisk::new(DEV_SECTORS);

        for op in &ops {
            match op {
                Op::WriteAsync { sector, sectors, fill } => {
                    let buf = vec![*fill; *sectors as usize * SECTOR_SIZE];
                    core.submit_async_write(*sector, &buf).unwrap();
                    ram.write(*sector, &buf, false).unwrap();
                }
                Op::WriteSync { sector, sectors, fill } => {
                    let buf = vec![*fill; *sectors as usize * SECTOR_SIZE];
                    core.do_sync_write(*sector, &buf).unwrap();
                    ram.write(*sector, &buf, true).unwrap();
                }
                Op::Read { sector, sectors } => {
                    let len = *sectors as usize * SECTOR_SIZE;
                    let mut got = vec![0u8; len];
                    let mut want = vec![0u8; len];
                    core.do_read(*sector, &mut got).unwrap();
                    ram.read(*sector, &mut want).unwrap();
                    prop_assert_eq!(&got, &want, "read at sector {} diverged", sector);
                }
                Op::Advance { dns } => {
                    clock.advance_to_ns(clock.now_ns() + dns);
                }
                Op::Flush => {
                    core.flush_all().unwrap();
                    prop_assert_eq!(core.disk().pending_len(), 0);
                }
            }
        }
        core.flush_all().unwrap();

        let waited = registry.counter("engine.waited.disk_wait_ns").get();
        let background = registry.counter("engine.background.disk_wait_ns").get();
        prop_assert_eq!(
            waited + background,
            registry.counter("disk.queue_wait_ns").get(),
            "the two classes do not partition the queue wait"
        );
        // At most one waited request is pending at a time here (each is
        // claimed at once), so it waits for the request in service and
        // nothing else: never longer than the longest single service.
        let snap = registry.snapshot();
        let longest_service = ["disk.read_service_ns", "disk.write_service_ns"]
            .iter()
            .filter_map(|h| snap.hist(h).map(|h| h.max))
            .max()
            .unwrap_or(0);
        let worst = registry.gauge("engine.max_waited_wait_ns").get();
        prop_assert!(
            worst <= longest_service && longest_service <= max_wait_ns,
            "a waited request queued {}ns: past the longest service {}ns or the aging bound {}ns",
            worst, longest_service, max_wait_ns
        );

        // Every write landed: the platter equals program order.
        for chunk in 0..(DEV_SECTORS / 8) {
            let mut got = vec![0u8; 8 * SECTOR_SIZE];
            let mut want = vec![0u8; 8 * SECTOR_SIZE];
            core.do_read(chunk * 8, &mut got).unwrap();
            ram.read(chunk * 8, &mut want).unwrap();
            prop_assert_eq!(&got, &want, "platter diverged in chunk {}", chunk);
        }
    }
}

/// A later async write that ends where a started sync write begins
/// coalesces only as the *back* of a merge, and a merge keeps the front
/// id: merging the awaited write away would leave `finish_write`
/// claiming an id no longer in the queue. The awaited write stays
/// queued on its own, its claim completes, and both writes land.
#[test]
fn an_awaited_write_is_never_merged_away() {
    let (mut core, clock) = rig(EngineConfig::default());
    // Head busy: a long write-back in service, so the next writes queue.
    core.submit_async_write(100, &vec![9u8; 64 * SECTOR_SIZE])
        .unwrap();
    clock.advance_to_ns(1_000);
    core.pump().unwrap();
    assert!(
        core.disk().busy_until_ns() > clock.now_ns(),
        "the head is not busy"
    );
    let awaited = core.start_sync_write(8, &[1u8; SECTOR_SIZE]).unwrap();
    core.submit_async_write(7, &[2u8; SECTOR_SIZE]).unwrap();
    core.finish_write(awaited).unwrap();
    core.flush_all().unwrap();

    let mut got = vec![0u8; 2 * SECTOR_SIZE];
    core.do_read(7, &mut got).unwrap();
    assert!(
        got[..SECTOR_SIZE].iter().all(|&b| b == 2),
        "the async write did not land"
    );
    assert!(
        got[SECTOR_SIZE..].iter().all(|&b| b == 1),
        "the awaited write did not land"
    );
}
