//! Property tests for the request engine:
//!
//! 1. Every request submitted through the engine completes exactly once
//!    (absorbed and coalesced requests are accounted, not lost), and the
//!    platter ends up byte-identical to program order.
//! 2. No pick order can starve a request: with a latency-class tenant
//!    flooding the queue (QoS narrowing is the engine's one reorderer),
//!    the bounded-wait aging guarantee caps queue wait at `max_wait_ns`
//!    plus the time to drain a full queue.
//! 3. The multi-client event loop is deterministic and virtual time is
//!    monotone across arbitrary client interleavings.

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use engine::{
    run_small_file_create, EngineConfig, EngineCore, EngineDisk, MultiClientConfig, QosClass,
    QosSpec,
};
use lfs_core::{Lfs, LfsConfig};
use sim_disk::{BlockDevice, Clock, DiskGeometry, RamDisk, SimDisk, SECTOR_SIZE};

const DEV_SECTORS: u64 = 256;

/// One operation the driver issues against the engine.
#[derive(Debug, Clone)]
enum Op {
    WriteAsync { sector: u64, sectors: u8, fill: u8 },
    WriteSync { sector: u64, sectors: u8, fill: u8 },
    Read { sector: u64, sectors: u8 },
    /// Think time: the driver advances the clock without touching the
    /// engine, so queued work becomes servicable in the background.
    Advance { dns: u64 },
    /// Durability barrier.
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let span = (0u64..DEV_SECTORS - 8, 1u8..8);
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
        (1u64..3_000_000).prop_map(|dns| Op::Advance { dns }),
        Just(Op::Flush),
    ]
}

/// A two-tenant engine where tenant 0 is latency-class: while it has a
/// request queued, QoS narrowing never picks tenant 1's — only aging
/// can. Coalescing is off so the victim cannot be merged away.
fn latency_flood_rig(max_wait_ns: u64, depth: usize) -> (EngineCore, Arc<Clock>) {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Arc::clone(&clock));
    let cfg = EngineConfig::default()
        .with_queue_depth(depth)
        .with_max_wait_ns(max_wait_ns)
        .with_coalesce(false);
    let mut core = EngineCore::new(disk, cfg);
    core.register_clients(2);
    core.set_qos(Some(QosSpec::uniform(2).with_class(0, QosClass::Latency)));
    (core, clock)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Exactly-once completion + program-order platter contents, for
    /// arbitrary queue depths and coalescing on or off.
    #[test]
    fn every_submission_completes_exactly_once(
        ops in proptest::collection::vec(op_strategy(), 1..100),
        depth in 1usize..24,
        coalesce in any::<bool>(),
    ) {
        let clock = Clock::new();
        let disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Arc::clone(&clock));
        let cfg = EngineConfig::default()
            .with_queue_depth(depth)
            .with_coalesce(coalesce);
        let mut core = EngineCore::new(disk, cfg);
        let registry = core.disk().obs().clone();
        let mut ram = RamDisk::new(DEV_SECTORS);

        let mut issued = 0u64;
        let mut last_now = clock.now_ns();
        for op in &ops {
            match op {
                Op::WriteAsync { sector, sectors, fill } => {
                    let buf = vec![*fill; *sectors as usize * SECTOR_SIZE];
                    core.submit_async_write(*sector, &buf).unwrap();
                    ram.write(*sector, &buf, false).unwrap();
                    issued += 1;
                }
                Op::WriteSync { sector, sectors, fill } => {
                    let buf = vec![*fill; *sectors as usize * SECTOR_SIZE];
                    core.do_sync_write(*sector, &buf).unwrap();
                    ram.write(*sector, &buf, true).unwrap();
                    issued += 1;
                }
                Op::Read { sector, sectors } => {
                    let len = *sectors as usize * SECTOR_SIZE;
                    let mut got = vec![0u8; len];
                    let mut want = vec![0u8; len];
                    core.do_read(*sector, &mut got).unwrap();
                    ram.read(*sector, &mut want).unwrap();
                    prop_assert_eq!(&got, &want, "read at sector {} diverged", sector);
                    issued += 1;
                }
                Op::Advance { dns } => {
                    clock.advance_to_ns(clock.now_ns() + dns);
                }
                Op::Flush => {
                    core.flush_all().unwrap();
                    prop_assert_eq!(core.disk().pending_len(), 0);
                }
            }
            let now = clock.now_ns();
            prop_assert!(now >= last_now, "virtual time went backwards");
            last_now = now;
        }
        core.flush_all().unwrap();
        prop_assert_eq!(core.disk().pending_len(), 0);

        // Every issued request is accounted exactly once: it completed, was
        // coalesced into a neighbour, was absorbed by an identical queued
        // write, or was a read served straight from the queue.
        let completed = registry.counter("engine.sched_decisions").get();
        let coalesced = registry.counter("engine.coalesced_writes").get();
        let absorbed = registry.counter("engine.absorbed_writes").get();
        let read_hits = registry.counter("engine.queue_read_hits").get();
        prop_assert_eq!(
            completed + coalesced + absorbed + read_hits,
            issued,
            "completions {} + coalesced {} + absorbed {} + read hits {} != issued {}",
            completed, coalesced, absorbed, read_hits, issued
        );

        // Overlapped queueing must not double-count service time.
        let s = core.disk().stats();
        prop_assert_eq!(s.seek_ns + s.rotation_ns + s.transfer_ns, s.busy_ns);

        // The platter equals program order, end to end.
        for chunk in 0..(DEV_SECTORS / 8) {
            let mut got = vec![0u8; 8 * SECTOR_SIZE];
            let mut want = vec![0u8; 8 * SECTOR_SIZE];
            core.do_read(chunk * 8, &mut got).unwrap();
            ram.read(chunk * 8, &mut want).unwrap();
            prop_assert_eq!(&got, &want, "platter diverged in chunk {}", chunk);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Bounded wait: a bulk tenant's request facing a continuous stream
    /// of latency-class traffic (which QoS narrowing always prefers) is
    /// still serviced within `max_wait_ns` plus the time to drain one
    /// full queue (the aging preemption happens at service boundaries,
    /// so up to `depth + 1` already-aged requests may drain ahead of the
    /// worst victim).
    #[test]
    fn no_scheduler_starves_a_request(
        near in proptest::collection::vec((0u64..8, 1u8..4, any::<u8>()), 30..100),
        far_sector in 200u64..248,
        step_ns in 20_000u64..120_000,
    ) {
        let max_wait_ns = 1_000_000;
        let depth = 4usize;
        let (mut core, clock) = latency_flood_rig(max_wait_ns, depth);
        let registry = core.disk().obs().clone();

        // Prime the queue with latency-class work, then the bulk victim,
        // then keep latency-class traffic flowing so the QoS pick alone
        // would never reach the victim.
        core.set_client(Some(0));
        for (sector, sectors, fill) in near.iter().take(4) {
            let buf = vec![*fill; *sectors as usize * SECTOR_SIZE];
            core.submit_async_write(*sector, &buf).unwrap();
        }
        core.set_client(Some(1));
        core.submit_async_write(far_sector, &vec![0xFF; SECTOR_SIZE]).unwrap();
        core.set_client(Some(0));
        for (sector, sectors, fill) in near.iter().skip(4) {
            clock.advance_to_ns(clock.now_ns() + step_ns);
            let buf = vec![*fill; *sectors as usize * SECTOR_SIZE];
            core.submit_async_write(*sector, &buf).unwrap();
        }
        core.flush_all().unwrap();
        prop_assert_eq!(core.disk().pending_len(), 0);

        let geo = core.disk().geometry().clone();
        let worst_service_ns = geo.max_seek_ns
            + 2 * geo.rotation_ns
            + 8 * SECTOR_SIZE as u64 * 1_000_000_000 / geo.bandwidth_bytes_per_sec;
        // Between two engine entry points (each of which retires aged
        // requests), up to a full queue of targeted overlap drains plus
        // the request in flight can be serviced ahead of the victim.
        let bound = max_wait_ns + (depth as u64 + 2) * worst_service_ns;
        let max_wait_seen = registry.gauge("engine.max_queue_wait_ns").get();
        prop_assert!(
            max_wait_seen <= bound,
            "worst queue wait {}ns exceeds the bounded-wait guarantee {}ns",
            max_wait_seen, bound
        );
    }
}

/// Deterministic companion to the starvation property: with a long
/// latency-class stream, the bulk tenant's request is only ever reached
/// by the aging preemption — so the aged-pick counter must fire.
#[test]
fn aging_preempts_qos_for_a_starving_request() {
    let (mut core, clock) = latency_flood_rig(2_000_000, 6);
    let registry = core.disk().obs().clone();

    core.set_client(Some(0));
    for i in 0..4u64 {
        core.submit_async_write(i, &vec![0x10; SECTOR_SIZE]).unwrap();
    }
    core.set_client(Some(1));
    core.submit_async_write(240, &vec![0xFF; SECTOR_SIZE]).unwrap();
    core.set_client(Some(0));
    // 60 more latency-class writes, trickled in: QoS narrowing keeps
    // picking tenant 0 and only aging can reach tenant 1's request.
    for i in 0..60u64 {
        clock.advance_to_ns(clock.now_ns() + 50_000);
        core.submit_async_write(i % 8, &vec![i as u8; SECTOR_SIZE]).unwrap();
    }
    core.flush_all().unwrap();

    assert!(
        registry.counter("engine.aged_picks").get() >= 1,
        "the bulk request was never rescued by aging"
    );
    assert_eq!(core.disk().pending_len(), 0);
}

/// A sync write started through the split API may be serviced in the
/// background before its submitter waits — a later submission's pump
/// finds the shared clock moved on (another spindle's hazard stall, on a
/// striped volume). Its completion must stay claimable: `finish_write`
/// used to panic with "wait_for a request not in the queue".
#[test]
fn a_started_sync_write_serviced_in_the_background_stays_claimable() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Arc::clone(&clock));
    let mut core = EngineCore::new(disk, EngineConfig::default());

    let first = core.start_sync_write(0, &[0x11; SECTOR_SIZE]).unwrap();
    clock.advance_to_ns(clock.now_ns() + 50_000_000);
    let second = core.start_sync_write(64, &[0x22; SECTOR_SIZE]).unwrap();
    assert_eq!(core.disk().pending_len(), 1, "the pump serviced the first write");

    core.finish_write(first).unwrap();
    core.finish_write(second).unwrap();
    assert_eq!(core.disk().pending_len(), 0);
    let mut buf = [0u8; SECTOR_SIZE];
    core.do_read(0, &mut buf).unwrap();
    assert_eq!(buf, [0x11; SECTOR_SIZE]);
    core.do_read(64, &mut buf).unwrap();
    assert_eq!(buf, [0x22; SECTOR_SIZE]);
}

/// Runs the multi-client create loop on a tiny LFS and returns the
/// debug-formatted report (stable, field-complete) plus elapsed time.
fn multi_run(clients: usize, files: usize, think_ns: u64, seed: u64) -> (String, u64) {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(16_384), Arc::clone(&clock));
    let core = EngineCore::new(disk, EngineConfig::default()).into_shared();
    let dev = EngineDisk::new(Rc::clone(&core));
    let mut fs = Lfs::format(dev, LfsConfig::small_test(), clock).unwrap();
    let registry = fs.obs().clone();
    let cfg = MultiClientConfig {
        clients,
        files_per_client: files,
        file_size: 700,
        think_ns,
        seed,
    };
    let report = run_small_file_create(&mut fs, &core, &registry, &cfg).unwrap();
    assert_eq!(report.total_ops, (clients * files) as u64);
    let fsck = fs.fsck().unwrap();
    assert!(fsck.is_clean(), "fsck after multi-client run:\n{fsck}");
    (format!("{report:?}"), report.elapsed_ns)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Arbitrary client interleavings (client count, pacing, seed)
    /// always produce monotone virtual time — the event loop
    /// debug-asserts it — and the same inputs twice produce the identical
    /// report: the engine is deterministic end to end.
    #[test]
    fn multi_client_runs_are_deterministic(
        clients in 1usize..6,
        files in 2usize..6,
        think_ns in 0u64..2_000_000,
        seed in any::<u64>(),
    ) {
        let (a, elapsed_a) = multi_run(clients, files, think_ns, seed);
        let (b, _) = multi_run(clients, files, think_ns, seed);
        prop_assert_eq!(a, b, "two identical runs diverged");
        prop_assert!(elapsed_a > 0, "a real run takes virtual time");
    }
}
