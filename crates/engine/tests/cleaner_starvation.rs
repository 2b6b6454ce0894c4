//! Starvation freedom between foreground clients and the maintenance
//! (cleaner) I/O class, in both directions.
//!
//! The async cleaner competes in the same request queues as foreground
//! clients, so the engine's bounded-wait aging guarantee must hold for
//! it and against it:
//!
//! * a continuous stream of foreground traffic, which an installed QoS
//!   ledger always picks ahead of unowned work, must not starve a
//!   maintenance request (the cleaner's segment read always happens
//!   eventually, so cleaning makes progress under load), and
//! * a saturating flood of maintenance traffic must not starve a
//!   foreground request (a backlogged cleaner cannot freeze a client
//!   out of the disk).
//!
//! Both directions reuse the aging bound proved for anonymous requests
//! in `proptest_engine.rs`: worst queue wait <= `max_wait_ns` plus the
//! time to drain one full queue of already-aged requests.

use std::sync::Arc;

use proptest::prelude::*;

use engine::{EngineConfig, EngineCore, QosSpec};
use sim_disk::{Clock, DiskGeometry, SimDisk, SECTOR_SIZE};

const DEV_SECTORS: u64 = 256;

/// The engine under test: one QoS tenant (so client requests are always
/// picked ahead of maintenance ones), bounded queue, aging on,
/// coalescing off (so the victim cannot be merged away).
fn rig(max_wait_ns: u64, depth: usize) -> (EngineCore, Arc<Clock>) {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Arc::clone(&clock));
    let cfg = EngineConfig::default()
        .with_queue_depth(depth)
        .with_max_wait_ns(max_wait_ns)
        .with_coalesce(false);
    let mut core = EngineCore::new(disk, cfg);
    core.register_clients(1);
    core.set_qos(Some(QosSpec::uniform(1)));
    (core, clock)
}

/// The aging guarantee for this rig: `max_wait_ns` plus a full queue of
/// already-aged requests (plus the one in flight) draining ahead of the
/// victim, each at worst-case service time.
fn aging_bound(core: &EngineCore, max_wait_ns: u64, depth: usize) -> u64 {
    let geo = core.disk().geometry().clone();
    let worst_service_ns = geo.max_seek_ns
        + 2 * geo.rotation_ns
        + 8 * SECTOR_SIZE as u64 * 1_000_000_000 / geo.bandwidth_bytes_per_sec;
    max_wait_ns + (depth as u64 + 2) * worst_service_ns
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Foreground cannot starve the cleaner: with a client stream that
    /// the QoS pick alone would service forever, a single maintenance
    /// write still completes within the aging bound, and its bytes land
    /// in the maintenance account (never a client's).
    #[test]
    fn foreground_load_cannot_starve_maintenance(
        near in proptest::collection::vec((0u64..8, 1u8..4, any::<u8>()), 30..100),
        far_sector in 200u64..248,
        step_ns in 20_000u64..120_000,
    ) {
        let max_wait_ns = 1_000_000;
        let depth = 4usize;
        let (mut core, clock) = rig(max_wait_ns, depth);
        let registry = core.disk().obs().clone();

        core.set_client(Some(0));
        for (sector, sectors, fill) in near.iter().take(4) {
            let buf = vec![*fill; *sectors as usize * SECTOR_SIZE];
            core.submit_async_write(*sector, &buf).unwrap();
        }
        // The cleaner's lone request, tagged maintenance.
        core.set_maintenance(true);
        core.submit_async_write(far_sector, &vec![0xFF; SECTOR_SIZE]).unwrap();
        core.set_maintenance(false);
        for (sector, sectors, fill) in near.iter().skip(4) {
            clock.advance_to_ns(clock.now_ns() + step_ns);
            let buf = vec![*fill; *sectors as usize * SECTOR_SIZE];
            core.submit_async_write(*sector, &buf).unwrap();
        }
        core.flush_all().unwrap();
        prop_assert_eq!(core.disk().pending_len(), 0);

        let bound = aging_bound(&core, max_wait_ns, depth);
        // The maintenance write is the only request the QoS pick wants
        // to defer; the worst wait observed is (at least) its wait.
        let max_wait_seen = registry.gauge("engine.max_queue_wait_ns").get();
        prop_assert!(
            max_wait_seen <= bound,
            "maintenance request waited {}ns, over the aging bound {}ns",
            max_wait_seen, bound
        );
        // The single maintenance request's wait is the whole class
        // account, and it must respect the same bound.
        let maint_wait = registry.counter("engine.maintenance.disk_wait_ns").get();
        prop_assert!(
            maint_wait <= bound,
            "maintenance class wait {}ns exceeds the aging bound {}ns",
            maint_wait, bound
        );
        prop_assert_eq!(
            registry.counter("engine.io_bytes.maintenance").get(),
            SECTOR_SIZE as u64,
            "the cleaner's bytes must land in the maintenance account"
        );
    }

    /// The cleaner cannot starve foreground: with a saturating
    /// maintenance flood, a single client write still completes within
    /// the aging bound, and its bytes land in the client account.
    #[test]
    fn saturating_maintenance_cannot_starve_foreground(
        near in proptest::collection::vec((0u64..8, 1u8..4, any::<u8>()), 30..100),
        far_sector in 200u64..248,
        step_ns in 20_000u64..120_000,
    ) {
        let max_wait_ns = 1_000_000;
        let depth = 4usize;
        let (mut core, clock) = rig(max_wait_ns, depth);
        let registry = core.disk().obs().clone();

        core.set_maintenance(true);
        for (sector, sectors, fill) in near.iter().take(4) {
            let buf = vec![*fill; *sectors as usize * SECTOR_SIZE];
            core.submit_async_write(*sector, &buf).unwrap();
        }
        // The foreground client's lone request.
        core.set_maintenance(false);
        core.set_client(Some(0));
        core.submit_async_write(far_sector, &vec![0xEE; SECTOR_SIZE]).unwrap();
        // The cleaner keeps flooding.
        core.set_maintenance(true);
        for (sector, sectors, fill) in near.iter().skip(4) {
            clock.advance_to_ns(clock.now_ns() + step_ns);
            let buf = vec![*fill; *sectors as usize * SECTOR_SIZE];
            core.submit_async_write(*sector, &buf).unwrap();
        }
        core.set_maintenance(false);
        core.flush_all().unwrap();
        prop_assert_eq!(core.disk().pending_len(), 0);

        let bound = aging_bound(&core, max_wait_ns, depth);
        let max_wait_seen = registry.gauge("engine.max_queue_wait_ns").get();
        prop_assert!(
            max_wait_seen <= bound,
            "foreground request waited {}ns under a maintenance flood, over \
             the aging bound {}ns",
            max_wait_seen, bound
        );
        prop_assert_eq!(
            registry.counter("engine.io_bytes.client").get(),
            SECTOR_SIZE as u64,
            "the client's bytes must land in the client account"
        );
        // Sanity: the flood really was maintenance-class traffic. (Not
        // an exact equality: write absorption may swallow a queued
        // duplicate before it reaches the per-class byte accounting.)
        let maint_bytes = registry.counter("engine.io_bytes.maintenance").get();
        prop_assert!(
            maint_bytes > 0 && maint_bytes.is_multiple_of(SECTOR_SIZE as u64),
            "the flood's bytes must land in the maintenance account (got {})",
            maint_bytes
        );
    }
}

/// Deterministic companion: behind a client stream the maintenance
/// request is only ever reached by the aging preemption, so the
/// aged-pick counter must fire — cleaning progress under foreground
/// load is the aging mechanism, not luck.
#[test]
fn aging_rescues_the_cleaner_from_foreground_picks() {
    let (mut core, clock) = rig(2_000_000, 6);
    let registry = core.disk().obs().clone();

    core.set_client(Some(0));
    for i in 0..4u64 {
        core.submit_async_write(i, &vec![0x10; SECTOR_SIZE]).unwrap();
    }
    core.set_maintenance(true);
    core.submit_async_write(240, &vec![0xFF; SECTOR_SIZE]).unwrap();
    core.set_maintenance(false);
    for i in 0..60u64 {
        clock.advance_to_ns(clock.now_ns() + 50_000);
        core.submit_async_write(i % 8, &vec![i as u8; SECTOR_SIZE]).unwrap();
    }
    core.flush_all().unwrap();

    assert!(
        registry.counter("engine.aged_picks").get() >= 1,
        "the maintenance request was never rescued by aging"
    );
    assert!(
        registry.counter("engine.maintenance.disk_wait_ns").get() > 0,
        "the maintenance request never waited in queue at all"
    );
    assert_eq!(core.disk().pending_len(), 0);
}
