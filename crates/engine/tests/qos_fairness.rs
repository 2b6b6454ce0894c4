//! QoS fairness properties for the disk-queue scheduler, extending the
//! bounded-wait suite in `proptest_engine.rs`:
//!
//! 1. **Proportional share** — with two tenants flooding an open-loop
//!    backlog, completed bytes at the instant the heavy tenant drains
//!    converge to the configured weight ratio.
//! 2. **No starvation** — arbitrary weights never push a light tenant's
//!    queue wait past the aging bound the QoS-free engine guarantees:
//!    the aging check runs before the QoS pick, and the SFQ ledger
//!    itself cannot bank credit for an idle tenant.
//! 3. **Latency class** — a latency-class tenant's request jumps a deep
//!    bulk backlog (deterministic companion).

use std::sync::Arc;

use proptest::prelude::*;

use engine::{EngineConfig, EngineCore, QosClass, QosSpec};
use sim_disk::{Clock, DiskGeometry, SimDisk, SECTOR_SIZE};

const DEV_SECTORS: u64 = 4096;

/// Pumps in small virtual-time steps until `done` says stop (or the
/// iteration guard trips), so at most ~one service completes per step
/// and counters can be sampled at a service boundary.
fn pump_until(core: &mut EngineCore, clock: &Clock, mut done: impl FnMut() -> bool) -> bool {
    for _ in 0..200_000 {
        if done() {
            return true;
        }
        clock.advance_to_ns(clock.now_ns() + 100_000);
        core.pump().unwrap();
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Two tenants submit equal open-loop backlogs up front; tenant 0
    /// carries `weight`, tenant 1 carries 1. Sampled when tenant 0
    /// drains — while tenant 1 is still backlogged — completed bytes
    /// obey the weight ratio within 2x slack either way. (End-of-run
    /// totals would be equal: a closed backlog always completes. The
    /// contended window is where shares live.)
    #[test]
    fn weighted_share_converges_to_weight(
        weight in 2u64..9,
        reqs in 24usize..40,
    ) {
        let clock = Clock::new();
        let disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Arc::clone(&clock));
        let cfg = EngineConfig::default()
            .with_queue_depth(2 * reqs + 8)
            // Aging off the table: the window under test is shorter
            // than any realistic bound, and we want pure SFQ shares.
            .with_max_wait_ns(60_000_000_000)
            .with_coalesce(false);
        let mut core = EngineCore::new(disk, cfg);
        let registry = core.disk().obs().clone();
        core.register_clients(2);
        core.set_qos(Some(QosSpec::uniform(2).with_weight(0, weight)));

        // Interleaved submission into disjoint regions (no coalescing,
        // no absorption): the queue holds both tenants' work end to end.
        for i in 0..reqs as u64 {
            core.set_client(Some(0));
            core.submit_async_write(i * 2, &[0xA0; SECTOR_SIZE]).unwrap();
            core.set_client(Some(1));
            core.submit_async_write(2048 + i * 2, &[0xB1; SECTOR_SIZE]).unwrap();
        }
        core.set_client(None);

        let heavy = registry.counter("engine.c000.io_bytes_done");
        let light = registry.counter("engine.c001.io_bytes_done");
        let heavy_total = (reqs * SECTOR_SIZE) as u64;
        let drained = pump_until(&mut core, &clock, || heavy.get() >= heavy_total);
        prop_assert!(drained, "heavy tenant never drained its backlog");

        let light_at_drain = light.get();
        let fair = heavy_total / weight;
        prop_assert!(
            light_at_drain <= 2 * fair + 2 * SECTOR_SIZE as u64,
            "light tenant got {} bytes by heavy's drain; weight {} allows ~{}",
            light_at_drain, weight, fair
        );
        prop_assert!(
            light_at_drain * weight * 4 >= heavy_total,
            "light tenant starved: {} bytes at heavy's drain (fair ~{})",
            light_at_drain, fair
        );
        core.flush_all().unwrap();
        prop_assert_eq!(core.disk().pending_len(), 0);
    }

    /// The starvation property under QoS: a lone weight-1 victim behind
    /// a weight-`w` flood is still serviced within the same aging bound
    /// the QoS-free engine guarantees. The aging check runs
    /// before the QoS pick, so no weight assignment can defeat it.
    #[test]
    fn no_weight_assignment_starves_a_tenant(
        heavy_weight in 1u64..64,
        near in proptest::collection::vec((0u64..8, any::<u8>()), 30..80),
        far_sector in 3000u64..3500,
        step_ns in 20_000u64..120_000,
    ) {
        let max_wait_ns = 1_000_000;
        let depth = 4usize;
        let clock = Clock::new();
        let disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Arc::clone(&clock));
        let cfg = EngineConfig::default()
            .with_queue_depth(depth)
            .with_max_wait_ns(max_wait_ns)
            .with_coalesce(false);
        let mut core = EngineCore::new(disk, cfg);
        let registry = core.disk().obs().clone();
        core.register_clients(2);
        core.set_qos(Some(QosSpec::uniform(2).with_weight(0, heavy_weight)));

        core.set_client(Some(0));
        for (sector, fill) in near.iter().take(4) {
            core.submit_async_write(*sector, &vec![*fill; SECTOR_SIZE]).unwrap();
        }
        core.set_client(Some(1));
        core.submit_async_write(far_sector, &[0xFF; SECTOR_SIZE]).unwrap();
        core.set_client(Some(0));
        for (sector, fill) in near.iter().skip(4) {
            clock.advance_to_ns(clock.now_ns() + step_ns);
            core.submit_async_write(*sector, &vec![*fill; SECTOR_SIZE]).unwrap();
        }
        core.set_client(None);
        core.flush_all().unwrap();
        prop_assert_eq!(core.disk().pending_len(), 0);

        let geo = core.disk().geometry().clone();
        let worst_service_ns = geo.max_seek_ns
            + 2 * geo.rotation_ns
            + 8 * SECTOR_SIZE as u64 * 1_000_000_000 / geo.bandwidth_bytes_per_sec;
        let bound = max_wait_ns + (depth as u64 + 2) * worst_service_ns;
        let max_wait_seen = registry.gauge("engine.max_queue_wait_ns").get();
        prop_assert!(
            max_wait_seen <= bound,
            "worst queue wait {}ns exceeds the bounded-wait guarantee {}ns under weight {}",
            max_wait_seen, bound, heavy_weight
        );
    }
}

/// Deterministic latency-class companion: tenant 0 (latency) submits
/// one request into tenant 1's (bulk) deep backlog; the request jumps
/// essentially the whole backlog — at most the in-flight request plus
/// one pick of slack goes ahead of it.
#[test]
fn latency_class_jumps_a_bulk_backlog() {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Arc::clone(&clock));
    let cfg = EngineConfig::default()
        .with_queue_depth(64)
        .with_max_wait_ns(60_000_000_000)
        .with_coalesce(false);
    let mut core = EngineCore::new(disk, cfg);
    let registry = core.disk().obs().clone();
    core.register_clients(2);
    core.set_qos(Some(
        QosSpec::uniform(2).with_class(0, QosClass::Latency),
    ));

    // 40 bulk writes queued ahead of the latency request: oldest-first
    // alone would drain all of them before it.
    core.set_client(Some(1));
    for i in 0..40u64 {
        core.submit_async_write(i * 2, &[0xB1; SECTOR_SIZE]).unwrap();
    }

    let latency_bytes = registry.counter("engine.c000.io_bytes_done");
    let bulk_bytes = registry.counter("engine.c001.io_bytes_done");
    // Let a few bulk services happen, then inject the latency request.
    let warmed = pump_until(&mut core, &clock, || {
        bulk_bytes.get() >= 4 * SECTOR_SIZE as u64
    });
    assert!(warmed, "bulk backlog never started draining");
    let bulk_before = bulk_bytes.get();

    core.set_client(Some(0));
    core.submit_async_write(3800, &[0xA0; SECTOR_SIZE]).unwrap();
    core.set_client(None);
    let served = pump_until(&mut core, &clock, || latency_bytes.get() > 0);
    assert!(served, "latency-class request never serviced");

    let bulk_jumped = (bulk_bytes.get() - bulk_before) / SECTOR_SIZE as u64;
    assert!(
        bulk_jumped <= 2,
        "{bulk_jumped} bulk requests went ahead of the latency-class request"
    );
    core.flush_all().unwrap();
    assert_eq!(core.disk().pending_len(), 0);
}
