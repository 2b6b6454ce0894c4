//! Fail-slow tolerance on parity volumes: hedged reconstruction reads
//! bound the latency a limping spindle can impose, the health monitor
//! auto-evicts it and fails over to a hot spare, and operator misuse of
//! the rebuild/resync surface comes back as typed errors, not panics.

use std::sync::Arc;

use engine::EngineConfig;
use sim_disk::{
    BlockDevice, Clock, DiskError, DiskGeometry, FailSlowProfile, MediaFaultPlan, RamDisk,
    SECTOR_SIZE,
};
use volume::{
    HealthPolicy, HealthState, RebuildPolicy, SpindleState, StripedVolume, VolumeConfig,
};

const SPINDLE_SECTORS: u64 = 4_096;
const CHUNK_SECTORS: u64 = 8;
const CHUNK_BYTES: usize = CHUNK_SECTORS as usize * SECTOR_SIZE;
/// Well above a healthy chunk service (~3.5 ms on `tiny_test` media:
/// seek ≤ 2 ms + rotation 1 ms + transfer ~0.4 ms) even with a few
/// pieces queued per spindle; well below a 30x fail-slow chunk.
const HEDGE_DEADLINE_NS: u64 = 20_000_000;
const SLOW_SPINDLE: usize = 1;

fn patterned(fill: u8, sectors: u64) -> Vec<u8> {
    (0..sectors as usize * SECTOR_SIZE)
        .map(|i| fill ^ (i / SECTOR_SIZE) as u8)
        .collect()
}

/// A 4-spindle parity volume, filled identically to a flat mirror.
fn filled_volume(hedge: Option<u64>) -> (StripedVolume, Arc<Clock>, RamDisk) {
    let clock = Clock::new();
    let mut cfg = VolumeConfig::parity_segment(4, 3 * CHUNK_BYTES);
    if let Some(deadline) = hedge {
        cfg = cfg.with_engine(EngineConfig::default().with_hedge_deadline_ns(deadline));
    }
    let mut vol = StripedVolume::new(
        DiskGeometry::tiny_test(SPINDLE_SECTORS),
        Arc::clone(&clock),
        cfg,
    );
    let mut mirror = RamDisk::new(vol.num_sectors());
    for (i, (sector, sectors)) in [(0u64, 64u64), (64, 64), (200, 40), (300, 16)]
        .into_iter()
        .enumerate()
    {
        let buf = patterned(0x30 + i as u8, sectors);
        vol.write(sector, &buf, false).unwrap();
        mirror.write(sector, &buf, false).unwrap();
    }
    vol.flush().unwrap();
    (vol, clock, mirror)
}

fn arm_fail_slow(vol: &mut StripedVolume, spindle: usize, multiplier_pct: u64) {
    vol.spindle_mut(spindle).disk_mut().inject_media_faults(
        MediaFaultPlan::new(0xFA11).fail_slow(FailSlowProfile::at(0).with_multiplier_pct(multiplier_pct)),
    );
}

fn read_all(vol: &mut StripedVolume, mirror: &mut RamDisk, context: &str) {
    for (sector, sectors) in [(0u64, 64u64), (64, 64), (200, 40), (300, 16)] {
        let mut got = vec![0u8; sectors as usize * SECTOR_SIZE];
        let mut want = vec![0u8; sectors as usize * SECTOR_SIZE];
        vol.read(sector, &mut got).unwrap();
        mirror.read(sector, &mut want).unwrap();
        assert_eq!(got, want, "read [{sector}, +{sectors}) diverged {context}");
    }
}

/// Hedging races a slow direct read against reconstruction: bytes stay
/// identical to a healthy mirror, the race is accounted, and the
/// foreground finishes strictly faster than the same volume without a
/// hedge deadline.
#[test]
fn hedged_reads_beat_the_slow_spindle_and_return_identical_bytes() {
    let (mut hedged, hedged_clock, mut mirror) = filled_volume(Some(HEDGE_DEADLINE_NS));
    let (mut plain, plain_clock, _) = filled_volume(None);
    arm_fail_slow(&mut hedged, SLOW_SPINDLE, 3000);
    arm_fail_slow(&mut plain, SLOW_SPINDLE, 3000);

    let before_hedged = hedged_clock.now_ns();
    let before_plain = plain_clock.now_ns();
    assert_eq!(before_hedged, before_plain, "identical histories");
    read_all(&mut hedged, &mut mirror, "with hedging");
    read_all(&mut plain, &mut mirror, "without hedging");
    let hedged_ns = hedged_clock.now_ns() - before_hedged;
    let plain_ns = plain_clock.now_ns() - before_plain;
    assert!(
        hedged_ns < plain_ns,
        "hedging must shield the foreground from the slow spindle: \
         hedged {hedged_ns} ns vs unhedged {plain_ns} ns"
    );

    let snap = hedged.obs().snapshot();
    assert!(snap.counter("volume.hedged_reads") > 0, "no race was run");
    let hedges = snap.counter(&format!("volume.spindle.{SLOW_SPINDLE}.engine.hedges"));
    let wins = snap.counter(&format!("volume.spindle.{SLOW_SPINDLE}.engine.hedge_wins"));
    assert!(hedges > 0, "the slow spindle never reported an overdue read");
    assert!(wins > 0, "reconstruction never won a race against a 30x spindle");
    assert!(wins <= hedges, "wins are a subset of hedges");
    // The direct read still completed and matched: no degraded reads.
    assert_eq!(snap.counter("volume.degraded_reads"), 0);

    let plain_snap = plain.obs().snapshot();
    assert_eq!(
        plain_snap.counter(&format!("volume.spindle.{SLOW_SPINDLE}.engine.hedges")),
        0,
        "no deadline, no hedges"
    );
}

/// Vacuity guard: on a healthy volume the hedge deadline never fires.
#[test]
fn hedging_never_fires_on_a_healthy_volume() {
    let (mut vol, _clock, mut mirror) = filled_volume(Some(HEDGE_DEADLINE_NS));
    read_all(&mut vol, &mut mirror, "healthy");
    let snap = vol.obs().snapshot();
    for s in 0..4 {
        assert_eq!(
            snap.counter(&format!("volume.spindle.{s}.engine.hedges")),
            0,
            "healthy spindle {s} reported an overdue read"
        );
    }
    assert_eq!(snap.counter("volume.hedged_reads"), 0);
}

/// A hedged race where the direct read dies outright: reconstruction is
/// authoritative and the read is served degraded, not failed.
#[test]
fn hedged_race_covers_a_direct_read_that_errors() {
    let (mut vol, _clock, mut mirror) = filled_volume(Some(HEDGE_DEADLINE_NS));
    // Slow *and* unreadable: every read of the spindle blows the
    // deadline and then fails on the platter.
    let mut plan = MediaFaultPlan::new(0xFA11)
        .fail_slow(FailSlowProfile::at(0).with_multiplier_pct(3000));
    for s in 0..SPINDLE_SECTORS {
        plan = plan.latent(s);
    }
    vol.spindle_mut(SLOW_SPINDLE).disk_mut().inject_media_faults(plan);

    read_all(&mut vol, &mut mirror, "with a slow+failing spindle");
    let snap = vol.obs().snapshot();
    assert!(snap.counter("volume.hedged_reads") > 0);
    assert!(snap.counter("volume.degraded_reads") > 0);
}

/// A hedged race whose two sides disagree — the slow spindle's media
/// rotted, so its direct read and the survivors' XOR differ — serves
/// the direct bytes, exactly what the unhedged read returns (judging
/// them is the file system's checksums' job), and says so in a `hedge`
/// event instead of panicking.
#[test]
fn a_hedged_race_whose_sides_disagree_serves_the_direct_bytes() {
    let (mut hedged, _, _) = filled_volume(Some(HEDGE_DEADLINE_NS));
    let (mut plain, _, _) = filled_volume(None);
    for vol in [&mut hedged, &mut plain] {
        let mut plan =
            MediaFaultPlan::new(0xFA11).fail_slow(FailSlowProfile::at(0).with_multiplier_pct(3000));
        for s in 0..64 {
            plan = plan.rot(s);
        }
        vol.spindle_mut(SLOW_SPINDLE)
            .disk_mut()
            .inject_media_faults(plan);
    }
    let mut got = vec![0u8; 64 * SECTOR_SIZE];
    let mut want = vec![0u8; 64 * SECTOR_SIZE];
    hedged.read(0, &mut got).unwrap();
    plain.read(0, &mut want).unwrap();
    assert_eq!(got, want, "the hedged read must return the unhedged bytes");
    let events = hedged.obs().snapshot().events;
    assert!(
        events
            .iter()
            .any(|e| e.kind == "hedge" && e.detail.contains("diverged")),
        "the disagreement left no hedge event"
    );
}

/// The health monitor notices the fail-slow spindle, evicts it, fails
/// over to the hot spare, and the rebuild converges — with zero
/// operator actions and no byte ever served wrong.
#[test]
fn health_monitor_auto_evicts_and_hot_spare_rebuild_converges() {
    let (mut vol, _clock, mut mirror) = filled_volume(None);
    vol.set_health_policy(HealthPolicy::default().with_evict_after(3));
    vol.set_hot_spares(1);
    arm_fail_slow(&mut vol, SLOW_SPINDLE, 3000);

    let mut rounds = 0;
    while vol.spindle_state(SLOW_SPINDLE) == SpindleState::Online {
        read_all(&mut vol, &mut mirror, "while the monitor watches");
        rounds += 1;
        assert!(rounds < 64, "the monitor never evicted the slow spindle");
    }
    assert_eq!(
        vol.spindle_state(SLOW_SPINDLE),
        SpindleState::Rebuilding,
        "the hot spare should be swapped in automatically"
    );
    assert_eq!(vol.hot_spares(), 0, "the failover consumed the spare");
    assert_eq!(vol.health_state(SLOW_SPINDLE), Some(HealthState::Evicted));

    // Reads stay correct while degraded and mid-rebuild.
    read_all(&mut vol, &mut mirror, "mid-rebuild");
    while vol.rebuild().is_some() {
        vol.rebuild_step().unwrap();
    }
    assert_eq!(vol.spindle_state(SLOW_SPINDLE), SpindleState::Online);
    assert_eq!(
        vol.health_state(SLOW_SPINDLE),
        Some(HealthState::Healthy),
        "the replacement drive starts with a clean record"
    );
    read_all(&mut vol, &mut mirror, "after the rebuild");
    // The replacement media is new hardware: no fail-slow plan, so the
    // monitor must not evict it again.
    for _ in 0..8 {
        read_all(&mut vol, &mut mirror, "steady state on the replacement");
    }
    assert_eq!(vol.spindle_state(SLOW_SPINDLE), SpindleState::Online);

    let snap = vol.obs().snapshot();
    assert!(snap.counter("volume.health.suspects") >= 1);
    assert_eq!(snap.counter("volume.health.evictions"), 1);
    assert_eq!(snap.counter("volume.health.spares_used"), 1);
    assert_eq!(snap.counter("volume.rebuild.runs_completed"), 1);
    assert_eq!(snap.gauge(&format!("volume.health.state.{SLOW_SPINDLE}")), 0);
}

/// Without a hot spare the eviction still routes around the spindle —
/// it just waits for an operator to stock a replacement.
#[test]
fn eviction_without_a_spare_leaves_the_volume_degraded_but_serving() {
    let (mut vol, _clock, mut mirror) = filled_volume(None);
    vol.set_health_policy(HealthPolicy::default().with_evict_after(3));
    arm_fail_slow(&mut vol, SLOW_SPINDLE, 3000);
    let mut rounds = 0;
    while vol.spindle_state(SLOW_SPINDLE) == SpindleState::Online {
        read_all(&mut vol, &mut mirror, "while the monitor watches");
        rounds += 1;
        assert!(rounds < 64, "the monitor never evicted the slow spindle");
    }
    assert_eq!(vol.spindle_state(SLOW_SPINDLE), SpindleState::Dead);
    read_all(&mut vol, &mut mirror, "degraded after eviction");
    let snap = vol.obs().snapshot();
    assert_eq!(snap.counter("volume.health.evictions"), 1);
    assert_eq!(snap.counter("volume.health.spares_used"), 0);
    // The operator can still swap a drive in by hand.
    vol.replace_spindle(SLOW_SPINDLE, RebuildPolicy::default()).unwrap();
    while vol.rebuild().is_some() {
        vol.rebuild_step().unwrap();
    }
    read_all(&mut vol, &mut mirror, "after the manual rebuild");
}

/// A held read is hedged like a synchronous one: a token on the slow
/// spindle claimed at once races reconstruction, while one claimed after
/// its read landed is taken as it is — no race, and no survivor serves
/// a request for it.
#[test]
fn a_held_read_is_hedged_unless_it_landed_before_its_claim() {
    let mut want = vec![0u8; CHUNK_BYTES];
    // Logical chunk 1 lives on the slow spindle.
    for late in [false, true] {
        let (mut vol, clock, mut mirror) = filled_volume(Some(HEDGE_DEADLINE_NS));
        mirror.read(CHUNK_SECTORS, &mut want).unwrap();
        arm_fail_slow(&mut vol, SLOW_SPINDLE, 3000);
        let requests = |vol: &StripedVolume| -> Vec<u64> {
            (0..4)
                .map(|s| vol.spindle(s).disk().stats().total_requests())
                .collect()
        };
        let before = requests(&vol);
        let token = vol.start_read_async(CHUNK_SECTORS, CHUNK_BYTES).unwrap();
        if late {
            clock.advance_ns(1_000_000_000);
        }
        assert_eq!(vol.finish_read_async(token).unwrap(), want, "late claim: {late}");
        let hedged = vol.obs().snapshot().counter("volume.hedged_reads");
        let after = requests(&vol);
        assert_eq!(after[SLOW_SPINDLE], before[SLOW_SPINDLE] + 1);
        let survivors_served = (0..4).filter(|&s| s != SLOW_SPINDLE && after[s] > before[s]);
        if late {
            assert_eq!(hedged, 0, "a landed read started a race");
            assert_eq!(survivors_served.count(), 0, "a landed read made survivors read");
        } else {
            assert_eq!(hedged, 1, "a held read on the slow spindle was not hedged");
            assert_eq!(survivors_served.count(), 3, "the race did not read every survivor");
        }
    }
}

/// A held read claimed after its spindle was killed reconstructs its
/// piece instead of dangling on a discarded engine token.
#[test]
fn async_read_claims_survive_a_mid_flight_spindle_kill() {
    let mut reconstructed_claims = 0;
    for victim in 0..4usize {
        let (mut vol, _clock, mut mirror) = filled_volume(None);
        let before = vol.obs().snapshot().counter("volume.degraded_reads");
        let token = vol
            .start_read_async(8, CHUNK_BYTES)
            .expect("a live volume starts every valid range");
        vol.kill_spindle(victim);
        let got = vol.finish_read_async(token).unwrap();
        let mut want = vec![0u8; CHUNK_BYTES];
        mirror.read(8, &mut want).unwrap();
        assert_eq!(got, want, "async claim diverged with spindle {victim} dead");
        if vol.obs().snapshot().counter("volume.degraded_reads") > before {
            reconstructed_claims += 1;
        }
    }
    assert_eq!(
        reconstructed_claims, 1,
        "exactly one victim was the serving spindle, and its claim reconstructed"
    );
}

/// Operator misuse comes back as typed [`DiskError::Unsupported`]
/// errors — no panics, no media touched.
#[test]
fn rebuild_and_resync_misuse_returns_typed_errors() {
    // RAID-0 has no parity: nothing to rebuild from, nothing to resync.
    let clock = Clock::new();
    let mut raid0 = StripedVolume::new(
        DiskGeometry::tiny_test(SPINDLE_SECTORS),
        Arc::clone(&clock),
        VolumeConfig::interleave(3, CHUNK_BYTES),
    );
    raid0.kill_spindle(0);
    assert!(matches!(
        raid0.replace_spindle(0, RebuildPolicy::default()),
        Err(DiskError::Unsupported(msg)) if msg.contains("parity")
    ));
    assert!(matches!(
        raid0.resync_parity(),
        Err(DiskError::Unsupported(msg)) if msg.contains("not a parity volume")
    ));

    let (mut vol, _clock, _mirror) = filled_volume(None);
    // Replacing a live spindle would discard data a rebuild cannot
    // recover.
    assert!(matches!(
        vol.replace_spindle(1, RebuildPolicy::default()),
        Err(DiskError::Unsupported(msg)) if msg.contains("not dead")
    ));
    // No such bay.
    assert!(matches!(
        vol.replace_spindle(9, RebuildPolicy::default()),
        Err(DiskError::Unsupported(msg)) if msg.contains("bay")
    ));
    // Resyncing a degraded assembly would overwrite the parity encoding
    // of the missing spindle's bytes — the documented caveat is now a
    // typed error, not a doc note.
    vol.kill_spindle(2);
    assert!(matches!(
        vol.resync_parity(),
        Err(DiskError::Unsupported(msg)) if msg.contains("degraded")
    ));
    // And the misuse changed nothing: the volume still serves reads and
    // accepts the *correct* sequence.
    vol.replace_spindle(2, RebuildPolicy::default()).unwrap();
    while vol.rebuild().is_some() {
        vol.rebuild_step().unwrap();
    }
    assert_eq!(vol.spindle_state(2), SpindleState::Online);
    assert!(vol.resync_parity().is_ok(), "clean assembly resyncs fine");
}
