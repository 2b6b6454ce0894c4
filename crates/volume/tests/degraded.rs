//! Degraded operation and online rebuild on parity volumes: reads
//! survive a dead spindle by XOR reconstruction, writes keep parity
//! current so no data is lost, a replacement is rebuilt online, and
//! only double faults escape — with volume-logical addresses.

use std::sync::Arc;

use engine::EngineConfig;
use sim_disk::{
    BlockDevice, Clock, DiskError, DiskGeometry, MediaFaultPlan, RamDisk, SECTOR_SIZE,
};
use volume::{RebuildPolicy, RebuildProgress, SpindleState, StripedVolume, VolumeConfig};

const SPINDLE_SECTORS: u64 = 4_096;
const CHUNK_SECTORS: u64 = 8;
const CHUNK_BYTES: usize = CHUNK_SECTORS as usize * SECTOR_SIZE;

fn parity_volume(spindles: usize) -> (StripedVolume, Arc<Clock>) {
    let clock = Clock::new();
    let vol = StripedVolume::new(
        DiskGeometry::tiny_test(SPINDLE_SECTORS),
        Arc::clone(&clock),
        VolumeConfig::parity_segment(spindles, CHUNK_BYTES * (spindles - 1)),
    );
    (vol, clock)
}

fn patterned(fill: u8, sectors: u64) -> Vec<u8> {
    (0..sectors as usize * SECTOR_SIZE)
        .map(|i| fill ^ (i / SECTOR_SIZE) as u8)
        .collect()
}

/// Writes a mixed batch (alignments, lengths, sync/async) to both the
/// volume and a flat mirror.
fn mixed_writes(vol: &mut StripedVolume, mirror: &mut RamDisk, salt: u8) {
    let writes: [(u64, u64, bool); 6] = [
        (3, 2, true),
        (24, 24, false),
        (70, 13, false),
        (120, 96, true),
        (300, 5, false),
        (5, 1, true),
    ];
    for (i, (sector, sectors, sync)) in writes.iter().enumerate() {
        let buf = patterned(salt.wrapping_add(i as u8), *sectors);
        vol.write(*sector, &buf, *sync).unwrap();
        mirror.write(*sector, &buf, *sync).unwrap();
    }
    vol.flush().unwrap();
}

fn assert_matches_mirror(vol: &mut StripedVolume, mirror: &mut RamDisk, context: &str) {
    for (sector, sectors) in [(0u64, 64u64), (3, 2), (60, 170), (290, 20), (0, 416)] {
        let mut got = vec![0u8; sectors as usize * SECTOR_SIZE];
        let mut want = vec![0u8; sectors as usize * SECTOR_SIZE];
        vol.read(sector, &mut got).unwrap();
        mirror.read(sector, &mut want).unwrap();
        assert_eq!(got, want, "read [{sector}, +{sectors}) diverged {context}");
    }
}

/// A dead spindle is invisible to reads: every byte reconstructs from
/// the survivors, and the degraded-path metrics account for it.
#[test]
fn reads_survive_a_dead_spindle_by_reconstruction() {
    for dead in 0..4usize {
        let (mut vol, _clock) = parity_volume(4);
        let mut mirror = RamDisk::new(vol.num_sectors());
        mixed_writes(&mut vol, &mut mirror, 0x10);

        vol.kill_spindle(dead);
        assert_eq!(vol.spindle_state(dead), SpindleState::Dead);
        assert_matches_mirror(&mut vol, &mut mirror, &format!("with spindle {dead} dead"));

        let snap = vol.obs().snapshot();
        assert_eq!(snap.gauge("volume.spindles_online"), 3);
        assert!(
            snap.counter("volume.degraded_reads") > 0,
            "no read noticed the dead spindle"
        );
        assert!(
            snap.counter("volume.reconstructions") > 0,
            "no piece was reconstructed"
        );
    }
}

/// Writes while degraded keep parity current — including writes whose
/// data chunk lives on the dead spindle, whose *content* survives in
/// the updated parity and reconstructs on read.
#[test]
fn writes_while_degraded_lose_no_data() {
    for dead in 0..4usize {
        let (mut vol, _clock) = parity_volume(4);
        let mut mirror = RamDisk::new(vol.num_sectors());
        mixed_writes(&mut vol, &mut mirror, 0x20);

        vol.kill_spindle(dead);
        mixed_writes(&mut vol, &mut mirror, 0x60);
        assert_matches_mirror(
            &mut vol,
            &mut mirror,
            &format!("after degraded writes with spindle {dead} dead"),
        );
    }
}

/// A replacement spindle rebuilds online to completion; afterwards the
/// volume is healthy — a *different* spindle can die and every byte
/// still reconstructs, which proves the rebuilt platter holds exactly
/// the parity-consistent contents and not stale zeroes.
#[test]
fn rebuild_completes_and_restores_single_fault_tolerance() {
    let (mut vol, _clock) = parity_volume(4);
    let mut mirror = RamDisk::new(vol.num_sectors());
    mixed_writes(&mut vol, &mut mirror, 0x30);

    vol.kill_spindle(1);
    mixed_writes(&mut vol, &mut mirror, 0x70);

    let policy = RebuildPolicy::default().with_max_step_rows(64);
    vol.replace_spindle(1, policy).unwrap();
    assert_eq!(vol.spindle_state(1), SpindleState::Rebuilding);

    // Foreground writes keep landing mid-rebuild (write-through).
    mixed_writes(&mut vol, &mut mirror, 0xA0);

    let mut steps = 0u64;
    loop {
        match vol.rebuild_step().unwrap() {
            RebuildProgress::Completed => break,
            RebuildProgress::Progress { rows } => {
                assert!(rows > 0);
                steps += 1;
            }
            RebuildProgress::Idle => panic!("rebuild went idle before completing"),
        }
    }
    assert_eq!(vol.spindle_state(1), SpindleState::Online);
    assert!(vol.rebuild().is_none());

    let snap = vol.obs().snapshot();
    assert_eq!(snap.counter("volume.rebuild.runs_completed"), 1);
    assert_eq!(snap.gauge("volume.rebuild.remaining_rows"), 0);
    assert_eq!(snap.gauge("volume.spindles_online"), 4);
    assert_eq!(snap.counter("volume.rebuild.steps"), steps + 1);
    assert_eq!(snap.counter("volume.rebuild.rows"), SPINDLE_SECTORS / CHUNK_SECTORS);

    // Healthy again: scrub matches the mirror without reconstruction.
    let before = vol.obs().snapshot().counter("volume.degraded_reads");
    assert_matches_mirror(&mut vol, &mut mirror, "after rebuild");
    assert_eq!(
        vol.obs().snapshot().counter("volume.degraded_reads"),
        before,
        "a healthy volume should not reconstruct"
    );

    // The acid test: lose a *different* spindle and reconstruct through
    // the rebuilt one.
    vol.kill_spindle(3);
    assert_matches_mirror(&mut vol, &mut mirror, "with spindle 3 dead after rebuilding 1");
}

/// The idle gate defers rebuild steps while foreground work is queued
/// and opens when the queues drain — the same host-driven pacing
/// contract as the async cleaner.
#[test]
fn rebuild_idle_gate_follows_the_queue_depth() {
    let (mut vol, _clock) = parity_volume(4);
    let mut mirror = RamDisk::new(vol.num_sectors());
    mixed_writes(&mut vol, &mut mirror, 0x40);

    vol.kill_spindle(2);
    vol.replace_spindle(2, RebuildPolicy::default()).unwrap();
    assert!(vol.rebuild_wants_step(), "idle volume should allow a step");

    vol.write(0, &patterned(0x55, 4 * CHUNK_SECTORS), false).unwrap();
    mirror.write(0, &patterned(0x55, 4 * CHUNK_SECTORS), false).unwrap();
    assert!(
        !vol.rebuild_wants_step(),
        "queued foreground work should close the idle gate"
    );
    vol.flush().unwrap();
    assert!(vol.rebuild_wants_step(), "drained queues should reopen the gate");

    assert_eq!(
        vol.rebuild_step().unwrap(),
        RebuildProgress::Progress {
            rows: RebuildPolicy::default().max_step_rows as u64
        }
    );
    assert!(vol.rebuild().is_some());
    assert_matches_mirror(&mut vol, &mut mirror, "mid-rebuild");
}

/// Only a double fault escapes, and it reports the *volume-logical*
/// sector of the piece that could not be served (satellite: the
/// splitter's partial-failure path routes single faults to
/// reconstruction first).
#[test]
fn double_fault_escapes_with_the_logical_sector() {
    let clock = Clock::new();
    let cfg = VolumeConfig::parity_segment(4, 3 * CHUNK_BYTES)
        .with_engine(EngineConfig::default().with_read_retries(0));
    let mut vol = StripedVolume::new(
        DiskGeometry::tiny_test(SPINDLE_SECTORS),
        Arc::clone(&clock),
        cfg,
    );
    vol.write(0, &patterned(0x11, 8 * CHUNK_SECTORS), true).unwrap();

    // Fault one sector on spindle 0 (logical sector 0), then kill
    // spindle 1. Logical 0's direct read fails, and its reconstruction
    // needs dead spindle 1: a genuine double fault.
    vol.spindle_mut(0)
        .disk_mut()
        .inject_media_faults(MediaFaultPlan::new(3).latent(0));
    vol.kill_spindle(1);

    let mut buf = vec![0u8; 3 * CHUNK_BYTES];
    assert_eq!(
        vol.read(0, &mut buf),
        Err(DiskError::Unreadable { sector: 0 }),
        "double fault should surface the first unservable logical sector"
    );

    // Requests that avoid the faulted sector still reconstruct fine:
    // row 1 (logical 24..48) has no latent fault, only the dead spindle.
    let mut row1 = vec![0u8; 3 * CHUNK_BYTES];
    vol.read(3 * CHUNK_SECTORS, &mut row1).unwrap();
    assert_eq!(row1, patterned(0x11, 8 * CHUNK_SECTORS)[3 * CHUNK_BYTES..6 * CHUNK_BYTES]);
}

/// Regression (stripe-balance satellite): the Jain fairness gauge is
/// computed over *online* spindles only. A dead spindle takes no writes
/// by design; counting its frozen byte count would report phantom
/// imbalance during perfectly even degraded operation.
#[test]
fn balance_gauge_excludes_offline_spindles() {
    let (mut vol, _clock) = parity_volume(4);

    // 8 full rows: rotation deals data and parity evenly, every spindle
    // writes the same byte count.
    let rows = patterned(0x42, 8 * 3 * CHUNK_SECTORS);
    vol.write(0, &rows, true).unwrap();
    assert_eq!(vol.obs().snapshot().gauge("volume.stripe_balance_millis"), 1000);

    vol.kill_spindle(0);
    // 8 more full rows at the same addresses: the three survivors again
    // take identical shares, the dead spindle none.
    vol.write(0, &rows, true).unwrap();
    assert_eq!(
        vol.obs().snapshot().gauge("volume.stripe_balance_millis"),
        1000,
        "a dead spindle's frozen byte count leaked into the balance gauge"
    );
}

/// A dead *parity* spindle leaves its rows unprotected but fully
/// writable and readable — data chunks live on the survivors.
#[test]
fn dead_parity_spindle_keeps_rows_serving() {
    let (mut vol, _clock) = parity_volume(4);
    // Row 0 parks parity on spindle 3 under rotation.
    vol.kill_spindle(3);
    let data = patterned(0x99, 2 * CHUNK_SECTORS);
    vol.write(0, &data, true).unwrap();
    let mut buf = vec![0u8; data.len()];
    vol.read(0, &mut buf).unwrap();
    assert_eq!(buf, data);
}

/// Parity volumes need at least two spindles.
#[test]
#[should_panic(expected = "spindles")]
fn parity_volume_rejects_a_single_spindle() {
    let _ = VolumeConfig::parity_segment(1, CHUNK_BYTES);
}

/// `resync_parity` rewrites exactly the rows whose XOR went stale —
/// the dirty-assembly scrub for a volume whose every spindle holds
/// current media — and afterwards the volume tolerates a spindle loss
/// again. (It must *not* be run against stale media: see the method's
/// doc, and the crash sweep, which rebuilds instead.)
#[test]
fn resync_rewrites_stale_parity_rows_and_restores_fault_tolerance() {
    let (mut vol, _clock) = parity_volume(4);
    let mut mirror = RamDisk::new(vol.num_sectors());
    mixed_writes(&mut vol, &mut mirror, 0x50);

    // Tear row 0's parity behind the volume's back — the write-hole
    // shape a crash between data and parity writes leaves. Row 0 parks
    // parity on spindle 3 under rotation.
    let garbage = vec![0xEE; CHUNK_BYTES];
    vol.spindle_mut(3).disk_mut().write(0, &garbage, true).unwrap();

    // Healthy reads never touch parity, so nothing notices yet.
    assert_matches_mirror(&mut vol, &mut mirror, "with torn parity, healthy");

    let fixed = vol.resync_parity().unwrap();
    assert_eq!(fixed, 1, "exactly the torn row should be rewritten");
    assert_eq!(vol.obs().snapshot().counter("volume.resync_rows_fixed"), 1);
    assert_eq!(vol.resync_parity().unwrap(), 0, "resync should converge");

    // The proof parity is whole again: lose a data spindle and read
    // everything back through reconstruction.
    vol.kill_spindle(0);
    assert_matches_mirror(&mut vol, &mut mirror, "after resync with spindle 0 dead");
}
