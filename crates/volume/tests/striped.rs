//! Multi-spindle behaviour: data round-trips through the splitter and
//! joiner, faults and crashes surface with volume-logical addresses,
//! and per-spindle accounting stays separate when spindles overlap.

use std::sync::Arc;

use engine::EngineConfig;
use sim_disk::{
    BlockDevice, Clock, CrashPlan, DiskError, DiskGeometry, MediaFaultPlan, RamDisk, SECTOR_SIZE,
};
use volume::{StripePolicyKind, StripedVolume, VolumeConfig};

const SPINDLE_SECTORS: u64 = 4_096;
const CHUNK_SECTORS: u64 = 8;
const CHUNK_BYTES: usize = CHUNK_SECTORS as usize * SECTOR_SIZE;

fn volume(spindles: usize, kind: StripePolicyKind) -> (StripedVolume, Arc<Clock>) {
    let clock = Clock::new();
    let cfg = match kind {
        StripePolicyKind::RrSegment => VolumeConfig::rr_segment(spindles, CHUNK_BYTES),
        StripePolicyKind::Interleave => VolumeConfig::interleave(spindles, CHUNK_BYTES),
        // Segment = one chunk per data spindle, so the chunk size (and
        // thus the physical layout grain) matches the other kinds.
        StripePolicyKind::ParitySegment => {
            VolumeConfig::parity_segment(spindles, CHUNK_BYTES * (spindles - 1))
        }
    };
    let vol = StripedVolume::new(
        DiskGeometry::tiny_test(SPINDLE_SECTORS),
        Arc::clone(&clock),
        cfg,
    );
    (vol, clock)
}

fn patterned(fill: u8, sectors: u64) -> Vec<u8> {
    (0..sectors as usize * SECTOR_SIZE)
        .map(|i| fill ^ (i / SECTOR_SIZE) as u8)
        .collect()
}

/// Mixed sync/async writes and spanning reads round-trip through the
/// splitter/joiner for every policy and several spindle counts,
/// matching a flat RAM mirror byte for byte.
#[test]
fn striped_io_round_trips_against_a_flat_mirror() {
    for kind in StripePolicyKind::ALL {
        for spindles in [2usize, 3, 4] {
            let (mut vol, _clock) = volume(spindles, kind);
            let mut mirror = RamDisk::new(vol.num_sectors());

            // Writes of varying alignment and length: inside one chunk,
            // chunk-aligned, spanning several chunks, spanning rows.
            let writes: [(u64, u64, bool); 6] = [
                (3, 2, true),
                (8, 8, false),
                (20, 40, true),
                (70, 13, false),
                (128, 96, false),
                (5, 1, true),
            ];
            for (i, (sector, sectors, sync)) in writes.iter().enumerate() {
                let buf = patterned(0x10 + i as u8, *sectors);
                vol.write(*sector, &buf, *sync).unwrap();
                mirror.write(*sector, &buf, *sync).unwrap();
            }
            vol.flush().unwrap();

            for (sector, sectors) in [(0u64, 16u64), (3, 2), (16, 64), (60, 170), (0, 256)] {
                let mut got = vec![0u8; sectors as usize * SECTOR_SIZE];
                let mut want = vec![0u8; sectors as usize * SECTOR_SIZE];
                vol.read(sector, &mut got).unwrap();
                mirror.read(sector, &mut want).unwrap();
                assert_eq!(
                    got, want,
                    "read [{sector}, +{sectors}) diverged ({kind}, {spindles} spindles)"
                );
            }
        }
    }
}

/// A chunk-row-multiple write lands evenly on every spindle and the
/// stripe-balance gauge reports perfect balance; a single hot chunk
/// skews the gauge toward 1000/n.
#[test]
fn writes_fan_out_and_the_balance_gauge_tracks_skew() {
    let (mut vol, _clock) = volume(4, StripePolicyKind::RrSegment);

    // 4 full rows: every spindle receives exactly 4 chunks.
    let rows = patterned(0x42, 4 * 4 * CHUNK_SECTORS);
    vol.write(0, &rows, false).unwrap();
    vol.flush().unwrap();

    let snap = vol.obs().snapshot();
    assert_eq!(snap.gauge("volume.spindles"), 4);
    assert_eq!(snap.gauge("volume.stripe_balance_millis"), 1000);
    for i in 0..4 {
        assert_eq!(
            vol.spindle(i).disk().stats().bytes_written,
            4 * CHUNK_BYTES as u64,
            "spindle {i} got an uneven share"
        );
    }
    assert_eq!(snap.counter("volume.writes"), 1);
    // 16 chunks → 16 pieces: consecutive chunks alternate spindles, so
    // nothing merges; each spindle queues its 4 pieces independently.
    assert_eq!(snap.counter("volume.subrequests"), 16);

    // Hammer one chunk (always spindle 0): balance decays toward 250.
    for i in 0..60u8 {
        vol.write(0, &patterned(i, CHUNK_SECTORS), true).unwrap();
    }
    let balance = vol.obs().snapshot().gauge("volume.stripe_balance_millis");
    assert!(
        balance < 600,
        "balance gauge {balance} did not register a hot spindle"
    );
}

/// A latent media fault on one spindle surfaces as a degraded read whose
/// error names the *volume-logical* sector, and only requests touching
/// the bad sector fail.
#[test]
fn degraded_read_reports_the_logical_sector() {
    let clock = Clock::new();
    let cfg = VolumeConfig::rr_segment(2, CHUNK_BYTES)
        .with_engine(EngineConfig::default().with_read_retries(0));
    let mut vol = StripedVolume::new(
        DiskGeometry::tiny_test(SPINDLE_SECTORS),
        Arc::clone(&clock),
        cfg,
    );
    vol.write(0, &patterned(0x77, 4 * CHUNK_SECTORS), true).unwrap();

    // Physical sector 2 of spindle 1 = logical chunk 1, sector within 2
    // = logical sector 10.
    vol.spindle_mut(1)
        .disk_mut()
        .inject_media_faults(MediaFaultPlan::new(7).latent(2));

    let mut buf = vec![0u8; 4 * CHUNK_BYTES];
    assert_eq!(
        vol.read(0, &mut buf),
        Err(DiskError::Unreadable { sector: 10 }),
        "fault not translated into the volume's address space"
    );
    let snap = vol.obs().snapshot();
    assert_eq!(snap.counter("volume.spindle.1.faults.unreadable_reads"), 1);
    assert_eq!(snap.counter("volume.spindle.0.faults.unreadable_reads"), 0);

    // The healthy spindle's chunks still read fine.
    let mut chunk = vec![0u8; CHUNK_BYTES];
    vol.read(0, &mut chunk).unwrap();
    assert_eq!(chunk, patterned(0x77, CHUNK_SECTORS));
}

/// A transient fault on one spindle is ridden out by that spindle's
/// engine retry policy; the joined read succeeds with intact data.
#[test]
fn transient_fault_on_one_spindle_recovers_transparently() {
    let (mut vol, _clock) = volume(2, StripePolicyKind::RrSegment);
    let data = patterned(0x3C, 4 * CHUNK_SECTORS);
    vol.write(0, &data, true).unwrap();

    vol.spindle_mut(1)
        .disk_mut()
        .inject_media_faults(MediaFaultPlan::new(5).transient(2, 1));

    let mut buf = vec![0u8; 4 * CHUNK_BYTES];
    vol.read(0, &mut buf).unwrap();
    assert_eq!(buf, data);
    let snap = vol.obs().snapshot();
    assert!(snap.counter("volume.spindle.1.engine.retries") >= 1);
    assert_eq!(snap.counter("volume.spindle.1.engine.retry_exhausted"), 0);
}

/// Crash plans armed across the volume share one write index: power
/// fails at the globally N-th write wherever it lands, earlier writes
/// survive on their spindles, and the whole volume refuses service
/// afterwards.
#[test]
fn crash_fires_on_the_globally_nth_write_across_spindles() {
    let (mut vol, _clock) = volume(2, StripePolicyKind::RrSegment);
    vol.arm_crash_all(CrashPlan::drop_at(5));

    // One chunk per write, alternating spindles; write 5 is chunk 5 on
    // spindle 1.
    let mut failed_at = None;
    for i in 0..8u64 {
        let buf = patterned(i as u8 + 1, CHUNK_SECTORS);
        match vol.write(i * CHUNK_SECTORS, &buf, true) {
            Ok(()) => {}
            Err(e) => {
                failed_at = Some((i, e));
                break;
            }
        }
    }
    assert_eq!(failed_at, Some((5, DiskError::Crashed)));
    assert!(vol.has_crashed());
    assert_eq!(vol.global_writes(), 6, "writes numbered in global persist order");

    // The volume fails fast from now on — one power supply.
    assert_eq!(
        vol.write(0, &patterned(0xEE, CHUNK_SECTORS), true),
        Err(DiskError::Crashed)
    );
    let mut buf = vec![0u8; CHUNK_BYTES];
    assert_eq!(vol.read(0, &mut buf), Err(DiskError::Crashed));

    // Surviving images: chunks 0..5 persisted on their spindles, the
    // dropped write 5 (spindle 1, row 2) still zero.
    let images = vol.into_images();
    for chunk in 0..5u64 {
        let (spindle, row) = ((chunk % 2) as usize, chunk / 2);
        let at = (row * CHUNK_SECTORS) as usize * SECTOR_SIZE;
        assert_eq!(
            &images[spindle][at..at + CHUNK_BYTES],
            &patterned(chunk as u8 + 1, CHUNK_SECTORS)[..],
            "chunk {chunk} missing after crash"
        );
    }
    let at = (2 * CHUNK_SECTORS) as usize * SECTOR_SIZE;
    assert_eq!(
        &images[1][at..at + CHUNK_BYTES],
        &vec![0u8; CHUNK_BYTES][..],
        "the dropped write leaked onto the platter"
    );
}

/// Per-spindle accounting stays separate in a shared registry: each
/// spindle's busy time lives under its own `volume.spindle.<i>.*`
/// names, equals that spindle's own stats, never exceeds elapsed
/// virtual time, and their *sum* exceeds elapsed when spindles overlap
/// — which a single shared `disk.busy_ns` counter would misreport as
/// one disk busier than wall-clock time.
#[test]
fn per_spindle_busy_time_is_not_double_counted() {
    let (mut vol, clock) = volume(2, StripePolicyKind::RrSegment);

    // 32 chunks dealt alternately: both spindles do ~identical
    // sequential work, overlapped in virtual time.
    for chunk in 0..32u64 {
        let buf = patterned(chunk as u8, CHUNK_SECTORS);
        vol.write(chunk * CHUNK_SECTORS, &buf, false).unwrap();
    }
    vol.flush().unwrap();
    let elapsed = clock.now_ns();
    assert!(elapsed > 0);

    let snap = vol.obs().snapshot();
    let mut sum = 0;
    for i in 0..2 {
        let stats = vol.spindle(i).disk().stats();
        // Service-time decomposition holds per spindle even with the
        // clock shared across overlapping spindles.
        assert_eq!(
            stats.seek_ns + stats.rotation_ns + stats.transfer_ns,
            stats.busy_ns,
            "spindle {i} double-counted service time"
        );
        let counter = snap.counter(&format!("volume.spindle.{i}.disk.busy_ns"));
        assert_eq!(counter, stats.busy_ns, "spindle {i}'s counter mixed with another's");
        assert!(
            stats.busy_ns <= elapsed,
            "spindle {i} busy {} ns exceeds elapsed {} ns",
            stats.busy_ns,
            elapsed
        );
        assert!(stats.busy_ns > 0, "spindle {i} did no work");
        sum += stats.busy_ns;
    }
    // The shared, unprefixed name must not exist: that was the
    // single-disk assumption that merged every spindle into one counter.
    assert_eq!(snap.counter("disk.busy_ns"), 0);
    assert!(
        sum > elapsed,
        "busy fractions {sum} ns do not overlap within elapsed {elapsed} ns"
    );
}

/// The volume refuses requests past its logical capacity, which rounds
/// each spindle down to whole stripe units.
#[test]
fn capacity_is_whole_stripe_units_times_spindles() {
    // 4_100 sectors per spindle with 8-sector chunks → 512 whole chunks
    // per spindle → 8_192 logical sectors over 2 spindles.
    let clock = Clock::new();
    let cfg = VolumeConfig::interleave(2, CHUNK_BYTES);
    let mut vol = StripedVolume::new(DiskGeometry::tiny_test(4_100), clock, cfg);
    assert_eq!(vol.num_sectors(), 8_192);
    vol.write(8_191, &patterned(1, 1), true).unwrap();
    assert_eq!(
        vol.write(8_192, &patterned(1, 1), true),
        Err(DiskError::OutOfRange {
            sector: 8_192,
            count: 1,
            capacity: 8_192
        })
    );
}
