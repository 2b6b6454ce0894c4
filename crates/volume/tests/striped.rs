//! Multi-spindle behaviour: data round-trips through the splitter and
//! joiner, faults and crashes surface with volume-logical addresses,
//! and per-spindle accounting stays separate when spindles overlap.

use std::sync::Arc;

use engine::EngineConfig;
use sim_disk::{
    AccessKind, BlockDevice, Clock, CrashPlan, DiskError, DiskGeometry, MediaFaultPlan, RamDisk,
    SECTOR_SIZE,
};
use volume::{StripePolicyKind, StripedVolume, VolumeConfig, VolumeDisk};

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

/// A RAID-0 read whose piece fails at submission (its spindle is dead)
/// still finishes every piece it started: the error is the failed
/// piece's logical sector and no spindle queue is left holding a read.
#[test]
fn a_read_failing_at_submission_finishes_its_started_pieces() {
    let (mut vol, _clock) = volume(3, StripePolicyKind::Interleave);
    vol.write(0, &patterned(0x5A, 6 * CHUNK_SECTORS), true)
        .unwrap();
    vol.kill_spindle(1);
    let mut buf = vec![0u8; 6 * CHUNK_BYTES];
    assert_eq!(
        vol.read(0, &mut buf),
        Err(DiskError::Unreadable {
            sector: CHUNK_SECTORS
        })
    );
    assert_eq!(vol.queue_depth(), 0, "a started piece was left queued");
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

/// Parity read-modify-write is counted per row: a write that covers a
/// whole data row computes its parity from the buffer alone, one that
/// covers part of a row first reads the old parity and old data.
#[test]
fn only_partial_row_writes_pay_read_modify_write() {
    let (mut vol, _clock) = volume(4, StripePolicyKind::ParitySegment);
    let count = |vol: &StripedVolume, name: &str| vol.obs().snapshot().counter(name);
    vol.write(0, &patterned(1, 3 * CHUNK_SECTORS), false)
        .unwrap();
    assert_eq!(count(&vol, "volume.rmw_writes"), 0);
    assert_eq!(count(&vol, "volume.rmw_read_bytes"), 0);
    vol.write(3 * CHUNK_SECTORS, &patterned(2, CHUNK_SECTORS), false)
        .unwrap();
    assert_eq!(count(&vol, "volume.rmw_writes"), 1);
    // One parity chunk and one old data chunk.
    assert_eq!(count(&vol, "volume.rmw_read_bytes"), 2 * CHUNK_BYTES as u64);
}

/// A write covering more than half a parity row computes the row's
/// parity by reconstruct-write: it reads only the bytes of the row's
/// written span it leaves uncovered — here the row's third chunk, and
/// the two sector ranges beside a chunk-straddling write — never the
/// old parity nor the old data it overwrites, and every byte reads back.
#[test]
fn a_mostly_covered_row_reads_only_its_uncovered_bytes() {
    let (mut vol, _clock) = volume(4, StripePolicyKind::ParitySegment);
    for i in 0..vol.spindle_count() {
        vol.spindle_mut(i).disk_mut().trace_mut().enable();
    }
    let count = |vol: &StripedVolume, name: &str| vol.obs().snapshot().counter(name);
    // Reads per spindle as (physical sector, sectors).
    let reads = |vol: &StripedVolume| -> Vec<Vec<(u64, u64)>> {
        (0..vol.spindle_count())
            .map(|i| {
                let trace = vol.spindle(i).disk().trace();
                (trace.records().iter())
                    .filter(|r| r.kind == AccessKind::Read)
                    .map(|r| (r.sector, r.bytes / SECTOR_SIZE as u64))
                    .collect()
            })
            .collect()
    };
    let mut mirror = RamDisk::new(vol.num_sectors());
    let mut write = |vol: &mut StripedVolume, sector: u64, data: Vec<u8>| {
        vol.write(sector, &data, false).unwrap();
        mirror.write(sector, &data, false).unwrap();
        vol.flush().unwrap();
    };
    let row = 3 * CHUNK_SECTORS;
    write(&mut vol, 0, patterned(1, 4 * row));
    assert_eq!(count(&vol, "volume.reconstruct_writes"), 0);
    assert!(reads(&vol).iter().all(Vec::is_empty));

    // Row 1 (parity on spindle 2, data on 0, 1, 3): its first two
    // chunks whole. Only the third, on spindle 3, is read.
    write(&mut vol, row, patterned(2, 2 * CHUNK_SECTORS));
    assert_eq!(count(&vol, "volume.reconstruct_writes"), 1);
    assert_eq!(count(&vol, "volume.rmw_writes"), 0);
    assert_eq!(count(&vol, "volume.rmw_read_bytes"), CHUNK_BYTES as u64);
    assert_eq!(
        reads(&vol),
        vec![vec![], vec![], vec![], vec![(CHUNK_SECTORS, CHUNK_SECTORS)]]
    );

    // Row 2 (parity on spindle 1): sectors 2..8 of its first chunk and
    // 0..6 of its second — a span of one chunk, 12 of 24 sectors
    // covered. Read-modify-write would read 20 sectors; reconstruct-
    // write reads the 12 uncovered ones.
    let base = 2 * CHUNK_SECTORS;
    write(&mut vol, 2 * row + 2, patterned(3, 12));
    assert_eq!(count(&vol, "volume.reconstruct_writes"), 2);
    assert_eq!(count(&vol, "volume.rmw_writes"), 0);
    assert_eq!(
        count(&vol, "volume.rmw_read_bytes"),
        (CHUNK_SECTORS + 12) * SECTOR_SIZE as u64
    );
    assert_eq!(
        reads(&vol),
        vec![
            vec![(base, 2)],
            vec![],
            vec![(base + 6, 2)],
            vec![(CHUNK_SECTORS, CHUNK_SECTORS), (base, CHUNK_SECTORS)],
        ]
    );

    // Parity stayed exact: with any one spindle gone, every byte
    // reconstructs.
    let images = vol.into_images();
    for dead in 0..4 {
        let geometry = DiskGeometry::tiny_test(SPINDLE_SECTORS);
        let cfg = VolumeConfig::parity_segment(4, 3 * CHUNK_BYTES);
        let mut vol = StripedVolume::from_images(geometry, Clock::new(), cfg, images.clone());
        vol.kill_spindle(dead);
        let mut got = vec![0u8; 4 * row as usize * SECTOR_SIZE];
        let mut want = got.clone();
        vol.read(0, &mut got).unwrap();
        mirror.read(0, &mut want).unwrap();
        assert!(
            got == want,
            "spindle {dead} dead: a byte did not reconstruct"
        );
    }
}

/// The durability query on a 4-spindle volume: an asynchronous write is
/// durable only once every spindle it touched has finished it by the
/// current virtual time. Asking never moves the clock; a flush makes
/// everything durable.
#[test]
fn writes_are_durable_once_every_spindle_has_drained() {
    let (vol, clock) = volume(4, StripePolicyKind::ParitySegment);
    let mut dev = VolumeDisk::new(vol.into_shared());
    assert!(dev.writes_durable(), "an idle volume holds nothing");
    dev.write(0, &patterned(1, 3 * CHUNK_SECTORS), false)
        .unwrap();
    let t0 = clock.now_ns();
    assert!(!dev.writes_durable(), "four pieces are still queued");
    assert_eq!(clock.now_ns(), t0, "the query never waits");
    clock.advance_ns(1_000_000_000);
    assert!(dev.writes_durable(), "a second later every spindle is idle");

    dev.write(0, &patterned(2, CHUNK_SECTORS), false).unwrap();
    assert!(!dev.writes_durable());
    dev.flush().unwrap();
    assert!(dev.writes_durable());
}

/// A request's access-trace label reaches exactly the spindles that
/// serve its pieces: a later unlabelled request on another spindle
/// stays unlabelled, and a write spanning spindles labels every piece.
#[test]
fn a_label_goes_only_to_the_spindles_of_its_request() {
    let (mut vol, _clock) = volume(4, StripePolicyKind::Interleave);
    for i in 0..4 {
        vol.spindle_mut(i).disk_mut().trace_mut().enable();
    }
    let labels = |vol: &StripedVolume, i: usize| -> Vec<(AccessKind, &'static str)> {
        let records = vol.spindle(i).disk().trace().records();
        records.iter().map(|r| (r.kind, r.label)).collect()
    };
    // A read inside chunk 0 (spindle 0), then an unlabelled write to
    // chunk 2 (spindle 2).
    let mut buf = vec![0u8; CHUNK_BYTES];
    vol.annotate("file-data");
    vol.read(0, &mut buf).unwrap();
    vol.write(2 * CHUNK_SECTORS, &patterned(1, CHUNK_SECTORS), true)
        .unwrap();
    assert_eq!(labels(&vol, 0), [(AccessKind::Read, "file-data")]);
    assert_eq!(labels(&vol, 2), [(AccessKind::Write, "")]);
    // A labelled write over chunks 1 and 3: both pieces carry it.
    vol.annotate("log-chunk");
    vol.write(CHUNK_SECTORS, &patterned(2, 3 * CHUNK_SECTORS), true)
        .unwrap();
    assert_eq!(labels(&vol, 1), [(AccessKind::Write, "log-chunk")]);
    assert_eq!(labels(&vol, 3), [(AccessKind::Write, "log-chunk")]);
    assert_eq!(
        labels(&vol, 2),
        [(AccessKind::Write, ""), (AccessKind::Write, "log-chunk")]
    );
    assert_eq!(labels(&vol, 0).len(), 1, "spindle 0 serves no piece of it");
}

/// A range crossing stripe chunks is one token, on RAID-0 and on
/// parity alike: its claim returns the bytes the mirror and the
/// synchronous read return, and its pieces run on their spindles at
/// once — the claim waits less than the spindles' busy time summed.
#[test]
fn a_range_crossing_chunks_is_one_token_whose_pieces_overlap() {
    for (kind, spindles) in [
        (StripePolicyKind::Interleave, 3),
        (StripePolicyKind::ParitySegment, 4),
    ] {
        let (mut vol, clock) = volume(spindles, kind);
        let mut mirror = RamDisk::new(vol.num_sectors());
        let data = patterned(0x6B, 4 * CHUNK_SECTORS);
        vol.write(0, &data, true).unwrap();
        mirror.write(0, &data, true).unwrap();
        vol.flush().unwrap();

        // Sectors 4..20: the tail of chunk 0, chunk 1, the head of chunk 2.
        let (sector, sectors) = (CHUNK_SECTORS / 2, 2 * CHUNK_SECTORS);
        let busy = |vol: &StripedVolume| -> Vec<u64> {
            (0..spindles)
                .map(|i| vol.spindle(i).disk().stats().busy_ns)
                .collect()
        };
        let (t0, busy0) = (clock.now_ns(), busy(&vol));
        let token = vol
            .start_read_async(sector, sectors as usize * SECTOR_SIZE)
            .unwrap_or_else(|| panic!("{kind}: a range crossing chunks got no token"));
        let got = vol.finish_read_async(token).unwrap();
        let waited = clock.now_ns() - t0;
        let busy_sum: u64 = busy(&vol).iter().zip(&busy0).map(|(b, b0)| b - b0).sum();

        let mut want = vec![0u8; sectors as usize * SECTOR_SIZE];
        mirror.read(sector, &mut want).unwrap();
        assert_eq!(got, want, "{kind}: the claim diverged from the mirror");
        let mut sync = vec![0u8; want.len()];
        vol.read(sector, &mut sync).unwrap();
        assert_eq!(got, sync, "{kind}: the claim diverged from the synchronous read");
        assert!(
            waited < busy_sum,
            "{kind}: the pieces did not overlap: waited {waited} ns, spindles busy {busy_sum} ns"
        );
    }
}
