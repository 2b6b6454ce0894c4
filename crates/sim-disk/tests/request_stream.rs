//! The request stream a bare [`SimDisk`] services through its
//! [`BlockDevice`] calls, pinned: scripted scenarios run with the access
//! trace enabled, and the trace (kind, sector, size, sync and sequential
//! flags, issue time, service time, label of every serviced request),
//! the platter image, the clock, every call's result (with the bytes of
//! each successful read), the [`sim_disk::IoStats`] counters, the
//! media-fault counters and the event ring are reduced to FNV-1a digests
//! and compared against recorded constants. A change to how the disk
//! services, times, tears, holds or corrupts a direct request moves a
//! digest.
//!
//! `IoStats::queue_wait_ns` is deliberately left out: it is the one
//! figure in which direct requests and queued requests were allowed to
//! differ. Every scenario also checks that it exercised the path it is
//! named for, so a digest never pins a trivial stream.

use std::sync::Arc;

use sim_disk::{
    BlockDevice, Clock, CrashPlan, DiskError, DiskGeometry, FailSlowProfile, MediaFaultPlan,
    SimDisk, SECTOR_SIZE,
};

const DISK_SECTORS: u64 = 4_096;

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn patterned(fill: u8, sectors: u64) -> Vec<u8> {
    (0..sectors as usize * SECTOR_SIZE)
        .map(|i| fill ^ (i / SECTOR_SIZE) as u8 ^ (i % 251) as u8)
        .collect()
}

/// A bare disk driven through `BlockDevice` calls (plus the odd queued
/// submission), folding every call's outcome into one digest.
struct Script {
    disk: SimDisk,
    clock: Arc<Clock>,
    calls: u64,
}

impl Script {
    fn new() -> Self {
        let clock = Clock::new();
        let mut disk = SimDisk::new(DiskGeometry::tiny_test(DISK_SECTORS), Arc::clone(&clock));
        disk.trace_mut().enable();
        Self {
            disk,
            clock,
            calls: FNV_OFFSET,
        }
    }

    fn note(&mut self, line: String) {
        self.calls = fnv1a(line.as_bytes(), self.calls);
    }

    fn read(&mut self, sector: u64, sectors: u64) -> (Result<(), DiskError>, Vec<u8>) {
        let mut buf = vec![0u8; sectors as usize * SECTOR_SIZE];
        self.disk.annotate("read");
        let res = self.disk.read(sector, &mut buf);
        // A failed read's buffer contents are unspecified: only the
        // bytes of a successful read are pinned.
        let got = res.clone().map(|()| fnv1a(&buf, FNV_OFFSET));
        let line = format!("read {sector} {sectors} {got:?} @{}\n", self.clock.now_ns());
        self.note(line);
        (res, buf)
    }

    fn write(&mut self, sector: u64, sectors: u64, fill: u8, sync: bool) -> Result<(), DiskError> {
        self.disk.annotate(if sync { "sync" } else { "async" });
        let res = self.disk.write(sector, &patterned(fill, sectors), sync);
        let line = format!(
            "write {sector} {sectors} {fill} {sync} {res:?} @{}\n",
            self.clock.now_ns()
        );
        self.note(line);
        res
    }

    fn flush(&mut self) -> Result<(), DiskError> {
        let res = self.disk.flush();
        let line = format!("flush {res:?} @{}\n", self.clock.now_ns());
        self.note(line);
        res
    }

    fn submit_write(&mut self, sector: u64, sectors: u64, fill: u8) -> u64 {
        let id = self
            .disk
            .submit_write(sector, &patterned(fill, sectors))
            .unwrap();
        let line = format!(
            "submit_write {sector} {sectors} {fill} @{}\n",
            self.clock.now_ns()
        );
        self.note(line);
        id
    }

    fn complete(&mut self, id: u64) {
        let done = self.disk.complete(id, false).unwrap();
        let line = format!(
            "complete {} {} {} {} {} {}\n",
            done.sector,
            done.bytes,
            done.start_ns,
            done.finish_ns,
            done.service_ns,
            done.sequential
        );
        self.note(line);
    }

    /// `[trace, image, clock, calls, stats]`.
    fn digests(&self) -> [u64; 5] {
        let trace = self.disk.trace().records().iter().fold(FNV_OFFSET, |h, r| {
            let line = format!(
                "{} {} {} {} {} {} {} {}\n",
                r.kind,
                r.sector,
                r.bytes,
                r.sync,
                r.sequential,
                r.issued_at_ns,
                r.service_ns,
                r.label
            );
            fnv1a(line.as_bytes(), h)
        });
        let image = fnv1a(self.disk.image(), FNV_OFFSET);
        let clock = fnv1a(
            format!("{} {}", self.clock.now_ns(), self.disk.busy_until_ns()).as_bytes(),
            FNV_OFFSET,
        );
        let s = self.disk.stats();
        let snap = self.disk.obs().snapshot();
        let mut stats = format!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {}",
            s.reads,
            s.writes,
            s.sync_writes,
            s.seeks,
            s.sequential,
            s.bytes_read,
            s.bytes_written,
            s.busy_ns,
            s.seek_ns,
            s.rotation_ns,
            s.transfer_ns,
            s.stall_ns,
            s.coalesced
        );
        for name in [
            "faults.unreadable_reads",
            "faults.transient_errors",
            "faults.rot_reads",
            "faults.cleared_by_write",
        ] {
            stats += &format!(" {}", snap.counter(name));
        }
        for e in &snap.events {
            stats += &format!("\n{} {} {}", e.at_ns, e.kind, e.detail);
        }
        [
            trace,
            image,
            clock,
            self.calls,
            fnv1a(stats.as_bytes(), FNV_OFFSET),
        ]
    }

    fn check(&self, name: &str, want: [u64; 5]) {
        assert!(
            !self.disk.trace().records().is_empty(),
            "{name}: the disk serviced no request"
        );
        assert_eq!(self.digests(), want, "{name}: the request stream moved");
    }
}

#[test]
fn sync_reads_behind_queued_async_writes() {
    let mut s = Script::new();
    // Scattered async writes push the busy horizon past the clock.
    for (i, &(sector, sectors)) in [(100, 8), (900, 4), (2_000, 16), (108, 8)]
        .iter()
        .enumerate()
    {
        s.write(sector, sectors, 0x10 + i as u8, false).unwrap();
    }
    // Two queued submissions the direct calls overtake.
    let a = s.submit_write(3_000, 4, 0x20);
    let b = s.submit_write(40, 2, 0x21);
    assert!(
        s.disk.busy_until_ns() > s.clock.now_ns(),
        "the async writes left no backlog for the reads to wait behind"
    );
    let before = s.clock.now_ns();
    s.read(100, 16).0.unwrap();
    assert!(
        s.disk.trace().records().last().unwrap().issued_at_ns == before,
        "the read was not issued at the caller's time"
    );
    s.read(2_004, 4).0.unwrap();
    s.write(500, 2, 0x30, false).unwrap();
    s.read(40, 2).0.unwrap();
    s.complete(b);
    s.write(502, 2, 0x31, true).unwrap();
    s.read(900, 4).0.unwrap();
    s.read(3_000, 4).0.unwrap();
    s.complete(a);
    s.write(1_500, 8, 0x32, false).unwrap();
    s.read(1_500, 8).0.unwrap();
    s.flush().unwrap();
    s.read(0, 64).0.unwrap();
    s.check(
        "sync_reads_behind_queued_async_writes",
        [
            0xa7c671f9380260ff,
            0x592075adb4df8c01,
            0xdb6f39d86cdf78a1,
            0xbdaefc99249058dd,
            0xde3d53c624e1e481,
        ],
    );
}

#[test]
fn reorder_window_crash_with_held_reads_and_a_flush() {
    let mut s = Script::new();
    s.disk.arm_crash(CrashPlan::reorder_at(9, 3));
    s.write(100, 4, 0x40, true).unwrap(); // write 0: force-unit-access
    s.write(200, 2, 0x41, false).unwrap(); // write 1: held
    s.write(202, 2, 0x42, false).unwrap(); // write 2: held
    s.write(50, 1, 0x43, false).unwrap(); // write 3: held
    s.write(300, 8, 0x44, false).unwrap(); // write 4: held, write 1 ages out
    let (_, held) = s.read(199, 6);
    let platter = &s.disk.image()[199 * SECTOR_SIZE..205 * SECTOR_SIZE];
    assert_ne!(held, platter, "the read saw nothing of the held cache");
    s.read(50, 1).0.unwrap();
    s.flush().unwrap();
    s.write(210, 4, 0x45, false).unwrap(); // write 5: held
    s.write(100, 4, 0x46, true).unwrap(); // write 6: FUA past the held write
    s.read(208, 8).0.unwrap();
    s.write(400, 2, 0x47, false).unwrap(); // write 7: held
    s.write(220, 1, 0x48, false).unwrap(); // write 8: held, write 5 ages out
    assert_eq!(s.write(500, 1, 0x49, false), Err(DiskError::Crashed)); // write 9
    assert!(s.disk.has_crashed());
    assert_eq!(s.read(0, 1).0, Err(DiskError::Crashed));
    assert_eq!(s.flush(), Err(DiskError::Crashed));
    s.check(
        "reorder_window_crash_with_held_reads_and_a_flush",
        [
            0x6cff20e1d3628b1b,
            0x11d29624636408b8,
            0xe229fae61be00333,
            0x4e65a6495c7f60bc,
            0xd703d0fd71294129,
        ],
    );
}

#[test]
fn torn_write() {
    let mut s = Script::new();
    s.disk.arm_crash(CrashPlan::tear_at(4, 3));
    s.write(10, 4, 0x50, true).unwrap();
    s.write(14, 4, 0x51, false).unwrap();
    s.read(10, 8).0.unwrap();
    s.write(700, 2, 0x52, false).unwrap();
    s.write(30, 1, 0x53, true).unwrap();
    assert_eq!(s.write(600, 6, 0x54, false), Err(DiskError::Crashed));
    let image = &s.disk.image()[600 * SECTOR_SIZE..606 * SECTOR_SIZE];
    let want = patterned(0x54, 6);
    assert_eq!(
        &image[..3 * SECTOR_SIZE],
        &want[..3 * SECTOR_SIZE],
        "the prefix persisted"
    );
    assert!(
        image[3 * SECTOR_SIZE..].iter().all(|&b| b == 0),
        "the tail was torn off"
    );
    assert_eq!(s.read(10, 1).0, Err(DiskError::Crashed));
    s.check(
        "torn_write",
        [
            0x73a1ae1facae8d3e,
            0x632a94ef9e01f95d,
            0x3b4a9ab4a18204eb,
            0x16785047ff7040ea,
            0x9ac9cf846fcecf0d,
        ],
    );
}

#[test]
fn latent_transient_and_rot_reads_then_a_clearing_rewrite() {
    let mut s = Script::new();
    s.write(16, 64, 0x60, true).unwrap();
    s.disk.inject_media_faults(
        MediaFaultPlan::new(7)
            .latent(20)
            .transient(40, 2)
            .rot(60)
            .rot(61),
    );
    assert_eq!(s.read(16, 8).0, Err(DiskError::Unreadable { sector: 20 }));
    s.read(24, 8).0.unwrap();
    assert_eq!(s.read(40, 1).0, Err(DiskError::Unreadable { sector: 40 }));
    assert_eq!(s.read(38, 4).0, Err(DiskError::Unreadable { sector: 40 }));
    s.read(40, 1).0.unwrap();
    let (res, rotted) = s.read(56, 8);
    res.unwrap();
    assert_ne!(
        rotted,
        patterned(0x60, 64)[40 * SECTOR_SIZE..48 * SECTOR_SIZE],
        "no rot"
    );
    s.read(60, 2).0.unwrap();
    s.write(20, 1, 0x61, true).unwrap();
    s.write(60, 2, 0x62, false).unwrap();
    assert!(
        s.disk.media_faults().unwrap().is_empty(),
        "the rewrite left a fault"
    );
    s.read(16, 8).0.unwrap();
    s.read(56, 8).0.unwrap();
    s.flush().unwrap();
    s.check(
        "latent_transient_and_rot_reads_then_a_clearing_rewrite",
        [
            0x05c6195d993c5191,
            0x9e0ddc53570296d8,
            0x64cec706852f6ff7,
            0x41ad966a65256b73,
            0xb056034bd1925461,
        ],
    );
}

#[test]
fn fail_slow_stall() {
    let mut s = Script::new();
    s.write(100, 8, 0x70, true).unwrap();
    s.write(900, 8, 0x71, false).unwrap();
    let onset = s.clock.now_ns() + 3_000_000;
    s.disk.inject_media_faults(
        MediaFaultPlan::new(3).fail_slow(FailSlowProfile::at(onset).with_multiplier_pct(350)),
    );
    s.read(100, 8).0.unwrap();
    s.write(1_200, 4, 0x72, false).unwrap();
    s.read(900, 8).0.unwrap();
    s.write(108, 8, 0x73, true).unwrap();
    s.read(1_200, 4).0.unwrap();
    s.flush().unwrap();
    assert!(s.disk.stats().stall_ns > 0, "no request stalled");
    s.check(
        "fail_slow_stall",
        [
            0xf924e714cee03944,
            0xdb2626d079ccf6e9,
            0x6c5de6a4eb50fd13,
            0xbc5b7eb40208f520,
            0xfb1e5319e2bb934e,
        ],
    );
}
