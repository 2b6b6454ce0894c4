//! The request stream each spindle sees, pinned: scripted scenarios run
//! with every spindle's [`sim_disk::AccessTrace`] enabled, and each
//! spindle's trace — kind, sector, size, sync flag, submission time,
//! service time and label of every serviced request — plus the volume's
//! whole registry snapshot are reduced to FNV-1a digests and compared
//! against recorded constants. A change to how the volume splits,
//! orders, hedges, reconstructs or writes its pieces moves a digest.
//!
//! Next to each spindle's ordered digest sits an order-insensitive one:
//! the same spindle's requests — kind, sector, size and label, without
//! the timing an order change moves — sorted, then digested. The queue's
//! pick rule may reorder a spindle's requests and move only the ordered
//! digest; the set each spindle serves is pinned by the sorted one.
//!
//! Every scenario also checks that it exercised the path it is named
//! for, so a digest can never pin an empty or trivial stream.

use engine::EngineConfig;
use sim_disk::{
    Clock, CrashPlan, DiskError, DiskGeometry, FailSlowProfile, MediaFaultPlan, SECTOR_SIZE,
};
use volume::{HealthPolicy, RebuildPolicy, SpindleState, StripedVolume, VolumeConfig};

const SPINDLE_SECTORS: u64 = 4_096;
const CHUNK_SECTORS: u64 = 8;
const CHUNK_BYTES: usize = CHUNK_SECTORS as usize * SECTOR_SIZE;
/// One data row of a 4-spindle parity volume, in sectors.
const ROW_SECTORS: u64 = 3 * CHUNK_SECTORS;
const HEDGE_DEADLINE_NS: u64 = 20_000_000;
const SLOW_SPINDLE: usize = 1;

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One digest per spindle trace, then one of the registry snapshot.
fn digests(vol: &StripedVolume) -> Vec<u64> {
    let mut out: Vec<u64> = (0..vol.spindle_count())
        .map(|i| {
            vol.spindle(i)
                .disk()
                .trace()
                .records()
                .iter()
                .fold(FNV_OFFSET, |h, r| {
                    let line = format!(
                        "{} {} {} {} {} {} {}\n",
                        r.kind, r.sector, r.bytes, r.sync, r.issued_at_ns, r.service_ns, r.label
                    );
                    fnv1a(line.as_bytes(), h)
                })
        })
        .collect();
    out.push(fnv1a(
        format!("{:?}", vol.obs().snapshot()).as_bytes(),
        FNV_OFFSET,
    ));
    out
}

/// One digest per spindle of the requests it served, in sorted order:
/// what each spindle serves, whatever order it serves it in.
fn set_digests(vol: &StripedVolume) -> Vec<u64> {
    (0..vol.spindle_count())
        .map(|i| {
            let mut lines: Vec<String> = vol
                .spindle(i)
                .disk()
                .trace()
                .records()
                .iter()
                .map(|r| format!("{} {} {} {}\n", r.kind, r.sector, r.bytes, r.label))
                .collect();
            lines.sort();
            lines
                .iter()
                .fold(FNV_OFFSET, |h, line| fnv1a(line.as_bytes(), h))
        })
        .collect()
}

fn check(name: &str, vol: &StripedVolume, want_set: &[u64], want: &[u64]) {
    let traced: usize = (0..vol.spindle_count())
        .map(|i| vol.spindle(i).disk().trace().records().len())
        .sum();
    assert!(traced > 0, "{name}: no spindle serviced a request");
    assert_eq!(
        set_digests(vol),
        want_set,
        "{name}: the requests a spindle serves moved"
    );
    assert_eq!(digests(vol), want, "{name}: the request stream moved");
}

fn traced(cfg: VolumeConfig) -> StripedVolume {
    let mut vol = StripedVolume::new(DiskGeometry::tiny_test(SPINDLE_SECTORS), Clock::new(), cfg);
    for i in 0..vol.spindle_count() {
        vol.spindle_mut(i).disk_mut().trace_mut().enable();
    }
    vol
}

fn parity(engine: EngineConfig) -> StripedVolume {
    traced(VolumeConfig::parity_segment(4, 3 * CHUNK_BYTES).with_engine(engine))
}

fn patterned(fill: u8, sectors: u64) -> Vec<u8> {
    (0..sectors as usize * SECTOR_SIZE)
        .map(|i| fill ^ (i / SECTOR_SIZE) as u8 ^ (i % 251) as u8)
        .collect()
}

fn write_all(vol: &mut StripedVolume, writes: &[(u64, u64, bool)], salt: u8) {
    for (i, &(sector, sectors, sync)) in writes.iter().enumerate() {
        vol.annotate(if sync { "sync" } else { "async" });
        vol.write(
            sector,
            &patterned(salt.wrapping_add(i as u8), sectors),
            sync,
        )
        .unwrap();
    }
}

fn read_all(vol: &mut StripedVolume, reads: &[(u64, u64)]) {
    for &(sector, sectors) in reads {
        let mut buf = vec![0u8; sectors as usize * SECTOR_SIZE];
        vol.annotate("read");
        vol.read(sector, &mut buf).unwrap();
    }
}

/// Held reads claimed around a write, as the cleaner issues them.
fn async_reads(vol: &mut StripedVolume, ranges: &[(u64, u64)]) {
    let tokens: Vec<u64> = ranges
        .iter()
        .map(|&(sector, sectors)| {
            vol.start_read_async(sector, sectors as usize * SECTOR_SIZE)
                .expect("a live volume starts every valid range")
        })
        .collect();
    vol.write(400, &patterned(0x77, 4), false).unwrap();
    for token in tokens {
        vol.finish_read_async(token).unwrap();
    }
}

const MIXED_WRITES: [(u64, u64, bool); 7] = [
    (3, 2, true),
    (24, 24, false),
    (70, 13, false),
    (120, 96, true),
    (300, 5, false),
    (5, 1, true),
    (48, 48, true),
];
const MIXED_READS: [(u64, u64); 6] = [(0, 64), (3, 2), (60, 170), (290, 20), (0, 416), (130, 7)];

#[test]
fn one_spindle_rr_segment() {
    let mut vol = traced(VolumeConfig::rr_segment(1, 64 * SECTOR_SIZE));
    write_all(&mut vol, &MIXED_WRITES, 0x10);
    read_all(&mut vol, &MIXED_READS);
    async_reads(&mut vol, &[(8, 8), (200, 16)]);
    vol.flush().unwrap();
    read_all(&mut vol, &MIXED_READS);
    check(
        "rr_segment(1)",
        &vol,
        &[17769819127843501380],
        &[13590826850971266626, 7164077107013695137],
    );
}

#[test]
fn three_spindle_interleave() {
    let mut vol = traced(VolumeConfig::interleave(3, 4096));
    write_all(&mut vol, &MIXED_WRITES, 0x20);
    read_all(&mut vol, &MIXED_READS);
    // The last range crosses from chunk 2 into chunk 3: one token, two
    // spindles.
    async_reads(&mut vol, &[(8, 8), (32, 4), (20, 8)]);
    vol.flush().unwrap();
    // A latent sector fails its piece at completion; the other pieces
    // still land and the error comes back in logical terms.
    vol.spindle_mut(1)
        .disk_mut()
        .inject_media_faults(MediaFaultPlan::new(7).latent(2));
    let mut buf = vec![0u8; 48 * SECTOR_SIZE];
    assert_eq!(
        vol.read(0, &mut buf),
        Err(DiskError::Unreadable { sector: 10 })
    );
    assert_eq!(vol.queue_depth(), 0);
    read_all(&mut vol, &[(16, 32), (0, 8)]);
    check(
        "interleave(3)",
        &vol,
        &[
            4082910551753569953,
            10852369637435783718,
            13059346457517923595,
        ],
        &[
            10496420486480692188,
            1410949480116363587,
            18074415312857266465,
            15898416441445957527,
        ],
    );
}

#[test]
fn parity_full_row_writes() {
    let mut vol = parity(EngineConfig::default());
    let rows: Vec<(u64, u64, bool)> = (0..6u64)
        .map(|r| (r * ROW_SECTORS, ROW_SECTORS * (1 + r % 2), r % 3 == 0))
        .collect();
    write_all(&mut vol, &rows, 0x30);
    read_all(&mut vol, &[(0, 3 * ROW_SECTORS), (ROW_SECTORS + 4, 30)]);
    // The last range crosses from chunk 3 into chunk 4.
    async_reads(&mut vol, &[(8, 8), (ROW_SECTORS, 8), (ROW_SECTORS + 4, 8)]);
    vol.flush().unwrap();
    let snap = vol.obs().snapshot();
    assert_eq!(snap.counter("volume.degraded_reads"), 0);
    // The sync rows go ahead of the queued async rows, so three of the
    // reads find their range still queued and are answered from the
    // queued payload: spindles 0 and 3 serve those reads from memory.
    check(
        "parity full rows",
        &vol,
        &[
            3046622017421422423,
            79097856231403543,
            16735918471488368695,
            3471181967871509926,
        ],
        &[
            5645563476834451120,
            3687094757746384348,
            9954248137330403170,
            2310403227556319133,
            11548736651552711722,
        ],
    );
}

#[test]
fn parity_partial_row_writes() {
    let mut vol = parity(EngineConfig::default());
    write_all(&mut vol, &MIXED_WRITES, 0x40);
    // A latent sector under a read-modify-write's old data: that read
    // falls back to reconstruction.
    vol.spindle_mut(2)
        .disk_mut()
        .inject_media_faults(MediaFaultPlan::new(9).latent(1));
    write_all(
        &mut vol,
        &[(17, 3, true), (41, 2, false), (90, 30, true)],
        0x50,
    );
    vol.flush().unwrap();
    read_all(&mut vol, &MIXED_READS);
    let snap = vol.obs().snapshot();
    assert!(
        snap.counter("volume.reconstructions") > 0,
        "no RMW read fell back"
    );
    assert!(
        snap.counter("volume.rmw_writes") > 0 && snap.counter("volume.reconstruct_writes") > 0,
        "partial rows did not take both parity paths"
    );
    check(
        "parity partial rows",
        &vol,
        &[
            3146550867583161645,
            3953591621345474191,
            4418754461142804561,
            14108739846522602222,
        ],
        &[
            17616644236955034888,
            649906519564028772,
            17611611931417454575,
            9346907215960553058,
            4585780240087057817,
        ],
    );
}

#[test]
fn parity_degraded() {
    let mut vol = parity(EngineConfig::default());
    write_all(&mut vol, &MIXED_WRITES, 0x60);
    vol.flush().unwrap();
    // A claim in flight when its spindle dies is served by
    // reconstruction.
    let token = vol.start_read_async(8, CHUNK_BYTES).unwrap();
    vol.kill_spindle(1);
    vol.finish_read_async(token).unwrap();
    read_all(&mut vol, &MIXED_READS);
    write_all(
        &mut vol,
        &[(0, ROW_SECTORS, true), (9, 4, true), (50, 3, false)],
        0x70,
    );
    vol.flush().unwrap();
    read_all(&mut vol, &MIXED_READS);
    // A latent sector on a survivor under a dead spindle's chunk is a
    // double fault: it escapes at the logical sector.
    vol.spindle_mut(0)
        .disk_mut()
        .inject_media_faults(MediaFaultPlan::new(3).latent(8));
    let mut buf = vec![0u8; CHUNK_BYTES];
    assert_eq!(
        vol.read(32, &mut buf),
        Err(DiskError::Unreadable { sector: 32 })
    );
    let snap = vol.obs().snapshot();
    assert!(snap.counter("volume.degraded_reads") > 0);
    check(
        "parity degraded",
        &vol,
        &[
            6775096127603035485,
            363857824292462795,
            17214820288103112333,
            14535117299589508411,
        ],
        &[
            17026077293751634608,
            16449025345858147303,
            10675574837810664961,
            7720023334032553292,
            176560665707175264,
        ],
    );
}

#[test]
fn parity_mid_rebuild() {
    let mut vol = parity(EngineConfig::default());
    write_all(&mut vol, &MIXED_WRITES, 0x80);
    vol.flush().unwrap();
    vol.kill_spindle(2);
    write_all(&mut vol, &[(12, 6, true), (72, 48, false)], 0x90);
    vol.replace_spindle(2, RebuildPolicy::default().with_max_step_rows(4))
        .unwrap();
    for round in 0..3u8 {
        vol.rebuild_step().unwrap();
        read_all(&mut vol, &MIXED_READS);
        write_all(
            &mut vol,
            &[(2 + round as u64, 9, true), (150, 24, false)],
            0xA0 + round,
        );
    }
    while vol.rebuild().is_some() {
        vol.rebuild_step().unwrap();
    }
    assert_eq!(vol.spindle_state(2), SpindleState::Online);
    read_all(&mut vol, &MIXED_READS);
    check(
        "parity mid-rebuild",
        &vol,
        &[
            15155429807556542976,
            7798555145499167692,
            4969531490533552908,
            6349433855701822810,
        ],
        &[
            7386301604268465420,
            14862653330963371557,
            14719271880646019619,
            10538135894192280536,
            2039885531887706729,
        ],
    );
}

#[test]
fn hedged_fail_slow_reads() {
    let mut vol = parity(EngineConfig::default().with_hedge_deadline_ns(HEDGE_DEADLINE_NS));
    write_all(&mut vol, &MIXED_WRITES, 0xB0);
    vol.flush().unwrap();
    let mut plan =
        MediaFaultPlan::new(0xFA11).fail_slow(FailSlowProfile::at(0).with_multiplier_pct(3000));
    // Slow *and* unreadable here: that race is covered by its
    // reconstruction.
    for s in 0..48 {
        plan = plan.latent(s);
    }
    vol.spindle_mut(SLOW_SPINDLE)
        .disk_mut()
        .inject_media_faults(plan);
    read_all(&mut vol, &MIXED_READS);
    // A read-modify-write whose old data sits on the slow spindle.
    write_all(&mut vol, &[(9, 2, true), (33, 1, true)], 0xC0);
    // A queued write partly under a read stalls it at submission: the
    // read is steered to reconstruction.
    vol.write(9, &patterned(0xD0, 2), false).unwrap();
    read_all(&mut vol, &[(8, 8), (0, 64)]);
    vol.flush().unwrap();
    read_all(&mut vol, &MIXED_READS);
    let snap = vol.obs().snapshot();
    assert!(snap.counter("volume.hedged_reads") > 0, "no race was run");
    assert!(
        snap.counter("volume.degraded_reads") > 0,
        "no race was covered"
    );
    check(
        "hedged fail-slow",
        &vol,
        &[
            10428048349418112623,
            15776427513936326095,
            7089429648722478215,
            8280593297781507440,
        ],
        &[
            17653389824146476827,
            16290031191021825417,
            15136617211666491583,
            16646811949525599299,
            9701127803676046162,
        ],
    );
}

#[test]
fn health_eviction() {
    let mut vol = parity(EngineConfig::default());
    write_all(&mut vol, &MIXED_WRITES, 0xE0);
    vol.flush().unwrap();
    vol.set_health_policy(HealthPolicy::default().with_evict_after(3));
    vol.set_hot_spares(1);
    vol.set_spare_rebuild_policy(RebuildPolicy::default().with_max_step_rows(2));
    vol.spindle_mut(SLOW_SPINDLE)
        .disk_mut()
        .inject_media_faults(
            MediaFaultPlan::new(0xFA11).fail_slow(FailSlowProfile::at(0).with_multiplier_pct(3000)),
        );
    let mut rounds = 0u8;
    while vol.spindle_state(SLOW_SPINDLE) == SpindleState::Online {
        read_all(&mut vol, &MIXED_READS);
        write_all(&mut vol, &[(rounds as u64, 5, true)], rounds);
        rounds += 1;
        assert!(rounds < 64, "the monitor never evicted the slow spindle");
    }
    read_all(&mut vol, &MIXED_READS);
    while vol.rebuild().is_some() {
        vol.rebuild_step().unwrap();
    }
    read_all(&mut vol, &MIXED_READS);
    assert_eq!(vol.obs().snapshot().counter("volume.health.evictions"), 1);
    check(
        "health eviction",
        &vol,
        &[
            5637291714516117025,
            3697701619356146443,
            11487770633480184130,
            3955462968503472215,
        ],
        &[
            17717392754736396626,
            14087835613772939322,
            11910081561420302963,
            9209830283608395392,
            9790993028148319603,
        ],
    );
}

#[test]
fn crash_mid_write() {
    let mut vol = parity(EngineConfig::default());
    vol.arm_crash_all(CrashPlan::drop_at(9));
    let mut crashed = false;
    for (i, &(sector, sectors, sync)) in MIXED_WRITES.iter().enumerate() {
        if vol.write(sector, &patterned(i as u8, sectors), sync) == Err(DiskError::Crashed) {
            crashed = true;
            break;
        }
    }
    if !crashed {
        assert_eq!(vol.flush(), Err(DiskError::Crashed));
    }
    assert!(vol.has_crashed());
    let mut buf = vec![0u8; CHUNK_BYTES];
    assert_eq!(vol.read(0, &mut buf), Err(DiskError::Crashed));
    // The crash lands at a count of writes, so which writes precede it
    // follows the pick order: the set each spindle serves moves with it.
    check(
        "crash",
        &vol,
        &[
            8772816486153740188,
            12736238658769705106,
            15490533330041549245,
            15358055366699380206,
        ],
        &[
            8774099810897895551,
            18192971268094307804,
            15458698234242383805,
            5374301587503956046,
            5144347826002517762,
        ],
    );
}
