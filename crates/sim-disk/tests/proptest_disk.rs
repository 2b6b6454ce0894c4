//! Property tests for the disk simulator: data integrity under arbitrary
//! request sequences, timing-model invariants, and crash-plan semantics.

use std::sync::Arc;

use proptest::prelude::*;

use sim_disk::{BlockDevice, Clock, CrashPlan, DiskGeometry, RamDisk, SimDisk, SECTOR_SIZE};

/// A request against a small device.
#[derive(Debug, Clone)]
enum Req {
    Write {
        sector: u64,
        sectors: u8,
        fill: u8,
        sync: bool,
    },
    Read {
        sector: u64,
        sectors: u8,
    },
    Flush,
}

const DEV_SECTORS: u64 = 256;

fn req_strategy() -> impl Strategy<Value = Req> {
    prop_oneof![
        (0u64..DEV_SECTORS, 1u8..8, any::<u8>(), any::<bool>()).prop_map(
            |(sector, sectors, fill, sync)| Req::Write {
                sector,
                sectors,
                fill,
                sync
            }
        ),
        (0u64..DEV_SECTORS, 1u8..8).prop_map(|(sector, sectors)| Req::Read { sector, sectors }),
        Just(Req::Flush),
    ]
}

/// One step of a mixed direct / queued request script.
#[derive(Debug, Clone)]
enum Step {
    /// A [`BlockDevice`] call.
    Direct(Req),
    /// A queued write or read (`fill: None`) left for a later `Complete`.
    Submit {
        sector: u64,
        sectors: u8,
        fill: Option<u8>,
    },
    /// Services the queued request this salt picks, if any.
    Complete(u64),
    /// The virtual CPU runs this long before the next step.
    Idle(u64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        req_strategy().prop_map(Step::Direct),
        (
            0u64..DEV_SECTORS - 8,
            1u8..8,
            proptest::option::of(any::<u8>())
        )
            .prop_map(|(sector, sectors, fill)| Step::Submit {
                sector,
                sectors,
                fill
            }),
        any::<u64>().prop_map(Step::Complete),
        (0u64..5_000_000).prop_map(Step::Idle),
    ]
}

proptest! {
    /// Queue wait is charged the same way to every request, direct or
    /// queued: `disk.queue_wait_ns` equals Σ(max(busy, issue) − issue)
    /// replayed from the access trace, where `busy` is the previous
    /// request's finish.
    #[test]
    fn queue_wait_is_the_traced_gap_between_issue_and_service(
        steps in proptest::collection::vec(step_strategy(), 1..60),
    ) {
        let clock = Clock::new();
        let mut disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Arc::clone(&clock));
        disk.trace_mut().enable();
        let mut queued: Vec<u64> = Vec::new();
        for step in &steps {
            match step {
                Step::Direct(Req::Write { sector, sectors, fill, sync }) => {
                    let _ = disk.write(*sector, &vec![*fill; *sectors as usize * SECTOR_SIZE], *sync);
                }
                Step::Direct(Req::Read { sector, sectors }) => {
                    let _ = disk.read(*sector, &mut vec![0u8; *sectors as usize * SECTOR_SIZE]);
                }
                Step::Direct(Req::Flush) => {
                    disk.flush().unwrap();
                    queued.clear();
                }
                Step::Submit { sector, sectors, fill } => {
                    let len = *sectors as usize * SECTOR_SIZE;
                    let id = match fill {
                        Some(fill) => disk.submit_write(*sector, &vec![*fill; len]),
                        None => disk.submit_read(*sector, len),
                    };
                    queued.push(id.unwrap());
                }
                Step::Complete(salt) => {
                    if !queued.is_empty() {
                        let id = queued.remove(*salt as usize % queued.len());
                        disk.complete(id, false).unwrap();
                    }
                }
                Step::Idle(ns) => {
                    clock.advance_ns(*ns);
                }
            }
        }
        let mut busy = 0u64;
        let mut wait = 0u64;
        for r in disk.trace().records() {
            let start = busy.max(r.issued_at_ns);
            wait += start - r.issued_at_ns;
            busy = start + r.service_ns;
        }
        prop_assert_eq!(disk.stats().queue_wait_ns, wait);
        prop_assert_eq!(disk.busy_until_ns(), busy);
    }

    /// SimDisk must store exactly what a trivial RAM disk stores, and its
    /// virtual clock must never move backwards.
    #[test]
    fn sim_disk_matches_ram_disk(reqs in proptest::collection::vec(req_strategy(), 1..80)) {
        let clock = Clock::new();
        let mut sim = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Arc::clone(&clock));
        let mut ram = RamDisk::new(DEV_SECTORS);
        let mut last_now = 0u64;

        for req in &reqs {
            match req {
                Req::Write { sector, sectors, fill, sync } => {
                    let len = *sectors as usize * SECTOR_SIZE;
                    if sector + *sectors as u64 > DEV_SECTORS {
                        prop_assert!(sim.write(*sector, &vec![*fill; len], *sync).is_err());
                        prop_assert!(ram.write(*sector, &vec![*fill; len], *sync).is_err());
                        continue;
                    }
                    sim.write(*sector, &vec![*fill; len], *sync).unwrap();
                    ram.write(*sector, &vec![*fill; len], *sync).unwrap();
                }
                Req::Read { sector, sectors } => {
                    let len = *sectors as usize * SECTOR_SIZE;
                    let mut a = vec![0u8; len];
                    let mut b = vec![0u8; len];
                    if sector + *sectors as u64 > DEV_SECTORS {
                        prop_assert!(sim.read(*sector, &mut a).is_err());
                        continue;
                    }
                    sim.read(*sector, &mut a).unwrap();
                    ram.read(*sector, &mut b).unwrap();
                    prop_assert_eq!(a, b, "contents diverged at sector {}", sector);
                }
                Req::Flush => {
                    sim.flush().unwrap();
                }
            }
            let now = clock.now_ns();
            prop_assert!(now >= last_now, "clock went backwards");
            last_now = now;
        }
        // Final images agree byte for byte.
        prop_assert_eq!(sim.into_image(), ram.into_image());
    }

    /// Sequential transfers are never slower per byte than random ones.
    #[test]
    fn sequential_never_slower_than_random(nblocks in 2u64..32) {
        let geometry = DiskGeometry::wren_iv();
        let buf = vec![0u8; SECTOR_SIZE * 8];

        let clock = Clock::new();
        let mut disk = SimDisk::new(geometry.clone(), Arc::clone(&clock));
        for i in 0..nblocks {
            disk.write(i * 8, &buf, true).unwrap();
        }
        let sequential_ns = clock.now_ns();

        let clock = Clock::new();
        let mut disk = SimDisk::new(geometry, Arc::clone(&clock));
        for i in 0..nblocks {
            // Alternate ends of the disk to force long seeks.
            let sector = if i % 2 == 0 { i * 8 } else { 500_000 + i * 8 };
            disk.write(sector, &buf, true).unwrap();
        }
        let random_ns = clock.now_ns();

        prop_assert!(sequential_ns <= random_ns);
    }

    /// Writes before the crash index persist; the drop-crash write and
    /// everything after do not.
    #[test]
    fn crash_plan_cuts_exactly(crash_at in 0u64..20, total in 1u64..30) {
        let mut disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Clock::new());
        disk.arm_crash(CrashPlan::drop_at(crash_at));
        let mut expected = vec![0u8; DEV_SECTORS as usize * SECTOR_SIZE];

        for i in 0..total {
            let fill = i as u8 + 1;
            let sector = i % DEV_SECTORS;
            let data = vec![fill; SECTOR_SIZE];
            let result = disk.write(sector, &data, false);
            if i < crash_at {
                prop_assert!(result.is_ok());
                let start = sector as usize * SECTOR_SIZE;
                expected[start..start + SECTOR_SIZE].copy_from_slice(&data);
            } else {
                prop_assert!(result.is_err());
            }
        }
        prop_assert_eq!(disk.into_image(), expected);
    }

    /// Torn writes persist exactly the promised sector prefix, clamped so
    /// the triggering request always loses at least its final sector.
    #[test]
    fn torn_write_keeps_prefix(keep in 0u64..6, req_sectors in 1u8..8) {
        let mut disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Clock::new());
        disk.arm_crash(CrashPlan::tear_at(0, keep));
        let len = req_sectors as usize * SECTOR_SIZE;
        let data: Vec<u8> = (0..len).map(|i| (i / SECTOR_SIZE + 1) as u8).collect();
        prop_assert!(disk.write(3, &data, false).is_err());
        let image = disk.into_image();
        let persisted = (keep as usize * SECTOR_SIZE).min(len - SECTOR_SIZE);
        let start = 3 * SECTOR_SIZE;
        prop_assert_eq!(&image[start..start + persisted], &data[..persisted]);
        prop_assert!(image[start + persisted..start + len].iter().all(|&b| b == 0));
    }

    /// Busy time accumulates exactly the per-request service times.
    #[test]
    fn stats_accounting_is_consistent(reqs in proptest::collection::vec(req_strategy(), 1..40)) {
        let clock = Clock::new();
        let mut disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Arc::clone(&clock));
        let mut writes = 0u64;
        let mut reads = 0u64;
        for req in &reqs {
            match req {
                Req::Write { sector, sectors, fill, sync } => {
                    let len = *sectors as usize * SECTOR_SIZE;
                    if sector + *sectors as u64 <= DEV_SECTORS {
                        disk.write(*sector, &vec![*fill; len], *sync).unwrap();
                        writes += 1;
                    }
                }
                Req::Read { sector, sectors } => {
                    let len = *sectors as usize * SECTOR_SIZE;
                    if sector + *sectors as u64 <= DEV_SECTORS {
                        disk.read(*sector, &mut vec![0u8; len]).unwrap();
                        reads += 1;
                    }
                }
                Req::Flush => disk.flush().unwrap(),
            }
        }
        let stats = disk.stats();
        prop_assert_eq!(stats.writes, writes);
        prop_assert_eq!(stats.reads, reads);
        prop_assert_eq!(stats.seeks + stats.sequential, writes + reads);
        // The device can never be busy longer than... wait, busy time can
        // exceed wall time only if async writes queue past the end; after
        // a flush they are equal or less.
        disk.flush().unwrap();
        prop_assert!(disk.stats().busy_ns <= clock.now_ns());
    }

    /// Overlapped queueing (submit depth > 1, arbitrary completion order)
    /// must not double-count service time: `seek + rotation + transfer ==
    /// busy` stays exact, queue wait accumulates separately, and the data
    /// round-trips.
    #[test]
    fn overlapped_queueing_keeps_busy_decomposition_exact(
        sectors in proptest::collection::vec(0u64..DEV_SECTORS - 8, 2..24),
        pick_salt in any::<u64>(),
    ) {
        let clock = Clock::new();
        let mut disk = SimDisk::new(DiskGeometry::tiny_test(DEV_SECTORS), Arc::clone(&clock));

        let mut ids = Vec::new();
        for (i, &sector) in sectors.iter().enumerate() {
            let fill = i as u8 + 1;
            ids.push((disk.submit_write(sector, &vec![fill; SECTOR_SIZE]).unwrap(), sector, fill));
        }

        // Complete in an arbitrary (salt-driven) order.
        let mut service_total = 0u64;
        let mut wait_total = 0u64;
        let mut finish_max = 0u64;
        let mut salt = pick_salt;
        while !ids.is_empty() {
            salt = salt.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (id, _, _) = ids.remove(salt as usize % ids.len());
            let done = disk.complete(id, false).unwrap();
            service_total += done.service_ns;
            wait_total += done.wait_ns;
            finish_max = finish_max.max(done.finish_ns);
            prop_assert_eq!(done.start_ns + done.service_ns, done.finish_ns);
        }

        let stats = disk.stats();
        prop_assert_eq!(stats.busy_ns, service_total);
        prop_assert_eq!(stats.seek_ns + stats.rotation_ns + stats.transfer_ns, stats.busy_ns);
        prop_assert_eq!(stats.queue_wait_ns, wait_total);
        prop_assert_eq!(disk.busy_until_ns(), finish_max);
        // All submitted at t=0 and serviced back to back: the head never
        // idles, so the horizon equals the summed service time exactly.
        prop_assert_eq!(finish_max, service_total);

        // Later completions win on overlapping sectors; spot-check data of
        // the last writer to each sector.
        let mut last_fill = std::collections::BTreeMap::new();
        for (i, &sector) in sectors.iter().enumerate() {
            last_fill.insert(sector, i as u8 + 1);
        }
        // (Overlaps between different sectors are impossible: one-sector writes.)
        let image = disk.into_image();
        for (&sector, _) in last_fill.iter() {
            let byte = image[sector as usize * SECTOR_SIZE];
            prop_assert!(byte != 0, "sector {} never persisted", sector);
        }
    }
}
