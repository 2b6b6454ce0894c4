//! Property test: on a parity volume, the loss of *any single spindle*
//! is invisible — arbitrary request shapes read back byte-identical to
//! a flat mirror before, during, and after degraded operation, and a
//! completed online rebuild restores the volume exactly.


use proptest::collection::vec as pvec;
use proptest::prelude::*;

use sim_disk::{BlockDevice, Clock, DiskGeometry, RamDisk, SECTOR_SIZE};
use volume::{RebuildPolicy, RebuildProgress, SpindleState, StripedVolume, VolumeConfig};

const SPINDLE_SECTORS: u64 = 1_024;
const CHUNK_SECTORS: u64 = 8;
const CHUNK_BYTES: usize = CHUNK_SECTORS as usize * SECTOR_SIZE;

/// A parity volume with `CHUNK_BYTES` stripe units — far smaller than
/// the requests below, so partial rows (read-modify-write) and full
/// rows both occur.
fn parity_volume(spindles: usize) -> StripedVolume {
    let cfg = VolumeConfig::parity_segment(spindles, CHUNK_BYTES * (spindles - 1));
    StripedVolume::new(DiskGeometry::tiny_test(SPINDLE_SECTORS), Clock::new(), cfg)
}

/// Clamps `(sector, count)` into the volume and applies the write to
/// both the volume and the mirror.
fn apply_writes(
    vol: &mut StripedVolume,
    mirror: &mut RamDisk,
    writes: &[(u64, u64, bool)],
    salt: u8,
) {
    let capacity = vol.num_sectors();
    for (i, &(sector, count, sync)) in writes.iter().enumerate() {
        let sector = sector % capacity;
        let count = count.min(capacity - sector);
        let fill = salt.wrapping_add(i as u8);
        let buf: Vec<u8> = (0..count as usize * SECTOR_SIZE)
            .map(|b| fill ^ (b / 7) as u8)
            .collect();
        vol.write(sector, &buf, sync).unwrap();
        mirror.write(sector, &buf, sync).unwrap();
    }
    vol.flush().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn any_single_dead_spindle_reconstructs_byte_identically(
        spindles in 2usize..6,
        dead_seed in 0usize..64,
        healthy_writes in pvec((0u64..900, 1u64..65, any::<bool>()), 1..10),
        degraded_writes in pvec((0u64..900, 1u64..65, any::<bool>()), 0..8),
        reads in pvec((0u64..900, 1u64..65), 1..8),
    ) {
        let dead = dead_seed % spindles;

        let mut vol = parity_volume(spindles);
        let mut mirror = RamDisk::new(vol.num_sectors());
        apply_writes(&mut vol, &mut mirror, &healthy_writes, 0x11);

        // Kill any one spindle, then keep writing while degraded.
        vol.kill_spindle(dead);
        apply_writes(&mut vol, &mut mirror, &degraded_writes, 0x77);

        let capacity = vol.num_sectors();
        for &(sector, count) in &reads {
            let sector = sector % capacity;
            let count = count.min(capacity - sector);
            let mut got = vec![0u8; count as usize * SECTOR_SIZE];
            let mut want = got.clone();
            vol.read(sector, &mut got).unwrap();
            mirror.read(sector, &mut want).unwrap();
            prop_assert_eq!(
                &got, &want,
                "degraded read [{}, +{}) diverged ({} spindles, {} dead)",
                sector, count, spindles, dead
            );
        }

        // Rebuild to completion and scrub the whole volume against the
        // mirror — the replacement must hold parity-consistent contents.
        vol.replace_spindle(
            dead,
            RebuildPolicy::default().with_max_step_rows(64),
        )
        .unwrap();
        while vol.rebuild_step().unwrap() != RebuildProgress::Completed {}
        prop_assert_eq!(vol.spindle_state(dead), SpindleState::Online);

        let mut got = vec![0u8; capacity as usize * SECTOR_SIZE];
        let mut want = got.clone();
        vol.read(0, &mut got).unwrap();
        mirror.read(0, &mut want).unwrap();
        prop_assert_eq!(
            got, want,
            "post-rebuild scrub diverged ({} spindles, {} rebuilt)",
            spindles, dead
        );
    }
}
