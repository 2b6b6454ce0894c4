//! Checkpoint-region robustness: the dual-region scheme must tolerate
//! one corrupted or torn region and fail loudly (not wrongly) when both
//! are gone.

use std::sync::Arc;

use lfs_core::layout::checkpoint::CheckpointRegion;
use lfs_core::layout::superblock::Superblock;
use lfs_core::{Lfs, LfsConfig, SegNo};
use sim_disk::{Clock, DiskGeometry, SimDisk, SECTOR_SIZE};
use vfs::{FileSystem, FsError};

const DISK_SECTORS: u64 = 16_384;

/// Builds a volume with two checkpoints: an old one covering /first and
/// a newer one covering /second. Returns (image, cp_a_sector, cp_b_sector,
/// region_bytes).
fn two_checkpoint_volume() -> (Vec<u8>, usize, usize, usize) {
    let clock = Clock::new();
    let disk = SimDisk::new(DiskGeometry::tiny_test(DISK_SECTORS), Arc::clone(&clock));
    let mut fs = Lfs::format(disk, LfsConfig::small_test(), Arc::clone(&clock)).unwrap();
    fs.write_file("/first", b"from the older checkpoint")
        .unwrap();
    fs.sync().unwrap();
    fs.write_file("/second", b"from the newest checkpoint")
        .unwrap();
    fs.sync().unwrap();

    let sb = fs.superblock().clone();
    let spb = sb.block_size as usize / SECTOR_SIZE;
    let cp_a = sb.cp_a.0 as usize * spb * SECTOR_SIZE;
    let cp_b = sb.cp_b.0 as usize * spb * SECTOR_SIZE;
    let region_bytes = sb.cp_blocks as usize * sb.block_size as usize;
    (fs.into_device().into_image(), cp_a, cp_b, region_bytes)
}

fn mount(image: Vec<u8>) -> Result<Lfs<SimDisk>, FsError> {
    let disk = SimDisk::from_image(DiskGeometry::tiny_test(DISK_SECTORS), Clock::new(), image);
    let clock = disk.clock().clone();
    Lfs::mount(disk, LfsConfig::small_test(), clock)
}

#[test]
fn intact_volume_uses_the_newest_checkpoint() {
    let (image, _, _, _) = two_checkpoint_volume();
    let mut fs = mount(image).unwrap();
    assert_eq!(
        fs.read_file("/second").unwrap(),
        b"from the newest checkpoint"
    );
    assert!(fs.fsck().unwrap().is_clean());
}

#[test]
fn corrupting_either_region_still_mounts() {
    for region in 0..2 {
        let (mut image, cp_a, cp_b, region_bytes) = two_checkpoint_volume();
        let start = if region == 0 { cp_a } else { cp_b };
        // Trash the whole region.
        for byte in &mut image[start..start + region_bytes] {
            *byte = 0xDE;
        }
        let mut fs =
            mount(image).unwrap_or_else(|e| panic!("region {region} corrupt: mount failed: {e}"));
        // Whichever region survived, /first was in both checkpoints.
        assert_eq!(
            fs.read_file("/first").unwrap(),
            b"from the older checkpoint"
        );
        let report = fs.fsck().unwrap();
        assert!(report.is_clean(), "region {region} corrupt:\n{report}");
    }
}

#[test]
fn single_bit_flip_in_newest_region_falls_back() {
    let (mut image, cp_a, cp_b, _) = two_checkpoint_volume();
    // Find which region the newest checkpoint used by flipping each and
    // checking the volume still mounts with at least the older state.
    for &start in &[cp_a, cp_b] {
        let mut flipped = image.clone();
        flipped[start + 12] ^= 0x01;
        let mut fs = mount(flipped).expect("one bit flip must never brick the volume");
        assert_eq!(
            fs.read_file("/first").unwrap(),
            b"from the older checkpoint"
        );
        assert!(fs.fsck().unwrap().is_clean());
    }
    // Keep `image` alive for clarity of intent above.
    image.clear();
}

#[test]
fn destroying_both_regions_fails_cleanly() {
    let (mut image, cp_a, cp_b, region_bytes) = two_checkpoint_volume();
    for start in [cp_a, cp_b] {
        for byte in &mut image[start..start + region_bytes] {
            *byte = 0;
        }
    }
    match mount(image) {
        Err(FsError::Corrupt(_)) => {}
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(_) => panic!("mount must fail when both checkpoint regions are gone"),
    }
}

/// Re-encodes both checkpoint regions with `forge` applied — their
/// checksums stay valid, so mount trusts them — and mounts the result.
fn mount_forged(
    forge: impl Fn(&Superblock, &mut CheckpointRegion),
) -> Result<Lfs<SimDisk>, FsError> {
    let (mut image, cp_a, cp_b, region_bytes) = two_checkpoint_volume();
    let sb = Superblock::decode(&image[..SECTOR_SIZE]).unwrap();
    for start in [cp_a, cp_b] {
        let region = &mut image[start..start + region_bytes];
        let mut cp = CheckpointRegion::decode(region).unwrap();
        forge(&sb, &mut cp);
        region.copy_from_slice(&cp.encode(region_bytes));
    }
    mount(image)
}

#[test]
fn forged_log_positions_are_corrupt_not_a_panic() {
    let out_of_range = mount_forged(|sb, cp| cp.cur_seg = SegNo(sb.nsegments));
    assert!(
        matches!(out_of_range, Err(FsError::Corrupt(_))),
        "cur_seg past the last segment: {:?}",
        out_of_range.err()
    );
    // One block short of the end holds no chunk (a summary block and a
    // payload block), nor does the end itself or anything past it.
    for spent in [1, 0] {
        let full = mount_forged(|sb, cp| cp.next_block = sb.seg_blocks - spent);
        assert!(
            matches!(full, Err(FsError::Corrupt(_))),
            "next_block {spent} short of the end: {:?}",
            full.err()
        );
    }
    let past = mount_forged(|_, cp| cp.next_block = u32::MAX);
    assert!(matches!(past, Err(FsError::Corrupt(_))), "{:?}", past.err());
}

#[test]
fn garbage_superblock_is_rejected() {
    let (mut image, _, _, _) = two_checkpoint_volume();
    image[0] ^= 0xFF;
    assert!(matches!(mount(image), Err(FsError::Corrupt(_))));
}
