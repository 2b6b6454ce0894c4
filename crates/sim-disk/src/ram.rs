//! A zero-latency in-memory block device for unit tests.

use crate::device::{check_request, BlockDevice, DiskResult};
use crate::SECTOR_SIZE;

/// An in-memory block device with no timing model.
///
/// Useful for unit-testing file-system logic where virtual time is
/// irrelevant. Counts reads and writes so tests can assert I/O happened
/// (or did not).
#[derive(Debug, Clone)]
pub struct RamDisk {
    data: Vec<u8>,
    num_sectors: u64,
    reads: u64,
    writes: u64,
}

impl RamDisk {
    /// Creates a zero-filled device with `num_sectors` sectors.
    pub fn new(num_sectors: u64) -> Self {
        Self {
            data: vec![0; num_sectors as usize * SECTOR_SIZE],
            num_sectors,
            reads: 0,
            writes: 0,
        }
    }

    /// Creates a device from an existing raw image.
    ///
    /// # Panics
    ///
    /// Panics if the image is not a whole number of sectors.
    pub fn from_image(data: Vec<u8>) -> Self {
        assert!(
            data.len().is_multiple_of(SECTOR_SIZE),
            "image length {} is not sector-aligned",
            data.len()
        );
        let num_sectors = (data.len() / SECTOR_SIZE) as u64;
        Self {
            data,
            num_sectors,
            reads: 0,
            writes: 0,
        }
    }

    /// Number of read requests serviced.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Number of write requests serviced.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Borrows the raw image.
    pub fn image(&self) -> &[u8] {
        &self.data
    }

    /// Consumes the device and returns the raw image.
    pub fn into_image(self) -> Vec<u8> {
        self.data
    }
}

impl BlockDevice for RamDisk {
    fn num_sectors(&self) -> u64 {
        self.num_sectors
    }

    fn read(&mut self, sector: u64, buf: &mut [u8]) -> DiskResult<()> {
        check_request(sector, buf.len(), self.num_sectors)?;
        let start = sector as usize * SECTOR_SIZE;
        buf.copy_from_slice(&self.data[start..start + buf.len()]);
        self.reads += 1;
        Ok(())
    }

    fn write(&mut self, sector: u64, buf: &[u8], _sync: bool) -> DiskResult<()> {
        check_request(sector, buf.len(), self.num_sectors)?;
        let start = sector as usize * SECTOR_SIZE;
        self.data[start..start + buf.len()].copy_from_slice(buf);
        self.writes += 1;
        Ok(())
    }

    fn flush(&mut self) -> DiskResult<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DiskError;

    #[test]
    fn round_trips_data() {
        let mut disk = RamDisk::new(8);
        let payload = vec![0xAB; SECTOR_SIZE * 2];
        disk.write(3, &payload, false).unwrap();
        let mut out = vec![0; SECTOR_SIZE * 2];
        disk.read(3, &mut out).unwrap();
        assert_eq!(out, payload);
        assert_eq!(disk.read_count(), 1);
        assert_eq!(disk.write_count(), 1);
    }

    /// A device with no asynchronous read path hands out no tokens, and
    /// claiming one anyway is operator misuse — not a power loss.
    #[test]
    fn finishing_an_async_read_is_unsupported() {
        let mut disk = RamDisk::new(8);
        assert_eq!(disk.start_read_async(0, SECTOR_SIZE), None);
        assert_eq!(
            disk.finish_read_async(0),
            Err(DiskError::Unsupported("no asynchronous read path"))
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let mut disk = RamDisk::new(2);
        let buf = vec![0; SECTOR_SIZE * 3];
        assert!(matches!(
            disk.write(0, &buf, false),
            Err(DiskError::OutOfRange { .. })
        ));
    }

    #[test]
    fn from_image_round_trips() {
        let mut disk = RamDisk::new(4);
        disk.write(1, &vec![7; SECTOR_SIZE], false).unwrap();
        let image = disk.into_image();
        let mut revived = RamDisk::from_image(image);
        let mut buf = vec![0; SECTOR_SIZE];
        revived.read(1, &mut buf).unwrap();
        assert_eq!(buf, vec![7; SECTOR_SIZE]);
    }

    #[test]
    #[should_panic(expected = "sector-aligned")]
    fn from_image_rejects_unaligned() {
        let _ = RamDisk::from_image(vec![0; 100]);
    }

    #[test]
    fn capacity_bytes_matches() {
        let disk = RamDisk::new(16);
        assert_eq!(disk.capacity_bytes(), 16 * SECTOR_SIZE as u64);
    }
}
