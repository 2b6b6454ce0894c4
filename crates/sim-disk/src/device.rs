//! The block-device interface file systems program against.

use std::fmt;

/// Errors returned by block devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// A request touched sectors beyond the end of the device.
    OutOfRange {
        /// First sector of the offending request.
        sector: u64,
        /// Number of sectors requested.
        count: u64,
        /// Total sectors on the device.
        capacity: u64,
    },
    /// A buffer length was not a whole number of sectors.
    UnalignedLength(usize),
    /// The device has crashed (fault injection) and rejects all requests.
    Crashed,
    /// A sector could not be read (latent or transient media error).
    ///
    /// Unlike [`DiskError::Crashed`] this is a per-request failure: the
    /// device keeps servicing other requests, and a transient fault may
    /// succeed on retry. Injected by
    /// [`MediaFaultPlan`](crate::MediaFaultPlan).
    Unreadable {
        /// First faulted sector in the failed request.
        sector: u64,
    },
    /// The operation is not valid for the device's current
    /// configuration or state — an operator-misuse error (e.g. asking a
    /// RAID-0 volume to rebuild, or resyncing parity on a degraded
    /// assembly). The request was rejected before touching any media;
    /// the device keeps servicing everything else.
    Unsupported(&'static str),
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::OutOfRange {
                sector,
                count,
                capacity,
            } => write!(
                f,
                "request for {count} sectors at {sector} exceeds device capacity {capacity}"
            ),
            DiskError::UnalignedLength(len) => {
                write!(
                    f,
                    "buffer length {len} is not a multiple of the sector size"
                )
            }
            DiskError::Crashed => write!(f, "device has crashed"),
            DiskError::Unreadable { sector } => {
                write!(f, "media error: sector {sector} is unreadable")
            }
            DiskError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
        }
    }
}

impl std::error::Error for DiskError {}

/// Result alias for device operations.
pub type DiskResult<T> = Result<T, DiskError>;

/// A sector-addressed block device.
///
/// Reads are always synchronous (a missing block stalls the caller), which
/// is how §2.3 of the paper frames disk reads. Writes carry a `sync` flag:
/// a synchronous write stalls the caller until the platters hold the data
/// (the behaviour that cripples FFS metadata updates in Figure 1), while an
/// asynchronous write queues the transfer and returns immediately.
pub trait BlockDevice {
    /// Total number of sectors on the device.
    fn num_sectors(&self) -> u64;

    /// Reads `buf.len() / SECTOR_SIZE` sectors starting at `sector`.
    fn read(&mut self, sector: u64, buf: &mut [u8]) -> DiskResult<()>;

    /// Writes `buf.len() / SECTOR_SIZE` sectors starting at `sector`.
    ///
    /// When `sync` is true the call blocks (advances the virtual clock)
    /// until the transfer completes; otherwise the transfer is queued.
    fn write(&mut self, sector: u64, buf: &[u8], sync: bool) -> DiskResult<()>;

    /// Blocks until all queued asynchronous writes have completed.
    fn flush(&mut self) -> DiskResult<()>;

    /// Attaches a label to the next request, for access tracing.
    ///
    /// Devices without tracing ignore this; see
    /// [`SimDisk`](crate::SimDisk) for the tracing implementation.
    fn annotate(&mut self, _label: &'static str) {}

    /// Returns the device capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.num_sectors() * crate::SECTOR_SIZE as u64
    }

    /// Mounts the device's metrics in a shared [`obs::Registry`], so one
    /// registry covers a whole file-system stack (device + cache + file
    /// system). Counts accumulated before attachment come along.
    /// Devices without metrics ignore this.
    fn attach_obs(&mut self, _registry: &obs::Registry) {}

    /// Marks subsequent requests as maintenance I/O (segment cleaning,
    /// scrubbing) until turned off again. Queue-backed devices use this
    /// to account the I/O to a maintenance class instead of whichever
    /// foreground client happens to be dispatched, so per-client wait
    /// histograms never absorb cleaning cost. Plain devices ignore it.
    fn set_maintenance(&mut self, _on: bool) {}

    /// Starts a non-blocking read of `len` bytes at `sector`, returning
    /// a token to pass to [`BlockDevice::finish_read_async`]. Devices
    /// without an asynchronous read path return `None` and the caller
    /// falls back to the synchronous [`BlockDevice::read`]; queue-backed
    /// devices submit the read and let virtual time advance under other
    /// traffic before the caller claims it.
    fn start_read_async(&mut self, _sector: u64, _len: usize) -> Option<u64> {
        None
    }

    /// Completes a read started by [`BlockDevice::start_read_async`],
    /// blocking (advancing the virtual clock) only if the read has not
    /// finished yet. The token must come from the same device; a device
    /// that hands out no tokens rejects the call as operator misuse.
    fn finish_read_async(&mut self, _token: u64) -> DiskResult<Vec<u8>> {
        Err(DiskError::Unsupported("no asynchronous read path"))
    }

    /// Number of independently seeking spindles behind this device: the
    /// useful concurrency for overlapped maintenance reads (recovery,
    /// fsck, scrub). Plain devices report 1; a striped volume reports
    /// its spindle count.
    fn fanout(&self) -> usize {
        1
    }

    /// Which spindle (in `0..fanout()`) serves `sector`. Callers use
    /// this to partition a batch of reads so each spindle's queue stays
    /// sequential while the spindles overlap. Plain devices map
    /// everything to spindle 0.
    fn spindle_of(&self, _sector: u64) -> usize {
        0
    }
}

/// Issues a batch of reads with at most `window` in flight, claiming
/// completions in submission order.
///
/// Each request is `(sector, len)` and each is annotated with `label`
/// before submission. On a device with an asynchronous read path the
/// window keeps up to `window` reads outstanding, so a multi-spindle
/// device overlaps them in virtual time; a device without one falls
/// back to synchronous reads in place, making `window = 1` (or a plain
/// disk) byte- and time-identical to a sequential read loop.
///
/// The whole batch runs under the maintenance I/O class
/// ([`BlockDevice::set_maintenance`]), which is off again on return: a
/// fanned-out read is recovery, fsck or scrub work, never a client's.
///
/// Returns the per-request results in request order, plus how many
/// reads actually went through the asynchronous path.
pub fn read_batch<D: BlockDevice + ?Sized>(
    dev: &mut D,
    label: &'static str,
    window: usize,
    reqs: &[(u64, usize)],
) -> (Vec<DiskResult<Vec<u8>>>, u64) {
    let window = window.max(1);
    dev.set_maintenance(true);
    let mut out: Vec<Option<DiskResult<Vec<u8>>>> = reqs.iter().map(|_| None).collect();
    let mut pending: std::collections::VecDeque<(usize, u64)> = std::collections::VecDeque::new();
    let mut overlapped = 0u64;
    let mut next = 0usize;
    while next < reqs.len() || !pending.is_empty() {
        while next < reqs.len() && pending.len() < window {
            let (sector, len) = reqs[next];
            dev.annotate(label);
            match dev.start_read_async(sector, len) {
                Some(token) => {
                    pending.push_back((next, token));
                    overlapped += 1;
                }
                None => {
                    let mut buf = vec![0u8; len];
                    out[next] = Some(dev.read(sector, &mut buf).map(|_| buf));
                }
            }
            next += 1;
        }
        if let Some((idx, token)) = pending.pop_front() {
            out[idx] = Some(dev.finish_read_async(token));
        }
    }
    dev.set_maintenance(false);
    (
        out.into_iter().map(|r| r.expect("read_batch slot")).collect(),
        overlapped,
    )
}

/// The read window a fanned-out maintenance pass uses: the configured
/// fan-out, or the device's spindle count when the configuration says
/// "ask the device" (`0`).
pub fn effective_fanout<D: BlockDevice + ?Sized>(configured: usize, dev: &D) -> usize {
    match configured {
        0 => dev.fanout(),
        n => n,
    }
}

/// Validates a request against device capacity and sector alignment.
///
/// Shared by the device implementations in this crate, and public so
/// layered devices (e.g. a striped volume) can validate against their
/// own logical capacity before fanning a request out.
pub fn check_request(sector: u64, len: usize, capacity: u64) -> DiskResult<u64> {
    if !len.is_multiple_of(crate::SECTOR_SIZE) {
        return Err(DiskError::UnalignedLength(len));
    }
    let count = (len / crate::SECTOR_SIZE) as u64;
    if sector.checked_add(count).is_none_or(|end| end > capacity) {
        return Err(DiskError::OutOfRange {
            sector,
            count,
            capacity,
        });
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_request_accepts_aligned_in_range() {
        assert_eq!(check_request(0, 512, 10), Ok(1));
        assert_eq!(check_request(8, 1024, 10), Ok(2));
    }

    #[test]
    fn check_request_rejects_unaligned() {
        assert_eq!(
            check_request(0, 100, 10),
            Err(DiskError::UnalignedLength(100))
        );
    }

    #[test]
    fn check_request_rejects_out_of_range() {
        assert!(matches!(
            check_request(9, 1024, 10),
            Err(DiskError::OutOfRange { .. })
        ));
        // Overflow of sector + count must not wrap.
        assert!(matches!(
            check_request(u64::MAX, 512, 10),
            Err(DiskError::OutOfRange { .. })
        ));
    }

    #[test]
    fn errors_format_usefully() {
        let err = DiskError::OutOfRange {
            sector: 9,
            count: 2,
            capacity: 10,
        };
        assert!(err.to_string().contains("exceeds device capacity"));
        assert!(DiskError::Crashed.to_string().contains("crashed"));
        assert_eq!(
            DiskError::Unsupported("no parity").to_string(),
            "unsupported operation: no parity"
        );
    }
}
