//! Per-request I/O accounting and access tracing.
//!
//! The Figure 1/2 reproduction needs to show, per file system, *how many*
//! disk accesses an operation causes and whether each is synchronous or
//! asynchronous, sequential or random. The throughput figures need bytes
//! moved and total disk busy time. Both come from here.

use std::fmt;

/// Whether a request was a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read request (always synchronous).
    Read,
    /// A write request.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// One recorded disk access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// Read or write.
    pub kind: AccessKind,
    /// First sector of the request.
    pub sector: u64,
    /// Length in bytes.
    pub bytes: u64,
    /// True if the caller waited for completion.
    pub sync: bool,
    /// True if the request started where the previous one ended.
    pub sequential: bool,
    /// Virtual time at which the request was issued (ns).
    pub issued_at_ns: u64,
    /// Time the device spent servicing the request (ns).
    pub service_ns: u64,
    /// Optional label attached by the file system (e.g. "inode", "dir").
    pub label: &'static str,
}

/// A bounded trace of disk accesses, off by default.
///
/// Tracing is enabled only by the microscopic experiments (Figure 1/2);
/// the throughput experiments keep it off to avoid unbounded memory use.
#[derive(Debug, Default)]
pub struct AccessTrace {
    enabled: bool,
    records: Vec<AccessRecord>,
}

impl AccessTrace {
    /// Starts recording. Existing records are kept.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Stops recording.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Returns true if recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends a record if recording is active.
    pub fn record(&mut self, record: AccessRecord) {
        if self.enabled {
            self.records.push(record);
        }
    }

    /// Returns the recorded accesses.
    pub fn records(&self) -> &[AccessRecord] {
        &self.records
    }

    /// Clears the recorded accesses (recording state is unchanged).
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

obs::instruments! {
    /// The disk's handles into its [`obs::Registry`]: the [`IoStats`]
    /// counters plus media-fault counts and per-request service-time
    /// histograms split by direction.
    #[derive(Debug)]
    pub(crate) struct DiskObs {
        faults_unreadable, Counter, "faults.unreadable_reads", "Reads failed by a latent fault or a dead spindle.";
        faults_transient, Counter, "faults.transient_errors", "Reads failed by a transient fault (a retry may succeed).";
        faults_rot_reads, Counter, "faults.rot_reads", "Reads that silently returned rotted sectors.";
        faults_cleared, Counter, "faults.cleared_by_write", "Faulty sectors remapped by a write.";
        read_lat, Hist, "disk.read_service_ns", "Service time of each read.";
        write_lat, Hist, "disk.write_service_ns", "Service time of each write.";
    }
    /// Aggregate I/O statistics for a device.
    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    pub struct IoStats {
        reads, Counter, "disk.reads", "Number of read requests.";
        writes, Counter, "disk.writes", "Number of write requests.";
        sync_writes, Counter, "disk.sync_writes", "Number of synchronous writes (caller waited).";
        seeks, Counter, "disk.seeks", "Number of requests that required a head seek.";
        sequential, Counter, "disk.sequential", "Number of requests that continued from the previous request's end.";
        bytes_read, Counter, "disk.bytes_read", "Bytes read.";
        bytes_written, Counter, "disk.bytes_written", "Bytes written.";
        busy_ns, Counter, "disk.busy_ns", "Total device busy time in nanoseconds.";
        seek_ns, Counter, "disk.seek_ns", "Busy time spent moving the head (ns).";
        rotation_ns, Counter, "disk.rotation_ns", "Busy time spent waiting for the platter (ns).";
        transfer_ns, Counter, "disk.transfer_ns", "Busy time spent transferring data (ns).";
        stall_ns, Counter, "disk.stall_ns", "Busy time charged by an armed fail-slow latency fault (ns) — the \
            head held hostage by a sick drive, not by real work. Zero on healthy media.";
        queue_wait_ns, Counter, "disk.queue_wait_ns", "Time requests spent waiting in the device queue before service \
            (ns). Only the asynchronous submit/complete path accumulates queue wait; it is **not** part \
            of [`IoStats::busy_ns`] — a request waiting in the queue does not occupy the head.";
        coalesced, Counter, "disk.coalesced_writes", "Number of pending writes merged into an adjacent pending write.";
    }
}

impl IoStats {
    /// Total requests serviced.
    pub fn total_requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Requests that were *not* sequential continuations.
    pub fn random(&self) -> u64 {
        self.total_requests() - self.sequential
    }

    /// Total bytes moved in either direction.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reads / {} writes ({} sync), {} seeks, {} sequential, {} B read, {} B written, busy {:.3} s",
            self.reads,
            self.writes,
            self.sync_writes,
            self.seeks,
            self.sequential,
            self.bytes_read,
            self.bytes_written,
            self.busy_ns as f64 / 1e9,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: AccessKind) -> AccessRecord {
        AccessRecord {
            kind,
            sector: 0,
            bytes: 512,
            sync: true,
            sequential: false,
            issued_at_ns: 0,
            service_ns: 10,
            label: "",
        }
    }

    #[test]
    fn trace_records_only_when_enabled() {
        let mut trace = AccessTrace::default();
        trace.record(record(AccessKind::Read));
        assert!(trace.records().is_empty());
        trace.enable();
        trace.record(record(AccessKind::Write));
        assert_eq!(trace.records().len(), 1);
        trace.disable();
        trace.record(record(AccessKind::Read));
        assert_eq!(trace.records().len(), 1);
    }

    #[test]
    fn trace_clear_keeps_recording_state() {
        let mut trace = AccessTrace::default();
        trace.enable();
        trace.record(record(AccessKind::Read));
        trace.clear();
        assert!(trace.records().is_empty());
        assert!(trace.is_enabled());
    }

    #[test]
    fn stats_delta_subtracts_fields() {
        let earlier = IoStats {
            reads: 1,
            writes: 2,
            sync_writes: 1,
            seeks: 1,
            sequential: 1,
            bytes_read: 512,
            bytes_written: 1024,
            busy_ns: 105,
            seek_ns: 50,
            rotation_ns: 30,
            transfer_ns: 20,
            stall_ns: 5,
            queue_wait_ns: 10,
            coalesced: 1,
        };
        let later = IoStats {
            reads: 3,
            writes: 5,
            sync_writes: 2,
            seeks: 4,
            sequential: 2,
            bytes_read: 2048,
            bytes_written: 4096,
            busy_ns: 1_015,
            seek_ns: 500,
            rotation_ns: 300,
            transfer_ns: 200,
            stall_ns: 15,
            queue_wait_ns: 40,
            coalesced: 3,
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.reads, 2);
        assert_eq!(delta.writes, 3);
        assert_eq!(delta.random(), 4);
        assert_eq!(delta.bytes_total(), 1536 + 3072);
        assert_eq!(
            delta.seek_ns + delta.rotation_ns + delta.transfer_ns + delta.stall_ns,
            delta.busy_ns
        );
        assert_eq!(delta.stall_ns, 10);
        assert_eq!(delta.queue_wait_ns, 30);
        assert_eq!(delta.coalesced, 2);
    }

    #[test]
    fn stats_display_mentions_key_counters() {
        let stats = IoStats {
            reads: 7,
            ..IoStats::default()
        };
        let text = format!("{stats}");
        assert!(text.contains("7 reads"));
    }
}
