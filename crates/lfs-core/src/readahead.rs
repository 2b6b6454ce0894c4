//! Read-ahead: one bounded ring of prefetched blocks, keyed by disk
//! address (DESIGN §5.2.3).
//!
//! Every block read from the log goes through one funnel,
//! `Lfs::read_blocks_raw`. A *foreground* read there — one a file
//! operation issued, never a flush, the cleaner, a checkpoint, scrub,
//! recovery or fsck — is served from the ring wherever a prefetched
//! unit covers it, and read synchronously where none does. Its caller
//! verifies the bytes against their checksum and caches them as it
//! always has; the ring never writes into the cache.
//!
//! Two triggers issue prefetches, each through the device's
//! [`BlockDevice::start_read_async`] facade, so the disk transfers the
//! next blocks while the CPU works on the current operation:
//!
//! * **Log order.** A synchronous miss that starts where the previous
//!   one ended, twice in a row, starts a stream over the rest of that
//!   segment — up to the log head's written extent if it is the active
//!   one. The flush writes files in the order they were written, so a
//!   scan of files in creation order is a scan of the log.
//! * **File order.** A range read of a file that starts where the same
//!   file's previous read ended prefetches the next range of the same
//!   size — but only those of its blocks whose pointers are already in
//!   memory, since read-ahead must never issue a synchronous read.
//!
//! Units are [`UNIT_BYTES`] long and each trigger keeps at most its
//! depth of them resident, starting at 1 and growing by one per unit
//! used up to [`MAX_DEPTH`], which also bounds the whole ring. The
//! derivation of both constants from the disk and CPU model is in
//! DESIGN §5.2.3; `tests::constants_follow_from_the_model` recomputes it.
//!
//! A device without the facade hands out no tokens: nothing is ever
//! issued, and the mount behaves exactly as it would without the ring.
//! Buffers that cover a segment go when the segment is opened for
//! reuse, every buffer goes at `drop_caches`, a prefetch that failed is
//! dropped without a word (the demand read re-reads the block and
//! reports the error itself), and every token that is dropped is
//! claimed first, so the device holds no read nobody will collect.

use std::collections::VecDeque;
use std::ops::Range;

use mem_mgr::BlockKey;
use sim_disk::BlockDevice;
use vfs::blockmap::{self, idx_dchild, read_ptr, BlockPath, IDX_SINGLE};
use vfs::{FsResult, Ino};

use crate::fs::{Lfs, NS_INODE_BLOCKS};
use crate::types::{BlockAddr, SegNo};

/// Bytes one prefetch carries: the most whole 4 KB blocks a WREN IV
/// transfers within half a revolution (8.33 ms × 1.3 MB/s ≈ 10.8 KB).
/// A claim waits for its whole unit, and a demand read queued behind
/// one waits for its transfer; half a revolution is what an unqueued
/// random read pays in rotation anyway.
pub(crate) const UNIT_BYTES: usize = 8 * 1024;

/// Most units one trigger keeps in flight, and the ring's capacity: a
/// demand read that finds the whole ring queued ahead of it waits
/// `MAX_DEPTH` unit transfers (4 × 6.3 ms), which must not exceed the
/// average positioning it would pay anyway (17.5 ms seek + 8.33 ms
/// rotation). Depth starts at 1 because one unit already outlasts one
/// small read's CPU (850 µs for a syscall, two map steps and a 1 KB
/// copy on the 10-MIPS model).
pub(crate) const MAX_DEPTH: usize = 4;

/// Files whose last range read the ring remembers for the file-order
/// trigger; the least recently read one is forgotten first. A client's
/// read touches its file and the directories on its path, so this
/// holds the busiest rig here (16 tenants and a scanner, each a file
/// and a directory deep) with room to spare: a sequential reader is not
/// forgotten between two of its reads.
const FILE_SLOTS: usize = 64;

obs::instruments! {
    /// The ring's counters, in the stack's shared registry.
    pub(crate) struct ReadAheadObs {
        issued_blocks, Counter, "readahead.issued_blocks", "Blocks the read-ahead ring asked the device for \
            through the asynchronous read facade (log-order streams and file-order ranges).";
        used_blocks, Counter, "readahead.used_blocks", "Prefetched blocks a foreground read took from the \
            ring instead of reading them synchronously.";
        dropped_blocks, Counter, "readahead.dropped_blocks", "Prefetched blocks discarded unused: skipped by \
            the reader, evicted from the full ring, covering a segment opened for reuse, emptied by \
            drop_caches, or failed.";
        claim_wait_ns, Counter, "readahead.claim_wait_ns", "Virtual time foreground reads waited for a \
            prefetch still in flight when they claimed it.";
    }
}

/// Which trigger issued a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    Log,
    File(Ino),
}

/// A unit's bytes: still on their way, or arrived.
enum Buf {
    InFlight(u64),
    Ready(Vec<u8>),
}

/// One prefetch: `len` blocks from `addr`, and which of them a reader
/// has taken (bit `i` for block `addr + i`).
struct Unit {
    addr: u32,
    len: u32,
    used: u32,
    buf: Buf,
    trigger: Trigger,
}

impl Unit {
    fn covers(&self, addr: u32) -> bool {
        (self.addr..self.addr + self.len).contains(&addr)
    }

    fn unused(&self) -> u64 {
        (self.len - self.used.count_ones()) as u64
    }
}

/// The log-order stream: the next block to issue, where it stops, and
/// how many of its units may be resident.
struct Stream {
    seg: SegNo,
    next: u32,
    end: u32,
    depth: usize,
}

/// A file's last range read, for the file-order trigger.
struct FileRead {
    ino: Ino,
    next: u64,
    depth: usize,
    streaming: bool,
}

/// The ring (module docs).
pub(crate) struct ReadAhead {
    units: VecDeque<Unit>,
    stream: Option<Stream>,
    /// Most recently read first; at most [`FILE_SLOTS`].
    files: VecDeque<FileRead>,
    /// Where the last synchronous foreground miss ended, and how many
    /// misses in a row started where their predecessor ended; a read
    /// the ring serves clears it.
    last_miss_end: Option<u32>,
    in_a_row: u32,
    /// False until the mount is up, and while fsck runs: only file
    /// operations read ahead.
    pub(crate) armed: bool,
    obs: ReadAheadObs,
}

impl ReadAhead {
    pub(crate) fn new(registry: &obs::Registry) -> Self {
        Self {
            units: VecDeque::new(),
            stream: None,
            files: VecDeque::new(),
            last_miss_end: None,
            in_a_row: 0,
            armed: false,
            obs: ReadAheadObs::new(registry),
        }
    }

    fn covers(&self, addr: u32) -> bool {
        self.units.iter().any(|u| u.covers(addr))
    }

    fn resident(&self, trigger: Trigger) -> usize {
        self.units.iter().filter(|u| u.trigger == trigger).count()
    }
}

impl<D: BlockDevice> Lfs<D> {
    /// Test-only: the units the read-ahead ring holds and how many of
    /// them are still in flight (device tokens not yet claimed).
    #[doc(hidden)]
    pub fn readahead_held_for_test(&self) -> (usize, usize) {
        let units = &self.readahead.units;
        let in_flight = units.iter().filter(|u| matches!(u.buf, Buf::InFlight(_)));
        (units.len(), in_flight.count())
    }

    /// Whether a read through the funnel now is a file operation's.
    pub(crate) fn reads_ahead(&self) -> bool {
        self.readahead.armed && !self.in_maintenance && !self.dev.maintenance()
    }

    /// The foreground half of the funnel: fills `buf` with the blocks
    /// from `addr`, taking each from the ring where a unit covers it
    /// and reading each uncovered run with one synchronous request,
    /// then lets the log-order stream issue what its depth allows.
    pub(crate) fn read_foreground(&mut self, addr: BlockAddr, buf: &mut [u8]) -> FsResult<()> {
        let bs = self.block_size();
        let count = buf.len() / bs;
        let mut sent = false;
        let mut i = 0;
        while i < count {
            let a = addr.0 + i as u32;
            if let Some(n) = self.take_from_ring(a, &mut buf[i * bs..]) {
                // A read the ring served breaks a run of misses: only a
                // sequential run no stream explains starts one.
                self.readahead.last_miss_end = None;
                i += n;
                continue;
            }
            let mut j = i + 1;
            while j < count && !self.readahead.covers(addr.0 + j as u32) {
                j += 1;
            }
            self.dev
                .read(self.sector_of(BlockAddr(a)), &mut buf[i * bs..j * bs])?;
            sent = true;
            self.note_miss(a, (j - i) as u32);
            i = j;
        }
        if !sent {
            // The caller's label named a request that was never sent.
            self.dev.annotate("");
        }
        self.top_up_stream();
        Ok(())
    }

    /// Copies the blocks from `addr` that the unit covering it holds
    /// into `out` (as many as fit), claiming the unit first if it is in
    /// flight. `None` if no unit covers `addr` or its prefetch failed —
    /// then the caller reads the block itself.
    fn take_from_ring(&mut self, addr: u32, out: &mut [u8]) -> Option<usize> {
        let idx = self.readahead.units.iter().position(|u| u.covers(addr))?;
        if let Buf::InFlight(token) = self.readahead.units[idx].buf {
            let start = self.now();
            let result = self.dev.finish_read_async(token);
            self.readahead.obs.claim_wait_ns.add(self.now() - start);
            match result {
                Ok(bytes) => self.readahead.units[idx].buf = Buf::Ready(bytes),
                Err(_) => {
                    let unit = self.readahead.units.remove(idx).expect("found");
                    self.readahead.obs.dropped_blocks.add(unit.unused());
                    if unit.trigger == Trigger::Log {
                        self.stop_stream("error");
                    }
                    return None;
                }
            }
        }
        let bs = self.block_size();
        let unit = &mut self.readahead.units[idx];
        let first = (addr - unit.addr) as usize;
        let n = (unit.len as usize - first).min(out.len() / bs);
        let Buf::Ready(bytes) = &unit.buf else {
            unreachable!("claimed above")
        };
        out[..n * bs].copy_from_slice(&bytes[first * bs..(first + n) * bs]);
        let mut fresh = 0;
        for b in first..first + n {
            if unit.used & (1 << b) == 0 {
                unit.used |= 1 << b;
                fresh += 1;
            }
        }
        self.readahead.obs.used_blocks.add(fresh);
        let (trigger, unit_addr, done) =
            (unit.trigger, unit.addr, unit.used.count_ones() == unit.len);
        // The reader is past every earlier unit of this trigger. One it
        // skipped whole means it reads the segment out of order: the
        // stream stops rather than fetch what will be skipped too.
        let skipped = self.drop_units(|u| u.trigger == trigger && u.addr < unit_addr);
        if skipped > 0 && trigger == Trigger::Log {
            self.stop_stream("skipped");
        }
        if done {
            self.drop_units(|u| u.addr == unit_addr && u.trigger == trigger);
            self.deepen(trigger);
        }
        Some(n)
    }

    /// One more unit of depth for the trigger whose unit was used up.
    fn deepen(&mut self, trigger: Trigger) {
        let depth = match trigger {
            Trigger::Log => self.readahead.stream.as_mut().map(|s| &mut s.depth),
            Trigger::File(ino) => (self.readahead.files.iter_mut())
                .find(|f| f.ino == ino)
                .map(|f| &mut f.depth),
        };
        if let Some(depth) = depth {
            *depth = (*depth + 1).min(MAX_DEPTH);
        }
    }

    /// Removes the units `which` selects, claiming any still in flight,
    /// and counts their unused blocks as dropped. Returns how many of
    /// them no reader had touched.
    fn drop_units(&mut self, which: impl Fn(&Unit) -> bool) -> usize {
        let mut untouched = 0;
        let mut i = 0;
        while i < self.readahead.units.len() {
            if !which(&self.readahead.units[i]) {
                i += 1;
                continue;
            }
            let unit = self.readahead.units.remove(i).expect("in range");
            self.readahead.obs.dropped_blocks.add(unit.unused());
            untouched += usize::from(unit.used == 0);
            if let Buf::InFlight(token) = unit.buf {
                // Claimed, not leaked; a failure here is nobody's.
                let _ = self.dev.finish_read_async(token);
            }
        }
        untouched
    }

    /// Starts a prefetch of `len` blocks at `addr`, evicting the oldest
    /// unit if the ring is full. False if the device offered no
    /// asynchronous read for the range.
    fn issue(&mut self, addr: u32, len: u32, trigger: Trigger) -> bool {
        if self.readahead.units.len() >= MAX_DEPTH {
            let oldest = self.readahead.units[0].addr;
            let oldest_trigger = self.readahead.units[0].trigger;
            self.drop_units(|u| u.addr == oldest && u.trigger == oldest_trigger);
        }
        let bytes = len as usize * self.block_size();
        self.dev.annotate("readahead");
        let Some(token) = self
            .dev
            .start_read_async(self.sector_of(BlockAddr(addr)), bytes)
        else {
            self.dev.annotate("");
            return false;
        };
        self.readahead.obs.issued_blocks.add(len as u64);
        self.readahead.units.push_back(Unit {
            addr,
            len,
            used: 0,
            buf: Buf::InFlight(token),
            trigger,
        });
        true
    }

    /// Blocks per unit; at most 32, the width of a unit's `used` mask.
    fn unit_blocks(&self) -> u32 {
        (UNIT_BYTES / self.block_size()).clamp(1, 32) as u32
    }

    fn event(&self, detail: String) {
        self.readahead
            .obs
            .registry
            .event(self.clock.now_ns(), "readahead", detail);
    }

    // ------------------------------------------------------------------
    // Log order.
    // ------------------------------------------------------------------

    /// Records a synchronous foreground miss of `len` blocks at `addr`:
    /// the second in a row to start where the previous one ended starts
    /// a stream just past it, and one the stream has not issued yet
    /// moves the stream past it.
    fn note_miss(&mut self, addr: u32, len: u32) {
        let ra = &mut self.readahead;
        ra.in_a_row = if ra.last_miss_end == Some(addr) {
            ra.in_a_row + 1
        } else {
            0
        };
        ra.last_miss_end = Some(addr + len);
        if let Some(s) = ra.stream.as_mut() {
            if (s.next..s.end).contains(&addr) {
                s.next = (addr + len).min(s.end);
                return;
            }
        }
        if ra.in_a_row >= 2 {
            self.start_stream(addr + len);
        }
    }

    /// Starts the log-order stream at `addr`, replacing any other, over
    /// the rest of its segment — the written part of it, for the log
    /// head's. No stream starts if the device takes no prefetch.
    fn start_stream(&mut self, addr: u32) {
        let Some((seg, offset)) = self.sb.seg_of(BlockAddr(addr)) else {
            return;
        };
        let written = if seg == self.pos.seg {
            self.pos.offset
        } else {
            self.sb.seg_blocks
        };
        if offset >= written {
            return;
        }
        let end = addr - offset + written;
        let Some((at, len)) = self.next_log_unit(addr, end) else {
            return;
        };
        if !self.issue(at, len, Trigger::Log) {
            return;
        }
        self.stop_stream("replaced");
        self.readahead.stream = Some(Stream {
            seg,
            next: at + len,
            end,
            depth: 1,
        });
        self.event(format!("start trigger=log addr={addr} end={end}"));
    }

    /// The stream's next unit from `next`: past the inode blocks the
    /// cache holds already (a read of a file needs its inode before its
    /// data, so the flush's inode blocks behind the data are usually
    /// read before the stream reaches them), and up to the next one.
    fn next_log_unit(&self, mut next: u32, end: u32) -> Option<(u32, u32)> {
        let cached = |addr: u32| {
            self.cache
                .contains(BlockKey::meta(NS_INODE_BLOCKS, addr as u64))
        };
        while next < end && cached(next) {
            next += 1;
        }
        let len = (1..self.unit_blocks().min(end - next))
            .find(|&i| cached(next + i))
            .unwrap_or(self.unit_blocks().min(end - next));
        (next < end).then_some((next, len))
    }

    /// Issues the stream's next units while fewer than its depth are
    /// resident; a stream that has issued its last block is over.
    fn top_up_stream(&mut self) {
        while let Some(s) = &self.readahead.stream {
            if self.readahead.resident(Trigger::Log) >= s.depth && s.next < s.end {
                return;
            }
            let Some((at, len)) = self.next_log_unit(s.next, s.end) else {
                self.stop_stream("end");
                return;
            };
            if !self.issue(at, len, Trigger::Log) {
                self.stop_stream("refused");
                return;
            }
            self.readahead.stream.as_mut().expect("checked").next = at + len;
        }
    }

    /// Ends the log-order stream, if there is one, and records why. Its
    /// units stay until used, skipped or evicted.
    fn stop_stream(&mut self, why: &str) {
        if let Some(s) = self.readahead.stream.take() {
            self.event(format!("stop trigger=log addr={} why={why}", s.next));
        }
    }

    // ------------------------------------------------------------------
    // File order.
    // ------------------------------------------------------------------

    /// Records a foreground range read of `ino`; one that starts where
    /// the file's previous read ended prefetches the next range of the
    /// same size, up to the file's depth in units.
    pub(crate) fn note_file_read(&mut self, ino: Ino, range: Range<u64>) {
        if !self.reads_ahead() {
            return;
        }
        let at = self.readahead.files.iter().position(|f| f.ino == ino);
        let mut state = match at {
            Some(i) => self.readahead.files.remove(i).expect("found"),
            None => FileRead {
                ino,
                next: u64::MAX,
                depth: 1,
                streaming: false,
            },
        };
        let sequential = state.next == range.start;
        state.next = range.end;
        if !sequential && state.streaming {
            state.streaming = false;
            self.event(format!("stop trigger=file ino={} why=seek", ino.0));
        }
        self.readahead.files.push_front(state);
        if self.readahead.files.len() > FILE_SLOTS {
            let gone = self.readahead.files.pop_back().expect("over the bound");
            if gone.streaming {
                self.event(format!(
                    "stop trigger=file ino={} why=forgotten",
                    gone.ino.0
                ));
            }
        }
        // The reader has just loaded the inode; peeking at it leaves the
        // inode table's recency order alone.
        let size = self.inodes.get(ino).map(|inode| inode.size);
        if let Some(size) = size.filter(|_| sequential) {
            let nblocks = blockmap::blocks_for_size(size, self.block_size());
            let len = range.end - range.start;
            self.prefetch_file(ino, range.end..(range.end + len).min(nblocks));
        }
    }

    /// Issues units for the blocks of `range` that are neither cached
    /// nor in the ring and whose addresses are known without a read,
    /// while the file has fewer than its depth resident.
    fn prefetch_file(&mut self, ino: Ino, range: Range<u64>) {
        let trigger = Trigger::File(ino);
        let depth = self.readahead.files[0].depth;
        let mut targets = Vec::new();
        for bno in range.clone() {
            if self.cache.contains(BlockKey::file(ino, bno)) {
                continue;
            }
            // The first block whose pointer is not in memory ends it.
            let Some(addr) = self.cached_addr(ino, bno) else {
                break;
            };
            if addr.is_some() && !self.readahead.covers(addr.0) {
                targets.push(addr.0);
            }
        }
        let unit = self.unit_blocks();
        let mut issued = false;
        for run in blockmap::runs(targets.iter().copied()) {
            let mut at = run.addr;
            let end = run.addr + run.len as u32;
            while at < end && self.readahead.resident(trigger) < depth {
                let len = unit.min(end - at);
                if !self.issue(at, len, trigger) {
                    return;
                }
                issued = true;
                at += len;
            }
        }
        let state = &mut self.readahead.files[0];
        if issued && !state.streaming {
            state.streaming = true;
            let detail = format!("start trigger=file ino={} addr={}", ino.0, targets[0]);
            self.event(detail);
        } else if range.is_empty() && state.streaming {
            state.streaming = false;
            self.event(format!("stop trigger=file ino={} why=eof", ino.0));
        }
    }

    /// The disk address of block `bno` of `ino` if every pointer on the
    /// way is in memory (NIL for a hole), `None` if finding it would
    /// take a read.
    fn cached_addr(&self, ino: Ino, bno: u64) -> Option<BlockAddr> {
        let inode = self.inodes.get(ino)?;
        let ptr = |idx: u64, slot: usize| {
            let key = BlockKey::file(ino, idx);
            self.cache
                .peek(key)
                .map(|block| BlockAddr(read_ptr(block, slot)))
        };
        match blockmap::resolve(bno, self.sb.ptrs_per_block())? {
            BlockPath::Direct { slot } => Some(inode.direct[slot]),
            BlockPath::Single { .. } if inode.single.is_nil() => Some(BlockAddr::NIL),
            BlockPath::Single { slot } => ptr(IDX_SINGLE, slot),
            BlockPath::Double { .. } if inode.double.is_nil() => Some(BlockAddr::NIL),
            BlockPath::Double { outer, inner } => ptr(idx_dchild(outer as u32), inner),
        }
    }

    // ------------------------------------------------------------------
    // Invalidation.
    // ------------------------------------------------------------------

    /// Drops every unit inside `blocks` — a segment about to be
    /// rewritten — and the stream if it runs there.
    pub(crate) fn readahead_forget(&mut self, seg: SegNo, blocks: Range<u32>) {
        if self.readahead.stream.as_ref().is_some_and(|s| s.seg == seg) {
            self.stop_stream("reuse");
        }
        self.drop_units(|u| u.addr < blocks.end && blocks.start < u.addr + u.len);
    }

    /// Empties the ring: every unit, the stream, and what the triggers
    /// remember.
    pub(crate) fn readahead_clear(&mut self, why: &str) {
        self.stop_stream(why);
        for f in std::mem::take(&mut self.readahead.files) {
            if f.streaming {
                self.event(format!("stop trigger=file ino={} why={why}", f.ino.0));
            }
        }
        self.drop_units(|_| true);
        self.readahead.last_miss_end = None;
        self.readahead.in_a_row = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::{CpuCost, DiskGeometry};

    /// The two constants, recomputed from the WREN IV and the
    /// 10-MIPS CPU model the paper's rig is (DESIGN §5.2.3).
    #[test]
    fn constants_follow_from_the_model() {
        let disk = DiskGeometry::wren_iv();
        let block = 4096u64;
        let block_ns = disk.transfer_ns(block);
        let half_turn = disk.rotation_ns / 2;
        // A unit: the whole blocks one half revolution transfers.
        assert_eq!((half_turn / block_ns * block) as usize, UNIT_BYTES);
        // The ring: unit transfers within one average positioning.
        let unit_ns = disk.transfer_ns(UNIT_BYTES as u64);
        let positioning = disk.avg_seek_ns + half_turn;
        assert_eq!((positioning / unit_ns) as usize, MAX_DEPTH);
        // Depth 1 suffices to start: a small read's CPU (a syscall, two
        // map steps and a 1 KB copy, at 10 MIPS) is shorter than one
        // unit's transfer.
        let instr = [
            CpuCost::Syscall,
            CpuCost::MapBlock,
            CpuCost::MapBlock,
            CpuCost::CopyKb,
        ]
        .iter()
        .map(|c| c.instructions())
        .sum::<u64>();
        let cpu_ns = instr * 1_000 / 10;
        assert!(
            cpu_ns < unit_ns,
            "{cpu_ns} ns of CPU against {unit_ns} ns a unit"
        );
    }
}
