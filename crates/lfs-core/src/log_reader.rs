//! The one reader of the log's chunk chains (§4.3.1, DESIGN §5.2.4).
//!
//! A [`LogReader`] walks one segment's chain a unit of work at a time:
//! it reads the header block at its cursor, then the rest of the summary
//! span ([`ChunkCursor::summary_span`]), validates the chunk
//! ([`ChunkCursor::next_chunk`]), asks its caller's predicate which
//! payload blocks it wants, and reads those in maximal runs. It never
//! reads a whole segment, nor past a chain's end anything but the
//! summary that ends it. The cleaner wants the blocks whose liveness
//! needs their bytes and steps one reader under a hosted run's caps;
//! roll-forward and scrub want every block and keep a [`ReaderRing`] of
//! readers in flight. A failed read stops the reader and is reported,
//! never acted on: the cleaner fails its victim, roll-forward surfaces
//! it only where the chain runs into it, scrub retries the run block by
//! block. Taking the failure lets the reader go on past the failed run.

use std::collections::VecDeque;
use std::ops::RangeBounds;

use sim_disk::{BlockDevice, DiskError};
use vfs::FsResult;

use crate::fs::Lfs;
use crate::layout::summary::{ChainEnd, ChunkCursor, ChunkSummary, SummaryEntry};
use crate::log::LogPosition;
use crate::types::{BlockAddr, SegNo};

/// How much one [`LogReader::step`] may do.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepCaps {
    /// Blocks one read may cover.
    pub max_blocks: usize,
    /// Summary entries one step may judge.
    pub max_entries: usize,
    /// Issue reads through the device's async facade, for a later step
    /// to claim.
    pub overlap: bool,
}

impl StepCaps {
    /// No caps and waited reads.
    pub(crate) const WHOLE: Self = Self {
        max_blocks: usize::MAX,
        max_entries: usize::MAX,
        overlap: false,
    };
}

/// A validated chunk of the chain and its read plan.
#[derive(Debug)]
pub(crate) struct LoggedChunk {
    pub summary: ChunkSummary,
    /// In-segment block offset of the first payload block.
    pub payload_start: usize,
    /// Per entry judged so far: whether the caller wants its block.
    pub wanted: Vec<bool>,
    /// Entries whose wanted blocks are read or in flight.
    read_to: usize,
}

/// One segment's chain: the cursor, the image, how much of the next
/// summary span is read, the chunk being planned and read, the chunks
/// ready for the caller, and the one read in flight.
#[derive(Debug)]
pub(crate) struct LogReader {
    /// The segment whose chain this is.
    pub seg: SegNo,
    base: BlockAddr,
    block_size: usize,
    /// Annotates every read, so traces tell the callers apart.
    label: &'static str,
    /// The segment's blocks at their own offsets; only summary spans
    /// and wanted blocks are ever read into it.
    image: Vec<u8>,
    cursor: ChunkCursor,
    summary_read: usize,
    chunk: Option<LoggedChunk>,
    /// Chunks whose wanted blocks are all in the image, in chain order.
    pub ready: VecDeque<LoggedChunk>,
    /// The read in flight: device token, first block, blocks, and the
    /// virtual time it was issued at.
    pending: Option<(u64, usize, usize, u64)>,
    /// The failed read the reader is stopped on: first block, blocks,
    /// error. Taking it lets the reader go on; the run's blocks hold
    /// whatever the caller put there.
    pub failure: Option<(usize, usize, DiskError)>,
    /// How the chain ended, once it has.
    pub end: Option<ChainEnd>,
    /// Bytes read so far.
    pub read_bytes: u64,
}

impl LogReader {
    /// A reader of `seg`'s chain: from block 0, or from `from`, whose
    /// first chunk must carry exactly its `(seq, partial)`.
    pub(crate) fn new<D: BlockDevice>(
        fs: &Lfs<D>,
        seg: SegNo,
        from: Option<LogPosition>,
        label: &'static str,
    ) -> Self {
        let (base, bs) = (fs.sb.seg_block(seg, 0), fs.block_size());
        let seg_blocks = fs.sb.seg_blocks as usize;
        let cursor = match from {
            None => ChunkCursor::new(base, seg_blocks, bs),
            Some(p) => {
                ChunkCursor::resume_at(base, seg_blocks, bs, p.offset as usize, p.seq, p.partial)
            }
        };
        Self {
            seg,
            base,
            block_size: bs,
            label,
            image: vec![0u8; seg_blocks * bs],
            cursor,
            summary_read: 0,
            chunk: None,
            ready: VecDeque::new(),
            pending: None,
            failure: None,
            end: None,
            read_bytes: 0,
        }
    }

    /// One unit of work within `caps`: claim the read in flight, issue
    /// the next read, judge entries with `want` (an entry and its
    /// block's address), or validate the next chunk. Returns the bytes
    /// that landed in the image. A stopped reader does nothing.
    pub(crate) fn step<D: BlockDevice>(
        &mut self,
        fs: &mut Lfs<D>,
        caps: StepCaps,
        mut want: impl FnMut(&mut Lfs<D>, &SummaryEntry, BlockAddr) -> FsResult<bool>,
    ) -> FsResult<u64> {
        if self.failure.is_some() || self.end.is_some() {
            return Ok(0);
        }
        let bs = self.block_size;
        if let Some((token, at, blocks, _)) = self.pending.take() {
            return Ok(match fs.dev.finish_read_async(token) {
                Ok(data) => {
                    self.image[at * bs..][..data.len()].copy_from_slice(&data);
                    self.landed(data.len())
                }
                Err(err) => self.fail(at, blocks, err),
            });
        }
        let Some(chunk) = self.chunk.as_mut() else {
            let at = self.cursor.offset();
            let header = (self.summary_read > 0).then(|| &self.image[at * bs..(at + 1) * bs]);
            let span = self.cursor.summary_span(header);
            if self.summary_read < span {
                let n = (span - self.summary_read).min(caps.max_blocks);
                self.summary_read += n;
                return Ok(self.read(fs, at + self.summary_read - n, n, caps.overlap));
            }
            match self.cursor.next_chunk(&self.image[at * bs..]) {
                Ok((summary, payload_start)) => {
                    self.summary_read = 0;
                    let wanted = Vec::with_capacity(summary.entries.len());
                    self.chunk = Some(LoggedChunk { summary, payload_start, wanted, read_to: 0 });
                }
                Err(end) => self.end = Some(end),
            }
            return Ok(0);
        };
        let entries = &chunk.summary.entries;
        if chunk.wanted.len() < entries.len() {
            let end = entries.len().min(chunk.wanted.len().saturating_add(caps.max_entries));
            for (i, entry) in entries.iter().enumerate().take(end).skip(chunk.wanted.len()) {
                let addr = BlockAddr(self.base.0 + (chunk.payload_start + i) as u32);
                chunk.wanted.push(want(fs, entry, addr)?);
            }
            return Ok(0);
        }
        if let Some(start) = (chunk.read_to..entries.len()).find(|&i| chunk.wanted[i]) {
            let run = chunk.wanted[start..].iter().take(caps.max_blocks);
            let n = run.take_while(|&&wanted| wanted).count();
            chunk.read_to = start + n;
            let from = chunk.payload_start + start;
            return Ok(self.read(fs, from, n, caps.overlap));
        }
        self.ready.extend(self.chunk.take());
        Ok(0)
    }

    /// Reads `n` blocks from segment block `at` into the image, or
    /// leaves the read in flight when `overlap` and the device has an
    /// async read path. Returns the bytes that landed.
    fn read<D: BlockDevice>(&mut self, fs: &mut Lfs<D>, at: usize, n: usize, overlap: bool) -> u64 {
        let (bs, sector) = (self.block_size, fs.sector_of(BlockAddr(self.base.0 + at as u32)));
        fs.dev.annotate(self.label);
        if let Some(token) = overlap.then(|| fs.dev.start_read_async(sector, n * bs)).flatten() {
            self.pending = Some((token, at, n, fs.now()));
            return 0;
        }
        match fs.dev.read(sector, &mut self.image[at * bs..(at + n) * bs]) {
            Ok(()) => self.landed(n * bs),
            Err(err) => self.fail(at, n, err),
        }
    }

    fn landed(&mut self, bytes: usize) -> u64 {
        self.read_bytes += bytes as u64;
        bytes as u64
    }

    fn fail(&mut self, at: usize, blocks: usize, err: DiskError) -> u64 {
        self.failure = Some((at, blocks, err));
        0
    }

    /// True while a read is in flight, for a later step to claim.
    pub(crate) fn read_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// The in-segment offset of the next chunk; once the chain has
    /// ended, the first block past it.
    pub(crate) fn offset(&self) -> usize {
        self.cursor.offset()
    }

    /// Whether the failed read lies past the chain's end: no validated
    /// chunk is being read, and the header at the cursor was read and
    /// does not claim to be the chain's next chunk.
    pub(crate) fn failed_past_end(&self) -> bool {
        let at = self.cursor.offset();
        self.failure.as_ref().is_some_and(|&(from, ..)| {
            self.chunk.is_none() && from > at && !self.cursor.claims(self.blocks(at, 1))
        })
    }

    /// `blocks` blocks of the image from segment block `at`.
    pub(crate) fn blocks(&self, at: usize, blocks: usize) -> &[u8] {
        &self.image[at * self.block_size..(at + blocks) * self.block_size]
    }

    /// Puts `data`, read by the caller, at segment block `at`.
    pub(crate) fn fill(&mut self, at: usize, data: &[u8]) {
        self.image[at * self.block_size..][..data.len()].copy_from_slice(data);
    }
}

/// Up to `window` readers, each with at most one read in flight: the
/// walk's own at the head, the ones it will need next behind it. A step
/// gives every reader that can issue a read its next one (through the
/// async facade when the window is wider than one), then claims the
/// oldest summary read in flight, else the oldest read: a summary read
/// is a block or two, so its reader soon issues the payload read behind
/// it while the long payload reads run on the other spindles. Readers
/// want every entry and run ahead chunk after chunk; the walk drains
/// the head's ready chunks in chain order. At a window of one the
/// head's reads are waited on: the sequential walk.
#[derive(Debug)]
pub(crate) struct ReaderRing {
    window: usize,
    pub readers: VecDeque<LogReader>,
    /// Reads issued through the async facade.
    pub overlapped: u64,
    /// Bytes read by the readers the ring dropped.
    dropped_bytes: u64,
}

impl ReaderRing {
    /// An empty ring of `window` readers at most (at least one).
    pub(crate) fn new(window: usize) -> Self {
        Self { window: window.max(1), readers: VecDeque::new(), overlapped: 0, dropped_bytes: 0 }
    }

    /// Whether the ring has room for another reader.
    pub(crate) fn has_room(&self) -> bool {
        self.readers.len() < self.window
    }

    /// The walk's reader.
    pub(crate) fn head(&mut self) -> &mut LogReader {
        self.readers.front_mut().expect("a ring with a reader")
    }

    /// Bytes read by every reader the ring has held.
    pub(crate) fn read_bytes(&self) -> u64 {
        self.dropped_bytes + self.readers.iter().map(|r| r.read_bytes).sum::<u64>()
    }

    /// One round of reading, as maintenance I/O: every reader that can
    /// issue a read issues its next one, then one read is claimed.
    pub(crate) fn step<D: BlockDevice>(&mut self, fs: &mut Lfs<D>) {
        let caps = StepCaps { overlap: self.window > 1, ..StepCaps::WHOLE };
        let advance = |r: &mut LogReader, fs: &mut Lfs<D>| {
            let every = |_: &mut Lfs<D>, _: &SummaryEntry, _| Ok(true);
            r.step(fs, caps, every).expect("wanting every entry cannot fail");
        };
        fs.dev.set_maintenance(true);
        for r in &mut self.readers {
            while !r.read_pending() && r.failure.is_none() && r.end.is_none() {
                advance(r, fs);
                self.overlapped += u64::from(r.read_pending());
            }
        }
        // The oldest summary read in flight, else the oldest read.
        let oldest = |summaries_only: bool| {
            (self.readers.iter().enumerate())
                .filter(|(_, r)| !summaries_only || r.chunk.is_none())
                .filter_map(|(i, r)| Some((r.pending?.3, i)))
                .min()
        };
        if let Some((_, i)) = oldest(true).or_else(|| oldest(false)) {
            advance(&mut self.readers[i], fs);
        }
        fs.dev.set_maintenance(false);
    }

    /// Drops the readers in `range`, claiming their reads in flight.
    /// Returns the bytes they read.
    pub(crate) fn drop_readers<D: BlockDevice>(
        &mut self,
        fs: &mut Lfs<D>,
        range: impl RangeBounds<usize>,
    ) -> u64 {
        let mut bytes = 0;
        fs.dev.set_maintenance(true);
        for mut r in self.readers.drain(range) {
            if let Some((token, ..)) = r.pending.take() {
                r.read_bytes += fs.dev.finish_read_async(token).map_or(0, |data| data.len() as u64);
            }
            bytes += r.read_bytes;
        }
        fs.dev.set_maintenance(false);
        self.dropped_bytes += bytes;
        bytes
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sim_disk::{BlockDevice, Clock, DiskGeometry, MediaFaultPlan, SECTOR_SIZE};
    use vfs::FileSystem;
    use volume::{StripedVolume, VolumeConfig, VolumeDisk};

    use crate::config::LfsConfig;
    use crate::fs::Lfs;
    use crate::layout::summary::ChunkCursor;
    use crate::layout::usage_block::SegState;
    use crate::log::LogPosition;
    use crate::types::SegNo;

    const SPINDLES: usize = 4;
    const SPINDLE_SECTORS: u64 = 8_192;

    /// The tiny config on a segment-round-robin array, so consecutive
    /// segments sit on different spindles.
    fn cfg(fanout: usize) -> LfsConfig {
        let mut c = LfsConfig::small_test()
            .with_checkpoint_secs(1e9)
            .with_recovery_fanout(fanout);
        c.segment_align_metadata = true;
        c
    }

    fn array(clock: &Arc<Clock>, images: Option<Vec<Vec<u8>>>) -> VolumeDisk {
        let (geometry, clock) = (DiskGeometry::tiny_test(SPINDLE_SECTORS), Arc::clone(clock));
        let vcfg = VolumeConfig::rr_segment(SPINDLES, cfg(1).segment_bytes);
        let vol = match images {
            Some(images) => StripedVolume::from_images(geometry, clock, vcfg, images),
            None => StripedVolume::new(geometry, clock, vcfg),
        };
        VolumeDisk::new(vol.into_shared())
    }

    fn fresh(fanout: usize) -> Lfs<VolumeDisk> {
        let clock = Clock::new();
        Lfs::format(array(&clock, None), cfg(fanout), clock).unwrap()
    }

    /// `seg` as the device holds it, read raw.
    fn raw(fs: &mut Lfs<VolumeDisk>, seg: SegNo) -> Vec<u8> {
        let mut image = vec![0u8; fs.sb.seg_blocks as usize * fs.block_size()];
        let sector = fs.sector_of(fs.sb.seg_block(seg, 0));
        fs.dev.read(sector, &mut image).unwrap();
        image
    }

    /// What a walk of the chain from `cursor` reads, from the segment's
    /// raw `image`: each chunk's summary span and payload, then the span
    /// of the summary that ends the chain. Returns those blocks, the
    /// chunks, and the last chunk's link.
    fn chain(image: &[u8], mut cursor: ChunkCursor, bs: usize) -> (usize, u64, SegNo) {
        let (mut blocks, mut chunks, mut next) = (0, 0, SegNo::NIL);
        while cursor.summary_span(None) > 0 {
            let at = cursor.offset();
            blocks += cursor.summary_span(Some(&image[at * bs..(at + 1) * bs]));
            let Ok((summary, _)) = cursor.next_chunk(&image[at * bs..]) else { break };
            blocks += summary.entries.len();
            chunks += 1;
            next = summary.next_seg;
        }
        (blocks, chunks, next)
    }

    /// The `word=` number of the last `kind` event that has one.
    fn event_field(fs: &Lfs<VolumeDisk>, kind: &str, word: &str) -> u64 {
        let events = fs.obs().events();
        let field = events.iter().rev().filter(|e| e.kind == kind).find_map(|e| {
            let mut words = e.detail.split_whitespace();
            words.find_map(|w| w.strip_prefix(word).map(str::to_string))
        });
        field.unwrap_or_else(|| panic!("no {word} in a {kind} event")).parse().unwrap()
    }

    /// Reads failed by a latent fault, on any spindle.
    fn unreadable(fs: &Lfs<VolumeDisk>) -> u64 {
        let snap = fs.obs().snapshot();
        let spindle = |s| snap.counter(&format!("volume.spindle.{s}.faults.unreadable_reads"));
        (0..SPINDLES).map(spindle).sum()
    }

    #[test]
    fn roll_forward_reads_the_tails_chunks_and_what_it_read_ahead() {
        let mut fs = fresh(1);
        fs.mkdir("/d").unwrap();
        fs.sync().unwrap();
        let checkpointed = fs.pos;
        for i in 0..40u8 {
            fs.write_file(&format!("/d/f{i}"), &vec![i; 3_000]).unwrap();
        }
        fs.write_back().unwrap();
        fs.dev.flush().unwrap();

        // The tail as the walk follows it: from the checkpointed
        // position, along each segment's last link whose target's first
        // chunk carries the next sequence number.
        let (bs, seg_blocks) = (fs.block_size(), fs.sb.seg_blocks as usize);
        let (mut blocks, mut chunks, mut segments) = (0, 0, 0);
        let mut at = Some(checkpointed);
        while let Some(pos) = at.take() {
            let image = raw(&mut fs, pos.seg);
            let base = fs.sb.seg_block(pos.seg, 0);
            let (offset, seq, partial) = (pos.offset as usize, pos.seq, pos.partial);
            let cursor = ChunkCursor::resume_at(base, seg_blocks, bs, offset, seq, partial);
            let (b, c, next) = chain(&image, cursor, bs);
            (blocks, chunks, segments) = (blocks + b, chunks + c, segments + 1);
            if c > 0 && next.is_some() && next != pos.seg {
                at = Some(LogPosition { seg: next, offset: 0, partial: 0, seq: seq + 1 });
            }
        }
        assert!(segments > SPINDLES, "a tail of {segments} segments does not span the array");
        let images = fs.into_device().into_images();

        for fanout in [1, 0] {
            let clock = Clock::new();
            let dev = array(&clock, Some(images.clone()));
            let fs = Lfs::mount(dev, cfg(fanout), clock).unwrap();
            assert_eq!(fs.stats().rollforward_chunks, chunks, "fan-out {fanout}");
            let ahead = event_field(&fs, "recovery", "ahead_unused=");
            let read = event_field(&fs, "recovery", "read_bytes=");
            assert_eq!(read, (blocks * bs) as u64 + ahead, "fan-out {fanout}");
            if fanout == 1 {
                assert_eq!(ahead, 0, "fan-out 1 reads nothing ahead");
                assert_eq!(fs.stats().recovery_parallel_reads, 0);
            } else {
                // Past the log's end the predicted readers read the
                // headers of segments the walk never enters.
                assert!(ahead > 0, "nothing was read ahead");
                assert!(fs.stats().recovery_parallel_reads > 0, "no read overlapped");
            }
        }
    }

    /// The bytes one scrub of `fs` must read: every dirty or active
    /// segment's chain from block 0.
    fn chains_of_scrubbed(fs: &mut Lfs<VolumeDisk>) -> u64 {
        let (bs, seg_blocks) = (fs.block_size(), fs.sb.seg_blocks as usize);
        let mut blocks = 0;
        for seg in (0..fs.sb.nsegments).map(SegNo) {
            if matches!(fs.usage.state(seg), SegState::Dirty | SegState::Active) {
                let image = raw(fs, seg);
                let cursor = ChunkCursor::new(fs.sb.seg_block(seg, 0), seg_blocks, bs);
                blocks += chain(&image, cursor, bs).0;
            }
        }
        (blocks * bs) as u64
    }

    #[test]
    fn scrub_reads_exactly_the_chains_it_walks() {
        for fanout in [1, 0] {
            let mut fs = fresh(fanout);
            for i in 0..24u8 {
                fs.write_file(&format!("/f{i}"), &vec![i; 1_500]).unwrap();
            }
            fs.sync().unwrap();
            for i in (0..24).step_by(3) {
                fs.unlink(&format!("/f{i}")).unwrap();
            }
            fs.sync().unwrap();
            let expected = chains_of_scrubbed(&mut fs);
            let report = fs.scrub().unwrap();
            assert!(report.is_clean(), "fan-out {fanout}: {report:?}");
            assert!(report.segments > SPINDLES as u64, "fan-out {fanout}: {report:?}");
            assert_eq!(event_field(&fs, "scrub", "read_bytes="), expected, "fan-out {fanout}");
        }
    }

    #[test]
    fn scrub_never_reads_past_a_chain_end() {
        for fanout in [1, 0] {
            let mut fs = fresh(fanout);
            fs.write_file("/f", &[7u8; 600]).unwrap();
            fs.sync().unwrap();
            let active = fs.usage.segments_in_state(SegState::Active);
            assert_eq!(active.len(), 1, "one open segment: {active:?}");
            assert!((fs.pos.offset as usize) < fs.sb.seg_blocks as usize - 1, "a full segment");
            let last = fs.sb.seg_block(active[0], fs.sb.seg_blocks - 1);
            let logical = fs.sector_of(last);
            // Segment round-robin: one segment-sized chunk per spindle.
            let chunk_sectors = (cfg(1).segment_bytes / SECTOR_SIZE) as u64;
            let chunk = logical / chunk_sectors;
            let spindle = (chunk % SPINDLES as u64) as usize;
            let physical = chunk / SPINDLES as u64 * chunk_sectors + logical % chunk_sectors;
            fs.dev
                .volume()
                .borrow_mut()
                .spindle_mut(spindle)
                .disk_mut()
                .inject_media_faults(MediaFaultPlan::new(3).latent(physical));
            let report = fs.scrub().unwrap();
            assert!(report.is_clean(), "fan-out {fanout}: {report:?}");
            assert_eq!(unreadable(&fs), 0, "fan-out {fanout}: scrub read past the chain");
        }
    }
}
