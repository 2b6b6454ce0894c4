//! Criterion micro-benchmarks for the hot data structures: segment
//! packing, summary encode/decode, CRC, inode-map operations, and the
//! file cache. These measure *host* wall time (the virtual clock is
//! irrelevant here) and guard against regressions in the simulator's own
//! overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use lfs_core::layout::summary::{BlockKind, ChunkSummary};
use lfs_core::log::ChunkBuilder;
use lfs_core::types::{BlockAddr, SegNo};
use mem_mgr::{BlockKey, MemConfig, MemMgr, WritebackPolicy};
use vfs::wire::crc32;
use vfs::Ino;

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for size in [4096usize, 1 << 20] {
        let data = vec![0xA5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |b| {
            b.iter(|| crc32(black_box(&data)));
        });
    }
    group.finish();
}

fn bench_segment_packing(c: &mut Criterion) {
    // Pack a full paper-configuration segment: 254 x 4 KB blocks.
    let block = vec![0x5Au8; 4096];
    let mut group = c.benchmark_group("segment");
    group.throughput(Throughput::Bytes(254 * 4096));
    group.bench_function("pack_1mb_chunk", |b| {
        b.iter(|| {
            let mut builder = ChunkBuilder::new(SegNo(0), BlockAddr(100), 0, 256, 4096).unwrap();
            for bno in 0..254u32 {
                builder.add(BlockKind::Data { ino: Ino(7), bno }, 1, black_box(&block));
            }
            black_box(builder.finish(1, 0, 0, SegNo::NIL))
        });
    });
    group.finish();
}

fn bench_summary_codec(c: &mut Criterion) {
    let summary = ChunkSummary {
        addr: lfs_core::types::BlockAddr(256),
        seq: 9,
        partial: 0,
        timestamp_ns: 123,
        next_seg: SegNo::NIL,
        data_crc: 0xABCD,
        reserved_blocks: 2,
        entries: (0..254)
            .map(|bno| lfs_core::layout::summary::SummaryEntry {
                kind: BlockKind::Data { ino: Ino(3), bno },
                version: 4,
                crc: 0x5EED_C0DE ^ bno,
            })
            .collect(),
    };
    let encoded = summary.encode(4096);
    c.bench_function("summary_encode_254", |b| {
        b.iter(|| black_box(summary.encode(4096)));
    });
    c.bench_function("summary_decode_254", |b| {
        b.iter(|| ChunkSummary::decode(black_box(&encoded)).unwrap());
    });
}

fn bench_imap(c: &mut Criterion) {
    use lfs_core::imap::Imap;
    c.bench_function("imap_alloc_free_cycle", |b| {
        let mut imap = Imap::new(65_536, 170);
        b.iter(|| {
            let ino = imap.allocate().unwrap();
            imap.set_location(ino, BlockAddr(42), 3).unwrap();
            imap.free(ino).unwrap();
        });
    });
    c.bench_function("imap_encode_block", |b| {
        let mut imap = Imap::new(65_536, 170);
        for _ in 0..170 {
            let ino = imap.allocate().unwrap();
            imap.set_location(ino, BlockAddr(7), 0).unwrap();
        }
        b.iter(|| black_box(imap.encode_block(0, 4096)));
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache_hit", |b| {
        let mut cache = MemMgr::new(4096, 1024, MemConfig::shared(WritebackPolicy::paper()));
        let key = BlockKey::file(Ino(1), 0);
        cache.insert_clean(key, vec![0u8; 4096].into_boxed_slice());
        b.iter(|| {
            black_box(cache.get(black_box(key)));
        });
    });
    c.bench_function("cache_insert_evict", |b| {
        let mut cache = MemMgr::new(4096, 64, MemConfig::shared(WritebackPolicy::paper()));
        let block = vec![0u8; 4096].into_boxed_slice();
        let mut index = 0u64;
        b.iter(|| {
            cache.insert_clean(BlockKey::file(Ino(1), index), block.clone());
            index += 1;
        });
    });
}

criterion_group!(
    benches,
    bench_crc32,
    bench_segment_packing,
    bench_summary_codec,
    bench_imap,
    bench_cache
);
criterion_main!(benches);
