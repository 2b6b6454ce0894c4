//! Seeded workload generators. Each emits `lfs-trace v1` **text**: the
//! versioned format is the only interface between the benchmark's
//! inputs and the program, so the program's own generators
//! (`trace::generate`) can change without moving a baseline.
//!
//! Every workload is a pair of traces: a *fill* trace that builds the
//! starting state during setup, and the *main* trace whose replay is
//! the measured phase. Record ids restart at 0 in each trace and
//! dependency edges only ever point at smaller ids, so id order is a
//! valid order in which to feed the records to a model file system.
//! Every generator tracks which paths exist, so no record can fail.

use std::fmt::{Arguments, Write as _};

/// splitmix64 — owned by the benchmark so the input stream depends on
/// nothing in the program (not even the repo's `rand` shim).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// True with probability `p` percent.
    pub fn percent(&mut self, p: u64) -> bool {
        self.below(100) < p
    }

    /// A payload seed for a `write` record.
    fn payload(&mut self) -> u64 {
        self.below(1 << 32)
    }

    /// A uniformly chosen element of a non-empty slice.
    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// The two traces of one workload instance, as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracePair {
    /// Replayed during setup; builds the starting state.
    pub fill: String,
    /// Replayed in the measured phase.
    pub main: String,
}

/// Incremental writer of one `lfs-trace v1` document.
struct TraceText {
    text: String,
    next_id: u64,
}

impl TraceText {
    fn new(clients: usize) -> Self {
        TraceText {
            text: format!("lfs-trace v1\nclients {clients}\n"),
            next_id: 0,
        }
    }

    fn qos(&mut self, client: usize, weight: u64, class: &str) {
        writeln!(self.text, "qos {client} weight {weight} class {class}").unwrap();
    }

    /// Appends one record and returns its id.
    fn op(&mut self, client: usize, think_ns: u64, deps: &[u64], op: Arguments<'_>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        write!(self.text, "op {id} c{client} t{think_ns} after ").unwrap();
        if deps.is_empty() {
            self.text.push('-');
        }
        for (i, dep) in deps.iter().enumerate() {
            debug_assert!(*dep < id, "dependency edges point backwards");
            let sep = if i == 0 { "" } else { "," };
            write!(self.text, "{sep}{dep}").unwrap();
        }
        writeln!(self.text, " {op}").unwrap();
        id
    }
}

/// `n` scaled by the test/dev knob, never below `floor`.
fn scaled(n: u64, scale: f64, floor: u64) -> u64 {
    ((n as f64 * scale).round() as u64).max(floor)
}

// ---------------------------------------------------------------------
// smallfile — the paper's Figure 3.
// ---------------------------------------------------------------------

/// Files created, read and deleted at scale 1.
pub const SMALLFILE_FILES: u64 = 6_000;
const SMALLFILE_DIR_FILES: u64 = 100;

/// One tenant creates+writes `SMALLFILE_FILES` files of about 1 KB in
/// directories of 100, syncs, reads them all back in creation order
/// (one 4 KB block each: 23 MB against a 15 MB cache, so every read
/// misses), unlinks nine in ten, and syncs. Think time 0.
///
/// Figure 3 deletes every file; one in ten survives here so that
/// `space_amp` has live bytes to divide by and recovery has files to
/// verify. The seed jitters each file's size by ±25% around 1 KB and
/// picks the payloads and the surviving residue; the structure never
/// varies.
pub fn smallfile(seed: u64, scale: f64) -> TracePair {
    let mut rng = Rng::new(seed);
    let files = scaled(SMALLFILE_FILES, scale, 1);
    let path = |i: u64| format!("/d{:03}/f{i:05}", i / SMALLFILE_DIR_FILES);

    let mut fill = TraceText::new(1);
    for d in 0..files.div_ceil(SMALLFILE_DIR_FILES) {
        fill.op(0, 0, &[], format_args!("mkdir /d{d:03}"));
    }

    let mut main = TraceText::new(1);
    let sizes: Vec<u64> = (0..files).map(|_| 768 + rng.below(513)).collect();
    for (i, size) in sizes.iter().enumerate() {
        let p = path(i as u64);
        main.op(0, 0, &[], format_args!("create {p}"));
        main.op(
            0,
            0,
            &[],
            format_args!("write {p} 0 {size} {}", rng.payload()),
        );
    }
    main.op(0, 0, &[], format_args!("sync"));
    for (i, size) in sizes.iter().enumerate() {
        main.op(0, 0, &[], format_args!("read {} 0 {size}", path(i as u64)));
    }
    let survivor = rng.below(10);
    for i in (0..files).filter(|i| i % 10 != survivor) {
        main.op(0, 0, &[], format_args!("unlink {}", path(i)));
    }
    main.op(0, 0, &[], format_args!("sync"));
    TracePair {
        fill: fill.text,
        main: main.text,
    }
}

// ---------------------------------------------------------------------
// hotcold_churn — the cleaner's regime.
// ---------------------------------------------------------------------

pub const HOTCOLD_TENANTS: usize = 4;
/// Files per tenant in the fill (×4 tenants × 16 KB = 73% of the disk).
/// More than 800 per tenant pushes live data past the 0.88
/// `max_utilization` cap and main-trace writes start to fail.
pub const HOTCOLD_FILES_PER_TENANT: u64 = 750;
/// Main-trace records per tenant at scale 1.
pub const HOTCOLD_RECORDS_PER_TENANT: u64 = 2_500;
const HOTCOLD_FILE_BYTES: u64 = 16 * 1024;
const HOTCOLD_THINK_NS: u64 = 500_000;

/// Four tenants each own 750 × 16 KB files. Main trace, per tenant:
/// 85% whole-file overwrites — 90% of them on the tenant's hottest 10%
/// of files — and 15% whole-file reads of cold files. Think 0.5 ms.
///
/// The hot files are every tenth file of the fill (the seed picks which
/// residue per tenant), so every fill segment is 10% hot data that dies
/// at once and 90% cold data the cleaner must keep copying.
pub fn hotcold_churn(seed: u64, scale: f64) -> TracePair {
    let mut rng = Rng::new(seed);
    let files = scaled(HOTCOLD_FILES_PER_TENANT, scale, 10);
    let records = scaled(HOTCOLD_RECORDS_PER_TENANT, scale, 1);
    let path = |c: usize, i: u64| format!("/t{c}/f{i:04}");

    let mut fill = TraceText::new(HOTCOLD_TENANTS);
    for c in 0..HOTCOLD_TENANTS {
        fill.op(c, 0, &[], format_args!("mkdir /t{c}"));
    }
    for i in 0..files {
        for c in 0..HOTCOLD_TENANTS {
            let p = path(c, i);
            fill.op(c, 0, &[], format_args!("create {p}"));
            fill.op(
                c,
                0,
                &[],
                format_args!("write {p} 0 {HOTCOLD_FILE_BYTES} {}", rng.payload()),
            );
        }
    }

    let mut main = TraceText::new(HOTCOLD_TENANTS);
    let sets: Vec<(Vec<u64>, Vec<u64>)> = (0..HOTCOLD_TENANTS)
        .map(|_| {
            let residue = rng.below(10);
            (0..files).partition(|i| i % 10 == residue)
        })
        .collect();
    for _ in 0..records {
        for (c, (hot, cold)) in sets.iter().enumerate() {
            if rng.percent(85) {
                let set = if rng.percent(90) { hot } else { cold };
                let p = path(c, rng.pick(set));
                main.op(
                    c,
                    HOTCOLD_THINK_NS,
                    &[],
                    format_args!("write {p} 0 {HOTCOLD_FILE_BYTES} {}", rng.payload()),
                );
            } else {
                let p = path(c, rng.pick(cold));
                main.op(
                    c,
                    HOTCOLD_THINK_NS,
                    &[],
                    format_args!("read {p} 0 {HOTCOLD_FILE_BYTES}"),
                );
            }
        }
    }
    TracePair {
        fill: fill.text,
        main: main.text,
    }
}

// ---------------------------------------------------------------------
// array_mix — engine queues, parity volume, four spindles, mem-mgr.
// ---------------------------------------------------------------------

pub const ARRAY_TENANTS: usize = 16;
/// Files per tenant (×16 tenants × 64 KB = 64 MB).
pub const ARRAY_FILES_PER_TENANT: u64 = 64;
/// Each tenant's hot set: 8 files × 64 KB × 16 tenants = 8 MB, the
/// cache size.
const ARRAY_HOT_FILES: u64 = 8;
/// The scanner's file, in 64 KB chunks (32 MB).
pub const ARRAY_SCAN_CHUNKS: u64 = 512;
/// Main-trace rounds (one record per tenant and one for the scanner) at
/// scale 1.
pub const ARRAY_ROUNDS: u64 = 600;
const ARRAY_FILE_BYTES: u64 = 64 * 1024;
const ARRAY_THINK_NS: u64 = 2_000_000;

/// Sixteen tenants and one scanner share a 4-spindle parity volume.
/// Each tenant owns 64 × 64 KB files; per round it issues one record:
/// 70% whole-file reads (80% of them from its 8 hottest files) and 30%
/// whole-file overwrites of any of its files. The scanner (the last
/// client) reads the next 64 KB of a 32 MB file each round. Think 2 ms.
pub fn array_mix(seed: u64, scale: f64) -> TracePair {
    let mut rng = Rng::new(seed);
    let files = scaled(ARRAY_FILES_PER_TENANT, scale, 2);
    let hot_files = scaled(ARRAY_HOT_FILES, scale, 1);
    let scan_chunks = scaled(ARRAY_SCAN_CHUNKS, scale, 1);
    let rounds = scaled(ARRAY_ROUNDS, scale, 1);
    let scanner = ARRAY_TENANTS;
    let path = |c: usize, i: u64| format!("/t{c:02}/f{i:02}");

    let mut fill = TraceText::new(ARRAY_TENANTS + 1);
    for c in 0..ARRAY_TENANTS {
        fill.op(c, 0, &[], format_args!("mkdir /t{c:02}"));
    }
    fill.op(scanner, 0, &[], format_args!("create /scan"));
    for i in 0..files.max(scan_chunks) {
        for c in 0..ARRAY_TENANTS {
            if i < files {
                let p = path(c, i);
                fill.op(c, 0, &[], format_args!("create {p}"));
                fill.op(
                    c,
                    0,
                    &[],
                    format_args!("write {p} 0 {ARRAY_FILE_BYTES} {}", rng.payload()),
                );
            }
        }
        if i < scan_chunks {
            fill.op(
                scanner,
                0,
                &[],
                format_args!(
                    "write /scan {} {ARRAY_FILE_BYTES} {}",
                    i * ARRAY_FILE_BYTES,
                    rng.payload()
                ),
            );
        }
    }

    let mut main = TraceText::new(ARRAY_TENANTS + 1);
    // Each tenant's hot files start at a seeded offset into its files.
    let hot_base: Vec<u64> = (0..ARRAY_TENANTS).map(|_| rng.below(files)).collect();
    for round in 0..rounds {
        for (c, base) in hot_base.iter().enumerate() {
            if rng.percent(70) {
                let i = if rng.percent(80) {
                    (base + rng.below(hot_files)) % files
                } else {
                    rng.below(files)
                };
                main.op(
                    c,
                    ARRAY_THINK_NS,
                    &[],
                    format_args!("read {} 0 {ARRAY_FILE_BYTES}", path(c, i)),
                );
            } else {
                let p = path(c, rng.below(files));
                main.op(
                    c,
                    ARRAY_THINK_NS,
                    &[],
                    format_args!("write {p} 0 {ARRAY_FILE_BYTES} {}", rng.payload()),
                );
            }
        }
        main.op(
            scanner,
            ARRAY_THINK_NS,
            &[],
            format_args!(
                "read /scan {} {ARRAY_FILE_BYTES}",
                (round % scan_chunks) * ARRAY_FILE_BYTES
            ),
        );
    }
    TracePair {
        fill: fill.text,
        main: main.text,
    }
}

// ---------------------------------------------------------------------
// office_replay — §4.3.5's office traffic; everything fits in memory.
// ---------------------------------------------------------------------

pub const OFFICE_TENANTS: usize = 8;
/// Each tenant's working set: 40 slots of 1–8 KB files.
const OFFICE_SLOTS: usize = 40;
/// Operations per tenant at scale 1 (a create is two records).
pub const OFFICE_OPS_PER_TENANT: u64 = 6_250;
const OFFICE_THINK_NS: u64 = 8_000_000;

/// One path's state while generating `office_replay`.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Size in bytes when the file exists.
    size: Option<u64>,
    /// The main-trace record that last touched the path, and its client.
    last: Option<(u64, usize)>,
}

/// Eight tenants, each with a 40-slot working set of 1–8 KB files in
/// its own directory. After one read of every file the fill left (the
/// cache starts cold): 30% create+write, 25% whole-file read, 25%
/// whole-file overwrite, 20% unlink. One read in five goes to the next
/// tenant's directory, and every record carries a happens-before edge
/// to the last record that touched its path from another client — so
/// the dependency scheduler has cross-tenant edges to honour. Tenant 0
/// is in the `latency` class, tenant 1 has weight 4. Think 8 ms, so the
/// run spans two of the 30 s write-back age and checkpoint periods.
pub fn office_replay(seed: u64, scale: f64) -> TracePair {
    let mut rng = Rng::new(seed);
    let ops = scaled(OFFICE_OPS_PER_TENANT, scale, 1);
    let path = |c: usize, s: usize| format!("/t{c}/f{s:02}");
    let header = || {
        let mut t = TraceText::new(OFFICE_TENANTS);
        t.qos(0, 1, "latency");
        t.qos(1, 4, "bulk");
        t
    };
    let mut slots = vec![[Slot::default(); OFFICE_SLOTS]; OFFICE_TENANTS];

    // Fill: the directories, and every other slot populated.
    let mut fill = header();
    for c in 0..OFFICE_TENANTS {
        fill.op(c, 0, &[], format_args!("mkdir /t{c}"));
    }
    for s in (0..OFFICE_SLOTS).step_by(2) {
        for (c, tenant) in slots.iter_mut().enumerate() {
            let size = 1024 + rng.below(7 * 1024 + 1);
            let p = path(c, s);
            fill.op(c, 0, &[], format_args!("create {p}"));
            fill.op(
                c,
                0,
                &[],
                format_args!("write {p} 0 {size} {}", rng.payload()),
            );
            tenant[s].size = Some(size);
        }
    }

    let mut main = header();
    // Appends one record on (`owner`, `s`) issued by `c`, with an edge to
    // the path's last toucher when that was another client.
    let touch = |main: &mut TraceText,
                 slots: &mut Vec<[Slot; OFFICE_SLOTS]>,
                 c: usize,
                 owner: usize,
                 s: usize,
                 op: Arguments<'_>| {
        let dep = slots[owner][s]
            .last
            .filter(|&(_, by)| by != c)
            .map(|(id, _)| id);
        let id = main.op(c, OFFICE_THINK_NS, dep.as_slice(), op);
        slots[owner][s].last = Some((id, c));
    };
    let existing = |tenant: &[Slot; OFFICE_SLOTS]| -> Vec<usize> {
        (0..OFFICE_SLOTS)
            .filter(|&s| tenant[s].size.is_some())
            .collect()
    };
    // Each tenant opens its session by reading its whole working set:
    // the measured phase starts with a cold cache, and this makes the
    // cold reads the same set of files for every seed.
    for s in 0..OFFICE_SLOTS {
        for c in 0..OFFICE_TENANTS {
            if let Some(size) = slots[c][s].size {
                let p = path(c, s);
                touch(
                    &mut main,
                    &mut slots,
                    c,
                    c,
                    s,
                    format_args!("read {p} 0 {size}"),
                );
            }
        }
    }
    for _ in 0..ops {
        for c in 0..OFFICE_TENANTS {
            let own = existing(&slots[c]);
            let free: Vec<usize> = (0..OFFICE_SLOTS)
                .filter(|&s| slots[c][s].size.is_none())
                .collect();
            let roll = rng.below(100);
            // Infeasible picks fall back: nothing to touch → create;
            // nowhere to create → overwrite.
            let create = (roll < 30 && !free.is_empty()) || own.is_empty();
            if create {
                let s = rng.pick(&free);
                let size = 1024 + rng.below(7 * 1024 + 1);
                let p = path(c, s);
                touch(&mut main, &mut slots, c, c, s, format_args!("create {p}"));
                let seed = rng.payload();
                touch(
                    &mut main,
                    &mut slots,
                    c,
                    c,
                    s,
                    format_args!("write {p} 0 {size} {seed}"),
                );
                slots[c][s].size = Some(size);
            } else if (30..55).contains(&roll) {
                let neighbour = (c + 1) % OFFICE_TENANTS;
                let theirs = existing(&slots[neighbour]);
                let (owner, s) = if rng.percent(20) && !theirs.is_empty() {
                    (neighbour, rng.pick(&theirs))
                } else {
                    (c, rng.pick(&own))
                };
                let size = slots[owner][s].size.expect("picked an existing file");
                let p = path(owner, s);
                touch(
                    &mut main,
                    &mut slots,
                    c,
                    owner,
                    s,
                    format_args!("read {p} 0 {size}"),
                );
            } else if roll < 80 {
                let s = rng.pick(&own);
                let size = slots[c][s].size.expect("picked an existing file");
                let p = path(c, s);
                let seed = rng.payload();
                touch(
                    &mut main,
                    &mut slots,
                    c,
                    c,
                    s,
                    format_args!("write {p} 0 {size} {seed}"),
                );
            } else {
                let s = rng.pick(&own);
                let p = path(c, s);
                touch(&mut main, &mut slots, c, c, s, format_args!("unlink {p}"));
                slots[c][s].size = None;
            }
        }
    }
    TracePair {
        fill: fill.text,
        main: main.text,
    }
}
