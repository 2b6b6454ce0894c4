//! Tracing from outside the program: a `FileSystem` wrapper that
//! records one span per vfs call, phase spans around the benchmark's
//! own steps, and a Chrome-trace writer.
//!
//! `SpanFs` is the only program trait the benchmark implements. Spans
//! live in memory until the run ends. A span's *self time* is its
//! duration minus its children's, which is how the replay driver's own
//! host cost is obtained without touching `crates/trace`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use sim_disk::Clock;
use vfs::{DirEntry, FileSystem, FsResult, FsStats, Ino, Metadata};

/// One recorded interval on both clocks. A span's id is its position
/// in the log.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
    /// The phase span this call ran under; `None` for phase spans.
    pub parent: Option<usize>,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    pub fn virt_ns(&self) -> u64 {
        self.virt_end_ns - self.virt_start_ns
    }
}

/// The in-memory span log of one traced repeat.
pub struct SpanLog {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    phase: Cell<Option<usize>>,
}

/// Per-call-name totals over one phase's children.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTotals {
    pub calls: u64,
    pub host_ns: u64,
    pub virt_ns: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            phase: Cell::new(None),
        }
    }
}

impl SpanLog {
    fn host_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as the phase `name`; vfs calls made inside become its
    /// children.
    pub fn phase<R>(&self, name: &'static str, clock: &Clock, f: impl FnOnce() -> R) -> R {
        let id = self.spans.borrow().len();
        let (host, virt) = (self.host_now(), clock.now_ns());
        self.spans.borrow_mut().push(Span {
            name,
            host_start_ns: host,
            host_end_ns: host,
            virt_start_ns: virt,
            virt_end_ns: virt,
            parent: None,
        });
        self.phase.set(Some(id));
        let out = f();
        self.phase.set(None);
        let span = &mut self.spans.borrow_mut()[id];
        span.host_end_ns = self.host_now();
        span.virt_end_ns = clock.now_ns();
        out
    }

    fn call<R>(&self, name: &'static str, clock: &Clock, f: impl FnOnce() -> R) -> R {
        let (host, virt) = (self.host_now(), clock.now_ns());
        let out = f();
        self.spans.borrow_mut().push(Span {
            name,
            host_start_ns: host,
            host_end_ns: self.host_now(),
            virt_start_ns: virt,
            virt_end_ns: clock.now_ns(),
            parent: self.phase.get(),
        });
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// The phase span called `name` and the totals of its children by
    /// call name. `None` if no such phase was recorded.
    pub fn phase_totals(&self, name: &str) -> Option<(Span, BTreeMap<&'static str, CallTotals>)> {
        let spans = self.spans.borrow();
        let id = spans
            .iter()
            .position(|s| s.parent.is_none() && s.name == name)?;
        let mut totals: BTreeMap<&'static str, CallTotals> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent == Some(id)) {
            let t = totals.entry(s.name).or_default();
            t.calls += 1;
            t.host_ns += s.host_ns();
            t.virt_ns += s.virt_ns();
        }
        Some((spans[id].clone(), totals))
    }

    /// The log as Chrome-trace JSON (`chrome://tracing`, Perfetto):
    /// complete events on the host clock, with the virtual interval,
    /// span id and parent id in `args`.
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (id, s) in spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { ",\n" };
            let cat = if s.parent.is_none() { "phase" } else { "vfs" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"virt_start_us\":{:.3},\"virt_dur_us\":{:.3}}}}}",
                s.name,
                s.host_start_ns as f64 / 1e3,
                s.host_ns() as f64 / 1e3,
                s.virt_start_ns as f64 / 1e3,
                s.virt_ns() as f64 / 1e3,
            )
            .unwrap();
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Forwards every `FileSystem` method to `inner`, recording a span
/// around each.
pub struct SpanFs<'a, F: FileSystem + ?Sized> {
    inner: &'a mut F,
    log: &'a SpanLog,
    clock: &'a Clock,
}

impl<'a, F: FileSystem + ?Sized> SpanFs<'a, F> {
    pub fn new(inner: &'a mut F, log: &'a SpanLog, clock: &'a Clock) -> Self {
        SpanFs { inner, log, clock }
    }
}

/// One forwarded trait method: `name(args) -> ret`.
macro_rules! forward {
    ($( fn $name:ident(&mut self $(, $arg:ident : $ty:ty)*) -> $ret:ty; )*) => {
        $(
            fn $name(&mut self $(, $arg: $ty)*) -> $ret {
                let inner = &mut *self.inner;
                self.log.call(stringify!($name), self.clock, || inner.$name($($arg),*))
            }
        )*
    };
}

impl<F: FileSystem + ?Sized> FileSystem for SpanFs<'_, F> {
    forward! {
        fn lookup(&mut self, path: &str) -> FsResult<Ino>;
        fn create(&mut self, path: &str) -> FsResult<Ino>;
        fn mkdir(&mut self, path: &str) -> FsResult<Ino>;
        fn unlink(&mut self, path: &str) -> FsResult<()>;
        fn rmdir(&mut self, path: &str) -> FsResult<()>;
        fn rename(&mut self, from: &str, to: &str) -> FsResult<()>;
        fn link(&mut self, existing: &str, new: &str) -> FsResult<()>;
        fn read_at(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> FsResult<usize>;
        fn write_at(&mut self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize>;
        fn truncate(&mut self, ino: Ino, size: u64) -> FsResult<()>;
        fn stat(&mut self, ino: Ino) -> FsResult<Metadata>;
        fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>>;
        fn fsync(&mut self, ino: Ino) -> FsResult<()>;
        fn sync(&mut self) -> FsResult<()>;
        fn drop_caches(&mut self) -> FsResult<()>;
        fn fs_stats(&mut self) -> FsResult<FsStats>;
        fn set_active_client(&mut self, client: Option<u32>) -> ();
        fn write_file(&mut self, path: &str, data: &[u8]) -> FsResult<Ino>;
        fn read_file(&mut self, path: &str) -> FsResult<Vec<u8>>;
    }
}
