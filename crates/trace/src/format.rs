//! The `lfs-trace` format: a versioned, multi-tenant operation trace.
//!
//! A trace file is plain text. The first significant line is the header
//! `lfs-trace v1`; after it come directives, one per line, with `#`
//! comments and blank lines ignored:
//!
//! ```text
//! lfs-trace v1
//! clients 2
//! qos 0 weight 4 class bulk        # optional; default weight 1, bulk
//! qos 1 weight 1 class latency
//! op 0 c0 t0 after - mkdir /t0
//! op 1 c0 t500000 after 0 create /t0/doc
//! op 2 c1 t500000 after 1 read /t0/doc 0 4096
//! ```
//!
//! Each `op` record carries a unique id, the issuing client, a think
//! time (client-side delay before the operation becomes runnable), an
//! explicit happens-before dependency list (`-` for none), and the
//! operation itself, one [`TraceOp`] line. Write payloads are regenerated
//! from a seed ([`workload::payload`]), so traces stay compact:
//!
//! ```text
//! mkdir /a
//! create /a/f
//! write /a/f 0 4096 1234     # path offset len payload-seed
//! read /a/f 0 4096
//! truncate /a/f 100
//! rename /a/f /a/g
//! link /a/g /a/h
//! unlink /a/h
//! rmdir /a
//! sync
//! fsync /a/g
//! ```
//!
//! Besides the explicit edges, every record has an implicit
//! happens-before edge from the issuing client's previous record
//! (program order). [`Trace::parse`] validates the whole graph —
//! explicit and implicit edges together must be acyclic — and rejects
//! malformed input with a typed [`TraceError`], never a panic.

use std::fmt;
use std::fmt::Write as _;

use engine::{QosClass, QosSpec};
use vfs::{FileSystem, FsError, FsResult};
use workload::payload;


/// Current format version (the `v1` of the header line).
pub const FORMAT_VERSION: u32 = 1;

/// Largest client count a trace may declare. Per-tenant QoS and replay
/// state is sized by this number at parse time, so it is a hard format
/// limit rather than a soft suggestion.
pub const MAX_CLIENTS: usize = 1 << 16;

/// Everything that can be wrong with a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The input does not start with an `lfs-trace` header line.
    BadHeader,
    /// The header names a version this parser does not speak.
    BadVersion(String),
    /// A directive line is missing a required field.
    MissingField {
        /// 1-based line number.
        line: usize,
        /// Which field was expected.
        what: &'static str,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
    },
    /// A line starts with an unknown directive.
    UnknownDirective {
        /// 1-based line number.
        line: usize,
    },
    /// The embedded operation spec failed to parse.
    BadOp {
        /// 1-based line number.
        line: usize,
    },
    /// A `qos` line names an unknown class.
    BadQosClass {
        /// 1-based line number.
        line: usize,
    },
    /// A record's client id is outside `0..clients`.
    BadClient {
        /// 1-based line number.
        line: usize,
        /// The offending client id.
        client: usize,
    },
    /// The `clients` directive exceeds [`MAX_CLIENTS`] — per-tenant
    /// state is allocated eagerly, so an absurd count is rejected, not
    /// honoured.
    TooManyClients {
        /// 1-based line number.
        line: usize,
        /// The declared client count.
        clients: usize,
    },
    /// Two records share an id.
    DuplicateId {
        /// The repeated record id.
        id: u64,
    },
    /// A record depends on an id that is not in the trace.
    DanglingDependency {
        /// The depending record.
        id: u64,
        /// The missing dependency id.
        dep: u64,
    },
    /// A record depends on itself.
    SelfDependency {
        /// The offending record id.
        id: u64,
    },
    /// The dependency graph (explicit edges plus per-client program
    /// order) contains a cycle through this record.
    CyclicDependency {
        /// A record id on the cycle.
        id: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadHeader => write!(f, "missing 'lfs-trace' header"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version '{v}'"),
            TraceError::MissingField { line, what } => {
                write!(f, "line {line}: missing {what}")
            }
            TraceError::BadNumber { line } => write!(f, "line {line}: bad number"),
            TraceError::UnknownDirective { line } => {
                write!(f, "line {line}: unknown directive")
            }
            TraceError::BadOp { line } => write!(f, "line {line}: bad operation spec"),
            TraceError::BadQosClass { line } => write!(f, "line {line}: bad qos class"),
            TraceError::BadClient { line, client } => {
                write!(f, "line {line}: client {client} out of range")
            }
            TraceError::TooManyClients { line, clients } => {
                write!(
                    f,
                    "line {line}: client count {clients} exceeds the limit {MAX_CLIENTS}"
                )
            }
            TraceError::DuplicateId { id } => write!(f, "duplicate record id {id}"),
            TraceError::DanglingDependency { id, dep } => {
                write!(f, "record {id} depends on unknown record {dep}")
            }
            TraceError::SelfDependency { id } => write!(f, "record {id} depends on itself"),
            TraceError::CyclicDependency { id } => {
                write!(f, "dependency cycle through record {id}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// One traced operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Create a regular file.
    Create(String),
    /// Create a directory.
    Mkdir(String),
    /// Remove a file.
    Unlink(String),
    /// Remove an empty directory.
    Rmdir(String),
    /// Write `len` seeded bytes at `offset`.
    Write {
        /// Target path.
        path: String,
        /// Byte offset.
        offset: u64,
        /// Length in bytes.
        len: u32,
        /// Payload seed (regenerated at replay).
        seed: u64,
    },
    /// Read `len` bytes at `offset`.
    Read {
        /// Target path.
        path: String,
        /// Byte offset.
        offset: u64,
        /// Length in bytes.
        len: u32,
    },
    /// Set the file length.
    Truncate {
        /// Target path.
        path: String,
        /// New size.
        size: u64,
    },
    /// Rename a file or directory.
    Rename(String, String),
    /// Create a hard link.
    Link(String, String),
    /// Flush everything.
    Sync,
    /// Flush one file.
    Fsync(String),
}

impl TraceOp {
    /// Serialises the operation as one trace line.
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        match self {
            TraceOp::Create(p) => write!(line, "create {p}").unwrap(),
            TraceOp::Mkdir(p) => write!(line, "mkdir {p}").unwrap(),
            TraceOp::Unlink(p) => write!(line, "unlink {p}").unwrap(),
            TraceOp::Rmdir(p) => write!(line, "rmdir {p}").unwrap(),
            TraceOp::Write {
                path,
                offset,
                len,
                seed,
            } => write!(line, "write {path} {offset} {len} {seed}").unwrap(),
            TraceOp::Read { path, offset, len } => {
                write!(line, "read {path} {offset} {len}").unwrap()
            }
            TraceOp::Truncate { path, size } => write!(line, "truncate {path} {size}").unwrap(),
            TraceOp::Rename(a, b) => write!(line, "rename {a} {b}").unwrap(),
            TraceOp::Link(a, b) => write!(line, "link {a} {b}").unwrap(),
            TraceOp::Sync => write!(line, "sync").unwrap(),
            TraceOp::Fsync(p) => write!(line, "fsync {p}").unwrap(),
        }
        line
    }

    /// Parses one trace line (comments after `#` and blank lines yield
    /// `None`).
    pub fn parse_line(line: &str) -> FsResult<Option<TraceOp>> {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return Ok(None);
        }
        let mut fields = line.split_whitespace();
        let op = fields.next().unwrap();
        let mut arg = || {
            fields
                .next()
                .ok_or(FsError::Corrupt("trace line missing field"))
        };
        let parsed = match op {
            "create" => TraceOp::Create(arg()?.to_string()),
            "mkdir" => TraceOp::Mkdir(arg()?.to_string()),
            "unlink" => TraceOp::Unlink(arg()?.to_string()),
            "rmdir" => TraceOp::Rmdir(arg()?.to_string()),
            "write" => TraceOp::Write {
                path: arg()?.to_string(),
                offset: op_num(arg()?)?,
                len: op_num(arg()?)? as u32,
                seed: op_num(arg()?)?,
            },
            "read" => TraceOp::Read {
                path: arg()?.to_string(),
                offset: op_num(arg()?)?,
                len: op_num(arg()?)? as u32,
            },
            "truncate" => TraceOp::Truncate {
                path: arg()?.to_string(),
                size: op_num(arg()?)?,
            },
            "rename" => TraceOp::Rename(arg()?.to_string(), arg()?.to_string()),
            "link" => TraceOp::Link(arg()?.to_string(), arg()?.to_string()),
            "sync" => TraceOp::Sync,
            "fsync" => TraceOp::Fsync(arg()?.to_string()),
            _ => return Err(FsError::Corrupt("unknown trace operation")),
        };
        Ok(Some(parsed))
    }

    /// Applies the operation to a file system.
    pub fn apply<F: FileSystem + ?Sized>(&self, fs: &mut F) -> FsResult<()> {
        match self {
            TraceOp::Create(p) => fs.create(p).map(|_| ()),
            TraceOp::Mkdir(p) => fs.mkdir(p).map(|_| ()),
            TraceOp::Unlink(p) => fs.unlink(p),
            TraceOp::Rmdir(p) => fs.rmdir(p),
            TraceOp::Write {
                path,
                offset,
                len,
                seed,
            } => {
                let ino = fs.lookup(path)?;
                let data = payload(*seed, *len as usize);
                let mut written = 0usize;
                while written < data.len() {
                    written += fs.write_at(ino, offset + written as u64, &data[written..])?;
                }
                Ok(())
            }
            TraceOp::Read { path, offset, len } => {
                let ino = fs.lookup(path)?;
                let mut buf = vec![0u8; *len as usize];
                fs.read_at(ino, *offset, &mut buf).map(|_| ())
            }
            TraceOp::Truncate { path, size } => {
                let ino = fs.lookup(path)?;
                fs.truncate(ino, *size)
            }
            TraceOp::Rename(a, b) => fs.rename(a, b),
            TraceOp::Link(a, b) => fs.link(a, b),
            TraceOp::Sync => fs.sync(),
            TraceOp::Fsync(p) => {
                let ino = fs.lookup(p)?;
                fs.fsync(ino)
            }
        }
    }
}

fn op_num(s: &str) -> FsResult<u64> {
    s.parse().map_err(|_| FsError::Corrupt("bad trace number"))
}

/// One trace record: an operation plus its scheduling envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Unique record id (referenced by dependency edges).
    pub id: u64,
    /// Issuing client (tenant), `0..trace.clients`.
    pub client: usize,
    /// Client-side think time before the operation becomes runnable,
    /// in virtual nanoseconds.
    pub think_ns: u64,
    /// Explicit happens-before dependencies: this record may not start
    /// until every listed record has finished.
    pub deps: Vec<u64>,
    /// The operation itself.
    pub op: TraceOp,
}

/// A parsed, validated trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Number of clients (tenants) the trace was recorded for.
    pub clients: usize,
    /// Per-tenant QoS parameters (weight 1, bulk unless a `qos` line
    /// says otherwise).
    pub qos: QosSpec,
    /// The records, in file order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Parses and validates a trace. Rejects malformed input, unknown
    /// ids, and dependency cycles with a typed [`TraceError`].
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
            .filter(|(_, l)| !l.is_empty());

        let (_, header) = lines.next().ok_or(TraceError::BadHeader)?;
        let mut head = header.split_whitespace();
        if head.next() != Some("lfs-trace") {
            return Err(TraceError::BadHeader);
        }
        let version = head.next().unwrap_or("");
        if version != "v1" {
            return Err(TraceError::BadVersion(version.to_string()));
        }

        let mut clients = 0usize;
        let mut qos = QosSpec::default();
        let mut records = Vec::new();
        for (line, text) in lines {
            let mut fields = text.split_whitespace();
            match fields.next().unwrap() {
                "clients" => {
                    clients = parse_num(
                        fields.next().ok_or(TraceError::MissingField {
                            line,
                            what: "client count",
                        })?,
                        line,
                    )? as usize;
                    if clients > MAX_CLIENTS {
                        return Err(TraceError::TooManyClients { line, clients });
                    }
                    qos = QosSpec::uniform(clients);
                }
                "qos" => {
                    let c = parse_num(
                        fields.next().ok_or(TraceError::MissingField {
                            line,
                            what: "qos client",
                        })?,
                        line,
                    )? as usize;
                    if c >= clients {
                        return Err(TraceError::BadClient { line, client: c });
                    }
                    // `weight <w> class <name>` in either order, both
                    // optional.
                    while let Some(key) = fields.next() {
                        let value = fields.next().ok_or(TraceError::MissingField {
                            line,
                            what: "qos value",
                        })?;
                        match key {
                            "weight" => qos = qos.with_weight(c, parse_num(value, line)?),
                            "class" => {
                                let class = QosClass::parse(value)
                                    .ok_or(TraceError::BadQosClass { line })?;
                                qos = qos.with_class(c, class);
                            }
                            _ => return Err(TraceError::UnknownDirective { line }),
                        }
                    }
                }
                "op" => {
                    let id = parse_num(
                        fields.next().ok_or(TraceError::MissingField {
                            line,
                            what: "record id",
                        })?,
                        line,
                    )?;
                    let client_field = fields.next().ok_or(TraceError::MissingField {
                        line,
                        what: "client (cN)",
                    })?;
                    let client = parse_num(
                        client_field
                            .strip_prefix('c')
                            .ok_or(TraceError::MissingField {
                                line,
                                what: "client (cN)",
                            })?,
                        line,
                    )? as usize;
                    if client >= clients {
                        return Err(TraceError::BadClient { line, client });
                    }
                    let think_field = fields.next().ok_or(TraceError::MissingField {
                        line,
                        what: "think time (tN)",
                    })?;
                    let think_ns = parse_num(
                        think_field
                            .strip_prefix('t')
                            .ok_or(TraceError::MissingField {
                                line,
                                what: "think time (tN)",
                            })?,
                        line,
                    )?;
                    if fields.next() != Some("after") {
                        return Err(TraceError::MissingField {
                            line,
                            what: "'after' keyword",
                        });
                    }
                    let deps_field = fields.next().ok_or(TraceError::MissingField {
                        line,
                        what: "dependency list",
                    })?;
                    let deps = if deps_field == "-" {
                        Vec::new()
                    } else {
                        deps_field
                            .split(',')
                            .map(|d| parse_num(d, line))
                            .collect::<Result<Vec<_>, _>>()?
                    };
                    let op_text = fields.collect::<Vec<_>>().join(" ");
                    let op = TraceOp::parse_line(&op_text)
                        .ok()
                        .flatten()
                        .ok_or(TraceError::BadOp { line })?;
                    records.push(TraceRecord {
                        id,
                        client,
                        think_ns,
                        deps,
                        op,
                    });
                }
                _ => return Err(TraceError::UnknownDirective { line }),
            }
        }

        let trace = Trace {
            clients,
            qos,
            records,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// [`Trace::parse`] over raw bytes: invalid UTF-8 is decoded lossily
    /// (replacement characters fail field parsing, never the process).
    pub fn parse_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        Trace::parse(&String::from_utf8_lossy(bytes))
    }

    /// Validates record ids, dependency targets, and graph acyclicity
    /// (explicit edges plus per-client program order). `parse` runs
    /// this; call it directly on programmatically built traces.
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut seen = std::collections::BTreeSet::new();
        for r in &self.records {
            if !seen.insert(r.id) {
                return Err(TraceError::DuplicateId { id: r.id });
            }
            if r.deps.contains(&r.id) {
                return Err(TraceError::SelfDependency { id: r.id });
            }
        }
        for r in &self.records {
            for &dep in &r.deps {
                if !seen.contains(&dep) {
                    return Err(TraceError::DanglingDependency { id: r.id, dep });
                }
            }
        }
        crate::graph::schedule(self).map(|_| ())
    }

    /// Serialises the trace in the `lfs-trace v1` grammar;
    /// [`Trace::parse`] round-trips the result exactly.
    pub fn to_text(&self) -> String {
        let mut out = format!("lfs-trace v{FORMAT_VERSION}\nclients {}\n", self.clients);
        for (c, t) in self.qos.tenants.iter().enumerate() {
            out.push_str(&format!(
                "qos {c} weight {} class {}\n",
                t.weight,
                t.class.name()
            ));
        }
        for r in &self.records {
            let deps = if r.deps.is_empty() {
                "-".to_string()
            } else {
                r.deps
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!(
                "op {} c{} t{} after {deps} {}\n",
                r.id,
                r.client,
                r.think_ns,
                r.op.to_line()
            ));
        }
        out
    }

    /// The subset of the trace issued by `client`, renumbered as a
    /// single-tenant trace. Cross-client dependency edges are dropped
    /// (same-client edges are kept), giving the workload this tenant
    /// would run *alone* — the solo baseline for interference studies.
    pub fn filter_client(&self, client: usize) -> Trace {
        let keep: std::collections::BTreeSet<u64> = self
            .records
            .iter()
            .filter(|r| r.client == client)
            .map(|r| r.id)
            .collect();
        let records = self
            .records
            .iter()
            .filter(|r| r.client == client)
            .map(|r| TraceRecord {
                id: r.id,
                client: 0,
                think_ns: r.think_ns,
                deps: r.deps.iter().copied().filter(|d| keep.contains(d)).collect(),
                op: r.op.clone(),
            })
            .collect();
        Trace {
            clients: 1,
            qos: QosSpec::uniform(1),
            records,
        }
    }
}

fn parse_num(s: &str, line: usize) -> Result<u64, TraceError> {
    s.parse().map_err(|_| TraceError::BadNumber { line })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "\
lfs-trace v1
clients 2
qos 0 weight 4 class bulk
qos 1 weight 1 class latency
op 0 c0 t0 after - mkdir /t0
op 1 c0 t1000 after 0 create /t0/f
op 2 c1 t1000 after 1 read /t0/f 0 0
";

    #[test]
    fn parses_and_round_trips() {
        let trace = Trace::parse(SMALL).unwrap();
        assert_eq!(trace.clients, 2);
        assert_eq!(trace.qos.tenant(0).weight, 4);
        assert_eq!(trace.qos.tenant(1).class, QosClass::Latency);
        assert_eq!(trace.records.len(), 3);
        assert_eq!(trace.records[2].deps, vec![1]);
        assert_eq!(Trace::parse(&trace.to_text()).unwrap(), trace);
    }

    #[test]
    fn rejects_bad_headers_and_versions() {
        assert_eq!(Trace::parse(""), Err(TraceError::BadHeader));
        assert_eq!(Trace::parse("hello\n"), Err(TraceError::BadHeader));
        assert_eq!(
            Trace::parse("lfs-trace v9\n"),
            Err(TraceError::BadVersion("v9".into()))
        );
    }

    #[test]
    fn rejects_graph_violations_with_typed_errors() {
        let dup = "lfs-trace v1\nclients 1\nop 0 c0 t0 after - sync\nop 0 c0 t0 after - sync\n";
        assert_eq!(Trace::parse(dup), Err(TraceError::DuplicateId { id: 0 }));
        let dangling = "lfs-trace v1\nclients 1\nop 0 c0 t0 after 7 sync\n";
        assert_eq!(
            Trace::parse(dangling),
            Err(TraceError::DanglingDependency { id: 0, dep: 7 })
        );
        let selfdep = "lfs-trace v1\nclients 1\nop 0 c0 t0 after 0 sync\n";
        assert_eq!(Trace::parse(selfdep), Err(TraceError::SelfDependency { id: 0 }));
        // Explicit cycle: 0 -> 1 -> 0 (two clients, so program order
        // does not already serialize them).
        let cycle =
            "lfs-trace v1\nclients 2\nop 0 c0 t0 after 1 sync\nop 1 c1 t0 after 0 sync\n";
        assert!(matches!(
            Trace::parse(cycle),
            Err(TraceError::CyclicDependency { .. })
        ));
        // Program-order cycle: record 0 of client 0 explicitly after
        // record 1 of client 0, but program order puts 0 first.
        let po_cycle =
            "lfs-trace v1\nclients 1\nop 0 c0 t0 after 1 sync\nop 1 c0 t0 after - sync\n";
        assert!(matches!(
            Trace::parse(po_cycle),
            Err(TraceError::CyclicDependency { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_clients_and_bad_ops() {
        let bad_client = "lfs-trace v1\nclients 1\nop 0 c3 t0 after - sync\n";
        assert_eq!(
            Trace::parse(bad_client),
            Err(TraceError::BadClient { line: 3, client: 3 })
        );
        let bad_op = "lfs-trace v1\nclients 1\nop 0 c0 t0 after - explode /x\n";
        assert_eq!(Trace::parse(bad_op), Err(TraceError::BadOp { line: 3 }));
    }

    #[test]
    fn trace_text_round_trips() {
        let ops = vec![
            TraceOp::Mkdir("/d".into()),
            TraceOp::Create("/d/f".into()),
            TraceOp::Write {
                path: "/d/f".into(),
                offset: 0,
                len: 512,
                seed: 7,
            },
            TraceOp::Read {
                path: "/d/f".into(),
                offset: 100,
                len: 12,
            },
            TraceOp::Truncate {
                path: "/d/f".into(),
                size: 9,
            },
            TraceOp::Rename("/d/f".into(), "/d/g".into()),
            TraceOp::Link("/d/g".into(), "/d/h".into()),
            TraceOp::Fsync("/d/g".into()),
            TraceOp::Sync,
            TraceOp::Unlink("/d/h".into()),
            TraceOp::Rmdir("/x".into()),
        ];
        for op in ops {
            assert_eq!(TraceOp::parse_line(&op.to_line()), Ok(Some(op)));
        }
    }

    #[test]
    fn parser_skips_comments_and_rejects_garbage() {
        assert_eq!(TraceOp::parse_line("# header"), Ok(None));
        assert_eq!(TraceOp::parse_line(""), Ok(None));
        assert_eq!(
            TraceOp::parse_line("mkdir /a # trailing"),
            Ok(Some(TraceOp::Mkdir("/a".into())))
        );
        assert!(TraceOp::parse_line("explode /a").is_err());
        assert!(TraceOp::parse_line("write /a zero 1 2").is_err());
        assert!(TraceOp::parse_line("write /a 1").is_err());
    }

    #[test]
    fn filter_client_drops_cross_client_edges() {
        let trace = Trace::parse(SMALL).unwrap();
        let solo = trace.filter_client(1);
        assert_eq!(solo.clients, 1);
        assert_eq!(solo.records.len(), 1);
        assert!(solo.records[0].deps.is_empty(), "cross-client edge kept");
        solo.validate().unwrap();
    }
}
