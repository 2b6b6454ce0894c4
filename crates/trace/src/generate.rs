//! Trace generators: the paper's §4.3.5 office workload plus three
//! multi-tenant shapes (mail server, build farm, Zipf hot-file churn).
//!
//! Every generator is deterministic in its spec and emits a *determinate*
//! trace: any two operations that touch the same file are ordered by a
//! happens-before edge, so every dependency-respecting replay — whatever
//! the file system's latencies or the QoS policy's dispatch order —
//! reaches the same final namespace and contents. That property is what
//! the cross-fs replay-equivalence test leans on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

use engine::{QosClass, QosSpec};

use crate::format::{Trace, TraceOp, TraceRecord};

/// Shared generator parameters.
#[derive(Debug, Clone)]
pub struct GenSpec {
    /// Number of tenants.
    pub clients: usize,
    /// Operations issued per tenant (setup records are extra).
    pub ops_per_client: usize,
    /// Target per-tenant working-set size in files (also the hot-set
    /// size for [`zipf_churn`]).
    pub working_set: usize,
    /// Maximum file size in bytes (paper: office files are < 8 KB).
    pub max_file_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GenSpec {
    /// The default §4.3.5-scale shape: 8-KB-capped files over a
    /// moderate working set.
    pub fn new(clients: usize, ops_per_client: usize) -> Self {
        Self {
            clients,
            ops_per_client,
            working_set: 40,
            max_file_size: 8 * 1024,
            seed: 0x7E4CE,
        }
    }

    /// A scaled-down variant for tests and smoke runs.
    pub fn small(clients: usize) -> Self {
        Self {
            clients,
            ops_per_client: 30,
            working_set: 8,
            max_file_size: 2 * 1024,
            seed: 0x7E4CE,
        }
    }
}

/// Record-list builder: allocates ids and keeps the per-file
/// last-writer chain that makes traces determinate.
struct Builder {
    records: Vec<TraceRecord>,
    /// path → record id of its most recent create/write/truncate, the
    /// happens-before anchor for the next operation on that path.
    last_write: BTreeMap<String, u64>,
}

impl Builder {
    fn new() -> Self {
        Builder {
            records: Vec::new(),
            last_write: BTreeMap::new(),
        }
    }

    fn push(&mut self, client: usize, think_ns: u64, mut deps: Vec<u64>, op: TraceOp) -> u64 {
        let id = self.records.len() as u64;
        deps.sort_unstable();
        deps.dedup();
        self.records.push(TraceRecord {
            id,
            client,
            think_ns,
            deps,
            op,
        });
        id
    }

    /// Dependency on the last writer of `path`, if any.
    fn after_write(&self, path: &str) -> Vec<u64> {
        self.last_write.get(path).map(|&id| vec![id]).unwrap_or_default()
    }

    fn note_write(&mut self, path: &str, id: u64) {
        self.last_write.insert(path.to_string(), id);
    }

    fn finish(self, clients: usize) -> Trace {
        Trace {
            clients,
            qos: QosSpec::uniform(clients),
            records: self.records,
        }
    }
}

/// The §4.3.5 office/engineering workload, per tenant: a working set of
/// small short-lived files under the tenant's own directory, driven by a
/// seeded mix of creates, deletes, whole-file overwrites, and
/// whole-file reads. Tenants are disjoint in the namespace; the
/// dependency graph is each tenant's per-file create/overwrite chain.
pub fn office(spec: &GenSpec) -> Trace {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut b = Builder::new();
    for c in 0..spec.clients {
        let dir = b.push(c, 0, vec![], TraceOp::Mkdir(format!("/t{c}")));
        let mut live: Vec<String> = Vec::new();
        let mut serial = 0u64;
        for _ in 0..spec.ops_per_client {
            let think = rng.gen_range(250_000..=750_000u64);
            let roll: f64 = rng.gen();
            let create_bias = if live.len() < spec.working_set { 0.5 } else { 0.15 };
            if roll < create_bias || live.is_empty() {
                let size = rng.gen_range(256..=spec.max_file_size) as u32;
                let path = format!("/t{c}/doc{serial:05}");
                serial += 1;
                let create = b.push(c, think, vec![dir], TraceOp::Create(path.clone()));
                let write = b.push(
                    c,
                    0,
                    vec![create],
                    TraceOp::Write {
                        path: path.clone(),
                        offset: 0,
                        len: size,
                        seed: spec.seed ^ serial,
                    },
                );
                b.note_write(&path, write);
                live.push(path);
            } else if roll < create_bias + 0.15 {
                let victim = rng.gen_range(0..live.len());
                let path = live.swap_remove(victim);
                let deps = b.after_write(&path);
                let id = b.push(c, think, deps, TraceOp::Unlink(path.clone()));
                b.note_write(&path, id);
            } else if roll < create_bias + 0.35 {
                let target = rng.gen_range(0..live.len());
                let path = live[target].clone();
                let size = rng.gen_range(256..=spec.max_file_size) as u32;
                serial += 1;
                let deps = b.after_write(&path);
                let trunc = b.push(c, think, deps, TraceOp::Truncate { path: path.clone(), size: 0 });
                let write = b.push(
                    c,
                    0,
                    vec![trunc],
                    TraceOp::Write {
                        path: path.clone(),
                        offset: 0,
                        len: size,
                        seed: spec.seed ^ serial,
                    },
                );
                b.note_write(&path, write);
            } else {
                let target = rng.gen_range(0..live.len());
                let path = live[target].clone();
                let deps = b.after_write(&path);
                b.push(
                    c,
                    think,
                    deps,
                    TraceOp::Read {
                        path,
                        offset: 0,
                        len: spec.max_file_size as u32,
                    },
                );
            }
        }
        b.push(c, 0, vec![], TraceOp::Sync);
    }
    b.finish(spec.clients)
}

/// A mail server: tenant 0 is the delivery daemon appending messages to
/// per-user mailboxes; every other tenant is one user's reader, which
/// reads and then expunges its own messages. Each read carries a
/// cross-tenant happens-before edge on the delivery that produced the
/// message — the fan-out shape `fs-bench`-style schedulers exploit.
pub fn mail_server(spec: &GenSpec) -> Trace {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xA11);
    let mut b = Builder::new();
    let readers = spec.clients.saturating_sub(1).max(1);
    let root = b.push(0, 0, vec![], TraceOp::Mkdir("/mail".into()));
    let boxes: Vec<u64> = (0..readers)
        .map(|u| b.push(0, 0, vec![root], TraceOp::Mkdir(format!("/mail/user{u}"))))
        .collect();

    // Deliveries by tenant 0, round-robin over users.
    let mut delivered: Vec<Vec<(String, u64)>> = vec![Vec::new(); readers];
    for m in 0..spec.ops_per_client {
        let user = m % readers;
        let size = rng.gen_range(256..=spec.max_file_size) as u32;
        let path = format!("/mail/user{user}/m{m:05}");
        let create = b.push(0, rng.gen_range(100_000..=400_000), vec![boxes[user]], TraceOp::Create(path.clone()));
        let write = b.push(
            0,
            0,
            vec![create],
            TraceOp::Write {
                path: path.clone(),
                offset: 0,
                len: size,
                seed: spec.seed ^ m as u64,
            },
        );
        b.note_write(&path, write);
        delivered[user].push((path, write));
    }

    // Readers (tenants 1..): read their own messages, each with an
    // explicit edge on its delivery, then expunge two of every three —
    // the kept third is the archive the equivalence suite compares.
    if spec.clients > 1 {
        for (user, msgs) in delivered.iter().enumerate() {
            let tenant = user + 1;
            for (m, (path, write_id)) in msgs.iter().enumerate() {
                b.push(
                    tenant,
                    rng.gen_range(200_000..=600_000),
                    vec![*write_id],
                    TraceOp::Read {
                        path: path.clone(),
                        offset: 0,
                        len: spec.max_file_size as u32,
                    },
                );
                if m % 3 != 0 {
                    let unlink = b.push(tenant, 0, vec![*write_id], TraceOp::Unlink(path.clone()));
                    b.note_write(path, unlink);
                }
            }
        }
    }
    b.finish(spec.clients)
}

/// A build farm: tenant 0 seeds shared headers, every tenant compiles
/// its own object files (each compile reads headers — cross-tenant
/// fan-out), and tenant 0 links everything into one binary (fan-in on
/// every object write).
pub fn build_farm(spec: &GenSpec) -> Trace {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xB01D);
    let mut b = Builder::new();
    let src = b.push(0, 0, vec![], TraceOp::Mkdir("/src".into()));
    let obj = b.push(0, 0, vec![], TraceOp::Mkdir("/obj".into()));
    let nheaders = spec.working_set.clamp(2, 16);
    let mut headers = Vec::new();
    for h in 0..nheaders {
        let path = format!("/src/h{h:02}.h");
        let create = b.push(0, 0, vec![src], TraceOp::Create(path.clone()));
        let write = b.push(
            0,
            0,
            vec![create],
            TraceOp::Write {
                path: path.clone(),
                offset: 0,
                len: rng.gen_range(256..=spec.max_file_size) as u32,
                seed: spec.seed ^ h as u64,
            },
        );
        b.note_write(&path, write);
        headers.push(write);
    }

    let mut objects = Vec::new();
    for c in 0..spec.clients {
        for u in 0..spec.ops_per_client {
            // A compile: read a header (depending on its write — the
            // cross-tenant fan-out edge), emit one object.
            let think = rng.gen_range(100_000..=300_000u64);
            let h = rng.gen_range(0..nheaders);
            b.push(
                c,
                think,
                vec![headers[h]],
                TraceOp::Read {
                    path: format!("/src/h{h:02}.h"),
                    offset: 0,
                    len: spec.max_file_size as u32,
                },
            );
            let path = format!("/obj/o{c}_{u:04}.o");
            let create = b.push(c, 0, vec![obj], TraceOp::Create(path.clone()));
            let write = b.push(
                c,
                0,
                vec![create],
                TraceOp::Write {
                    path: path.clone(),
                    offset: 0,
                    len: rng.gen_range(512..=spec.max_file_size) as u32,
                    seed: spec.seed ^ (c as u64) << 16 ^ u as u64,
                },
            );
            b.note_write(&path, write);
            objects.push(write);
        }
    }

    // The link step: one big write depending on every object (fan-in).
    let link_create = b.push(0, 0, vec![obj], TraceOp::Create("/obj/app".into()));
    let mut link_deps = objects;
    link_deps.push(link_create);
    let link = b.push(
        0,
        0,
        link_deps,
        TraceOp::Write {
            path: "/obj/app".into(),
            offset: 0,
            len: (spec.max_file_size * 4) as u32,
            seed: spec.seed ^ 0x11AC,
        },
    );
    b.note_write("/obj/app", link);
    b.push(0, 0, vec![link], TraceOp::Sync);
    b.finish(spec.clients)
}

/// Zipf-skewed hot-file churn: tenant 0 is a latency-class probe doing
/// small paced reads across the whole hot set; every other tenant
/// floods its *own* ranked file set with zero-think whole-file
/// overwrites, skewed toward its hottest files (popularity of rank `r`
/// proportional to `1/(r+1)`).
///
/// Flooder file sets are disjoint, so each flooder's only
/// happens-before chain is its own program order — flooders stay
/// permanently backlogged and never stall on each other, which is what
/// makes the trace a clean proportional-share probe (a cross-tenant
/// write chain would cap a high-weight tenant at chain speed). Probe
/// reads carry an edge on the target file's last write, keeping the
/// trace determinate. Tenant 0 creates every file up front, so
/// [`Trace::filter_client`]`(0)` is a self-contained solo baseline.
pub fn zipf_churn(spec: &GenSpec) -> Trace {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x21FF);
    let mut b = Builder::new();
    let dir = b.push(0, 0, vec![], TraceOp::Mkdir("/hot".into()));
    let flooders = spec.clients.saturating_sub(1).max(1);
    let nfiles = spec.working_set.max(2);
    // Zipf(1) cumulative mass over ranks.
    let mass: Vec<f64> = (0..nfiles).map(|r| 1.0 / (r as f64 + 1.0)).collect();
    let total: f64 = mass.iter().sum();
    let mut paths: Vec<Vec<String>> = Vec::new();
    for f in 0..flooders {
        let mut set = Vec::new();
        for r in 0..nfiles {
            let path = format!("/hot/c{f}_f{r:03}");
            let create = b.push(0, 0, vec![dir], TraceOp::Create(path.clone()));
            let write = b.push(
                0,
                0,
                vec![create],
                TraceOp::Write {
                    path: path.clone(),
                    offset: 0,
                    len: spec.max_file_size as u32,
                    seed: spec.seed ^ (f as u64) << 10 ^ r as u64,
                },
            );
            b.note_write(&path, write);
            set.push(path);
        }
        paths.push(set);
    }
    let pick_zipf = move |rng: &mut StdRng| {
        let mut roll: f64 = rng.gen::<f64>() * total;
        for (r, m) in mass.iter().enumerate() {
            roll -= m;
            if roll <= 0.0 {
                return r;
            }
        }
        nfiles - 1
    };

    for u in 0..spec.ops_per_client {
        // The probe tenant: one small paced read per round, anywhere in
        // the hot set.
        let set = rng.gen_range(0..flooders);
        let path = paths[set][pick_zipf(&mut rng)].clone();
        let deps = b.after_write(&path);
        b.push(
            0,
            200_000,
            deps,
            TraceOp::Read {
                path,
                offset: 0,
                len: 1024.min(spec.max_file_size as u32),
            },
        );
        // The flooders: zero-think whole-file overwrites of their own
        // ranked set.
        for c in 1..spec.clients {
            let path = paths[c - 1][pick_zipf(&mut rng)].clone();
            let deps = b.after_write(&path);
            let write = b.push(
                c,
                0,
                deps,
                TraceOp::Write {
                    path: path.clone(),
                    offset: 0,
                    len: spec.max_file_size as u32,
                    seed: spec.seed ^ (c as u64) << 20 ^ u as u64,
                },
            );
            b.note_write(&path, write);
        }
    }
    let mut trace = b.finish(spec.clients);
    trace.qos = QosSpec::uniform(spec.clients).with_class(0, QosClass::Latency);
    trace
}

/// The generator catalogue, by stable name (bench sweeps iterate this).
pub const TRACE_NAMES: [&str; 4] = ["office", "mail", "build", "zipf"];

/// Generates the named trace, or `None` for an unknown name.
pub fn by_name(name: &str, spec: &GenSpec) -> Option<Trace> {
    match name {
        "office" => Some(office(spec)),
        "mail" => Some(mail_server(spec)),
        "build" => Some(build_farm(spec)),
        "zipf" => Some(zipf_churn(spec)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generators_emit_valid_round_tripping_traces() {
        let spec = GenSpec::small(3);
        for name in TRACE_NAMES {
            let trace = by_name(name, &spec).unwrap();
            assert!(!trace.records.is_empty(), "{name}: empty trace");
            assert_eq!(trace.clients, 3, "{name}");
            // Valid graph (build proves acyclicity) and exact text
            // round-trip.
            crate::graph::schedule(&trace).unwrap_or_else(|e| panic!("{name}: {e}"));
            let reparsed = Trace::parse(&trace.to_text()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(reparsed, trace, "{name}: round-trip changed the trace");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let spec = GenSpec::small(2);
        for name in TRACE_NAMES {
            assert_eq!(
                by_name(name, &spec).unwrap(),
                by_name(name, &spec).unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn mail_and_build_have_cross_tenant_edges() {
        let spec = GenSpec::small(3);
        for name in ["mail", "build"] {
            let trace = by_name(name, &spec).unwrap();
            let client_of: std::collections::BTreeMap<u64, usize> =
                trace.records.iter().map(|r| (r.id, r.client)).collect();
            let cross = trace
                .records
                .iter()
                .flat_map(|r| r.deps.iter().map(|d| (r.client, client_of[d])))
                .filter(|(a, b)| a != b)
                .count();
            assert!(cross > 0, "{name}: no cross-tenant happens-before edges");
        }
    }

    #[test]
    fn zipf_marks_the_probe_tenant_latency_class() {
        let trace = zipf_churn(&GenSpec::small(3));
        assert_eq!(trace.qos.tenant(0).class, QosClass::Latency);
        assert_eq!(trace.qos.tenant(1).class, QosClass::Bulk);
    }
}
