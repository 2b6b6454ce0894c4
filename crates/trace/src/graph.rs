//! The happens-before dependency graph of a trace.
//!
//! Nodes are record positions; edges are the explicit `after` lists
//! plus one implicit program-order edge from each client's previous
//! record. [`schedule`] maps record ids to positions and hands the
//! graph to the host loop as an [`engine::Schedule`], which adds
//! program order and keeps the ready set. Its Kahn peel, which is also
//! the cycle check, yields the *maximal parallel process sets*
//! ([`levels`], following `fs-bench`'s trace scheduler): every record
//! in one set is mutually independent, so a replay may dispatch a whole
//! set in any order — which is exactly the freedom a QoS policy
//! arbitrates.

use std::collections::BTreeMap;

use engine::Schedule;

use crate::format::{Trace, TraceError};

/// The dispatch schedule of `trace`. Record ids must be unique and
/// every edge's target must exist ([`Trace::validate`] checks both
/// first); a cycle — through explicit edges alone or through their
/// interaction with program order — is a
/// [`TraceError::CyclicDependency`] naming the first record it blocks.
pub fn schedule(trace: &Trace) -> Result<Schedule, TraceError> {
    let index_of: BTreeMap<u64, usize> = trace
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id, i))
        .collect();
    let schedule = Schedule::new(trace.records.iter().map(|r| {
        let deps = r.deps.iter().map(|dep| index_of[dep]).collect();
        (r.client, r.think_ns, deps)
    }));
    match schedule.levels(|_| {}) {
        Some(i) => Err(TraceError::CyclicDependency {
            id: trace.records[i].id,
        }),
        None => Ok(schedule),
    }
}

/// The Kahn levels of the graph: level `k` holds every record whose
/// longest dependency chain has `k` predecessors. Each level is one
/// maximal parallel process set of a fresh replay.
pub fn levels(trace: &Trace) -> Result<Vec<Vec<usize>>, TraceError> {
    let mut levels = Vec::new();
    schedule(trace)?.levels(|level| levels.push(level.to_vec()));
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    fn diamond() -> Trace {
        // Four clients so program order adds no extra edges: a diamond
        // 0 -> {1, 2} -> 3.
        Trace::parse(
            "lfs-trace v1\nclients 4\n\
             op 0 c0 t0 after - sync\n\
             op 1 c1 t0 after 0 sync\n\
             op 2 c2 t0 after 0 sync\n\
             op 3 c3 t0 after 1,2 sync\n",
        )
        .unwrap()
    }

    #[test]
    fn levels_are_maximal_parallel_sets() {
        let levels = levels(&diamond()).unwrap();
        assert_eq!(levels, vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn available_set_tracks_completions() {
        let trace = diamond();
        let mut graph = schedule(&trace).unwrap();
        assert_eq!(graph.available_set(), vec![0]);
        graph.complete(0);
        assert_eq!(graph.available_set(), vec![1, 2]);
        graph.complete(2);
        assert_eq!(graph.available_set(), vec![1]);
        graph.complete(1);
        assert_eq!(graph.available_set(), vec![3]);
        graph.complete(3);
        assert!(graph.available_set().is_empty());
    }

    /// The reference the incremental ready set is held to: scan every
    /// record for one not yet `done` whose predecessors all are.
    fn available_by_scan(graph: &Schedule, done: &[bool]) -> Vec<usize> {
        (0..done.len())
            .filter(|&i| !done[i] && graph.preds(i).iter().all(|&p| done[p]))
            .collect()
    }

    /// Completes every record of `trace`, taking the `picks`-chosen
    /// member of each available set, and holds the ready set to the
    /// scan before the first and after every `complete`.
    fn drain_against_scan(trace: &Trace, picks: &[usize]) {
        let mut graph = schedule(trace).unwrap();
        let mut done = vec![false; trace.records.len()];
        assert_eq!(graph.available_set(), available_by_scan(&graph, &done));
        for step in 0..trace.records.len() {
            let available = graph.available_set();
            let pick = available[picks[step % picks.len()] % available.len()];
            graph.complete(pick);
            done[pick] = true;
            assert_eq!(graph.available_set(), available_by_scan(&graph, &done));
        }
        assert!(graph.available_set().is_empty());
    }

    #[test]
    fn ready_set_equals_the_scan_on_every_generator() {
        let spec = crate::GenSpec::small(3);
        for name in crate::TRACE_NAMES {
            let trace = crate::by_name(name, &spec).unwrap();
            // Lowest first, highest first, and a wandering choice.
            for picks in [&[0][..], &[usize::MAX], &[3, 0, 7, 1, 2]] {
                drain_against_scan(&trace, picks);
            }
        }
    }

    proptest! {
        /// Random DAGs: every explicit edge points at an earlier
        /// record, so with program order the graph stays acyclic.
        #[test]
        fn ready_set_equals_the_scan_on_random_dags(
            shape in collection::vec((0usize..4, collection::vec(any::<usize>(), 0..4)), 1..48),
            picks in collection::vec(any::<usize>(), 1..8),
        ) {
            let records = shape
                .iter()
                .enumerate()
                .map(|(i, (client, edges))| {
                    // Record 0 has no earlier record to point at.
                    let mut deps: Vec<u64> =
                        edges.iter().filter_map(|e| e.checked_rem(i)).map(|d| d as u64).collect();
                    deps.sort_unstable();
                    deps.dedup();
                    crate::TraceRecord {
                        id: i as u64,
                        client: *client,
                        think_ns: 0,
                        deps,
                        op: crate::TraceOp::Sync,
                    }
                })
                .collect();
            let trace = Trace {
                clients: 4,
                qos: engine::QosSpec::uniform(4),
                records,
            };
            trace.validate().unwrap();
            drain_against_scan(&trace, &picks);
        }
    }

    #[test]
    fn program_order_serializes_a_client() {
        // Two records of one client with no explicit edges still form
        // two levels.
        let trace = Trace::parse(
            "lfs-trace v1\nclients 1\nop 0 c0 t0 after - sync\nop 1 c0 t0 after - sync\n",
        )
        .unwrap();
        let levels = levels(&trace).unwrap();
        assert_eq!(levels, vec![vec![0], vec![1]]);
    }
}
