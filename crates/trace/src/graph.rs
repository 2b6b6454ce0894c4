//! The happens-before dependency graph of a trace.
//!
//! Nodes are record positions; edges are the explicit `after` lists
//! plus one implicit program-order edge from each client's previous
//! record. A Kahn traversal yields the *maximal parallel process sets*
//! (following `fs-bench`'s trace scheduler): every record in one set is
//! mutually independent, so a replay may dispatch a whole set in any
//! order — which is exactly the freedom a QoS policy arbitrates.

use std::collections::{BTreeMap, BTreeSet};

use crate::format::{Trace, TraceError};

/// The dependency graph over one trace, in record positions.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Record id → position, for edge lookups.
    pub index_of: BTreeMap<u64, usize>,
    /// Predecessors of each record (explicit deps + program order).
    pub preds: Vec<Vec<usize>>,
    /// Successors of each record.
    pub succs: Vec<Vec<usize>>,
    /// Unfinished-predecessor count, consumed by the replay scheduler.
    indegree: Vec<usize>,
    /// Records with no unfinished predecessor that have not completed:
    /// kept in step by [`DepGraph::complete`], so a dispatch costs the
    /// size of the set (at most one record per client), not a scan of
    /// the trace.
    ready: BTreeSet<usize>,
    /// Records not yet marked complete.
    remaining: usize,
}

impl DepGraph {
    /// Builds the graph and proves it acyclic; a cycle — whether through
    /// explicit edges alone or through their interaction with program
    /// order — is a [`TraceError::CyclicDependency`].
    pub fn build(trace: &Trace) -> Result<DepGraph, TraceError> {
        let n = trace.records.len();
        let index_of: BTreeMap<u64, usize> = trace
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id, i))
            .collect();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last_of_client: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, r) in trace.records.iter().enumerate() {
            for dep in &r.deps {
                preds[i].push(index_of[dep]);
            }
            if let Some(&prev) = last_of_client.get(&r.client) {
                if !preds[i].contains(&prev) {
                    preds[i].push(prev);
                }
            }
            last_of_client.insert(r.client, i);
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p].push(i);
            }
        }
        let indegree: Vec<usize> = preds.iter().map(Vec::len).collect();

        // Kahn's algorithm: if the peel does not consume every record,
        // what is left lies on a cycle.
        let ready: BTreeSet<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut degree = indegree.clone();
        let mut frontier: Vec<usize> = ready.iter().copied().collect();
        let mut peeled = 0usize;
        while let Some(i) = frontier.pop() {
            peeled += 1;
            for &s in &succs[i] {
                degree[s] -= 1;
                if degree[s] == 0 {
                    frontier.push(s);
                }
            }
        }
        if peeled < n {
            let stuck = (0..n).find(|&i| degree[i] > 0).expect("a stuck record");
            return Err(TraceError::CyclicDependency {
                id: trace.records[stuck].id,
            });
        }

        Ok(DepGraph {
            index_of,
            preds,
            succs,
            indegree,
            ready,
            remaining: n,
        })
    }

    /// Records whose predecessors have all completed and that have not
    /// themselves completed: the current maximal parallel process set,
    /// in ascending record position.
    pub fn available_set(&self) -> Vec<usize> {
        self.ready.iter().copied().collect()
    }

    /// Marks record `i` complete, unblocking its successors.
    pub fn complete(&mut self, i: usize) {
        debug_assert_eq!(self.indegree[i], 0, "completing a blocked record");
        // A completed record never reappears in the available set.
        self.indegree[i] = usize::MAX;
        self.ready.remove(&i);
        self.remaining -= 1;
        for &s in &self.succs[i] {
            if self.indegree[s] != usize::MAX {
                self.indegree[s] -= 1;
                if self.indegree[s] == 0 {
                    self.ready.insert(s);
                }
            }
        }
    }

    /// Records not yet completed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The Kahn levels of the graph: level `k` holds every record whose
    /// longest dependency chain has `k` predecessors. Each level is one
    /// maximal parallel process set of a fresh replay.
    pub fn levels(trace: &Trace) -> Result<Vec<Vec<usize>>, TraceError> {
        let mut graph = DepGraph::build(trace)?;
        let mut levels = Vec::new();
        while graph.remaining() > 0 {
            let level = graph.available_set();
            debug_assert!(!level.is_empty(), "acyclic graph with empty level");
            for &i in &level {
                graph.complete(i);
            }
            levels.push(level);
        }
        Ok(levels)
    }
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
        let levels = DepGraph::levels(&diamond()).unwrap();
        assert_eq!(levels, vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn available_set_tracks_completions() {
        let trace = diamond();
        let mut graph = DepGraph::build(&trace).unwrap();
        assert_eq!(graph.available_set(), vec![0]);
        graph.complete(0);
        assert_eq!(graph.available_set(), vec![1, 2]);
        graph.complete(2);
        assert_eq!(graph.available_set(), vec![1]);
        graph.complete(1);
        assert_eq!(graph.available_set(), vec![3]);
        graph.complete(3);
        assert_eq!(graph.remaining(), 0);
    }

    /// What `available_set` used to compute, kept as the reference the
    /// incremental ready set is held to: scan every record for a zero
    /// unfinished-predecessor count.
    fn available_by_scan(graph: &DepGraph) -> Vec<usize> {
        (0..graph.indegree.len())
            .filter(|&i| graph.indegree[i] == 0)
            .collect()
    }

    /// Completes every record of `trace`, taking the `picks`-chosen
    /// member of each available set, and holds the ready set to the
    /// scan before the first and after every `complete`.
    fn drain_against_scan(trace: &Trace, picks: &[usize]) {
        let mut graph = DepGraph::build(trace).unwrap();
        assert_eq!(graph.available_set(), available_by_scan(&graph));
        let mut step = 0;
        while graph.remaining() > 0 {
            let available = graph.available_set();
            let pick = picks[step % picks.len()] % available.len();
            graph.complete(available[pick]);
            assert_eq!(graph.available_set(), available_by_scan(&graph));
            step += 1;
        }
        assert_eq!(step, trace.records.len());
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
                        op: workload::trace::TraceOp::Sync,
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
        let levels = DepGraph::levels(&trace).unwrap();
        assert_eq!(levels, vec![vec![0], vec![1]]);
    }
}
