//! Table-driven strict hierarchical forwarding.
//!
//! [`crate::forward::hierarchical_path`] computes each leg with a global
//! BFS — fine for measurement, but a real node holds a **routing table**
//! and makes a per-packet decision from it. This module builds exactly the
//! table §2.1 describes for every node:
//!
//! * one entry per level-0 member of the node's level-1 cluster, and
//! * one entry per *sibling member cluster* of each ancestor cluster
//!   (keyed by the sibling's head),
//!
//! each entry holding the next hop toward the nearest level-0 node of the
//! target cluster. Forwarding then uses only the destination's
//! hierarchical address and the local table, and every entry follows a
//! BFS gradient toward its target set. Level-k legs stay inside the
//! common parent cluster, so they strictly decrease the distance to the
//! set. A level-0 leg follows an unconfined shortest path, which may step
//! outside the level-1 cluster; there a coarser entry can send the packet
//! back, and the walk can cycle. The walkers cut such cycles and report
//! no route: next hops are a pure function of (node, target), so a walk
//! that revisits a node never delivers. [`NextHopTable::route_hops_memo`]
//! stops at the first revisit; the memo-less walkers stop once a walk
//! exceeds `n - 1` hops, the longest path without a revisit.

use crate::forward::PathOutcome;
use chlm_cluster::address::AddressBook;
use chlm_cluster::Hierarchy;
use chlm_graph::fasthash::FastMap;
use chlm_graph::traversal::{bfs_distances, UNREACHABLE};
use chlm_graph::{Graph, NodeIdx};
use std::collections::hash_map::Entry;
use std::ops::Range;

/// Suffix-memo value of a node on the walk in progress. Meeting it again
/// means the walk revisited a node, so it cycles. Never outlives a call.
const ON_PATH: u32 = u32::MAX;
/// Suffix-memo value of a node whose walk to the target cannot deliver.
/// Real hop counts stay below `n`, so neither sentinel collides.
const NO_ROUTE: u32 = u32::MAX - 1;

/// All nodes' routing tables for one hierarchy snapshot.
///
/// Stored as one CSR array of `(cluster head, next hop)` entries, cut
/// into one segment per (node, level): `u`'s level-k entries are
/// `entries[segment_start[i] .. segment_start[i + 1]]` with
/// `i = u · depth + k`, sorted by head. Level-0 entries are keyed by the
/// destination node itself. [`NextHopTable::rebuild`] refills every
/// buffer in place, so a table kept across ticks stops allocating once
/// its buffers have grown to the network's size.
#[derive(Debug, Clone, Default)]
pub struct NextHopTable {
    segment_start: Vec<u32>,
    entries: Vec<(NodeIdx, NodeIdx)>,
    /// Every node's hierarchical address, for leg-target tests.
    book: AddressBook,
    scratch: BuildScratch,
}

/// Build buffers reused across clusters and across rebuilds. Between
/// BFSes every `dist` slot is `UNREACHABLE`; each BFS restores that
/// through its own queue, which lists exactly the nodes it touched.
#[derive(Debug, Clone, Default)]
struct BuildScratch {
    dist: Vec<u32>,
    queue: Vec<NodeIdx>,
    /// Level-0 nodes grouped by their level-k head: the cluster headed by
    /// `H` is `group_nodes[group_start[H] .. group_start[H + 1]]`,
    /// ascending (empty unless `H` is a level-k node).
    group_start: Vec<u32>,
    group_nodes: Vec<NodeIdx>,
    /// `(segment, head, next hop)` in generation order — heads ascending
    /// within each level — so every segment comes out sorted.
    staged: Vec<(usize, NodeIdx, NodeIdx)>,
    /// Scratch for [`AddressBook::capture_into`].
    address_scratch: Vec<NodeIdx>,
}

impl NextHopTable {
    /// Build every node's table.
    pub fn build(h: &Hierarchy) -> Self {
        let mut table = NextHopTable::default();
        table.rebuild(h);
        table
    }

    /// Rebuild every node's table for `h`, reusing this table's buffers.
    ///
    /// Cost per cluster is proportional to the cluster and its parent,
    /// not to `n`: a level-0 destination's BFS stops once it has reached
    /// every member of its level-1 cluster, a level-k cluster's BFS never
    /// leaves its parent cluster, and entries are installed only at the
    /// nodes a BFS reached. Under `HopMetric::HierRouting` this runs once
    /// per tick, on the simulation's inner loop.
    pub fn rebuild(&mut self, h: &Hierarchy) {
        let n = h.node_count();
        let depth = h.depth();
        let g0 = &h.levels[0].graph;
        self.book.capture_into(h, &mut self.scratch.address_scratch);
        let book = &self.book;
        let addr = |v: NodeIdx, k: usize| book.row(v)[k];
        let s = &mut self.scratch;
        s.dist.resize(n, UNREACHABLE);
        s.staged.clear();
        for k in 1..depth {
            counting_sort(
                n,
                n,
                |v| addr(v as NodeIdx, k) as usize,
                |v| v as NodeIdx,
                &mut s.group_start,
                &mut s.group_nodes,
            );
            if k == 1 {
                // Level-0 entries: routes to every member of the node's
                // level-1 cluster (complete intra-cluster knowledge).
                for head in 0..n {
                    let (lo, hi) = (
                        s.group_start[head] as usize,
                        s.group_start[head + 1] as usize,
                    );
                    for i in lo..hi {
                        let in_cluster = |v: NodeIdx| addr(v, 1) as usize == head;
                        s.stage_level0(g0, depth, lo..hi, s.group_nodes[i], in_cluster);
                    }
                }
            }
            // Level-k entries: for every cluster (head H), gradient next
            // hops toward its member set, installed at the nodes that need
            // an entry for it (members of the parent cluster outside H's).
            for head in 0..n {
                let members = s.group_start[head] as usize..s.group_start[head + 1] as usize;
                if members.is_empty() {
                    continue;
                }
                // The parent of cluster (k, H) is the level-(k+1) address
                // component every member shares: H's vote at level k, not
                // H's own address chain (a head need not be a member of
                // its own cluster; cf. the paper's node 68). The top level
                // has no parent and routes over the whole graph.
                let parent = (k + 1 < depth).then(|| addr(s.group_nodes[members.start], k + 1));
                let in_scope = |v: NodeIdx| parent.is_none_or(|p| addr(v, k + 1) == p);
                s.stage_cluster(g0, depth, members, k, head as NodeIdx, in_scope);
            }
        }
        let staged = &s.staged;
        counting_sort(
            staged.len(),
            n * depth,
            |i| staged[i].0,
            |i| (staged[i].1, staged[i].2),
            &mut self.segment_start,
            &mut self.entries,
        );
    }

    /// Number of entries in `u`'s table.
    pub fn entries(&self, u: NodeIdx) -> usize {
        let depth = self.book.depth();
        let lo = self.segment_start[u as usize * depth];
        let hi = self.segment_start[(u as usize + 1) * depth];
        (hi - lo) as usize
    }

    /// `u`'s level-`k` entries, sorted by head.
    fn segment(&self, u: NodeIdx, k: usize) -> &[(NodeIdx, NodeIdx)] {
        let i = u as usize * self.book.depth() + k;
        &self.entries[self.segment_start[i] as usize..self.segment_start[i + 1] as usize]
    }

    /// A segment holds one level-1 cluster's members or one parent's
    /// sibling clusters, a handful of entries, where a linear scan beats
    /// a binary search.
    fn lookup(&self, u: NodeIdx, k: usize, head: NodeIdx) -> Option<NodeIdx> {
        self.segment(u, k).iter().find(|e| e.0 == head).map(|e| e.1)
    }

    /// One forwarding decision: the next hop from `cur` toward `t` and the
    /// lowest level at which their addresses agree. `None` when `cur` has
    /// no table entry for the leg (no route).
    fn step_toward(&self, cur: NodeIdx, t: NodeIdx) -> Option<(NodeIdx, usize)> {
        let addr_c = self.book.row(cur);
        let addr_t = self.book.row(t);
        let common = addr_c.iter().zip(addr_t).position(|(a, b)| a == b)?;
        debug_assert!(common >= 1);
        // The leg targets t's level-(common-1) cluster; at level 0 that
        // is t itself (`addr_t[0] == t`).
        let next = self.lookup(cur, common - 1, addr_t[common - 1])?;
        Some((next, common))
    }

    /// Hop count of the table-driven route from `s` to `t` — the walk
    /// [`NextHopTable::route`] performs, minus the shortest-path BFS that
    /// call runs only for stretch accounting. `Some(0)` for `s == t`;
    /// `None` when the tables cannot deliver. `O(hops)` per pair, so this
    /// is the form hot pricing paths use.
    pub fn route_hops(&self, s: NodeIdx, t: NodeIdx) -> Option<u32> {
        let mut cur = s;
        let mut hops = 0usize;
        let n = self.book.node_count();
        while cur != t {
            let (next, _) = self.step_toward(cur, t)?;
            cur = next;
            hops += 1;
            if hops >= n {
                // More than n - 1 hops revisited a node: a level-0 leg
                // left its cluster and the walk cycles (see the module
                // docs).
                return None;
            }
        }
        Some(hops as u32)
    }

    /// [`NextHopTable::route_hops`] with a caller-provided suffix memo:
    /// every node on the walked path records its outcome toward `t` in
    /// `memo` (the remaining hop count, or "no route"), and a walk that
    /// reaches a memoized node stops there.
    ///
    /// Routing is deterministic per (node, target), so walks toward the
    /// same target converge and share suffixes — pricing a batch of pairs
    /// against few distinct targets (the handoff-ledger shape: many
    /// transfers into one new host) costs amortized O(1) per pair instead
    /// of O(hops). Unroutable walks are memoized too: a walk that cycles
    /// is cut at its first revisited node, found by the same probe that
    /// consults the memo, and a later walk into any node of a failed path
    /// answers `None` after one probe. Returns exactly what `route_hops`
    /// returns; the memo only skips re-walking.
    ///
    /// The memo is only valid for this table — callers must clear it
    /// whenever the table is rebuilt. `path_scratch` is walk scratch,
    /// reused across calls.
    pub fn route_hops_memo(
        &self,
        s: NodeIdx,
        t: NodeIdx,
        memo: &mut FastMap<(NodeIdx, NodeIdx), u32>,
        path_scratch: &mut Vec<NodeIdx>,
    ) -> Option<u32> {
        if s == t {
            return Some(0);
        }
        path_scratch.clear();
        let mut cur = s;
        let tail = loop {
            if cur == t {
                break Some(0);
            }
            match memo.entry((cur, t)) {
                // ON_PATH: the walk revisited `cur` and cycles (see the
                // module docs).
                Entry::Occupied(e) => match *e.get() {
                    ON_PATH | NO_ROUTE => break None,
                    rest => break Some(rest),
                },
                Entry::Vacant(e) => {
                    e.insert(ON_PATH);
                }
            }
            path_scratch.push(cur);
            match self.step_toward(cur, t) {
                Some((next, _)) => cur = next,
                None => break None,
            }
        };
        // Overwrite every ON_PATH this walk left with its outcome.
        let walked = path_scratch.len() as u32;
        for (i, &node) in path_scratch.iter().enumerate() {
            let outcome = tail.map_or(NO_ROUTE, |rest| rest + walked - i as u32);
            memo.insert((node, t), outcome);
        }
        tail.map(|rest| rest + walked)
    }

    /// Route a packet from `s` to `t` using only per-node tables and `t`'s
    /// hierarchical address. Returns `None` when no route exists.
    pub fn route(&self, h: &Hierarchy, s: NodeIdx, t: NodeIdx) -> Option<PathOutcome> {
        let g0 = &h.levels[0].graph;
        let shortest = {
            if s == t {
                0
            } else {
                let d = bfs_distances(g0, s);
                if d[t as usize] == UNREACHABLE {
                    return None;
                }
                d[t as usize]
            }
        };
        let mut path = vec![s];
        let mut cur = s;
        let mut legs = 0u32;
        let mut last_common = usize::MAX;
        let n = g0.node_count();
        while cur != t {
            let (next, common) = self.step_toward(cur, t)?;
            if common < last_common {
                legs += 1;
                last_common = common;
            }
            path.push(next);
            cur = next;
            if path.len() > n {
                // More than n - 1 hops revisited a node: a level-0 leg
                // left its cluster and the walk cycles (see the module
                // docs).
                return None;
            }
        }
        let hops = (path.len() - 1) as u32;
        Some(PathOutcome {
            stretch: if shortest == 0 {
                1.0
            } else {
                hops as f64 / shortest as f64
            },
            path,
            hops,
            shortest,
            legs,
        })
    }
}

impl BuildScratch {
    /// Stage `u → (0, dst)` at every other member `u` of `dst`'s level-1
    /// cluster (`group_nodes[members]`) that `dst` can reach.
    ///
    /// The BFS from `dst` stops as soon as it has discovered the last
    /// member: every node closer to `dst` than that member is settled by
    /// then, and a member's first hop only reads nodes one step closer
    /// than itself. A still-undiscovered neighbour reads `UNREACHABLE`,
    /// which never equals `du - 1`. If some member is unreachable, the BFS
    /// runs out the whole component.
    fn stage_level0(
        &mut self,
        g0: &Graph,
        depth: usize,
        members: Range<usize>,
        dst: NodeIdx,
        in_cluster: impl Fn(NodeIdx) -> bool,
    ) {
        let want = members.len();
        if want < 2 {
            return;
        }
        self.dist[dst as usize] = 0;
        self.queue.push(dst);
        let mut found = 1;
        let mut cursor = 0;
        'bfs: while cursor < self.queue.len() {
            let u = self.queue[cursor];
            cursor += 1;
            let du = self.dist[u as usize];
            for &v in g0.neighbors(u) {
                if self.dist[v as usize] == UNREACHABLE {
                    self.dist[v as usize] = du + 1;
                    self.queue.push(v);
                    if in_cluster(v) {
                        found += 1;
                        if found == want {
                            break 'bfs;
                        }
                    }
                }
            }
        }
        for &u in &self.group_nodes[members] {
            let du = self.dist[u as usize];
            if u == dst || du == UNREACHABLE {
                continue;
            }
            // First hop from u toward dst: the first neighbour one step
            // closer.
            let hop = g0
                .neighbors(u)
                .iter()
                .copied()
                .find(|&w| self.dist[w as usize] == du - 1);
            if let Some(hop) = hop {
                self.staged.push((u as usize * depth, dst, hop));
            }
        }
        self.reset();
    }

    /// Multi-source BFS from the cluster's members (`group_nodes[members]`,
    /// ascending — the seed order decides which neighbour discovers a
    /// node first, hence its next hop), CONFINED to `in_scope`: a leg
    /// toward a sibling cluster must not leave the common parent, or a
    /// node outside it would re-target a coarser cluster and the packet
    /// could oscillate between branches (strict hierarchical routing's
    /// classic pitfall). Every node reached outside the cluster keeps a
    /// level-k entry `head → the node that discovered it`.
    fn stage_cluster(
        &mut self,
        g0: &Graph,
        depth: usize,
        members: Range<usize>,
        k: usize,
        head: NodeIdx,
        in_scope: impl Fn(NodeIdx) -> bool,
    ) {
        for &m in &self.group_nodes[members] {
            self.dist[m as usize] = 0;
            self.queue.push(m);
        }
        let mut cursor = 0;
        while cursor < self.queue.len() {
            let u = self.queue[cursor];
            cursor += 1;
            let du = self.dist[u as usize];
            for &v in g0.neighbors(u) {
                if self.dist[v as usize] == UNREACHABLE && in_scope(v) {
                    self.dist[v as usize] = du + 1;
                    self.queue.push(v);
                    self.staged.push((v as usize * depth + k, head, u));
                }
            }
        }
        self.reset();
    }

    /// Return every node the last BFS touched to `UNREACHABLE`.
    fn reset(&mut self) {
        for &v in &self.queue {
            self.dist[v as usize] = UNREACHABLE;
        }
        self.queue.clear();
    }
}

/// Stable counting sort of items `0..len` into `buckets` buckets:
/// afterwards bucket `b` is `out[start[b] .. start[b + 1]]`, holding
/// `value(i)` for each item `i` with `bucket(i) == b`, in item order.
fn counting_sort<U: Copy + Default>(
    len: usize,
    buckets: usize,
    bucket: impl Fn(usize) -> usize,
    value: impl Fn(usize) -> U,
    start: &mut Vec<u32>,
    out: &mut Vec<U>,
) {
    start.clear();
    start.resize(buckets + 2, 0);
    for i in 0..len {
        start[bucket(i) + 2] += 1;
    }
    for b in 2..buckets + 2 {
        start[b] += start[b - 1];
    }
    // `start[b + 1]` now holds bucket b's first slot and serves as its
    // fill cursor; once filled it holds bucket b's end, i.e. bucket
    // b + 1's start.
    out.clear();
    out.resize(len, U::default());
    for i in 0..len {
        let slot = &mut start[bucket(i) + 1];
        out[*slot as usize] = value(i);
        *slot += 1;
    }
    start.truncate(buckets + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::hierarchical_path;
    use chlm_cluster::HierarchyOptions;
    use chlm_geom::{Disk, SimRng};
    use chlm_graph::fasthash::FastSet;
    use chlm_graph::traversal::connected_components;
    use chlm_graph::unit_disk::build_unit_disk;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

    fn random_hierarchy(n: usize, seed: u64) -> Hierarchy {
        hierarchy_with_degree(n, 9.0, 1.0, seed)
    }

    fn hierarchy_with_degree(n: usize, degree: f64, min_reduction: f64, seed: u64) -> Hierarchy {
        let mut rng = SimRng::seed_from(seed);
        let radius = chlm_geom::disk_radius_for_density(n, 1.25);
        let region = Disk::centered(radius);
        let pts = chlm_geom::region::deploy_uniform(&region, n, &mut rng);
        let g = build_unit_disk(&pts, chlm_geom::rtx_for_degree(degree, 1.25));
        let ids = rng.permutation(n);
        let opts = HierarchyOptions {
            min_reduction,
            ..HierarchyOptions::default()
        };
        Hierarchy::build(&ids, &g, opts)
    }

    /// Per-node maps and addresses from the straightforward build: one
    /// whole-graph BFS per node and per cluster, `O(n)` scans to install.
    /// The CSR build must match it entry for entry.
    type ReferenceTables = (Vec<FastMap<(u16, NodeIdx), NodeIdx>>, Vec<Vec<NodeIdx>>);

    fn reference_build(h: &Hierarchy) -> ReferenceTables {
        let n = h.node_count();
        let g0 = &h.levels[0].graph;
        let addresses = h.addresses();
        let mut tables: Vec<FastMap<(u16, NodeIdx), NodeIdx>> = vec![FastMap::default(); n];
        for k in 1..h.depth() {
            let mut members: BTreeMap<NodeIdx, Vec<NodeIdx>> = BTreeMap::new();
            for v in 0..n as NodeIdx {
                members.entry(addresses[v as usize][k]).or_default().push(v);
            }
            for (&head, mem) in &members {
                let parent = if k + 1 < h.depth() {
                    let level = &h.levels[k];
                    level.local(head).map(|local| level.head_of(local))
                } else {
                    None
                };
                let in_scope = |v: NodeIdx| -> bool {
                    match parent {
                        Some(p) => addresses[v as usize].get(k + 1) == Some(&p),
                        None => true,
                    }
                };
                let mut dist = vec![UNREACHABLE; n];
                let mut next = vec![NodeIdx::MAX; n];
                let mut q = VecDeque::new();
                for &s in mem {
                    dist[s as usize] = 0;
                    q.push_back(s);
                }
                while let Some(u) = q.pop_front() {
                    for &v in g0.neighbors(u) {
                        if dist[v as usize] == UNREACHABLE && in_scope(v) {
                            dist[v as usize] = dist[u as usize] + 1;
                            next[v as usize] = u;
                            q.push_back(v);
                        }
                    }
                }
                for u in 0..n as NodeIdx {
                    let au = &addresses[u as usize];
                    if au[k] == head {
                        continue;
                    }
                    let same_parent = match (au.get(k + 1), parent) {
                        (Some(&p), Some(cluster_parent)) => p == cluster_parent,
                        _ => k + 1 >= h.depth(),
                    };
                    if same_parent && next[u as usize] != NodeIdx::MAX {
                        tables[u as usize].insert((k as u16, head), next[u as usize]);
                    }
                }
            }
        }
        if h.depth() >= 2 {
            let mut members1: BTreeMap<NodeIdx, Vec<NodeIdx>> = BTreeMap::new();
            for v in 0..n as NodeIdx {
                members1
                    .entry(addresses[v as usize][1])
                    .or_default()
                    .push(v);
            }
            for mem in members1.values() {
                for &dst in mem {
                    let dist = bfs_distances(g0, dst);
                    for &u in mem {
                        if u == dst || dist[u as usize] == UNREACHABLE {
                            continue;
                        }
                        let hop = g0
                            .neighbors(u)
                            .iter()
                            .copied()
                            .find(|&w| dist[w as usize] + 1 == dist[u as usize]);
                        if let Some(hop) = hop {
                            tables[u as usize].insert((0, dst), hop);
                        }
                    }
                }
            }
        }
        (tables, addresses)
    }

    /// `route_hops` over the reference maps, walked the way the original
    /// per-node hash tables were.
    fn reference_route_hops(reference: &ReferenceTables, s: NodeIdx, t: NodeIdx) -> Option<u32> {
        let (tables, addresses) = reference;
        let mut cur = s;
        let mut hops = 0u32;
        while cur != t {
            let (addr_c, addr_t) = (&addresses[cur as usize], &addresses[t as usize]);
            let common = (0..addr_c.len()).find(|&k| addr_c[k] == addr_t[k])?;
            let key = if common == 1 {
                (0u16, t)
            } else {
                ((common - 1) as u16, addr_t[common - 1])
            };
            cur = *tables[cur as usize].get(&key)?;
            hops += 1;
            if hops as usize > 4 * tables.len() + 16 {
                return None;
            }
        }
        Some(hops)
    }

    fn assert_matches_reference(h: &Hierarchy, table: &NextHopTable) {
        let reference = reference_build(h);
        for (u, want) in reference.0.iter().enumerate() {
            let mut want: Vec<_> = want.iter().map(|(&k, &v)| (k, v)).collect();
            want.sort_unstable();
            let got: Vec<_> = (0..h.depth())
                .flat_map(|k| {
                    let segment = table.segment(u as NodeIdx, k);
                    segment
                        .iter()
                        .map(move |&(head, next)| ((k as u16, head), next))
                })
                .collect();
            assert_eq!(got, want, "node {u}");
        }
        let n = h.node_count() as NodeIdx;
        if n <= 120 {
            let mut memo = FastMap::default();
            let mut path = Vec::new();
            for s in 0..n {
                for t in 0..n {
                    let hops = table.route_hops(s, t);
                    assert_eq!(hops, reference_route_hops(&reference, s, t), "s={s} t={t}");
                    assert_eq!(hops, table.route_hops_memo(s, t, &mut memo, &mut path));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The cluster-local CSR build installs exactly the reference's
        /// entries, on dense and on sparse (disconnected) networks, and
        /// walks the same routes — also when rebuilt in place over a
        /// table built for another network.
        #[test]
        fn prop_build_matches_reference(
            n in 1usize..=400,
            degree in 2.0f64..12.0,
            min_reduction in min_reduction_choice(),
            seed in 0u64..1_000_000,
        ) {
            let h = hierarchy_with_degree(n, degree, min_reduction, seed);
            assert_matches_reference(&h, &NextHopTable::build(&h));
            // A table last built for a different network, rebuilt in place.
            let mut reused = NextHopTable::build(&hierarchy_with_degree(401 - n, 6.0, 1.0, seed ^ 1));
            reused.rebuild(&h);
            assert_matches_reference(&h, &reused);
        }
    }

    fn min_reduction_choice() -> impl Strategy<Value = f64> {
        (0u8..2).prop_map(|i| if i == 0 { 1.0 } else { 1.25 })
    }

    /// The sparse end of the property's range does produce the hard
    /// cases: disconnected graphs, several top-level clusters, and
    /// clusters whose members cannot reach each other inside their
    /// parent (so some §2.1 entries are missing).
    #[test]
    fn sparse_networks_reach_the_hard_cases() {
        let h = hierarchy_with_degree(300, 2.0, 1.0, 11);
        let g0 = &h.levels[0].graph;
        assert!(connected_components(g0).1 > 1, "graph is connected");
        assert!(h.levels[h.depth() - 1].len() > 1, "one top-level cluster");
        let table = NextHopTable::build(&h);
        let accounted = crate::tables::hierarchical_table_sizes(&h);
        assert!(
            (0..300u32).any(|u| table.entries(u) < accounted[u as usize]),
            "every cluster reaches all of its parent"
        );
        assert_matches_reference(&h, &table);
    }

    #[test]
    fn table_routes_deliver_and_are_valid_walks() {
        let h = random_hierarchy(200, 1);
        let tables = NextHopTable::build(&h);
        let g0 = &h.levels[0].graph;
        let mut rng = SimRng::seed_from(2);
        let mut routed = 0;
        while routed < 30 {
            let s = rng.index(200) as NodeIdx;
            let t = rng.index(200) as NodeIdx;
            match tables.route(&h, s, t) {
                None => continue,
                Some(out) => {
                    assert_eq!(*out.path.first().unwrap(), s);
                    assert_eq!(*out.path.last().unwrap(), t);
                    for w in out.path.windows(2) {
                        assert!(g0.has_edge(w[0], w[1]));
                    }
                    assert!(out.hops >= out.shortest);
                    routed += 1;
                }
            }
        }
    }

    #[test]
    fn table_routes_subset_of_bfs_leg_routes() {
        // Table routing confines legs to the parent cluster, so it can
        // fail where the free-leg BFS router succeeds (internally
        // disconnected parent) — but never vice versa, and the vast
        // majority of connected pairs must route both ways.
        let h = random_hierarchy(150, 3);
        let tables = NextHopTable::build(&h);
        let mut both = 0;
        let mut bfs_only = 0;
        for s in (0..150u32).step_by(7) {
            for t in (0..150u32).step_by(5) {
                let a = tables.route(&h, s, t).is_some();
                let b = hierarchical_path(&h, s, t).is_some();
                assert!(!a || b, "table routed where bfs could not: s={s} t={t}");
                if a && b {
                    both += 1;
                } else if b {
                    bfs_only += 1;
                }
            }
        }
        assert!(both > 0);
        assert!(
            (bfs_only as f64) < 0.1 * (both + bfs_only) as f64,
            "too many table failures: {bfs_only} of {}",
            both + bfs_only
        );
    }

    #[test]
    fn table_stretch_close_to_bfs_leg_stretch() {
        let h = random_hierarchy(250, 4);
        let tables = NextHopTable::build(&h);
        let mut rng = SimRng::seed_from(5);
        let mut t_sum = 0.0;
        let mut b_sum = 0.0;
        let mut count = 0;
        for _ in 0..40 {
            let s = rng.index(250) as NodeIdx;
            let t = rng.index(250) as NodeIdx;
            if let (Some(tp), Some(bp)) = (tables.route(&h, s, t), hierarchical_path(&h, s, t)) {
                t_sum += tp.stretch;
                b_sum += bp.stretch;
                count += 1;
            }
        }
        assert!(count > 10);
        let (tm, bm) = (t_sum / count as f64, b_sum / count as f64);
        assert!(
            (tm - bm).abs() < 0.4,
            "table stretch {tm:.2} vs bfs-leg stretch {bm:.2}"
        );
    }

    #[test]
    fn table_sizes_match_accounting_module() {
        // The entry counts built here should match (up to intra-cluster
        // routes for unreachable members) the closed-form sizes used by
        // E17's accounting.
        let h = random_hierarchy(180, 6);
        let tables = NextHopTable::build(&h);
        let accounted = crate::tables::hierarchical_table_sizes(&h);
        for u in 0..180u32 {
            let built = tables.entries(u);
            assert!(
                built <= accounted[u as usize],
                "node {u}: built {built} > accounted {}",
                accounted[u as usize]
            );
            // Built tables can be smaller only due to disconnected members.
        }
    }

    #[test]
    fn self_route_trivial() {
        let h = random_hierarchy(60, 7);
        let tables = NextHopTable::build(&h);
        let out = tables.route(&h, 5, 5).unwrap();
        assert_eq!(out.hops, 0);
        assert_eq!(out.path, vec![5]);
        assert_eq!(tables.route_hops(5, 5), Some(0));
    }

    /// Whether the table walk from `s` to `t` revisits a node, found with
    /// a visited set rather than by either walker under test.
    fn walk_cycles(table: &NextHopTable, s: NodeIdx, t: NodeIdx) -> bool {
        let mut seen = FastSet::default();
        let mut cur = s;
        while cur != t {
            if !seen.insert(cur) {
                return true;
            }
            match table.step_toward(cur, t) {
                Some((next, _)) => cur = next,
                None => return false,
            }
        }
        false
    }

    /// Walks that cycle (see the module docs) are cut at their first
    /// revisit and memoized as unroutable, and the memo stays exact: every
    /// ordered pair, priced in a shuffled order through one shared memo,
    /// answers what the reference walker answers, no "on this path"
    /// sentinel outlives a call, and a second pass over the filled memo
    /// answers the same.
    #[test]
    fn memo_cuts_cycles_and_stays_exact() {
        let n = 100u32;
        let all_pairs = || (0..n).flat_map(|s| (0..n).map(move |t| (s, t)));
        let (h, table) = (0..20u64)
            .map(|seed| {
                let h = hierarchy_with_degree(n as usize, 9.0, 1.0, seed);
                let table = NextHopTable::build(&h);
                (h, table)
            })
            .find(|(_, table)| all_pairs().any(|(s, t)| walk_cycles(table, s, t)))
            .expect("no seed in 0..20 holds a cycling pair");
        let reference = reference_build(&h);
        let mut pairs: Vec<_> = all_pairs().collect();
        SimRng::seed_from(12).shuffle(&mut pairs);
        let mut memo = FastMap::default();
        let mut path = Vec::new();
        let first: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| {
                let hops = table.route_hops_memo(s, t, &mut memo, &mut path);
                assert_eq!(hops, reference_route_hops(&reference, s, t), "s={s} t={t}");
                assert!(
                    memo.values().all(|&v| v != ON_PATH),
                    "s={s} t={t} left an on-path sentinel"
                );
                hops
            })
            .collect();
        assert!(memo.values().any(|&v| v == NO_ROUTE));
        let second: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| table.route_hops_memo(s, t, &mut memo, &mut path))
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn route_hops_matches_full_route() {
        let h = random_hierarchy(180, 8);
        let tables = NextHopTable::build(&h);
        let mut rng = SimRng::seed_from(9);
        let mut checked = 0;
        for _ in 0..400 {
            let s = rng.index(180) as NodeIdx;
            let t = rng.index(180) as NodeIdx;
            match (tables.route(&h, s, t), tables.route_hops(s, t)) {
                (Some(out), Some(hops)) => {
                    assert_eq!(out.hops, hops, "s={s} t={t}");
                    checked += 1;
                }
                (None, None) => {}
                // `route` also returns None for BFS-unreachable pairs it
                // never walks; `route_hops` can still walk a table route
                // only if one exists, and a table route implies
                // reachability — so the walks must agree.
                (a, b) => panic!("divergence s={s} t={t}: route={a:?} hops={b:?}"),
            }
        }
        assert!(checked > 50);
    }
}
