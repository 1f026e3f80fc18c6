//! **GMA** — the group monitoring algorithm (§5).
//!
//! GMA decomposes the network into *sequences* (maximal paths between
//! degree≠2 nodes, [`rnn_roadnet::SequenceTable`]) and exploits Lemma 1:
//!
//! > "The k-NN set of any query q falling in a sequence s is contained in
//! > the union of (i) the objects in s, (ii) the k-NN sets of the
//! > intersection nodes (endpoints) of s."
//!
//! The endpoints of sequences that currently contain queries are **active
//! nodes**; their `n.k`-NN sets (`n.k = max q.k over the adjacent queries`)
//! are maintained with the IMA machinery ([`crate::anchor::AnchorSet`],
//! node-rooted and static). A user query is answered by a cheap
//! within-sequence walk that merges (a) the objects it passes and (b) the
//! monitored NN sets of the endpoints it reaches.
//!
//! Evaluation is the Lemma-1 merge itself. The objects on the query's own
//! edge and on the walked part of its sequence are collected into one
//! reused scratch, sorted once and cut to the k best. Each endpoint's NN
//! list is already sorted; it is read as a stream shifted by the
//! endpoint's along-sequence distance, and skipped when that distance
//! exceeds the walk's k-th distance. A three-way merge then emits the
//! k smallest, dropping later sightings of an object through the
//! epoch-stamped table of [`BestK`]. Because every stream is sorted, an
//! object's first sighting is its minimum distance.
//!
//! **Tie rule:** the answer is exactly the k smallest `(dist, id)` pairs
//! over each object's minimum distance. An object tied with the k-th
//! distance makes the answer when its id is smaller, no matter which
//! stream delivers it first.
//!
//! Maintenance (Figure 12) re-evaluates a query from scratch only when one
//! of the four invalidating events touches it: (i) its own movement,
//! (ii) a change in a reachable endpoint's NN set, (iii) an object update
//! inside its influencing intervals, (iv) a weight change of an influencing
//! edge. Events are detected with per-sequence influence lists plus the
//! cached along-sequence endpoint distances.
//!
//! Special cases handled exactly as the paper prescribes: terminal
//! (degree-1) endpoints are never activated (nothing lies beyond them), and
//! isolated all-degree-2 cycles need no active nodes at all (the
//! bidirectional walk covers the entire component).

use std::sync::Arc;
use std::time::Instant;

use rnn_roadnet::{
    EdgeId, FxHashMap, FxHashSet, NetPoint, NodeId, ObjectId, QueryId, RoadNetwork, SeqId,
    Sequence, SequenceTable,
};

use crate::anchor::{AnchorKey, AnchorSet};
use crate::counters::{MemoryUsage, OpCounters, TickReport};
use crate::influence::{InfluenceTable, IntervalSet};
use crate::monitor::ContinuousMonitor;
use crate::search::BestK;
use crate::state::NetworkState;
use crate::tree::TreePool;
use crate::types::{Neighbor, ObjectEvent, QueryEvent, RootPos, UpdateBatch, UpdateEvent};

struct GmaQuery {
    k: usize,
    pos: NetPoint,
    seq: SeqId,
    result: Vec<Neighbor>,
    knn_dist: f64,
    /// Along-sequence distances to `(start_node, end_node)` at last
    /// evaluation (used to filter endpoint-NN-change events).
    d_ends: (f64, f64),
    /// Edges of the sequence currently carrying this query's influence
    /// intervals.
    influenced: Vec<EdgeId>,
}

/// The group monitoring algorithm.
pub struct Gma {
    net: Arc<RoadNetwork>,
    seqs: SequenceTable,
    state: NetworkState,
    /// IMA module monitoring the active nodes (**NT**).
    nodes: AnchorSet,
    node_anchor: FxHashMap<NodeId, AnchorKey>,
    anchor_node: FxHashMap<AnchorKey, NodeId>,
    /// Multiset of k values demanded at each potential active node
    /// (`n.k = max`).
    node_ks: FxHashMap<NodeId, Vec<usize>>,
    /// Sequences incident to each intersection node (`n.S`).
    node_seqs: FxHashMap<NodeId, Vec<SeqId>>,
    queries: FxHashMap<QueryId, GmaQuery>,
    /// Queries per sequence (`n.Q` is derived: queries of the sequences in
    /// `n.S`).
    seq_queries: FxHashMap<SeqId, FxHashSet<QueryId>>,
    /// Query influence lists, restricted to within-sequence edges.
    qil: InfluenceTable<QueryId>,
    /// Dedup table of the evaluation merge (flat, epoch-stamped; reset per
    /// evaluation without releasing capacity).
    best: BestK,
    /// Evaluation scratch: the own-edge and sequence-walk candidates.
    walk: Vec<Neighbor>,
    /// Evaluation scratch: the query's new within-sequence influence
    /// intervals, one entry per edge.
    infl: Vec<(EdgeId, IntervalSet)>,
    /// Per-tick scratch: the queries to re-evaluate (sorted and
    /// deduplicated before use).
    eval_ids: Vec<QueryId>,
    /// Per-tick scratch: the nodes whose k demand may have changed.
    touched_nodes: Vec<NodeId>,
    /// Per-tick scratch: how many re-evaluated queries were served from
    /// each active node's monitored expansion this tick. Every use beyond
    /// the first is one network expansion that did not run — GMA's
    /// expansion sharing (Lemma 1), surfaced through
    /// [`OpCounters::shared_expansions`].
    tick_served: FxHashMap<NodeId, u32>,
}

impl Gma {
    /// Creates a GMA server over `net` with base weights and no objects.
    pub fn new(net: Arc<RoadNetwork>) -> Self {
        let seqs = SequenceTable::build(&net);
        // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
        let mut node_seqs: FxHashMap<NodeId, Vec<SeqId>> = FxHashMap::default();
        for s in seqs.iter() {
            for n in [s.start_node(), s.end_node()] {
                // Terminal nodes are never activated (§5: "in sequence
                // {n5n4}, terminal node n4 is inactive"), and neither are
                // the breakpoints of *isolated* cycles (degree 2 — there is
                // nothing beyond them). A cycle sequence attached to the
                // graph through an intersection ("lollipop") keeps that
                // intersection as its single exit point.
                if net.degree(n) < 3 {
                    continue;
                }
                let list = node_seqs.entry(n).or_default();
                if !list.contains(&s.id) {
                    list.push(s.id);
                }
            }
        }
        let state = NetworkState::new(&net);
        let nodes = AnchorSet::new(net.clone());
        Self {
            net,
            seqs,
            state,
            nodes,
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            node_anchor: FxHashMap::default(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            anchor_node: FxHashMap::default(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            node_ks: FxHashMap::default(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            node_seqs: FxHashMap::default(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            queries: FxHashMap::default(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            seq_queries: FxHashMap::default(),
            qil: InfluenceTable::new(0),
            best: BestK::default(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            walk: Vec::new(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            infl: Vec::new(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            eval_ids: Vec::new(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            touched_nodes: Vec::new(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            tick_served: FxHashMap::default(),
        }
        .finish_init(node_seqs)
    }

    fn finish_init(mut self, node_seqs: FxHashMap<NodeId, Vec<SeqId>>) -> Self {
        self.node_seqs = node_seqs;
        self.qil = InfluenceTable::new(self.net.num_edges());
        self
    }

    /// Like [`Self::new`], with the active-node expansion-tree pool
    /// pre-provisioned for about `hint` concurrent trees (GMA keeps one
    /// tree per active intersection node, which is bounded by the query
    /// count) of [`TreePool::PREWARM_NODES_PER_TREE`] nodes each. A hint
    /// of 0 is exactly `new`.
    pub fn with_tree_pool_hint(net: Arc<RoadNetwork>, hint: usize) -> Self {
        let mut m = Self::new(net);
        m.nodes
            .prewarm_trees(hint, TreePool::PREWARM_NODES_PER_TREE);
        m
    }

    /// The sequence table (exposed for tests and examples).
    pub fn sequences(&self) -> &SequenceTable {
        &self.seqs
    }

    /// Number of currently active nodes (reported in the paper's
    /// experiments, e.g. "GMA monitors only 844 active nodes on average").
    pub fn active_node_count(&self) -> usize {
        self.node_anchor.len()
    }

    /// Nodes whose k demand must be (de)registered for a query in sequence
    /// `seq` — its endpoints with degree ≥ 3 (terminals have nothing beyond
    /// them; an isolated cycle's degree-2 breakpoint likewise).
    fn endpoints_for(&self, seq: SeqId) -> [Option<NodeId>; 2] {
        let s = self.seqs.sequence(seq);
        let active = |n: NodeId| (self.net.degree(n) >= 3).then_some(n);
        let start = active(s.start_node());
        let end = active(s.end_node()).filter(|&n| Some(n) != start);
        [start, end]
    }

    fn register_query_demand(&mut self, seq: SeqId, qid: QueryId, k: usize) -> [Option<NodeId>; 2] {
        self.seq_queries.entry(seq).or_default().insert(qid);
        let eps = self.endpoints_for(seq);
        for n in eps.into_iter().flatten() {
            self.node_ks.entry(n).or_default().push(k);
        }
        eps
    }

    fn unregister_query_demand(
        &mut self,
        seq: SeqId,
        qid: QueryId,
        k: usize,
    ) -> [Option<NodeId>; 2] {
        if let Some(set) = self.seq_queries.get_mut(&seq) {
            set.remove(&qid);
            if set.is_empty() {
                self.seq_queries.remove(&seq);
            }
        }
        let eps = self.endpoints_for(seq);
        for n in eps.into_iter().flatten() {
            if let Some(ks) = self.node_ks.get_mut(&n) {
                if let Some(i) = ks.iter().position(|&x| x == k) {
                    ks.swap_remove(i);
                }
                if ks.is_empty() {
                    self.node_ks.remove(&n);
                }
            }
        }
        eps
    }

    /// The k demanded at node `n` (`n.k = max` over the adjacent queries'
    /// demands), or `None` when no query demands it — the node must then
    /// be inactive. The single source of truth for both [`Self::sync_node`]
    /// and the tick's deactivate-before-activate pass split.
    fn desired_k(&self, n: NodeId) -> Option<usize> {
        self.node_ks.get(&n).and_then(|v| v.iter().max()).copied()
    }

    /// Reconciles a node's anchor with the current k demand: activates,
    /// deactivates, or resizes its monitored NN set.
    fn sync_node(&mut self, n: NodeId, counters: &mut OpCounters) {
        let desired = self.desired_k(n);
        match (self.node_anchor.get(&n).copied(), desired) {
            (None, Some(k)) => {
                let key = self.nodes.add(&self.state, RootPos::Node(n), k, counters);
                self.node_anchor.insert(n, key);
                self.anchor_node.insert(key, n);
            }
            (Some(key), None) => {
                self.nodes.remove(key);
                self.node_anchor.remove(&n);
                self.anchor_node.remove(&key);
            }
            (Some(key), Some(k)) => {
                if self.nodes.get(key).map(|r| r.k) != Some(k) {
                    self.nodes.set_k(&self.state, key, k, counters);
                }
            }
            (None, None) => {}
        }
    }

    /// Within-sequence evaluation (§5, Lemma 1) as a sorted merge of the
    /// walk candidates with the reachable endpoints' NN lists (see the
    /// module docs). Writes the answer into the query's result in place,
    /// rebuilds its influence intervals, and returns whether the answer
    /// changed.
    fn eval_query(&mut self, qid: QueryId, counters: &mut OpCounters) -> bool {
        counters.reevaluations += 1;
        let q = self.queries.get_mut(&qid).expect("query registered");
        let (k, pos, seq) = (q.k, q.pos, q.seq);
        let mut out = std::mem::take(&mut q.result);
        let s = self.seqs.sequence(seq);

        // Distances from q to the sequence endpoints along the sequence.
        let (d_start, d_end) = s.dist_to_endpoints(&self.state.weights, pos);
        let mut walk = std::mem::take(&mut self.walk);
        let walk_kth = self.collect_walk(s, pos, d_start + d_end, k, &mut walk, counters);

        // The reachable endpoint NN lists. Terminals and isolated-cycle
        // breakpoints (degree < 3) have nothing beyond them; a lollipop
        // cycle merges its single intersection once, at the shorter of the
        // two ways around. An endpoint farther than the walk's k-th
        // distance cannot contribute.
        let ends = if s.is_cycle() {
            [Some((s.start_node(), d_start.min(d_end))), None]
        } else {
            [Some((s.start_node(), d_start)), Some((s.end_node(), d_end))]
        };
        let mut streams: [(f64, &[Neighbor]); 3] = [(0.0, walk.as_slice()), (0.0, &[]), (0.0, &[])];
        for (slot, (n, base)) in streams[1..].iter_mut().zip(ends.into_iter().flatten()) {
            if self.net.degree(n) < 3 || base > walk_kth {
                continue;
            }
            let key = self
                .node_anchor
                .get(&n)
                .expect("endpoint of a query sequence is active");
            let rec = self.nodes.get(*key).expect("anchor exists");
            debug_assert!(rec.k >= k, "active node monitors too few NNs");
            *self.tick_served.entry(n).or_default() += 1;
            *slot = (base, &rec.result);
        }

        // Merge: repeatedly take the smallest head by (dist, id); the first
        // sighting of an object is its minimum distance. The result grows
        // to exactly k once (at install or a k change), then is rewritten
        // in place.
        out.reserve_exact(k.saturating_sub(out.len()));
        self.best.reset(k);
        let mut len = 0;
        let mut changed = false;
        // Each stream's head, shifted by its base; an exhausted stream reads
        // as `∞`, which no candidate distance reaches.
        let head = |(base, list): (f64, &[Neighbor])| match list.first() {
            Some(nb) => Neighbor {
                object: nb.object,
                dist: base + nb.dist,
            },
            None => Neighbor {
                object: ObjectId(u32::MAX),
                dist: f64::INFINITY,
            },
        };
        let mut heads = streams.map(head);
        while len < k {
            let mut i = usize::from(heads[1].sort_key() < heads[0].sort_key());
            if heads[2].sort_key() < heads[i].sort_key() {
                i = 2;
            }
            let c = heads[i];
            if c.dist == f64::INFINITY {
                break;
            }
            streams[i].1 = &streams[i].1[1..];
            heads[i] = head(streams[i]);
            if i > 0 {
                counters.objects_considered += 1;
            }
            if !self.best.first_sighting(c.object) {
                continue;
            }
            match out.get_mut(len) {
                Some(old) if *old == c => {}
                Some(old) => {
                    *old = c;
                    changed = true;
                }
                None => {
                    out.push(c);
                    changed = true;
                }
            }
            len += 1;
        }
        if out.len() > len {
            out.truncate(len);
            changed = true;
        }
        self.walk = walk;

        let q = self.queries.get_mut(&qid).expect("query registered");
        q.knn_dist = if len == k {
            out[k - 1].dist
        } else {
            f64::INFINITY
        };
        q.result = out;
        q.d_ends = (d_start, d_end);
        self.rebuild_query_influence(qid);
        changed
    }

    /// Collects the objects on the query's own edge and along both
    /// directions of its sequence into `walk`, sorted by `(dist, id)` and
    /// cut to the k best. Returns the k-th distance (`∞` while fewer than
    /// k were found).
    ///
    /// Each direction stops once its frontier passes the current k-th
    /// candidate. On a cycle sequence of length `ring` every object is
    /// scanned once, at the shorter of its two ways around: the second
    /// direction stops where the first one ended.
    fn collect_walk(
        &self,
        s: &Sequence,
        pos: NetPoint,
        ring: f64,
        k: usize,
        walk: &mut Vec<Neighbor>,
        counters: &mut OpCounters,
    ) -> f64 {
        let ring = if s.is_cycle() { ring } else { f64::INFINITY };
        let i0 = s.edge_offset(pos.edge).expect("query edge in its sequence");
        walk.clear();
        counters.edges_scanned += 1;
        let w0 = self.state.weights.get(pos.edge);
        for &(o, f) in self.state.objects.on_edge(pos.edge) {
            counters.objects_considered += 1;
            let x = (f - pos.frac).abs() * w0;
            walk.push(Neighbor {
                object: o,
                dist: x.min(ring - x),
            });
        }
        let mut kth = kth_dist(walk, k);

        let mut scanned = 0;
        for toward_start in [true, false] {
            let limit = s.edges.len() - 1 - scanned;
            let mut acc = self.walk_start_dist(s, i0, pos, toward_start);
            for (edge_idx, boundary) in Self::walk_steps(s, i0, toward_start).take(limit) {
                if acc > kth {
                    break;
                }
                let e = s.edges[edge_idx];
                let w = self.state.weights.get(e);
                let from_start = self.net.edge(e).start == s.nodes[boundary];
                counters.edges_scanned += 1;
                scanned += 1;
                let objs = self.state.objects.on_edge(e);
                for &(o, f) in objs {
                    counters.objects_considered += 1;
                    let x = acc + if from_start { f * w } else { (1.0 - f) * w };
                    walk.push(Neighbor {
                        object: o,
                        dist: x.min(ring - x),
                    });
                }
                if !objs.is_empty() {
                    kth = kth_dist(walk, k);
                }
                acc += w;
            }
        }

        if walk.len() > k {
            walk.select_nth_unstable_by(k - 1, Neighbor::cmp_key);
            walk.truncate(k);
        }
        walk.sort_unstable_by(Neighbor::cmp_key);
        kth
    }

    /// The edges one directional walk visits, in order, with the boundary
    /// node each is approached from. For cycle sequences the walk wraps all
    /// the way around (including a final re-scan of the query's own edge
    /// from the far side, so wrap-around paths are measured); the
    /// evaluation walk takes only the other edges, see
    /// [`Self::collect_walk`].
    fn walk_steps(
        s: &Sequence,
        i0: usize,
        toward_start: bool,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let m = s.edges.len();
        let count = if s.is_cycle() {
            m
        } else if toward_start {
            i0
        } else {
            m - 1 - i0
        };
        (0..count).map(move |step| {
            let edge_idx = if toward_start {
                (i0 + m - 1 - step) % m
            } else {
                (i0 + 1 + step) % m
            };
            let boundary = if toward_start { edge_idx + 1 } else { edge_idx };
            (edge_idx, boundary)
        })
    }

    /// Distance from the query to the first boundary node of a directional
    /// walk.
    fn walk_start_dist(&self, s: &Sequence, i0: usize, pos: NetPoint, toward_start: bool) -> f64 {
        let w0 = self.state.weights.get(pos.edge);
        if s.forward[i0] == toward_start {
            pos.frac * w0
        } else {
            (1.0 - pos.frac) * w0
        }
    }

    /// Rebuilds the within-sequence influence intervals of a query from its
    /// current `knn_dist`, touching only the influence-list entries that
    /// changed: edges that left the query's reach lose their entry, and the
    /// others are rewritten in place.
    fn rebuild_query_influence(&mut self, qid: QueryId) {
        let q = self.queries.get_mut(&qid).expect("query registered");
        let (pos, seq, knn) = (q.pos, q.seq, q.knn_dist);
        let mut influenced = std::mem::take(&mut q.influenced);
        let mut infl = std::mem::take(&mut self.infl);
        infl.clear();
        let s = self.seqs.sequence(seq);
        let i0 = s.edge_offset(pos.edge).expect("query edge in sequence");

        // Widen by the standard slack so boundary entities (the k-th NN
        // itself) never escape detection through float rounding.
        let slack = crate::anchor::interval_slack(knn);
        let knn = knn + slack;

        // Own edge.
        let w0 = self.state.weights.get(pos.edge);
        let r0 = knn / w0;
        infl.push((pos.edge, IntervalSet::single(pos.frac - r0, pos.frac + r0)));

        // Both directions (wrapping around for cycle sequences, so one edge
        // can be reached from both sides: its intervals merge).
        for toward_start in [true, false] {
            let mut acc = self.walk_start_dist(s, i0, pos, toward_start);
            for (edge_idx, boundary) in Self::walk_steps(s, i0, toward_start) {
                if acc >= knn {
                    break;
                }
                let e = s.edges[edge_idx];
                let w = self.state.weights.get(e);
                let f = ((knn - acc) / w).min(1.0);
                let (lo, hi) = if self.net.edge(e).start == s.nodes[boundary] {
                    (0.0, f)
                } else {
                    (1.0 - f, 1.0)
                };
                match infl.iter_mut().find(|(x, _)| *x == e) {
                    Some((_, ivs)) => ivs.add(lo, hi),
                    None => infl.push((e, IntervalSet::single(lo, hi))),
                }
                acc += w;
            }
        }

        for &e in &influenced {
            if !infl.iter().any(|&(x, _)| x == e) {
                self.qil.remove(e, qid);
            }
        }
        influenced.clear();
        for &(e, ivs) in &infl {
            self.qil.insert(e, qid, ivs);
            influenced.push(e);
        }
        self.infl = infl;
        self.queries
            .get_mut(&qid)
            .expect("query registered")
            .influenced = influenced;
    }
}

/// The k-th smallest distance among `walk` (`∞` while it holds fewer than
/// k candidates); reorders `walk`. The candidates are distinct objects, so
/// this is exactly the k-th distance of the walk so far.
fn kth_dist(walk: &mut [Neighbor], k: usize) -> f64 {
    if walk.len() < k {
        return f64::INFINITY;
    }
    walk.select_nth_unstable_by(k - 1, Neighbor::cmp_key).1.dist
}

impl ContinuousMonitor for Gma {
    fn name(&self) -> &'static str {
        "GMA"
    }

    fn apply(&mut self, event: UpdateEvent) -> TickReport {
        match event {
            UpdateEvent::Object(ObjectEvent::Insert { id, at }) => {
                self.state.objects.insert(id, at);
                TickReport::default()
            }
            UpdateEvent::Query(QueryEvent::Install { id, k, at }) => {
                assert!(
                    !self.queries.contains_key(&id),
                    "query {id:?} already installed"
                );
                self.state.queries.insert(id, (k, at));
                let seq = self.seqs.seq_of_edge(at.edge);
                self.queries.insert(
                    id,
                    GmaQuery {
                        k,
                        pos: at,
                        seq,
                        // lint: allow(hot-path-alloc): query installation is the declared install path; its allocations are tracked separately as install_alloc_events
                        result: Vec::new(),
                        knn_dist: f64::INFINITY,
                        d_ends: (f64::INFINITY, f64::INFINITY),
                        // lint: allow(hot-path-alloc): query installation is the declared install path; its allocations are tracked separately as install_alloc_events
                        influenced: Vec::new(),
                    },
                );
                let mut c = OpCounters::default();
                for n in self.register_query_demand(seq, id, k).into_iter().flatten() {
                    self.sync_node(n, &mut c);
                }
                self.eval_query(id, &mut c);
                TickReport::default()
            }
            UpdateEvent::Query(QueryEvent::Remove { id }) => {
                let Some(mut q) = self.queries.remove(&id) else {
                    return TickReport::default();
                };
                self.state.queries.remove(&id);
                for e in q.influenced.drain(..) {
                    self.qil.remove(e, id);
                }
                let mut c = OpCounters::default();
                for n in self
                    .unregister_query_demand(q.seq, id, q.k)
                    .into_iter()
                    .flatten()
                {
                    self.sync_node(n, &mut c);
                }
                TickReport::default()
            }
            other => {
                let mut batch = UpdateBatch::default();
                batch.push(other);
                self.tick(&batch)
            }
        }
    }

    fn tick(&mut self, batch: &UpdateBatch) -> TickReport {
        let start = Instant::now();
        let mut counters = OpCounters::default();
        self.tick_served.clear();
        self.nodes.clear_cell_charges();
        let deltas = self.state.apply_batch(batch);

        // ---- Figure 12, lines 1-4: query arrivals/departures/moves update
        // the sequence registry and the active-node demands.
        let mut needs_eval = std::mem::take(&mut self.eval_ids);
        let mut touched = std::mem::take(&mut self.touched_nodes);
        needs_eval.clear();
        touched.clear();
        let mut results_changed = 0;
        for d in &deltas.queries {
            match (d.old, d.new) {
                (Some(_), None) => {
                    if let Some(mut q) = self.queries.remove(&d.id) {
                        for e in q.influenced.drain(..) {
                            self.qil.remove(e, d.id);
                        }
                        let eps = self.unregister_query_demand(q.seq, d.id, q.k);
                        touched.extend(eps.into_iter().flatten());
                        results_changed += 1;
                    }
                }
                (old, Some((k, at))) => {
                    let new_seq = self.seqs.seq_of_edge(at.edge);
                    match old {
                        Some(_) => {
                            // Move (possibly with a k change): deregister the
                            // old placement, register the new one.
                            let (old_seq, old_k) = {
                                let q = self.queries.get(&d.id).expect("known query");
                                (q.seq, q.k)
                            };
                            let eps = self.unregister_query_demand(old_seq, d.id, old_k);
                            touched.extend(eps.into_iter().flatten());
                            {
                                let q = self.queries.get_mut(&d.id).expect("known query");
                                for e in q.influenced.drain(..) {
                                    self.qil.remove(e, d.id);
                                }
                                q.k = k;
                                q.pos = at;
                                q.seq = new_seq;
                            }
                        }
                        None => {
                            self.queries.insert(
                                d.id,
                                GmaQuery {
                                    k,
                                    pos: at,
                                    seq: new_seq,
                                    // lint: allow(hot-path-alloc): query installation is the declared install path; its allocations are tracked separately as install_alloc_events
                                    result: Vec::new(),
                                    knn_dist: f64::INFINITY,
                                    d_ends: (f64::INFINITY, f64::INFINITY),
                                    // lint: allow(hot-path-alloc): query installation is the declared install path; its allocations are tracked separately as install_alloc_events
                                    influenced: Vec::new(),
                                },
                            );
                        }
                    }
                    let eps = self.register_query_demand(new_seq, d.id, k);
                    touched.extend(eps.into_iter().flatten());
                    needs_eval.push(d.id);
                }
                (None, None) => {}
            }
        }
        touched.sort_unstable();
        touched.dedup();
        // Deactivations run before activations: a node whose demand just
        // vanished returns its expansion tree to the pool first, so a node
        // activating in the same tick re-expands into those recycled slots
        // instead of growing the pool — activation churn stays
        // allocation-free in steady state.
        for pass_active in [false, true] {
            for &n in &touched {
                if self.desired_k(n).is_some() == pass_active {
                    self.sync_node(n, &mut counters);
                }
            }
        }
        self.touched_nodes = touched;

        // ---- Line 5: IMA maintenance of the active nodes.
        let out = self
            .nodes
            .tick(&self.state, &deltas.objects, &deltas.edges, &[]);
        counters.merge(&out.counters);

        // ---- Lines 6-15: determine the affected user queries.
        // (i) endpoint NN-set changes within reach.
        for key in &out.changed {
            let Some(&n) = self.anchor_node.get(key) else {
                continue;
            };
            let Some(seq_ids) = self.node_seqs.get(&n) else {
                continue;
            };
            for &sid in seq_ids {
                let Some(qs) = self.seq_queries.get(&sid) else {
                    continue;
                };
                let s = self.seqs.sequence(sid);
                for &qid in qs {
                    let q = &self.queries[&qid];
                    let d_n = if s.is_cycle() {
                        q.d_ends.0.min(q.d_ends.1)
                    } else if s.start_node() == n {
                        q.d_ends.0
                    } else {
                        q.d_ends.1
                    };
                    if d_n <= q.knn_dist + crate::anchor::interval_slack(q.knn_dist) {
                        needs_eval.push(qid);
                    }
                }
            }
        }
        // (ii) object updates inside influencing intervals.
        for d in &deltas.objects {
            let mut any = false;
            for p in [d.old, d.new].into_iter().flatten() {
                for qid in self.qil.covering(p.edge, p.frac) {
                    needs_eval.push(qid);
                    any = true;
                }
            }
            if !any {
                counters.updates_ignored += 1;
            }
        }
        // (iii) edge updates on influencing edges.
        for d in &deltas.edges {
            let entries = self.qil.on_edge(d.edge);
            if entries.is_empty() {
                counters.updates_ignored += 1;
            } else {
                needs_eval.extend(entries.iter().map(|&(q, _)| q));
            }
        }

        // ---- Lines 16-17: recompute the affected queries from scratch
        // (within their sequences, sharing the active-node NN sets).
        needs_eval.sort_unstable();
        needs_eval.dedup();
        for &qid in &needs_eval {
            if self.queries.contains_key(&qid) && self.eval_query(qid, &mut counters) {
                results_changed += 1;
            }
        }
        self.eval_ids = needs_eval;

        // Expansion sharing: every query beyond the first served from the
        // same active-node expansion this tick reused it instead of
        // expanding on its own.
        counters.shared_expansions += self
            .tick_served
            .values()
            .map(|&c| u64::from(c.saturating_sub(1)))
            .sum::<u64>();
        // Allocation/step accounting: node-anchor engine + influence
        // arenas, the query influence arena, and the object index arena.
        self.nodes.harvest_scratch_counters(&mut counters);
        counters.alloc_events += self.qil.take_alloc_events()
            + self.state.objects.take_alloc_events()
            + self.best.take_alloc_events();

        TickReport {
            elapsed: start.elapsed(),
            results_changed,
            counters,
        }
    }

    fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
        self.queries.get(&id).map(|q| q.result.as_slice())
    }

    fn knn_dist(&self, id: QueryId) -> Option<f64> {
        self.queries.get(&id).map(|q| q.knn_dist)
    }

    fn query_ids(&self) -> Vec<QueryId> {
        // lint: allow(hot-path-alloc): introspection helper for tests and benches, not called from the tick path
        self.queries.keys().copied().collect()
    }

    fn active_groups(&self) -> Option<usize> {
        Some(self.active_node_count())
    }

    fn drain_cell_charges(&mut self, into: &mut Vec<(EdgeId, u64)>) {
        self.nodes.drain_cell_charges(into);
    }

    fn memory(&self) -> MemoryUsage {
        let (node_table, trees, node_il) = self.nodes.memory_breakdown();
        let query_table: usize = self
            .queries
            .values()
            .map(|q| {
                std::mem::size_of::<GmaQuery>()
                    + q.result.capacity() * std::mem::size_of::<Neighbor>()
                    + q.influenced.capacity() * std::mem::size_of::<EdgeId>()
            })
            .sum();
        let bookkeeping = self.seqs.memory_bytes()
            + self
                .node_ks
                .values()
                .map(|v| v.capacity() * std::mem::size_of::<usize>())
                .sum::<usize>()
            + self
                .seq_queries
                .values()
                .map(|s| s.capacity() * std::mem::size_of::<QueryId>())
                .sum::<usize>();
        MemoryUsage {
            edge_table: self.state.memory_bytes(),
            query_table: query_table + node_table,
            expansion_trees: trees,
            influence_lists: node_il + self.qil.memory_bytes(),
            auxiliary: bookkeeping + self.nodes.scratch_bytes(),
        }
    }

    fn snapshot_state(&self) -> Option<crate::snapshot::MonitorState> {
        Some(crate::snapshot::MonitorState::capture(
            &self.net,
            &self.state,
            |q| match self.queries.get(&q) {
                Some(rec) => (rec.knn_dist, rec.result.clone()),
                // lint: allow(hot-path-alloc): snapshot capture is maintenance-path, not a steady-state tick
                None => (f64::INFINITY, Vec::new()),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{EdgeWeightUpdate, ObjectEvent, QueryEvent};
    use rnn_roadnet::{generators, ObjectId};

    /// Line of 6 nodes: one sequence, endpoints degree 1 → no active nodes.
    fn line_setup() -> Gma {
        let net = Arc::new(generators::line_network(6, 1.0));
        let mut gma = Gma::new(net.clone());
        for e in net.edge_ids() {
            gma.apply(UpdateEvent::insert_object(
                ObjectId(e.0),
                NetPoint::new(e, 0.5),
            ));
        }
        gma
    }

    /// A cross: center node 0 of degree 4, rays subdivided so sequences
    /// have length 2.
    ///
    /// ```text
    ///            4
    ///            |
    ///            3
    ///            |
    /// 8--7--0--1--2   (plus a south ray 5-6)
    /// ```
    fn cross_setup() -> (Arc<RoadNetwork>, Gma) {
        let mut b = rnn_roadnet::RoadNetworkBuilder::new();
        let c = b.add_node(0.0, 0.0); // 0
        let e1 = b.add_node(1.0, 0.0); // 1
        let e2 = b.add_node(2.0, 0.0); // 2
        let n1 = b.add_node(0.0, 1.0); // 3
        let n2 = b.add_node(0.0, 2.0); // 4
        let s1 = b.add_node(0.0, -1.0); // 5
        let s2 = b.add_node(0.0, -2.0); // 6
        let w1 = b.add_node(-1.0, 0.0); // 7
        let w2 = b.add_node(-2.0, 0.0); // 8
        b.add_edge_euclidean(c, e1); // e0
        b.add_edge_euclidean(e1, e2); // e1
        b.add_edge_euclidean(c, n1); // e2
        b.add_edge_euclidean(n1, n2); // e3
        b.add_edge_euclidean(c, s1); // e4
        b.add_edge_euclidean(s1, s2); // e5
        b.add_edge_euclidean(c, w1); // e6
        b.add_edge_euclidean(w1, w2); // e7
        let net = Arc::new(b.build().unwrap());
        let gma = Gma::new(net.clone());
        (net, gma)
    }

    #[test]
    fn line_has_no_active_nodes() {
        let mut gma = line_setup();
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            2,
            NetPoint::new(EdgeId(2), 0.5),
        ));
        assert_eq!(
            gma.active_node_count(),
            0,
            "degree-1 endpoints never activate"
        );
        let r = gma.result(QueryId(1)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].object, ObjectId(2));
        assert_eq!(r[0].dist, 0.0);
        assert_eq!(r[1].dist, 1.0);
    }

    #[test]
    fn cross_activates_center() {
        let (_, mut gma) = cross_setup();
        // One object per ray tip edge.
        gma.apply(UpdateEvent::insert_object(
            ObjectId(0),
            NetPoint::new(EdgeId(1), 0.5),
        )); // east, x=1.5
        gma.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(3), 0.5),
        )); // north
        gma.apply(UpdateEvent::insert_object(
            ObjectId(2),
            NetPoint::new(EdgeId(5), 0.5),
        )); // south
        gma.apply(UpdateEvent::insert_object(
            ObjectId(3),
            NetPoint::new(EdgeId(7), 0.5),
        )); // west
            // Query on the east ray at x=0.5 (edge e0 frac 0.5).
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            2,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        // Only the center (node 0) can be active; the east sequence runs
        // from node 0 to terminal node 2.
        assert_eq!(gma.active_node_count(), 1);
        let r = gma.result(QueryId(1)).unwrap();
        // o0 at |1.5-0.5| = 1.0 along the ray; the others at 0.5 + 1.5 = 2.0.
        assert_eq!(r[0].object, ObjectId(0));
        assert!((r[0].dist - 1.0).abs() < 1e-12);
        assert!((r[1].dist - 2.0).abs() < 1e-12);
    }

    #[test]
    fn endpoint_change_propagates_to_query() {
        let (_, mut gma) = cross_setup();
        gma.apply(UpdateEvent::insert_object(
            ObjectId(0),
            NetPoint::new(EdgeId(1), 0.9),
        )); // east far
        gma.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(3), 0.5),
        )); // north
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            1,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        // NN is o0 at 1.4.
        assert_eq!(gma.result(QueryId(1)).unwrap()[0].object, ObjectId(0));
        // o1 moves close to the center on the north ray: d(q, o1) becomes
        // 0.5 + 0.1 = 0.6 < 1.4. The change reaches q via node 0's NN set.
        let rep = gma.tick(&UpdateBatch {
            objects: vec![ObjectEvent::Move {
                id: ObjectId(1),
                to: NetPoint::new(EdgeId(2), 0.1),
            }],
            ..Default::default()
        });
        assert_eq!(rep.results_changed, 1);
        let r = gma.result(QueryId(1)).unwrap();
        assert_eq!(r[0].object, ObjectId(1));
        assert!((r[0].dist - 0.6).abs() < 1e-12);
    }

    #[test]
    fn irrelevant_updates_ignored() {
        let (_, mut gma) = cross_setup();
        gma.apply(UpdateEvent::insert_object(
            ObjectId(0),
            NetPoint::new(EdgeId(0), 0.6),
        ));
        gma.apply(UpdateEvent::insert_object(
            ObjectId(9),
            NetPoint::new(EdgeId(7), 0.9),
        ));
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            1,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        let before = gma.result(QueryId(1)).unwrap().to_vec();
        // Far-west object wiggles far outside everything.
        let rep = gma.tick(&UpdateBatch {
            objects: vec![ObjectEvent::Move {
                id: ObjectId(9),
                to: NetPoint::new(EdgeId(7), 0.95),
            }],
            ..Default::default()
        });
        assert_eq!(rep.results_changed, 0);
        assert_eq!(gma.result(QueryId(1)).unwrap(), before.as_slice());
    }

    #[test]
    fn query_move_across_sequences() {
        let (_, mut gma) = cross_setup();
        gma.apply(UpdateEvent::insert_object(
            ObjectId(0),
            NetPoint::new(EdgeId(1), 0.5),
        ));
        gma.apply(UpdateEvent::insert_object(
            ObjectId(1),
            NetPoint::new(EdgeId(3), 0.5),
        ));
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            1,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        assert_eq!(gma.result(QueryId(1)).unwrap()[0].object, ObjectId(0));
        // Move to the north ray.
        gma.tick(&UpdateBatch {
            queries: vec![QueryEvent::Move {
                id: QueryId(1),
                to: NetPoint::new(EdgeId(2), 0.5),
            }],
            ..Default::default()
        });
        assert_eq!(gma.result(QueryId(1)).unwrap()[0].object, ObjectId(1));
        // Remove the query: center deactivates.
        gma.apply(UpdateEvent::remove_query(QueryId(1)));
        assert_eq!(gma.active_node_count(), 0);
    }

    #[test]
    fn edge_update_within_sequence() {
        let mut gma = line_setup();
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            2,
            NetPoint::new(EdgeId(2), 0.5),
        ));
        let rep = gma.tick(&UpdateBatch {
            edges: vec![EdgeWeightUpdate {
                edge: EdgeId(1),
                new_weight: 0.2,
            }],
            ..Default::default()
        });
        assert_eq!(rep.results_changed, 1);
        let r = gma.result(QueryId(1)).unwrap();
        // o1 (midpoint of shrunk edge 1) now at 0.5 + 0.1 = 0.6.
        assert_eq!(r[1].object, ObjectId(1));
        assert!((r[1].dist - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ring_network_cycle_sequence() {
        // Isolated ring: one cycle sequence, no active nodes ever.
        let net = Arc::new(generators::ring_network(8, 4.0));
        let mut gma = Gma::new(net.clone());
        for e in net.edge_ids() {
            gma.apply(UpdateEvent::insert_object(
                ObjectId(e.0),
                NetPoint::new(e, 0.5),
            ));
        }
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            3,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        assert_eq!(gma.active_node_count(), 0);
        let r = gma.result(QueryId(1)).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].object, ObjectId(0));
        assert_eq!(r[0].dist, 0.0);
        // Both ring neighbours are equidistant.
        assert!((r[1].dist - r[2].dist).abs() < 1e-9);
    }

    /// The exact answer for a query at `at`: every object's network
    /// distance from a fresh OVH monitor (k = all objects), cut to the k
    /// smallest `(dist, id)`.
    fn oracle(
        net: &Arc<RoadNetwork>,
        objects: &[(ObjectId, NetPoint)],
        at: NetPoint,
        k: usize,
    ) -> Vec<Neighbor> {
        let mut ovh = crate::ovh::Ovh::new(net.clone());
        for &(id, p) in objects {
            ovh.apply(UpdateEvent::insert_object(id, p));
        }
        ovh.apply(UpdateEvent::install_query(QueryId(0), objects.len(), at));
        let mut all = ovh.result(QueryId(0)).unwrap().to_vec();
        assert_eq!(all.len(), objects.len(), "OVH sees every object");
        crate::types::sort_neighbors(&mut all);
        all.truncate(k);
        all
    }

    /// Installs `objects` and one query per `(k, position)` into a fresh
    /// GMA, returning it. Query ids are the indices into `queries`.
    fn gma_with(
        net: &Arc<RoadNetwork>,
        objects: &[(ObjectId, NetPoint)],
        queries: &[(usize, NetPoint)],
    ) -> Gma {
        let mut gma = Gma::new(net.clone());
        for &(id, p) in objects {
            gma.apply(UpdateEvent::insert_object(id, p));
        }
        for (i, &(k, at)) in queries.iter().enumerate() {
            gma.apply(UpdateEvent::install_query(QueryId(i as u32), k, at));
        }
        gma
    }

    /// A lollipop: the cycle 0→1→2→3→0 hangs off junction 0, which also
    /// carries the stem 0→4→5, so node 0 has degree 3. The cycle's first
    /// edge is long (4 of the ring's 5.5), so for an object far along it
    /// the way around the ring is shorter than the direct way. All
    /// weights and positions are dyadic: every distance is exact.
    fn lollipop() -> Arc<RoadNetwork> {
        let mut b = rnn_roadnet::RoadNetworkBuilder::new();
        let n: Vec<NodeId> = (0..6).map(|i| b.add_node(f64::from(i), 0.0)).collect();
        b.add_edge(n[0], n[1], 4.0); // e0
        b.add_edge(n[1], n[2], 0.5); // e1
        b.add_edge(n[2], n[3], 0.5); // e2
        b.add_edge(n[3], n[0], 0.5); // e3
        b.add_edge(n[0], n[4], 1.0); // e4 (stem)
        b.add_edge(n[4], n[5], 1.0); // e5
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn lollipop_cycle_matches_fresh_ovh() {
        let net = lollipop();
        let s = gma_with(&net, &[], &[]);
        let seq = s.seqs.sequence(s.seqs.seq_of_edge(EdgeId(0)));
        assert!(seq.is_cycle() && net.degree(seq.start_node()) >= 3);

        let at = |e: u32, f: f64| NetPoint::new(EdgeId(e), f);
        let mut objects = vec![
            (ObjectId(1), at(0, 0.875)), // own edge, shorter around the ring
            (ObjectId(2), at(0, 0.25)),
            (ObjectId(3), at(1, 0.5)),
            (ObjectId(4), at(2, 0.5)),
            (ObjectId(5), at(3, 0.5)),
            (ObjectId(6), at(4, 0.5)),
            (ObjectId(7), at(5, 0.5)),
        ];
        let mut queries = vec![];
        for k in 1..=objects.len() {
            for q in [at(0, 0.125), at(0, 0.75), at(2, 0.25)] {
                queries.push((k, q));
            }
        }
        let mut gma = gma_with(&net, &objects, &queries);
        assert_eq!(gma.active_node_count(), 1, "only the junction activates");
        let check = |gma: &Gma, objects: &[(ObjectId, NetPoint)], ctx: &str| {
            for (i, &(k, q)) in queries.iter().enumerate() {
                let want = oracle(&net, objects, q, k);
                let got = gma.result(QueryId(i as u32)).unwrap();
                assert_eq!(got, want.as_slice(), "{ctx}: k={k} at {q:?}");
            }
        };
        check(&gma, &objects, "install");
        // Object 1 from q at e0@0.125: 3.0 directly, 0.5 + 1.5 + 0.5 = 2.5
        // around the ring.
        let r = gma.result(QueryId(18)).unwrap(); // k = 7, at e0@0.125
        let o1 = r
            .iter()
            .filter(|n| n.object == ObjectId(1))
            .collect::<Vec<_>>();
        assert_eq!(o1.len(), 1, "an object is reported once");
        assert_eq!(o1[0].dist, 2.5);

        // Maintenance: objects move around the ring and onto the stem.
        let moves = [(ObjectId(3), at(0, 0.5)), (ObjectId(6), at(3, 0.25))];
        gma.tick(&UpdateBatch {
            objects: moves
                .iter()
                .map(|&(id, to)| ObjectEvent::Move { id, to })
                .collect(),
            ..Default::default()
        });
        for (id, to) in moves {
            objects.iter_mut().find(|(o, _)| *o == id).unwrap().1 = to;
        }
        check(&gma, &objects, "after moves");
    }

    #[test]
    fn on_sequence_object_also_in_endpoint_list_keeps_shorter_distance() {
        let (net, _) = cross_setup();
        let at = |e: u32, f: f64| NetPoint::new(EdgeId(e), f);
        let objects = [
            (ObjectId(1), at(1, 0.5)),  // on q's sequence: 1.0 along it
            (ObjectId(2), at(3, 0.5)),  // north ray: 0.5 + 1.5
            (ObjectId(3), at(4, 0.25)), // south ray: 0.5 + 0.25
        ];
        let q = at(0, 0.5);
        let gma = gma_with(&net, &objects, &[(3, q)]);
        // The center's NN list holds object 1 at 1.5, so its stream offers
        // it at 0.5 + 1.5 = 2.0, after the walk's 1.0.
        let center = gma.nodes.get(gma.node_anchor[&NodeId(0)]).unwrap();
        assert!(center
            .result
            .iter()
            .any(|n| n.object == ObjectId(1) && n.dist == 1.5));
        let r = gma.result(QueryId(0)).unwrap();
        assert_eq!(r, oracle(&net, &objects, q, 3).as_slice());
        assert_eq!(
            r.iter().map(|n| (n.object, n.dist)).collect::<Vec<_>>(),
            [(ObjectId(3), 0.75), (ObjectId(1), 1.0), (ObjectId(2), 2.0)]
        );
    }

    #[test]
    fn tie_at_kth_distance_takes_the_smaller_id() {
        let (net, _) = cross_setup();
        let at = |e: u32, f: f64| NetPoint::new(EdgeId(e), f);
        let q = at(0, 0.5);
        // Both objects lie at exactly 1.0 from q: one on q's sequence
        // (found by the walk), one on the north ray (found through the
        // center's NN list). The smaller id wins either way round.
        for (walk_id, stream_id) in [(7, 3), (2, 9)] {
            let objects = [
                (ObjectId(walk_id), at(1, 0.5)),
                (ObjectId(stream_id), at(2, 0.5)),
            ];
            let gma = gma_with(&net, &objects, &[(1, q), (2, q)]);
            for (qid, k) in [(0, 1), (1, 2)] {
                let want = oracle(&net, &objects, q, k);
                assert_eq!(want[0].object, ObjectId(walk_id.min(stream_id)));
                assert_eq!(gma.result(QueryId(qid)).unwrap(), want.as_slice());
                assert_eq!(gma.knn_dist(QueryId(qid)), Some(1.0));
            }
        }
    }

    #[test]
    fn max_k_demand_drives_node_k() {
        let (_, mut gma) = cross_setup();
        for i in 0..8u32 {
            gma.apply(UpdateEvent::insert_object(
                ObjectId(i),
                NetPoint::new(EdgeId(i % 8), 0.4),
            ));
        }
        gma.apply(UpdateEvent::install_query(
            QueryId(1),
            1,
            NetPoint::new(EdgeId(0), 0.5),
        ));
        gma.apply(UpdateEvent::install_query(
            QueryId(2),
            5,
            NetPoint::new(EdgeId(1), 0.5),
        ));
        // Center node must monitor max(1, 5) = 5 NNs.
        let key = gma.node_anchor[&NodeId(0)];
        assert_eq!(gma.nodes.get(key).unwrap().k, 5);
        // The 5-NN query's result is complete.
        assert_eq!(gma.result(QueryId(2)).unwrap().len(), 5);
        // Removing the 5-NN query shrinks the node demand.
        gma.apply(UpdateEvent::remove_query(QueryId(2)));
        let key = gma.node_anchor[&NodeId(0)];
        assert_eq!(gma.nodes.get(key).unwrap().k, 1);
    }

    #[test]
    fn memory_reports_sequences() {
        let gma = line_setup();
        assert!(gma.memory().auxiliary > 0, "GMA carries the sequence table");
    }
}
