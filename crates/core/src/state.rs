//! **ET** (partially) — the dynamic network state shared by all monitors:
//! current edge weights and per-edge object lists (§3, edge table items
//! (iii) and (iv); endpoints and adjacency live in the immutable
//! [`RoadNetwork`], influence lists in [`crate::influence`]).
//!
//! Each monitor owns one [`NetworkState`] and applies the same
//! [`UpdateBatch`] to it, so that OVH / IMA / GMA can be driven side by side
//! from a single stream. Applying a batch also performs the paper's §4.5
//! preprocessing: multiple updates of one entity within a timestamp are
//! coalesced into a single `(first old value, last new value)` record.

use rnn_roadnet::{
    EdgeId, EdgeWeights, FxHashMap, NetPoint, ObjectId, QueryId, RoadNetwork, SpanArena,
};

use crate::types::{ObjectEvent, QueryEvent, UpdateBatch};

/// An object's position plus its index within its edge's arena span (the
/// positional back-reference that makes removal O(1) instead of a linear
/// scan of the edge list).
#[derive(Clone, Copy, Debug)]
struct ObjSlot {
    at: NetPoint,
    idx: u32,
}

/// Per-edge object lists plus the object → position table.
///
/// The per-edge lists live in one [`SpanArena`] (no per-edge `Vec`
/// allocations; steady-state ticks reuse spans), and each object's table
/// entry carries its index within its edge span, so removal is a
/// positional `swap_remove` — no scan of long edge lists.
#[derive(Clone, Debug, Default)]
pub struct ObjectIndex {
    per_edge: SpanArena<(ObjectId, f64)>,
    positions: FxHashMap<ObjectId, ObjSlot>,
}

impl ObjectIndex {
    /// Creates an index for `num_edges` edges.
    pub fn new(num_edges: usize) -> Self {
        Self {
            per_edge: SpanArena::new(num_edges),
            // lint: allow(hot-path-alloc): allocation at construction time; steady-state ticks only reuse this capacity
            positions: FxHashMap::default(),
        }
    }

    /// Inserts a new object. Returns `false` (and does nothing) if the id
    /// already exists.
    pub fn insert(&mut self, id: ObjectId, at: NetPoint) -> bool {
        if self.positions.contains_key(&id) {
            return false;
        }
        let idx = self.per_edge.push(at.edge.index(), (id, at.frac));
        self.positions.insert(
            id,
            ObjSlot {
                at,
                idx: idx as u32,
            },
        );
        true
    }

    /// Removes an object, returning its last position. O(1): the stored
    /// back-reference replaces the edge-list scan, and `swap_remove` fixes
    /// up the one displaced entry's back-reference.
    pub fn remove(&mut self, id: ObjectId) -> Option<NetPoint> {
        let slot = self.positions.remove(&id)?;
        let e = slot.at.edge.index();
        let removed = self.per_edge.swap_remove(e, slot.idx as usize);
        debug_assert_eq!(removed.0, id, "object list out of sync");
        if (slot.idx as usize) < self.per_edge.len_of(e) {
            let moved = self.per_edge.get(e)[slot.idx as usize].0;
            self.positions
                .get_mut(&moved)
                .expect("moved object must be registered")
                .idx = slot.idx;
        }
        Some(slot.at)
    }

    /// Moves an object, returning its previous position. Returns `None`
    /// (and does nothing) for unknown ids.
    pub fn relocate(&mut self, id: ObjectId, to: NetPoint) -> Option<NetPoint> {
        let old = self.remove(id)?;
        let idx = self.per_edge.push(to.edge.index(), (id, to.frac));
        self.positions.insert(
            id,
            ObjSlot {
                at: to,
                idx: idx as u32,
            },
        );
        Some(old)
    }

    /// Current position of `id`.
    #[inline]
    pub fn position(&self, id: ObjectId) -> Option<NetPoint> {
        self.positions.get(&id).map(|s| s.at)
    }

    /// Objects currently on edge `e`, as `(id, fraction)` pairs.
    #[inline]
    pub fn on_edge(&self, e: EdgeId) -> &[(ObjectId, f64)] {
        self.per_edge.get(e.index())
    }

    /// Number of objects in the system.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether there are no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Iterator over all `(id, position)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, NetPoint)> + '_ {
        self.positions.iter().map(|(&id, s)| (id, s.at))
    }

    /// Arena alloc events accumulated since the last take (backing-buffer
    /// reallocations; zero across a tick = the tick's object churn ran
    /// entirely in reused spans).
    pub fn take_alloc_events(&mut self) -> u64 {
        self.per_edge.take_alloc_events()
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.per_edge.memory_bytes()
            + self.positions.capacity()
                * (std::mem::size_of::<ObjectId>() + std::mem::size_of::<ObjSlot>())
    }
}

/// A coalesced object event with the old position resolved (§4.5
/// preprocessing).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObjectDelta {
    /// The object.
    pub id: ObjectId,
    /// Position before the tick (`None` = the object just appeared).
    pub old: Option<NetPoint>,
    /// Position after the tick (`None` = the object disappeared).
    pub new: Option<NetPoint>,
}

/// A coalesced edge-weight change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeDelta {
    /// The edge.
    pub edge: EdgeId,
    /// Weight before the tick.
    pub old_w: f64,
    /// Weight after the tick.
    pub new_w: f64,
}

/// A coalesced query event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryDelta {
    /// The query.
    pub id: QueryId,
    /// `(k, position)` before the tick (`None` = just installed).
    pub old: Option<(usize, NetPoint)>,
    /// `(k, position)` after the tick (`None` = terminated).
    pub new: Option<(usize, NetPoint)>,
}

/// The effects of one batch after §4.5 preprocessing, with old values
/// captured *before* the state mutation.
#[derive(Clone, Debug, Default)]
pub struct CoalescedTick {
    /// Net object movements/appearances/disappearances (no-op events, e.g.
    /// insert+delete in the same tick, are dropped).
    pub objects: Vec<ObjectDelta>,
    /// Net edge weight changes (`old_w != new_w`).
    pub edges: Vec<EdgeDelta>,
    /// Net query movements/installs/removals.
    pub queries: Vec<QueryDelta>,
}

/// The per-entity folding tables of [`NetworkState::apply_batch`]: each
/// entity's final value in the batch plus the order of first appearance.
/// Cleared at the start of every batch, never released, so steady-state
/// batches coalesce in reused capacity.
#[derive(Default)]
struct CoalesceScratch {
    obj_final: FxHashMap<ObjectId, Option<NetPoint>>,
    obj_order: Vec<ObjectId>,
    edge_final: FxHashMap<EdgeId, f64>,
    edge_order: Vec<EdgeId>,
    qry_final: FxHashMap<QueryId, Option<(usize, NetPoint)>>,
    qry_order: Vec<QueryId>,
}

/// Dynamic network state: weights + object index.
pub struct NetworkState {
    /// Current edge weights.
    pub weights: EdgeWeights,
    /// Current object placement.
    pub objects: ObjectIndex,
    /// Registered queries: id → (k, position). Maintained here so every
    /// monitor coalesces query events identically.
    pub queries: FxHashMap<QueryId, (usize, NetPoint)>,
    scratch: CoalesceScratch,
}

impl NetworkState {
    /// Fresh state over `net` with base weights and no objects.
    pub fn new(net: &RoadNetwork) -> Self {
        Self {
            weights: EdgeWeights::from_base(net),
            objects: ObjectIndex::new(net.num_edges()),
            // lint: allow(hot-path-alloc): allocation at construction time; steady-state ticks only reuse this capacity
            queries: FxHashMap::default(),
            scratch: CoalesceScratch::default(),
        }
    }

    /// Applies a raw batch: coalesces per-entity events (§4.5), mutates the
    /// state, and returns the deltas (old values captured pre-mutation).
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> CoalescedTick {
        let mut out = CoalescedTick::default();
        let CoalesceScratch {
            obj_final,
            obj_order,
            edge_final,
            edge_order,
            qry_final,
            qry_order,
        } = &mut self.scratch;

        // --- Objects: fold the event sequence per id into a final state.
        obj_final.clear();
        obj_order.clear();
        for ev in &batch.objects {
            let (id, new) = match *ev {
                ObjectEvent::Move { id, to } => (id, Some(to)),
                ObjectEvent::Insert { id, at } => (id, Some(at)),
                ObjectEvent::Delete { id } => (id, None),
            };
            if obj_final.insert(id, new).is_none() {
                obj_order.push(id);
            }
        }
        for &id in obj_order.iter() {
            let new = obj_final[&id];
            let old = self.objects.position(id);
            match (old, new) {
                (None, None) => continue, // appeared and vanished within the tick
                (Some(o), Some(n)) if o == n => continue, // no net movement
                (None, Some(n)) => {
                    self.objects.insert(id, n);
                }
                (Some(_), Some(n)) => {
                    self.objects.relocate(id, n);
                }
                (Some(_), None) => {
                    self.objects.remove(id);
                }
            }
            out.objects.push(ObjectDelta { id, old, new });
        }

        // --- Edges: last weight wins.
        edge_final.clear();
        edge_order.clear();
        for u in &batch.edges {
            if edge_final.insert(u.edge, u.new_weight).is_none() {
                edge_order.push(u.edge);
            }
        }
        for &e in edge_order.iter() {
            let new_w = edge_final[&e];
            let old_w = self.weights.get(e);
            if new_w == old_w {
                continue;
            }
            self.weights.set(e, new_w);
            out.edges.push(EdgeDelta {
                edge: e,
                old_w,
                new_w,
            });
        }

        // --- Queries.
        qry_final.clear();
        qry_order.clear();
        for ev in &batch.queries {
            let (id, new) = match *ev {
                QueryEvent::Move { id, to } => {
                    // Keep current k; a move of an unknown query is invalid
                    // and will surface as (None -> Some) with k below.
                    let k = qry_final
                        .get(&id)
                        .copied()
                        .flatten()
                        .map(|(k, _)| k)
                        .or_else(|| self.queries.get(&id).map(|&(k, _)| k));
                    match k {
                        Some(k) => (id, Some((k, to))),
                        None => continue, // move of a query that never existed: drop
                    }
                }
                QueryEvent::Install { id, k, at } => (id, Some((k, at))),
                QueryEvent::Remove { id } => (id, None),
            };
            if qry_final.insert(id, new).is_none() {
                qry_order.push(id);
            }
        }
        for &id in qry_order.iter() {
            let new = qry_final[&id];
            let old = self.queries.get(&id).copied();
            match (old, new) {
                (None, None) => continue,
                (Some(o), Some(n)) if o == n => continue,
                (_, Some(n)) => {
                    self.queries.insert(id, n);
                }
                (Some(_), None) => {
                    self.queries.remove(&id);
                }
            }
            out.queries.push(QueryDelta { id, old, new });
        }

        out
    }

    /// Approximate resident bytes of the dynamic state.
    pub fn memory_bytes(&self) -> usize {
        self.weights.memory_bytes()
            + self.objects.memory_bytes()
            + self.queries.capacity()
                * (std::mem::size_of::<QueryId>() + std::mem::size_of::<(usize, NetPoint)>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EdgeWeightUpdate;
    use rnn_roadnet::generators::line_network;

    fn state() -> NetworkState {
        NetworkState::new(&line_network(4, 1.0)) // 3 edges
    }

    #[test]
    fn object_lifecycle() {
        let mut s = state();
        assert!(s.objects.insert(ObjectId(1), NetPoint::new(EdgeId(0), 0.5)));
        assert!(
            !s.objects.insert(ObjectId(1), NetPoint::new(EdgeId(1), 0.5)),
            "dup insert"
        );
        assert_eq!(s.objects.len(), 1);
        assert_eq!(s.objects.on_edge(EdgeId(0)).len(), 1);

        let old = s
            .objects
            .relocate(ObjectId(1), NetPoint::new(EdgeId(2), 0.25))
            .unwrap();
        assert_eq!(old.edge, EdgeId(0));
        assert!(s.objects.on_edge(EdgeId(0)).is_empty());
        assert_eq!(s.objects.on_edge(EdgeId(2)), &[(ObjectId(1), 0.25)]);

        let last = s.objects.remove(ObjectId(1)).unwrap();
        assert_eq!(last.edge, EdgeId(2));
        assert!(s.objects.is_empty());
        assert!(s.objects.remove(ObjectId(1)).is_none());
    }

    #[test]
    fn batch_coalesces_multiple_object_moves() {
        let mut s = state();
        s.objects.insert(ObjectId(7), NetPoint::new(EdgeId(0), 0.1));
        let batch = UpdateBatch {
            objects: vec![
                ObjectEvent::Move {
                    id: ObjectId(7),
                    to: NetPoint::new(EdgeId(1), 0.5),
                },
                ObjectEvent::Move {
                    id: ObjectId(7),
                    to: NetPoint::new(EdgeId(2), 0.9),
                },
            ],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert_eq!(tick.objects.len(), 1, "two moves coalesce into one delta");
        let d = tick.objects[0];
        assert_eq!(d.old.unwrap().edge, EdgeId(0));
        assert_eq!(d.new.unwrap().edge, EdgeId(2));
        assert_eq!(s.objects.position(ObjectId(7)).unwrap().edge, EdgeId(2));
    }

    #[test]
    fn batch_insert_then_delete_is_noop() {
        let mut s = state();
        let batch = UpdateBatch {
            objects: vec![
                ObjectEvent::Insert {
                    id: ObjectId(3),
                    at: NetPoint::new(EdgeId(1), 0.5),
                },
                ObjectEvent::Delete { id: ObjectId(3) },
            ],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert!(tick.objects.is_empty());
        assert!(s.objects.is_empty());
    }

    #[test]
    fn batch_coalesces_edge_updates_and_drops_noops() {
        let mut s = state();
        let batch = UpdateBatch {
            edges: vec![
                EdgeWeightUpdate {
                    edge: EdgeId(0),
                    new_weight: 2.0,
                },
                EdgeWeightUpdate {
                    edge: EdgeId(0),
                    new_weight: 3.0,
                },
                EdgeWeightUpdate {
                    edge: EdgeId(1),
                    new_weight: 1.0,
                }, // == old
            ],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert_eq!(tick.edges.len(), 1);
        assert_eq!(
            tick.edges[0],
            EdgeDelta {
                edge: EdgeId(0),
                old_w: 1.0,
                new_w: 3.0
            }
        );
        assert_eq!(s.weights.get(EdgeId(0)), 3.0);
        assert_eq!(s.weights.get(EdgeId(1)), 1.0);
    }

    #[test]
    fn batch_query_lifecycle() {
        let mut s = state();
        let batch = UpdateBatch {
            queries: vec![QueryEvent::Install {
                id: QueryId(1),
                k: 3,
                at: NetPoint::new(EdgeId(0), 0.5),
            }],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert_eq!(tick.queries.len(), 1);
        assert!(tick.queries[0].old.is_none());
        assert_eq!(tick.queries[0].new.unwrap().0, 3);

        // Move keeps k.
        let batch = UpdateBatch {
            queries: vec![QueryEvent::Move {
                id: QueryId(1),
                to: NetPoint::new(EdgeId(2), 0.1),
            }],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert_eq!(
            tick.queries[0].new.unwrap(),
            (3, NetPoint::new(EdgeId(2), 0.1))
        );

        // Remove.
        let batch = UpdateBatch {
            queries: vec![QueryEvent::Remove { id: QueryId(1) }],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert!(tick.queries[0].new.is_none());
        assert!(s.queries.is_empty());
    }

    #[test]
    fn move_of_unknown_query_is_dropped() {
        let mut s = state();
        let batch = UpdateBatch {
            queries: vec![QueryEvent::Move {
                id: QueryId(9),
                to: NetPoint::new(EdgeId(0), 0.5),
            }],
            ..Default::default()
        };
        let tick = s.apply_batch(&batch);
        assert!(tick.queries.is_empty());
    }

    #[test]
    fn memory_accounting_nonzero() {
        let mut s = state();
        s.objects.insert(ObjectId(1), NetPoint::new(EdgeId(0), 0.5));
        assert!(s.memory_bytes() > 0);
    }
}
