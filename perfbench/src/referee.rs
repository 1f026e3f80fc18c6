//! The answer referee: a fresh OVH rebuilt from the state the
//! benchmark itself tracked, compared query by query with the monitor
//! under test.

use std::sync::Arc;

use rnn_core::{
    ContinuousMonitor, Neighbor, ObjectEvent, Ovh, QueryEvent, UpdateBatch, UpdateEvent,
};
use rnn_roadnet::{EdgeWeights, NetPoint, ObjectId, QueryId, RoadNetwork};

/// Relative tolerance on distances (the rule of `tests/differential.rs`).
const REL_TOL: f64 = 1e-9;

/// Whether two distances agree within [`REL_TOL`]; two infinities agree.
pub fn dist_eq(a: f64, b: f64) -> bool {
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Whether two k-NN answers agree: the same number of neighbours, sorted
/// distance vectors equal within tolerance (so tied objects may differ),
/// and equal `kNN_dist`.
pub fn answers_match(a: &[Neighbor], a_knn: f64, b: &[Neighbor], b_knn: f64) -> bool {
    let sorted = |v: &[Neighbor]| {
        let mut d: Vec<f64> = v.iter().map(|n| n.dist).collect();
        d.sort_by(f64::total_cmp);
        d
    };
    a.len() == b.len()
        && sorted(a)
            .iter()
            .zip(&sorted(b))
            .all(|(&x, &y)| dist_eq(x, y))
        && dist_eq(a_knn, b_knn)
}

/// Object and query positions as the benchmark fed them.
#[derive(Clone, Debug, Default)]
pub struct Tracker {
    objects: Vec<Option<NetPoint>>,
    queries: Vec<Option<(usize, NetPoint)>>,
}

fn slot<T>(v: &mut Vec<Option<T>>, i: usize) -> &mut Option<T> {
    if v.len() <= i {
        v.resize_with(i + 1, || None);
    }
    &mut v[i]
}

impl Tracker {
    /// Records one event.
    pub fn apply(&mut self, ev: UpdateEvent) {
        match ev {
            UpdateEvent::Object(
                ObjectEvent::Insert { id, at } | ObjectEvent::Move { id, to: at },
            ) => {
                *slot(&mut self.objects, id.index()) = Some(at);
            }
            UpdateEvent::Object(ObjectEvent::Delete { id }) => {
                *slot(&mut self.objects, id.index()) = None
            }
            UpdateEvent::Query(QueryEvent::Install { id, k, at }) => {
                *slot(&mut self.queries, id.index()) = Some((k, at));
            }
            UpdateEvent::Query(QueryEvent::Move { id, to }) => {
                if let Some((_, at)) = slot(&mut self.queries, id.index()) {
                    *at = to;
                }
            }
            UpdateEvent::Query(QueryEvent::Remove { id }) => {
                *slot(&mut self.queries, id.index()) = None
            }
            // Weights are read from the generator at check time.
            UpdateEvent::Edge(_) => {}
        }
    }

    /// Records every event of one timestamp's batch.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) {
        let objects = batch.objects.iter().map(|&e| UpdateEvent::Object(e));
        let queries = batch.queries.iter().map(|&e| UpdateEvent::Query(e));
        for ev in objects.chain(queries) {
            self.apply(ev);
        }
    }

    /// Tracked queries.
    pub fn num_queries(&self) -> usize {
        self.queries.iter().flatten().count()
    }

    /// Builds a fresh OVH over `net` with `weights`, the tracked objects
    /// and the tracked queries.
    pub fn oracle(&self, net: &Arc<RoadNetwork>, weights: &EdgeWeights) -> Ovh {
        let mut batch = UpdateBatch::default();
        for e in net.edge_ids() {
            let w = weights.get(e);
            if w != net.edge(e).base_weight {
                batch.push(UpdateEvent::edge(e, w));
            }
        }
        for (i, at) in self.objects.iter().enumerate() {
            if let Some(at) = *at {
                batch.push(UpdateEvent::insert_object(ObjectId::from_index(i), at));
            }
        }
        for (i, q) in self.queries.iter().enumerate() {
            if let Some((k, at)) = *q {
                batch.push(UpdateEvent::install_query(QueryId::from_index(i), k, at));
            }
        }
        let mut ovh = Ovh::new(net.clone());
        ovh.tick(&batch);
        ovh
    }

    /// Compares every tracked query's answer in `monitor` with a fresh
    /// OVH's. Returns the number of mismatching queries and a description
    /// of the first one.
    pub fn check(
        &self,
        net: &Arc<RoadNetwork>,
        weights: &EdgeWeights,
        monitor: &dyn ContinuousMonitor,
    ) -> (usize, Option<String>) {
        let oracle = self.oracle(net, weights);
        let mut bad = 0;
        let mut first = None;
        let mut note = |what: String| {
            bad += 1;
            first.get_or_insert(what);
        };
        let tracked = self.num_queries();
        let registered = monitor.query_ids().len();
        if registered != tracked {
            note(format!(
                "{registered} queries registered, {tracked} tracked"
            ));
        }
        for (i, q) in self.queries.iter().enumerate() {
            if q.is_none() {
                continue;
            }
            let id = QueryId::from_index(i);
            let want = (
                oracle.result(id).unwrap_or(&[]),
                oracle.knn_dist(id).unwrap_or(f64::NAN),
            );
            match (monitor.result(id), monitor.knn_dist(id)) {
                (Some(got), Some(knn)) if answers_match(got, knn, want.0, want.1) => {}
                (got, knn) => note(format!(
                    "query {i}: kNN_dist {knn:?} with {} neighbours, oracle {} with {}",
                    got.map_or(0, <[Neighbor]>::len),
                    want.1,
                    want.0.len()
                )),
            }
        }
        (bad, first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(object: u32, dist: f64) -> Neighbor {
        Neighbor {
            object: ObjectId(object),
            dist,
        }
    }

    #[test]
    fn ties_may_swap_objects() {
        let a = [nb(1, 1.0), nb(2, 2.0), nb(3, 2.0)];
        let b = [nb(1, 1.0), nb(4, 2.0), nb(2, 2.0 + 1e-12)];
        assert!(answers_match(&a, 2.0, &b, 2.0));
    }

    #[test]
    fn distance_or_size_differences_fail() {
        let a = [nb(1, 1.0), nb(2, 2.0)];
        assert!(!answers_match(&a, 2.0, &[nb(1, 1.0), nb(2, 2.1)], 2.1));
        assert!(!answers_match(&a, 2.0, &[nb(1, 1.0)], 2.0));
        assert!(!answers_match(&a, 2.0, &a, 2.5));
    }

    /// A GMA that misreports one query's `kNN_dist`.
    struct Liar(rnn_core::Gma);

    impl ContinuousMonitor for Liar {
        fn name(&self) -> &'static str {
            "LIAR"
        }
        fn tick(&mut self, batch: &UpdateBatch) -> rnn_core::TickReport {
            self.0.tick(batch)
        }
        fn result(&self, id: QueryId) -> Option<&[Neighbor]> {
            self.0.result(id)
        }
        fn knn_dist(&self, id: QueryId) -> Option<f64> {
            let d = self.0.knn_dist(id)?;
            Some(if id.index() == 3 { d * 1.01 } else { d })
        }
        fn query_ids(&self) -> Vec<QueryId> {
            self.0.query_ids()
        }
        fn memory(&self) -> rnn_core::MemoryUsage {
            self.0.memory()
        }
    }

    #[test]
    fn referee_passes_gma_and_catches_a_wrong_answer() {
        let net = Arc::new(rnn_roadnet::generators::san_francisco_like(200, 1));
        let cfg = rnn_workload::ScenarioConfig {
            num_objects: 400,
            num_queries: 12,
            k: 5,
            seed: 9,
            ..Default::default()
        };
        let mut scenario = rnn_workload::Scenario::new(net.clone(), cfg);
        let mut gma = Liar(rnn_core::Gma::new(net.clone()));
        scenario.install_into(&mut gma);
        let mut tracker = Tracker::default();
        for (id, at) in scenario.initial_objects() {
            tracker.apply(UpdateEvent::insert_object(id, at));
        }
        for (id, k, at) in scenario.initial_queries() {
            tracker.apply(UpdateEvent::install_query(id, k, at));
        }
        for _ in 0..5 {
            let batch = scenario.tick();
            gma.tick(&batch);
            tracker.apply_batch(&batch);
        }
        let (bad, first) = tracker.check(&net, scenario.weights(), &gma);
        assert_eq!(bad, 1, "{first:?}");
        assert!(first.unwrap().starts_with("query 3:"));
        let (bad, first) = tracker.check(&net, scenario.weights(), &gma.0);
        assert_eq!(bad, 0, "{first:?}");
    }

    #[test]
    fn infinite_knn_dist_matches_only_infinity() {
        let a = [nb(1, 1.0)];
        assert!(answers_match(&a, f64::INFINITY, &a, f64::INFINITY));
        assert!(!answers_match(&a, f64::INFINITY, &a, 1e300));
        assert!(!answers_match(&a, 1.0, &a, f64::INFINITY));
        assert!(dist_eq(0.0, 0.0));
    }
}
