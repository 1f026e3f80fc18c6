//! Metrics of a run: one table row per metric (name, unit, direction,
//! what it should move, how it is computed), the text report and the
//! JSON result line.

use std::fmt::Write as _;

use rnn_core::{OpCounters, TransportStats};

use crate::stats::{drift_pct, median, quarter_medians, summarize, Summary};
use crate::workload::{EndState, Run, TickRec, EPISODE_TICKS};

/// The tail percentile the `*_p98_ms` metrics report. The open loop
/// yields 500–600 ticks per run, and p98 is the highest percentile that
/// leaves ten of 500 samples beyond it.
pub const TAIL: u32 = 98;

/// A run with its derived figures.
pub struct Agg<'a> {
    run: &'a Run,
    tick: Summary,
    fresh: Summary,
    total: OpCounters,
    /// Operations attempted: ticks, checked answers and submissions.
    pub attempted: u64,
    /// Wrong answers plus submissions lost or delivered to a dead shard.
    pub failed: u64,
    peak_rss_mb: f64,
}

impl<'a> Agg<'a> {
    /// Derives the figures of `run`.
    pub fn new(run: &'a Run) -> Agg<'a> {
        let ticks = &run.ticks;
        let col = |f: fn(&TickRec) -> f64| ticks.iter().map(f).collect::<Vec<_>>();
        let mut total = OpCounters::default();
        for t in ticks {
            total.merge(&t.counters);
        }
        let open = run.spec.open_loop();
        let dead: u64 = ticks
            .iter()
            .filter(|t| t.dead)
            .map(|t| if open { t.submits } else { t.events })
            .sum();
        let attempted = ticks.len() as u64 + run.checked + run.submitted;
        let failed = run.mismatched + run.rejected + total.shed_events + dead;
        Agg {
            run,
            tick: summarize(&col(|t| t.tick_ms), TAIL),
            fresh: summarize(&col(TickRec::fresh_ms), TAIL),
            total,
            attempted,
            failed,
            peak_rss_mb: peak_rss_mb(),
        }
    }

    fn n(&self) -> f64 {
        self.run.ticks.len() as f64
    }

    fn per_tick(&self, f: fn(&OpCounters) -> u64) -> f64 {
        f(&self.total) as f64 / self.n()
    }

    fn sum(&self, f: fn(&TickRec) -> f64) -> f64 {
        self.run.ticks.iter().map(f).sum()
    }

    fn median_of(&self, f: fn(&TickRec) -> f64) -> f64 {
        median(&self.run.ticks.iter().map(f).collect::<Vec<_>>())
    }

    fn submits(&self) -> f64 {
        self.run.ticks.iter().map(|t| t.submits).sum::<u64>() as f64
    }

    /// Mean of an end-of-episode gauge.
    fn end(&self, f: fn(&EndState) -> f64) -> f64 {
        let ends = &self.run.ends;
        ends.iter().map(f).sum::<f64>() / ends.len().max(1) as f64
    }

    /// A transport counter summed over the episodes.
    fn net_total(&self, f: fn(&TransportStats) -> u64) -> f64 {
        self.run.ends.iter().map(|e| f(&e.net)).sum::<u64>() as f64
    }

    fn net_per_tick(&self, f: fn(&TransportStats) -> u64) -> f64 {
        self.net_total(f) / self.n()
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// `VmHWM` of this process in MB (0 where /proc is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric: its name, unit, better direction, the end-to-end figures
/// it should move (per-layer metrics only), and how it is computed.
#[derive(Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// What a change in it should move.
    pub moves: &'static str,
    /// Its value for a run.
    pub value: fn(&Agg) -> f64,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    value: fn(&Agg) -> f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
        value,
    }
}

/// End-to-end metrics, measured with tracing off, each with a bound in
/// BENCHMARK.json. In a closed loop a batch falls due when it is handed
/// over, so freshness equals tick time there; in the open loop the tick
/// metrics time `tick_ingest` from its actual start.
pub const END_TO_END: &[Metric] = &[
    m("tick_p50_ms", "ms", "lower", "", |a| a.tick.p50),
    // Per episode, so a slow stretch of the host sways one episode of
    // many; the open loop counts raw reports.
    m("updates_per_s", "events/s", "higher", "", |a| {
        let open = a.run.spec.open_loop();
        let rates: Vec<f64> = a
            .run
            .ticks
            .chunks(EPISODE_TICKS)
            .map(|e| {
                let events: u64 = e
                    .iter()
                    .map(|t| if open { t.submits } else { t.events })
                    .sum();
                events as f64 * 1e3 / e.iter().map(|t| t.tick_ms).sum::<f64>()
            })
            .collect();
        median(&rates)
    }),
    m("fresh_p50_ms", "ms", "lower", "", |a| a.fresh.p50),
    m("setup_s", "s", "lower", "", |a| median(&a.run.setup_s)),
    m("peak_rss_mb", "MB", "lower", "", |a| a.peak_rss_mb),
];

/// The end-to-end tails. They are printed with the end-to-end metrics
/// but carried in the traced run's result without a bound: on a 2-vCPU
/// host, ENG-2's ticks above the median swing with the host's load, and
/// their run-to-run spread exceeds the largest bound a metric may have.
const TAILS: [Metric; 2] = [
    m("tick_p98_ms", "ms", "lower", "", |a| a.tick.tail),
    m("fresh_p98_ms", "ms", "lower", "", |a| a.fresh.tail),
];

const NOTHING: &str = "nothing: shows whether the generator or the schedule set a number";
const INGEST: &str = "fresh_p50_ms on firehose-cluster only";
const CORE: &str = "tick_p50_ms/updates_per_s on paper-gma and paper-eng2 (via engine.monitor_ms), fresh_p50_ms on firehose-cluster";
const CLUSTER: &str = "fresh_p50_ms/fresh_p98_ms on firehose-cluster";

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[Metric] = &[
    TAILS[0],
    TAILS[1],
    m("workload.gen_ms", "ms", "lower", NOTHING, |a| a.median_of(|t| t.gen_ms)),
    m("workload.late_p98_ms", "ms", "lower", NOTHING, |a| {
        if a.run.late_ms.is_empty() {
            0.0
        } else {
            summarize(&a.run.late_ms, TAIL).tail
        }
    }),
    m("ingest.submit_ns", "ns", "lower", INGEST, |a| {
        if a.submits() == 0.0 {
            0.0
        } else {
            a.sum(|t| t.submit_ms) * 1e6 / a.submits()
        }
    }),
    m("ingest.coalesced_frac", "fraction", "higher", INGEST, |a| {
        if a.submits() == 0.0 {
            0.0
        } else {
            a.total.coalesced_superseded as f64 / a.submits()
        }
    }),
    m("ingest.shed", "count", "lower", INGEST, |a| a.total.shed_events as f64),
    m("ingest.drain_allocs", "count", "lower", INGEST, |a| {
        a.total.drain_alloc_events as f64
    }),
    m("engine.tick_ms", "ms", "lower", "tick_p50_ms, fresh_p50_ms", |a| {
        a.median_of(|t| t.tick_ms)
    }),
    m("engine.monitor_ms", "ms", "lower", CORE, |a| a.median_of(|t| t.monitor_ms)),
    m(
        "engine.coord_ms",
        "ms",
        "lower",
        "tick_p50_ms/updates_per_s on paper-eng2, fresh_p50_ms on firehose-cluster; no change on paper-gma",
        |a| a.median_of(|t| t.tick_ms - t.monitor_ms),
    ),
    m("engine.coord_share", "fraction", "lower", "as engine.coord_ms", |a| {
        1.0 - a.sum(|t| t.monitor_ms) / a.sum(|t| t.tick_ms)
    }),
    m("engine.resync_per_tick", "count", "lower", "as engine.coord_ms", |a| {
        a.per_tick(|c| c.resync_touched)
    }),
    m("engine.evictions_per_tick", "count", "lower", "as engine.coord_ms", |a| {
        a.per_tick(|c| c.replica_evictions)
    }),
    m("engine.replicas", "count", "lower", "as engine.coord_ms", |a| a.end(|e| e.replicas)),
    m(
        "engine.load_ratio",
        "ratio",
        "lower",
        "tick_p98_ms on paper-eng2: the slowest shard sets the tick",
        |a| a.sum(|t| t.load_ratio) / a.n(),
    ),
    m("engine.tick_drift_pct", "%", "lower", "tick_p98_ms, fresh_p98_ms", |a| {
        drift_pct(&a.run.ticks.iter().map(|t| t.tick_ms).collect::<Vec<_>>(), EPISODE_TICKS)
    }),
    m("core.tick_ms", "ms", "lower", CORE, |a| a.median_of(|t| t.monitor_ms)),
    m("core.work_per_tick", "count", "lower", CORE, |a| a.per_tick(OpCounters::work)),
    m("core.reevals_per_tick", "count", "lower", CORE, |a| a.per_tick(|c| c.reevaluations)),
    // GMA tests each event at both the active-node and the query level,
    // so this ratio can reach 2.
    m("core.ignored_per_event", "ratio", "higher", CORE, |a| {
        let events = a.run.ticks.iter().map(|t| t.events).sum::<u64>() as f64;
        a.total.updates_ignored as f64 / events
    }),
    m("core.shared_per_tick", "count", "higher", CORE, |a| {
        a.per_tick(|c| c.shared_expansions)
    }),
    m("core.active_nodes", "count", "lower", CORE, |a| a.end(|e| e.active_nodes)),
    m("core.pruned_per_tick", "count", "lower", CORE, |a| a.per_tick(|c| c.tree_nodes_pruned)),
    m("core.recycled_per_tick", "count", "higher", CORE, |a| {
        a.per_tick(|c| c.tree_nodes_recycled)
    }),
    m("core.alloc_per_tick", "count", "lower", CORE, |a| a.per_tick(|c| c.alloc_events)),
    m("core.install_alloc_per_tick", "count", "lower", CORE, |a| {
        a.per_tick(|c| c.install_alloc_events)
    }),
    m("core.memory_kb", "KB", "lower", "peak_rss_mb", |a| a.end(|e| e.memory_kb)),
    m("roadnet.steps_per_tick", "count", "lower", CORE, |a| a.per_tick(|c| c.expansion_steps)),
    m("roadnet.settled_per_tick", "count", "lower", CORE, |a| a.per_tick(|c| c.nodes_settled)),
    m("roadnet.relaxations_per_tick", "count", "lower", CORE, |a| {
        a.per_tick(|c| c.relaxations)
    }),
    m("roadnet.edges_scanned_per_tick", "count", "lower", CORE, |a| {
        a.per_tick(|c| c.edges_scanned)
    }),
    m("cluster.frames_per_tick", "count", "lower", CLUSTER, |a| {
        a.net_per_tick(|n| n.frames_sent + n.frames_received)
    }),
    m("cluster.bytes_per_tick", "B", "lower", CLUSTER, |a| {
        a.net_per_tick(|n| n.bytes_sent + n.bytes_received)
    }),
    m("cluster.replica_bytes_per_tick", "B", "lower", CLUSTER, |a| {
        a.net_per_tick(|n| n.replica_bytes)
    }),
    m("cluster.commit_lag_frames", "count", "lower", CLUSTER, |a| {
        a.net_per_tick(|n| n.commit_lag_frames)
    }),
    m("cluster.retries", "count", "lower", CLUSTER, |a| a.net_total(|n| n.retries)),
    m("cluster.corrupt_frames", "count", "lower", CLUSTER, |a| {
        a.net_total(|n| n.corrupt_frames)
    }),
    m("cluster.snapshots", "count", "lower", "fresh_p98_ms on firehose-cluster (snapshot cadence)", |a| {
        a.net_total(|n| n.snapshots)
    }),
    m("cluster.snapshot_kb", "KB", "lower", "peak_rss_mb on firehose-cluster", |a| {
        a.end(|e| e.net.snapshot_bytes as f64) / 1024.0
    }),
    m("cluster.journal_len", "count", "lower", "peak_rss_mb on firehose-cluster", |a| {
        a.end(|e| e.net.journal_len as f64)
    }),
];

/// The metrics a run reports: end-to-end untraced, per-layer traced.
pub fn metrics(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The result line: every metric of `set` with its unit.
pub fn json_line(a: &Agg, set: &[Metric]) -> String {
    let metrics: Vec<String> = set
        .iter()
        .map(|m| {
            let v = (m.value)(a);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        a.failed == 0,
        a.attempted,
        a.failed,
        metrics.join(", ")
    )
}

/// The human-readable report printed above the result line.
pub fn text(a: &Agg) -> String {
    let run = a.run;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "workload {} ({} loop, scale {}), {} measured ticks in {:.2} s, traced: {}",
        run.spec.name,
        if run.spec.open_loop() {
            "open"
        } else {
            "closed"
        },
        run.spec.scale,
        run.ticks.len(),
        run.loop_s,
        run.traced
    );
    let _ = writeln!(
        w,
        "  tick:  p50 {:.3} ms, p{} {:.3} ms (n={})",
        a.tick.p50, a.tick.tail_p, a.tick.tail, a.tick.n
    );
    let _ = writeln!(
        w,
        "  fresh: p50 {:.3} ms, p{} {:.3} ms (n={})",
        a.fresh.p50, a.fresh.tail_p, a.fresh.tail, a.fresh.n
    );
    if a.tick.tail_p != TAIL {
        let _ = writeln!(
            w,
            "  note: too few ticks for p{TAIL}; the *_p{TAIL}_ms metrics hold p{}",
            a.tick.tail_p
        );
    }
    let _ = writeln!(
        w,
        "  set-up: median {:.4} s over {} episodes of {EPISODE_TICKS} ticks",
        median(&run.setup_s),
        run.setup_s.len()
    );
    let _ = writeln!(
        w,
        "  referee: {} answers checked, {} wrong{}",
        run.checked,
        run.mismatched,
        run.first_mismatch
            .as_deref()
            .map(|s| format!(" (first: {s})"))
            .unwrap_or_default()
    );
    if run.spec.open_loop() {
        let late: Vec<f64> = run.ticks.iter().map(|t| t.late_ms).collect();
        let (first, last) = quarter_medians(&late, EPISODE_TICKS).unwrap_or_default();
        let _ = writeln!(
            w,
            "  schedule: median tick start lateness {first:.3} ms in the first quarter of an episode, {last:.3} ms in the last; backlog: {}",
            if last > first + 1.0 { "YES (the system fell behind)" } else { "no" }
        );
    }
    let row = |w: &mut String, m: &Metric, note: &str| {
        let _ = writeln!(
            w,
            "  {:<32} {:>16.4} {:<9} {:<7}{note}",
            m.name,
            (m.value)(a),
            m.unit,
            m.better
        );
    };
    let _ = writeln!(
        w,
        "  {:<32} {:>16} {:<9} {:<7}",
        "end-to-end metric", "value", "unit", "better"
    );
    for m in END_TO_END {
        row(w, m, "");
    }
    for m in &TAILS {
        row(w, m, "(reported without a bound; see README.md)");
    }
    let _ = writeln!(
        w,
        "  {:<32} {:>16.6} {:<9} {:<7}({} failed of {} attempted)",
        "error_rate",
        a.error_rate(),
        "fraction",
        "lower",
        a.failed,
        a.attempted
    );
    if run.traced {
        let _ = writeln!(
            w,
            "  {:<32} {:>16} {:<9} {:<7}should move",
            "per-layer metric", "value", "unit", "better"
        );
        for m in &PER_LAYER[TAILS.len()..] {
            row(w, m, m.moves);
        }
    }
    if run.traced {
        out.push_str(&spans(a));
    }
    out
}

/// "Where a tick goes": the benchmark-side spans against the end-to-end
/// time they sit inside, with what no span covers.
fn spans(a: &Agg) -> String {
    let n = a.n();
    let mut out = format!("  where the time goes ({} ticks):\n", a.run.ticks.len());
    let w = &mut out;
    let mut row = |name: &str, total_ms: f64, of: f64, of_name: &str| {
        let _ = writeln!(
            w,
            "  {name:<30} {:>10.3} s {:>10.3} ms/tick {:>7.1}% of {of_name}",
            total_ms / 1e3,
            total_ms / n,
            100.0 * total_ms / of
        );
    };
    let tick = a.sum(|t| t.tick_ms);
    let monitor = a.sum(|t| t.monitor_ms);
    let gen = a.sum(|t| t.gen_ms);
    let submit = a.sum(|t| t.submit_ms);
    if a.run.spec.open_loop() {
        let fresh = a.sum(TickRec::fresh_ms);
        let late = a.sum(|t| t.late_ms);
        row("freshness", fresh, fresh, "freshness");
        row("  tick start lateness", late, fresh, "freshness");
        row("  tick (engine span)", tick, fresh, "freshness");
        row("    monitor critical path", monitor, tick, "tick");
        row("    engine self time", tick - monitor, tick, "tick");
        row("  unattributed", fresh - late - tick, fresh, "freshness");
        let window = a.run.loop_s * 1e3;
        row("producer thread (concurrent)", window, window, "producer");
        row("  generator", gen, window, "producer");
        row("  ingest submits", submit, window, "producer");
        row(
            "  idle until due (unattributed)",
            window - gen - submit,
            window,
            "producer",
        );
    } else {
        let wall = a.run.loop_s * 1e3;
        row("closed loop", wall, wall, "loop");
        row("  generator", gen, wall, "loop");
        row("  tick (engine span)", tick, wall, "loop");
        row("    monitor critical path", monitor, tick, "tick");
        row("    engine self time", tick - monitor, tick, "tick");
        row("  unattributed", wall - gen - tick, wall, "loop");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(json: &str, m: &Metric) -> bool {
        json.contains(&format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        ))
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(listed(&json, m), "{} missing from BENCHMARK.json", m.name);
        }
        // One extra per-layer metric comes from run.py: the tracing overhead.
        assert_eq!(json.matches("\"name\":").count(), all.len() + 3 + 1);
    }
}
