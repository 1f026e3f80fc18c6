//! The three workloads: how each system is set up, fed and timed.
//!
//! Every span is taken here, around calls into the crates' public API;
//! nothing is timed inside the program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rnn_cluster::{ClusterEngine, DurabilityConfig, FaultPlan, RetryPolicy};
use rnn_core::{ContinuousMonitor, Gma, OpCounters, TickReport, TransportStats, UpdateEvent};
use rnn_engine::{AdmissionPolicy, EngineConfig, IngestConfig, ReplicationConfig, ShardedEngine};
use rnn_roadnet::{generators, EdgeWeights, RoadNetwork};
use rnn_workload::{Firehose, FirehoseConfig, FirehosePattern, Scenario, ScenarioConfig};

use crate::referee::Tracker;

/// The network is the same for every seed, as the paper runs every
/// experiment on one map; `--seed` drives placements and movement.
const MAP_SEED: u64 = 42;
/// Measured timestamps per episode. A run repeats episodes, each with a
/// fresh set-up on its own seed, until its time is up; so a faster
/// program runs more episodes of the same stream, not later and costlier
/// timestamps of one stream.
pub const EPISODE_TICKS: usize = 100;
/// Untimed ticks after set-up, so one-off growth is not measured.
const WARMUP_TICKS: usize = 5;
/// The referee checks every answer after this many ticks of the first
/// episode.
const CHECKPOINT: usize = 10;

/// Whether the referee checks after measured tick `i` (from 1) of the
/// run's `episode`-th episode (from 1): early in the first episode, and
/// at the end of episodes 1, 2, 4, 8, … and of the run's `last`.
fn is_checkpoint(episode: usize, i: usize, last: bool) -> bool {
    (episode == 1 && i == CHECKPOINT) || (i == EPISODE_TICKS && (episode.is_power_of_two() || last))
}

/// How a workload drives its system.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Closed loop, one bare GMA monitor.
    Gma,
    /// Closed loop, the in-process sharded engine with GMA shards.
    Engine {
        /// Shard count.
        shards: usize,
    },
    /// Open loop: an oversampled firehose submitted on a schedule into a
    /// loopback cluster with quorum replication and snapshots.
    Cluster {
        /// Shard count.
        shards: usize,
        /// Follower replicas per shard (majority quorum).
        replicas: u32,
        /// Snapshot cadence in journaled event frames.
        snapshot_every: u32,
        /// Tick period: each window's reports fall due evenly across it.
        period: Duration,
    },
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Table 2 scale (1.0 = 10K edges, 100K objects, 5K queries).
    pub scale: f64,
    /// How the system is driven.
    pub kind: Kind,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "paper-gma",
        scale: 0.3,
        kind: Kind::Gma,
    },
    Spec {
        name: "paper-eng2",
        scale: 0.3,
        kind: Kind::Engine { shards: 2 },
    },
    Spec {
        name: "firehose-cluster",
        scale: 0.2,
        kind: Kind::Cluster {
            shards: 2,
            replicas: 2,
            snapshot_every: 64,
            period: Duration::from_millis(50),
        },
    },
];

impl Spec {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        WORKLOADS.iter().find(|s| s.name == name).copied()
    }

    /// The same workload at `scale`, with the open-loop period shrunk in
    /// proportion (for smoke tests).
    #[cfg(test)]
    pub fn at_scale(mut self, scale: f64) -> Spec {
        if let Kind::Cluster { period, .. } = &mut self.kind {
            *period = period.mul_f64(scale / self.scale);
        }
        self.scale = scale;
        self
    }

    /// Whether the workload runs on a schedule.
    pub fn open_loop(&self) -> bool {
        matches!(self.kind, Kind::Cluster { .. })
    }

    fn scenario_config(&self, seed: u64) -> ScenarioConfig {
        let d = ScenarioConfig::default();
        let s = |x: usize| ((x as f64 * self.scale).round() as usize).max(8);
        ScenarioConfig {
            num_objects: s(d.num_objects),
            num_queries: s(d.num_queries),
            seed,
            ..d
        }
    }

    fn network(&self) -> Arc<RoadNetwork> {
        let edges = ((10_000.0 * self.scale).round() as usize).max(8);
        Arc::new(generators::san_francisco_like(edges, MAP_SEED))
    }
}

/// The system under test.
enum System {
    Gma(Box<Gma>),
    Engine(Box<ShardedEngine>),
    Cluster(Box<ClusterEngine>),
}

impl System {
    fn monitor(&self) -> &dyn ContinuousMonitor {
        match self {
            System::Gma(m) => m.as_ref(),
            System::Engine(e) => e.as_ref(),
            System::Cluster(c) => c.as_ref(),
        }
    }

    fn monitor_mut(&mut self) -> &mut dyn ContinuousMonitor {
        match self {
            System::Gma(m) => m.as_mut(),
            System::Engine(e) => e.as_mut(),
            System::Cluster(c) => c.as_mut(),
        }
    }

    fn engine_view(&self) -> Option<(TickReport, usize, usize, usize)> {
        match self {
            System::Gma(_) => None,
            System::Engine(e) => Some((
                e.worker_report(),
                e.live_shards(),
                e.num_shards(),
                e.replica_count(),
            )),
            System::Cluster(c) => {
                let e = c.engine();
                Some((
                    e.worker_report(),
                    e.live_shards(),
                    e.num_shards(),
                    e.replica_count(),
                ))
            }
        }
    }

    fn dead_shard(&self) -> bool {
        self.engine_view().is_some_and(|(_, live, n, _)| live < n)
    }

    fn cluster(&mut self) -> &mut ClusterEngine {
        match self {
            System::Cluster(c) => c,
            _ => unreachable!("only the open loop asks for the cluster"),
        }
    }
}

/// The feed of a closed-loop run or of the open-loop producer.
enum Feed {
    Plain(Box<Scenario>),
    Fire(Box<Firehose>),
}

impl Feed {
    fn scenario(&self) -> &Scenario {
        match self {
            Feed::Plain(s) => s,
            Feed::Fire(f) => f.scenario(),
        }
    }
}

/// Builds the network, the system and the feed, and installs every
/// object and query: everything before the first tick.
fn setup(spec: &Spec, seed: u64) -> (System, Feed, Arc<RoadNetwork>) {
    let net = spec.network();
    let cfg = spec.scenario_config(seed);
    let mut system = match spec.kind {
        Kind::Gma => System::Gma(Box::new(Gma::new(net.clone()))),
        Kind::Engine { shards } => System::Engine(Box::new(ShardedEngine::new(
            net.clone(),
            EngineConfig::with_shards(shards),
        ))),
        Kind::Cluster {
            shards,
            replicas,
            snapshot_every,
            ..
        } => {
            // Lanes sized far above a window's reports, so blocking
            // admission never parks the producer and nothing is shed.
            let cfg = EngineConfig {
                ingest: IngestConfig {
                    capacity: 1 << 16,
                    policy: AdmissionPolicy::Block,
                    ..IngestConfig::default()
                },
                replication: ReplicationConfig::with_replicas(replicas),
                ..EngineConfig::with_shards(shards)
            };
            System::Cluster(Box::new(ClusterEngine::loopback_durable(
                net.clone(),
                cfg,
                &[FaultPlan::default()],
                RetryPolicy::default(),
                DurabilityConfig::in_memory(snapshot_every),
            )))
        }
    };
    let feed = if spec.open_loop() {
        Feed::Fire(Box::new(Firehose::new(
            net.clone(),
            FirehoseConfig::new(FirehosePattern::CommuteWave, cfg),
        )))
    } else {
        Feed::Plain(Box::new(Scenario::new(net.clone(), cfg)))
    };
    feed.scenario().install_into(system.monitor_mut());
    (system, feed, net)
}

/// What one measured tick did.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickRec {
    /// Wall time of the tick call.
    pub tick_ms: f64,
    /// How late the tick started against its schedule (open loop only).
    pub late_ms: f64,
    /// Generator call for this timestamp (traced).
    pub gen_ms: f64,
    /// Time spent in ingest submit calls for this window (traced).
    pub submit_ms: f64,
    /// Reports submitted for this window.
    pub submits: u64,
    /// Events in the timestamp's effective batch.
    pub events: u64,
    /// Monitor critical path of the tick (traced): the engine's worker
    /// report, or the bare monitor's own elapsed time.
    pub monitor_ms: f64,
    /// Max/mean shard load after the tick (traced; 0 without shards).
    pub load_ratio: f64,
    /// Whether a shard was dead after the tick.
    pub dead: bool,
    /// The tick's counters, ingest drain included.
    pub counters: OpCounters,
}

impl TickRec {
    /// Due time of the window's last report to the tick's return.
    pub fn fresh_ms(&self) -> f64 {
        self.late_ms + self.tick_ms
    }
}

/// Whole-system state read at the end of an episode (traced).
#[derive(Clone, Copy, Debug, Default)]
pub struct EndState {
    /// Monitor memory in KB.
    pub memory_kb: f64,
    /// GMA active nodes (summed over shards).
    pub active_nodes: f64,
    /// Object replicas held by non-owner shards.
    pub replicas: f64,
    /// Transport counters over the measured ticks (gauges as at the end).
    pub net: TransportStats,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    /// The workload.
    pub spec: Spec,
    /// Whether per-layer spans and counters were recorded.
    pub traced: bool,
    /// Seconds per set-up, one per episode.
    pub setup_s: Vec<f64>,
    /// Measured ticks in order, [`EPISODE_TICKS`] per episode.
    pub ticks: Vec<TickRec>,
    /// Wall time of the measured loops, set-ups and referee excluded.
    pub loop_s: f64,
    /// Producer lateness samples in ms (open loop: one per submit burst).
    pub late_ms: Vec<f64>,
    /// Answers the referee compared.
    pub checked: u64,
    /// Answers that disagreed with the referee.
    pub mismatched: u64,
    /// The first disagreement.
    pub first_mismatch: Option<String>,
    /// Reports submitted (open loop).
    pub submitted: u64,
    /// Submissions refused by the ingest stage.
    pub rejected: u64,
    /// State at the end of each episode (traced).
    pub ends: Vec<EndState>,
    /// The run's budget of measured seconds.
    seconds: f64,
}

impl Run {
    fn referee(
        &mut self,
        tracker: &Tracker,
        net: &Arc<RoadNetwork>,
        w: &EdgeWeights,
        system: &System,
    ) {
        let (bad, first) = tracker.check(net, w, system.monitor());
        self.checked += tracker.num_queries() as u64;
        self.mismatched += bad as u64;
        if self.first_mismatch.is_none() {
            self.first_mismatch = first;
        }
    }

    fn finish_episode(&mut self, system: &System, net_base: TransportStats) {
        if !self.traced {
            return;
        }
        let m = system.monitor();
        // Transport counters first: `memory()` ships requests of its own.
        let mut net = m.transport_stats().unwrap_or_default();
        for (now, base) in [
            (&mut net.frames_sent, net_base.frames_sent),
            (&mut net.frames_received, net_base.frames_received),
            (&mut net.bytes_sent, net_base.bytes_sent),
            (&mut net.bytes_received, net_base.bytes_received),
            (&mut net.replica_bytes, net_base.replica_bytes),
            (&mut net.commit_lag_frames, net_base.commit_lag_frames),
        ] {
            *now = now.saturating_sub(base);
        }
        self.ends.push(EndState {
            memory_kb: m.memory().total_kbytes(),
            active_nodes: m.active_groups().unwrap_or(0) as f64,
            replicas: system.engine_view().map_or(0, |v| v.3) as f64,
            net,
        });
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Fills the monitor-side part of `rec` from a tick's report (traced).
fn record_layers(rec: &mut TickRec, rep: &TickReport, system: &System) {
    rec.monitor_ms = match system.engine_view() {
        Some((workers, ..)) => ms(workers.elapsed),
        None => ms(rep.elapsed),
    };
    rec.load_ratio = system.monitor().shard_load_ratio().unwrap_or(0.0);
}

/// The tracker of an episode: the installed population.
fn initial_tracker(scenario: &Scenario) -> Tracker {
    let mut tracker = Tracker::default();
    for (id, at) in scenario.initial_objects() {
        tracker.apply(UpdateEvent::insert_object(id, at));
    }
    for (id, k, at) in scenario.initial_queries() {
        tracker.apply(UpdateEvent::install_query(id, k, at));
    }
    tracker
}

/// Runs episodes of `spec` until their measured loops add up to
/// `seconds`. Episode `e` runs on a seed drawn from `(seed, e)`.
pub fn run(spec: Spec, seed: u64, seconds: f64, traced: bool) -> Run {
    let mut run = Run {
        spec,
        traced,
        setup_s: Vec::new(),
        ticks: Vec::new(),
        loop_s: 0.0,
        late_ms: Vec::new(),
        checked: 0,
        mismatched: 0,
        first_mismatch: None,
        submitted: 0,
        rejected: 0,
        ends: Vec::new(),
        seconds,
    };
    let mut episode: u64 = 0;
    while run.loop_s < seconds {
        let episode_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(episode.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let t0 = Instant::now();
        let (system, feed, net) = setup(&spec, episode_seed);
        run.setup_s.push(t0.elapsed().as_secs_f64());
        match feed {
            Feed::Plain(scenario) => closed_episode(&mut run, system, *scenario, &net),
            Feed::Fire(fire) => open_episode(&mut run, system, *fire, &net),
        }
        episode += 1;
    }
    run
}

/// One client: the next batch is handed over when the previous tick
/// returns.
fn closed_episode(
    run: &mut Run,
    mut system: System,
    mut scenario: Scenario,
    net: &Arc<RoadNetwork>,
) {
    let traced = run.traced;
    let mut tracker = initial_tracker(&scenario);
    for _ in 0..WARMUP_TICKS {
        let batch = scenario.tick();
        tracker.apply_batch(&batch);
        system.monitor_mut().tick(&batch);
    }
    let net_base = system.monitor().transport_stats().unwrap_or_default();
    let mut looped = Duration::ZERO;
    for i in 1..=EPISODE_TICKS {
        let g0 = Instant::now();
        let batch = scenario.tick();
        let t0 = Instant::now();
        let rep = system.monitor_mut().tick(&batch);
        let t1 = Instant::now();
        let mut rec = TickRec {
            tick_ms: ms(t1 - t0),
            events: batch.len() as u64,
            dead: system.dead_shard(),
            counters: rep.counters,
            ..TickRec::default()
        };
        if traced {
            rec.gen_ms = ms(t0 - g0);
            record_layers(&mut rec, &rep, &system);
        }
        run.ticks.push(rec);
        tracker.apply_batch(&batch);
        looped += g0.elapsed();
        let last = run.loop_s + looped.as_secs_f64() >= run.seconds;
        if is_checkpoint(run.setup_s.len(), i, last) {
            run.referee(&tracker, net, scenario.weights(), &system);
        }
    }
    run.loop_s += looped.as_secs_f64();
    run.finish_episode(&system, net_base);
}

/// Per-window record of the open-loop producer thread.
#[derive(Clone, Copy, Debug, Default)]
struct WindowRec {
    gen_ms: f64,
    submit_ms: f64,
    submits: u64,
    events: u64,
}

/// What the producer hands the ticker at a checkpoint window: the state it
/// fed, for the referee.
struct Checkpoint {
    tracker: Tracker,
    weights: EdgeWeights,
}

/// The producer thread's results.
struct ProducerOut {
    windows: Vec<WindowRec>,
    late_ms: Vec<f64>,
    rejected: u64,
}

/// The open loop. A producer thread generates each window and submits its
/// reports through an ingest handle as they fall due, evenly across the
/// period; this thread runs `tick_ingest` at each period boundary, the
/// due time of the window's last report. Neither waits for the other,
/// except at checkpoint windows, where the producer stops after the
/// window's last report until the referee has checked the answers, and
/// the schedule shifts by the pause.
fn open_episode(run: &mut Run, mut system: System, mut fire: Firehose, net: &Arc<RoadNetwork>) {
    let Kind::Cluster { period, .. } = run.spec.kind else {
        unreachable!("open-loop workloads run the cluster")
    };
    let traced = run.traced;
    let mut tracker = initial_tracker(fire.scenario());
    let handle = system.cluster().ingest_handle();
    for _ in 0..WARMUP_TICKS {
        let t = fire.tick();
        for &ev in t.raw {
            handle.submit(ev).expect("blocking admission never refuses");
        }
        tracker.apply_batch(t.effective);
        system.cluster().tick_ingest();
    }
    let net_base = system.monitor().transport_stats().unwrap_or_default();

    let episode = run.setup_s.len();
    let last = run.loop_s + (period * EPISODE_TICKS as u32).as_secs_f64() >= run.seconds;
    let checkpoint = move |i: usize| is_checkpoint(episode, i, last);
    let (cp_tx, cp_rx) = mpsc::channel::<Checkpoint>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    // Schedule shift in ns, grown by each referee pause.
    let offset = Arc::new(AtomicU64::new(0));
    let shift = |o: &AtomicU64| Duration::from_nanos(o.load(Ordering::SeqCst));
    let t0 = Instant::now() + Duration::from_millis(1);

    let producer = {
        let offset = offset.clone();
        std::thread::spawn(move || {
            let mut out = ProducerOut {
                windows: Vec::with_capacity(EPISODE_TICKS),
                late_ms: Vec::new(),
                rejected: 0,
            };
            let mut raw = Vec::new();
            for w in 0..EPISODE_TICKS as u32 {
                let g0 = Instant::now();
                let t = fire.tick();
                raw.clear();
                raw.extend_from_slice(t.raw);
                tracker.apply_batch(t.effective);
                let mut rec = WindowRec {
                    gen_ms: if traced { ms(g0.elapsed()) } else { 0.0 },
                    events: t.effective.len() as u64,
                    submits: raw.len() as u64,
                    ..WindowRec::default()
                };
                let n = raw.len().max(1) as u32;
                let due = |i: usize| t0 + shift(&offset) + period * w + period * (i as u32 + 1) / n;
                let mut i = 0;
                while i < raw.len() {
                    let now = Instant::now();
                    let first = due(i);
                    if first > now {
                        std::thread::sleep(first - now);
                        continue;
                    }
                    out.late_ms.push(ms(now - first));
                    while i < raw.len() && due(i) <= now {
                        if handle.submit(raw[i]).is_err() {
                            out.rejected += 1;
                        }
                        i += 1;
                    }
                    if traced {
                        rec.submit_ms += ms(now.elapsed());
                    }
                }
                out.windows.push(rec);
                if checkpoint(w as usize + 1) {
                    let weights = fire.scenario().weights().clone();
                    let cp = Checkpoint {
                        tracker: tracker.clone(),
                        weights,
                    };
                    if cp_tx.send(cp).is_err() || resume_rx.recv().is_err() {
                        break;
                    }
                }
            }
            out
        })
    };

    let mut paused = Duration::ZERO;
    let mut ticks = Vec::with_capacity(EPISODE_TICKS);
    for w in 0..EPISODE_TICKS as u32 {
        let scheduled = t0 + shift(&offset) + period * (w + 1);
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let cp = checkpoint(w as usize + 1)
            .then(|| cp_rx.recv().expect("producer reaches the checkpoint"));
        let s = Instant::now();
        let rep = system.cluster().tick_ingest();
        let e = Instant::now();
        let mut rec = TickRec {
            tick_ms: ms(e - s),
            late_ms: ms(s.saturating_duration_since(scheduled)),
            dead: system.dead_shard(),
            counters: rep.counters,
            ..TickRec::default()
        };
        if traced {
            record_layers(&mut rec, &rep, &system);
        }
        ticks.push(rec);
        if let Some(cp) = cp {
            let c0 = Instant::now();
            run.referee(&cp.tracker, net, &cp.weights, &system);
            let pause = c0.elapsed();
            paused += pause;
            offset.fetch_add(pause.as_nanos() as u64, Ordering::SeqCst);
            let _ = resume_tx.send(());
        }
    }
    drop(resume_tx);
    let out = producer.join().expect("producer thread");
    run.loop_s += (Instant::now() - t0 - paused).as_secs_f64();
    for (rec, win) in ticks.iter_mut().zip(&out.windows) {
        rec.gen_ms = win.gen_ms;
        rec.submit_ms = win.submit_ms;
        rec.submits = win.submits;
        rec.events = win.events;
        run.submitted += win.submits;
    }
    run.ticks.extend(ticks);
    run.late_ms.extend(out.late_ms);
    run.rejected += out.rejected;
    run.finish_episode(&system, net_base);
}
