//! # rnn-cluster
//!
//! A shard-per-**process** deployment of the sharded continuous-monitoring
//! engine: the coordinator runs [`rnn_engine::ShardedEngine`]'s
//! route/absorb loop unchanged, but each shard's monitor sits behind a
//! small RPC layer instead of an in-process thread.
//!
//! The stack, bottom-up:
//!
//! * [`frame`] — the wire envelope: `u32 len | u16 tag | u32 seq |
//!   u32 epoch | u32 crc | payload`, one tag per protocol message, a
//!   word-at-a-time checksum over everything but the length prefix and
//!   the crc itself. The payloads are the engine's own
//!   delta protocol ([`rnn_engine::protocol`]) made explicit as typed
//!   frames: tick events, halo-resync events, migration hand-off,
//!   result-snapshot deltas coming back.
//! * [`transport`] — byte pipes moving whole frames: an in-process
//!   loopback pair with deterministic fault injection (delay, reorder,
//!   corruption, crash-on-cue), and a stream transport over Unix domain
//!   sockets or TCP (`std::net` + worker threads; no async runtime).
//! * [`service`] — the shard side: one monitor driven through
//!   [`rnn_engine::ShardTickState`] (so replies are bit-identical to an
//!   in-process worker's), with duplicate-request suppression by
//!   sequence number.
//! * [`client`] — the coordinator side: per-message timeout and
//!   retransmit, corrupt/stale reply filtering, and crash recovery by
//!   respawning the service and rebuilding it from the latest
//!   monitor-state snapshot plus a replay of the event-journal suffix
//!   (or the full journal when snapshots are disabled). Unrecoverable
//!   links report typed [`ClusterError`]s and go `Down` instead of
//!   panicking.
//! * [`wal`] — the per-shard write-ahead log backing the journal on
//!   disk: verbatim frame records, batched fsync, torn-tail-tolerant
//!   reopen — plus the leader-epoch sidecar file replication fences on.
//! * [`replog`] / [`replica`] — the replicated-journal plane: a
//!   leader-per-shard [`replog::ReplicatedLog`] streams every routed
//!   event frame to hot-standby [`replica::ReplicaNode`]s, commits on a
//!   configurable quorum of acks, fences stale leaders by epoch, and
//!   promotes a follower into the serving [`ShardService`] when the
//!   shard dies past its retry and respawn budgets.
//! * [`engine`] — [`ClusterEngine`], gluing a `ShardedEngine<RemoteShard>`
//!   to constructed transports and aggregating
//!   [`rnn_core::TransportStats`].
//!
//! Because monitors are deterministic and the RPC layer delivers
//! exactly-once *semantics* (at-least-once delivery + sequence-numbered
//! dedup), a `ClusterEngine` is answer-identical — bit-identical
//! snapshots and work counters — to the in-process engine, which the
//! differential suite checks under every injected fault.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod client;
pub mod engine;
pub mod error;
pub mod frame;
pub mod replica;
pub mod replog;
pub mod service;
pub mod transport;
pub mod wal;

pub use client::{
    DurabilityConfig, DurabilityConfigBuilder, DurabilityConfigError, RemoteShard, RetryPolicy,
};
pub use engine::ClusterEngine;
pub use error::ClusterError;
pub use frame::{Frame, MsgTag};
pub use replica::{MonitorFactory, ReplicaNode};
pub use replog::ReplicatedLog;
pub use service::{serve_tcp, serve_unix, ShardService};
pub use transport::{loopback_pair, FaultPlan, LoopbackTransport, RecvError, Transport};
pub use wal::Wal;
