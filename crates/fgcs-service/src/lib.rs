//! The FGCS availability service: the paper's monitor → detector →
//! predictor loop, turned into a real server/client system.
//!
//! iShare publishes machine availability so consumers can place guest
//! jobs on other people's idle cycles (§5). In this workspace that loop
//! had only existed as in-process function calls
//! (`fgcs_testbed::run_testbed`); this crate runs it across a TCP
//! boundary:
//!
//! * [`Server`] — a TCP server running N epoll event loops (one by
//!   default; [`ServiceConfig::event_loops`]) on the in-tree `fgcs-sys`
//!   shim, each loop owning an exclusive subset of the state shards.
//!   It ingests per-machine sample streams into the existing
//!   `fgcs-core` [`Monitor`](fgcs_core::monitor::Monitor) / detector
//!   (via [`fgcs_testbed::OccurrenceRecorder`], so a streamed trace
//!   yields **bit-identical** records to an in-process run, at any loop
//!   count), maintains an online `fgcs-predict` model, and answers
//!   availability/placement queries from live state. Per-machine state
//!   is sharded ([`ServiceConfig::state_shards`]); an optional shared
//!   auth token ([`ServiceConfig::auth_token`]) gates every stream.
//! * [`ServiceClient`] — a blocking client with capped-backoff
//!   reconnection (reusing [`fgcs_testbed::SupervisorConfig`]
//!   semantics) that presents the auth token on every (re)connect.
//! * [`loadgen`] — a load generator replaying testbed traces at
//!   configurable fan-in, optionally through `fgcs-faults` frame
//!   corruption to exercise the decode error paths; plus
//!   [`run_fanin`], a connection-scaling driver running thousands of
//!   sockets from one thread on top of [`ClientPool`], the multiplexed
//!   outbound connection pool ([`pool`]).
//!
//! ## Backpressure
//!
//! A loop ingests batches for its own shards inline, before it reads
//! the next frame, so their `Ack` means ingested and appended to the
//! replication log; a producer that outruns the loop is slowed by TCP
//! flow control. A batch for another loop's shard travels over a
//! bounded forwarding ring ([`ServiceConfig::queue_capacity`] batches);
//! if the ring is full the arriving batch is shed and the producer gets
//! a [`fgcs_wire::Frame::Busy`] instead of an `Ack`. With one loop
//! nothing is ever shed. Every client frame earns exactly one reply, so
//! the accounting reconciles exactly:
//!
//! ```text
//! batches sent == ingested + shed + decode-rejected
//! acks + busys + error replies == batches sent      (client side)
//! ```
//!
//! Shed batches are *exclusion*, not silent loss: they are counted and
//! reported via `Stats`, the same discipline as censored spans in the
//! fault pipeline (DESIGN.md §8.4 and §9).
//!
//! The crate is Linux-only: the transport is built on epoll.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("fgcs-service is Linux-only: its transport runs on epoll via fgcs-sys");

pub mod client;
pub mod cluster;
mod conn;
mod epoll;
pub mod loadgen;
pub mod pool;
mod repl;
pub mod server;
mod snapshot;
mod state;

pub use repl::{ROLE_FOLLOWER, ROLE_PRIMARY};

pub use client::{ClientConfig, ServiceClient};
pub use cluster::{ClusterClient, ClusterConfig, ClusterMetrics, ShardSpec};
pub use loadgen::{
    run_fanin, run_loadgen, run_loadgen_bursts, FanInConfig, FanInReport, LoadGenConfig,
    LoadGenReport,
};
pub use pool::{ClientPool, PoolCloseReason, PoolEvent};
pub use server::{LockContention, Server, ServiceConfig};
