//! A thread-per-core serving front-end for the explain engine.
//!
//! `crp serve` turns the offline explain pipeline into a long-lived
//! server without pulling in an async runtime: plain `std::net`
//! blocking threads, one per connection, one acceptor, one collector.
//! The interesting part is *what happens between* socket and engine:
//!
//! * **Planner windows** ([`server`]) — concurrent explain requests
//!   are gathered for a few milliseconds (or until the window is
//!   full) and compiled as one planned workload, so requests for the
//!   same `(an, q)` share one stage-1 unit *across clients* exactly as
//!   they do across the requests of one offline batch, and the window
//!   runs against one pinned snapshot. Outcomes are bit-identical to
//!   serving each request alone — the planner's planned ≡ per-call
//!   guarantee, now applied to a socket workload.
//! * **Admission control** — queue depth and the client's declared
//!   class ([`crp_core::ClientClass`]) derive each request's
//!   [`crp_core::PlanLimits`] deterministically; past capacity the
//!   server sheds with a typed `busy retry-after-ms=…` instead of
//!   queueing unboundedly.
//! * **Epoch discipline** ([`backend`]) — every window executes
//!   against one pinned MVCC snapshot; update batches apply through
//!   the backend only at window boundaries, and graceful shutdown
//!   drains, applies, and checkpoints before exit.
//!
//! The wire format itself (length-prefixed UTF-8 frames over a line
//! grammar) lives in [`crp_data::wire`]; [`client`] is the matching
//! blocking client the `crp client` subcommand and the benches use.

pub mod backend;
pub mod client;
pub mod server;
pub mod stats;

pub use backend::{ErasedSnapshot, ServeBackend, VolatileBackend};
pub use client::{Client, ClientError};
pub use server::{ServeConfig, Server};
pub use stats::ServeStats;
