//! Control-plane **service mode**: the same engine stack the
//! discrete-event simulator runs, driven by a clock instead of a
//! pre-recorded trace, behind an HTTP API.
//!
//! The simulator ([`prorp_sim`]) answers *what would the control plane
//! have done over this recorded month*; this crate answers *what does
//! the control plane do right now* — and proves the two give the same
//! answer.  The seam is [`prorp_sim::Shards`]: the run's fleet of
//! per-shard event loops ([`prorp_sim::ShardDriver`], each owning the
//! policy engines, the staged-resume workflow stack with its retry
//! budget and circuit breaker, the Algorithm 5 scan, the diagnostics
//! runner, and the telemetry books), with the id routing, the fork-join
//! over them, the merged reads and the final merge.  The DES registers
//! it and drains a pre-loaded queue to the horizon; the [`LiveDriver`]
//! here registers it empty and steps it by committing externally
//! ingested events up to a monotonically advancing **watermark**.
//!
//! ```text
//!                     ┌ Shards: route · each (fork-join) · finish ┐
//!   recorded trace  ─►│ run_streamed (DES)                        │
//!                     │   queue pre-loaded, drain                 │─► SimReport
//!                     ├───────────────────────────────────────────┤     ║ bit-
//!   POST /v1/events ─►│ LiveDriver (service mode)                 │     ║ identical
//!   clock watermark ─►│   buffer → sort → commit → step           │─► SimReport
//!                     └───────────────────────────────────────────┘
//! ```
//!
//! Bit-identity holds because commit order reconstructs the DES queue's
//! total order `(timestamp, tie priority, registration order)`: events
//! are buffered until the watermark passes them, every event at one
//! timestamp is therefore committed in the same batch, and the batch is
//! sorted exactly the way the DES's FIFO sequence numbers would have
//! ordered it.  The `live_differential` suite in the testkit replays
//! recorded streams through both drivers and asserts identical
//! resume/pause decisions, KPI counters, incident logs, and span traces
//! at 1 and 8 shards.
//!
//! Modules:
//!
//! * [`driver`] — the [`LiveDriver`]: ingest (idempotent, reorder-
//!   tolerant within a watermark window), watermark advance, the
//!   per-database reads and the fresh-incident drain the API serves
//!   from, forced operator actions, and the final merge into a
//!   [`SimReport`](prorp_sim::SimReport);
//! * [`backend`] — the [`StateBackend`] seam that holds each database's
//!   last record once the run is finished (in-memory first; shaped so a
//!   redis/postgres backend can follow);
//! * [`clock`] — the [`LiveClock`] wall-clock mode takes watermarks
//!   from (in virtual mode the driver's watermark is the clock);
//! * [`http`] — a dependency-free HTTP/1.1 server on
//!   `std::net::TcpListener` (the workspace vendors no async runtime);
//! * [`json`] — a re-export of the workspace's one JSON codec,
//!   `prorp_obs::json`;
//! * [`api`] — the endpoint surface: `POST /v1/events`,
//!   `GET /v1/databases/:id`, `POST /v1/databases/:id/resume|pause`,
//!   `GET /metrics`, `POST /v1/clock/advance`, `POST /v1/finish`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod api;
pub mod backend;
pub mod clock;
pub mod driver;
pub mod http;
pub mod json;

pub use api::{ApiServer, ServerConfig};
pub use backend::{DbRecord, InMemoryBackend, StateBackend};
pub use clock::LiveClock;
pub use driver::{IngestOutcome, LiveDriver, LiveEvent, LiveEventKind};
