//! Campaign-as-a-service: a resident estimation daemon.
//!
//! Every batch invocation of the experiment binaries pays full startup
//! and characterization cost before the first scenario runs. This
//! crate keeps the estimation engine resident instead — the
//! [`Daemon`] loads a [`CharacterizationDb`] once, accepts estimation
//! requests over a line-delimited JSON protocol ([`proto`]), batches
//! them onto the campaign worker pool
//! ([`hierbus_campaign::run_with_sink`]) and streams results back as
//! scenarios complete.
//!
//! Resubmitted scenarios never touch a worker: every scenario
//! specification has a content fingerprint
//! ([`proto::ScenarioSpec::canonical`] hashed together with the
//! protocol version and the database fingerprint), and a bounded LRU
//! [`ResultCache`] replays the exact serialized result bytes of the
//! first execution. Hit/miss/eviction counters and per-request latency
//! histograms are exported through
//! [`hierbus_obs::MetricsRegistry`].
//!
//! The daemon shuts down gracefully: a `shutdown` request (or input
//! EOF) lets the in-flight request finish, answers still-queued
//! requests with a retryable status, flushes the cache index and says
//! goodbye. See `DESIGN.md` §5j for the architecture and
//! `examples/serve_client.rs` for an executable protocol walkthrough.
//!
//! [`CharacterizationDb`]: hierbus_power::CharacterizationDb

pub mod cache;
pub mod daemon;
pub mod proto;
pub mod session;
pub mod telemetry;

pub use cache::{ResultCache, CACHE_INDEX_VERSION};
pub use daemon::{Daemon, DaemonOptions, ServeSummary, DEFAULT_CACHE_CAPACITY};
pub use proto::{
    parse_request, Materialized, Op, Request, ScenarioSpec, MAX_LINE_BYTES, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION, RESULT_FORMAT_VERSION,
};
pub use session::{db_fingerprint, LeanResult, ServeSession};
pub use telemetry::{RequestTrace, TraceBuilder, TraceRing, LAYER_SPAN_CAP};
