//! Deterministic, zero-dependency observability for the hierarchical
//! bus models.
//!
//! The paper's entire argument is made with measurements — timing error
//! per layer (Table 1), energy error per layer (Table 2), simulation
//! throughput (Table 3), per-cycle power traces (Fig. 6). This crate is
//! the instrumentation layer those measurements flow through:
//!
//! * [`MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   histograms; sim-time based, snapshots diff-able with
//!   [`MetricsSnapshot::since`].
//! * [`TraceCollector`] — per-layer transaction spans (request →
//!   address → data phases) keyed by the bus transaction's monotonic
//!   id, plus sampled counter tracks for energy.
//! * [`perfetto`] — Chrome trace-event / Perfetto JSON exporter;
//!   [`MetricsSnapshot::to_csv`] is the CSV metrics dump.
//! * [`attribution`] — [`EnergyLedger`] decomposes a model's energy
//!   along `layer → slave → phase → access class` (folded-stack, JSON
//!   and Perfetto-counter exports), and [`DivergenceAuditor`] pinpoints
//!   the first bucket/cycle where two layers disagree.
//! * [`telemetry`] — the live serving-side plane: a leveled
//!   ring-buffered structured [`EventLog`] (JSONL export), rolling
//!   [`SloWindow`] latency/hit-ratio aggregates, and a
//!   Prometheus-style text exposition of a [`MetricsSnapshot`].
//!
//! Everything except [`telemetry`] is deterministic (no wall clock, no
//! randomness, stable ordering), so exports can be golden-file tested,
//! and everything is cheap when off: disabled registries, collectors
//! and event logs reduce every probe to one branch on an `enabled` flag
//! with no allocation.

pub mod attribution;
pub mod metrics;
pub mod perfetto;
pub mod span;
pub mod telemetry;

pub use attribution::{
    attribute_cycles, attribute_cycles_by_master, BucketKey, DivergenceAuditor, EnergyLedger,
    LedgerAudit, LedgerPhase, SlaveMap, TraceDivergence,
};
pub use metrics::{CounterId, GaugeId, Histogram, HistogramId, MetricsRegistry, MetricsSnapshot};
pub use span::{AccessClass, CounterTrack, Phase, SpanEvent, TraceCollector};
pub use telemetry::{
    prometheus_text, write_atomic, EventLog, Level, Quantiles, RequestSample, SloAggregate,
    SloWindow, TelemetryEvent, Value, TELEMETRY_SCHEMA_VERSION,
};

/// Writes a CSV metrics dump to `path`, creating parent directories.
pub fn save_csv(
    path: impl AsRef<std::path::Path>,
    snapshot: &MetricsSnapshot,
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, snapshot.to_csv())
}
