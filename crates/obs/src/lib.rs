//! `ic-obs` — the unified observability layer.
//!
//! The paper's architecture makes runtime monitoring first-class: the
//! controller is supposed to *see* what the compiler and the search are
//! doing. This crate is that eye, and the API the rest of the
//! workspace converges on:
//!
//! * [`Registry`] — named counters / gauges / spans / histograms with
//!   lock-free sharded recording ([`metrics`]),
//! * [`PassProfiler`] — fixed per-pass rows (wall time, change rate,
//!   IR-size deltas) covering every registered pass ([`profile`]),
//! * [`Snapshot`] — the one serializable schema every stats surface
//!   flows into: `icc --metrics-json`, the daemon's `Admin::Metrics`
//!   response, periodic `ic-kb` persistence, and the BENCH metrics
//!   blocks ([`snapshot`]),
//! * [`Error`] — the workspace-wide error enum with stable
//!   machine-readable codes ([`error`]).
//!
//! The legacy stats structs (`ic-search::CacheStats`,
//! `ic-passes::CompileCacheStats`, `ic-serve`'s `RequestStats`) are
//! defined here and re-exported from their original homes, so one
//! schema serves every consumer.
//!
//! Everything is vendored-deps-only and observation-only: recording
//! never feeds back into compilation, so profiling cannot perturb
//! compiled IR.

pub mod error;
pub mod metrics;
pub mod profile;
pub mod snapshot;

pub use error::Error;
pub use metrics::{Counter, Gauge, Histogram, Registry, Span, SpanTimer};
pub use profile::PassProfiler;
pub use snapshot::{
    CompileCacheStats, CorpusStats, DecodeCacheStats, EvalCacheStats, HistogramStats, PassStats,
    PredictStats, RequestStats, ServiceStats, ShardStats, SimStats, Snapshot, SpanStats,
    SNAPSHOT_SCHEMA_VERSION,
};

/// Workspace-standard result type over [`Error`].
pub type Result<T> = std::result::Result<T, Error>;
