//! The one serializable schema every stats surface flows into.
//!
//! Before `ic-obs`, the workspace had three disjoint stats structs
//! (`ic-search`'s evaluation-cache stats, `ic-passes`' compile-cache
//! stats, `ic-serve`'s per-request stats) and an ad-hoc aggregate
//! response. They now live here, embedded in one [`Snapshot`] that
//! `icc --metrics-json`, the daemon's `Admin::Metrics` request, and the
//! BENCH emitters all serialize identically. The original crates
//! re-export these types, so existing imports keep compiling.
//!
//! ## Merge semantics
//!
//! [`Snapshot::merge`] folds another snapshot in (e.g. per-engine
//! snapshots into a daemon-wide one). Every rule is commutative and
//! associative — a property test pins this down — so merge order never
//! matters:
//!
//! * counts (counters, cache hits/misses, pass rows, span counts,
//!   histogram buckets) add with saturation,
//! * gauges and span maxima take the maximum,
//! * `uptime_ms` and `queue_depth` take the maximum (they are
//!   instantaneous, not cumulative),
//! * named collections take the union, kept sorted by name so equal
//!   contents compare equal.

use serde::{Deserialize, Serialize};

/// Version tag for the serialized snapshot layout. Bump on any breaking
/// field change; additive fields use `#[serde(default)]` instead.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

fn snapshot_schema_version() -> u32 {
    SNAPSHOT_SCHEMA_VERSION
}

/// A point-in-time view of evaluation-cache activity (the
/// whole-sequence memo table in `ic-search`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EvalCacheStats {
    /// Lookups answered from the memo table.
    #[serde(default)]
    pub hits: u64,
    /// Lookups that fell through to the inner evaluator. This is the
    /// number of *raw* evaluations (simulations) actually performed.
    #[serde(default)]
    pub misses: u64,
    /// Entries currently in the table (warm entries included).
    #[serde(default)]
    pub entries: usize,
    /// Total nanoseconds spent inside the inner evaluator, summed over
    /// all threads.
    #[serde(default)]
    pub eval_nanos: u64,
}

impl EvalCacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the table.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Raw-evaluation throughput, in evaluations per second of
    /// *aggregate* evaluator time (CPU-seconds across threads, not wall
    /// clock).
    pub fn evals_per_second(&self) -> f64 {
        if self.eval_nanos == 0 {
            0.0
        } else {
            self.misses as f64 / (self.eval_nanos as f64 / 1e9)
        }
    }

    /// Fold `other`'s counts in (see the module docs for the rules).
    pub fn merge(&mut self, other: &EvalCacheStats) {
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.entries = self.entries.saturating_add(other.entries);
        self.eval_nanos = self.eval_nanos.saturating_add(other.eval_nanos);
    }
}

/// A point-in-time view of compile-cache activity (the pass-prefix trie
/// in `ic-passes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CompileCacheStats {
    /// Sequence applications that found a cached prefix (depth >= 1).
    #[serde(default)]
    pub hits: u64,
    /// Sequence applications that started from the base module.
    #[serde(default)]
    pub misses: u64,
    /// Individual passes actually applied.
    #[serde(default)]
    pub passes_run: u64,
    /// Individual passes skipped because a cached prefix covered them.
    #[serde(default)]
    pub passes_elided: u64,
    /// Trie nodes currently resident.
    #[serde(default)]
    pub nodes: usize,
    /// Estimated bytes of resident post-prefix modules.
    #[serde(default)]
    pub bytes: usize,
    /// Nodes dropped by the LRU to stay under the byte budget.
    #[serde(default)]
    pub evictions: u64,
}

impl CompileCacheStats {
    /// Sequence applications served (hit or miss).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of sequence applications that found a cached prefix.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// How many times fewer passes ran than the uncached pipeline would
    /// have run: `(passes_run + passes_elided) / passes_run`.
    pub fn elision_factor(&self) -> f64 {
        if self.passes_run == 0 {
            1.0
        } else {
            (self.passes_run + self.passes_elided) as f64 / self.passes_run as f64
        }
    }

    /// Fold `other`'s counts in (see the module docs for the rules).
    pub fn merge(&mut self, other: &CompileCacheStats) {
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.passes_run = self.passes_run.saturating_add(other.passes_run);
        self.passes_elided = self.passes_elided.saturating_add(other.passes_elided);
        self.nodes = self.nodes.saturating_add(other.nodes);
        self.bytes = self.bytes.saturating_add(other.bytes);
        self.evictions = self.evictions.saturating_add(other.evictions);
    }
}

/// A point-in-time view of decode-cache activity (the decoded-program
/// memo in `ic-machine`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DecodeCacheStats {
    /// Lookups that reused an already-decoded program.
    #[serde(default)]
    pub hits: u64,
    /// Lookups that had to decode (= distinct post-prefix modules seen).
    #[serde(default)]
    pub misses: u64,
    /// Decoded programs currently resident.
    #[serde(default)]
    pub programs: u64,
    /// Estimated bytes of resident decoded programs.
    #[serde(default)]
    pub bytes: u64,
    /// Programs dropped by the LRU to stay under the byte budget.
    #[serde(default)]
    pub evictions: u64,
}

impl DecodeCacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that reused a decoded program.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Fold `other`'s counts in (see the module docs for the rules).
    pub fn merge(&mut self, other: &DecodeCacheStats) {
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.programs = self.programs.saturating_add(other.programs);
        self.bytes = self.bytes.saturating_add(other.bytes);
        self.evictions = self.evictions.saturating_add(other.evictions);
    }
}

/// Simulation activity: how much simulator time was spent, how many
/// instructions were retired, and how well the decode cache amortized
/// the lowering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Decoded-program memo activity.
    #[serde(default)]
    pub decode: DecodeCacheStats,
    /// Total nanoseconds inside the simulator, summed over all threads.
    #[serde(default)]
    pub sim_nanos: u64,
    /// Simulated instructions retired across all evaluations.
    #[serde(default)]
    pub insts_simulated: u64,
}

impl SimStats {
    /// Simulated-instruction throughput, per second of *aggregate*
    /// simulator time (CPU-seconds across threads, not wall clock).
    pub fn insts_per_second(&self) -> f64 {
        if self.sim_nanos == 0 {
            0.0
        } else {
            self.insts_simulated as f64 / (self.sim_nanos as f64 / 1e9)
        }
    }

    /// Fold `other`'s counts in (see the module docs for the rules).
    pub fn merge(&mut self, other: &SimStats) {
        self.decode.merge(&other.decode);
        self.sim_nanos = self.sim_nanos.saturating_add(other.sim_nanos);
        self.insts_simulated = self.insts_simulated.saturating_add(other.insts_simulated);
    }
}

/// Cache and timing deltas attributable to a single daemon request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RequestStats {
    /// Milliseconds spent queued before a worker picked the job up.
    #[serde(default)]
    pub queue_ms: f64,
    /// Milliseconds of service time (compile + simulate + search).
    #[serde(default)]
    pub service_ms: f64,
    /// Evaluation-cache hits attributable to this request.
    #[serde(default)]
    pub eval_hits: u64,
    /// Evaluation-cache misses (= raw simulations run) for this request.
    #[serde(default)]
    pub eval_misses: u64,
    /// Pass-prefix compile-cache hits for this request.
    #[serde(default)]
    pub compile_hits: u64,
    /// Pass-prefix compile-cache misses for this request.
    #[serde(default)]
    pub compile_misses: u64,
}

impl RequestStats {
    /// Fraction of evaluation lookups served without simulating.
    pub fn eval_hit_rate(&self) -> f64 {
        let total = self.eval_hits + self.eval_misses;
        if total == 0 {
            0.0
        } else {
            self.eval_hits as f64 / total as f64
        }
    }
}

/// Daemon-level request accounting.
///
/// `requests_rejected` and `requests_cancelled` accept the legacy field
/// names (`busy_rejections`, `deadline_cancellations`) on deserialize,
/// so snapshots written before the rename still parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Completed compile requests.
    #[serde(default)]
    pub compile_requests: u64,
    /// Completed search requests.
    #[serde(default)]
    pub search_requests: u64,
    /// Completed characterize requests.
    #[serde(default)]
    pub characterize_requests: u64,
    /// Requests refused at admission: queue full or server draining.
    #[serde(default, alias = "busy_rejections")]
    pub requests_rejected: u64,
    /// Requests cancelled mid-flight by their deadline.
    #[serde(default, alias = "deadline_cancellations")]
    pub requests_cancelled: u64,
    /// Structurally invalid requests (unknown machine, bad source, ...).
    #[serde(default)]
    pub bad_requests: u64,
    /// Jobs queued at snapshot time (instantaneous).
    #[serde(default)]
    pub queue_depth: u64,
    /// Engines resident in the pool.
    #[serde(default)]
    pub engines: u64,
    /// Milliseconds since the server started (instantaneous).
    #[serde(default)]
    pub uptime_ms: u64,
}

impl ServiceStats {
    /// Fold `other` in: counts add, instantaneous values take the max.
    pub fn merge(&mut self, other: &ServiceStats) {
        self.compile_requests = self.compile_requests.saturating_add(other.compile_requests);
        self.search_requests = self.search_requests.saturating_add(other.search_requests);
        self.characterize_requests = self
            .characterize_requests
            .saturating_add(other.characterize_requests);
        self.requests_rejected = self
            .requests_rejected
            .saturating_add(other.requests_rejected);
        self.requests_cancelled = self
            .requests_cancelled
            .saturating_add(other.requests_cancelled);
        self.bad_requests = self.bad_requests.saturating_add(other.bad_requests);
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        self.engines = self.engines.saturating_add(other.engines);
        self.uptime_ms = self.uptime_ms.max(other.uptime_ms);
    }
}

/// Request accounting for one worker shard of the sharded daemon.
///
/// Requests are routed to shards by workload+machine fingerprint, so
/// each block describes a disjoint slice of the traffic; the daemon
/// aggregate in [`ServiceStats`] is their sum plus router-level
/// rejections.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index (dense, `0..shard_count`).
    #[serde(default)]
    pub shard: u64,
    /// Jobs queued on this shard at snapshot time (instantaneous).
    #[serde(default)]
    pub queue_depth: u64,
    /// Bounded queue capacity (admission control threshold).
    #[serde(default)]
    pub queue_capacity: u64,
    /// Engines resident in this shard's pool.
    #[serde(default)]
    pub engines: u64,
    /// Data-plane requests this shard completed (any outcome).
    #[serde(default)]
    pub executed: u64,
    /// Requests refused at this shard's queue (Busy).
    #[serde(default)]
    pub rejected: u64,
    /// Requests cancelled by their deadline on this shard.
    #[serde(default)]
    pub cancelled: u64,
    /// Requests answered from the shard's response memo without
    /// touching the queue.
    #[serde(default)]
    pub fast_path_hits: u64,
}

/// The benchmark corpus a run executed against: suite composition (an
/// instantaneous description, merged by max) plus cumulative fuzzing
/// work (merged by addition).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Programs in the suite registry.
    #[serde(default)]
    pub programs: u64,
    /// Hand-written kernels among them.
    #[serde(default)]
    pub hand_written: u64,
    /// Generator-produced programs among them.
    #[serde(default)]
    pub generated: u64,
    /// Distinct families/kernels represented.
    #[serde(default)]
    pub families: u64,
    /// Static -O0 instructions across the generated programs.
    #[serde(default)]
    pub generated_insts: u64,
    /// Differential fuzz iterations executed (cumulative).
    #[serde(default)]
    pub fuzz_iterations: u64,
}

impl CorpusStats {
    /// Fold `other` in: composition fields describe a corpus (max wins
    /// when snapshots disagree), fuzz iterations accumulate.
    pub fn merge(&mut self, other: &CorpusStats) {
        self.programs = self.programs.max(other.programs);
        self.hand_written = self.hand_written.max(other.hand_written);
        self.generated = self.generated.max(other.generated);
        self.families = self.families.max(other.families);
        self.generated_insts = self.generated_insts.max(other.generated_insts);
        self.fuzz_iterations = self.fuzz_iterations.saturating_add(other.fuzz_iterations);
    }
}

/// Predict-then-verify activity of the learned cost model (`ic-predict`):
/// how many candidate evaluations the model screened, how many were
/// verified by real simulation, and how many simulations the prediction
/// saved outright.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PredictStats {
    /// Candidate batches ranked by the model.
    #[serde(default)]
    pub batches: u64,
    /// Candidate batches passed through unranked (no model loaded, or
    /// `verify_fraction >= 1`, or too few unknown candidates to rank).
    #[serde(default)]
    pub bypassed: u64,
    /// Unique uncached candidates the ranker scored.
    #[serde(default)]
    pub candidates: u64,
    /// Ranked candidates verified by real simulation.
    #[serde(default)]
    pub verified: u64,
    /// Ranked candidates answered with the model estimate alone — the
    /// simulations the predictor saved.
    #[serde(default)]
    pub predicted: u64,
    /// Times a model was (re)trained for this context.
    #[serde(default)]
    pub retrains: u64,
    /// Version of the model currently loaded (instantaneous; 0 = none).
    #[serde(default)]
    pub model_version: u64,
    /// Rows in the currently loaded model's training set (instantaneous).
    #[serde(default)]
    pub training_rows: u64,
}

impl PredictStats {
    /// Fraction of ranked candidates that were actually simulated.
    pub fn verify_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.verified as f64 / self.candidates as f64
        }
    }

    /// How many times fewer simulations ran than a simulate-everything
    /// batch would have issued: `(verified + predicted) / verified`.
    pub fn savings_factor(&self) -> f64 {
        if self.verified == 0 {
            1.0
        } else {
            (self.verified + self.predicted) as f64 / self.verified as f64
        }
    }

    /// Fold `other` in: counts add, model version/rows describe the
    /// loaded model (instantaneous — max wins).
    pub fn merge(&mut self, other: &PredictStats) {
        self.batches = self.batches.saturating_add(other.batches);
        self.bypassed = self.bypassed.saturating_add(other.bypassed);
        self.candidates = self.candidates.saturating_add(other.candidates);
        self.verified = self.verified.saturating_add(other.verified);
        self.predicted = self.predicted.saturating_add(other.predicted);
        self.retrains = self.retrains.saturating_add(other.retrains);
        self.model_version = self.model_version.max(other.model_version);
        self.training_rows = self.training_rows.max(other.training_rows);
    }
}

/// Aggregated scoped-timer observations for one named span.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanStats {
    /// Span name, e.g. `controller.populate_kb`.
    pub name: String,
    /// Completed timings.
    #[serde(default)]
    pub count: u64,
    /// Total wall nanoseconds across all timings.
    #[serde(default)]
    pub total_ns: u64,
    /// The single longest timing.
    #[serde(default)]
    pub max_ns: u64,
}

/// A log2-bucketed value distribution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramStats {
    /// Histogram name, e.g. `serve.service_us`.
    pub name: String,
    /// Values recorded.
    #[serde(default)]
    pub count: u64,
    /// Sum of recorded values (saturating).
    #[serde(default)]
    pub total: u64,
    /// `buckets[i]` counts values `v` with `ceil(log2(v + 1)) == i`
    /// (bucket 0 holds zeros); trailing empty buckets are trimmed.
    #[serde(default)]
    pub buckets: Vec<u64>,
}

/// Per-pass profiling row: wall time and IR-size deltas for one
/// optimization pass, summed over every application.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PassStats {
    /// Pass name as registered (e.g. `licm`).
    pub pass: String,
    /// Times the pass ran.
    #[serde(default)]
    pub calls: u64,
    /// Times it reported changing the module.
    #[serde(default)]
    pub changed: u64,
    /// Total wall nanoseconds inside the pass.
    #[serde(default)]
    pub wall_ns: u64,
    /// Instructions in the module before each call, summed.
    #[serde(default)]
    pub insts_in: u64,
    /// Instructions in the module after each call, summed.
    #[serde(default)]
    pub insts_out: u64,
}

impl PassStats {
    /// Mean wall time per call in nanoseconds (0 if never called).
    pub fn mean_ns(&self) -> u64 {
        self.wall_ns.checked_div(self.calls).unwrap_or(0)
    }

    /// Net instruction delta across all calls (negative = shrank).
    pub fn insts_delta(&self) -> i64 {
        self.insts_out as i64 - self.insts_in as i64
    }
}

/// The unified observability snapshot.
///
/// This is the single schema behind `icc --metrics-json`, the daemon's
/// `Admin::Metrics` response, the periodic `ic-kb` metrics records, and
/// the BENCH metrics blocks. All fields are additive-defaulted so old
/// snapshots parse forever.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Layout version ([`SNAPSHOT_SCHEMA_VERSION`]).
    #[serde(default = "snapshot_schema_version")]
    pub schema_version: u32,
    /// What produced this snapshot: `icc`, an engine context
    /// fingerprint, or a daemon aggregate. Empty when unknown.
    #[serde(default)]
    pub context: String,
    /// Whole-sequence evaluation-cache activity.
    #[serde(default)]
    pub eval_cache: EvalCacheStats,
    /// Pass-prefix compile-cache activity.
    #[serde(default)]
    pub compile_cache: CompileCacheStats,
    /// Simulator activity: decode-cache stats and instruction throughput.
    #[serde(default)]
    pub sim: SimStats,
    /// Daemon request accounting (zeroed for local `icc` runs).
    #[serde(default)]
    pub service: ServiceStats,
    /// Per-shard request accounting for the sharded daemon (empty for
    /// local runs and pre-shard snapshots).
    #[serde(default)]
    pub shards: Vec<ShardStats>,
    /// The benchmark corpus the run executed against (zeroed when no
    /// suite was involved).
    #[serde(default)]
    pub corpus: CorpusStats,
    /// Predict-then-verify cost-model activity (zeroed when prediction
    /// was never enabled).
    #[serde(default)]
    pub predict: PredictStats,
    /// Named monotonic counters, sorted by name.
    #[serde(default)]
    pub counters: Vec<(String, u64)>,
    /// Named gauges (last/extreme values), sorted by name.
    #[serde(default)]
    pub gauges: Vec<(String, f64)>,
    /// Scoped-timer aggregates, sorted by name.
    #[serde(default)]
    pub spans: Vec<SpanStats>,
    /// Value distributions, sorted by name.
    #[serde(default)]
    pub histograms: Vec<HistogramStats>,
    /// Per-pass profiling rows, sorted by pass name.
    #[serde(default)]
    pub passes: Vec<PassStats>,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            context: String::new(),
            eval_cache: EvalCacheStats::default(),
            compile_cache: CompileCacheStats::default(),
            sim: SimStats::default(),
            service: ServiceStats::default(),
            shards: Vec::new(),
            corpus: CorpusStats::default(),
            predict: PredictStats::default(),
            counters: Vec::new(),
            gauges: Vec::new(),
            spans: Vec::new(),
            histograms: Vec::new(),
            passes: Vec::new(),
        }
    }
}

/// Union-merge shard blocks by shard index: counts add, instantaneous
/// values (depth, capacity, engines) take the max — the same rules as
/// [`ServiceStats::merge`].
fn merge_shards(into: &mut Vec<ShardStats>, extra: &[ShardStats]) {
    for item in extra {
        match into.binary_search_by(|probe| probe.shard.cmp(&item.shard)) {
            Ok(i) => {
                let s = &mut into[i];
                s.queue_depth = s.queue_depth.max(item.queue_depth);
                s.queue_capacity = s.queue_capacity.max(item.queue_capacity);
                s.engines = s.engines.max(item.engines);
                s.executed = s.executed.saturating_add(item.executed);
                s.rejected = s.rejected.saturating_add(item.rejected);
                s.cancelled = s.cancelled.saturating_add(item.cancelled);
                s.fast_path_hits = s.fast_path_hits.saturating_add(item.fast_path_hits);
            }
            Err(i) => into.insert(i, item.clone()),
        }
    }
}

/// Union-merge `extra` into the sorted-by-key vec `into`.
fn merge_sorted_by_key<T: Clone>(
    into: &mut Vec<T>,
    extra: &[T],
    key: impl Fn(&T) -> &str,
    combine: impl Fn(&mut T, &T),
) {
    for item in extra {
        match into.binary_search_by(|probe| key(probe).cmp(key(item))) {
            Ok(i) => combine(&mut into[i], item),
            Err(i) => into.insert(i, item.clone()),
        }
    }
}

/// Canonicalize a named vec: sort by key, combine duplicates.
fn canonicalize_by_key<T: Clone>(
    items: &mut Vec<T>,
    key: impl Fn(&T) -> &str + Copy,
    combine: impl Fn(&mut T, &T),
) {
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    for item in items.iter() {
        match out.binary_search_by(|probe| key(probe).cmp(key(item))) {
            Ok(i) => combine(&mut out[i], item),
            Err(i) => out.insert(i, item.clone()),
        }
    }
    *items = out;
}

fn combine_count(a: &mut (String, u64), b: &(String, u64)) {
    a.1 = a.1.saturating_add(b.1);
}

fn combine_gauge(a: &mut (String, f64), b: &(String, f64)) {
    if b.1.total_cmp(&a.1).is_gt() {
        a.1 = b.1;
    }
}

fn combine_span(a: &mut SpanStats, b: &SpanStats) {
    a.count = a.count.saturating_add(b.count);
    a.total_ns = a.total_ns.saturating_add(b.total_ns);
    a.max_ns = a.max_ns.max(b.max_ns);
}

fn combine_hist(a: &mut HistogramStats, b: &HistogramStats) {
    a.count = a.count.saturating_add(b.count);
    a.total = a.total.saturating_add(b.total);
    if a.buckets.len() < b.buckets.len() {
        a.buckets.resize(b.buckets.len(), 0);
    }
    for (dst, src) in a.buckets.iter_mut().zip(&b.buckets) {
        *dst = dst.saturating_add(*src);
    }
}

fn combine_pass(a: &mut PassStats, b: &PassStats) {
    a.calls = a.calls.saturating_add(b.calls);
    a.changed = a.changed.saturating_add(b.changed);
    a.wall_ns = a.wall_ns.saturating_add(b.wall_ns);
    a.insts_in = a.insts_in.saturating_add(b.insts_in);
    a.insts_out = a.insts_out.saturating_add(b.insts_out);
}

impl Snapshot {
    /// An empty snapshot labelled with `context`.
    pub fn for_context(context: impl Into<String>) -> Self {
        Snapshot {
            context: context.into(),
            ..Snapshot::default()
        }
    }

    /// Put the named collections in canonical order (sorted by name,
    /// duplicates combined). [`Snapshot::merge`] maintains this, so it
    /// is only needed on hand-assembled or deserialized snapshots.
    pub fn canonicalize(&mut self) {
        canonicalize_by_key(&mut self.counters, |c| &c.0, combine_count);
        canonicalize_by_key(&mut self.gauges, |g| &g.0, combine_gauge);
        canonicalize_by_key(&mut self.spans, |s| &s.name, combine_span);
        canonicalize_by_key(&mut self.histograms, |h| &h.name, combine_hist);
        canonicalize_by_key(&mut self.passes, |p| &p.pass, combine_pass);
    }

    /// Fold `other` in. Commutative and associative over canonicalized
    /// snapshots (property-tested); see the module docs for the
    /// per-field rules. The context of `self` wins; merging into a
    /// fresh [`Snapshot::for_context`] labels an aggregate.
    pub fn merge(&mut self, other: &Snapshot) {
        self.schema_version = self.schema_version.max(other.schema_version);
        self.eval_cache.merge(&other.eval_cache);
        self.compile_cache.merge(&other.compile_cache);
        self.sim.merge(&other.sim);
        self.service.merge(&other.service);
        merge_shards(&mut self.shards, &other.shards);
        self.corpus.merge(&other.corpus);
        self.predict.merge(&other.predict);
        merge_sorted_by_key(&mut self.counters, &other.counters, |c| &c.0, combine_count);
        merge_sorted_by_key(&mut self.gauges, &other.gauges, |g| &g.0, combine_gauge);
        merge_sorted_by_key(&mut self.spans, &other.spans, |s| &s.name, combine_span);
        merge_sorted_by_key(
            &mut self.histograms,
            &other.histograms,
            |h| &h.name,
            combine_hist,
        );
        merge_sorted_by_key(&mut self.passes, &other.passes, |p| &p.pass, combine_pass);
    }

    /// Serialize to the canonical pretty-printed JSON form used by
    /// `--metrics-json`, `Admin::Metrics`, and the BENCH files.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes infallibly")
    }

    /// Parse a snapshot from JSON (any schema-compatible superset).
    pub fn from_json(s: &str) -> Result<Self, crate::Error> {
        let snap: Snapshot = serde_json::from_str(s)?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_current_schema_version() {
        assert_eq!(Snapshot::default().schema_version, SNAPSHOT_SCHEMA_VERSION);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut s = Snapshot::for_context("test");
        s.eval_cache = EvalCacheStats {
            hits: 10,
            misses: 3,
            entries: 13,
            eval_nanos: 42_000,
        };
        s.counters = vec![("a".into(), 1), ("b".into(), u64::MAX)];
        s.gauges = vec![("g".into(), 2.5)];
        s.spans = vec![SpanStats {
            name: "s".into(),
            count: 2,
            total_ns: 100,
            max_ns: 60,
        }];
        s.histograms = vec![HistogramStats {
            name: "h".into(),
            count: 3,
            total: 9,
            buckets: vec![0, 1, 2],
        }];
        s.passes = vec![PassStats {
            pass: "dce".into(),
            calls: 4,
            changed: 2,
            wall_ns: 1000,
            insts_in: 40,
            insts_out: 30,
        }];
        let back = Snapshot::from_json(&s.to_json()).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn legacy_service_field_names_still_parse() {
        let legacy = r#"{
            "service": {
                "busy_rejections": 7,
                "deadline_cancellations": 3,
                "search_requests": 1
            }
        }"#;
        let snap = Snapshot::from_json(legacy).expect("legacy parses");
        assert_eq!(snap.service.requests_rejected, 7);
        assert_eq!(snap.service.requests_cancelled, 3);
        assert_eq!(snap.service.search_requests, 1);
        assert_eq!(snap.schema_version, SNAPSHOT_SCHEMA_VERSION);
    }

    #[test]
    fn new_names_win_over_aliases_when_both_present() {
        let both = r#"{"service": {"requests_rejected": 2, "busy_rejections": 9}}"#;
        let snap = Snapshot::from_json(both).expect("parses");
        assert_eq!(snap.service.requests_rejected, 2);
    }

    #[test]
    fn merge_adds_counts_and_unions_names() {
        let mut a = Snapshot {
            counters: vec![("evals".into(), 5)],
            ..Snapshot::default()
        };
        a.service.search_requests = 1;
        a.service.uptime_ms = 100;
        let mut b = Snapshot {
            counters: vec![("compiles".into(), 2), ("evals".into(), 7)],
            ..Snapshot::default()
        };
        b.service.search_requests = 2;
        b.service.uptime_ms = 60;
        a.canonicalize();
        b.canonicalize();
        a.merge(&b);
        assert_eq!(
            a.counters,
            vec![("compiles".into(), 2), ("evals".into(), 12)]
        );
        assert_eq!(a.service.search_requests, 3);
        assert_eq!(a.service.uptime_ms, 100, "uptime merges by max");
    }

    #[test]
    fn sim_stats_merge_and_rates() {
        let mut a = SimStats {
            decode: DecodeCacheStats {
                hits: 9,
                misses: 1,
                programs: 1,
                bytes: 1024,
                evictions: 0,
            },
            sim_nanos: 500_000_000,
            insts_simulated: 1_000_000,
        };
        assert!((a.decode.hit_rate() - 0.9).abs() < 1e-12);
        assert!((a.insts_per_second() - 2_000_000.0).abs() < 1.0);
        let b = a;
        a.merge(&b);
        assert_eq!(a.decode.lookups(), 20);
        assert_eq!(a.insts_simulated, 2_000_000);
        // Rates survive the round trip through the additive schema.
        let snap = Snapshot {
            sim: a,
            ..Snapshot::default()
        };
        let back = Snapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(back.sim, a);
        // Old snapshots without a `sim` block still parse.
        let old = Snapshot::from_json("{}").expect("parses");
        assert_eq!(old.sim, SimStats::default());
    }

    #[test]
    fn corpus_stats_merge_semantics() {
        let mut a = CorpusStats {
            programs: 65,
            hand_written: 20,
            generated: 45,
            families: 25,
            generated_insts: 9000,
            fuzz_iterations: 10,
        };
        let b = CorpusStats {
            programs: 16,
            hand_written: 16,
            generated: 0,
            families: 16,
            generated_insts: 0,
            fuzz_iterations: 5,
        };
        a.merge(&b);
        assert_eq!(a.programs, 65, "composition merges by max");
        assert_eq!(a.fuzz_iterations, 15, "fuzz work accumulates");
        // Old snapshots without a corpus block still parse.
        let old = Snapshot::from_json("{}").expect("parses");
        assert_eq!(old.corpus, CorpusStats::default());
    }

    #[test]
    fn predict_stats_merge_semantics_and_rates() {
        let mut a = PredictStats {
            batches: 4,
            bypassed: 1,
            candidates: 100,
            verified: 25,
            predicted: 75,
            retrains: 1,
            model_version: 2,
            training_rows: 300,
        };
        assert!((a.verify_rate() - 0.25).abs() < 1e-12);
        assert!((a.savings_factor() - 4.0).abs() < 1e-12);
        let b = PredictStats {
            batches: 1,
            bypassed: 0,
            candidates: 20,
            verified: 5,
            predicted: 15,
            retrains: 2,
            model_version: 3,
            training_rows: 120,
        };
        a.merge(&b);
        assert_eq!(a.batches, 5);
        assert_eq!(a.candidates, 120);
        assert_eq!(a.verified, 30);
        assert_eq!(a.predicted, 90);
        assert_eq!(a.retrains, 3);
        assert_eq!(a.model_version, 3, "model version merges by max");
        assert_eq!(a.training_rows, 300, "training rows merge by max");
        // No model, no activity: the degenerate rates are defined.
        let zero = PredictStats::default();
        assert_eq!(zero.verify_rate(), 0.0);
        assert_eq!(zero.savings_factor(), 1.0);
        // Old snapshots without a predict block still parse.
        let old = Snapshot::from_json("{}").expect("parses");
        assert_eq!(old.predict, PredictStats::default());
    }

    #[test]
    fn pass_stats_helpers() {
        let p = PassStats {
            pass: "licm".into(),
            calls: 4,
            changed: 1,
            wall_ns: 400,
            insts_in: 100,
            insts_out: 88,
        };
        assert_eq!(p.mean_ns(), 100);
        assert_eq!(p.insts_delta(), -12);
        assert_eq!(PassStats::default().mean_ns(), 0);
    }
}
