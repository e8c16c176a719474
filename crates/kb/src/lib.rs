//! # ic-kb — the knowledge base
//!
//! Section III-E of the paper asks for "a standardized database to store
//! learning data in order to facilitate the communication between machine
//! learning components, optimization algorithms, compiler and
//! instrumentation tools, compiler writers, as well as application
//! developers", populated with "the results of optimization experiments
//! and with extensive architecture characterization experiments".
//!
//! This crate is that database:
//!
//! * typed records ([`ProgramRecord`], [`ArchRecord`],
//!   [`ExperimentRecord`]) with a versioned, documented JSON schema
//!   ([`SCHEMA_VERSION`]) — the "standard format" the paper calls for;
//! * a [`KnowledgeBase`] store with save/load and the queries the
//!   controller and the focused-search model need (best sequence per
//!   program/arch, all experiments for a program, nearest programs by
//!   feature distance);
//! * [`SharedKb`] for concurrent producers (parallel search workers).

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Version of the on-disk JSON schema. Bump on breaking changes.
pub const SCHEMA_VERSION: u32 = 1;

/// Suite provenance of a characterized program: generator family (or
/// kernel name), seed, and size class. Lets clustering/meta-learning
/// consumers stratify records by corpus structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteMetaRecord {
    pub family: String,
    pub seed: u64,
    pub size_class: String,
    pub generated: bool,
}

/// Static characterization of one program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramRecord {
    pub program: String,
    pub feature_names: Vec<String>,
    pub features: Vec<f64>,
    /// Suite provenance, when the program came from the registry
    /// (absent for ad-hoc sources; old records parse without it).
    #[serde(default)]
    pub suite: Option<SuiteMetaRecord>,
}

/// Measured characterization of one architecture (from microbenchmarks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchRecord {
    pub arch: String,
    pub feature_names: Vec<String>,
    pub features: Vec<f64>,
}

/// One optimization experiment: a sequence applied to a program on an
/// architecture, and what happened.
///
/// `program` and `arch` are `Arc<str>` because a single `populate_kb`
/// run appends hundreds of records for the same workload/machine pair:
/// producers mint the name once and clone the pointer per record instead
/// of re-allocating the string (serialized form is unchanged — plain
/// JSON strings).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    pub program: Arc<str>,
    pub arch: Arc<str>,
    /// Optimization names (`ic_passes::Opt::name` strings).
    pub sequence: Vec<String>,
    pub cycles: u64,
    /// Speedup over the unoptimized (-O0) build of the same program.
    pub speedup: f64,
    /// Named counter values from the run (optional; empty if not profiled).
    #[serde(default)]
    pub counters: Vec<(String, u64)>,
}

/// A persisted evaluation-cache snapshot: memoized `(sequence index,
/// cost)` pairs for one evaluation context (a workload + machine
/// configuration, identified by an opaque fingerprint string). Search
/// harnesses warm a `CachedEvaluator` from the matching record so
/// repeated runs skip already-simulated sequences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalCacheRecord {
    /// Context fingerprint (e.g. `"matmul@vliw#1a2b3c4d"`). Costs are
    /// only comparable within a single context.
    pub context: String,
    /// `(dense sequence index, cost in cycles)`, sorted by index.
    pub entries: Vec<(u64, f64)>,
}

/// A persisted observability snapshot: the unified [`ic_obs::Snapshot`]
/// an engine or service produced for one context, stamped with wall-clock
/// time. The daemon periodically upserts these so operators can inspect
/// the last-known metrics of a stopped service from the store alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsRecord {
    /// What the snapshot describes (e.g. an engine's context fingerprint
    /// or `"ic-serve"` for the whole daemon).
    pub context: String,
    /// Milliseconds since the Unix epoch when the snapshot was taken.
    pub unix_ms: u64,
    pub snapshot: ic_obs::Snapshot,
}

/// A persisted learned cost model for one evaluation context. The model
/// itself is an opaque JSON payload (the kb stays independent of the
/// learner crates); `version` increments on every retrain so consumers
/// can cheaply detect refreshes, and the quality metadata lets operators
/// judge a model from the store alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelRecord {
    /// Context fingerprint the model predicts for (same keying as
    /// [`EvalCacheRecord`]): costs — and hence models — are only valid
    /// within a single workload + machine context.
    pub context: String,
    /// Monotonically increasing per-context version (starts at 1).
    pub version: u64,
    /// Milliseconds since the Unix epoch when the model was trained.
    pub unix_ms: u64,
    /// Model family name (e.g. `"ridge"`, `"knn"`, `"forest"`).
    pub kind: String,
    /// Held-out Spearman rank correlation from model selection, the
    /// quality number that matters for predict-then-verify ranking.
    pub spearman: f64,
    /// Number of training rows the model was fitted on.
    pub rows: u64,
    /// The serialized model (JSON, produced and parsed by `ic-predict`).
    pub model_json: String,
}

/// What a [`KnowledgeBase::compact`] pass removed, for operator logs and
/// admin responses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompactReport {
    /// Eval-cache entries dropped (kept entries are the lowest-cost ones).
    pub eval_entries_dropped: u64,
    /// Whole eval-cache records dropped because they ended up empty.
    pub eval_records_dropped: u64,
    /// Stale model records dropped (older versions for a context).
    pub models_dropped: u64,
}

/// The whole knowledge base.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KnowledgeBase {
    #[serde(default = "default_schema")]
    pub schema_version: u32,
    pub programs: Vec<ProgramRecord>,
    pub archs: Vec<ArchRecord>,
    pub experiments: Vec<ExperimentRecord>,
    /// Evaluation-cache snapshots, one per context. Absent in older
    /// knowledge bases, hence the default.
    #[serde(default)]
    pub eval_caches: Vec<EvalCacheRecord>,
    /// Last-known observability snapshots, one per context. Absent in
    /// older knowledge bases, hence the default.
    #[serde(default)]
    pub metrics: Vec<MetricsRecord>,
    /// Learned cost models, one per context (latest version). Absent in
    /// older knowledge bases, hence the default.
    #[serde(default)]
    pub models: Vec<ModelRecord>,
}

fn default_schema() -> u32 {
    SCHEMA_VERSION
}

/// Errors from persistence.
///
/// An alias for the workspace-wide [`ic_obs::Error`] — the kb only ever
/// constructs the `Io`, `Format` and `SchemaMismatch` variants, and the
/// alias keeps existing `KbError::Io(..)` constructor paths and pattern
/// matches compiling unchanged.
pub type KbError = ic_obs::Error;

impl KnowledgeBase {
    /// Empty knowledge base at the current schema version.
    pub fn new() -> Self {
        KnowledgeBase {
            schema_version: SCHEMA_VERSION,
            ..Default::default()
        }
    }

    /// Insert or replace a program characterization (keyed by name).
    pub fn upsert_program(&mut self, rec: ProgramRecord) {
        match self.programs.iter_mut().find(|p| p.program == rec.program) {
            Some(p) => *p = rec,
            None => self.programs.push(rec),
        }
    }

    /// Insert or replace an architecture characterization (keyed by name).
    pub fn upsert_arch(&mut self, rec: ArchRecord) {
        match self.archs.iter_mut().find(|a| a.arch == rec.arch) {
            Some(a) => *a = rec,
            None => self.archs.push(rec),
        }
    }

    /// Append an experiment.
    pub fn add_experiment(&mut self, rec: ExperimentRecord) {
        self.experiments.push(rec);
    }

    /// All experiments for `program` on `arch`.
    pub fn experiments_for(&self, program: &str, arch: &str) -> Vec<&ExperimentRecord> {
        self.experiments
            .iter()
            .filter(|e| &*e.program == program && &*e.arch == arch)
            .collect()
    }

    /// The best (highest-speedup) experiment for `program` on `arch`.
    pub fn best_for(&self, program: &str, arch: &str) -> Option<&ExperimentRecord> {
        self.experiments_for(program, arch)
            .into_iter()
            .max_by(|a, b| a.speedup.partial_cmp(&b.speedup).unwrap())
    }

    /// Top-`k` sequences by speedup for `program` on `arch` (deduplicated
    /// by sequence).
    pub fn top_k(&self, program: &str, arch: &str, k: usize) -> Vec<&ExperimentRecord> {
        let mut v = self.experiments_for(program, arch);
        v.sort_by(|a, b| b.speedup.partial_cmp(&a.speedup).unwrap());
        let mut seen = HashMap::new();
        v.into_iter()
            .filter(|e| seen.insert(e.sequence.clone(), ()).is_none())
            .take(k)
            .collect()
    }

    /// Programs ranked by Euclidean feature distance to `features`
    /// (closest first), excluding `exclude`.
    pub fn nearest_programs(&self, features: &[f64], exclude: &str) -> Vec<&ProgramRecord> {
        let mut v: Vec<(&ProgramRecord, f64)> = self
            .programs
            .iter()
            .filter(|p| p.program != exclude)
            .map(|p| {
                let d: f64 = p
                    .features
                    .iter()
                    .zip(features)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                (p, d)
            })
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        v.into_iter().map(|(p, _)| p).collect()
    }

    /// The evaluation-cache entries persisted for `context`, if any.
    pub fn eval_cache(&self, context: &str) -> Option<&[(u64, f64)]> {
        self.eval_caches
            .iter()
            .find(|c| c.context == context)
            .map(|c| c.entries.as_slice())
    }

    /// Merge `entries` into the cache record for `context`, creating the
    /// record if needed. Entries are deduplicated by sequence index (new
    /// costs win — evaluators are deterministic so a disagreement means
    /// the old entry is stale) and kept sorted. Returns the total number
    /// of entries stored for the context afterwards.
    pub fn merge_eval_cache(
        &mut self,
        context: &str,
        entries: impl IntoIterator<Item = (u64, f64)>,
    ) -> usize {
        let at = match self.eval_caches.iter().position(|c| c.context == context) {
            Some(at) => at,
            None => insert_sorted(
                &mut self.eval_caches,
                EvalCacheRecord {
                    context: context.to_string(),
                    entries: Vec::new(),
                },
                |c| &c.context,
            ),
        };
        let rec = &mut self.eval_caches[at];
        let mut map: HashMap<u64, f64> = rec.entries.iter().copied().collect();
        for (idx, cost) in entries {
            map.insert(idx, cost);
        }
        rec.entries = map.into_iter().collect();
        rec.entries.sort_by_key(|&(k, _)| k);
        rec.entries.len()
    }

    /// Insert or replace the metrics snapshot for `rec.context` (the kb
    /// keeps only the latest snapshot per context — history belongs in
    /// external telemetry, not the store).
    pub fn upsert_metrics(&mut self, rec: MetricsRecord) {
        match self.metrics.iter_mut().find(|m| m.context == rec.context) {
            Some(m) => *m = rec,
            None => {
                insert_sorted(&mut self.metrics, rec, |m| &m.context);
            }
        }
    }

    /// The last-known metrics snapshot for `context`, if any.
    pub fn metrics_for(&self, context: &str) -> Option<&MetricsRecord> {
        self.metrics.iter().find(|m| m.context == context)
    }

    /// Insert or replace the cost model for `rec.context`. The kb keeps
    /// one model per context; a replacement whose `version` does not
    /// exceed the stored one is ignored (stale writer lost a race).
    /// Returns `true` when the record was stored.
    pub fn upsert_model(&mut self, rec: ModelRecord) -> bool {
        match self.models.iter_mut().find(|m| m.context == rec.context) {
            Some(m) => {
                if rec.version <= m.version {
                    return false;
                }
                *m = rec;
            }
            None => {
                insert_sorted(&mut self.models, rec, |m| &m.context);
            }
        }
        true
    }

    /// The latest cost model for `context`, if any.
    pub fn model_for(&self, context: &str) -> Option<&ModelRecord> {
        self.models.iter().find(|m| m.context == context)
    }

    /// Compact the write-through stores, which otherwise grow without
    /// bound: every eval-cache record is truncated to its
    /// `max_entries_per_context` *lowest-cost* entries (the ones warm
    /// restarts and model training want most; non-finite costs — failed
    /// compilations — are dropped first, ties broken by index so the
    /// result is deterministic), records left empty are removed, and
    /// duplicate model records for a context are reduced to the highest
    /// version. Sequence indices stay sorted, so a compacted store warms
    /// a `CachedEvaluator` exactly like an uncompacted one.
    pub fn compact(&mut self, max_entries_per_context: usize) -> CompactReport {
        let mut report = CompactReport::default();
        for rec in &mut self.eval_caches {
            if rec.entries.len() <= max_entries_per_context {
                continue;
            }
            let mut by_cost: Vec<(u64, f64)> = rec.entries.clone();
            // Finite-cost entries first (cheapest first), then the
            // non-finite tail; index breaks ties deterministically.
            by_cost.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            by_cost.truncate(max_entries_per_context);
            report.eval_entries_dropped += (rec.entries.len() - by_cost.len()) as u64;
            by_cost.sort_by_key(|&(i, _)| i);
            rec.entries = by_cost;
        }
        let before = self.eval_caches.len();
        self.eval_caches.retain(|r| !r.entries.is_empty());
        report.eval_records_dropped = (before - self.eval_caches.len()) as u64;

        // One model per context, highest version wins. `upsert_model`
        // maintains this invariant for in-process writers; compaction
        // repairs stores merged from several sources.
        let mut newest: HashMap<String, u64> = HashMap::new();
        for m in &self.models {
            let v = newest.entry(m.context.clone()).or_insert(m.version);
            *v = (*v).max(m.version);
        }
        let before = self.models.len();
        let mut seen = std::collections::HashSet::new();
        self.models
            .retain(|m| m.version == newest[&m.context] && seen.insert(m.context.clone()));
        report.models_dropped = (before - self.models.len()) as u64;
        report
    }

    /// Serialize to pretty JSON (the documented interchange format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("kb serializes")
    }

    /// Parse from JSON, enforcing the schema version.
    pub fn from_json(s: &str) -> Result<Self, KbError> {
        let kb: KnowledgeBase = serde_json::from_str(s).map_err(KbError::Format)?;
        if kb.schema_version != SCHEMA_VERSION {
            return Err(KbError::SchemaMismatch {
                found: kb.schema_version,
                expected: SCHEMA_VERSION,
            });
        }
        Ok(kb)
    }

    /// Save to a file, atomically: the JSON is written to a `.tmp`
    /// sibling and renamed over `path`, so a crash mid-write leaves
    /// either the old store or the new one — never a truncated hybrid.
    pub fn save(&self, path: &Path) -> Result<(), KbError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json()).map_err(KbError::Io)?;
        std::fs::rename(&tmp, path).map_err(KbError::Io)
    }

    /// Load from a file.
    pub fn load(path: &Path) -> Result<Self, KbError> {
        let s = std::fs::read_to_string(path).map_err(KbError::Io)?;
        Self::from_json(&s)
    }

    /// Load from a file, tolerating a corrupt or truncated store: a
    /// store that exists but does not parse (or has the wrong schema) is
    /// quarantined to `<path>.bad` and an empty knowledge base is
    /// returned alongside the error, so a long-running service that hit
    /// a partial write keeps serving instead of dying on startup. A
    /// missing file is not an error — it simply yields a fresh store.
    ///
    /// Returns `(kb, Some(error))` when the store was corrupt (the error
    /// says why; the caller should warn), `(kb, None)` otherwise.
    pub fn load_or_quarantine(path: &Path) -> (Self, Option<KbError>) {
        if !path.exists() {
            return (Self::new(), None);
        }
        match Self::load(path) {
            Ok(kb) => (kb, None),
            Err(e) => {
                // Move the bad store aside (best effort — if even the
                // rename fails, the next save's atomic rename will
                // replace it anyway).
                let bad = {
                    let mut os = path.as_os_str().to_owned();
                    os.push(".bad");
                    std::path::PathBuf::from(os)
                };
                let _ = std::fs::rename(path, &bad);
                (Self::new(), Some(e))
            }
        }
    }
}

/// Insert `rec` at its place in `records` ordered by `key` and return
/// its index, so a store's record order is a function of its contents,
/// not of the order its writers happened to run in.
fn insert_sorted<T>(records: &mut Vec<T>, rec: T, key: impl Fn(&T) -> &String) -> usize {
    let at = records.partition_point(|r| key(r) < key(&rec));
    records.insert(at, rec);
    at
}

/// A thread-safe handle for concurrent writers (parallel search).
pub type SharedKb = Arc<RwLock<KnowledgeBase>>;

/// Create a fresh shared knowledge base.
pub fn shared() -> SharedKb {
    Arc::new(RwLock::new(KnowledgeBase::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(prog: &str, seq: &[&str], speedup: f64) -> ExperimentRecord {
        ExperimentRecord {
            program: prog.into(),
            arch: "vliw".into(),
            sequence: seq.iter().map(|s| s.to_string()).collect(),
            cycles: (1000.0 / speedup) as u64,
            speedup,
            counters: vec![],
        }
    }

    #[test]
    fn upsert_replaces_by_key() {
        let mut kb = KnowledgeBase::new();
        kb.upsert_program(ProgramRecord {
            program: "p".into(),
            feature_names: vec!["f".into()],
            features: vec![1.0],
            suite: None,
        });
        kb.upsert_program(ProgramRecord {
            program: "p".into(),
            feature_names: vec!["f".into()],
            features: vec![2.0],
            suite: None,
        });
        assert_eq!(kb.programs.len(), 1);
        assert_eq!(kb.programs[0].features[0], 2.0);
    }

    #[test]
    fn best_and_topk() {
        let mut kb = KnowledgeBase::new();
        kb.add_experiment(exp("p", &["dce"], 1.1));
        kb.add_experiment(exp("p", &["licm", "dce"], 1.5));
        kb.add_experiment(exp("p", &["licm", "dce"], 1.5)); // dup sequence
        kb.add_experiment(exp("p", &["cse"], 1.3));
        kb.add_experiment(exp("q", &["cse"], 9.9)); // other program
        let best = kb.best_for("p", "vliw").unwrap();
        assert_eq!(best.speedup, 1.5);
        let top = kb.top_k("p", "vliw", 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].sequence, vec!["licm", "dce"]);
        assert_eq!(top[1].sequence, vec!["cse"]);
    }

    #[test]
    fn nearest_programs_ordering() {
        let mut kb = KnowledgeBase::new();
        for (name, f) in [("a", 0.0), ("b", 5.0), ("c", 1.0)] {
            kb.upsert_program(ProgramRecord {
                program: name.into(),
                feature_names: vec!["f".into()],
                features: vec![f],
                suite: None,
            });
        }
        let near = kb.nearest_programs(&[0.9], "self");
        let names: Vec<&str> = near.iter().map(|p| p.program.as_str()).collect();
        assert_eq!(names, vec!["c", "a", "b"]);
        // exclusion works
        let near = kb.nearest_programs(&[0.9], "c");
        assert_eq!(near[0].program, "a");
    }

    #[test]
    fn json_round_trip_and_schema_guard() {
        let mut kb = KnowledgeBase::new();
        kb.add_experiment(exp("p", &["dce"], 1.25));
        let json = kb.to_json();
        let back = KnowledgeBase::from_json(&json).unwrap();
        assert_eq!(back.experiments.len(), 1);
        assert_eq!(back.experiments[0].speedup, 1.25);

        let bad = json.replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert!(matches!(
            KnowledgeBase::from_json(&bad),
            Err(KbError::SchemaMismatch { found: 99, .. })
        ));
    }

    #[test]
    fn file_round_trip() {
        let mut kb = KnowledgeBase::new();
        kb.add_experiment(exp("p", &["schedule"], 2.0));
        let dir = std::env::temp_dir().join("ic-kb-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.json");
        kb.save(&path).unwrap();
        let back = KnowledgeBase::load(&path).unwrap();
        assert_eq!(back.experiments, kb.experiments);
    }

    #[test]
    fn corrupt_store_is_quarantined_not_fatal() {
        let dir = std::env::temp_dir().join("ic-kb-quarantine-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.json");
        let bad = dir.join("kb.json.bad");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&bad);

        // Missing file: fresh store, no error, nothing quarantined.
        let (kb, err) = KnowledgeBase::load_or_quarantine(&path);
        assert!(err.is_none());
        assert!(kb.experiments.is_empty());
        assert!(!bad.exists());

        // Truncated store (a partial write): quarantined to `.bad`.
        let mut full = KnowledgeBase::new();
        full.add_experiment(exp("p", &["dce"], 1.5));
        let json = full.to_json();
        std::fs::write(&path, &json[..json.len() / 2]).unwrap();
        let (kb, err) = KnowledgeBase::load_or_quarantine(&path);
        assert!(matches!(err, Some(KbError::Format(_))), "warns: {err:?}");
        assert!(kb.experiments.is_empty(), "fresh store after corruption");
        assert!(!path.exists(), "corrupt store moved aside");
        assert!(bad.exists(), "corrupt store quarantined to .bad");

        // The service keeps going: a save over the quarantined path and
        // a clean reload both work.
        full.save(&path).unwrap();
        let (kb, err) = KnowledgeBase::load_or_quarantine(&path);
        assert!(err.is_none());
        assert_eq!(kb.experiments.len(), 1);

        // Outright garbage also quarantines (schema mismatch included).
        std::fs::write(&path, "not json at all {{{").unwrap();
        let (_, err) = KnowledgeBase::load_or_quarantine(&path);
        assert!(err.is_some());
        assert!(bad.exists());
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let dir = std::env::temp_dir().join("ic-kb-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.json");
        let mut kb = KnowledgeBase::new();
        kb.add_experiment(exp("p", &["dce"], 2.0));
        kb.save(&path).unwrap();
        assert!(path.exists());
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        let back = KnowledgeBase::load(&path).unwrap();
        assert_eq!(back.experiments, kb.experiments);
    }

    #[test]
    fn eval_cache_merge_and_lookup() {
        let mut kb = KnowledgeBase::new();
        assert!(kb.eval_cache("ctx").is_none());
        assert_eq!(kb.merge_eval_cache("ctx", [(5, 50.0), (1, 10.0)]), 2);
        assert_eq!(kb.eval_cache("ctx").unwrap(), &[(1, 10.0), (5, 50.0)]);
        // Re-merging dedups by index; new costs replace old ones.
        assert_eq!(kb.merge_eval_cache("ctx", [(5, 55.0), (9, 90.0)]), 3);
        assert_eq!(
            kb.eval_cache("ctx").unwrap(),
            &[(1, 10.0), (5, 55.0), (9, 90.0)]
        );
        // Contexts are independent.
        kb.merge_eval_cache("other", [(1, 99.0)]);
        assert_eq!(kb.eval_cache("ctx").unwrap().len(), 3);
        assert_eq!(kb.eval_cache("other").unwrap(), &[(1, 99.0)]);
        assert_eq!(kb.eval_caches.len(), 2);
    }

    #[test]
    fn eval_cache_json_round_trip_with_infinity() {
        let mut kb = KnowledgeBase::new();
        // INFINITY marks sequences whose compilation failed — it must
        // survive persistence (serialized as JSON null).
        kb.merge_eval_cache("p@a#1", [(0, 123.0), (7, f64::INFINITY)]);
        let json = kb.to_json();
        let back = KnowledgeBase::from_json(&json).unwrap();
        let entries = back.eval_cache("p@a#1").unwrap();
        assert_eq!(entries[0], (0, 123.0));
        assert_eq!(entries[1].0, 7);
        assert!(entries[1].1.is_infinite());
    }

    #[test]
    fn old_json_without_eval_caches_loads() {
        let kb = KnowledgeBase::new();
        let json = kb.to_json().replace(",\n  \"eval_caches\": []", "");
        assert!(
            !json.contains("eval_caches"),
            "field removed from fixture: {json}"
        );
        let back = KnowledgeBase::from_json(&json).unwrap();
        assert!(back.eval_caches.is_empty());
    }

    #[test]
    fn metrics_upsert_and_round_trip() {
        let mut kb = KnowledgeBase::new();
        assert!(kb.metrics_for("eng@vliw").is_none());

        let mut snap = ic_obs::Snapshot::for_context("eng@vliw");
        snap.counters.push(("requests".into(), 3));
        kb.upsert_metrics(MetricsRecord {
            context: "eng@vliw".into(),
            unix_ms: 1_000,
            snapshot: snap.clone(),
        });
        // Upsert replaces by context: only the latest snapshot survives.
        snap.counters[0].1 = 7;
        kb.upsert_metrics(MetricsRecord {
            context: "eng@vliw".into(),
            unix_ms: 2_000,
            snapshot: snap,
        });
        assert_eq!(kb.metrics.len(), 1);
        assert_eq!(kb.metrics_for("eng@vliw").unwrap().unix_ms, 2_000);

        let back = KnowledgeBase::from_json(&kb.to_json()).unwrap();
        let rec = back.metrics_for("eng@vliw").unwrap();
        assert_eq!(rec.snapshot.counters, vec![("requests".to_string(), 7)]);

        // Older stores without the field still load.
        let json = kb.to_json();
        let start = json.find(",\n  \"metrics\":").unwrap();
        let end = json.rfind('}').unwrap() - 1; // cuts metrics + models (the trailing fields)
        let old = format!("{}{}", &json[..start], &json[end..]);
        assert!(!old.contains("\"metrics\""), "field removed: {old}");
        let back = KnowledgeBase::from_json(&old).unwrap();
        assert!(back.metrics.is_empty());
    }

    /// Stores written while the simulator still had a fused block tier
    /// carry a `sim.fused` object in every metrics snapshot. The snapshot
    /// schema has since dropped it; unknown keys must be ignored so those
    /// stores (and the daemons that open them) keep loading.
    #[test]
    fn metrics_with_a_retired_sim_fused_block_still_load() {
        let mut kb = KnowledgeBase::new();
        let mut snap = ic_obs::Snapshot::for_context("eng@vliw");
        snap.sim.decode.hits = 9;
        snap.sim.insts_simulated = 1_000;
        kb.upsert_metrics(MetricsRecord {
            context: "eng@vliw".into(),
            unix_ms: 1_000,
            snapshot: snap,
        });
        let fused = r#""sim": {
        "fused": {
          "hits": 9,
          "misses": 1,
          "programs": 1,
          "bytes": 512,
          "blocks_compiled": 8,
          "superinstructions_fused": 6,
          "micro_ops_lowered": 40,
          "micro_ops_fused": 30
        },"#;
        let json = kb.to_json().replacen(r#""sim": {"#, fused, 1);
        assert!(json.contains("\"fused\""), "fixture injected: {json}");

        let back = KnowledgeBase::from_json(&json).expect("old store loads");
        let sim = &back.metrics_for("eng@vliw").unwrap().snapshot.sim;
        assert_eq!(sim.decode.hits, 9);
        assert_eq!(sim.insts_simulated, 1_000);
    }

    fn model(ctx: &str, version: u64) -> ModelRecord {
        ModelRecord {
            context: ctx.into(),
            version,
            unix_ms: 1_000 + version,
            kind: "ridge".into(),
            spearman: 0.8,
            rows: 100,
            model_json: format!("{{\"v\":{version}}}"),
        }
    }

    #[test]
    fn model_upsert_keeps_latest_version_per_context() {
        let mut kb = KnowledgeBase::new();
        assert!(kb.model_for("c").is_none());
        assert!(kb.upsert_model(model("c", 1)));
        assert!(kb.upsert_model(model("c", 2)));
        // Stale writer (same or older version) loses.
        assert!(!kb.upsert_model(model("c", 2)));
        assert!(!kb.upsert_model(model("c", 1)));
        assert_eq!(kb.models.len(), 1);
        assert_eq!(kb.model_for("c").unwrap().version, 2);
        // Contexts are independent.
        assert!(kb.upsert_model(model("d", 1)));
        assert_eq!(kb.models.len(), 2);

        // Round trip, and old stores without the field still load.
        let back = KnowledgeBase::from_json(&kb.to_json()).unwrap();
        assert_eq!(back.models, kb.models);
        let json = kb.to_json();
        let start = json.find(",\n  \"models\":").unwrap();
        let end = json.rfind('}').unwrap() - 1; // models is the last field
        let old = format!("{}{}", &json[..start], &json[end..]);
        assert!(!old.contains("\"models\""), "field removed: {old}");
        let back = KnowledgeBase::from_json(&old).unwrap();
        assert!(back.models.is_empty());
    }

    #[test]
    fn compact_keeps_lowest_cost_entries_sorted_by_index() {
        let mut kb = KnowledgeBase::new();
        kb.merge_eval_cache(
            "c",
            [
                (0, 50.0),
                (1, f64::INFINITY),
                (2, 10.0),
                (3, 30.0),
                (4, 20.0),
            ],
        );
        kb.merge_eval_cache("tiny", [(9, 1.0)]);
        let report = kb.compact(3);
        assert_eq!(report.eval_entries_dropped, 2);
        assert_eq!(report.eval_records_dropped, 0);
        // The three cheapest survive (INFINITY dropped first), still
        // sorted by index, so warm_from_kb semantics are unchanged.
        assert_eq!(
            kb.eval_cache("c").unwrap(),
            &[(2, 10.0), (3, 30.0), (4, 20.0)]
        );
        assert_eq!(kb.eval_cache("tiny").unwrap(), &[(9, 1.0)]);
        // Idempotent.
        assert_eq!(kb.compact(3), CompactReport::default());
    }

    #[test]
    fn compact_drops_empty_records_and_stale_models() {
        let mut kb = KnowledgeBase::new();
        kb.eval_caches.push(EvalCacheRecord {
            context: "empty".into(),
            entries: vec![],
        });
        // Simulate a store merged from two sources with duplicate model
        // records (bypassing upsert_model's invariant).
        kb.models.push(model("c", 1));
        kb.models.push(model("c", 3));
        kb.models.push(model("c", 2));
        kb.models.push(model("d", 1));
        let report = kb.compact(1000);
        assert_eq!(report.eval_records_dropped, 1);
        assert_eq!(report.models_dropped, 2);
        assert!(kb.eval_caches.is_empty());
        assert_eq!(kb.models.len(), 2);
        assert_eq!(kb.model_for("c").unwrap().version, 3);
        assert_eq!(kb.model_for("d").unwrap().version, 1);
    }

    #[test]
    fn shared_concurrent_writes() {
        let kb = shared();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let kb = kb.clone();
                std::thread::spawn(move || {
                    kb.write().add_experiment(ExperimentRecord {
                        program: format!("p{i}").into(),
                        arch: "a".into(),
                        sequence: vec!["dce".into()],
                        cycles: 100,
                        speedup: 1.0,
                        counters: vec![],
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kb.read().experiments.len(), 8);
    }
}
