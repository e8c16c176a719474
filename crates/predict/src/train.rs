//! Training-set assembly and model selection.
//!
//! The knowledge base already holds everything a cycles predictor
//! needs: `EvalCacheRecord`s map (context, sequence index) → simulated
//! cycles, and `ProgramRecord`s hold each program's characterization
//! features. [`TrainingSet::assemble`] joins the two — the context
//! fingerprint `"program@machine#hash"` names the program on its left
//! of the `@` — producing rows of `[program features ‖ one-hot
//! sequence]` with `log2(cycles)` targets, grouped by program.
//!
//! [`select_and_train`] runs the paper's evaluation protocol on the
//! regression side: leave-one-**group**-out over programs (never test
//! on rows from a program you trained on), scores each candidate
//! regressor by mean held-out Spearman — ranking quality is what
//! predict-then-verify consumes — then refits the winner on all rows.

use crate::encoding;
use crate::regress::{CostModel, ForestRegressor, KnnRegressor};
use ic_kb::{EvalCacheRecord, KnowledgeBase, ModelRecord};
use ic_ml::metrics::spearman;
use ic_ml::ridge::RidgeRegression;
use ic_search::SequenceSpace;
use serde::{Deserialize, Serialize};

/// Assembled training data: row-major features, log2-cycles targets,
/// and a per-row program label (the leave-one-group-out unit).
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    pub feature_names: Vec<String>,
    pub rows: Vec<Vec<f64>>,
    /// `log2(cycles.max(1))` per row.
    pub y: Vec<f64>,
    /// Program name per row (the LOGO group).
    pub groups: Vec<String>,
}

impl TrainingSet {
    /// Join every eval-cache record in `kb` against program features.
    ///
    /// Records whose context's program (the part before `@`) has no
    /// `ProgramRecord`, whose feature width disagrees with the first
    /// joined program, or whose costs are non-finite (failed compiles)
    /// are skipped — a training set never contains rows the model
    /// could not be asked about at prediction time.
    pub fn assemble(kb: &KnowledgeBase, space: &SequenceSpace) -> TrainingSet {
        Self::assemble_matching(kb, space, |_| true)
    }

    /// Like [`TrainingSet::assemble`], but restricted to contexts on
    /// one machine (`"…@{machine}#…"`). Costs are only comparable
    /// within a machine configuration; mixing machines poisons the
    /// target scale.
    pub fn assemble_for_machine(
        kb: &KnowledgeBase,
        space: &SequenceSpace,
        machine: &str,
    ) -> TrainingSet {
        let infix = format!("@{machine}#");
        Self::assemble_matching(kb, space, |ctx| ctx.contains(&infix))
    }

    fn assemble_matching(
        kb: &KnowledgeBase,
        space: &SequenceSpace,
        keep: impl Fn(&str) -> bool,
    ) -> TrainingSet {
        let mut ts = TrainingSet::default();
        let mut program_dim: Option<usize> = None;
        // Rows in (context, dense index) order — every kb write keeps
        // entries sorted by index — so the training set, and the model,
        // do not depend on the order records were written in.
        let mut recs: Vec<&EvalCacheRecord> =
            kb.eval_caches.iter().filter(|r| keep(&r.context)).collect();
        recs.sort_by(|a, b| a.context.cmp(&b.context));
        for rec in recs {
            let program = rec.context.split('@').next().unwrap_or_default();
            let Some(prog) = kb.programs.iter().find(|p| p.program == program) else {
                continue;
            };
            match program_dim {
                None => {
                    program_dim = Some(prog.features.len());
                    ts.feature_names = prog
                        .feature_names
                        .iter()
                        .cloned()
                        .chain(encoding::seq_feature_names(space))
                        .collect();
                }
                Some(d) if d != prog.features.len() => continue,
                Some(_) => {}
            }
            for &(idx, cost) in &rec.entries {
                if !cost.is_finite() || idx >= space.count() {
                    continue;
                }
                let seq = space.decode(idx);
                ts.rows.push(encoding::row(&prog.features, space, &seq));
                ts.y.push(cost.max(1.0).log2());
                ts.groups.push(program.to_string());
            }
        }
        ts
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Distinct group labels in first-appearance order.
    pub fn distinct_groups(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for g in &self.groups {
            if !out.iter().any(|&o| o == g) {
                out.push(g);
            }
        }
        out
    }
}

/// A fitted cost model plus the provenance the knowledge base stores
/// with it. Serialized whole into `ModelRecord::model_json`, so a
/// record round-trips without any side channel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedModel {
    pub model: CostModel,
    /// Mean held-out Spearman from model selection (in-sample when the
    /// set had fewer than two groups).
    pub spearman: f64,
    /// Rows the final fit saw.
    pub rows: u64,
    /// Expected input width; prediction bypasses on mismatch.
    pub feature_dim: usize,
    /// Monotone per-context version, assigned by the caller.
    pub version: u64,
}

impl TrainedModel {
    /// Package for knowledge-base persistence under `context`.
    pub fn to_record(&self, context: &str, unix_ms: u64) -> ModelRecord {
        ModelRecord {
            context: context.to_string(),
            version: self.version,
            unix_ms,
            kind: self.model.name().to_string(),
            spearman: self.spearman,
            rows: self.rows,
            model_json: serde_json::to_string(self).expect("model serializes"),
        }
    }

    /// Reconstruct from a persisted record; `None` when the blob does
    /// not parse (e.g. written by a future regressor this build lacks).
    pub fn from_record(rec: &ModelRecord) -> Option<TrainedModel> {
        serde_json::from_str(&rec.model_json).ok()
    }
}

/// The candidate pool model selection chooses from.
fn candidates(seed: u64) -> Vec<CostModel> {
    let mut ridge = RidgeRegression::default();
    ridge.lambda = 1e-2;
    vec![
        CostModel::Ridge(ridge),
        CostModel::Knn(KnnRegressor::new(5)),
        CostModel::Forest(ForestRegressor::new(20, 8, seed)),
    ]
}

/// Minimum rows before training is worth anything at all.
pub const MIN_TRAINING_ROWS: usize = 24;

/// Leave-one-group-out model selection, then a full refit.
///
/// For each candidate regressor and each held-out program: fit on the
/// other programs' rows, predict the held-out rows, score Spearman
/// (held-out groups with fewer than 3 rows are skipped — rank
/// correlation over 2 points is a coin flip). The candidate with the
/// best mean score wins and is refit on every row. Returns `None` when
/// the set is smaller than [`MIN_TRAINING_ROWS`].
pub fn select_and_train(ts: &TrainingSet, seed: u64) -> Option<TrainedModel> {
    if ts.len() < MIN_TRAINING_ROWS {
        return None;
    }
    let groups = ts.distinct_groups();
    let mut best: Option<(f64, CostModel)> = None;
    for cand in candidates(seed) {
        let score = if groups.len() < 2 {
            in_sample_score(&cand, ts)
        } else {
            logo_score(&cand, ts, &groups)
        };
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, cand));
        }
    }
    let (score, mut model) = best?;
    model.fit(&ts.rows, &ts.y);
    Some(TrainedModel {
        model,
        spearman: score,
        rows: ts.len() as u64,
        feature_dim: ts.rows[0].len(),
        version: 1,
    })
}

fn logo_score(cand: &CostModel, ts: &TrainingSet, groups: &[&str]) -> f64 {
    let mut scores = Vec::new();
    for g in groups {
        let (mut tx, mut ty) = (Vec::new(), Vec::new());
        let (mut hx, mut hy) = (Vec::new(), Vec::new());
        for ((row, &y), grp) in ts.rows.iter().zip(&ts.y).zip(&ts.groups) {
            if grp == g {
                hx.push(row.clone());
                hy.push(y);
            } else {
                tx.push(row.clone());
                ty.push(y);
            }
        }
        if hx.len() < 3 || tx.is_empty() {
            continue;
        }
        let mut m = cand.clone();
        m.fit(&tx, &ty);
        let pred: Vec<f64> = hx.iter().map(|r| m.predict(r)).collect();
        scores.push(spearman(&hy, &pred));
    }
    if scores.is_empty() {
        return in_sample_score(cand, ts);
    }
    scores.iter().sum::<f64>() / scores.len() as f64
}

fn in_sample_score(cand: &CostModel, ts: &TrainingSet) -> f64 {
    let mut m = cand.clone();
    m.fit(&ts.rows, &ts.y);
    let pred: Vec<f64> = ts.rows.iter().map(|r| m.predict(r)).collect();
    spearman(&ts.y, &pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_kb::{EvalCacheRecord, ProgramRecord};
    use ic_passes::Opt;

    fn space() -> SequenceSpace {
        SequenceSpace::new(&Opt::PAPER_13, 5)
    }

    /// A kb with `n` synthetic programs whose costs follow a shared,
    /// learnable landscape shifted per program.
    fn synthetic_kb(n: usize, entries_per: usize) -> KnowledgeBase {
        let s = space();
        let mut kb = KnowledgeBase::new();
        for p in 0..n {
            let name = format!("prog{p}");
            kb.upsert_program(ProgramRecord {
                program: name.clone(),
                feature_names: vec!["size".into(), "loops".into()],
                features: vec![p as f64 * 10.0, (p % 3) as f64],
                suite: None,
            });
            let mut entries = Vec::new();
            for k in 0..entries_per {
                let idx = (k as u64 * 9973 + p as u64 * 131) % s.count();
                let seq = s.decode(idx);
                let cost = ic_search::testutil::synthetic_cost(&seq) * (1.0 + p as f64 * 0.1);
                entries.push((idx, cost));
            }
            entries.sort_by_key(|&(i, _)| i);
            entries.dedup_by_key(|&mut (i, _)| i);
            kb.eval_caches.push(EvalCacheRecord {
                context: format!("{name}@vliw#{p:016x}"),
                entries,
            });
        }
        kb
    }

    #[test]
    fn assemble_joins_programs_with_eval_caches() {
        let kb = synthetic_kb(3, 20);
        let s = space();
        let ts = TrainingSet::assemble(&kb, &s);
        assert_eq!(ts.len(), ts.y.len());
        assert_eq!(ts.len(), ts.groups.len());
        assert!(ts.len() >= 3 * 19, "near 20 rows per program: {}", ts.len());
        assert_eq!(ts.distinct_groups().len(), 3);
        assert_eq!(
            ts.feature_names.len(),
            2 + encoding::seq_dim(&s),
            "program block + sequence block"
        );
        assert_eq!(ts.rows[0].len(), ts.feature_names.len());
        // Targets are log2-cycles: positive and finite for this landscape.
        assert!(ts.y.iter().all(|y| y.is_finite() && *y > 0.0));
    }

    #[test]
    fn assemble_skips_unjoinable_and_nonfinite() {
        let mut kb = synthetic_kb(2, 10);
        // A context with no program record.
        kb.eval_caches.push(EvalCacheRecord {
            context: "ghost@vliw#0000000000000000".into(),
            entries: vec![(1, 100.0)],
        });
        // A failed-compile cost on a known program.
        kb.eval_caches[0]
            .entries
            .push((space().count() - 1, f64::INFINITY));
        let ts = TrainingSet::assemble(&kb, &space());
        assert_eq!(ts.distinct_groups().len(), 2, "ghost not joined");
        assert!(ts.y.iter().all(|y| y.is_finite()), "INF rows dropped");
    }

    #[test]
    fn assemble_for_machine_filters_contexts() {
        let mut kb = synthetic_kb(2, 10);
        kb.eval_caches[1].context = "prog1@other#0000000000000001".into();
        let ts = TrainingSet::assemble_for_machine(&kb, &space(), "vliw");
        assert_eq!(ts.distinct_groups(), vec!["prog0"]);
    }

    #[test]
    fn select_and_train_learns_a_rankable_model() {
        let kb = synthetic_kb(4, 40);
        let s = space();
        let ts = TrainingSet::assemble(&kb, &s);
        let tm = select_and_train(&ts, 7).expect("enough rows");
        assert!(tm.spearman > 0.5, "held-out spearman {}", tm.spearman);
        assert_eq!(tm.rows, ts.len() as u64);
        assert_eq!(tm.feature_dim, ts.rows[0].len());
        // The fitted model ranks the training rows well.
        let pred: Vec<f64> = ts.rows.iter().map(|r| tm.model.predict(r)).collect();
        assert!(spearman(&ts.y, &pred) > 0.7);
    }

    #[test]
    fn too_small_sets_train_nothing() {
        let kb = synthetic_kb(1, 4);
        let ts = TrainingSet::assemble(&kb, &space());
        assert!(select_and_train(&ts, 0).is_none());
    }

    #[test]
    fn trained_model_round_trips_through_model_record() {
        let kb = synthetic_kb(3, 30);
        let ts = TrainingSet::assemble(&kb, &space());
        let tm = select_and_train(&ts, 1).unwrap();
        let rec = tm.to_record("prog0@vliw#0", 123);
        assert_eq!(rec.kind, tm.model.name());
        assert_eq!(rec.rows, tm.rows);
        let back = TrainedModel::from_record(&rec).unwrap();
        assert_eq!(back.feature_dim, tm.feature_dim);
        for row in ts.rows.iter().take(5) {
            assert_eq!(back.model.predict(row), tm.model.predict(row));
        }
        // Garbage blobs surface as None, not a panic.
        let mut bad = rec.clone();
        bad.model_json = "not json".into();
        assert!(TrainedModel::from_record(&bad).is_none());
    }
}
