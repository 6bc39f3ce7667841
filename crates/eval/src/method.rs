//! The fifteen methods of Table I behind one interface.

use crate::error::EvalError;
use crate::Result;
use rll_baselines::two_stage::{AggregationMethod, EmbeddingMethod, TwoStagePipeline};
use rll_baselines::{
    Embedder, LogisticRegression, RelationNet, RelationNetConfig, SiameseNet, SiameseNetConfig,
    TripletNet, TripletNetConfig,
};
use rll_core::{RllConfig, RllPipeline, RllVariant, SamplingStrategy};
use rll_crowd::aggregate::{Aggregator, DawidSkene, Glad, MajorityVote, SoftLabels};
use rll_crowd::AnnotationMatrix;
use rll_data::Normalizer;
use rll_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Which Group-2 embedding architecture a two-stage pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EmbedKind {
    /// Contrastive Siamese network.
    Siamese,
    /// Triplet-margin network.
    Triplet,
    /// Relation network.
    Relation,
}

impl EmbedKind {
    fn name(&self) -> &'static str {
        match self {
            EmbedKind::Siamese => "SiameseNet",
            EmbedKind::Triplet => "TripletNet",
            EmbedKind::Relation => "RelationNet",
        }
    }
}

/// One row of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MethodSpec {
    /// Group 1: logistic regression on every (instance, label) crowd pair.
    SoftProb,
    /// Group 1: logistic regression on Dawid–Skene EM labels.
    Em,
    /// Group 1: logistic regression on GLAD labels.
    Glad,
    /// Group 2: embedding learner on majority-vote labels.
    Embed(EmbedKind),
    /// Group 3: two-stage `embed + aggregate` combination.
    TwoStage(EmbedKind, TwoStageAgg),
    /// Group 4: an RLL variant.
    Rll(RllVariant),
}

/// Aggregators used by the paper's Group-3 combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TwoStageAgg {
    /// Dawid–Skene EM.
    Em,
    /// GLAD.
    Glad,
}

impl MethodSpec {
    /// All fifteen Table I rows, in the paper's order.
    pub fn table1_rows() -> Vec<MethodSpec> {
        vec![
            MethodSpec::SoftProb,
            MethodSpec::Em,
            MethodSpec::Glad,
            MethodSpec::Embed(EmbedKind::Siamese),
            MethodSpec::Embed(EmbedKind::Triplet),
            MethodSpec::Embed(EmbedKind::Relation),
            MethodSpec::TwoStage(EmbedKind::Siamese, TwoStageAgg::Em),
            MethodSpec::TwoStage(EmbedKind::Siamese, TwoStageAgg::Glad),
            MethodSpec::TwoStage(EmbedKind::Triplet, TwoStageAgg::Em),
            MethodSpec::TwoStage(EmbedKind::Triplet, TwoStageAgg::Glad),
            MethodSpec::TwoStage(EmbedKind::Relation, TwoStageAgg::Em),
            MethodSpec::TwoStage(EmbedKind::Relation, TwoStageAgg::Glad),
            MethodSpec::Rll(RllVariant::Plain),
            MethodSpec::Rll(RllVariant::Mle),
            MethodSpec::Rll(RllVariant::Bayesian),
        ]
    }

    /// Method name as printed in Table I.
    pub fn name(&self) -> String {
        match self {
            MethodSpec::SoftProb => "SoftProb".into(),
            MethodSpec::Em => "EM".into(),
            MethodSpec::Glad => "GLAD".into(),
            MethodSpec::Embed(kind) => kind.name().into(),
            MethodSpec::TwoStage(kind, agg) => format!(
                "{}+{}",
                kind.name(),
                match agg {
                    TwoStageAgg::Em => "EM",
                    TwoStageAgg::Glad => "GLAD",
                }
            ),
            MethodSpec::Rll(v) => v.name().into(),
        }
    }

    /// The paper's group number (1–4).
    pub fn group(&self) -> u8 {
        match self {
            MethodSpec::SoftProb | MethodSpec::Em | MethodSpec::Glad => 1,
            MethodSpec::Embed(_) => 2,
            MethodSpec::TwoStage(..) => 3,
            MethodSpec::Rll(_) => 4,
        }
    }
}

/// Compute budget for one `fit`, shared across methods so comparisons stay
/// fair. `quick()` keeps tests fast; `full()` matches `repro --full`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainBudget {
    /// Epochs for every neural method (Group 2/3 embedders and RLL).
    pub epochs: usize,
    /// Pairs/triplets/groups sampled per epoch.
    pub tuples_per_epoch: usize,
    /// Negatives per RLL group (`k`).
    pub k: usize,
    /// RLL softmax smoothing `η`.
    pub eta: f64,
    /// Embedding dimension for all embedding methods.
    pub embedding_dim: usize,
}

impl TrainBudget {
    /// Full budget used by the table-reproduction binaries.
    pub fn full() -> Self {
        TrainBudget {
            epochs: 60,
            tuples_per_epoch: 512,
            k: 3,
            eta: 10.0,
            embedding_dim: 16,
        }
    }

    /// Reduced budget for unit tests and smoke runs.
    pub fn quick() -> Self {
        TrainBudget {
            epochs: 12,
            tuples_per_epoch: 96,
            k: 3,
            eta: 10.0,
            embedding_dim: 16,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.epochs == 0 || self.tuples_per_epoch == 0 || self.k == 0 || self.embedding_dim == 0
        {
            return Err(EvalError::InvalidConfig {
                reason: "budget fields must be positive".into(),
            });
        }
        Ok(())
    }

    fn siamese_config(&self) -> SiameseNetConfig {
        SiameseNetConfig {
            embedding_dim: self.embedding_dim,
            epochs: self.epochs,
            pairs_per_epoch: self.tuples_per_epoch,
            ..Default::default()
        }
    }

    fn triplet_config(&self) -> TripletNetConfig {
        TripletNetConfig {
            embedding_dim: self.embedding_dim,
            epochs: self.epochs,
            triplets_per_epoch: self.tuples_per_epoch,
            ..Default::default()
        }
    }

    fn relation_config(&self) -> RelationNetConfig {
        RelationNetConfig {
            embedding_dim: self.embedding_dim,
            epochs: self.epochs,
            pairs_per_epoch: self.tuples_per_epoch,
            ..Default::default()
        }
    }

    /// The RLL config this budget induces for a given variant.
    pub fn rll_config(&self, variant: RllVariant) -> RllConfig {
        RllConfig {
            variant,
            eta: self.eta,
            k: self.k,
            embedding_dim: self.embedding_dim,
            epochs: self.epochs,
            groups_per_epoch: self.tuples_per_epoch,
            sampling: SamplingStrategy::Uniform,
            ..RllConfig::default()
        }
    }
}

/// Trains the method on `(train_x, train_ann)` and predicts hard labels for
/// `test_x`. Features are raw; normalization is fitted on the training split
/// internally. Expert labels never enter this function. Only the RLL methods
/// report training events (epoch/sampler/confidence) to `recorder`; the
/// baseline methods run unobserved apart from the harness's fold-level
/// events.
pub fn fit_predict(
    spec: MethodSpec,
    budget: TrainBudget,
    train_x: &Matrix,
    train_ann: &AnnotationMatrix,
    test_x: &Matrix,
    seed: u64,
    recorder: &rll_obs::Recorder,
) -> Result<Vec<u8>> {
    budget.validate()?;
    if train_x.rows() != train_ann.num_items() {
        return Err(EvalError::InvalidConfig {
            reason: format!(
                "{} training rows for {} annotated items",
                train_x.rows(),
                train_ann.num_items()
            ),
        });
    }

    match spec {
        MethodSpec::SoftProb => {
            let (ztrain, ztest) = Normalizer::fit_transform(train_x, test_x)?;
            let soft = SoftLabels::new().soft_binary_targets(train_ann)?;
            let mut lr = LogisticRegression::with_defaults();
            lr.fit_soft(&ztrain, &soft, None)?;
            Ok(lr.predict(&ztest)?)
        }
        MethodSpec::Em => {
            let (ztrain, ztest) = Normalizer::fit_transform(train_x, test_x)?;
            let labels = DawidSkene::default().hard_labels(train_ann)?;
            let mut lr = LogisticRegression::with_defaults();
            lr.fit(&ztrain, &labels)?;
            Ok(lr.predict(&ztest)?)
        }
        MethodSpec::Glad => {
            let (ztrain, ztest) = Normalizer::fit_transform(train_x, test_x)?;
            let labels = Glad::default().hard_labels(train_ann)?;
            let mut lr = LogisticRegression::with_defaults();
            lr.fit(&ztrain, &labels)?;
            Ok(lr.predict(&ztest)?)
        }
        MethodSpec::Embed(kind) => {
            let (ztrain, ztest) = Normalizer::fit_transform(train_x, test_x)?;
            let labels = MajorityVote::positive_ties().hard_labels(train_ann)?;
            let mut embedder: Box<dyn Embedder> = match kind {
                EmbedKind::Siamese => Box::new(SiameseNet::new(budget.siamese_config())?),
                EmbedKind::Triplet => Box::new(TripletNet::new(budget.triplet_config())?),
                EmbedKind::Relation => Box::new(RelationNet::new(budget.relation_config())?),
            };
            embedder.fit(&ztrain, &labels, seed)?;
            classify_on_embeddings(embedder.as_ref(), &ztrain, &labels, &ztest)
        }
        MethodSpec::TwoStage(kind, agg) => {
            let (ztrain, ztest) = Normalizer::fit_transform(train_x, test_x)?;
            let aggregation = match agg {
                TwoStageAgg::Em => AggregationMethod::Em,
                TwoStageAgg::Glad => AggregationMethod::Glad,
            };
            let embedding = match kind {
                EmbedKind::Siamese => EmbeddingMethod::Siamese(budget.siamese_config()),
                EmbedKind::Triplet => EmbeddingMethod::Triplet(budget.triplet_config()),
                EmbedKind::Relation => EmbeddingMethod::Relation(budget.relation_config()),
            };
            let mut pipeline = TwoStagePipeline::new(aggregation, embedding);
            pipeline.fit(&ztrain, train_ann, seed)?;
            let train_emb = pipeline.embed(&ztrain)?;
            let test_emb = pipeline.embed(&ztest)?;
            let mut lr = LogisticRegression::with_defaults();
            lr.fit(&train_emb, pipeline.inferred_labels())?;
            Ok(lr.predict(&test_emb)?)
        }
        MethodSpec::Rll(variant) => {
            let mut pipeline =
                RllPipeline::new(budget.rll_config(variant)).with_recorder(recorder.clone());
            pipeline.fit(train_x, train_ann, seed)?;
            Ok(pipeline.predict(test_x)?)
        }
    }
}

fn classify_on_embeddings(
    embedder: &dyn Embedder,
    train_x: &Matrix,
    train_labels: &[u8],
    test_x: &Matrix,
) -> Result<Vec<u8>> {
    let train_emb = embedder.embed(train_x)?;
    let test_emb = embedder.embed(test_x)?;
    let mut lr = LogisticRegression::with_defaults();
    lr.fit(&train_emb, train_labels)?;
    Ok(lr.predict(&test_emb)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rll_crowd::simulate::{WorkerModel, WorkerPool};
    use rll_obs::Recorder;
    use rll_tensor::Rng64;

    fn crowd_dataset(n: usize, seed: u64) -> (Matrix, AnnotationMatrix, Vec<u8>) {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for _ in 0..n {
            let l = u8::from(rng.bernoulli(0.6));
            let c = if l == 1 { 1.0 } else { -1.0 };
            rows.push(vec![
                rng.normal(c, 0.7).unwrap(),
                rng.normal(-c, 0.7).unwrap(),
            ]);
            truth.push(l);
        }
        let features = Matrix::from_rows(&rows).unwrap();
        let pool = WorkerPool::new(vec![WorkerModel::OneCoin { accuracy: 0.8 }; 5]);
        let ann = pool.annotate(&truth, &mut rng).unwrap();
        (features, ann, truth)
    }

    #[test]
    fn table1_has_fifteen_rows_in_paper_order() {
        let rows = MethodSpec::table1_rows();
        assert_eq!(rows.len(), 15);
        let names: Vec<String> = rows.iter().map(MethodSpec::name).collect();
        assert_eq!(names[0], "SoftProb");
        assert_eq!(names[3], "SiameseNet");
        assert_eq!(names[6], "SiameseNet+EM");
        assert_eq!(names[11], "RelationNet+GLAD");
        assert_eq!(names[12], "RLL");
        assert_eq!(names[14], "RLL+Bayesian");
        // Groups partition as 3 / 3 / 6 / 3.
        let by_group = |g: u8| rows.iter().filter(|r| r.group() == g).count();
        assert_eq!(
            (by_group(1), by_group(2), by_group(3), by_group(4)),
            (3, 3, 6, 3)
        );
    }

    #[test]
    fn every_method_fits_and_predicts() {
        let (x, ann, _) = crowd_dataset(60, 1);
        let split = 48;
        let train_idx: Vec<usize> = (0..split).collect();
        let test_idx: Vec<usize> = (split..60).collect();
        let train_x = x.select_rows(&train_idx).unwrap();
        let test_x = x.select_rows(&test_idx).unwrap();
        let train_ann = ann.select_items(&train_idx).unwrap();
        for spec in MethodSpec::table1_rows() {
            let pred = fit_predict(
                spec,
                TrainBudget::quick(),
                &train_x,
                &train_ann,
                &test_x,
                7,
                &Recorder::disabled(),
            )
            .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name()));
            assert_eq!(pred.len(), 12, "{}", spec.name());
            assert!(pred.iter().all(|&p| p <= 1), "{}", spec.name());
        }
    }

    #[test]
    fn methods_beat_chance_on_easy_data() {
        let (x, ann, truth) = crowd_dataset(120, 2);
        let train_idx: Vec<usize> = (0..90).collect();
        let test_idx: Vec<usize> = (90..120).collect();
        let train_x = x.select_rows(&train_idx).unwrap();
        let test_x = x.select_rows(&test_idx).unwrap();
        let train_ann = ann.select_items(&train_idx).unwrap();
        let test_truth: Vec<u8> = test_idx.iter().map(|&i| truth[i]).collect();
        for spec in [
            MethodSpec::SoftProb,
            MethodSpec::Em,
            MethodSpec::Rll(RllVariant::Bayesian),
        ] {
            let pred = fit_predict(
                spec,
                TrainBudget::quick(),
                &train_x,
                &train_ann,
                &test_x,
                3,
                &Recorder::disabled(),
            )
            .unwrap();
            let acc = pred.iter().zip(&test_truth).filter(|(a, b)| a == b).count() as f64
                / test_truth.len() as f64;
            assert!(acc > 0.7, "{} accuracy {acc}", spec.name());
        }
    }

    #[test]
    fn budget_validation() {
        let (x, ann, _) = crowd_dataset(20, 3);
        let bad = TrainBudget {
            epochs: 0,
            ..TrainBudget::quick()
        };
        assert!(fit_predict(
            MethodSpec::SoftProb,
            bad,
            &x,
            &ann,
            &x,
            1,
            &Recorder::disabled()
        )
        .is_err());
        let mismatched = x.select_rows(&[0, 1]).unwrap();
        assert!(fit_predict(
            MethodSpec::SoftProb,
            TrainBudget::quick(),
            &mismatched,
            &ann,
            &x,
            1,
            &Recorder::disabled()
        )
        .is_err());
    }

    #[test]
    fn rll_config_from_budget() {
        let budget = TrainBudget::full();
        let cfg = budget.rll_config(RllVariant::Mle);
        assert_eq!(cfg.k, 3);
        assert_eq!(cfg.epochs, 60);
        assert_eq!(cfg.variant, RllVariant::Mle);
    }
}
