//! Feature synthesis and normalization.
//!
//! The paper extracts "a wide range of linguistic features from the raw texts
//! after having automatic speech recognition". We cannot run ASR on data we do
//! not have, so the [`FeatureModel`]s here generate the *outputs* of that
//! pipeline directly: interpretable per-example statistics whose distributions
//! are monotone (or U-shaped) functions of the latent trait, plus noise. The
//! classifier sees only these observables — never the latent — so the
//! difficulty of the learning problem is controlled by the noise scale and the
//! trait→feature signal strength, not leaked.

use crate::error::DataError;
use crate::Result;
use rll_tensor::{Matrix, Rng64};
use serde::{Deserialize, Serialize};

/// A generative map from a latent trait in `[0, 1]` to an observable feature
/// vector.
pub trait FeatureModel {
    /// Number of features produced.
    fn dim(&self) -> usize;

    /// Human-readable feature names, length [`FeatureModel::dim`].
    fn names(&self) -> Vec<&'static str>;

    /// Samples a feature vector for an example with the given latent trait.
    fn sample(&self, trait_score: f64, rng: &mut Rng64) -> Result<Vec<f64>>;
}

/// Feature model for the `oral` dataset: prosodic/linguistic statistics of a
/// grade-2 student explaining a math solution.
///
/// High fluency (trait → 1) raises speech rate and lexical diversity and
/// suppresses fillers, long pauses, and restarts. `noise` scales every
/// feature's residual standard deviation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OralFeatures {
    /// Residual noise scale (1.0 = calibrated default).
    pub noise: f64,
}

impl OralFeatures {
    /// Creates the model; `noise` must be positive.
    pub fn new(noise: f64) -> Result<Self> {
        if noise <= 0.0 || !noise.is_finite() {
            return Err(DataError::InvalidConfig {
                reason: format!("noise must be positive, got {noise}"),
            });
        }
        Ok(OralFeatures { noise })
    }
}

impl FeatureModel for OralFeatures {
    fn dim(&self) -> usize {
        14
    }

    fn names(&self) -> Vec<&'static str> {
        vec![
            "duration_sec",
            "word_count",
            "speech_rate_wpm",
            "filler_rate",
            "long_pause_count",
            "mean_pause_sec",
            "restart_count",
            "repair_rate",
            "type_token_ratio",
            "math_term_count",
            "mean_utterance_len",
            "pitch_variance",
            "energy_variance",
            "silence_ratio",
        ]
    }

    fn sample(&self, t: f64, rng: &mut Rng64) -> Result<Vec<f64>> {
        if !(0.0..=1.0).contains(&t) {
            return Err(DataError::InvalidConfig {
                reason: format!("trait must be in [0, 1], got {t}"),
            });
        }
        let s = self.noise;
        // Latent speaker style: "quick" students rattle through answers,
        // "deliberate" students think aloud. Style shifts the baseline of
        // every prosodic feature AND changes which features carry the fluency
        // signal (trait x style interactions) — fluency must be judged
        // *relative to the speaking style*, so no single linear read-out of
        // the raw features recovers it. This mirrors real speaker variation
        // and is what gives learned representations their edge.
        let quick = rng.bernoulli(0.5);
        // Signal routing with OPPOSING slopes: a fluent quick speaker slows
        // down slightly (control) while a fluent deliberate speaker speeds up;
        // pauses are normal for deliberate speakers but a red flag for quick
        // ones; and so on. Marginally (averaged over styles) these features
        // carry little signal, so a linear read-out of the raw features caps
        // early; conditioned on style the signal is strong and clean, which is
        // what a learned representation can exploit.
        let (rate_base, rate_slope) = if quick { (140.0, -25.0) } else { (55.0, 45.0) };
        let (filler_base, filler_slope) = if quick { (0.20, -0.14) } else { (0.20, -0.02) };
        let (pauses_base, pauses_slope) = if quick { (7.0, -6.0) } else { (6.0, -1.0) };
        let (mpause_base, mpause_slope) = if quick { (0.7, -0.2) } else { (2.2, -1.0) };
        let (repair_base, repair_slope) = if quick { (0.16, -0.12) } else { (0.06, -0.02) };
        let (silence_base, silence_slope) = if quick { (0.20, -0.05) } else { (0.50, -0.30) };

        let duration = rng.normal(40.0 + 20.0 * (1.0 - t), 8.0 * s)?.max(5.0);
        let rate = rng.normal(rate_base + rate_slope * t, 10.0 * s)?.max(10.0);
        let words = (duration / 60.0 * rate).max(3.0);
        let filler = rng
            .normal(filler_base + filler_slope * t, 0.03 * s)?
            .max(0.0);
        let long_pauses = rng
            .normal(pauses_base + pauses_slope * t, 1.2 * s)?
            .max(0.0);
        let mean_pause = rng
            .normal(mpause_base + mpause_slope * t, 0.25 * s)?
            .max(0.05);
        let restarts = rng
            .normal(2.5 * (1.0 - t) + if quick { 1.5 } else { 0.0 }, 1.2 * s)?
            .max(0.0);
        let repair = rng
            .normal(repair_base + repair_slope * t, 0.03 * s)?
            .max(0.0);
        let ttr = rng.normal(0.35 + 0.2 * t, 0.08 * s)?.clamp(0.05, 1.0);
        let math_terms = rng.normal(2.0 + 4.0 * t, 2.0 * s)?.max(0.0);
        let utt_len = rng
            .normal(if quick { 9.5 } else { 4.0 } + 1.0 * t, 0.8 * s)?
            .max(1.0);
        let pitch_var = rng
            .normal(if quick { 0.9 } else { 0.4 } + 0.15 * t, 0.15 * s)?
            .max(0.0);
        let energy_var = rng.normal(0.4 + 0.2 * t, 0.15 * s)?.max(0.0);
        let silence = rng
            .normal(silence_base + silence_slope * t, 0.06 * s)?
            .clamp(0.0, 1.0);
        Ok(vec![
            duration,
            words,
            rate,
            filler,
            long_pauses,
            mean_pause,
            restarts,
            repair,
            ttr,
            math_terms,
            utt_len,
            pitch_var,
            energy_var,
            silence,
        ])
    }
}

/// Feature model for the `class` dataset: interaction statistics of a
/// 65-minute online 1-v-1 class.
///
/// The paper stresses that class quality is *more ambiguous* to judge than
/// speech fluency; accordingly this model gives each feature a weaker
/// trait→observable slope relative to its noise, so classes near the decision
/// boundary are genuinely hard to separate.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ClassFeatures {
    /// Residual noise scale (1.0 = calibrated default).
    pub noise: f64,
}

impl ClassFeatures {
    /// Creates the model; `noise` must be positive.
    pub fn new(noise: f64) -> Result<Self> {
        if noise <= 0.0 || !noise.is_finite() {
            return Err(DataError::InvalidConfig {
                reason: format!("noise must be positive, got {noise}"),
            });
        }
        Ok(ClassFeatures { noise })
    }
}

impl FeatureModel for ClassFeatures {
    fn dim(&self) -> usize {
        12
    }

    fn names(&self) -> Vec<&'static str> {
        vec![
            "teacher_talk_ratio",
            "student_talk_ratio",
            "qa_exchange_count",
            "student_response_latency",
            "note_taking_events",
            "exercise_completion",
            "teacher_question_count",
            "positive_feedback_count",
            "silence_ratio",
            "interruption_count",
            "on_topic_ratio",
            "student_initiative_count",
        ]
    }

    fn sample(&self, t: f64, rng: &mut Rng64) -> Result<Vec<f64>> {
        if !(0.0..=1.0).contains(&t) {
            return Err(DataError::InvalidConfig {
                reason: format!("trait must be in [0, 1], got {t}"),
            });
        }
        let s = self.noise;
        // Latent teaching style: "lecture" teachers talk most of the hour,
        // "socratic" teachers run the class as Q&A. Style sets every
        // interaction baseline and routes the quality signal differently
        // (trait x style interactions): a good lecture shows up as notes and
        // completed exercises at low student-talk, a good socratic class as
        // rapid exchanges and student initiative. Quality must be judged
        // relative to style — exactly why class quality is more ambiguous
        // than speech fluency (paper §I).
        let lecture = rng.bernoulli(0.5);
        // Opposing signal routing (see OralFeatures): a good lecture is dense
        // in notes and exercises with FEW teacher questions (the material
        // flows); a good socratic class is dense in questions, exchanges, and
        // student initiative with few notes. Marginal slopes nearly cancel.
        let (qa_base, qa_slope) = if lecture { (5.0, 3.0) } else { (15.0, 25.0) };
        let (notes_base, notes_slope) = if lecture { (3.0, 10.0) } else { (6.0, -2.0) };
        let (quest_base, quest_slope) = if lecture { (20.0, -4.0) } else { (12.0, 10.0) };
        let (init_base, init_slope) = if lecture { (0.5, 1.0) } else { (2.0, 8.0) };
        let (ex_base, ex_slope) = if lecture { (0.35, 0.50) } else { (0.60, 0.05) };
        let (lat_base, lat_slope) = if lecture { (4.0, -0.5) } else { (6.0, -3.5) };
        let (int_base, int_slope) = if lecture { (3.0, -2.0) } else { (8.0, -7.0) };
        let (sil_base, sil_slope) = if lecture {
            (0.35, -0.05)
        } else {
            (0.30, -0.15)
        };

        let teacher_talk = rng
            .normal(if lecture { 0.85 } else { 0.55 } - 0.05 * t, 0.08 * s)?
            .clamp(0.05, 1.0);
        let student_talk = (1.0 - teacher_talk) * rng.normal(0.8, 0.1 * s)?.clamp(0.3, 1.0);
        let qa = rng.normal(qa_base + qa_slope * t, 5.0 * s)?.max(0.0);
        let latency = rng.normal(lat_base + lat_slope * t, 1.2 * s)?.max(0.2);
        let notes = rng.normal(notes_base + notes_slope * t, 2.5 * s)?.max(0.0);
        let exercises = rng
            .normal(ex_base + ex_slope * t, 0.12 * s)?
            .clamp(0.0, 1.0);
        let questions = rng.normal(quest_base + quest_slope * t, 5.0 * s)?.max(0.0);
        let feedback = rng.normal(3.0 + 8.0 * t, 4.0 * s)?.max(0.0);
        let silence = rng
            .normal(sil_base + sil_slope * t, 0.07 * s)?
            .clamp(0.0, 1.0);
        let interruptions = rng.normal(int_base + int_slope * t, 2.0 * s)?.max(0.0);
        let on_topic = rng.normal(0.65 + 0.2 * t, 0.12 * s)?.clamp(0.0, 1.0);
        let initiative = rng.normal(init_base + init_slope * t, 2.0 * s)?.max(0.0);
        Ok(vec![
            teacher_talk,
            student_talk,
            qa,
            latency,
            notes,
            exercises,
            questions,
            feedback,
            silence,
            interruptions,
            on_topic,
            initiative,
        ])
    }
}

/// Z-score feature normalizer fitted on training data and applied to held-out
/// data — the split-safe way to standardize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Normalizer {
    /// Fits per-column mean and standard deviation. Constant columns get unit
    /// scale so they pass through as zeros instead of dividing by zero.
    pub fn fit(features: &Matrix) -> Result<Self> {
        if features.rows() == 0 {
            return Err(DataError::InvalidConfig {
                reason: "cannot fit normalizer on empty matrix".into(),
            });
        }
        let n = features.rows() as f64;
        let mut means = vec![0.0; features.cols()];
        let mut stds = vec![0.0; features.cols()];
        for c in 0..features.cols() {
            let col = features.col(c)?;
            let mean = col.iter().sum::<f64>() / n;
            let var = col.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
            means[c] = mean;
            stds[c] = if var.sqrt() > 1e-12 { var.sqrt() } else { 1.0 };
        }
        Ok(Normalizer { means, stds })
    }

    /// Per-column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-column scales: one per mean, unless deserialized from bad bytes.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Applies the fitted transform.
    pub fn transform(&self, features: &Matrix) -> Result<Matrix> {
        if features.cols() != self.means.len() || self.stds.len() != self.means.len() {
            return Err(DataError::InvalidConfig {
                reason: format!(
                    "normalizer fitted on {} columns ({} scales), input has {}",
                    self.means.len(),
                    self.stds.len(),
                    features.cols()
                ),
            });
        }
        let mut out = features.clone();
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                let v = (out.at(r, c) - self.means[c]) / self.stds[c];
                *out.at_mut(r, c) = v;
            }
        }
        Ok(out)
    }

    /// Convenience: fit on `train` and transform both splits.
    pub fn fit_transform(train: &Matrix, test: &Matrix) -> Result<(Matrix, Matrix)> {
        let norm = Normalizer::fit(train)?;
        Ok((norm.transform(train)?, norm.transform(test)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oral_features_respond_to_trait() {
        let model = OralFeatures::new(0.3).unwrap();
        let mut rng = Rng64::seed_from_u64(1);
        let n = 300;
        let avg = |t: f64, idx: usize, rng: &mut Rng64| {
            (0..n)
                .map(|_| model.sample(t, rng).unwrap()[idx])
                .sum::<f64>()
                / n as f64
        };
        // Lexical diversity (idx 8) rises with fluency; fillers (idx 3) and
        // long pauses (idx 4) fall. (Speech rate is style-conditional by
        // design — see the type docs — so it is NOT checked marginally.)
        assert!(avg(0.9, 8, &mut rng) > avg(0.1, 8, &mut rng) + 0.1);
        assert!(avg(0.9, 3, &mut rng) < avg(0.1, 3, &mut rng));
        assert!(avg(0.9, 4, &mut rng) < avg(0.1, 4, &mut rng));
        assert_eq!(model.dim(), model.names().len());
    }

    #[test]
    fn class_features_respond_to_trait() {
        let model = ClassFeatures::new(0.3).unwrap();
        let mut rng = Rng64::seed_from_u64(2);
        let n = 300;
        let avg = |t: f64, idx: usize, rng: &mut Rng64| {
            (0..n)
                .map(|_| model.sample(t, rng).unwrap()[idx])
                .sum::<f64>()
                / n as f64
        };
        // QA exchanges (idx 2) rise with quality; interruptions (idx 9) fall.
        assert!(avg(0.9, 2, &mut rng) > avg(0.1, 2, &mut rng));
        assert!(avg(0.9, 9, &mut rng) < avg(0.1, 9, &mut rng));
        assert_eq!(model.dim(), model.names().len());
    }

    #[test]
    fn feature_vectors_have_declared_dim() {
        let mut rng = Rng64::seed_from_u64(3);
        let oral = OralFeatures::new(1.0).unwrap();
        assert_eq!(oral.sample(0.5, &mut rng).unwrap().len(), oral.dim());
        let class = ClassFeatures::new(1.0).unwrap();
        assert_eq!(class.sample(0.5, &mut rng).unwrap().len(), class.dim());
    }

    #[test]
    fn trait_out_of_range_rejected() {
        let mut rng = Rng64::seed_from_u64(4);
        let oral = OralFeatures::new(1.0).unwrap();
        assert!(oral.sample(-0.1, &mut rng).is_err());
        assert!(oral.sample(1.1, &mut rng).is_err());
        assert!(OralFeatures::new(0.0).is_err());
        assert!(ClassFeatures::new(-1.0).is_err());
    }

    #[test]
    fn normalizer_zero_mean_unit_std() {
        let m = Matrix::from_rows(&[
            vec![1.0, 100.0],
            vec![2.0, 200.0],
            vec![3.0, 300.0],
            vec![4.0, 400.0],
        ])
        .unwrap();
        let norm = Normalizer::fit(&m).unwrap();
        let z = norm.transform(&m).unwrap();
        for c in 0..2 {
            let col = z.col(c).unwrap();
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            let var = col.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn normalizer_constant_column_safe() {
        let m = Matrix::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0]]).unwrap();
        let norm = Normalizer::fit(&m).unwrap();
        let z = norm.transform(&m).unwrap();
        assert_eq!(z.col(0).unwrap(), vec![0.0, 0.0]);
        assert!(z.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn normalizer_validates() {
        assert!(Normalizer::fit(&Matrix::zeros(0, 3)).is_err());
        let m = Matrix::ones(2, 2);
        let norm = Normalizer::fit(&m).unwrap();
        assert!(norm.transform(&Matrix::ones(2, 3)).is_err());
    }

    #[test]
    fn fit_transform_uses_train_statistics() {
        let train = Matrix::from_rows(&[vec![0.0], vec![2.0]]).unwrap();
        let test = Matrix::from_rows(&[vec![4.0]]).unwrap();
        let (ztrain, ztest) = Normalizer::fit_transform(&train, &test).unwrap();
        assert!((ztrain.at(0, 0) + 1.0).abs() < 1e-12);
        assert!((ztest.at(0, 0) - 3.0).abs() < 1e-12); // (4 - 1) / 1
    }
}
