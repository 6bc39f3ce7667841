//! The paper's reported numbers, for side-by-side comparison in
//! `EXPERIMENTS.md` and the `repro` binary.

/// One reported row: `(method, oral_acc, oral_f1, class_acc, class_f1)`.
pub type PaperRow = (&'static str, f64, f64, f64, f64);

/// Table I as printed in the paper.
pub const TABLE1: [PaperRow; 15] = [
    ("SoftProb", 0.815, 0.869, 0.758, 0.810),
    ("EM", 0.843, 0.887, 0.606, 0.698),
    ("GLAD", 0.831, 0.881, 0.697, 0.773),
    ("SiameseNet", 0.802, 0.859, 0.719, 0.836),
    ("TripletNet", 0.847, 0.889, 0.750, 0.857),
    ("RelationNet", 0.843, 0.890, 0.730, 0.842),
    ("SiameseNet+EM", 0.798, 0.856, 0.727, 0.842),
    ("SiameseNet+GLAD", 0.815, 0.871, 0.727, 0.842),
    ("TripletNet+EM", 0.843, 0.887, 0.727, 0.842),
    ("TripletNet+GLAD", 0.843, 0.890, 0.667, 0.792),
    ("RelationNet+EM", 0.860, 0.899, 0.727, 0.842),
    ("RelationNet+GLAD", 0.854, 0.889, 0.730, 0.842),
    ("RLL", 0.871, 0.901, 0.818, 0.880),
    ("RLL+MLE", 0.871, 0.903, 0.848, 0.902),
    ("RLL+Bayesian", 0.888, 0.915, 0.879, 0.920),
];

/// Table II: RLL-Bayesian with `k ∈ {2, 3, 4, 5}`.
pub const TABLE2: [(usize, f64, f64, f64, f64); 4] = [
    (2, 0.809, 0.852, 0.699, 0.813),
    (3, 0.888, 0.915, 0.879, 0.920),
    (4, 0.831, 0.875, 0.757, 0.855),
    (5, 0.803, 0.851, 0.750, 0.846),
];

/// Table III: RLL-Bayesian with `d ∈ {1, 3, 5}`.
pub const TABLE3: [(usize, f64, f64, f64, f64); 3] = [
    (1, 0.826, 0.873, 0.727, 0.842),
    (3, 0.876, 0.922, 0.758, 0.840),
    (5, 0.888, 0.915, 0.879, 0.920),
];

/// The paper's best-performing `k` (Table II peaks at 3).
pub const BEST_K: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_claims_hold_in_paper_numbers() {
        // RLL+Bayesian is the best row on both datasets.
        let best = TABLE1.last().unwrap();
        assert_eq!(best.0, "RLL+Bayesian");
        for row in &TABLE1[..14] {
            assert!(best.1 >= row.1, "oral acc: {} vs {}", best.0, row.0);
            assert!(best.3 >= row.3, "class acc: {} vs {}", best.0, row.0);
        }
        // Variant ordering: Bayesian ≥ MLE ≥ plain RLL.
        let rll = TABLE1[12];
        let mle = TABLE1[13];
        let bay = TABLE1[14];
        assert!(bay.1 >= mle.1 && mle.1 >= rll.1);
        assert!(bay.3 >= mle.3 && mle.3 >= rll.3);
    }

    #[test]
    fn table2_peaks_at_k3() {
        let best = TABLE2
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(best.0, BEST_K);
    }

    #[test]
    fn table3_monotone_in_d() {
        for w in TABLE3.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "oral accuracy should not drop with more workers"
            );
            assert!(
                w[1].3 >= w[0].3,
                "class accuracy should not drop with more workers"
            );
        }
    }
}
