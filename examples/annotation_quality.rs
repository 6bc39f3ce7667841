//! Annotation-quality audit: worker ranking and spammer detection on a
//! simulated crowd.
//!
//! Before training anything, a practitioner should ask: how good are my
//! annotators, and is anyone just clicking through? This example runs the
//! audit tools on a crowd that contains a known spammer and a known
//! adversary, then shows the paper's oral-vs-class agreement contrast.
//!
//! ```text
//! cargo run --release --example annotation_quality
//! ```

use rll::crowd::aggregate::DawidSkene;
use rll::crowd::quality::{detect_spammers, rank_workers, worker_qualities};
use rll::crowd::simulate::{WorkerModel, WorkerPool};
use rll::crowd::AnnotationMatrix;
use rll::data::presets;
use rll::tensor::Rng64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A crowd with two good workers, one mediocre, one spammer, one adversary.
    let mut rng = Rng64::seed_from_u64(7);
    let truth: Vec<u8> = (0..600).map(|_| u8::from(rng.bernoulli(0.6))).collect();
    let pool = WorkerPool::new(vec![
        WorkerModel::OneCoin { accuracy: 0.92 },
        WorkerModel::OneCoin { accuracy: 0.88 },
        WorkerModel::OneCoin { accuracy: 0.70 },
        WorkerModel::Spammer { positive_rate: 0.6 },
        WorkerModel::OneCoin { accuracy: 0.15 }, // systematically wrong
    ]);
    let ann = pool.annotate(&truth, &mut rng)?;

    println!("== worker quality from the Dawid-Skene fit (600 items, 5 workers) ==");
    let fit = DawidSkene::default().fit(&ann)?;
    let qualities = worker_qualities(&fit, &ann)?;
    println!(
        "{:<8}{:<16}{:<18}votes",
        "worker", "exp. accuracy", "informativeness"
    );
    for q in &qualities {
        println!(
            "{:<8}{:<16.3}{:<18.3}{}",
            q.worker, q.expected_accuracy, q.informativeness, q.annotation_count
        );
    }
    println!("ranked best-first: {:?}", rank_workers(&qualities));
    println!(
        "flagged as spammers (informativeness < 0.2): {:?}",
        detect_spammers(&qualities, 0.2)
    );
    println!("note: the adversary is NOT flagged — its votes are informative once inverted,\nwhich is exactly what the Dawid-Skene confusion matrix captures.");

    println!("\n== the paper's task contrast ==");
    let oral = presets::oral_scaled(400, 11)?;
    let class = presets::class_scaled(400, 11)?;
    println!(
        "oral : split votes {:.0}%",
        100.0 * split_vote_fraction(&oral.annotations)?
    );
    println!(
        "class: split votes {:.0}%",
        100.0 * split_vote_fraction(&class.annotations)?
    );
    println!("Judging a 65-minute class is far more ambiguous than judging a short\nspeech clip — the regime the RLL confidence estimator was designed for.");
    Ok(())
}

/// Fraction of items whose binary votes are not unanimous.
fn split_vote_fraction(ann: &AnnotationMatrix) -> Result<f64, Box<dyn std::error::Error>> {
    let mut split = 0;
    for i in 0..ann.num_items() {
        let positive = ann.positive_votes(i)?;
        if positive > 0 && positive < ann.annotation_count(i)? {
            split += 1;
        }
    }
    Ok(split as f64 / ann.num_items() as f64)
}
