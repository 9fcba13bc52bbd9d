//! Mirrors `exp-model-bakeoff` (E9): 5-fold cross-validation of seven
//! classifiers on the flip-flop injection-outcome dataset. MLP fitting is
//! about two thirds of it; the folds run one after another, so this is the
//! workload where fold-level parallelism would show.

use super::{as_f64, reseed, Values};
use crate::trace::Tracer;
use lori_arch::cpu::CpuConfig;
use lori_arch::isa::Program;
use lori_arch::predict::ff_vulnerability_dataset;
use lori_arch::workload;
use lori_core::Rng;
use lori_ml::boost::{AdaBoost, AdaBoostConfig, GradientBoostClassifier, GradientBoostConfig};
use lori_ml::data::{Dataset, StandardScaler};
use lori_ml::error::MlError;
use lori_ml::knn::Knn;
use lori_ml::metrics::accuracy;
use lori_ml::mlp::{Mlp, MlpConfig};
use lori_ml::naive_bayes::GaussianNb;
use lori_ml::svm::{LinearSvm, SvmConfig};
use lori_ml::traits::Classifier;
use lori_ml::tree::{DecisionTree, TreeConfig};

/// The models, in the order `exp-model-bakeoff` fits them: value name,
/// fit span, and whether the model is a boosted ensemble.
const MODELS: [(&str, &str, bool); 7] = [
    ("naive_bayes", "ml.naive_bayes.fit", false),
    ("knn", "ml.knn.fit", false),
    ("svm", "ml.svm.fit", false),
    ("tree", "ml.tree.fit", false),
    ("mlp", "ml.mlp.fit", false),
    ("adaboost", "ml.adaboost.fit", true),
    ("gbt", "ml.gbt.fit", true),
];

const FOLDS: usize = 5;

pub struct Inputs {
    programs: Vec<Program>,
    cpu: CpuConfig,
    dataset_seed: u64,
    fold_seed: u64,
    model_seed: u64,
}

pub fn setup(seed: u64) -> Inputs {
    Inputs {
        programs: workload::all(),
        cpu: CpuConfig::default(),
        dataset_seed: reseed(3, seed),
        fold_seed: reseed(11, seed),
        model_seed: reseed(0, seed),
    }
}

fn fit(model: &str, train: &Dataset, seed: u64) -> Result<Box<dyn Classifier>, MlError> {
    Ok(match model {
        "naive_bayes" => Box::new(GaussianNb::fit(train)?),
        "knn" => Box::new(Knn::fit(train, 5)?),
        "svm" => Box::new(LinearSvm::fit(
            train,
            &SvmConfig {
                seed,
                ..SvmConfig::default()
            },
        )?),
        "tree" => Box::new(DecisionTree::fit(train, &TreeConfig::default())?),
        "mlp" => Box::new(Mlp::fit(
            train,
            &MlpConfig {
                seed,
                ..MlpConfig::classifier(2)
            },
        )?),
        "adaboost" => Box::new(AdaBoost::fit(train, &AdaBoostConfig { rounds: 80 })?),
        "gbt" => Box::new(GradientBoostClassifier::fit(
            train,
            &GradientBoostConfig::default(),
        )?),
        other => unreachable!("no model {other}"),
    })
}

pub fn run(inputs: Inputs, tr: &mut Tracer) -> Values {
    let raw = tr.par_span("arch.ff_vulnerability_dataset", |_| {
        ff_vulnerability_dataset(&inputs.programs, &inputs.cpu, 4, 0.0, inputs.dataset_seed)
            .expect("dataset")
    });
    tr.count("arch.ff_vulnerability_dataset.rows", as_f64(raw.len()));
    let ds = tr.span("ml.scaler", |_| {
        StandardScaler::fit(&raw).expect("scaler").transform(&raw)
    });
    let folds = tr.span("ml.dataset", |_| {
        ds.kfold(FOLDS, &mut Rng::from_seed(inputs.fold_seed))
            .expect("folds")
    });

    let mut accs = vec![Vec::with_capacity(FOLDS); MODELS.len()];
    tr.span("ml.cv", |tr| {
        for (train, val) in &folds {
            let truth = val.class_targets();
            for (i, &(model, span, _)) in MODELS.iter().enumerate() {
                // A model that cannot fit a fold is skipped, as in the
                // binary; the `fits` check counts it as a failure.
                let Ok(m) = tr.span(span, |_| fit(model, train, inputs.model_seed)) else {
                    continue;
                };
                tr.count("ml.cv.fits", 1.0);
                let pred = tr.span("ml.predict", |_| m.predict_batch(val.features()));
                accs[i].push(accuracy(&truth, &pred).expect("metric"));
            }
        }
    });

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / as_f64(xs.len());
    let means: Vec<f64> = accs.iter().map(|a| mean(a)).collect();
    // The best boosted model's place by mean accuracy, and how far its
    // accuracy trails the best model's.
    let mut order: Vec<usize> = (0..MODELS.len()).collect();
    order.sort_by(|&a, &b| means[b].total_cmp(&means[a]));
    let rank = order
        .iter()
        .position(|&i| MODELS[i].2)
        .expect("two models are boosted");
    let boosted_gap = means[order[0]] - means[order[rank]];

    let mut v = Values::default();
    for (&(model, _, _), &acc) in MODELS.iter().zip(&means) {
        v.set(&format!("acc.{model}"), acc);
    }
    v.set("boosted_rank", as_f64(rank + 1));
    v.set("boosted_gap", boosted_gap);
    v.set("fits", as_f64(accs.iter().map(Vec::len).sum()));
    v
}
