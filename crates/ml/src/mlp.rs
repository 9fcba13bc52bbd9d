//! A multi-layer perceptron with configurable hidden layers, trained by
//! mini-batch SGD with momentum.
//!
//! Small MLPs recur throughout the paper: SER estimation (Sec. IV-A.1),
//! cross-layer SER models (ref \[1\]), vulnerability estimation for MWTF
//! mapping (ref \[2\]), anomaly detection on intermediate DNN outputs
//! (ref \[30\]), and WarningNet-style input-perturbation warning (ref \[32\]).
//!
//! A fit allocates its working memory once: an activation buffer per
//! layer, gradient and momentum buffers shaped like the flat row-major
//! weights, and two delta buffers as wide as the widest layer. Every
//! floating-point operation runs in the order of a plain fit that
//! allocates per mini-batch and per sample, so the trained bits equal it
//! (DESIGN.md §15); that fit is the test oracle in `mlp/oracle.rs`.

use crate::data::Dataset;
use crate::error::MlError;
use crate::traits::{Classifier, ProbabilisticClassifier, Regressor};
use crate::tree::{argmax, reject_nan_features};
use lori_core::Rng;
use std::mem;

#[cfg(test)]
mod oracle;

/// Activation function for hidden layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit.
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    fn apply(self, z: f64) -> f64 {
        match self {
            Activation::Relu => z.max(0.0),
            Activation::Tanh => z.tanh(),
        }
    }

    /// Derivative expressed in terms of the *activation output* `a`.
    fn derivative_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
        }
    }
}

/// Output head: determines the loss and final-layer nonlinearity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// Linear output + squared loss (regression). Output width 1.
    Regression,
    /// Softmax output + cross-entropy (classification). Output width =
    /// number of classes.
    Classification {
        /// Number of classes.
        n_classes: usize,
    },
}

/// Training configuration for [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden-layer widths, e.g. `vec![16, 16]` for two hidden layers.
    pub hidden: Vec<usize>,
    /// Hidden activation.
    pub activation: Activation,
    /// Output head.
    pub head: Head,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f64,
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl MlpConfig {
    /// A sensible default for small tabular classification problems.
    #[must_use]
    pub fn classifier(n_classes: usize) -> Self {
        MlpConfig {
            hidden: vec![16, 16],
            activation: Activation::Relu,
            head: Head::Classification { n_classes },
            learning_rate: 0.05,
            momentum: 0.9,
            epochs: 200,
            batch_size: 32,
            seed: 0,
        }
    }

    /// A sensible default for small tabular regression problems.
    #[must_use]
    pub fn regressor() -> Self {
        MlpConfig {
            hidden: vec![32, 32],
            activation: Activation::Tanh,
            head: Head::Regression,
            learning_rate: 0.01,
            momentum: 0.9,
            epochs: 300,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// One dense layer: row-major `weights` (`n_out × n_in`) and a bias per
/// output.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    n_in: usize,
    weights: Vec<f64>,
    biases: Vec<f64>,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut Rng) -> Layer {
        // He-style initialization keeps gradients healthy for ReLU; fine for
        // tanh at these scales too.
        #[allow(clippy::cast_precision_loss)]
        let scale = (2.0 / n_in as f64).sqrt();
        // Drawn row by row, in the order the rows are laid out.
        let weights = (0..n_out * n_in).map(|_| rng.normal() * scale).collect();
        Layer {
            n_in,
            weights,
            biases: vec![0.0; n_out],
        }
    }

    /// The weights of output `o`.
    fn row(&self, o: usize) -> &[f64] {
        &self.weights[o * self.n_in..(o + 1) * self.n_in]
    }

    /// Writes the pre-activations `b + Σ w·x` into `out`. Training and
    /// inference share this kernel. `Σ` is `Iterator::sum` in input order
    /// and the bias is added last; any other order changes the trained
    /// bits (DESIGN.md §15).
    fn forward_into(&self, input: &[f64], out: &mut [f64]) {
        for (o, (z, b)) in out.iter_mut().zip(&self.biases).enumerate() {
            let row = self.row(o);
            *z = b + row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>();
        }
    }
}

/// A fit's working memory, allocated once per fit. The per-layer buffers
/// are shaped like that layer's outputs, weights and biases.
struct Workspace {
    /// Each layer's activations for the current sample.
    acts: Vec<Vec<f64>>,
    /// Weight and bias gradients summed over the current mini-batch.
    gw: Vec<Vec<f64>>,
    gb: Vec<Vec<f64>>,
    /// Weight and bias momentum, carried across mini-batches.
    vw: Vec<Vec<f64>>,
    vb: Vec<Vec<f64>>,
    /// The delta at a layer's output and the one back-propagated to its
    /// input, each as wide as the widest layer; swapped after each layer.
    delta: Vec<f64>,
    prev: Vec<f64>,
}

impl Workspace {
    fn new(layers: &[Layer]) -> Workspace {
        let outputs: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.biases.len()]).collect();
        let weights: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.weights.len()]).collect();
        let width = layers.iter().map(|l| l.biases.len()).max().unwrap_or(0);
        Workspace {
            acts: outputs.clone(),
            gw: weights.clone(),
            gb: outputs.clone(),
            vw: weights,
            vb: outputs,
            delta: vec![0.0; width],
            prev: vec![0.0; width],
        }
    }
}

/// SGD with momentum, element by element: `v = μ·v − scale·g`, then
/// `w += v`.
fn sgd_step(params: &mut [f64], velocity: &mut [f64], grads: &[f64], scale: f64, momentum: f64) {
    for ((w, v), &g) in params.iter_mut().zip(velocity).zip(grads) {
        *v = momentum * *v - scale * g;
        *w += *v;
    }
}

/// A trained multi-layer perceptron.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Layer>,
    activation: Activation,
    head: Head,
    n_features: usize,
    /// Mean training loss per epoch, recorded during fitting.
    loss_history: Vec<f64>,
}

impl Mlp {
    /// Trains an MLP on the dataset.
    ///
    /// For a classification head, targets are class indices; for regression,
    /// raw values.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for an invalid config,
    /// including a classification head that sees class labels outside
    /// `0..n_classes`, or [`MlError::Numerical`] if a feature value is NaN.
    pub fn fit(ds: &Dataset, config: &MlpConfig) -> Result<Self, MlError> {
        let _span = lori_obs::span("ml.mlp.fit");
        if config.learning_rate.is_nan()
            || config.learning_rate <= 0.0
            || !(0.0..1.0).contains(&config.momentum)
            || config.epochs == 0
            || config.batch_size == 0
            || config.hidden.contains(&0)
        {
            return Err(MlError::InvalidHyperparameter("mlp config"));
        }
        let class_targets = ds.class_targets();
        let out_dim = match config.head {
            Head::Regression => 1,
            Head::Classification { n_classes } => {
                if n_classes < 2 || class_targets.iter().any(|&c| c >= n_classes) {
                    return Err(MlError::InvalidHyperparameter("n_classes"));
                }
                n_classes
            }
        };
        reject_nan_features(ds.features())?;

        let mut rng = Rng::from_seed(config.seed);
        let mut sizes = vec![ds.n_features()];
        sizes.extend(&config.hidden);
        sizes.push(out_dim);
        let mut mlp = Mlp {
            layers: sizes
                .windows(2)
                .map(|w| Layer::new(w[0], w[1], &mut rng))
                .collect(),
            activation: config.activation,
            head: config.head,
            n_features: ds.n_features(),
            loss_history: Vec::with_capacity(config.epochs),
        };
        let mut work = Workspace::new(&mlp.layers);
        let mut order: Vec<usize> = (0..ds.len()).collect();

        let loss_gauge = lori_obs::gauge("ml.train.loss");
        for epoch in 0..config.epochs {
            #[allow(clippy::cast_precision_loss)]
            let _epoch_span = lori_obs::span_with("ml.train.epoch", epoch as f64);
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(config.batch_size) {
                for g in work.gw.iter_mut().chain(&mut work.gb) {
                    g.fill(0.0);
                }
                for &i in chunk {
                    let (x, y) = ds.sample(i);
                    epoch_loss += mlp.accumulate_gradient(x, y, class_targets[i], &mut work);
                }
                #[allow(clippy::cast_precision_loss)]
                let scale = config.learning_rate / chunk.len() as f64;
                for (li, layer) in mlp.layers.iter_mut().enumerate() {
                    let (vw, gw) = (&mut work.vw[li], &work.gw[li]);
                    sgd_step(&mut layer.weights, vw, gw, scale, config.momentum);
                    let (vb, gb) = (&mut work.vb[li], &work.gb[li]);
                    sgd_step(&mut layer.biases, vb, gb, scale, config.momentum);
                }
            }
            #[allow(clippy::cast_precision_loss)]
            let mean_loss = epoch_loss / ds.len() as f64;
            loss_gauge.set(mean_loss);
            mlp.loss_history.push(mean_loss);
        }
        Ok(mlp)
    }

    /// Applies the nonlinearity after a layer in place: softmax after a
    /// classification head's output layer, none after a regression head's,
    /// and the hidden activation after every other layer.
    fn nonlinearity(&self, is_output: bool, z: &mut [f64]) {
        if !is_output {
            for v in z {
                *v = self.activation.apply(*v);
            }
        } else if let Head::Classification { .. } = self.head {
            softmax_in_place(z);
        }
    }

    /// Forward and backward pass for one sample: adds its gradient to
    /// `work.gw`/`work.gb` and returns its loss. `y` is the regression
    /// target and `class` the class index; each head reads its own.
    fn accumulate_gradient(&self, x: &[f64], y: f64, class: usize, work: &mut Workspace) -> f64 {
        let Workspace {
            acts,
            gw,
            gb,
            delta,
            prev,
            ..
        } = work;
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(li);
            let out = &mut rest[0];
            layer.forward_into(done.last().map_or(x, Vec::as_slice), out);
            self.nonlinearity(li == last, out);
        }
        // Output delta (dL/dz for the last pre-activation).
        let out = &acts[last];
        let loss = match self.head {
            Head::Regression => {
                let e = out[0] - y;
                delta[0] = e;
                e * e
            }
            Head::Classification { .. } => {
                for (k, (d, &p)) in delta.iter_mut().zip(out).enumerate() {
                    *d = p - f64::from(u8::from(k == class));
                }
                -(out[class].max(1e-12)).ln()
            }
        };
        // Backward pass.
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let input = if li == 0 { x } else { &acts[li - 1] };
            let d = &delta[..layer.biases.len()];
            for (o, (&d_o, gb_o)) in d.iter().zip(&mut gb[li]).enumerate() {
                *gb_o += d_o;
                let gw_row = &mut gw[li][o * layer.n_in..(o + 1) * layer.n_in];
                for (g, &xi) in gw_row.iter_mut().zip(input) {
                    *g += d_o * xi;
                }
            }
            if li > 0 {
                let p = &mut prev[..layer.n_in];
                p.fill(0.0);
                for (o, &d_o) in d.iter().enumerate() {
                    for (p, &w) in p.iter_mut().zip(layer.row(o)) {
                        *p += d_o * w;
                    }
                }
                for (p, &a) in p.iter_mut().zip(input) {
                    *p *= self.activation.derivative_from_output(a);
                }
                mem::swap(delta, prev);
            }
        }
        loss
    }

    /// Raw network output (post-softmax for classification heads).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        let last = self.layers.len() - 1;
        let mut a = x.to_vec();
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = vec![0.0; layer.biases.len()];
            layer.forward_into(&a, &mut z);
            self.nonlinearity(li == last, &mut z);
            a = z;
        }
        a
    }

    /// Mean training loss per epoch (useful for convergence tests).
    #[must_use]
    pub fn loss_history(&self) -> &[f64] {
        &self.loss_history
    }

    /// Number of trainable parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.biases.len())
            .sum()
    }
}

impl Classifier for Mlp {
    /// # Panics
    ///
    /// Panics if called on a regression-head network.
    fn predict(&self, x: &[f64]) -> usize {
        assert!(
            matches!(self.head, Head::Classification { .. }),
            "predict() requires a classification head"
        );
        argmax(&self.forward(x))
    }
}

impl ProbabilisticClassifier for Mlp {
    fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.forward(x)
    }
}

impl Regressor for Mlp {
    /// # Panics
    ///
    /// Panics if called on a classification-head network.
    fn predict(&self, x: &[f64]) -> f64 {
        assert!(
            matches!(self.head, Head::Regression),
            "predict() requires a regression head"
        );
        self.forward(x)[0]
    }
}

fn softmax_in_place(z: &mut [f64]) {
    let max = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in z.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in z {
        *v /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use lori_core::Rng;

    fn xor_like(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::from_seed(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.bernoulli(0.5);
            let b = rng.bernoulli(0.5);
            rows.push(vec![
                f64::from(u8::from(a)) + rng.normal_with(0.0, 0.1),
                f64::from(u8::from(b)) + rng.normal_with(0.0, 0.1),
            ]);
            ys.push(f64::from(u8::from(a ^ b)));
        }
        Dataset::from_rows(rows, ys).unwrap()
    }

    #[test]
    fn learns_xor() {
        let ds = xor_like(400, 1);
        let mlp = Mlp::fit(&ds, &MlpConfig::classifier(2)).unwrap();
        let preds: Vec<usize> = ds
            .features()
            .iter()
            .map(|r| Classifier::predict(&mlp, r))
            .collect();
        let acc = accuracy(&ds.class_targets(), &preds).unwrap();
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn training_loss_decreases() {
        let ds = xor_like(200, 2);
        let mlp = Mlp::fit(&ds, &MlpConfig::classifier(2)).unwrap();
        let h = mlp.loss_history();
        assert!(h.last().unwrap() < h.first().unwrap());
    }

    #[test]
    fn regression_fits_sine() {
        let mut rng = Rng::from_seed(3);
        let rows: Vec<Vec<f64>> = (0..500).map(|_| vec![rng.uniform_in(-3.0, 3.0)]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0].sin()).collect();
        let ds = Dataset::from_rows(rows.clone(), ys.clone()).unwrap();
        let mlp = Mlp::fit(&ds, &MlpConfig::regressor()).unwrap();
        let mse: f64 = rows
            .iter()
            .zip(&ys)
            .map(|(r, y)| (Regressor::predict(&mlp, r) - y).powi(2))
            .sum::<f64>()
            / 500.0;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn softmax_outputs_distribution() {
        let ds = xor_like(100, 4);
        let mlp = Mlp::fit(&ds, &MlpConfig::classifier(2)).unwrap();
        let s = mlp.scores(&[0.5, 0.5]);
        assert_eq!(s.len(), 2);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn invalid_configs_rejected() {
        let ds = xor_like(50, 5);
        let mut c = MlpConfig::classifier(2);
        c.learning_rate = 0.0;
        assert!(Mlp::fit(&ds, &c).is_err());
        let mut c = MlpConfig::classifier(2);
        c.hidden = vec![0];
        assert!(Mlp::fit(&ds, &c).is_err());
        let c = MlpConfig::classifier(1);
        assert!(Mlp::fit(&ds, &c).is_err());
    }

    #[test]
    fn out_of_range_class_label_is_an_invalid_n_classes() {
        let bad = Dataset::from_rows(vec![vec![0.0], vec![1.0]], vec![0.0, 5.0]).unwrap();
        assert_eq!(
            Mlp::fit(&bad, &MlpConfig::classifier(2)),
            Err(MlError::InvalidHyperparameter("n_classes"))
        );
    }

    #[test]
    fn nan_feature_is_a_typed_error() {
        let ds = Dataset::from_rows(
            vec![vec![0.0, 1.0], vec![f64::NAN, 2.0], vec![1.0, 3.0]],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let nan = Err(MlError::Numerical("NaN feature"));
        assert_eq!(Mlp::fit(&ds, &MlpConfig::classifier(2)), nan);
        assert_eq!(Mlp::fit(&ds, &MlpConfig::regressor()), nan);
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = xor_like(100, 6);
        let a = Mlp::fit(&ds, &MlpConfig::classifier(2)).unwrap();
        let b = Mlp::fit(&ds, &MlpConfig::classifier(2)).unwrap();
        assert_eq!(a.forward(&[0.3, 0.7]), b.forward(&[0.3, 0.7]));
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let ds = xor_like(50, 7);
        let mut c = MlpConfig::classifier(2);
        c.hidden = vec![4];
        c.epochs = 1;
        let mlp = Mlp::fit(&ds, &c).unwrap();
        // 2->4: 8 w + 4 b; 4->2: 8 w + 2 b = 22.
        assert_eq!(mlp.parameter_count(), 22);
    }

    #[test]
    #[should_panic(expected = "requires a regression head")]
    fn regression_predict_on_classifier_panics() {
        let ds = xor_like(50, 8);
        let mut c = MlpConfig::classifier(2);
        c.epochs = 1;
        let mlp = Mlp::fit(&ds, &c).unwrap();
        let _: f64 = Regressor::predict(&mlp, &[0.0, 0.0]);
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    const ORACLE_CASES: usize = 240;

    /// The workspace fit equals the allocating oracle bit for bit: loss
    /// history, every weight and bias, and the output on every training
    /// row, over random configs and datasets (`oracle::random_case`).
    #[test]
    fn fit_matches_allocating_oracle() {
        let mut rng = Rng::from_seed(0x006d_6c70);
        let (mut classes, mut activations, mut hidden, mut batches) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut oversized_batch, mut finite) = (false, 0);
        for case in 0..ORACLE_CASES {
            let (ds, config) = oracle::random_case(&mut rng);
            let fast = Mlp::fit(&ds, &config).unwrap();
            let slow = oracle::fit(&ds, &config);
            assert_eq!(
                bits(fast.loss_history()),
                bits(&slow.loss_history),
                "case {case}: {config:?}"
            );
            for (layer, expected) in fast.layers.iter().zip(&slow.layers) {
                assert_eq!(bits(&layer.weights), bits(&expected.weights.concat()));
                assert_eq!(bits(&layer.biases), bits(&expected.biases));
            }
            for row in ds.features() {
                assert_eq!(bits(&fast.forward(row)), bits(&slow.forward(row)));
            }
            finite += usize::from(fast.loss_history().iter().all(|l| l.is_finite()));
            classes.push(match config.head {
                Head::Regression => 0,
                Head::Classification { n_classes } => n_classes,
            });
            activations.push(config.activation);
            hidden.push(config.hidden);
            batches.push(config.batch_size);
            oversized_batch |= config.batch_size > ds.len();
        }
        // The cases cover what the operation order depends on.
        for k in [0, 2, 3, 4] {
            assert!(classes.contains(&k), "head with {k} classes");
        }
        for a in [Activation::Relu, Activation::Tanh] {
            assert!(activations.contains(&a), "{a:?}");
        }
        assert!(hidden.iter().any(|h| h.contains(&1)));
        assert!(hidden.iter().any(|h| h.len() == 3));
        for b in [1, 7, 32] {
            assert!(batches.contains(&b), "batch size {b}");
        }
        assert!(oversized_batch, "a batch larger than n");
        // Bit equality of diverged fits says little; most must stay finite.
        assert!(finite * 10 >= ORACLE_CASES * 9, "{finite} finite fits");
    }

    #[test]
    fn activations_behave() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(3.0), 1.0);
    }
}
