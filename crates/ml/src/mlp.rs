//! A multi-layer perceptron with configurable hidden layers, trained by
//! mini-batch SGD with momentum.
//!
//! Small MLPs recur throughout the paper: SER estimation (Sec. IV-A.1),
//! cross-layer SER models (ref \[1\]), vulnerability estimation for MWTF
//! mapping (ref \[2\]), anomaly detection on intermediate DNN outputs
//! (ref \[30\]), and WarningNet-style input-perturbation warning (ref \[32\]).
//!
//! Training runs a whole mini-batch through each layer at a time. The
//! forward pass sums blocks of samples × outputs side by side in
//! registers, and the backward pass sums each gradient element over the
//! batch and stores it once. Every floating-point operation keeps the
//! operands and order of a plain fit that runs one sample at a time, so the
//! trained bits equal it (DESIGN.md §15); that fit is the test oracle in
//! `mlp/oracle.rs`. Inference runs rows through the same forward kernel.

use crate::data::Dataset;
use crate::error::MlError;
use crate::traits::{Classifier, ProbabilisticClassifier, Regressor};
use crate::tree::{argmax, reject_nan_features};
use lori_core::Rng;
use std::mem;

#[cfg(test)]
mod oracle;

/// The long side of each kernel's register block, along which its inner
/// loop vectorizes: samples in the forward pass, inputs in the weight
/// gradient and in back-propagation, outputs in the bias gradient. Eight
/// `f64` fill four SSE2 registers.
const BLOCK: usize = 8;
/// The short side of the forward and weight-gradient blocks: outputs.
const OUTPUTS: usize = 2;
/// Rows per forward pass at inference.
const PREDICT_ROWS: usize = 64;

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

    /// Applies the activation to every element of `z`. Each arm calls
    /// [`apply`](Self::apply) on a constant, so the `match` runs once per
    /// call rather than once per element.
    fn apply_all(self, z: &mut [f64]) {
        match self {
            Activation::Relu => z.iter_mut().for_each(|v| *v = Activation::Relu.apply(*v)),
            Activation::Tanh => z.iter_mut().for_each(|v| *v = Activation::Tanh.apply(*v)),
        }
    }

    /// Multiplies each back-propagated error by the derivative at the
    /// matching activation output, with the `match` hoisted as in
    /// [`apply_all`](Self::apply_all).
    fn scale_by_derivative(self, errors: &mut [f64], outputs: &[f64]) {
        let pairs = errors.iter_mut().zip(outputs);
        match self {
            Activation::Relu => {
                pairs.for_each(|(e, &a)| *e *= Activation::Relu.derivative_from_output(a));
            }
            Activation::Tanh => {
                pairs.for_each(|(e, &a)| *e *= Activation::Tanh.derivative_from_output(a));
            }
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

/// The value an empty `Iterator::sum` of `f64` returns (`-0.0` on rustc
/// 1.95). The forward sums fold from it, so each equals `Iterator::sum`
/// bit for bit.
fn empty_sum() -> f64 {
    std::iter::empty::<f64>().sum()
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

    fn n_out(&self) -> usize {
        self.biases.len()
    }

    /// The weights of output `o`.
    fn row(&self, o: usize) -> &[f64] {
        &self.weights[o * self.n_in..(o + 1) * self.n_in]
    }

    /// Writes the pre-activations `b + Σ w·x` of `n` samples into `z`
    /// (sample-major, `n × n_out`), reading the inputs feature-major from
    /// `xt` (input `i` of sample `s` at `xt[i·n + s]`). Training and
    /// inference share this kernel.
    ///
    /// Each `Σ` folds `w·x` in input order from [`empty_sum`] and the bias
    /// is added last; any other order changes the trained bits (DESIGN.md
    /// §15). Blocks of `BLOCK` samples × `OUTPUTS` outputs advance side by
    /// side, each sum in its own accumulator.
    fn forward(&self, xt: &[f64], n: usize, z: &mut [f64]) {
        let xt = &xt[..self.n_in * n];
        let full = n - n % BLOCK;
        for s in (0..full).step_by(BLOCK) {
            self.forward_block::<BLOCK>(xt, n, s, z);
        }
        for s in full..n {
            self.forward_block::<1>(xt, n, s, z);
        }
    }

    /// The pre-activations of samples `s0..s0 + S`.
    fn forward_block<const S: usize>(&self, xt: &[f64], n: usize, s0: usize, z: &mut [f64]) {
        let n_out = self.n_out();
        let full = n_out - n_out % OUTPUTS;
        for o in (0..full).step_by(OUTPUTS) {
            self.forward_tile::<S, OUTPUTS>(xt, n, s0, o, z);
        }
        for o in full..n_out {
            self.forward_tile::<S, 1>(xt, n, s0, o, z);
        }
    }

    /// The `S × O` pre-activations of samples `s0..s0 + S` and outputs
    /// `o0..o0 + O`.
    #[inline(always)]
    fn forward_tile<const S: usize, const O: usize>(
        &self,
        xt: &[f64],
        n: usize,
        s0: usize,
        o0: usize,
        z: &mut [f64],
    ) {
        let rows: [&[f64]; O] = std::array::from_fn(|k| self.row(o0 + k));
        let mut acc = [[empty_sum(); S]; O];
        for (i, x) in (0..self.n_in).zip(xt.chunks_exact(n)) {
            let x: &[f64; S] = x[s0..s0 + S].try_into().expect("S samples");
            for (acc, row) in acc.iter_mut().zip(rows) {
                let w = row[i];
                for (a, &x) in acc.iter_mut().zip(x) {
                    *a += w * x;
                }
            }
        }
        let n_out = self.n_out();
        for ((acc, o), b) in acc.iter().zip(o0..).zip(&self.biases[o0..]) {
            for (a, s) in acc.iter().zip(s0..) {
                z[s * n_out + o] = b + a;
            }
        }
    }

    /// Writes the batch's weight and bias gradients: `gw[o][i] = Σ d_o·x_i`
    /// and `gb[o] = Σ d_o`, each summed over the samples in mini-batch
    /// order from `+0.0`. `x` holds the layer's inputs and `d` its output
    /// deltas, both sample-major. Blocks of `OUTPUTS` outputs × `BLOCK`
    /// inputs advance side by side, each sum in its own accumulator.
    fn gradient(&self, x: &[f64], d: &[f64], gw: &mut [f64], gb: &mut [f64]) {
        let n_out = self.n_out();
        let full = n_out - n_out % BLOCK;
        for o in (0..full).step_by(BLOCK) {
            gb[o..o + BLOCK].copy_from_slice(&column_sums::<BLOCK>(d, n_out, o));
        }
        for (o, g) in gb.iter_mut().enumerate().skip(full) {
            *g = column_sums::<1>(d, n_out, o)[0];
        }
        let full = n_out - n_out % OUTPUTS;
        for o in (0..full).step_by(OUTPUTS) {
            self.gradient_rows::<OUTPUTS>(x, d, o, gw);
        }
        for o in full..n_out {
            self.gradient_rows::<1>(x, d, o, gw);
        }
    }

    /// The weight gradients of outputs `o0..o0 + O`.
    fn gradient_rows<const O: usize>(&self, x: &[f64], d: &[f64], o0: usize, gw: &mut [f64]) {
        let full = self.n_in - self.n_in % BLOCK;
        for i in (0..full).step_by(BLOCK) {
            self.gradient_tile::<O, BLOCK>(x, d, o0, i, gw);
        }
        for i in full..self.n_in {
            self.gradient_tile::<O, 1>(x, d, o0, i, gw);
        }
    }

    /// The `O × I` weight gradients of outputs `o0..o0 + O` and inputs
    /// `i0..i0 + I`.
    #[inline(always)]
    fn gradient_tile<const O: usize, const I: usize>(
        &self,
        x: &[f64],
        d: &[f64],
        o0: usize,
        i0: usize,
        gw: &mut [f64],
    ) {
        let mut acc = [[0.0; I]; O];
        for (x, d) in x.chunks_exact(self.n_in).zip(d.chunks_exact(self.n_out())) {
            let x: &[f64; I] = x[i0..i0 + I].try_into().expect("I inputs");
            for (acc, &d_o) in acc.iter_mut().zip(&d[o0..o0 + O]) {
                for (a, &x_i) in acc.iter_mut().zip(x) {
                    *a += d_o * x_i;
                }
            }
        }
        for (acc, o) in acc.iter().zip(o0..) {
            gw[o * self.n_in + i0..][..I].copy_from_slice(acc);
        }
    }

    /// Writes each sample's back-propagated error `prev[p] = Σ d_o·w[o][p]`
    /// (before the activation derivative) into `prev`, folding over the
    /// outputs in ascending order from `+0.0`. `d` and `prev` are
    /// sample-major. Blocks of `BLOCK` inputs advance side by side, each
    /// sum in its own accumulator.
    fn backprop(&self, d: &[f64], prev: &mut [f64]) {
        let full = self.n_in - self.n_in % BLOCK;
        for (d, prev) in d
            .chunks_exact(self.n_out())
            .zip(prev.chunks_exact_mut(self.n_in))
        {
            for p in (0..full).step_by(BLOCK) {
                self.backprop_tile::<BLOCK>(d, p, prev);
            }
            for p in full..self.n_in {
                self.backprop_tile::<1>(d, p, prev);
            }
        }
    }

    /// One sample's back-propagated errors at inputs `p0..p0 + P`.
    #[inline(always)]
    fn backprop_tile<const P: usize>(&self, d: &[f64], p0: usize, prev: &mut [f64]) {
        let mut acc = [0.0; P];
        for (&d_o, row) in d.iter().zip(self.weights.chunks_exact(self.n_in)) {
            let w: &[f64; P] = row[p0..p0 + P].try_into().expect("P inputs");
            for (a, &w) in acc.iter_mut().zip(w) {
                *a += d_o * w;
            }
        }
        prev[p0..p0 + P].copy_from_slice(&acc);
    }
}

/// Sums columns `c0..c0 + W` of the sample-major matrix `m` (`width`
/// columns) over its rows in order, each from `+0.0`.
#[inline(always)]
fn column_sums<const W: usize>(m: &[f64], width: usize, c0: usize) -> [f64; W] {
    let mut acc = [0.0; W];
    for row in m.chunks_exact(width) {
        let row: &[f64; W] = row[c0..c0 + W].try_into().expect("W columns");
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v;
        }
    }
    acc
}

/// Copies the `n` sample-major rows in `rows` into `xt` feature-major, the
/// forward kernel's input layout.
fn transpose(rows: &[f64], n: usize, xt: &mut [f64]) {
    let width = rows.len() / n;
    if width == 0 {
        return;
    }
    for (s, row) in rows.chunks_exact(width).enumerate() {
        for (column, &v) in xt.chunks_exact_mut(n).zip(row) {
            column[s] = v;
        }
    }
}

/// The activations of one batch of up to `rows` samples: what a forward
/// pass needs.
struct Activations {
    /// Sample-major: `values[0]` holds the batch's input rows and
    /// `values[li + 1]` the output of layer `li`.
    values: Vec<Vec<f64>>,
    /// The current layer's input, feature-major.
    xt: Vec<f64>,
}

impl Activations {
    fn new(n_features: usize, layers: &[Layer], rows: usize) -> Activations {
        let widths = std::iter::once(n_features).chain(layers.iter().map(Layer::n_out));
        Activations {
            values: widths.map(|w| vec![0.0; rows * w]).collect(),
            xt: vec![0.0; rows * layers.iter().map(|l| l.n_in).max().unwrap_or(0)],
        }
    }

    /// Copies the batch's rows into `values[0]`.
    fn load<'a>(&mut self, rows: impl IntoIterator<Item = &'a [f64]>) {
        let input = &mut self.values[0];
        input.clear();
        for row in rows {
            input.extend_from_slice(row);
        }
    }
}

/// A fit's working memory, allocated once per fit and sized for one
/// mini-batch.
struct Workspace {
    acts: Activations,
    /// Weight and bias gradients of the current mini-batch.
    gw: Vec<Vec<f64>>,
    gb: Vec<Vec<f64>>,
    /// Weight and bias momentum, carried across mini-batches.
    vw: Vec<Vec<f64>>,
    vb: Vec<Vec<f64>>,
    /// Sample-major: the deltas at a layer's outputs and the errors
    /// back-propagated to its inputs, each as wide as the widest layer;
    /// swapped after each layer.
    delta: Vec<f64>,
    prev: Vec<f64>,
}

impl Workspace {
    fn new(n_features: usize, layers: &[Layer], rows: usize) -> Workspace {
        let outputs: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.n_out()]).collect();
        let weights: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.weights.len()]).collect();
        let width = layers.iter().map(Layer::n_out).max().unwrap_or(0);
        Workspace {
            acts: Activations::new(n_features, layers, rows),
            gw: weights.clone(),
            gb: outputs.clone(),
            vw: weights,
            vb: outputs,
            delta: vec![0.0; rows * width],
            prev: vec![0.0; rows * width],
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
        let rows = config.batch_size.min(ds.len());
        let mut work = Workspace::new(ds.n_features(), &mlp.layers, rows);
        let mut order: Vec<usize> = (0..ds.len()).collect();

        let loss_gauge = lori_obs::gauge("ml.train.loss");
        for epoch in 0..config.epochs {
            #[allow(clippy::cast_precision_loss)]
            let _epoch_span = lori_obs::span_with("ml.train.epoch", epoch as f64);
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(config.batch_size) {
                let n = chunk.len();
                work.acts.load(chunk.iter().map(|&i| ds.sample(i).0));
                mlp.forward_pass(&mut work.acts, n);
                // Each sample's loss joins the epoch sum on its own, in
                // mini-batch order.
                let out = &work.acts.values[mlp.layers.len()][..n * out_dim];
                for ((out, delta), &i) in out
                    .chunks_exact(out_dim)
                    .zip(work.delta.chunks_exact_mut(out_dim))
                    .zip(chunk)
                {
                    epoch_loss += mlp.output_delta(out, ds.sample(i).1, class_targets[i], delta);
                }
                mlp.backward(&mut work, n);
                #[allow(clippy::cast_precision_loss)]
                let scale = config.learning_rate / n as f64;
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

    /// Width of the network's output.
    fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Layer::n_out)
    }

    /// Runs the `n` samples in `acts.values[0]` through every layer,
    /// leaving each layer's output in `acts.values`.
    fn forward_pass(&self, acts: &mut Activations, n: usize) {
        let Activations { values, xt } = acts;
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = values.split_at_mut(li + 1);
            transpose(&done[li][..n * layer.n_in], n, xt);
            let z = &mut rest[0][..n * layer.n_out()];
            layer.forward(xt, n, z);
            self.nonlinearity(li == last, z);
        }
    }

    /// Applies the nonlinearity after a layer in place: softmax on each
    /// sample's outputs after a classification head's output layer, none
    /// after a regression head's, and the hidden activation after every
    /// other layer.
    fn nonlinearity(&self, is_output: bool, z: &mut [f64]) {
        if !is_output {
            self.activation.apply_all(z);
        } else if let Head::Classification { n_classes } = self.head {
            z.chunks_exact_mut(n_classes).for_each(softmax_in_place);
        }
    }

    /// Writes one sample's output delta (dL/dz for the last
    /// pre-activation) into `delta` and returns its loss. `y` is the
    /// regression target and `class` the class index; each head reads its
    /// own.
    fn output_delta(&self, out: &[f64], y: f64, class: usize, delta: &mut [f64]) -> f64 {
        match self.head {
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
        }
    }

    /// The backward pass over the `n` samples of the last forward pass:
    /// writes every layer's gradients into `work.gw`/`work.gb`, starting
    /// from the output deltas in `work.delta`.
    fn backward(&self, work: &mut Workspace, n: usize) {
        let Workspace {
            acts,
            gw,
            gb,
            delta,
            prev,
            ..
        } = work;
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let input = &acts.values[li][..n * layer.n_in];
            let d = &delta[..n * layer.n_out()];
            layer.gradient(input, d, &mut gw[li], &mut gb[li]);
            if li > 0 {
                let p = &mut prev[..n * layer.n_in];
                layer.backprop(d, p);
                self.activation.scale_by_derivative(p, input);
                mem::swap(delta, prev);
            }
        }
    }

    /// Raw network output (post-softmax for classification heads).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        // A batch of one: a single row is its own feature-major layout.
        let last = self.layers.len() - 1;
        let mut a = x.to_vec();
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = vec![0.0; layer.n_out()];
            layer.forward(&a, 1, &mut z);
            self.nonlinearity(li == last, &mut z);
            a = z;
        }
        a
    }

    /// The outputs of `rows`, sample-major. Blocks of `PREDICT_ROWS` rows
    /// run through the training forward pass.
    ///
    /// # Panics
    ///
    /// Panics if a row has the wrong number of features.
    fn forward_rows(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let out_dim = self.out_dim();
        let block = rows.len().min(PREDICT_ROWS);
        let mut acts = Activations::new(self.n_features, &self.layers, block);
        let mut out = Vec::with_capacity(rows.len() * out_dim);
        for block in rows.chunks(PREDICT_ROWS) {
            acts.load(block.iter().map(|row| {
                assert_eq!(row.len(), self.n_features, "feature count mismatch");
                row.as_slice()
            }));
            self.forward_pass(&mut acts, block.len());
            out.extend_from_slice(&acts.values[self.layers.len()][..block.len() * out_dim]);
        }
        out
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

    /// Runs the rows in blocks through the batch forward pass.
    ///
    /// # Panics
    ///
    /// Panics if called on a regression-head network.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        assert!(
            matches!(self.head, Head::Classification { .. }),
            "predict() requires a classification head"
        );
        let scores = self.forward_rows(xs);
        scores.chunks_exact(self.out_dim()).map(argmax).collect()
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

    /// Runs the rows in blocks through the batch forward pass.
    ///
    /// # Panics
    ///
    /// Panics if called on a classification-head network.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        assert!(
            matches!(self.head, Head::Regression),
            "predict() requires a regression head"
        );
        self.forward_rows(xs)
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

    /// The mini-batch fit equals the allocating oracle bit for bit: loss
    /// history, every weight and bias, and the output on every training
    /// row, one row at a time and through the batch forward pass that
    /// `predict_batch` runs, over random configs and datasets
    /// (`oracle::random_case`).
    #[test]
    fn fit_matches_allocating_oracle() {
        let mut rng = Rng::from_seed(0x006d_6c70);
        let (mut classes, mut activations, mut hidden, mut batches) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut features, mut chunks) = (Vec::new(), Vec::new());
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
            let expected: Vec<f64> = ds
                .features()
                .iter()
                .flat_map(|row| slow.forward(row))
                .collect();
            for (row, expected) in ds
                .features()
                .iter()
                .zip(expected.chunks_exact(fast.out_dim()))
            {
                assert_eq!(bits(&fast.forward(row)), bits(expected));
            }
            assert_eq!(bits(&fast.forward_rows(ds.features())), bits(&expected));
            finite += usize::from(fast.loss_history().iter().all(|l| l.is_finite()));
            classes.push(match config.head {
                Head::Regression => 0,
                Head::Classification { n_classes } => n_classes,
            });
            activations.push(config.activation);
            features.push(ds.n_features());
            // The mini-batch sizes: full batches and the remainder.
            chunks.extend([
                config.batch_size.min(ds.len()),
                ds.len() % config.batch_size,
            ]);
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
        // ... and the kernel's blocks: two full input blocks, a layer
        // wider than a block but not a multiple of it, and a mini-batch
        // with full sample blocks and a partial one.
        assert!(features.iter().any(|&d| d >= 2 * BLOCK), "{features:?}");
        let ragged = |w: usize| w > BLOCK && !w.is_multiple_of(BLOCK);
        assert!(features.iter().any(|&d| ragged(d)));
        assert!(hidden.iter().flatten().any(|&w| ragged(w)));
        assert!(chunks.iter().any(|&n| ragged(n)));
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
