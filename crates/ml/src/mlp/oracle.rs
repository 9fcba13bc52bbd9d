//! The allocating fit, kept as the oracle the mini-batch fit of
//! [`Mlp::fit`](super::Mlp::fit) must equal bit for bit, and the random
//! cases the oracle tests run on.
//!
//! It is the plain training loop: one `Vec` of weights per output,
//! gradients allocated per mini-batch, and activations, deltas and
//! back-propagated errors allocated per sample. It leaves out only the
//! config validation and the observability calls.

use super::{softmax_in_place, Activation, Head, MlpConfig};
use crate::data::Dataset;
use lori_core::Rng;

/// One dense layer: `weights[out][in]` and a bias per output.
pub(super) struct Layer {
    pub(super) weights: Vec<Vec<f64>>,
    pub(super) biases: Vec<f64>,
    // Momentum buffers.
    vw: Vec<Vec<f64>>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut Rng) -> Layer {
        #[allow(clippy::cast_precision_loss)]
        let scale = (2.0 / n_in as f64).sqrt();
        let weights = (0..n_out)
            .map(|_| (0..n_in).map(|_| rng.normal() * scale).collect())
            .collect();
        Layer {
            weights,
            biases: vec![0.0; n_out],
            vw: vec![vec![0.0; n_in]; n_out],
            vb: vec![0.0; n_out],
        }
    }

    fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .zip(&self.biases)
            .map(|(row, b)| b + row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>())
            .collect()
    }
}

/// A network trained by [`fit`].
pub(super) struct OracleMlp {
    pub(super) layers: Vec<Layer>,
    activation: Activation,
    head: Head,
    pub(super) loss_history: Vec<f64>,
}

/// Trains an MLP with the allocating loop. `config` must be valid for
/// `ds`, as [`Mlp::fit`](super::Mlp::fit) checks.
pub(super) fn fit(ds: &Dataset, config: &MlpConfig) -> OracleMlp {
    let out_dim = match config.head {
        Head::Regression => 1,
        Head::Classification { n_classes } => n_classes,
    };

    let mut rng = Rng::from_seed(config.seed);
    let mut sizes = vec![ds.n_features()];
    sizes.extend(&config.hidden);
    sizes.push(out_dim);
    let mut layers: Vec<Layer> = sizes
        .windows(2)
        .map(|w| Layer::new(w[0], w[1], &mut rng))
        .collect();

    let class_targets = ds.class_targets();
    let mut order: Vec<usize> = (0..ds.len()).collect();
    let mut loss_history = Vec::with_capacity(config.epochs);

    for _ in 0..config.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        for chunk in order.chunks(config.batch_size) {
            // Accumulate gradients over the mini-batch.
            let mut gw: Vec<Vec<Vec<f64>>> = layers
                .iter()
                .map(|l| vec![vec![0.0; l.weights[0].len()]; l.weights.len()])
                .collect();
            let mut gb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.biases.len()]).collect();

            for &i in chunk {
                let (x, y) = ds.sample(i);
                // Forward pass, keeping activations.
                let mut acts: Vec<Vec<f64>> = vec![x.to_vec()];
                for (li, layer) in layers.iter().enumerate() {
                    let mut z = layer.forward(acts.last().expect("nonempty"));
                    let is_last = li == layers.len() - 1;
                    if is_last {
                        if let Head::Classification { .. } = config.head {
                            softmax_in_place(&mut z);
                        }
                    } else {
                        for v in &mut z {
                            *v = config.activation.apply(*v);
                        }
                    }
                    acts.push(z);
                }
                let out = acts.last().expect("nonempty");
                // Output delta (dL/dz for the last pre-activation).
                let mut delta: Vec<f64> = match config.head {
                    Head::Regression => {
                        let e = out[0] - y;
                        epoch_loss += e * e;
                        vec![e]
                    }
                    Head::Classification { .. } => {
                        let c = class_targets[i];
                        epoch_loss += -(out[c].max(1e-12)).ln();
                        out.iter()
                            .enumerate()
                            .map(|(k, &p)| p - f64::from(u8::from(k == c)))
                            .collect()
                    }
                };
                // Backward pass.
                for li in (0..layers.len()).rev() {
                    let input = &acts[li];
                    for (o, &d) in delta.iter().enumerate() {
                        gb[li][o] += d;
                        for (gwi, &xi) in gw[li][o].iter_mut().zip(input) {
                            *gwi += d * xi;
                        }
                    }
                    if li > 0 {
                        let mut prev = vec![0.0; input.len()];
                        for (o, &d) in delta.iter().enumerate() {
                            for (p, &w) in prev.iter_mut().zip(&layers[li].weights[o]) {
                                *p += d * w;
                            }
                        }
                        for (p, &a) in prev.iter_mut().zip(&acts[li]) {
                            *p *= config.activation.derivative_from_output(a);
                        }
                        delta = prev;
                    }
                }
            }

            // SGD-with-momentum update.
            #[allow(clippy::cast_precision_loss)]
            let scale = config.learning_rate / chunk.len() as f64;
            for (layer, (gwl, gbl)) in layers.iter_mut().zip(gw.iter().zip(&gb)) {
                for ((wrow, vrow), grow) in
                    layer.weights.iter_mut().zip(layer.vw.iter_mut()).zip(gwl)
                {
                    for ((w, v), &g) in wrow.iter_mut().zip(vrow.iter_mut()).zip(grow) {
                        *v = config.momentum * *v - scale * g;
                        *w += *v;
                    }
                }
                for ((b, v), &g) in layer.biases.iter_mut().zip(layer.vb.iter_mut()).zip(gbl) {
                    *v = config.momentum * *v - scale * g;
                    *b += *v;
                }
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let mean_loss = epoch_loss / ds.len() as f64;
        loss_history.push(mean_loss);
    }

    OracleMlp {
        layers,
        activation: config.activation,
        head: config.head,
        loss_history,
    }
}

impl OracleMlp {
    /// Raw network output (post-softmax for classification heads).
    pub(super) fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut a = x.to_vec();
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward(&a);
            if li == self.layers.len() - 1 {
                if let Head::Classification { .. } = self.head {
                    softmax_in_place(&mut z);
                }
            } else {
                for v in &mut z {
                    *v = self.activation.apply(*v);
                }
            }
            a = z;
        }
        a
    }
}

/// Hidden stacks the random cases draw from: single-unit and three-layer
/// stacks beside the shapes the experiments use, and `[17, 9]`, whose
/// widths pass the kernel's 8-wide blocks with a remainder.
const HIDDEN: [&[usize]; 7] = [
    &[16, 16],
    &[3],
    &[1],
    &[5, 1, 4],
    &[8, 8],
    &[2, 6, 3],
    &[17, 9],
];

/// A uniform draw from `0..n`.
fn below(rng: &mut Rng, n: usize) -> usize {
    usize::try_from(rng.below(n as u64)).expect("below n")
}

/// A uniformly chosen element of `options`.
fn pick<T: Copy>(rng: &mut Rng, options: &[T]) -> T {
    *rng.choose(options).expect("options are nonempty")
}

/// A random dataset and a valid config for it.
///
/// Datasets have 1 to 20 features, so the input layer is narrower than
/// one kernel block in some cases and spans more than two in others.
/// Feature values mix `-0.0`, `0.0`, small integers and Gaussian draws;
/// about a fifth of the rows duplicate an earlier row, and a quarter of
/// the datasets are scaled by 1e3 (with a smaller learning rate, so most
/// fits stay finite). `n` is never a multiple of a batch size above one,
/// and one batch size in four exceeds `n`.
pub(super) fn random_case(rng: &mut Rng) -> (Dataset, MlpConfig) {
    let d = 1 + below(rng, 20);
    let batch_size = match below(rng, 4) {
        0 => 1,
        1 => 7,
        2 => 32,
        _ => 80 + below(rng, 20),
    };
    let mut n = 20 + below(rng, 60);
    if batch_size > 1 && n.is_multiple_of(batch_size) {
        n += 1;
    }
    let large = rng.bernoulli(0.25);
    let magnitude = if large { 1e3 } else { 1.0 };

    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for _ in 0..n {
        if !rows.is_empty() && rng.bernoulli(0.2) {
            let k = below(rng, rows.len());
            rows.push(rows[k].clone());
            continue;
        }
        let row = (0..d)
            .map(|_| match below(rng, 5) {
                0 => -0.0,
                1 => 0.0,
                2 => pick(rng, &[-1.0, 0.0, 1.0]),
                _ => rng.normal() * magnitude,
            })
            .collect();
        rows.push(row);
    }

    let activation = pick(rng, &[Activation::Relu, Activation::Tanh]);
    let (head, targets): (Head, Vec<f64>) = if rng.bernoulli(0.5) {
        let ys = rows
            .iter()
            .map(|r| (r.iter().sum::<f64>() / magnitude).sin() + 0.1 * rng.normal())
            .collect();
        (Head::Regression, ys)
    } else {
        let n_classes = 2 + below(rng, 3);
        #[allow(clippy::cast_precision_loss)]
        let ys = (0..n).map(|_| below(rng, n_classes) as f64).collect();
        (Head::Classification { n_classes }, ys)
    };
    let hidden = pick(rng, &HIDDEN);
    let learning_rate = if large {
        1e-4
    } else {
        pick(rng, &[0.05, 0.01, 0.2])
    };
    let config = MlpConfig {
        hidden: hidden.to_vec(),
        activation,
        head,
        learning_rate,
        momentum: pick(rng, &[0.0, 0.5, 0.9]),
        epochs: 1 + below(rng, 3),
        batch_size,
        seed: rng.next_u64(),
    };
    let ds = Dataset::from_rows(rows, targets).expect("rectangular rows");
    (ds, config)
}
