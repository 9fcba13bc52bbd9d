//! Mirrors the light binaries that fit no MLP or boosted trees:
//! `exp-fig5`, `exp-fig6`, `exp-wall-sensitivity`, `exp-hdc-robustness`,
//! `exp-hdc-aging`, `exp-ff-vulnerability`, `exp-selective-replication`,
//! `exp-fig2` and `exp-rl-manager`, in that order. It is the control for
//! ML-fitting changes, and it is where a change to `ftsched`, `hdc`, `arch`
//! or `core` would show.

use super::{as_f64, reseed, Values};
use crate::trace::Tracer;
use lori_arch::cpu::{CpuConfig, Protection};
use lori_arch::isa::Program;
use lori_arch::predict::{ff_vulnerability_dataset, instruction_sdc_dataset};
use lori_arch::protect::evaluate_protection;
use lori_arch::workload;
use lori_circuit::aging::{AgingModel, StressProfile};
use lori_circuit::characterize::{characterize_library, she_as_delay_library, Corner};
use lori_circuit::netlist::processor_datapath;
use lori_circuit::she::SheModel;
use lori_circuit::spicelike::GoldenSimulator;
use lori_circuit::sta::{StaConfig, StaEngine};
use lori_circuit::tech::TechParams;
use lori_core::mgmt::{evaluate, train, Agent, Environment, Transition};
use lori_core::units::{Celsius, Cycles, Seconds};
use lori_core::Rng;
use lori_ftsched::montecarlo::{paper_probability_axis, sweep, SweepConfig};
use lori_ftsched::wall::wall_sensitivity;
use lori_ftsched::workload::adpcm_reference_trace;
use lori_hdc::classifier::{HdcClassifier, HdcClassifierConfig};
use lori_hdc::noise::flip_components;
use lori_hdc::regressor::{HdcRegressor, HdcRegressorConfig};
use lori_ml::knn::Knn;
use lori_ml::metrics::{accuracy, f1_score, mae, r2};
use lori_ml::rl::{QLearning, RlConfig};
use lori_ml::svm::{LinearSvm, SvmConfig};
use lori_ml::traits::Classifier;
use lori_sys::manager::{DvfsEnvConfig, DvfsEnvironment};
use lori_sys::platform::{CoreKind, Platform};
use lori_sys::sched::{Mapping, SimConfig};
use lori_sys::task::generate_task_set;

const HDC_ERROR_RATES: [f64; 8] = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.48];
const FF_TRAIN_FRACTIONS: [f64; 4] = [0.1, 0.2, 0.5, 0.8];
const SELREP_TRIALS: usize = 600;
const RL_EPISODES: usize = 150;
const RL_STEPS: usize = 40;

type Samples = (Vec<Vec<f64>>, Vec<f64>);

pub struct Inputs {
    seed: u64,
    trace: Vec<Cycles>,
    axis: Vec<f64>,
    sweep: SweepConfig,
    hdc_train: (Vec<Vec<f64>>, Vec<usize>),
    hdc_test: (Vec<Vec<f64>>, Vec<usize>),
    aging_train: Samples,
    aging_test: Samples,
    programs: Vec<Program>,
    cpu: CpuConfig,
    sim: GoldenSimulator,
    env: DvfsEnvironment,
}

/// `exp-hdc-robustness`'s five Gaussian blobs in 3-D.
fn blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut rng = Rng::from_seed(seed);
    let centers = [
        (0.0, 0.0, 1.0),
        (4.0, 4.0, -1.0),
        (0.0, 4.0, 2.0),
        (4.0, 0.0, -2.0),
        (2.0, 2.0, 4.0),
    ];
    (0..n)
        .map(|_| {
            let c = rng.below(centers.len() as u64) as usize;
            let (cx, cy, cz) = centers[c];
            let x = vec![
                rng.normal_with(cx, 0.45),
                rng.normal_with(cy, 0.45),
                rng.normal_with(cz, 0.45),
            ];
            (x, c)
        })
        .unzip()
}

/// `exp-hdc-aging`'s samples of the physics aging model: waveform features
/// (duty cycle, activity, temperature, years) and the ΔVth they cause.
fn aging_samples(n: usize, rng: &mut Rng) -> Samples {
    let physics = AgingModel::default();
    (0..n)
        .map(|_| {
            let duty = rng.uniform_in(0.05, 0.95);
            let act = rng.uniform_in(0.01, 0.8);
            let temp = rng.uniform_in(40.0, 120.0);
            let years = rng.uniform_in(0.5, 10.0);
            let stress = StressProfile::new(duty, act, Celsius(temp)).expect("stress in range");
            let dvth = physics
                .delta_vth(&stress, Seconds::from_years(years))
                .value();
            (vec![duty, act, temp, years], dvth)
        })
        .unzip()
}

pub fn setup(seed: u64) -> Inputs {
    let mut aging_rng = Rng::from_seed(reseed(1, seed));
    let aging_train = aging_samples(3000, &mut aging_rng);
    let aging_test = aging_samples(500, &mut aging_rng);
    let mut task_rng = Rng::from_seed(reseed(3, seed));
    let tasks = generate_task_set(6, 0.8, 1.6e6, (10.0, 60.0), &mut task_rng).expect("task set");
    let env = DvfsEnvironment::new(
        Platform::homogeneous(CoreKind::Little, 2).expect("platform"),
        tasks,
        Mapping::round_robin(6, 2),
        SimConfig::default(),
        DvfsEnvConfig::default(),
    )
    .expect("environment");
    Inputs {
        seed,
        trace: adpcm_reference_trace(),
        axis: paper_probability_axis(),
        sweep: SweepConfig {
            seed: reseed(0, seed),
            ..SweepConfig::paper()
        },
        hdc_train: blobs(1500, reseed(1, seed)),
        hdc_test: blobs(600, reseed(2, seed)),
        aging_train,
        aging_test,
        programs: workload::all(),
        cpu: CpuConfig::default(),
        sim: GoldenSimulator::new(TechParams::default()).expect("default technology is valid"),
        env,
    }
}

pub fn run(inputs: Inputs, tr: &mut Tracer) -> Values {
    let mut v = Values::default();
    fig5_fig6(&inputs, tr, &mut v);
    wall(&inputs, tr, &mut v);
    hdc_robustness(&inputs, tr, &mut v);
    hdc_aging(&inputs, tr, &mut v);
    ff_vulnerability(&inputs, tr, &mut v);
    selective_replication(&inputs, tr, &mut v);
    fig2(&inputs, tr, &mut v);
    rl_manager(inputs, tr, &mut v);
    v
}

/// `exp-fig5` and `exp-fig6` each run the same paper sweep.
fn fig5_fig6(inputs: &Inputs, tr: &mut Tracer, v: &mut Values) {
    let run_sweep = |tr: &mut Tracer| {
        let points = tr.par_span("ftsched.sweep", |_| {
            sweep(&inputs.axis, &inputs.trace, &inputs.sweep).expect("sweep")
        });
        tr.count(
            "ftsched.sweep.runs",
            as_f64(inputs.axis.len() * inputs.sweep.runs),
        );
        points
    };
    let fig5 = run_sweep(tr);
    let fig6 = run_sweep(tr);
    let at = |p: f64| {
        inputs
            .axis
            .iter()
            .position(|&q| (q - p).abs() < p * 1e-9)
            .expect("point on the paper axis")
    };
    v.set_all(
        "fig5.rollbacks",
        fig5.iter().map(|pt| pt.avg_rollbacks_per_segment).collect(),
    );
    v.set(
        "fig5.rollbacks_at_2e-5",
        fig5[at(2e-5)].avg_rollbacks_per_segment,
    );
    // Below 1e-6 a point sees a handful of rollbacks in all its runs, so
    // neighbouring points can swap; a decade apart they cannot.
    v.set_all(
        "fig5.rollbacks_per_decade",
        [1e-8, 1e-7, 1e-6, 1e-5, 1e-4]
            .map(|p| fig5[at(p)].avg_rollbacks_per_segment)
            .to_vec(),
    );
    v.set_all(
        "fig6.hit_rates",
        fig6.iter().flat_map(|pt| pt.hit_rate).collect(),
    );
    v.set_all("fig6.hit_at_5e-6", fig6[at(5e-6)].hit_rate.to_vec());
}

fn wall(inputs: &Inputs, tr: &mut Tracer, v: &mut Values) {
    let config = SweepConfig {
        runs: 40,
        ..inputs.sweep.clone()
    };
    let rows = tr.par_span("ftsched.wall_sensitivity", |_| {
        wall_sensitivity(&inputs.trace, &config, &[1.1, 1.3, 1.6, 2.0], &[1, 2, 4, 8])
            .expect("sensitivity sweep")
    });
    v.set_all("wall.ds", rows.iter().map(|r| r.wall_p[0]).collect());
}

fn hdc_robustness(inputs: &Inputs, tr: &mut Tracer, v: &mut Values) {
    let config = HdcClassifierConfig {
        dim: 8192,
        seed: reseed(0, inputs.seed),
        ..HdcClassifierConfig::default()
    };
    let (train_x, train_y) = &inputs.hdc_train;
    let (test_x, test_y) = &inputs.hdc_test;
    let clf = tr.par_span("hdc.classifier_fit", |_| {
        HdcClassifier::fit(train_x, train_y, &config).expect("training")
    });
    let mut rng = Rng::from_seed(reseed(3, inputs.seed));
    let accuracy: Vec<f64> = tr.span("hdc.noise_sweep", |_| {
        HDC_ERROR_RATES
            .iter()
            .map(|&rate| {
                let correct = test_x
                    .iter()
                    .zip(test_y)
                    .filter(|&(x, &y)| {
                        let noisy = flip_components(&clf.encode(x), rate, &mut rng);
                        clf.classify_encoded(&noisy) == y
                    })
                    .count();
                as_f64(correct) / as_f64(test_x.len())
            })
            .collect()
    });
    let at_40 = HDC_ERROR_RATES
        .iter()
        .position(|&r| r == 0.4)
        .expect("0.4 is swept");
    v.set("hdc.drop_at_40_pp", (accuracy[0] - accuracy[at_40]) * 100.0);
    v.set_all("hdc.accuracy", accuracy);
}

fn hdc_aging(inputs: &Inputs, tr: &mut Tracer, v: &mut Values) {
    let config = HdcRegressorConfig {
        dim: 8192,
        levels: 48,
        buckets: 32,
        seed: reseed(0, inputs.seed),
        ..HdcRegressorConfig::default()
    };
    let (train_x, train_y) = &inputs.aging_train;
    let (test_x, test_y) = &inputs.aging_test;
    let model = tr.span("hdc.regressor_fit", |_| {
        HdcRegressor::fit(train_x, train_y, &config).expect("training")
    });
    let preds: Vec<f64> = tr.span("hdc.regressor_predict", |_| {
        test_x.iter().map(|x| model.predict(x)).collect()
    });
    v.set("hdc_aging.r2", r2(test_y, &preds).expect("metric"));
    v.set("hdc_aging.mae", mae(test_y, &preds).expect("metric"));
}

fn ff_vulnerability(inputs: &Inputs, tr: &mut Tracer, v: &mut Values) {
    let ds = tr.par_span("arch.ff_vulnerability_dataset", |_| {
        ff_vulnerability_dataset(
            &inputs.programs,
            &inputs.cpu,
            4,
            0.0,
            reseed(1, inputs.seed),
        )
        .expect("dataset")
    });
    tr.count("arch.ff_vulnerability_dataset.rows", as_f64(ds.len()));
    let svm_config = SvmConfig {
        seed: reseed(0, inputs.seed),
        ..SvmConfig::default()
    };
    // Rows of `exp-ff-vulnerability.table.json`: train fraction, kNN
    // accuracy and F1, SVM accuracy and F1.
    let mut table = Vec::new();
    for &frac in &FF_TRAIN_FRACTIONS {
        let (train, test) = tr.span("ml.dataset", |_| {
            ds.split(frac, &mut Rng::from_seed(reseed(7, inputs.seed)))
                .expect("split")
        });
        let truth = test.class_targets();
        let knn = tr.span("ml.knn.fit", |_| Knn::fit(&train, 5).expect("knn"));
        let knn_pred = tr.span("ml.predict", |_| knn.predict_batch(test.features()));
        let (svm_acc, svm_f1) = match tr.span("ml.svm.fit", |_| LinearSvm::fit(&train, &svm_config))
        {
            Ok(svm) => {
                let p = tr.span("ml.predict", |_| svm.predict_batch(test.features()));
                (
                    accuracy(&truth, &p).expect("metric"),
                    f1_score(&truth, &p, 1).expect("metric"),
                )
            }
            Err(_) => (f64::NAN, f64::NAN),
        };
        table.extend([
            frac,
            accuracy(&truth, &knn_pred).expect("metric"),
            f1_score(&truth, &knn_pred, 1).expect("metric"),
            svm_acc,
            svm_f1,
        ]);
    }
    // kNN accuracy at 20% and at 80% training data.
    v.set("ff.knn_gap_20_80", (table[5 + 1] - table[3 * 5 + 1]).abs());
    v.set_all("ff.table", table);
}

/// Runs with the binary's own seeds at every workload seed. Evaluating a
/// protection costs 0.2 s or nothing depending on which instructions the
/// SVM happens to select (0.04-0.47 s over seeds 0, 4 and 10), which would
/// make this workload's time follow the seed rather than the code.
fn selective_replication(inputs: &Inputs, tr: &mut Tracer, v: &mut Values) {
    let svm_config = SvmConfig::default();
    // SDC rate without protection, with SVM-selected replication, and with
    // full duplication, per program.
    let sdc = tr.par_span("arch.selective_replication", |_| {
        let mut sdc = Vec::new();
        for program in &inputs.programs {
            let ds = instruction_sdc_dataset(program, &inputs.cpu, 24, 0.15, 1).expect("dataset");
            let classes = ds.class_targets();
            let selection: Vec<usize> = match LinearSvm::fit(&ds, &svm_config) {
                Ok(svm) => (0..program.len())
                    .filter(|&i| svm.predict(&ds.features()[i]) == 1)
                    .collect(),
                // Degenerate labels (one class): fall back to the labels.
                Err(_) => (0..program.len()).filter(|&i| classes[i] == 1).collect(),
            };
            let selective =
                Protection::for_instructions(program, selection).expect("indices are in range");
            for prot in [Protection::none(), selective, Protection::full(program)] {
                let report = evaluate_protection(program, &inputs.cpu, &prot, SELREP_TRIALS, 2)
                    .expect("campaign");
                sdc.push(report.sdc_rate());
            }
        }
        sdc
    });
    v.set_all("selrep.sdc", sdc);
}

fn fig2(inputs: &Inputs, tr: &mut Tracer, v: &mut Values) {
    let lib = tr.par_span("circuit.characterize_library", |_| {
        characterize_library(&inputs.sim, &Corner::default()).expect("library characterizes")
    });
    let netlist = tr.span("circuit.netlist", |_| {
        processor_datapath(&lib, 16, reseed(42, inputs.seed)).expect("datapath builds")
    });
    let report = tr.span("circuit.sta", |_| {
        let she_lib = she_as_delay_library(&lib, &SheModel::default()).expect("she library");
        StaEngine::new(&netlist, &she_lib, &StaConfig::default())
            .expect("sta")
            .into_report()
    });
    // With SHE temperatures in the delay slots, "delays" are ΔT in kelvin.
    let she = &report.instance_delay_ps;
    v.set("fig2.instances", as_f64(netlist.instance_count()));
    v.set(
        "fig2.she_mean",
        lori_core::stats::mean(she).expect("non-empty"),
    );
    v.set(
        "fig2.she_std",
        lori_core::stats::std_dev(she).expect("non-empty"),
    );
}

/// A static governor: always the same V-f level.
struct Fixed(usize);

impl Agent for Fixed {
    fn act(&mut self, _s: usize) -> usize {
        self.0
    }
    fn best_action(&self, _s: usize) -> usize {
        self.0
    }
    fn learn(&mut self, _s: usize, _a: usize, _t: &Transition) {}
}

fn rl_manager(inputs: Inputs, tr: &mut Tracer, v: &mut Values) {
    let mut env = inputs.env;
    let config = RlConfig {
        seed: reseed(0, inputs.seed),
        ..RlConfig::default()
    };
    let mut agent = QLearning::new(env.state_count(), env.action_count(), config).expect("agent");
    tr.span("core.mgmt_train", |_| {
        train(&mut env, &mut agent, RL_EPISODES, RL_STEPS)
    });
    let (learned, best_static) = tr.span("core.mgmt_evaluate", |_| {
        let learned = evaluate(&mut env, &agent, 5, RL_STEPS);
        let best_static = (0..env.action_count())
            .map(|level| evaluate(&mut env, &Fixed(level), 5, RL_STEPS))
            .fold(f64::NEG_INFINITY, f64::max);
        (learned, best_static)
    });
    v.set("rl.learned", learned);
    v.set("rl.best_static", best_static);
}
