//! `train-sqvae32`: `Trainer::train` on the paper's scalable model.
//!
//! SQ-VAE(1024-d, p=16, `SCALABLE_LAYERS`) on synthetic PDBbind 32×32
//! ligands with `TrainConfig::default()` (batch 32, the library's default
//! execution policy). Each timed call trains one batch, so every sample is
//! one optimizer step; the patched adjoint sweep dominates it.

use crate::layers;
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Span};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::core::{
    models, Autoencoder, GaussianLatent, ParamGroup, PatchedQuantumLayer, TrainConfig, Trainer,
};
use sqvae::datasets::pdbbind::{self, PdbbindConfig};
use sqvae::datasets::Dataset;
use sqvae::nn::{loss, Adam, Linear, Matrix, Module, Optimizer};
use std::time::Instant;

/// Ligands generated per run; batches cycle through them.
const LIGANDS: usize = 256;
/// Rows per training step (`TrainConfig::default().batch_size`).
fn batch_size() -> usize {
    TrainConfig::default().batch_size
}
/// Step-latency percentile reported as the tail (as a note: its run-to-run
/// spread is too wide to bound, see README.md).
const TAIL: f64 = 0.90;

/// Steps per chunk of the median of medians (about two seconds of them).
const P50_CHUNK: usize = 32;

/// Seed of the canonical reference run whose losses are stored in
/// `reference.txt`.
const REFERENCE_SEED: u64 = 1;

/// Everything one set-up builds.
pub struct Setup {
    batches: Vec<Dataset>,
    model: Autoencoder,
    trainer: Trainer,
}

pub fn setup(seed: u64, ligands: usize) -> Setup {
    let data = {
        let _s = trace::span("datasets.generate");
        pdbbind::generate(&PdbbindConfig {
            n_samples: ligands,
            seed,
        })
    };
    let bs = batch_size();
    let batches = data
        .samples()
        .chunks(bs)
        .filter(|c| c.len() == bs)
        .map(|c| Dataset::from_samples(c.to_vec()).expect("non-empty batch"))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = models::sq_vae(1024, 16, models::SCALABLE_LAYERS, &mut rng);
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        seed,
        ..TrainConfig::default()
    });
    Setup {
        batches,
        model,
        trainer,
    }
}

/// Train-set MSE and KL of one `Trainer::train` call, or why it failed.
fn step(s: &mut Setup, i: usize) -> Result<(f64, f64), String> {
    let n = s.batches.len();
    let h = s
        .trainer
        .train(&mut s.model, &s.batches[i % n], None)
        .map_err(|e| e.to_string())?;
    let r = h.records.first().ok_or("no epoch recorded")?;
    if !h.anomalies.is_empty() {
        return Err(format!("non-finite step guarded: {:?}", h.anomalies));
    }
    if !(r.train_mse.is_finite() && r.train_kl.is_finite()) {
        return Err(format!("non-finite loss {} / {}", r.train_mse, r.train_kl));
    }
    Ok((r.train_mse, r.train_kl))
}

/// Losses of the first two steps of the canonical run, checked against
/// `reference.txt`.
pub fn reference_losses() -> Result<Vec<f64>, String> {
    let mut s = setup(REFERENCE_SEED, 2 * batch_size());
    let mut out = Vec::new();
    for i in 0..2 {
        let (mse, kl) = step(&mut s, i)?;
        out.extend([mse, kl]);
    }
    Ok(out)
}

/// One replay of the trainer's batch loop through public calls, with a
/// span around each, plus one batch through standalone replicas of the
/// model's stages with the same shapes and execution policy.
struct Replay {
    quantum_opt: Adam,
    classical_opt: Adam,
    enc: PatchedQuantumLayer,
    dec: PatchedQuantumLayer,
    linear: Linear,
    latent: GaussianLatent,
    rng: StdRng,
}

impl Replay {
    fn new(seed: u64) -> Self {
        let cfg = TrainConfig::default();
        let policy = cfg.exec_policy();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5);
        let mut enc =
            PatchedQuantumLayer::amplitude_encoder(1024, 16, models::SCALABLE_LAYERS, &mut rng);
        let mut dec = PatchedQuantumLayer::angle_decoder(96, 16, models::SCALABLE_LAYERS, &mut rng);
        enc.set_exec_policy(policy);
        dec.set_exec_policy(policy);
        Replay {
            quantum_opt: Adam::new(cfg.quantum_lr),
            classical_opt: Adam::new(cfg.classical_lr),
            linear: Linear::new(96, 1024, &mut rng),
            latent: GaussianLatent::new(96, 96, models::DEFAULT_KL_WEIGHT, &mut rng),
            enc,
            dec,
            rng,
        }
    }

    fn batch(&mut self, model: &mut Autoencoder, x: &Matrix) -> Result<(), String> {
        let _root = trace::span("core.trainer.replay");
        let e = |e: sqvae::nn::NnError| e.to_string();
        {
            let _s = trace::span("core.autoencoder.zero_grad");
            model.zero_grad();
        }
        let out = {
            let _s = trace::span("core.autoencoder.forward_train");
            model.forward_train(x, &mut self.rng).map_err(e)?
        };
        let (_, grad) = {
            let _s = trace::span("nn.loss.mse");
            loss::mse(&out.reconstruction, x).map_err(e)?
        };
        {
            let _s = trace::span("core.autoencoder.backward");
            model.backward(&grad).map_err(e)?;
        }
        {
            let _s = trace::span("nn.optim.step");
            self.quantum_opt
                .step(&mut model.parameters_of(ParamGroup::Quantum))
                .map_err(e)?;
        }
        {
            let _s = trace::span("nn.optim.step");
            self.classical_opt
                .step(&mut model.parameters_of(ParamGroup::Classical))
                .map_err(e)?;
        }
        Ok(())
    }

    fn stages(&mut self, x: &Matrix) -> Result<(), String> {
        let e = |e: sqvae::nn::NnError| e.to_string();
        let h = {
            let _s = trace::span("core.patched_enc.forward");
            self.enc.forward(x).map_err(e)?
        };
        let z = {
            let _s = trace::span("core.latent.forward");
            self.latent.forward_sample(&h, &mut self.rng).map_err(e)?
        };
        let q = {
            let _s = trace::span("core.patched_dec.forward");
            self.dec.forward(&z).map_err(e)?
        };
        let y = {
            let _s = trace::span("nn.linear.forward");
            self.linear.forward(&q).map_err(e)?
        };
        let g = Matrix::filled(y.rows(), y.cols(), 1e-3);
        let gq = {
            let _s = trace::span("nn.linear.backward");
            self.linear.backward(&g).map_err(e)?
        };
        let gz = {
            let _s = trace::span("core.patched_dec.backward");
            self.dec.backward(&gq).map_err(e)?
        };
        let gh = {
            let _s = trace::span("core.latent.backward");
            self.latent.backward(&gz).map_err(e)?
        };
        {
            let _s = trace::span("core.patched_enc.backward");
            self.enc.backward(&gh).map_err(e)?;
        }
        Ok(())
    }
}

fn batch_matrix(d: &Dataset) -> Matrix {
    let rows: Vec<&[f64]> = d.samples().iter().map(Vec::as_slice).collect();
    Matrix::from_rows(&rows).expect("equal-width rows")
}

pub fn run(report: &mut Report, seed: u64, seconds: f64, traced: bool) {
    let mut setup_s = Vec::new();
    let mut setups = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        let t = Instant::now();
        setups.push(setup(seed, LIGANDS));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut s = setups.pop().expect("at least one set-up");
    drop(setups);
    trace::set_enabled(false);
    let bs = batch_size() as f64;
    let deadline =
        |share: f64| Instant::now() + std::time::Duration::from_secs_f64(seconds * share);
    // Untraced steps: the whole run, or the first part of a traced run.
    let mut step_ms = Vec::new();
    let until = deadline(if traced { 0.3 } else { 1.0 });
    let mut i = 0;
    while Instant::now() < until {
        let t = Instant::now();
        let r = step(&mut s, i);
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        if let Err(e) = r {
            report.failed += 1;
            report.error(format!("step {i}: {e}"));
        }
        i += 1;
    }
    let p50 = stats::median_of_medians(&step_ms, P50_CHUNK).unwrap_or(f64::NAN);
    report.e2e("throughput_per_s", bs / p50 * 1e3, "1/s");
    report.note("p50_ms", p50);
    report.e2e("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN), "s");
    report.note("step_samples", step_ms.len());
    if stats::supports(step_ms.len(), TAIL) {
        report.note(
            "p90_ms",
            stats::percentile(&step_ms, TAIL).unwrap_or(f64::NAN),
        );
    }
    if traced {
        traced_part(report, &mut s, seed, deadline(0.7), p50, i);
    }
}

fn traced_part(
    report: &mut Report,
    s: &mut Setup,
    seed: u64,
    until: Instant,
    untraced_p50: f64,
    mut i: usize,
) {
    trace::set_enabled(true);
    let mut replay = Replay::new(seed);
    let mut iterations = 0usize;
    let mut traced_steps = Vec::new();
    let policy = TrainConfig::default().exec_policy();
    while Instant::now() < until || iterations == 0 {
        let t = Instant::now();
        let r = {
            let _s = trace::span("core.trainer.train");
            step(s, i)
        };
        traced_steps.push(t.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        if let Err(e) = r {
            report.failed += 1;
            report.error(format!("traced step {i}: {e}"));
        }
        let x = batch_matrix(&s.batches[i % s.batches.len()]);
        for r in [replay.batch(&mut s.model, &x), replay.stages(&x)] {
            report.attempted += 1;
            if let Err(e) = r {
                report.failed += 1;
                report.error(format!("replay {i}: {e}"));
            }
        }
        for (k, shape) in [layers::SQVAE_ENC, layers::SQVAE_DEC].iter().enumerate() {
            layers::quantum_pass(shape, 32, true, policy, seed ^ (2 * i + k) as u64);
        }
        iterations += 1;
        i += 1;
    }
    let overhead_us = layers::map_rows_overhead_us(16 * batch_size(), 100);
    trace::set_enabled(false);
    let spans = trace::take();
    let traced_p50 = stats::median_of_medians(&traced_steps, P50_CHUNK).unwrap_or(f64::NAN);
    report.layer(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        "%",
    );
    per_layer(report, &spans, iterations);
    report.layer("nn.parallel.map_rows_overhead_us", overhead_us, "us");
    crate::finish_trace(report, &spans);
}

/// Per-batch layer times from the traced iterations. The trainer's
/// residual is `Trainer::train` minus the self times of the replayed
/// public calls, so the replayed layers plus the residual add up to the
/// trainer's wall time.
fn per_layer(report: &mut Report, spans: &[Span], iterations: usize) {
    let per_batch = |name: &str| layers::self_ms(spans, name).0 / iterations as f64;
    let replayed = [
        (
            "core.autoencoder.zero_grad",
            "core.autoencoder.zero_grad_ms",
        ),
        (
            "core.autoencoder.forward_train",
            "core.autoencoder.forward_train_ms",
        ),
        ("core.autoencoder.backward", "core.autoencoder.backward_ms"),
        ("nn.optim.step", "nn.optim.step_ms"),
    ];
    let mut children = 0.0;
    for (span, metric) in replayed {
        let v = per_batch(span);
        children += v;
        report.layer(metric, v, "ms");
    }
    let mse_ms = per_batch("nn.loss.mse");
    children += mse_ms;
    report.layer("nn.loss.mse_us", mse_ms * 1e3, "us");
    let trainer_ms = per_batch("core.trainer.train");
    report.layer("core.trainer.train_ms", trainer_ms, "ms");
    report.layer("core.trainer.unattributed_ms", trainer_ms - children, "ms");
    for (span, metric) in [
        ("core.patched_enc.forward", "core.patched_enc.forward_ms"),
        ("core.patched_enc.backward", "core.patched_enc.backward_ms"),
        ("core.patched_dec.forward", "core.patched_dec.forward_ms"),
        ("core.patched_dec.backward", "core.patched_dec.backward_ms"),
        ("core.latent.forward", "core.latent.forward_ms"),
        ("core.latent.backward", "core.latent.backward_ms"),
        ("nn.linear.forward", "nn.linear.forward_ms"),
        ("nn.linear.backward", "nn.linear.backward_ms"),
    ] {
        report.layer(metric, per_batch(span), "ms");
    }
    report.layer(
        "datasets.generate_ms",
        layers::mean_self_ms(spans, "datasets.generate"),
        "ms",
    );
    layers::quantum_metrics(report, spans, 32);
}
