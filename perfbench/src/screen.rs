//! `screen-sqvae32`: generate, then screen.
//!
//! `sampling::sample_molecules` followed by `generation_metrics` against
//! the training ligands, in fixed-size batches, on an SQ-VAE 32×32 trained
//! briefly during set-up (an untrained decoder yields no atoms, so chem
//! would do no work). Decoder forward plus chem only: no encoder, no
//! backward, no server.

use crate::layers;
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Span};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::chem::fingerprint::fingerprint;
use sqvae::chem::properties::{mean_properties, DrugProperties};
use sqvae::chem::{sanitize, valence, Molecule, MoleculeMatrix};
use sqvae::core::sampling::{self, SampledMolecules};
use sqvae::core::{models, Autoencoder, PatchedQuantumLayer, TrainConfig, Trainer};
use sqvae::datasets::pdbbind::{self, PdbbindConfig, PDBBIND_MATRIX_SIZE};
use sqvae::nn::Module;
use std::time::Instant;

/// Samples per screened batch.
pub const BATCH: usize = 32;
/// Ligands the model is trained on during set-up, and epochs.
const LIGANDS: usize = 128;
const EPOCHS: usize = 5;
/// Every this many batches, the screen is recomputed stage by stage and
/// compared with the library's answer.
const VERIFY_EVERY: usize = 4;
/// Batch-latency percentile reported as the tail (as a note: its run-to-run
/// spread is too wide to bound, see README.md).
const TAIL: f64 = 0.90;
/// Seed of the set-up: the trained model is the system under test, the
/// same on every run, so the molecules it yields, and with them the chem
/// work per sample, do not change with `--seed`, which draws the latent
/// samples. The first batch at this seed is checked against
/// `reference.txt`.
const MODEL_SEED: u64 = 1;
/// Batches per chunk of the median of medians (about two seconds of them).
const P50_CHUNK: usize = 128;

pub struct Setup {
    model: Autoencoder,
    training: Vec<Molecule>,
}

fn setup(seed: u64, ligands: usize, epochs: usize) -> Result<Setup, String> {
    let cfg = PdbbindConfig {
        n_samples: ligands,
        seed,
    };
    let (data, training) = {
        let _s = trace::span("datasets.generate");
        (pdbbind::generate(&cfg), pdbbind::generate_molecules(&cfg))
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = models::sq_vae(1024, 16, models::SCALABLE_LAYERS, &mut rng);
    let mut trainer = Trainer::new(TrainConfig {
        epochs,
        seed,
        ..TrainConfig::default()
    });
    trainer
        .train(&mut model, &data, None)
        .map_err(|e| format!("set-up training: {e}"))?;
    Ok(Setup { model, training })
}

fn batch_seed(seed: u64, batch: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ batch as u64
}

/// One screened batch through the library's public pipeline.
fn screen(s: &mut Setup, seed: u64) -> Result<SampledMolecules, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let out = {
        let _s = trace::span("core.sampling.sample_molecules");
        sampling::sample_molecules(&mut s.model, BATCH, PDBBIND_MATRIX_SIZE, None, &mut rng)
            .map_err(|e| e.to_string())?
    };
    let metrics = {
        let _s = trace::span("core.sampling.generation_metrics");
        sampling::generation_metrics(&out, &s.training)
    };
    std::hint::black_box(metrics);
    Ok(out)
}

/// The same screen recomputed stage by stage through the chem crate's
/// public calls, one span per stage: kept molecules, valid count, and the
/// mean properties.
fn stages(s: &mut Setup, seed: u64) -> Result<(usize, usize, DrugProperties), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let features = {
        let _s = trace::span("core.autoencoder.sample");
        s.model.sample(BATCH, &mut rng).map_err(|e| e.to_string())?
    };
    let mut kept = Vec::new();
    let mut valid = 0;
    for r in 0..features.rows() {
        let decoded = {
            let _s = trace::span("chem.decode");
            MoleculeMatrix::from_values(PDBBIND_MATRIX_SIZE, features.row(r).to_vec())
                .map_err(|e| e.to_string())?
                .decode()
        };
        if decoded.is_empty() {
            continue;
        }
        {
            let _s = trace::span("chem.valence");
            if valence::is_valid(&decoded) {
                valid += 1;
            }
        }
        let sanitized = {
            let _s = trace::span("chem.sanitize");
            sanitize::sanitize(&decoded)
        };
        if let Ok(m) = sanitized {
            kept.push(m.molecule);
        }
    }
    for m in &kept {
        {
            let _s = trace::span("chem.properties");
            std::hint::black_box(DrugProperties::compute(m));
        }
        let _s = trace::span("chem.fingerprint");
        std::hint::black_box(fingerprint(m));
    }
    Ok((kept.len(), valid, mean_properties(kept.iter())))
}

/// Checks the library's screen against the stage-by-stage recomputation.
fn verify(
    out: &SampledMolecules,
    recomputed: (usize, usize, DrugProperties),
) -> Result<(), String> {
    let (kept, valid, props) = recomputed;
    if out.molecules.len() != kept {
        return Err(format!("kept {} != recomputed {kept}", out.molecules.len()));
    }
    let validity = valid as f64 / BATCH as f64;
    if out.validity.to_bits() != validity.to_bits() {
        return Err(format!(
            "validity {} != recomputed {validity}",
            out.validity
        ));
    }
    if out.properties != props {
        return Err(format!(
            "properties {:?} != recomputed {props:?}",
            out.properties
        ));
    }
    Ok(())
}

/// Kept count and mean QED / logP / SA of the first batch at the model's
/// seed, checked against `reference.txt`.
fn reference_screen(s: &mut Setup) -> Result<Vec<f64>, String> {
    let out = screen(s, batch_seed(MODEL_SEED, 0))?;
    let p = out.properties;
    Ok(vec![out.molecules.len() as f64, p.qed, p.logp, p.sa])
}

pub fn run(report: &mut Report, seed: u64, seconds: f64, traced: bool) {
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..crate::SETUP_REPEATS {
        let t = Instant::now();
        match setup(MODEL_SEED, LIGANDS, EPOCHS) {
            Ok(x) => s = Some(x),
            Err(e) => {
                report.error(e);
                return;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut s = s.expect("at least one set-up");
    trace::set_enabled(false);
    crate::check_reference(report, "screen.first_batch", reference_screen(&mut s));
    let start = Instant::now();
    let until =
        start + std::time::Duration::from_secs_f64(seconds * if traced { 0.4 } else { 1.0 });
    let mut batch_ms = Vec::new();
    let (mut attempted, mut kept, mut valid) = (0usize, 0usize, 0.0f64);
    let mut b = 0;
    while Instant::now() < until {
        let bseed = batch_seed(seed, b);
        let t = Instant::now();
        let r = screen(&mut s, bseed);
        batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        let r = r.and_then(|out| {
            attempted += out.attempted;
            kept += out.molecules.len();
            valid += out.validity * out.attempted as f64;
            if b % VERIFY_EVERY == 0 {
                verify(&out, stages(&mut s, bseed)?)?;
            }
            Ok(())
        });
        if let Err(e) = r {
            report.failed += 1;
            report.error(format!("batch {b}: {e}"));
        }
        b += 1;
    }
    let p50 = stats::median_of_medians(&batch_ms, P50_CHUNK).unwrap_or(f64::NAN);
    report.e2e("throughput_per_s", BATCH as f64 / p50 * 1e3, "1/s");
    report.note("p50_ms", p50);
    report.e2e("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN), "s");
    report.note("batch_samples", batch_ms.len());
    if stats::supports(batch_ms.len(), TAIL) {
        report.note(
            "p90_ms",
            stats::percentile(&batch_ms, TAIL).unwrap_or(f64::NAN),
        );
    }
    report.note("kept_frac", kept as f64 / attempted.max(1) as f64);
    report.note("valid_frac", valid / attempted.max(1) as f64);
    if kept == 0 {
        report.error("the screen kept no molecule, so chem did no work");
    }
    if traced {
        traced_part(report, &mut s, seed, seconds * 0.6, p50, b);
    }
}

fn traced_part(
    report: &mut Report,
    s: &mut Setup,
    seed: u64,
    seconds: f64,
    untraced_p50: f64,
    mut b: usize,
) {
    trace::set_enabled(true);
    let until = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let policy = TrainConfig::default().exec_policy();
    // A standalone replica of the model's decoder bank, same shape and
    // execution policy, fed latent rows like the ones `sample` draws.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dec = PatchedQuantumLayer::angle_decoder(96, 16, models::SCALABLE_LAYERS, &mut rng);
    dec.set_exec_policy(policy);
    let mut traced_ms = Vec::new();
    let (mut attempted, mut kept, mut valid) = (0usize, 0usize, 0usize);
    while Instant::now() < until || traced_ms.is_empty() {
        let bseed = batch_seed(seed, b);
        let t = Instant::now();
        let r = screen(s, bseed);
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        let r = r.and_then(|out| {
            let rec = stages(s, bseed)?;
            attempted += BATCH;
            kept += rec.0;
            valid += rec.1;
            verify(&out, rec)
        });
        if let Err(e) = r {
            report.failed += 1;
            report.error(format!("traced batch {b}: {e}"));
        }
        let z = s.model.sample_latent(BATCH, &mut rng);
        {
            let _s = trace::span("core.patched_dec.forward");
            if let Err(e) = dec.forward(&z) {
                report.failed += 1;
                report.error(format!("decoder replica: {e}"));
            }
        }
        layers::quantum_pass(&layers::SQVAE_DEC, BATCH, false, policy, seed ^ b as u64);
        b += 1;
    }
    let overhead_us = layers::map_rows_overhead_us(16 * BATCH, 100);
    trace::set_enabled(false);
    let spans = trace::take();
    let traced_p50 = stats::median_of_medians(&traced_ms, P50_CHUNK).unwrap_or(f64::NAN);
    report.layer(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        "%",
    );
    per_layer(report, &spans, attempted, kept, valid);
    report.layer("nn.parallel.map_rows_overhead_us", overhead_us, "us");
    crate::finish_trace(report, &spans);
}

fn per_layer(report: &mut Report, spans: &[Span], attempted: usize, kept: usize, valid: usize) {
    let per = |name: &str, n: usize| {
        if n == 0 {
            0.0
        } else {
            layers::self_ms(spans, name).0 * 1e3 / n as f64
        }
    };
    let decoded = layers::self_ms(spans, "chem.valence").1;
    report.layer(
        "chem.decode_us_per_mol",
        per("chem.decode", attempted),
        "us",
    );
    report.layer(
        "chem.valence_us_per_mol",
        per("chem.valence", decoded),
        "us",
    );
    report.layer(
        "chem.sanitize_us_per_mol",
        per("chem.sanitize", decoded),
        "us",
    );
    report.layer(
        "chem.properties_us_per_mol",
        per("chem.properties", kept),
        "us",
    );
    report.layer(
        "chem.fingerprint_us_per_mol",
        per("chem.fingerprint", kept),
        "us",
    );
    report.layer(
        "chem.valid_frac",
        valid as f64 / attempted.max(1) as f64,
        "frac",
    );
    report.layer(
        "chem.kept_frac",
        kept as f64 / attempted.max(1) as f64,
        "frac",
    );
    report.layer(
        "core.autoencoder.sample_ms",
        layers::mean_self_ms(spans, "core.autoencoder.sample"),
        "ms",
    );
    report.layer(
        "core.sampling.sample_molecules_ms",
        layers::mean_self_ms(spans, "core.sampling.sample_molecules"),
        "ms",
    );
    report.layer(
        "core.sampling.generation_metrics_ms",
        layers::mean_self_ms(spans, "core.sampling.generation_metrics"),
        "ms",
    );
    report.layer(
        "datasets.generate_ms",
        layers::mean_self_ms(spans, "datasets.generate"),
        "ms",
    );
    report.layer(
        "core.patched_dec.forward_ms",
        layers::mean_self_ms(spans, "core.patched_dec.forward"),
        "ms",
    );
    layers::quantum_metrics(report, spans, BATCH);
}
