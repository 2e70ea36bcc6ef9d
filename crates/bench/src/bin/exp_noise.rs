//! Extension experiment (beyond the paper, DESIGN.md §7): NISQ realism.
//!
//! The paper trains on a noiseless simulator and reads out exact
//! expectations. Real near-term hardware adds (1) finite measurement shots
//! and (2) gate noise. This experiment quantifies both on the paper's
//! baseline encoder circuit (6 qubits, L = 3):
//!
//! * shot-noise: |⟨Z₀⟩ estimate − exact| vs number of shots,
//! * depolarizing damping: ⟨Z⟩ magnitude vs per-gate noise probability,
//! * gradient signal: the parameter-shift gradient magnitude vs the
//!   shot-noise floor, showing how many shots a NISQ device would need to
//!   see the training signal at all.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_bench::{print_table_with_csv, section, ExpArgs};
use sqvae_quantum::grad::paramshift;
use sqvae_quantum::noise::{noisy_expectations_z, NoiseModel};
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::Circuit;

fn main() {
    let args = ExpArgs::from_cli();
    let trajectories = args.pick(300, 2000);

    let mut c = Circuit::new(6).expect("valid register");
    c.extend(strongly_entangling_layers(6, 3, 0, EntangleRange::Ring).expect("fits"))
        .expect("fits");
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.07 * i as f64 - 1.5).collect();
    let exact = c
        .run_expectations_z(&params, &[], None)
        .expect("execution succeeds");

    section("Extension: shot-noise on the baseline encoder readout (⟨Z₀⟩)");
    let state = c.run(&params, &[], None).expect("execution succeeds");
    let mut rows = Vec::new();
    for &shots in &[64usize, 256, 1024, 4096, 16384] {
        // Average the estimator error over independent repetitions.
        let mut err = 0.0;
        let reps = 20;
        for r in 0..reps {
            let mut rng = StdRng::seed_from_u64(args.seed + r);
            let est = state
                .estimate_expectation_z(0, shots, &mut rng)
                .expect("wire in range");
            err += (est - exact[0]).abs();
        }
        rows.push(vec![
            shots.to_string(),
            format!("{:.4}", err / reps as f64),
            format!("{:.4}", 1.0 / (shots as f64).sqrt()),
        ]);
    }
    print_table_with_csv(
        "noise_shot_error",
        &["shots", "mean |error|", "1/sqrt(shots)"],
        &rows,
    );
    println!("  expected: error tracks the 1/sqrt(shots) statistical floor");

    section("Extension: depolarizing damping of the encoder outputs");
    let clean_mag: f64 = exact.iter().map(|z| z.abs()).sum::<f64>() / exact.len() as f64;
    let mut rows = Vec::new();
    for &p in &[0.0f64, 0.001, 0.005, 0.02, 0.05] {
        let mut rng = StdRng::seed_from_u64(args.seed);
        let z = noisy_expectations_z(
            &c,
            &params,
            &[],
            None,
            NoiseModel::depolarizing(p),
            trajectories,
            &mut rng,
        )
        .expect("trajectories succeed");
        let mag: f64 = z.iter().map(|v| v.abs()).sum::<f64>() / z.len() as f64;
        rows.push(vec![
            format!("{p}"),
            format!("{mag:.4}"),
            format!("{:.2}", mag / clean_mag),
        ]);
    }
    print_table_with_csv(
        "noise_depolarizing_damping",
        &["p(depol)", "mean |⟨Z⟩|", "fraction of clean"],
        &rows,
    );
    println!("  expected: signal decays monotonically with gate noise");

    section("Extension: training-signal magnitude vs shot floor");
    let (jac, _) = paramshift::jacobian_expectations_z(&c, &params, &[], None)
        .expect("parameter shift succeeds");
    let grad_mag: f64 = jac
        .iter()
        .flat_map(|row| row.iter().map(|g| g.abs()))
        .fold(0.0, f64::max);
    let mut rows = Vec::new();
    for &shots in &[256usize, 1024, 4096, 16384] {
        let floor = 1.0 / (shots as f64).sqrt();
        rows.push(vec![
            shots.to_string(),
            format!("{grad_mag:.4}"),
            format!("{floor:.4}"),
            if grad_mag > 2.0 * floor {
                "yes"
            } else {
                "marginal/no"
            }
            .to_string(),
        ]);
    }
    print_table_with_csv(
        "noise_gradient_floor",
        &["shots", "max |dZ/dθ|", "noise floor", "signal visible?"],
        &rows,
    );
    println!("  (two-point shift estimators need the gradient above ~2x the floor)");
}
