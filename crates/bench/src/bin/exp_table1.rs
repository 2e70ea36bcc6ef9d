//! Table I — comparison of trainable parameter counts.
//!
//! Paper values: VAE(AE) 5694(5610) classical; F-BQ 108 quantum + 84(0)
//! classical; H-BQ 108 quantum + 4286(4202) classical. Quantum counts and
//! the hybrid classical counts reproduce exactly; the pure-classical MLP
//! totals differ slightly because the paper does not specify its exact
//! layer shapes (see EXPERIMENTS.md).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_bench::{print_table_with_csv, section, ExpArgs};
use sqvae_core::models;

fn main() {
    let args = ExpArgs::from_cli();
    let mut rng = StdRng::seed_from_u64(args.seed);

    section("Table I: trainable parameter counts (64-dim input, 6 qubits, L=3)");
    let mut rows = Vec::new();
    let mut push = |mut m: sqvae_core::Autoencoder| {
        let pc = m.parameter_count();
        rows.push(vec![
            m.name.clone(),
            pc.quantum.to_string(),
            pc.classical.to_string(),
            pc.total().to_string(),
        ]);
    };
    push(models::classical_vae(64, 6, &mut rng));
    push(models::classical_ae(64, 6, &mut rng));
    push(models::f_bq_vae(64, models::BASELINE_LAYERS, &mut rng));
    push(models::f_bq_ae(64, models::BASELINE_LAYERS, &mut rng));
    push(models::h_bq_vae(64, models::BASELINE_LAYERS, &mut rng));
    push(models::h_bq_ae(64, models::BASELINE_LAYERS, &mut rng));
    print_table_with_csv(
        "table1_parameter_counts",
        &["model", "quantum", "classical", "total"],
        &rows,
    );

    println!();
    println!("  paper: VAE 0/5694, AE 0/5610, F-BQ-VAE 108/84, F-BQ-AE 108/0,");
    println!("         H-BQ-VAE 108/4286, H-BQ-AE 108/4202");
}
