//! Micro-benchmarks of the statevector simulator: circuit execution cost vs
//! qubit count and vs layer depth (the budget behind every experiment).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqvae_quantum::embed::amplitude_embedding;
use sqvae_quantum::grad::{adjoint, CircuitGradients};
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::{Backend, Circuit, FusedDenseBackend, StateVector};

fn circuit(n_qubits: usize, layers: usize) -> (Circuit, Vec<f64>) {
    let mut c = Circuit::new(n_qubits).expect("valid register");
    c.extend(strongly_entangling_layers(n_qubits, layers, 0, EntangleRange::Ring).unwrap())
        .unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.1 + 0.01 * i as f64).collect();
    (c, params)
}

/// Compile + one tape adjoint pass on backend `B`.
fn adjoint_on<B: Backend>(circ: &Circuit, params: &[f64], upstream: &[f64]) -> CircuitGradients {
    let tape = circ.compile(params).unwrap();
    adjoint::backward_expectations_z_tape::<B>(&tape, &[], None, upstream).unwrap()
}

fn bench_execution_vs_qubits(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_execution_vs_qubits");
    for n in [4usize, 6, 8, 10] {
        let (circ, params) = circuit(n, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| circ.run_expectations_z(&params, &[], None).unwrap())
        });
    }
    group.finish();
}

fn bench_execution_vs_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_execution_vs_depth");
    for layers in [1usize, 3, 5, 9] {
        let (circ, params) = circuit(7, layers); // the SQ-AE p=8 patch size
        group.bench_with_input(BenchmarkId::from_parameter(layers), &layers, |b, _| {
            b.iter(|| circ.run_expectations_z(&params, &[], None).unwrap())
        });
    }
    group.finish();
}

fn bench_amplitude_embedding(c: &mut Criterion) {
    let features: Vec<f64> = (0..1024).map(|i| (i % 7) as f64 + 0.5).collect();
    c.bench_function("amplitude_embedding_1024", |b| {
        b.iter(|| amplitude_embedding(&features, 10).unwrap())
    });
}

fn bench_probabilities(c: &mut Criterion) {
    let (circ, params) = circuit(10, 3);
    c.bench_function("probabilities_10q", |b| {
        b.iter(|| circ.run_probabilities(&params, &[], None).unwrap())
    });
}

/// Dense vs fused backend on the paper's baseline template (6 qubits,
/// 3 strongly-entangling layers): forward readout and one adjoint pass,
/// each compiled to a tape and replayed on that backend.
/// EXPERIMENTS.md records the measured numbers.
fn bench_simulator_backends(c: &mut Criterion) {
    let (circ, params) = circuit(6, 3);
    let upstream = vec![1.0f64; 6];
    let mut group = c.benchmark_group("simulator_backends");
    group.bench_function("forward_dense_6q3l", |b| {
        b.iter(|| {
            let s: StateVector = circ.run_on(&params, &[], None).unwrap();
            circ.expectations_z_all(&s).unwrap()
        })
    });
    group.bench_function("forward_fused_6q3l", |b| {
        b.iter(|| {
            let s: FusedDenseBackend = circ.run_on(&params, &[], None).unwrap();
            circ.expectations_z_all(&s).unwrap()
        })
    });
    group.bench_function("adjoint_dense_6q3l", |b| {
        b.iter(|| adjoint_on::<StateVector>(&circ, &params, &upstream))
    });
    group.bench_function("adjoint_fused_6q3l", |b| {
        b.iter(|| adjoint_on::<FusedDenseBackend>(&circ, &params, &upstream))
    });
    // The 10-qubit probability readout of the baseline decoder, where the
    // larger register makes fused passes count the most.
    let (circ10, params10) = circuit(10, 3);
    group.bench_function("probabilities_dense_10q3l", |b| {
        b.iter(|| {
            let s: StateVector = circ10.run_on(&params10, &[], None).unwrap();
            Backend::probabilities(&s)
        })
    });
    group.bench_function("probabilities_fused_10q3l", |b| {
        b.iter(|| {
            let s: FusedDenseBackend = circ10.run_on(&params10, &[], None).unwrap();
            s.probabilities()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_execution_vs_qubits,
    bench_execution_vs_depth,
    bench_amplitude_embedding,
    bench_probabilities,
    bench_simulator_backends
);
criterion_main!(benches);
