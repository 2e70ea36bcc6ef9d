//! Standalone replicas of the circuits and stages the workloads run, driven
//! through the library's public API so the traced run can time single
//! layers, plus the exact work counts of every circuit shape.

use crate::trace::{self, Span};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqvae::core::{models, BackendKind, ExecPolicy, Threads};
use sqvae::nn::parallel;
use sqvae::quantum::embed::{amplitude_embedding, angle_embedding_gates, RotationAxis};
use sqvae::quantum::grad::adjoint;
use sqvae::quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae::quantum::{
    Backend, Circuit, CompiledTape, FusedDenseBackend, SoaDenseBackend, StateVector,
};
use std::hint::black_box;
use std::time::Instant;

/// How a circuit shape takes its input and what it measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Embed {
    Amplitude(usize),
    Angle,
}

/// One patch circuit shape used by the workloads' models.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub n_qubits: usize,
    pub n_layers: usize,
    pub embed: Embed,
    pub probabilities: bool,
}

/// SQ-VAE(1024-d, p=16): 16 patches of 6 qubits on each side.
pub const SQVAE_ENC: Shape = Shape {
    name: "sqvae_enc",
    n_qubits: 6,
    n_layers: models::SCALABLE_LAYERS,
    embed: Embed::Amplitude(64),
    probabilities: false,
};
pub const SQVAE_DEC: Shape = Shape {
    name: "sqvae_dec",
    n_qubits: 6,
    n_layers: models::SCALABLE_LAYERS,
    embed: Embed::Angle,
    probabilities: false,
};
/// H-BQ-VAE(64-d): one 6-qubit circuit per side, probability readout.
pub const HBQ_ENC: Shape = Shape {
    name: "hbq_enc",
    n_qubits: 6,
    n_layers: models::BASELINE_LAYERS,
    embed: Embed::Amplitude(64),
    probabilities: false,
};
pub const HBQ_DEC: Shape = Shape {
    name: "hbq_dec",
    n_qubits: 6,
    n_layers: models::BASELINE_LAYERS,
    embed: Embed::Angle,
    probabilities: true,
};
pub const ALL_SHAPES: [Shape; 4] = [SQVAE_ENC, SQVAE_DEC, HBQ_ENC, HBQ_DEC];

/// Bytes of one complex amplitude.
const AMPLITUDE_BYTES: usize = 16;

impl Shape {
    /// The same gate sequence `QuantumLayer::new` builds for this shape.
    pub fn circuit(&self) -> Circuit {
        let mut c = Circuit::new(self.n_qubits).expect("valid register");
        if self.embed == Embed::Angle {
            c.extend(angle_embedding_gates(self.n_qubits, RotationAxis::Y, 0))
                .expect("wires in range");
        }
        c.extend(
            strongly_entangling_layers(self.n_qubits, self.n_layers, 0, EntangleRange::Ring)
                .expect("wires in range"),
        )
        .expect("wires in range");
        c
    }

    pub fn random_params(&self, circuit: &Circuit, rng: &mut StdRng) -> Vec<f64> {
        (0..circuit.n_params())
            .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
            .collect()
    }

    fn input_width(&self) -> usize {
        match self.embed {
            Embed::Amplitude(f) => f,
            Embed::Angle => self.n_qubits,
        }
    }

    fn outputs(&self) -> usize {
        if self.probabilities {
            1 << self.n_qubits
        } else {
            self.n_qubits
        }
    }

    /// Exact counts of the compiled tape: forward ops, adjoint steps, and
    /// the amplitude bytes a row computes on, assuming every tape op reads
    /// and writes each amplitude once (the adjoint sweep carries two
    /// registers). "Computed" means derived from the tape, not measured.
    pub fn counts(&self) -> ShapeCounts {
        let circuit = self.circuit();
        let params = vec![0.1; circuit.n_params()];
        let tape = circuit.compile(&params).expect("valid circuit");
        let state_bytes = (1usize << self.n_qubits) * AMPLITUDE_BYTES;
        let forward_ops = tape.forward_ops().len();
        let adjoint_steps = tape.adjoint_steps().len();
        ShapeCounts {
            forward_ops,
            adjoint_steps,
            forward_bytes_per_row: forward_ops * state_bytes * 2,
            adjoint_bytes_per_row: adjoint_steps * state_bytes * 2 * 2,
        }
    }
}

/// See [`Shape::counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeCounts {
    pub forward_ops: usize,
    pub adjoint_steps: usize,
    pub forward_bytes_per_row: usize,
    pub adjoint_bytes_per_row: usize,
}

/// Compiles `shape`'s circuit and runs a forward (or probability readout)
/// pass and, with `backward`, an adjoint pass over `rows` random rows, one
/// span per pass, on the backend of `policy`.
pub fn quantum_pass(shape: &Shape, rows: usize, backward: bool, policy: ExecPolicy, seed: u64) {
    match policy.backend {
        BackendKind::Dense => quantum_pass_on::<StateVector>(shape, rows, backward, seed),
        BackendKind::Fused => quantum_pass_on::<FusedDenseBackend>(shape, rows, backward, seed),
        BackendKind::Soa => quantum_pass_on::<SoaDenseBackend>(shape, rows, backward, seed),
    }
}

fn quantum_pass_on<B: Backend>(shape: &Shape, rows: usize, backward: bool, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let circuit = shape.circuit();
    let params = shape.random_params(&circuit, &mut rng);
    let tape = {
        let _s = trace::span("quantum.compile");
        black_box(circuit.compile(black_box(&params)).expect("valid circuit"))
    };
    let inputs: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            (0..shape.input_width())
                .map(|_| rng.gen_range(0.0..1.0))
                .collect()
        })
        .collect();
    let upstream: Vec<f64> = (0..shape.outputs())
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let start = |row: &[f64]| -> (Vec<f64>, Option<B>) {
        match shape.embed {
            Embed::Amplitude(_) => {
                let s = amplitude_embedding(row, shape.n_qubits).expect("non-zero row");
                (Vec::new(), Some(B::from_statevector(s)))
            }
            Embed::Angle => (row.to_vec(), None),
        }
    };
    let prepared: Vec<(Vec<f64>, Option<B>)> = inputs.iter().map(|r| start(r)).collect();
    if shape.probabilities {
        let _s = trace::span("quantum.probs_rows");
        let mut out = Vec::new();
        for (x, init) in &prepared {
            tape.probabilities_into_on(x, init.as_ref(), &mut out)
                .expect("valid tape");
            black_box(&out);
        }
    } else {
        let _s = trace::span("quantum.forward_rows");
        for (x, init) in &prepared {
            black_box(
                tape.expectations_z_on(x, init.as_ref())
                    .expect("valid tape"),
            );
        }
    }
    if backward {
        let _s = trace::span("quantum.adjoint_rows");
        for (x, init) in &prepared {
            black_box(adjoint_row(&tape, shape, x, init.as_ref(), &upstream));
        }
    }
}

fn adjoint_row<B: Backend>(
    tape: &CompiledTape,
    shape: &Shape,
    x: &[f64],
    init: Option<&B>,
    upstream: &[f64],
) -> Vec<f64> {
    let g = if shape.probabilities {
        adjoint::backward_probabilities_tape(tape, x, init, upstream)
    } else {
        adjoint::backward_expectations_z_tape(tape, x, init, upstream)
    };
    g.expect("valid tape").params
}

/// Median wall time in microseconds of `map_rows` over `n` trivial rows at
/// `threads`, from `reps` calls, each inside a span named `name`.
pub fn map_rows_us(n: usize, threads: Threads, reps: usize, name: &'static str) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        {
            let _s = trace::span(name);
            black_box(parallel::map_rows(n, threads, black_box));
        }
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median(&times).unwrap_or(0.0)
}

/// `map_rows` cost at `Threads::Auto` minus at `Threads::Off`, in µs.
pub fn map_rows_overhead_us(n: usize, reps: usize) -> f64 {
    let auto = map_rows_us(n, Threads::Auto, reps, "nn.parallel.map_rows_auto");
    let off = map_rows_us(n, Threads::Off, reps, "nn.parallel.map_rows_off");
    auto - off
}

/// Sum of the self times (ms) and the count of spans named `name`.
pub fn self_ms(spans: &[Span], name: &str) -> (f64, usize) {
    let by = trace::self_time_by_name(spans);
    by.get(name)
        .map_or((0.0, 0), |&(ns, n)| (ns as f64 / 1e6, n))
}

/// Mean self time of spans named `name` in ms, 0 when there are none.
pub fn mean_self_ms(spans: &[Span], name: &str) -> f64 {
    let (ms, n) = self_ms(spans, name);
    if n == 0 {
        0.0
    } else {
        ms / n as f64
    }
}

/// Per-layer quantum metrics from the spans of [`quantum_pass`] calls that
/// ran `rows` rows per pass.
pub fn quantum_metrics(report: &mut crate::report::Report, spans: &[Span], rows: usize) {
    let per_row_us = |name: &str| {
        let (ms, n) = self_ms(spans, name);
        if n == 0 {
            0.0
        } else {
            ms * 1e3 / (n * rows) as f64
        }
    };
    report.layer(
        "quantum.compile_us",
        mean_self_ms(spans, "quantum.compile") * 1e3,
        "us",
    );
    report.layer(
        "quantum.forward_us_per_row",
        per_row_us("quantum.forward_rows"),
        "us",
    );
    report.layer(
        "quantum.probs_us_per_row",
        per_row_us("quantum.probs_rows"),
        "us",
    );
    report.layer(
        "quantum.adjoint_us_per_row",
        per_row_us("quantum.adjoint_rows"),
        "us",
    );
}

/// Exact tape counts of every shape (the same on every workload).
pub fn shape_counts(report: &mut crate::report::Report) {
    for shape in ALL_SHAPES {
        let c = shape.counts();
        let key = |k: &str| format!("quantum.{}.{k}", shape.name);
        report.layer(&key("forward_ops"), c.forward_ops as f64, "count");
        report.layer(&key("adjoint_steps"), c.adjoint_steps as f64, "count");
        report.layer(
            &key("forward_computed_bytes_per_row"),
            c.forward_bytes_per_row as f64,
            "bytes",
        );
        report.layer(
            &key("adjoint_computed_bytes_per_row"),
            c.adjoint_bytes_per_row as f64,
            "bytes",
        );
    }
}
