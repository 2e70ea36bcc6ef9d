//! Bit-identity pins for the compiled-tape executors: FNV-1a digests of the
//! forward readouts and of the tape adjoint gradients on every backend, for
//! one circuit whose tape holds every op kind. The equivalence suites only
//! bound backends against the dense oracle at ≤ 1e-12; these digests catch
//! any change to the floating-point work a backend does for a tape op.

use sqvae_quantum::backend::{Backend, DenseBackend, FusedDenseBackend, SoaDenseBackend};
use sqvae_quantum::grad::{adjoint, CircuitGradients};
use sqvae_quantum::tape::{AdjointStep, AdjointStop, TapeOp};
use sqvae_quantum::{Circuit, CompiledTape, Gate, Param};

fn fnv1a64(values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A 3-qubit circuit that lowers to every tape-op kind: late-bound RY and
/// RX inputs, fused single-qubit matrices, a CNOT run (with a SWAP), a
/// fused CZ·CRZ phase, trainable CRZ/CRX/CRY stops, and input-bound
/// controlled rotations.
fn every_op_circuit() -> Circuit {
    let mut c = Circuit::new(3).unwrap();
    c.ry(0, Param::Input(0)).unwrap();
    c.rx(2, Param::Input(1)).unwrap();
    c.h(1).unwrap();
    c.rot(1, Param::Train(0), Param::Train(1), Param::Train(2))
        .unwrap();
    c.rz(2, Param::Train(3)).unwrap();
    c.cnot(0, 1).unwrap();
    c.cnot(1, 2).unwrap();
    c.push(Gate::SWAP(2, 0)).unwrap();
    c.cz(0, 2).unwrap();
    c.crz(0, 2, Param::Fixed(0.4)).unwrap();
    c.crz(1, 0, Param::Train(4)).unwrap();
    c.push(Gate::CRX(0, 1, Param::Train(5))).unwrap();
    c.push(Gate::CRY(2, 1, Param::Train(6))).unwrap();
    c.push(Gate::CRZ(1, 2, Param::Input(2))).unwrap();
    c.push(Gate::CRY(0, 2, Param::Input(1))).unwrap();
    for w in 0..3 {
        c.ry(w, Param::Train(7 + w)).unwrap();
        c.rz(w, Param::Fixed(0.3 * w as f64 - 0.2)).unwrap();
    }
    c.ry(1, Param::Input(0)).unwrap();
    c
}

const PARAMS: [f64; 10] = [0.31, -1.2, 0.77, 2.05, -0.44, 1.3, -2.1, 0.9, -0.15, 0.62];
const INPUTS: [f64; 3] = [0.58, -1.07, 1.9];

fn grads(g: CircuitGradients) -> Vec<f64> {
    g.params.into_iter().chain(g.inputs).collect()
}

/// `(readout, digest)` for the four pinned quantities on backend `B`.
fn digests_on<B: Backend>(tape: &CompiledTape) -> Vec<(String, u64)> {
    let z = tape.expectations_z_on::<B>(&INPUTS, None).unwrap();
    let mut probs = Vec::new();
    tape.probabilities_into_on::<B>(&INPUTS, None, &mut probs)
        .unwrap();
    let up_z = [0.8, -1.3, 0.45];
    let up_p: Vec<f64> = (0..8).map(|i| 0.25 * i as f64 - 0.9).collect();
    let gz = adjoint::backward_expectations_z_tape::<B>(tape, &INPUTS, None, &up_z).unwrap();
    let gp = adjoint::backward_probabilities_tape::<B>(tape, &INPUTS, None, &up_p).unwrap();
    [
        ("expectations_z", z),
        ("probabilities", probs),
        ("grad_expectations_z", grads(gz)),
        ("grad_probabilities", grads(gp)),
    ]
    .into_iter()
    .map(|(what, v)| (format!("{}/{what}", B::NAME), fnv1a64(&v)))
    .collect()
}

#[test]
fn the_pinned_circuit_lowers_to_every_op_kind() {
    let tape = every_op_circuit().compile(&PARAMS).unwrap();
    let ops = tape.forward_ops();
    let late = |single: bool| {
        ops.iter().any(|op| {
            matches!(op, TapeOp::Late { gate, .. } if gate.is_single_qubit_rotation() == single)
        })
    };
    assert!(ops.iter().any(|op| matches!(op, TapeOp::OneQ { .. })));
    assert!(ops
        .iter()
        .any(|op| matches!(op, TapeOp::CnotRun(pairs) if pairs.len() > 1)));
    assert!(ops.iter().any(|op| matches!(op, TapeOp::Phase { .. })));
    assert!(ops.iter().any(|op| matches!(op, TapeOp::Controlled { .. })));
    assert!(late(true), "late single-qubit rotation");
    assert!(late(false), "late controlled rotation");
    let stops = |input: bool| {
        tape.adjoint_steps().iter().any(|s| {
            matches!(s, AdjointStep::Stop(stop) if matches!(stop, AdjointStop::Input { .. }) == input)
        })
    };
    assert!(stops(false) && stops(true), "trainable and input stops");
    assert!(tape
        .adjoint_steps()
        .iter()
        .any(|s| matches!(s, AdjointStep::Block(_))));
}

#[test]
fn tape_outputs_and_gradients_are_pinned() {
    let tape = every_op_circuit().compile(&PARAMS).unwrap();
    let mut got = digests_on::<DenseBackend>(&tape);
    got.extend(digests_on::<FusedDenseBackend>(&tape));
    got.extend(digests_on::<SoaDenseBackend>(&tape));
    let got: Vec<(&str, u64)> = got.iter().map(|(k, h)| (k.as_str(), *h)).collect();
    let want: [(&str, u64); 12] = [
        ("dense/expectations_z", 0xcfa4_2525_64aa_57f7),
        ("dense/probabilities", 0x5cca_e18f_0415_f80f),
        ("dense/grad_expectations_z", 0x2075_a399_4261_4fd4),
        ("dense/grad_probabilities", 0x799f_b5b4_8fc1_8739),
        ("fused/expectations_z", 0xcfa4_2525_64aa_57f7),
        ("fused/probabilities", 0x5cca_e18f_0415_f80f),
        ("fused/grad_expectations_z", 0x2075_a399_4261_4fd4),
        ("fused/grad_probabilities", 0x799f_b5b4_8fc1_8739),
        ("soa/expectations_z", 0x5972_3484_0b3e_c654),
        ("soa/probabilities", 0x43b3_f1e1_dbc5_8223),
        ("soa/grad_expectations_z", 0x0682_11d0_8c53_ce3b),
        ("soa/grad_probabilities", 0xb8c7_e4c9_d379_0540),
    ];
    assert_eq!(got, want);
}
