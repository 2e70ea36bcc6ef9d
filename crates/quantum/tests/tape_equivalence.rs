//! Compiled-tape equivalence: executing a [`CompiledTape`] must reproduce
//! gate-by-gate execution on the dense `StateVector` — forward states,
//! expectations, probabilities, and adjoint gradients — to ≤ 1e-12 on
//! randomized circuits, on every backend (dense, fused, SoA), and the tape
//! must be reusable across rows.

use proptest::prelude::*;
use sqvae_quantum::backend::{Backend, DenseBackend, FusedDenseBackend, SoaDenseBackend};
use sqvae_quantum::embed::{amplitude_embedding, angle_embedding_gates, RotationAxis};
use sqvae_quantum::grad::{adjoint, CircuitGradients};
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::{Circuit, CompiledTape, Param, StateVector};

mod common;

use common::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled execution reproduces the eager amplitudes, expectations, and
    /// probabilities on both backends.
    #[test]
    fn compiled_forward_matches_gate_by_gate(
        gates in proptest::collection::vec(arb_gate(3, 4, 2), 1..32),
        params in proptest::collection::vec(-3.0..3.0f64, 4),
        inputs in proptest::collection::vec(-2.0..2.0f64, 2),
    ) {
        let c = build_circuit(3, gates);
        let tape = c.compile(&params).unwrap();
        let eager = gate_by_gate(&c, &params, &inputs, None);
        let dense: DenseBackend = tape.execute_on(&inputs, None).unwrap();
        let fused: FusedDenseBackend = tape.execute_on(&inputs, None).unwrap();
        for (a, b) in eager.amplitudes().iter().zip(dense.amplitudes()) {
            prop_assert!(a.approx_eq(*b, TOL), "dense amplitude {a} vs {b}");
        }
        let fused_sv = fused.to_statevector();
        for (a, b) in eager.amplitudes().iter().zip(fused_sv.amplitudes()) {
            prop_assert!(a.approx_eq(*b, TOL), "fused amplitude {a} vs {b}");
        }
        let soa: SoaDenseBackend = tape.execute_on(&inputs, None).unwrap();
        let soa_sv = soa.to_statevector();
        for (a, b) in eager.amplitudes().iter().zip(soa_sv.amplitudes()) {
            prop_assert!(a.approx_eq(*b, TOL), "soa amplitude {a} vs {b}");
        }
        assert_close(
            &c.expectations_z_all(&eager).unwrap(),
            &tape.expectations_z_on::<DenseBackend>(&inputs, None).unwrap(),
            "expectations",
        );
        assert_close(
            &c.expectations_z_all(&eager).unwrap(),
            &c.expectations_z_all(&soa).unwrap(),
            "soa expectations",
        );
        assert_close(
            &Backend::probabilities(&eager),
            &tape.probabilities_on::<FusedDenseBackend>(&inputs, None).unwrap(),
            "probabilities",
        );
        let mut soa_probs = Vec::new();
        tape.probabilities_into_on::<SoaDenseBackend>(&inputs, None, &mut soa_probs).unwrap();
        assert_close(&Backend::probabilities(&eager), &soa_probs, "soa probabilities");
    }

    /// The tape's pre-lowered adjoint sweep reproduces the eager adjoint
    /// gradients (parameters AND inputs) for the ⟨Z⟩ readout on both
    /// backends.
    #[test]
    fn compiled_adjoint_matches_gate_by_gate(
        gates in proptest::collection::vec(arb_gate(3, 4, 2), 1..24),
        params in proptest::collection::vec(-3.0..3.0f64, 4),
        inputs in proptest::collection::vec(-2.0..2.0f64, 2),
        upstream in proptest::collection::vec(-1.5..1.5f64, 3),
    ) {
        let c = build_circuit(3, gates);
        let tape = c.compile(&params).unwrap();
        let eager = adjoint::backward_expectations_z(
            &c, &params, &inputs, None, &upstream).unwrap();
        let dense = adjoint::backward_expectations_z_tape::<DenseBackend>(
            &tape, &inputs, None, &upstream).unwrap();
        let fused = adjoint::backward_expectations_z_tape::<FusedDenseBackend>(
            &tape, &inputs, None, &upstream).unwrap();
        let soa = adjoint::backward_expectations_z_tape::<SoaDenseBackend>(
            &tape, &inputs, None, &upstream).unwrap();
        assert_close(&eager.params, &dense.params, "dense param gradients");
        assert_close(&eager.inputs, &dense.inputs, "dense input gradients");
        assert_close(&eager.params, &fused.params, "fused param gradients");
        assert_close(&eager.inputs, &fused.inputs, "fused input gradients");
        assert_close(&eager.params, &soa.params, "soa param gradients");
        assert_close(&eager.inputs, &soa.inputs, "soa input gradients");
    }

    /// Same for the probability readout (the baseline decoder's measurement).
    #[test]
    fn compiled_adjoint_matches_gate_by_gate_probabilities(
        gates in proptest::collection::vec(arb_gate(2, 3, 1), 1..20),
        params in proptest::collection::vec(-3.0..3.0f64, 3),
        inputs in proptest::collection::vec(-2.0..2.0f64, 1),
        upstream in proptest::collection::vec(-1.0..1.0f64, 4),
    ) {
        let c = build_circuit(2, gates);
        let tape = c.compile(&params).unwrap();
        let eager = adjoint::backward_probabilities(
            &c, &params, &inputs, None, &upstream).unwrap();
        let dense = adjoint::backward_probabilities_tape::<DenseBackend>(
            &tape, &inputs, None, &upstream).unwrap();
        assert_close(&eager.params, &dense.params, "dense param gradients");
        assert_close(&eager.inputs, &dense.inputs, "dense input gradients");
        let taped = adjoint::backward_probabilities_tape::<FusedDenseBackend>(
            &tape, &inputs, None, &upstream).unwrap();
        assert_close(&eager.params, &taped.params, "param gradients");
        assert_close(&eager.inputs, &taped.inputs, "input gradients");
        let soa = adjoint::backward_probabilities_tape::<SoaDenseBackend>(
            &tape, &inputs, None, &upstream).unwrap();
        assert_close(&eager.params, &soa.params, "soa param gradients");
        assert_close(&eager.inputs, &soa.inputs, "soa input gradients");
    }

    /// One tape, many rows: re-executing with different inputs matches
    /// per-row eager execution (the batched reuse the layers rely on), and
    /// repeated execution of the same row is bit-identical.
    #[test]
    fn tape_reuse_across_rows_is_sound(
        gates in proptest::collection::vec(arb_gate(3, 4, 2), 1..24),
        params in proptest::collection::vec(-3.0..3.0f64, 4),
        rows in proptest::collection::vec(
            proptest::collection::vec(-2.0..2.0f64, 2), 2..6),
    ) {
        let c = build_circuit(3, gates);
        let tape = c.compile(&params).unwrap();
        for row in &rows {
            let eager = gate_by_gate(&c, &params, row, None);
            let a: FusedDenseBackend = tape.execute_on(row, None).unwrap();
            let b: FusedDenseBackend = tape.execute_on(row, None).unwrap();
            prop_assert_eq!(&a, &b, "tape re-execution must be deterministic");
            let a_sv = a.to_statevector();
            for (x, y) in eager.amplitudes().iter().zip(a_sv.amplitudes()) {
                prop_assert!(x.approx_eq(*y, TOL), "row amplitude {x} vs {y}");
            }
            let s1: SoaDenseBackend = tape.execute_on(row, None).unwrap();
            let s2: SoaDenseBackend = tape.execute_on(row, None).unwrap();
            prop_assert_eq!(&s1, &s2, "soa tape re-execution must be deterministic");
            let s_sv = s1.to_statevector();
            for (x, y) in eager.amplitudes().iter().zip(s_sv.amplitudes()) {
                prop_assert!(x.approx_eq(*y, TOL), "soa row amplitude {x} vs {y}");
            }
        }
    }
}

/// One tape adjoint pass on backend `B` for a ⟨Z⟩ or probability readout.
fn tape_gradients<B: Backend>(
    tape: &CompiledTape,
    inputs: &[f64],
    initial: Option<&StateVector>,
    upstream: &[f64],
    probabilities: bool,
) -> CircuitGradients {
    let initial = initial.map(|s| B::from_statevector(s.clone()));
    if probabilities {
        adjoint::backward_probabilities_tape(tape, inputs, initial.as_ref(), upstream)
    } else {
        adjoint::backward_expectations_z_tape(tape, inputs, initial.as_ref(), upstream)
    }
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The shapes the paper's models train: strongly-entangling layers
    /// (1–6, both entangler ranges) on 2–7 qubits, fed by an angle embedding
    /// (its input rotations open the first block) or an amplitude-embedded
    /// initial state, read out as ⟨Z⟩ or probabilities. Every backend's
    /// block-wise tape sweep matches the gate-by-gate oracle.
    #[test]
    fn paper_shapes_match_the_oracle_on_every_backend(
        n in 2usize..8,
        layers in 1usize..7,
        flags in 0u8..8,
        params in proptest::collection::vec(-3.2..3.2f64, 7 * 6 * 3),
        features in proptest::collection::vec(-1.0..1.0f64, 1 << 7),
        upstream in proptest::collection::vec(-1.5..1.5f64, 1 << 7),
    ) {
        let angle = flags & 1 != 0;
        let range = if flags & 2 != 0 { EntangleRange::PennyLane } else { EntangleRange::Ring };
        let probabilities = flags & 4 != 0;
        let mut c = Circuit::new(n).unwrap();
        if angle {
            c.extend(angle_embedding_gates(n, RotationAxis::Y, 0)).unwrap();
        }
        c.extend(strongly_entangling_layers(n, layers, 0, range).unwrap()).unwrap();
        let params = &params[..c.n_params()];
        let (inputs, initial) = if angle {
            (&features[..n], None)
        } else {
            (&[][..], Some(amplitude_embedding(&features[..1 << n], n).unwrap()))
        };
        let upstream = &upstream[..if probabilities { 1 << n } else { n }];
        let oracle = if probabilities {
            adjoint::backward_probabilities(&c, params, inputs, initial.as_ref(), upstream)
        } else {
            adjoint::backward_expectations_z(&c, params, inputs, initial.as_ref(), upstream)
        }
        .unwrap();
        let tape = c.compile(params).unwrap();
        for (name, g) in [
            ("dense", tape_gradients::<DenseBackend>(&tape, inputs, initial.as_ref(), upstream, probabilities)),
            ("fused", tape_gradients::<FusedDenseBackend>(&tape, inputs, initial.as_ref(), upstream, probabilities)),
            ("soa", tape_gradients::<SoaDenseBackend>(&tape, inputs, initial.as_ref(), upstream, probabilities)),
        ] {
            assert_close(&oracle.params, &g.params, &format!("{name} param gradients ({n}q x {layers}l)"));
            assert_close(&oracle.inputs, &g.inputs, &format!("{name} input gradients ({n}q x {layers}l)"));
        }
    }
}

/// The paper's baseline encoder — angle embedding plus 3 strongly-entangling
/// layers on 6 qubits — compiles to the shape the tape targets (late-bound
/// embedding, one fused matrix per wire per layer, one permutation per
/// ring); pin its end-to-end equivalence at the paper's scale.
#[test]
fn paper_template_tape_matches_eager() {
    let n = 6;
    let mut c = Circuit::new(n).unwrap();
    c.extend(angle_embedding_gates(n, RotationAxis::Y, 0))
        .unwrap();
    c.extend(strongly_entangling_layers(n, 3, 0, EntangleRange::Ring).unwrap())
        .unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.05 * i as f64 - 1.2).collect();
    let inputs: Vec<f64> = (0..n).map(|i| 0.3 * i as f64 - 0.8).collect();
    let upstream: Vec<f64> = (0..n).map(|i| 1.0 - 0.4 * i as f64).collect();

    let tape: CompiledTape = c.compile(&params).unwrap();
    let eager = gate_by_gate(&c, &params, &inputs, None);
    assert_close(
        &c.expectations_z_all(&eager).unwrap(),
        &tape
            .expectations_z_on::<FusedDenseBackend>(&inputs, None)
            .unwrap(),
        "paper template expectations",
    );

    let ge = adjoint::backward_expectations_z(&c, &params, &inputs, None, &upstream).unwrap();
    let gt =
        adjoint::backward_expectations_z_tape::<FusedDenseBackend>(&tape, &inputs, None, &upstream)
            .unwrap();
    assert_close(&ge.params, &gt.params, "paper template param grads");
    assert_close(&ge.inputs, &gt.inputs, "paper template input grads");

    let gs =
        adjoint::backward_expectations_z_tape::<SoaDenseBackend>(&tape, &inputs, None, &upstream)
            .unwrap();
    assert_close(&ge.params, &gs.params, "paper template soa param grads");
    assert_close(&ge.inputs, &gs.inputs, "paper template soa input grads");

    let gd = adjoint::backward_expectations_z_tape::<DenseBackend>(&tape, &inputs, None, &upstream)
        .unwrap();
    assert_close(&ge.params, &gd.params, "paper template dense param grads");
    assert_close(&ge.inputs, &gd.inputs, "paper template dense input grads");
    assert_close(
        &c.expectations_z_all(&eager).unwrap(),
        &tape
            .expectations_z_on::<SoaDenseBackend>(&inputs, None)
            .unwrap(),
        "paper template soa expectations",
    );
}

/// Mismatched embedded initial states stay a typed error through the tape
/// pipeline, and recompiling with new parameters is what picks them up —
/// the tape itself is immutable.
#[test]
fn tape_errors_and_immutability() {
    let mut c = Circuit::new(2).unwrap();
    c.ry(0, Param::Train(0)).unwrap();
    let tape = c.compile(&[0.3]).unwrap();
    let wide = FusedDenseBackend::zero_state(3).unwrap();
    assert!(matches!(
        tape.execute_on(&[], Some(&wide)),
        Err(sqvae_quantum::QuantumError::DimensionMismatch { .. })
    ));

    // New parameters require a new compile; the old tape still answers for
    // the old ones.
    let old: DenseBackend = tape.execute_on(&[], None).unwrap();
    let new: DenseBackend = c.compile(&[1.1]).unwrap().execute_on(&[], None).unwrap();
    let reference = gate_by_gate(&c, &[0.3], &[], None);
    for (a, b) in old.amplitudes().iter().zip(reference.amplitudes()) {
        assert!(a.approx_eq(*b, TOL));
    }
    assert!(old
        .amplitudes()
        .iter()
        .zip(new.amplitudes())
        .any(|(a, b)| !a.approx_eq(*b, 1e-3)));
}
