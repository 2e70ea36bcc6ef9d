//! Adjoint (reverse-mode) differentiation.
//!
//! For a circuit `|ψ⟩ = U_N … U_1 |φ₀⟩` and a real diagonal observable `D`,
//! the expectation `E = ⟨ψ|D|ψ⟩` has gradient
//!
//! ```text
//! dE/dθ_k = Im ⟨bra_k | G_k | ψ_k⟩,
//! ```
//!
//! where `ψ_k = U_k … U_1|φ₀⟩`, `bra_k = (U_{k+1} … U_N)† D |ψ⟩`, and `G_k`
//! is the generator of `U_k = exp(-iθ G_k / 2)`. Sweeping `k = N … 1` while
//! un-applying gates from both vectors computes every gradient in one pass
//! (Jones & Gacon, 2020).
//!
//! Because every measurement used by the paper's autoencoders (`⟨Z⟩` per
//! wire, basis-state probabilities) is diagonal, one adjoint pass against the
//! *upstream-weighted* diagonal yields `dL/dθ` and `dL/dx` directly — the
//! quantum layer's `backward()`.
//!
//! Two sweeps are provided per readout: the gate-by-gate functions on the
//! dense [`StateVector`] (the reference oracle the tests compare against),
//! and the `*_tape` functions that replay a [`CompiledTape`]'s pre-lowered
//! adjoint program on any [`Backend`] — pre-inverted fused fixed segments,
//! pre-resolved inverse rotations, and fused single-pass generator inner
//! products. Batched training compiles once per mini-batch and runs the
//! tape sweep per row.

use crate::backend::Backend;
use crate::circuit::Circuit;
use crate::complex::C64;
use crate::embed::RotationAxis;
use crate::error::{QuantumError, Result};
use crate::gate::{Gate, Param};
use crate::grad::CircuitGradients;
use crate::observable::{probability_diagonal, weighted_z_sum_diagonal};
use crate::state::StateVector;
use crate::tape::{AdjointStep, AdjointStop, CompiledTape, TapeOp};

/// Vector-Jacobian product of `E = ⟨ψ|diag|ψ⟩` with respect to trainable
/// parameters and embedded inputs.
///
/// `initial` is the embedded starting state (`None` = `|0…0⟩`). The returned
/// gradients accumulate over every gate sharing a parameter index.
///
/// This is the **gate-by-gate reference oracle** on the dense
/// [`StateVector`]: it walks the circuit's gate list forward and backward
/// and never touches a compiled tape. Production passes compile the circuit
/// once per batch and run [`vjp_diagonal_tape`] on any backend instead; the
/// two are property-tested to agree at ≤ 1e-12.
///
/// # Errors
///
/// Returns binding-count or dimension errors from circuit execution, and a
/// dimension error if `diag` does not match the register.
pub fn vjp_diagonal(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    diag: &[f64],
) -> Result<CircuitGradients> {
    circuit.check_bindings(params, inputs)?;
    let dim = 1usize << circuit.n_qubits();
    if diag.len() != dim {
        return Err(QuantumError::DimensionMismatch {
            expected: dim,
            actual: diag.len(),
        });
    }
    let resolve = |gate: &Gate| gate.param().map_or(0.0, |p| p.resolve(params, inputs));

    // Forward pass, deliberately gate by gate (not the compiled tape) so
    // this function stays a tape-independent oracle.
    let mut ket: StateVector = circuit.start_state(initial)?;
    for gate in circuit.ops() {
        gate.apply(&mut ket, resolve(gate))?;
    }
    let mut bra = ket.clone();
    bra.apply_diagonal_real(diag);

    let mut grads = CircuitGradients::zeros(circuit.n_params(), circuit.n_inputs());

    // Backward sweep.
    for gate in circuit.ops().iter().rev() {
        let theta = resolve(gate);
        match gate.param() {
            Some(Param::Train(idx)) => {
                let mut d = ket.clone();
                gate.apply_generator(&mut d)?;
                grads.params[idx] += bra.inner(&d).im;
            }
            Some(Param::Input(idx)) => {
                let mut d = ket.clone();
                gate.apply_generator(&mut d)?;
                grads.inputs[idx] += bra.inner(&d).im;
            }
            _ => {}
        }
        gate.apply_inverse(&mut ket, theta)?;
        gate.apply_inverse(&mut bra, theta)?;
    }
    Ok(grads)
}

/// Backward pass for a per-wire `⟨Z⟩` readout: given the upstream gradient
/// `dL/d⟨Z_w⟩` for every wire `w`, returns `dL/dθ` and `dL/dx` (the
/// gate-by-gate oracle; see [`vjp_diagonal`]).
///
/// # Errors
///
/// Returns a dimension error if `upstream.len() != n_qubits`, plus execution
/// errors.
pub fn backward_expectations_z(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    upstream: &[f64],
) -> Result<CircuitGradients> {
    let diag = expectations_z_diagonal(circuit.n_qubits(), upstream)?;
    vjp_diagonal(circuit, params, inputs, initial, &diag)
}

/// Backward pass for a basis-state probability readout: given the upstream
/// gradient `dL/dp_i` for every basis state `i`, returns `dL/dθ` and `dL/dx`
/// (the gate-by-gate oracle; see [`vjp_diagonal`]).
///
/// # Errors
///
/// Returns a dimension error if `upstream.len() != 2^n_qubits`, plus
/// execution errors.
pub fn backward_probabilities(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    upstream: &[f64],
) -> Result<CircuitGradients> {
    let diag = probability_diagonal(circuit.n_qubits(), upstream)?;
    vjp_diagonal(circuit, params, inputs, initial, &diag)
}

/// The upstream-weighted `Σ_w u_w Z_w` diagonal of a per-wire `⟨Z⟩`
/// readout on `n` wires.
fn expectations_z_diagonal(n: usize, upstream: &[f64]) -> Result<Vec<f64>> {
    if upstream.len() != n {
        return Err(QuantumError::DimensionMismatch {
            expected: n,
            actual: upstream.len(),
        });
    }
    let wires: Vec<usize> = (0..n).collect();
    weighted_z_sum_diagonal(n, &wires, upstream)
}

/// `Im⟨bra|G|ket⟩` via the generic clone + [`Gate::apply_generator`] path —
/// the fallback for stops outside the fused single-qubit rotation kernel
/// (controlled rotations).
fn generator_inner_im<B: Backend>(bra: &B, ket: &B, gate: &Gate) -> Result<f64> {
    let mut d = ket.clone();
    if gate.apply_generator(&mut d)? {
        Ok(bra.inner(&d).im)
    } else {
        Ok(0.0)
    }
}

/// The Pauli axis generating `gate`, if it is a single-qubit rotation.
fn rotation_axis(gate: &Gate) -> Option<RotationAxis> {
    match gate {
        Gate::RX(..) => Some(RotationAxis::X),
        Gate::RY(..) => Some(RotationAxis::Y),
        Gate::RZ(..) => Some(RotationAxis::Z),
        _ => None,
    }
}

/// Fused-kernel ingredients of a single-qubit rotation stop: the generator
/// axis, the wire, and the inverse 2×2 to un-apply.
struct RotationStop {
    axis: RotationAxis,
    wire: usize,
    inv: [[C64; 2]; 2],
}

/// Resolves a stop into its [`RotationStop`] when its gate is a
/// single-qubit rotation. Trainable stops carry the pre-inverted matrix on
/// the tape; input stops derive it from the late-bound angle. Controlled
/// rotations return `None` (they take the clone-based fallback).
fn rotation_stop_parts(stop: &AdjointStop, inputs: &[f64]) -> Result<Option<RotationStop>> {
    let Some(axis) = rotation_axis(stop.gate()) else {
        return Ok(None);
    };
    match stop {
        AdjointStop::Train {
            inv: TapeOp::OneQ { wire, m },
            ..
        } => Ok(Some(RotationStop {
            axis,
            wire: *wire,
            inv: *m,
        })),
        AdjointStop::Train { .. } => Ok(None),
        AdjointStop::Input { gate, index } => {
            let theta = *inputs.get(*index).ok_or(QuantumError::InputCountMismatch {
                expected: *index + 1,
                actual: inputs.len(),
            })?;
            let (wire, m) = gate
                .single_qubit_matrix(-theta)
                .expect("single-qubit rotations have a 2x2 matrix");
            Ok(Some(RotationStop { axis, wire, inv: m }))
        }
    }
}

/// [`vjp_diagonal`] against a pre-compiled tape, on any [`Backend`]: the
/// production batched path. The forward run executes the tape, and the
/// backward sweep replays the tape's pre-lowered adjoint program —
/// fixed-gate segments between parametrized stops are already inverted and
/// fused, trainable stops carry pre-resolved inverse matrices, and the
/// generator inner products for single-qubit rotations run as one fused
/// pass over the amplitudes.
///
/// Compile once per batch ([`crate::Circuit::compile`]) and call this per
/// row.
///
/// # Errors
///
/// Returns input-count or dimension errors from tape execution, and a
/// dimension error if `diag` does not match the register.
pub fn vjp_diagonal_tape<B: Backend>(
    tape: &CompiledTape,
    inputs: &[f64],
    initial: Option<&B>,
    diag: &[f64],
) -> Result<CircuitGradients> {
    let dim = 1usize << tape.n_qubits();
    if diag.len() != dim {
        return Err(QuantumError::DimensionMismatch {
            expected: dim,
            actual: diag.len(),
        });
    }

    // Forward pass on the compiled tape.
    let mut ket: B = tape.execute_on(inputs, initial)?;
    let mut bra = ket.clone();
    bra.apply_diagonal_real(diag);

    let mut grads = CircuitGradients::zeros(tape.n_params(), tape.n_inputs());

    // Backward sweep over the pre-lowered adjoint program.
    for step in tape.adjoint_steps() {
        match step {
            AdjointStep::Unapply(ops) => {
                for op in ops {
                    ket.apply_tape_op(op, inputs)?;
                    bra.apply_tape_op(op, inputs)?;
                }
            }
            AdjointStep::Stop(stop) => {
                // Single-qubit rotation stops take the backend's fused
                // kernel: the generator inner product and both
                // un-applications in one traversal per register.
                let g = match rotation_stop_parts(stop, inputs)? {
                    Some(r) => ket.adjoint_rotation_stop(&mut bra, r.axis, r.wire, &r.inv)?,
                    None => {
                        let g = generator_inner_im(&bra, &ket, stop.gate())?;
                        stop.unapply(&mut ket, inputs)?;
                        stop.unapply(&mut bra, inputs)?;
                        g
                    }
                };
                match *stop {
                    AdjointStop::Train { index, .. } => grads.params[index] += g,
                    AdjointStop::Input { index, .. } => grads.inputs[index] += g,
                }
            }
        }
    }
    Ok(grads)
}

/// [`backward_expectations_z`] against a pre-compiled tape, on any
/// [`Backend`].
///
/// # Errors
///
/// Returns a dimension error if `upstream.len() != n_qubits`, plus tape
/// execution errors.
pub fn backward_expectations_z_tape<B: Backend>(
    tape: &CompiledTape,
    inputs: &[f64],
    initial: Option<&B>,
    upstream: &[f64],
) -> Result<CircuitGradients> {
    let diag = expectations_z_diagonal(tape.n_qubits(), upstream)?;
    vjp_diagonal_tape(tape, inputs, initial, &diag)
}

/// [`backward_probabilities`] against a pre-compiled tape, on any
/// [`Backend`].
///
/// # Errors
///
/// Returns a dimension error if `upstream.len() != 2^n_qubits`, plus tape
/// execution errors.
pub fn backward_probabilities_tape<B: Backend>(
    tape: &CompiledTape,
    inputs: &[f64],
    initial: Option<&B>,
    upstream: &[f64],
) -> Result<CircuitGradients> {
    let diag = probability_diagonal(tape.n_qubits(), upstream)?;
    vjp_diagonal_tape(tape, inputs, initial, &diag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{amplitude_embedding, angle_embedding_gates, RotationAxis};
    use crate::gate::Param;
    use crate::templates::{strongly_entangling_layers, EntangleRange};

    /// dE/dθ for E = ⟨Z₀⟩ of RY(θ)|0⟩ is -sin θ.
    #[test]
    fn single_ry_analytic_gradient() {
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        let theta = 0.731;
        let g = backward_expectations_z(&c, &[theta], &[], None, &[1.0]).unwrap();
        assert!((g.params[0] + theta.sin()).abs() < 1e-12);
    }

    #[test]
    fn input_gradient_through_angle_embedding() {
        // ⟨Z₀⟩ of RY(x)|0⟩ = cos x, so dE/dx = -sin x.
        let mut c = Circuit::new(1).unwrap();
        c.extend(angle_embedding_gates(1, RotationAxis::Y, 0))
            .unwrap();
        let x = 1.04;
        let g = backward_expectations_z(&c, &[], &[x], None, &[1.0]).unwrap();
        assert!((g.inputs[0] + x.sin()).abs() < 1e-12);
        assert!(g.params.is_empty());
    }

    #[test]
    fn upstream_weights_scale_gradients() {
        let mut c = Circuit::new(2).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        c.ry(1, Param::Train(1)).unwrap();
        let params = [0.3, 1.2];
        let g1 = backward_expectations_z(&c, &params, &[], None, &[1.0, 0.0]).unwrap();
        let g2 = backward_expectations_z(&c, &params, &[], None, &[2.0, 0.0]).unwrap();
        assert!((g2.params[0] - 2.0 * g1.params[0]).abs() < 1e-12);
        assert!(g1.params[1].abs() < 1e-12); // wire-1 output had zero weight
    }

    #[test]
    fn probability_readout_gradient_matches_finite_difference() {
        let mut c = Circuit::new(2).unwrap();
        c.extend(strongly_entangling_layers(2, 2, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        let n = c.n_params();
        let params: Vec<f64> = (0..n).map(|i| 0.1 + 0.13 * i as f64).collect();
        // Loss: sum_i w_i p_i with arbitrary weights.
        let w = [0.5, -1.5, 2.5, 0.25];
        let g = backward_probabilities(&c, &params, &[], None, &w).unwrap();
        let eps = 1e-6;
        for k in 0..n {
            let mut pp = params.clone();
            pp[k] += eps;
            let lp: f64 = c
                .run_probabilities(&pp, &[], None)
                .unwrap()
                .iter()
                .zip(&w)
                .map(|(p, wi)| p * wi)
                .sum();
            pp[k] -= 2.0 * eps;
            let lm: f64 = c
                .run_probabilities(&pp, &[], None)
                .unwrap()
                .iter()
                .zip(&w)
                .map(|(p, wi)| p * wi)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (g.params[k] - fd).abs() < 1e-5,
                "param {k}: adjoint={} fd={fd}",
                g.params[k]
            );
        }
    }

    #[test]
    fn gradient_with_amplitude_embedded_initial_state() {
        let mut c = Circuit::new(2).unwrap();
        c.extend(strongly_entangling_layers(2, 1, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        let init = amplitude_embedding(&[0.2, 0.4, 0.6, 0.8], 2).unwrap();
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.07 * (i + 1) as f64).collect();
        let upstream = [1.0, -0.5];
        let g = backward_expectations_z(&c, &params, &[], Some(&init), &upstream).unwrap();
        // Finite-difference oracle on L = z0 - 0.5 z1.
        let loss = |p: &[f64]| {
            let z = c.run_expectations_z(p, &[], Some(&init)).unwrap();
            z[0] - 0.5 * z[1]
        };
        let eps = 1e-6;
        for k in 0..params.len() {
            let mut pp = params.clone();
            pp[k] += eps;
            let lp = loss(&pp);
            pp[k] -= 2.0 * eps;
            let lm = loss(&pp);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((g.params[k] - fd).abs() < 1e-5, "param {k}");
        }
    }

    #[test]
    fn crz_gradient_matches_finite_difference() {
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap();
        c.h(1).unwrap();
        c.crz(0, 1, Param::Train(0)).unwrap();
        c.h(1).unwrap(); // rotate phase into populations so dE/dθ ≠ 0
        let theta = 0.63;
        let g = backward_expectations_z(&c, &[theta], &[], None, &[0.0, 1.0]).unwrap();
        let eps = 1e-6;
        let f = |t: f64| c.run_expectations_z(&[t], &[], None).unwrap()[1];
        let fd = (f(theta + eps) - f(theta - eps)) / (2.0 * eps);
        assert!(
            (g.params[0] - fd).abs() < 1e-5,
            "adjoint={} fd={fd}",
            g.params[0]
        );
        assert!(
            g.params[0].abs() > 1e-3,
            "test should exercise a non-zero gradient"
        );
    }

    #[test]
    fn shared_parameter_accumulates() {
        // Two RY gates bound to the same trainable index: E = cos(2θ),
        // dE/dθ = -2 sin(2θ).
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        let theta = 0.41;
        let g = backward_expectations_z(&c, &[theta], &[], None, &[1.0]).unwrap();
        assert!((g.params[0] + 2.0 * (2.0 * theta).sin()).abs() < 1e-12);
    }

    #[test]
    fn rejects_wrong_upstream_length() {
        let c = Circuit::new(2).unwrap();
        assert!(backward_expectations_z(&c, &[], &[], None, &[1.0]).is_err());
        assert!(backward_probabilities(&c, &[], &[], None, &[1.0; 3]).is_err());
    }
}
