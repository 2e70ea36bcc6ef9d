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
//! Two sweeps are provided per readout: the gate-by-gate functions, which
//! run on the dense [`StateVector`] only (the reference oracle the tests
//! compare every backend against), and the `*_tape` functions that replay a
//! [`CompiledTape`]'s pre-lowered adjoint program on any [`Backend`]. The tape sweep works block by block
//! (see [`crate::tape::AdjointBlock`]): within a run of single-qubit gates,
//! gates on different wires commute, so the gradient of a rotation on wire
//! `w` is
//!
//! ```text
//! dE/dθ_k = Im ⟨bra|A_k G_k A_k†|ket⟩ = Im Σ_ab Q_k[a][b]·M_w[a][b],
//! ```
//!
//! with `bra` and `ket` both taken at the block's end, `A_k` the later gates
//! of `w`'s chain, `Q_k = A_k G_k A_k†` pre-conjugated at compile time, and
//! `M_w[a][b] = Σ conj(bra[..a..])·ket[..b..]` the wire's 2×2 cross matrix
//! ([`Backend::cross_matrix`]). One register pass per wire thus yields every
//! gradient on that wire's chain. The ket comes from snapshots the forward
//! run keeps at block ends, so the sweep only moves the bra. Batched
//! training compiles once per mini-batch and runs the tape sweep per row.

use crate::backend::{matmul2, Backend};
use crate::circuit::Circuit;
use crate::complex::C64;
use crate::error::{QuantumError, Result};
use crate::gate::{Gate, Param};
use crate::grad::CircuitGradients;
use crate::observable::{probability_diagonal, weighted_z_sum_diagonal};
use crate::state::StateVector;
use crate::tape::{
    input_angle, start_state, AdjointBlock, AdjointStep, AdjointStop, CompiledTape, GradSlot,
    TapeOp,
};

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
    let mut ket: StateVector = start_state(circuit.n_qubits(), initial)?;
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
/// the per-stop fallback for parametrized controlled rotations.
fn generator_inner_im<B: Backend>(bra: &B, ket: &B, gate: &Gate) -> Result<f64> {
    let mut d = ket.clone();
    if gate.apply_generator(&mut d)? {
        Ok(bra.inner(&d).im)
    } else {
        Ok(0.0)
    }
}

/// `Im Σ_ab q[a][b]·m[a][b]`: a pre-conjugated generator read against a
/// wire's cross matrix.
fn im_trace(q: &[[C64; 2]; 2], m: &[[C64; 2]; 2]) -> f64 {
    (q[0][0] * m[0][0] + q[0][1] * m[0][1] + q[1][0] * m[1][0] + q[1][1] * m[1][1]).im
}

/// Moves a cross matrix back through `v` applied to both states on its
/// wire: `M ← conj(v)·M·vᵀ`.
fn move_back(m: &[[C64; 2]; 2], v: &[[C64; 2]; 2]) -> [[C64; 2]; 2] {
    let conj_v = [
        [v[0][0].conj(), v[0][1].conj()],
        [v[1][0].conj(), v[1][1].conj()],
    ];
    let v_t = [[v[0][0], v[1][0]], [v[0][1], v[1][1]]];
    matmul2(&matmul2(&conj_v, m), &v_t)
}

/// Differentiates one block: reads every rotation of each wire's chain from
/// the wire's cross matrix of `bra` and `ket` (both at the block's end),
/// then un-applies every chain's inverse from the bra. `undo` is scratch.
fn sweep_block<B: Backend>(
    block: &AdjointBlock,
    bra: &mut B,
    ket: &B,
    inputs: &[f64],
    grads: &mut CircuitGradients,
    undo: &mut Vec<TapeOp>,
) -> Result<()> {
    undo.clear();
    let mut parts = block.parts.iter();
    let mut terms = block.terms.iter();
    for chain in &block.chains {
        // Every cross matrix is read before the bra moves.
        let mut m = if chain.terms > 0 {
            bra.cross_matrix(ket, chain.wire)?
        } else {
            [[C64::ZERO; 2]; 2]
        };
        let mut inv = None;
        for k in 0..chain.parts {
            let part = parts.next().expect("block parts cover its chains");
            for t in terms.by_ref().take(part.terms) {
                let g = im_trace(&t.q, &m);
                match t.slot {
                    GradSlot::Param(i) => grads.params[i] += g,
                    GradSlot::Input(i) => grads.inputs[i] += g,
                }
            }
            let part_inv = match part.input {
                Some((gate, index)) => {
                    let (_, r) = gate
                        .single_qubit_matrix(-input_angle(inputs, index)?)
                        .expect("input rotations are single-qubit");
                    matmul2(&r, &part.inv)
                }
                None => part.inv,
            };
            if k + 1 < chain.parts {
                m = move_back(&m, &part_inv);
            }
            inv = Some(match inv {
                Some(later) => matmul2(&part_inv, &later),
                None => part_inv,
            });
        }
        if let Some(m) = inv {
            undo.push(TapeOp::OneQ {
                wire: chain.wire,
                m,
            });
        }
    }
    bra.apply_tape_ops(undo, inputs)
}

/// [`vjp_diagonal`] against a pre-compiled tape, on any [`Backend`]: the
/// production batched path.
///
/// The forward run executes the tape and keeps a ket snapshot at the end of
/// every block (and after every controlled-rotation stop); these live only
/// for this call. The backward sweep then moves only the bra through the
/// tape's pre-lowered adjoint program: fixed segments are un-applied as
/// pre-inverted fused ops; each block takes one [`Backend::cross_matrix`]
/// per differentiated wire, reads all of that wire's gradients from it with
/// 2×2 algebra, and un-applies each wire's fused chain inverse;
/// parametrized controlled rotations take a clone-based generator product.
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

    // Forward pass on the compiled tape; the final register becomes the bra.
    let (mut bra, mut kets) = tape.execute_with_snapshots::<B>(inputs, initial)?;
    bra.apply_diagonal_real(diag);

    let mut grads = CircuitGradients::zeros(tape.n_params(), tape.n_inputs());
    let mut undo = Vec::new();

    // Backward sweep over the pre-lowered adjoint program; every block and
    // stop reads the latest snapshot not yet consumed.
    for step in tape.adjoint_steps() {
        match step {
            AdjointStep::Unapply(ops) => bra.apply_tape_ops(ops, inputs)?,
            AdjointStep::Block(block) => {
                let ket = kets.pop().expect("one snapshot per block");
                sweep_block(block, &mut bra, &ket, inputs, &mut grads, &mut undo)?;
            }
            AdjointStep::Stop(stop) => {
                let ket = kets.pop().expect("one snapshot per stop");
                let g = generator_inner_im(&bra, &ket, stop.gate())?;
                stop.unapply(&mut bra, inputs)?;
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
    use crate::backend::{FusedDenseBackend, SoaDenseBackend};
    use crate::embed::{amplitude_embedding, angle_embedding_gates, RotationAxis};
    use crate::gate::Param;
    use crate::templates::{strongly_entangling_layers, EntangleRange};

    /// Runs the tape sweep on every backend, checks each against the
    /// gate-by-gate oracle at ≤ 1e-12, and returns the oracle's gradients.
    fn tape_matches_oracle(
        c: &Circuit,
        params: &[f64],
        inputs: &[f64],
        upstream: &[f64],
    ) -> CircuitGradients {
        fn on<B: Backend>(tape: &CompiledTape, inputs: &[f64], up: &[f64]) -> CircuitGradients {
            backward_expectations_z_tape::<B>(tape, inputs, None, up).unwrap()
        }
        let oracle = backward_expectations_z(c, params, inputs, None, upstream).unwrap();
        let tape = c.compile(params).unwrap();
        for (name, g) in [
            ("dense", on::<StateVector>(&tape, inputs, upstream)),
            ("fused", on::<FusedDenseBackend>(&tape, inputs, upstream)),
            ("soa", on::<SoaDenseBackend>(&tape, inputs, upstream)),
        ] {
            for (a, b) in oracle.params.iter().zip(&g.params) {
                assert!((a - b).abs() <= 1e-12, "{name} param: {a} vs {b}");
            }
            for (a, b) in oracle.inputs.iter().zip(&g.inputs) {
                assert!((a - b).abs() <= 1e-12, "{name} input: {a} vs {b}");
            }
            assert_eq!(g.params.len(), oracle.params.len(), "{name}");
            assert_eq!(g.inputs.len(), oracle.inputs.len(), "{name}");
        }
        oracle
    }

    #[test]
    fn tape_without_parametrized_gates_has_zero_gradients() {
        let mut c = Circuit::new(3).unwrap();
        c.h(0).unwrap();
        c.ry(1, Param::Fixed(0.8)).unwrap();
        c.cnot(0, 2).unwrap();
        c.push(Gate::T(2)).unwrap();
        let g = tape_matches_oracle(&c, &[], &[], &[1.0, -0.5, 0.25]);
        assert!(g.params.is_empty() && g.inputs.is_empty());

        // Parameters the circuit declares but never differentiates stay 0.
        let mut c = Circuit::new(2).unwrap();
        c.rz(0, Param::Train(1)).unwrap();
        c.cnot(0, 1).unwrap();
        let g = tape_matches_oracle(&c, &[0.3, 0.7], &[], &[1.0, 1.0]);
        assert_eq!(g.params[0], 0.0);
    }

    #[test]
    fn single_block_without_entangler() {
        let mut c = Circuit::new(3).unwrap();
        c.extend(strongly_entangling_layers(3, 1, 0, EntangleRange::Ring).unwrap()[..9].to_vec())
            .unwrap();
        c.rx(1, Param::Train(9)).unwrap();
        let params: Vec<f64> = (0..10).map(|i| 0.3 * i as f64 - 1.1).collect();
        let tape = c.compile(&params).unwrap();
        assert!(matches!(tape.adjoint_steps(), [AdjointStep::Block(_)]));
        tape_matches_oracle(&c, &params, &[], &[0.9, -1.3, 0.4]);
    }

    #[test]
    fn parameter_shared_by_two_blocks_accumulates() {
        let mut c = Circuit::new(2).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        c.rz(1, Param::Train(1)).unwrap();
        c.cnot(0, 1).unwrap();
        c.rx(1, Param::Train(0)).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        let g = tape_matches_oracle(&c, &[0.9, -0.4], &[], &[1.0, -0.7]);
        assert!(
            g.params[0].abs() > 1e-3,
            "the shared gradient should not vanish"
        );
    }

    #[test]
    fn fixed_gates_inside_a_trainable_chain() {
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        c.push(Gate::S(0)).unwrap();
        c.rx(0, Param::Train(1)).unwrap();
        c.push(Gate::T(0)).unwrap();
        c.x(0).unwrap();
        c.rz(0, Param::Train(2)).unwrap();
        c.h(0).unwrap();
        c.push(Gate::PauliY(1)).unwrap();
        c.ry(1, Param::Train(3)).unwrap();
        c.cnot(1, 0).unwrap();
        c.push(Gate::S(1)).unwrap();
        c.rx(1, Param::Train(2)).unwrap();
        tape_matches_oracle(&c, &[0.4, -1.2, 2.1, 0.6], &[], &[0.8, -1.1]);
    }

    #[test]
    fn trainable_controlled_rotations_between_blocks() {
        for (k, kind) in [
            Gate::CRX(0, 1, Param::Train(2)),
            Gate::CRY(1, 2, Param::Train(2)),
            Gate::CRZ(2, 0, Param::Train(2)),
        ]
        .into_iter()
        .enumerate()
        {
            let mut c = Circuit::new(3).unwrap();
            for w in 0..3 {
                c.h(w).unwrap();
                c.ry(w, Param::Train(0)).unwrap();
            }
            c.push(kind).unwrap();
            // A fixed phase on the same pair right behind the stop.
            if let Gate::CRZ(a, b, _) = kind {
                c.cz(a, b).unwrap();
            }
            for w in 0..3 {
                c.rx(w, Param::Train(1)).unwrap();
            }
            let params = [0.7, -0.3, 1.1 + 0.2 * k as f64];
            let g = tape_matches_oracle(&c, &params, &[], &[1.0, 0.5, -0.8]);
            assert!(
                g.params[2].abs() > 1e-6,
                "{kind:?} gradient should not vanish"
            );
        }
    }

    #[test]
    fn input_index_bound_twice() {
        // Input 0 drives two rotations on wire 0 — one chain split into
        // three parts around them — and one on wire 1, all in one block.
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap();
        c.rz(0, Param::Train(0)).unwrap();
        c.ry(0, Param::Input(0)).unwrap();
        c.rz(0, Param::Train(1)).unwrap();
        c.rx(0, Param::Input(0)).unwrap();
        c.ry(0, Param::Train(2)).unwrap();
        c.rx(1, Param::Input(0)).unwrap();
        c.rz(1, Param::Input(1)).unwrap();
        c.cnot(0, 1).unwrap();
        c.ry(1, Param::Input(1)).unwrap();
        let g = tape_matches_oracle(&c, &[0.3, -0.9, 1.4], &[0.6, -1.3], &[1.0, -0.6]);
        assert!(g.inputs[0].abs() > 1e-6 && g.inputs[1].abs() > 1e-6);
    }

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
