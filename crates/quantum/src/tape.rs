//! Batch-compiled op tapes: lower a [`Circuit`] + parameter vector once,
//! execute many times.
//!
//! Within a mini-batch every row shares one trainable-parameter vector — only
//! the embedded inputs differ — yet gate-by-gate execution re-walks the op
//! list and re-derives the same rotation matrices for every row. Compiling
//! the circuit once per batch into a [`CompiledTape`] hoists all of that
//! parameter-dependent work out of the per-row loop:
//!
//! * runs of single-qubit gates **pre-fuse** into one 2×2 matrix per wire
//!   (fusing across gates on *other* wires too, since disjoint single-qubit
//!   unitaries commute);
//! * consecutive CNOTs (and SWAPs, as three CNOTs) collapse into one
//!   [`TapeOp::CnotRun`] permutation;
//! * controlled phases (`CZ`, `CRZ`) become two pre-resolved **diagonal
//!   phases** per controlled pair;
//! * input-dependent embedding gates stay behind as **late-bound**
//!   [`TapeOp::Late`] slots, resolved per row at execution time.
//!
//! The tape also carries a pre-lowered **adjoint program**
//! ([`CompiledTape::adjoint_steps`]): the backward sweep of adjoint
//! differentiation visits the same gates in reverse, and every fixed-gate
//! segment between two parametrized stops is pre-inverted and pre-fused the
//! same way. `crate::grad::adjoint` consumes it for the batched backward
//! pass.
//!
//! This is the compile-once/execute-many split of PennyLane-style adjoint
//! pipelines (Jones & Gacon) and Qulacs-style batched statevector execution.
//!
//! # Examples
//!
//! ```
//! use sqvae_quantum::{Circuit, DenseBackend, Param};
//!
//! let mut c = Circuit::new(2)?;
//! c.ry(0, Param::Input(0))?; // late-bound embedding slot
//! c.rot(1, Param::Train(0), Param::Train(1), Param::Train(2))?; // pre-fused
//! c.cnot(0, 1)?;
//!
//! let tape = c.compile(&[0.1, 0.2, 0.3])?; // once per batch
//! for x in [0.5, 1.5] {
//!     let state: DenseBackend = tape.execute_on(&[x], None)?; // per row
//!     assert_eq!(state.dim(), 4);
//! }
//! # Ok::<(), sqvae_quantum::QuantumError>(())
//! ```

use crate::backend::{matmul2, Backend};
use crate::circuit::Circuit;
use crate::complex::C64;
use crate::error::{QuantumError, Result};
use crate::gate::{rx_matrix, ry_matrix, rz_matrix, s_dagger_matrix, t_dagger_matrix, Gate, Param};

/// A pre-resolved operation on a compiled tape.
///
/// Everything that depends only on the circuit structure and the batch's
/// trainable parameters is resolved at compile time; only [`TapeOp::Late`]
/// still consults the per-row input vector.
#[derive(Debug, Clone, PartialEq)]
pub enum TapeOp {
    /// A pre-fused single-qubit unitary (row-major 2×2) on one wire.
    OneQ {
        /// Target wire.
        wire: usize,
        /// The fused 2×2 matrix.
        m: [[C64; 2]; 2],
    },
    /// A controlled single-qubit unitary with a pre-resolved matrix.
    Controlled {
        /// Control wire.
        control: usize,
        /// Target wire.
        target: usize,
        /// The 2×2 matrix applied on the target within the control-set
        /// half-space.
        m: [[C64; 2]; 2],
    },
    /// A controlled diagonal phase (`CZ`, `CRZ`): within the control-set
    /// half-space, target-clear amplitudes scale by `d[0]` and target-set
    /// amplitudes by `d[1]`.
    Phase {
        /// Control wire.
        control: usize,
        /// Target wire.
        target: usize,
        /// The two diagonal phases.
        d: [C64; 2],
    },
    /// A run of consecutive CNOTs (the template's ring entangler), applied
    /// as one basis-state permutation by backends that support it.
    CnotRun(Vec<(usize, usize)>),
    /// A late-bound slot: a gate whose angle comes from the per-row input
    /// vector ([`Param::Input`]), resolved at execution time.
    Late {
        /// The deferred gate.
        gate: Gate,
        /// Index into the input-feature vector.
        index: usize,
    },
}

/// One instruction of a tape's pre-lowered backward (adjoint) sweep, stored
/// in reverse circuit order.
#[derive(Debug, Clone, PartialEq)]
pub enum AdjointStep {
    /// A pre-inverted, pre-fused segment of non-differentiated gates,
    /// un-applied from both the ket and the bra in one go.
    Unapply(Vec<TapeOp>),
    /// A parametrized gate the sweep differentiates at.
    Stop(AdjointStop),
}

/// A parametrized stop of the backward sweep: where the adjoint engine takes
/// `Im⟨bra|G|ket⟩` before un-applying the gate from both vectors.
#[derive(Debug, Clone, PartialEq)]
pub enum AdjointStop {
    /// A gate bound to a trainable parameter; its inverse was pre-resolved
    /// at compile time.
    Train {
        /// The original gate (source of the generator).
        gate: Gate,
        /// Index into the trainable-parameter vector.
        index: usize,
        /// The pre-resolved inverse op.
        inv: TapeOp,
    },
    /// A gate bound to a per-row input feature; its inverse is resolved at
    /// execution time.
    Input {
        /// The original gate (source of the generator).
        gate: Gate,
        /// Index into the input-feature vector.
        index: usize,
    },
}

impl AdjointStop {
    /// The gate being differentiated at this stop.
    pub fn gate(&self) -> &Gate {
        match self {
            AdjointStop::Train { gate, .. } | AdjointStop::Input { gate, .. } => gate,
        }
    }

    /// Un-applies the stop's gate from `state`.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors; returns an input-count error if an
    /// [`AdjointStop::Input`] index exceeds `inputs`.
    pub fn unapply<B: Backend>(&self, state: &mut B, inputs: &[f64]) -> Result<()> {
        match self {
            AdjointStop::Train { inv, .. } => state.apply_tape_op(inv, inputs),
            AdjointStop::Input { gate, index } => {
                let theta = *inputs.get(*index).ok_or(QuantumError::InputCountMismatch {
                    expected: *index + 1,
                    actual: inputs.len(),
                })?;
                gate.apply_inverse(state, theta)
            }
        }
    }
}

/// A circuit lowered against one trainable-parameter vector: the product of
/// [`Circuit::compile`], reusable across every row of a batch.
///
/// Holds a flat forward program ([`CompiledTape::forward_ops`]) and the
/// matching pre-lowered backward sweep ([`CompiledTape::adjoint_steps`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTape {
    n_qubits: usize,
    n_params: usize,
    n_inputs: usize,
    forward: Vec<TapeOp>,
    adjoint: Vec<AdjointStep>,
}

impl CompiledTape {
    /// Number of wires.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of trainable parameters the source circuit references (already
    /// resolved into the tape).
    #[inline]
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Number of input features the tape's late-bound slots reference.
    #[inline]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// The flat forward program.
    #[inline]
    pub fn forward_ops(&self) -> &[TapeOp] {
        &self.forward
    }

    /// The pre-lowered backward sweep, in reverse circuit order.
    #[inline]
    pub fn adjoint_steps(&self) -> &[AdjointStep] {
        &self.adjoint
    }

    /// The register execution starts from: a dimension-checked clone of
    /// `initial`, or `|0…0⟩` (mirrors `Circuit::start_state`).
    pub(crate) fn start_state<B: Backend>(&self, initial: Option<&B>) -> Result<B> {
        match initial {
            Some(s) => {
                if s.n_qubits() != self.n_qubits {
                    return Err(QuantumError::DimensionMismatch {
                        expected: 1 << self.n_qubits,
                        actual: s.dim(),
                    });
                }
                Ok(s.clone())
            }
            None => B::zero_state(self.n_qubits),
        }
    }

    /// Executes the tape for one row and returns the final register.
    ///
    /// `inputs` resolves the late-bound embedding slots; `initial` lets the
    /// caller start from an embedded state (`None` = `|0…0⟩`).
    ///
    /// # Errors
    ///
    /// Returns an input-count error if `inputs` is shorter than the tape
    /// references, or a typed dimension mismatch if `initial` has a
    /// different width.
    pub fn execute_on<B: Backend>(&self, inputs: &[f64], initial: Option<&B>) -> Result<B> {
        let mut state = self.start_state(initial)?;
        state.execute_tape(self, inputs)?;
        Ok(state)
    }

    /// Executes the tape then measures `⟨Z⟩` on every wire.
    ///
    /// # Errors
    ///
    /// See [`CompiledTape::execute_on`].
    pub fn expectations_z_on<B: Backend>(
        &self,
        inputs: &[f64],
        initial: Option<&B>,
    ) -> Result<Vec<f64>> {
        let state = self.execute_on(inputs, initial)?;
        (0..self.n_qubits).map(|w| state.expectation_z(w)).collect()
    }

    /// Executes the tape then returns all basis-state probabilities.
    ///
    /// # Errors
    ///
    /// See [`CompiledTape::execute_on`].
    pub fn probabilities_on<B: Backend>(
        &self,
        inputs: &[f64],
        initial: Option<&B>,
    ) -> Result<Vec<f64>> {
        Ok(self.execute_on(inputs, initial)?.probabilities())
    }

    /// Executes the tape then writes all basis-state probabilities into
    /// `out` (cleared first, capacity reused) — the allocation-free readout
    /// used by batched per-row paths.
    ///
    /// # Errors
    ///
    /// See [`CompiledTape::execute_on`].
    pub fn probabilities_into_on<B: Backend>(
        &self,
        inputs: &[f64],
        initial: Option<&B>,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.execute_on(inputs, initial)?.probabilities_into(out);
        Ok(())
    }
}

/// Incrementally lowers resolved gates into a fused op list.
#[derive(Default)]
struct Lowerer {
    ops: Vec<TapeOp>,
}

impl Lowerer {
    /// Pushes a single-qubit matrix, fusing into the most recent op on the
    /// same wire. Trailing `OneQ` ops on *other* wires are scanned past —
    /// disjoint single-qubit unitaries commute — so interleaved per-wire
    /// rotation columns still fuse to one matrix per wire.
    fn push_single(&mut self, wire: usize, m: [[C64; 2]; 2]) {
        for op in self.ops.iter_mut().rev() {
            match op {
                TapeOp::OneQ { wire: w, m: acc } if *w == wire => {
                    *acc = matmul2(&m, acc);
                    return;
                }
                TapeOp::OneQ { .. } => {}
                _ => break,
            }
        }
        self.ops.push(TapeOp::OneQ { wire, m });
    }

    /// Pushes a CNOT, extending the current permutation run if one is open.
    fn push_cnot(&mut self, control: usize, target: usize) {
        if let Some(TapeOp::CnotRun(pairs)) = self.ops.last_mut() {
            pairs.push((control, target));
        } else {
            self.ops.push(TapeOp::CnotRun(vec![(control, target)]));
        }
    }

    /// Pushes a controlled diagonal phase, fusing into an adjacent phase op
    /// on the same wire pair.
    fn push_phase(&mut self, control: usize, target: usize, d: [C64; 2]) {
        if let Some(TapeOp::Phase {
            control: c,
            target: t,
            d: acc,
        }) = self.ops.last_mut()
        {
            if *c == control && *t == target {
                acc[0] *= d[0];
                acc[1] *= d[1];
                return;
            }
        }
        self.ops.push(TapeOp::Phase { control, target, d });
    }

    /// Lowers one gate with its resolved angle.
    fn lower(&mut self, gate: &Gate, theta: f64) {
        if let Some((w, m)) = gate.single_qubit_matrix(theta) {
            self.push_single(w, m);
            return;
        }
        match *gate {
            Gate::CNOT(c, t) => self.push_cnot(c, t),
            // SWAP = CNOT(a,b)·CNOT(b,a)·CNOT(a,b) merges into the run.
            Gate::SWAP(a, b) => {
                self.push_cnot(a, b);
                self.push_cnot(b, a);
                self.push_cnot(a, b);
            }
            Gate::CZ(c, t) => self.push_phase(c, t, [C64::ONE, -C64::ONE]),
            Gate::CRZ(c, t, _) => self.push_phase(
                c,
                t,
                [
                    C64::from_polar(1.0, -theta / 2.0),
                    C64::from_polar(1.0, theta / 2.0),
                ],
            ),
            Gate::CRX(c, t, _) => self.ops.push(TapeOp::Controlled {
                control: c,
                target: t,
                m: rx_matrix(theta),
            }),
            Gate::CRY(c, t, _) => self.ops.push(TapeOp::Controlled {
                control: c,
                target: t,
                m: ry_matrix(theta),
            }),
            // Every other gate kind reports a single-qubit matrix above.
            _ => unreachable!("gate {gate:?} has no tape lowering"),
        }
    }

    /// Lowers the inverse of a fixed-segment gate (no `Train`/`Input`
    /// binding; `theta` is the gate's fixed angle, if any).
    fn lower_inverse(&mut self, gate: &Gate, theta: f64) {
        match *gate {
            Gate::S(w) => self.push_single(w, s_dagger_matrix()),
            Gate::T(w) => self.push_single(w, t_dagger_matrix()),
            Gate::RX(..)
            | Gate::RY(..)
            | Gate::RZ(..)
            | Gate::CRX(..)
            | Gate::CRY(..)
            | Gate::CRZ(..) => self.lower(gate, -theta),
            // Paulis, Hadamard, CNOT, CZ, SWAP are self-inverse.
            _ => self.lower(gate, theta),
        }
    }
}

/// The pre-resolved inverse op of a trainable rotation stop.
fn inverse_op(gate: &Gate, theta: f64) -> TapeOp {
    match *gate {
        Gate::RX(w, _) => TapeOp::OneQ {
            wire: w,
            m: rx_matrix(-theta),
        },
        Gate::RY(w, _) => TapeOp::OneQ {
            wire: w,
            m: ry_matrix(-theta),
        },
        Gate::RZ(w, _) => TapeOp::OneQ {
            wire: w,
            m: rz_matrix(-theta),
        },
        Gate::CRX(c, t, _) => TapeOp::Controlled {
            control: c,
            target: t,
            m: rx_matrix(-theta),
        },
        Gate::CRY(c, t, _) => TapeOp::Controlled {
            control: c,
            target: t,
            m: ry_matrix(-theta),
        },
        Gate::CRZ(c, t, _) => TapeOp::Phase {
            control: c,
            target: t,
            d: [
                C64::from_polar(1.0, theta / 2.0),
                C64::from_polar(1.0, -theta / 2.0),
            ],
        },
        _ => unreachable!("only rotations carry parameter bindings"),
    }
}

/// Lowers `circuit` against `params` into a [`CompiledTape`] (the body of
/// [`Circuit::compile`]).
pub(crate) fn compile(circuit: &Circuit, params: &[f64]) -> Result<CompiledTape> {
    if params.len() < circuit.n_params() {
        return Err(QuantumError::ParamCountMismatch {
            expected: circuit.n_params(),
            actual: params.len(),
        });
    }

    // Forward program: resolve every non-input angle, fuse as we go. Gates
    // bound to input features stay late-bound and break fusion runs.
    let mut fwd = Lowerer::default();
    for gate in circuit.ops() {
        match gate.param() {
            Some(Param::Input(index)) => fwd.ops.push(TapeOp::Late { gate: *gate, index }),
            Some(Param::Train(i)) => fwd.lower(gate, params[i]),
            Some(Param::Fixed(v)) => fwd.lower(gate, v),
            None => fwd.lower(gate, 0.0),
        }
    }

    // Adjoint program: walk the gates in reverse; fixed gates between two
    // parametrized stops pre-invert and pre-fuse into one segment.
    let mut adjoint = Vec::new();
    let mut seg = Lowerer::default();
    let flush = |seg: &mut Lowerer, adjoint: &mut Vec<AdjointStep>| {
        if !seg.ops.is_empty() {
            adjoint.push(AdjointStep::Unapply(std::mem::take(&mut seg.ops)));
        }
    };
    for gate in circuit.ops().iter().rev() {
        match gate.param() {
            Some(Param::Train(index)) => {
                flush(&mut seg, &mut adjoint);
                adjoint.push(AdjointStep::Stop(AdjointStop::Train {
                    gate: *gate,
                    index,
                    inv: inverse_op(gate, params[index]),
                }));
            }
            Some(Param::Input(index)) => {
                flush(&mut seg, &mut adjoint);
                adjoint.push(AdjointStep::Stop(AdjointStop::Input { gate: *gate, index }));
            }
            Some(Param::Fixed(v)) => seg.lower_inverse(gate, v),
            None => seg.lower_inverse(gate, 0.0),
        }
    }
    flush(&mut seg, &mut adjoint);

    Ok(CompiledTape {
        n_qubits: circuit.n_qubits(),
        n_params: circuit.n_params(),
        n_inputs: circuit.n_inputs(),
        forward: fwd.ops,
        adjoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DenseBackend, FusedDenseBackend};
    use crate::embed::{angle_embedding_gates, RotationAxis};
    use crate::templates::{strongly_entangling_layers, EntangleRange};
    use crate::StateVector;

    fn paper_circuit(n: usize, layers: usize) -> Circuit {
        let mut c = Circuit::new(n).unwrap();
        c.extend(angle_embedding_gates(n, RotationAxis::Y, 0))
            .unwrap();
        c.extend(strongly_entangling_layers(n, layers, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        c
    }

    /// The gate-by-gate reference: applies `c` (no trainable or input
    /// bindings) to `state` one gate at a time, no tape.
    fn apply_gate_by_gate(c: &Circuit, state: &mut StateVector) {
        for g in c.ops() {
            let theta = g.param().map_or(0.0, |p| p.resolve(&[], &[]));
            g.apply(state, theta).unwrap();
        }
    }

    #[test]
    fn template_compiles_to_one_matrix_per_wire_per_layer() {
        // Per layer: RZ·RY·RZ per wire fuse to one OneQ each, the CNOT ring
        // to one CnotRun; the embedding stays as n late-bound slots.
        let n = 4;
        let layers = 3;
        let c = paper_circuit(n, layers);
        let tape = c.compile(&vec![0.1; c.n_params()]).unwrap();
        let mut late = 0;
        let mut oneq = 0;
        let mut runs = 0;
        for op in tape.forward_ops() {
            match op {
                TapeOp::Late { .. } => late += 1,
                TapeOp::OneQ { .. } => oneq += 1,
                TapeOp::CnotRun(pairs) => {
                    assert_eq!(pairs.len(), n);
                    runs += 1;
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert_eq!(late, n);
        assert_eq!(oneq, n * layers);
        assert_eq!(runs, layers);
    }

    #[test]
    fn fusion_reaches_across_commuting_wires() {
        // H(0), H(1), H(0): the two wire-0 gates fuse through the commuting
        // wire-1 gate, leaving H·H = I on wire 0 and H on wire 1.
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap();
        c.h(1).unwrap();
        c.h(0).unwrap();
        let tape = c.compile(&[]).unwrap();
        assert_eq!(tape.forward_ops().len(), 2);
        let state: DenseBackend = tape.execute_on(&[], None).unwrap();
        let mut reference = StateVector::zero_state(2).unwrap();
        apply_gate_by_gate(&c, &mut reference);
        for (a, b) in state.amplitudes().iter().zip(reference.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-15), "{a} vs {b}");
        }
    }

    #[test]
    fn swap_joins_the_cnot_run() {
        let mut c = Circuit::new(3).unwrap();
        c.cnot(0, 1).unwrap();
        c.push(Gate::SWAP(1, 2)).unwrap();
        c.cnot(2, 0).unwrap();
        let tape = c.compile(&[]).unwrap();
        assert_eq!(tape.forward_ops().len(), 1);
        assert!(matches!(&tape.forward_ops()[0], TapeOp::CnotRun(p) if p.len() == 5));
    }

    #[test]
    fn adjacent_phases_fuse() {
        let mut c = Circuit::new(2).unwrap();
        c.cz(0, 1).unwrap();
        c.crz(0, 1, Param::Fixed(0.7)).unwrap();
        let tape = c.compile(&[]).unwrap();
        assert_eq!(tape.forward_ops().len(), 1);
        let fused: FusedDenseBackend = {
            let mut s = FusedDenseBackend::zero_state(2).unwrap();
            for w in 0..2 {
                s.apply_single_qubit(w, &crate::gate::hadamard()).unwrap();
            }
            s.execute_tape(&tape, &[]).unwrap();
            s
        };
        let mut dense = StateVector::zero_state(2).unwrap();
        for w in 0..2 {
            dense
                .apply_single_qubit(w, &crate::gate::hadamard())
                .unwrap();
        }
        apply_gate_by_gate(&c, &mut dense);
        for (a, b) in fused
            .to_statevector()
            .amplitudes()
            .iter()
            .zip(dense.amplitudes())
        {
            assert!(a.approx_eq(*b, 1e-15), "{a} vs {b}");
        }
    }

    #[test]
    fn execute_rejects_short_inputs_and_bad_initial() {
        let c = paper_circuit(3, 1);
        let tape = c.compile(&vec![0.0; c.n_params()]).unwrap();
        assert!(matches!(
            tape.execute_on::<DenseBackend>(&[0.0], None),
            Err(QuantumError::InputCountMismatch { .. })
        ));
        let wide = StateVector::zero_state(4).unwrap();
        assert!(matches!(
            tape.execute_on(&[0.0; 3], Some(&wide)),
            Err(QuantumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn compile_rejects_short_params() {
        let c = paper_circuit(2, 1);
        assert!(matches!(
            c.compile(&[0.0]),
            Err(QuantumError::ParamCountMismatch { .. })
        ));
    }

    #[test]
    fn adjoint_program_alternates_stops_and_fused_segments() {
        let c = paper_circuit(4, 2);
        let tape = c.compile(&vec![0.2; c.n_params()]).unwrap();
        let stops = tape
            .adjoint_steps()
            .iter()
            .filter(|s| matches!(s, AdjointStep::Stop(_)))
            .count();
        // Every rotation (3 per wire per layer) plus every embedding gate is
        // a stop; the CNOT rings are the only fixed segments.
        assert_eq!(stops, c.n_params() + c.n_inputs());
        let segments = tape
            .adjoint_steps()
            .iter()
            .filter(|s| matches!(s, AdjointStep::Unapply(_)))
            .count();
        assert_eq!(segments, 2); // one inverted CNOT ring per layer
    }
}
