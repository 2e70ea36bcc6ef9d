//! Pluggable simulator backends.
//!
//! Every compiled-tape consumer — [`crate::Circuit::run_on`],
//! [`crate::CompiledTape::execute_on`], the adjoint `*_tape` sweeps in
//! [`crate::grad::adjoint`], and the quantum layers built on top — is
//! generic over a [`Backend`]. A backend executes gates only as the ops of a
//! [`CompiledTape`](crate::CompiledTape); the gate-by-gate oracles (`Gate::apply`, the dense
//! adjoint, parameter-shift and finite-difference functions) run on the
//! dense [`StateVector`] alone. A backend implements eleven items:
//!
//! * storage: [`Backend::NAME`], [`Backend::zero_state`],
//!   [`Backend::from_statevector`], [`Backend::to_statevector`] and
//!   [`Backend::n_qubits`];
//! * execution: [`Backend::apply_tape_op`], covering every [`TapeOp`]
//!   kind, plus [`Backend::apply_diagonal_real`] for the adjoint sweep's
//!   observable and generator diagonals;
//! * readout: [`Backend::expectation_z`], [`Backend::probabilities_into`],
//!   [`Backend::inner`] and [`Backend::cross_matrix`].
//!
//! The rest (`dim`, `bit_of_wire`, `check_wire`, `probabilities`,
//! `apply_tape_ops`) is provided. Three implementations ship today:
//!
//! * [`DenseBackend`] (an alias for [`StateVector`]) — the reference
//!   semantics: every op is one pass over the `2^n` amplitudes.
//! * [`FusedDenseBackend`] — the same dense amplitudes behind specialized
//!   kernels: a compiled CNOT run (the paper's ring template) is one
//!   permutation pass, and controlled kernels enumerate only the
//!   control-set half-space instead of scanning the full register.
//! * [`SoaDenseBackend`] — amplitudes split into separate re/im `f64`
//!   planes (structure-of-arrays) so every kernel is a branch-free
//!   unit-stride loop the autovectorizer packs into FMA, with cache-blocked
//!   tape execution for large registers (see [`soa`]).
//!
//! Backend *selection* (the `SQVAE_BACKEND` environment variable and the
//! `--backend` experiment flag) lives in `sqvae_nn::BackendKind`, next to the
//! analogous `Threads` policy.

pub mod soa;

pub use soa::SoaDenseBackend;

use crate::complex::C64;
use crate::error::{QuantumError, Result};
use crate::state::StateVector;
use crate::tape::{input_angle, TapeOp};

/// The dense reference backend: exactly today's [`StateVector`] kernels.
pub type DenseBackend = StateVector;

/// The register operations a simulation strategy must provide: the kernel
/// set of a [`CompiledTape`](crate::CompiledTape).
///
/// Semantics are fixed by [`StateVector`] (the reference implementation);
/// alternative backends may reorder floating-point work, so results are
/// required to match the dense backend only to high precision (the
/// equivalence property tests pin ≤ 1e-12), not bit-for-bit.
pub trait Backend: Clone + std::fmt::Debug {
    /// Short human-readable backend name (for logs and benches).
    const NAME: &'static str;

    /// Creates the all-zeros basis state `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::UnsupportedRegisterSize`] for 0 or more than
    /// [`crate::MAX_QUBITS`] qubits.
    fn zero_state(n_qubits: usize) -> Result<Self>
    where
        Self: Sized;

    /// Wraps an embedded dense state (amplitude embeddings produce a
    /// [`StateVector`]; backends adopt its amplitudes).
    fn from_statevector(state: StateVector) -> Self
    where
        Self: Sized;

    /// Materializes the register as a plain dense state (backends whose
    /// storage is not interleaved `C64`s — e.g. [`SoaDenseBackend`] — build
    /// one here; dense-storage backends clone).
    fn to_statevector(&self) -> StateVector;

    /// Number of qubits in the register.
    fn n_qubits(&self) -> usize;

    /// Hilbert-space dimension `2^n`.
    #[inline]
    fn dim(&self) -> usize {
        1usize << self.n_qubits()
    }

    /// Bit position (from the least significant end) of `wire`.
    #[inline]
    fn bit_of_wire(&self, wire: usize) -> usize {
        self.n_qubits() - 1 - wire
    }

    /// Checks that `wire` addresses this register.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] for an invalid wire.
    fn check_wire(&self, wire: usize) -> Result<()> {
        if wire >= self.n_qubits() {
            Err(QuantumError::WireOutOfRange {
                wire,
                n_qubits: self.n_qubits(),
            })
        } else {
            Ok(())
        }
    }

    /// Multiplies each amplitude by the diagonal entries `d` (the adjoint
    /// engine's observable application).
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != self.dim()`.
    fn apply_diagonal_real(&mut self, d: &[f64]);

    /// Expectation value `⟨ψ|Z_wire|ψ⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] for an invalid wire.
    fn expectation_z(&self, wire: usize) -> Result<f64>;

    /// Probabilities of all `2^n` basis states.
    fn probabilities(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        self.probabilities_into(&mut out);
        out
    }

    /// Writes the probabilities of all `2^n` basis states into `out`
    /// (cleared first, capacity reused) — the allocation-free counterpart of
    /// [`Backend::probabilities`] for batched readout paths that call it
    /// once per row.
    fn probabilities_into(&self, out: &mut Vec<f64>);

    /// The inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    fn inner(&self, other: &Self) -> C64;

    /// Applies one op of a [`CompiledTape`](crate::CompiledTape): the only way a backend executes
    /// gates. `inputs` resolves late-bound embedding slots
    /// ([`TapeOp::Late`]); all other ops ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] or
    /// [`QuantumError::ControlEqualsTarget`] for invalid wires, and an
    /// input-count error if a late slot's index exceeds `inputs`.
    fn apply_tape_op(&mut self, op: &TapeOp, inputs: &[f64]) -> Result<()>;

    /// Applies a slice of tape ops in order. The default applies them one
    /// by one; [`SoaDenseBackend`] overrides it to run commuting
    /// single-qubit ops tile by tile.
    ///
    /// # Errors
    ///
    /// See [`Backend::apply_tape_op`].
    fn apply_tape_ops(&mut self, ops: &[TapeOp], inputs: &[f64]) -> Result<()>
    where
        Self: Sized,
    {
        for op in ops {
            self.apply_tape_op(op, inputs)?;
        }
        Ok(())
    }

    /// The 2×2 cross matrix of `self` (the bra) and `ket` on `wire`:
    /// `M[a][b] = Σ conj(self[i_a])·ket[i_b]`, summed over every basis
    /// index `i` of the other wires, where `i_a` is `i` with `wire`'s bit
    /// set to `a`.
    ///
    /// For any single-qubit operator `Q` on `wire`,
    /// `⟨self|Q|ket⟩ = Σ_ab Q[a][b]·M[a][b]`: the adjoint sweep reads every
    /// rotation gradient of a block's wire chain from this one pass.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] for an invalid wire.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    fn cross_matrix(&self, ket: &Self, wire: usize) -> Result<[[C64; 2]; 2]>;
}

/// [`Backend::cross_matrix`] over interleaved amplitude slices, for the
/// wire whose bit stride is `stride`: the dense and fused kernel.
fn cross_matrix_slices(bra: &[C64], ket: &[C64], stride: usize) -> [[C64; 2]; 2] {
    assert_eq!(bra.len(), ket.len(), "dimension mismatch");
    let mut m = [[C64::ZERO; 2]; 2];
    for (b, k) in bra
        .chunks_exact(2 * stride)
        .zip(ket.chunks_exact(2 * stride))
    {
        let (b0, b1) = b.split_at(stride);
        let (k0, k1) = k.split_at(stride);
        for i in 0..stride {
            let (c0, c1) = (b0[i].conj(), b1[i].conj());
            m[0][0] += c0 * k0[i];
            m[0][1] += c0 * k1[i];
            m[1][0] += c1 * k0[i];
            m[1][1] += c1 * k1[i];
        }
    }
    m
}

impl Backend for StateVector {
    const NAME: &'static str = "dense";

    fn zero_state(n_qubits: usize) -> Result<Self> {
        StateVector::zero_state(n_qubits)
    }

    fn from_statevector(state: StateVector) -> Self {
        state
    }

    fn to_statevector(&self) -> StateVector {
        self.clone()
    }

    fn n_qubits(&self) -> usize {
        StateVector::n_qubits(self)
    }

    fn apply_diagonal_real(&mut self, d: &[f64]) {
        StateVector::apply_diagonal_real(self, d);
    }

    fn expectation_z(&self, wire: usize) -> Result<f64> {
        StateVector::expectation_z(self, wire)
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        StateVector::probabilities_into(self, out);
    }

    fn inner(&self, other: &Self) -> C64 {
        StateVector::inner(self, other)
    }

    fn apply_tape_op(&mut self, op: &TapeOp, inputs: &[f64]) -> Result<()> {
        match op {
            TapeOp::OneQ { wire, m } => self.apply_single_qubit(*wire, m),
            TapeOp::Controlled { control, target, m } => {
                self.apply_controlled(*control, *target, m)
            }
            TapeOp::Phase { control, target, d } => {
                let m = [[d[0], C64::ZERO], [C64::ZERO, d[1]]];
                self.apply_controlled(*control, *target, &m)
            }
            TapeOp::CnotRun(pairs) => pairs.iter().try_for_each(|&(c, t)| self.apply_cnot(c, t)),
            TapeOp::Late { gate, index } => {
                self.apply_tape_op(&gate.tape_op(input_angle(inputs, *index)?), inputs)
            }
        }
    }

    fn cross_matrix(&self, ket: &Self, wire: usize) -> Result<[[C64; 2]; 2]> {
        self.check_wire(wire)?;
        let stride = 1usize << Backend::bit_of_wire(self, wire);
        Ok(cross_matrix_slices(
            self.amplitudes(),
            ket.amplitudes(),
            stride,
        ))
    }
}

/// Dense amplitudes behind fused and half-space-specialized kernels.
///
/// Two optimizations over the reference [`DenseBackend`]:
///
/// 1. **CNOT-run specialization** — a compiled [`TapeOp::CnotRun`] (the
///    paper's ring entangler) is a basis-state permutation; the whole run
///    becomes one gather pass instead of one sweep per gate.
/// 2. **Half-space controlled kernels** — [`TapeOp::Controlled`], single
///    CNOTs and diagonal [`TapeOp::Phase`] ops enumerate
///    only the `dim/4` indices with the control bit set and the target bit
///    clear, instead of scanning and testing all `2^n` indices.
///
/// Because these kernels reorder floating-point arithmetic, results match
/// the dense backend to ~1e-15 per amplitude (property-tested at ≤1e-12),
/// not bit-for-bit. For a fixed backend selection, results remain fully
/// deterministic.
///
/// # Examples
///
/// ```
/// use sqvae_quantum::backend::{Backend, FusedDenseBackend};
/// use sqvae_quantum::{Circuit, Param};
///
/// let mut c = Circuit::new(2)?;
/// c.ry(0, Param::Fixed(0.3))?;
/// c.cnot(0, 1)?;
/// let state: FusedDenseBackend = c.run_on(&[], &[], None)?;
/// assert_eq!(state.probabilities().len(), 4);
/// # Ok::<(), sqvae_quantum::QuantumError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FusedDenseBackend(StateVector);

impl FusedDenseBackend {
    /// Enumerates the `dim/4` basis indices with `cbit` set and `tbit`
    /// clear, calling `f(i, j)` for each pair `(i, i | tmask)`.
    fn for_each_controlled_pair(
        &mut self,
        cbit: usize,
        tbit: usize,
        mut f: impl FnMut(usize, usize, &mut [C64]),
    ) {
        let cmask = 1usize << cbit;
        let tmask = 1usize << tbit;
        let (b1, b2) = if cbit < tbit {
            (cbit, tbit)
        } else {
            (tbit, cbit)
        };
        let dim = self.0.dim();
        let amps = self.0.amps_mut();
        // Expand each k in 0..dim/4 to a full index with zero bits inserted
        // at positions b1 and b2, then force the control bit on.
        for k in 0..(dim >> 2) {
            let low = k & ((1usize << b1) - 1);
            let mid = (k >> b1) & ((1usize << (b2 - b1 - 1)) - 1);
            let high = k >> (b2 - 1);
            let base = (high << (b2 + 1)) | (mid << (b1 + 1)) | low;
            let i = base | cmask;
            f(i, i | tmask, amps);
        }
    }

    /// Validates a controlled gate's wires.
    fn check_controlled(&self, control: usize, target: usize) -> Result<()> {
        self.check_wire(control)?;
        self.check_wire(target)?;
        if control == target {
            return Err(QuantumError::ControlEqualsTarget { wire: control });
        }
        Ok(())
    }

    /// Applies a run of consecutive CNOTs as one permutation pass.
    ///
    /// Each CNOT is the basis involution `π(i) = i ⊕ (bit_c(i) << t)`; the
    /// composed circuit sends `amps[σ(i)]` to slot `i`, where `σ` chains the
    /// per-gate involutions in reverse order — one gather over the register
    /// regardless of the run length.
    fn apply_cnot_run(&mut self, pairs: &[(usize, usize)]) -> Result<()> {
        for &(c, t) in pairs {
            self.check_controlled(c, t)?;
        }
        let n = self.0.n_qubits();
        let masks: Vec<(usize, usize)> = pairs
            .iter()
            .map(|&(c, t)| (n - 1 - c, 1usize << (n - 1 - t)))
            .collect();
        let amps = self.0.amps_mut();
        let gathered: Vec<C64> = (0..amps.len())
            .map(|i| {
                let mut src = i;
                for &(cbit, tmask) in masks.iter().rev() {
                    src ^= ((src >> cbit) & 1) * tmask;
                }
                amps[src]
            })
            .collect();
        *amps = gathered;
        Ok(())
    }

    /// Applies `m` to `target` within the half-space where `control` is set.
    fn apply_controlled(&mut self, control: usize, target: usize, m: &[[C64; 2]; 2]) -> Result<()> {
        self.check_controlled(control, target)?;
        let cbit = self.bit_of_wire(control);
        let tbit = self.bit_of_wire(target);
        let m = *m;
        self.for_each_controlled_pair(cbit, tbit, |i, j, amps| {
            let a0 = amps[i];
            let a1 = amps[j];
            amps[i] = m[0][0] * a0 + m[0][1] * a1;
            amps[j] = m[1][0] * a0 + m[1][1] * a1;
        });
        Ok(())
    }

    /// Applies one CNOT as a half-space swap.
    fn apply_cnot(&mut self, control: usize, target: usize) -> Result<()> {
        self.check_controlled(control, target)?;
        let cbit = self.bit_of_wire(control);
        let tbit = self.bit_of_wire(target);
        self.for_each_controlled_pair(cbit, tbit, |i, j, amps| amps.swap(i, j));
        Ok(())
    }
}

impl Backend for FusedDenseBackend {
    const NAME: &'static str = "fused";

    fn zero_state(n_qubits: usize) -> Result<Self> {
        Ok(FusedDenseBackend(StateVector::zero_state(n_qubits)?))
    }

    fn from_statevector(state: StateVector) -> Self {
        FusedDenseBackend(state)
    }

    fn to_statevector(&self) -> StateVector {
        self.0.clone()
    }

    fn n_qubits(&self) -> usize {
        self.0.n_qubits()
    }

    fn apply_diagonal_real(&mut self, d: &[f64]) {
        self.0.apply_diagonal_real(d);
    }

    fn expectation_z(&self, wire: usize) -> Result<f64> {
        self.0.expectation_z(wire)
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        self.0.probabilities_into(out);
    }

    fn inner(&self, other: &Self) -> C64 {
        self.0.inner(&other.0)
    }

    fn apply_tape_op(&mut self, op: &TapeOp, inputs: &[f64]) -> Result<()> {
        match op {
            // A run of two or more CNOTs is one permutation pass; a single
            // CNOT takes the half-space swap, and an empty run is a no-op.
            TapeOp::CnotRun(pairs) => match pairs.as_slice() {
                [] => Ok(()),
                &[(c, t)] => self.apply_cnot(c, t),
                _ => self.apply_cnot_run(pairs),
            },
            // Controlled diagonal phases touch two amplitudes per pair with
            // one multiplication each — no 2×2 matmul needed.
            TapeOp::Phase { control, target, d } => {
                self.check_controlled(*control, *target)?;
                let cbit = self.bit_of_wire(*control);
                let tbit = self.bit_of_wire(*target);
                let d = *d;
                self.for_each_controlled_pair(cbit, tbit, |i, j, amps| {
                    amps[i] *= d[0];
                    amps[j] *= d[1];
                });
                Ok(())
            }
            TapeOp::OneQ { wire, m } => self.0.apply_single_qubit(*wire, m),
            TapeOp::Controlled { control, target, m } => {
                self.apply_controlled(*control, *target, m)
            }
            TapeOp::Late { gate, index } => {
                self.apply_tape_op(&gate.tape_op(input_angle(inputs, *index)?), inputs)
            }
        }
    }

    fn cross_matrix(&self, ket: &Self, wire: usize) -> Result<[[C64; 2]; 2]> {
        self.check_wire(wire)?;
        let stride = 1usize << self.bit_of_wire(wire);
        Ok(cross_matrix_slices(
            self.0.amplitudes(),
            ket.0.amplitudes(),
            stride,
        ))
    }
}

/// Row-major product `a · b` of two 2×2 complex matrices (gate `b` applied
/// first, then `a`): the tape compiler's single-qubit fusion step.
pub(crate) fn matmul2(a: &[[C64; 2]; 2], b: &[[C64; 2]; 2]) -> [[C64; 2]; 2] {
    [
        [
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ],
        [
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{hadamard, pauli_x, ry_matrix, rz_matrix};

    fn assert_states_close(a: &StateVector, b: &StateVector, tol: f64) {
        assert_eq!(a.dim(), b.dim());
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!(x.approx_eq(*y, tol), "{x} != {y}");
        }
    }

    /// A single CNOT as a tape op.
    pub(crate) fn cnot(control: usize, target: usize) -> TapeOp {
        TapeOp::CnotRun(vec![(control, target)])
    }

    /// A controlled 2×2 matrix as a tape op.
    pub(crate) fn controlled(control: usize, target: usize, m: [[C64; 2]; 2]) -> TapeOp {
        TapeOp::Controlled { control, target, m }
    }

    #[test]
    fn names_distinguish_backends() {
        assert_eq!(<DenseBackend as Backend>::NAME, "dense");
        assert_eq!(FusedDenseBackend::NAME, "fused");
    }

    #[test]
    fn fused_half_space_cnot_matches_dense() {
        for n in 2..=4 {
            for c in 0..n {
                for t in 0..n {
                    if c == t {
                        continue;
                    }
                    let mut dense = StateVector::zero_state(n).unwrap();
                    for w in 0..n {
                        dense
                            .apply_single_qubit(w, &ry_matrix(0.3 + w as f64))
                            .unwrap();
                    }
                    let mut fused = FusedDenseBackend::from_statevector(dense.clone());
                    dense.apply_cnot(c, t).unwrap();
                    fused.apply_tape_op(&cnot(c, t), &[]).unwrap();
                    assert_states_close(&dense, &fused.to_statevector(), 1e-15);
                }
            }
        }
    }

    #[test]
    fn fused_half_space_controlled_matches_dense() {
        let m = ry_matrix(1.1);
        for (c, t) in [(0usize, 2usize), (2, 0), (1, 2), (2, 1), (0, 1)] {
            let mut dense = StateVector::zero_state(3).unwrap();
            for w in 0..3 {
                dense.apply_single_qubit(w, &hadamard()).unwrap();
                dense
                    .apply_single_qubit(w, &rz_matrix(0.2 * w as f64))
                    .unwrap();
            }
            let mut fused = FusedDenseBackend::from_statevector(dense.clone());
            dense.apply_controlled(c, t, &m).unwrap();
            fused.apply_tape_op(&controlled(c, t, m), &[]).unwrap();
            assert_states_close(&dense, &fused.to_statevector(), 1e-15);
        }
    }

    #[test]
    fn cnot_run_is_one_permutation_pass() {
        // The 4-wire ring: CNOT(0,1), (1,2), (2,3), (3,0).
        let ring: Vec<(usize, usize)> = (0..4).map(|w| (w, (w + 1) % 4)).collect();
        let mut dense = StateVector::zero_state(4).unwrap();
        for w in 0..4 {
            dense
                .apply_single_qubit(w, &ry_matrix(0.4 + 0.3 * w as f64))
                .unwrap();
        }
        let mut fused = FusedDenseBackend::from_statevector(dense.clone());
        for &(c, t) in &ring {
            dense.apply_cnot(c, t).unwrap();
        }
        fused.apply_cnot_run(&ring).unwrap();
        // Pure permutations move amplitudes without arithmetic: exact match.
        assert_eq!(dense, fused.to_statevector());
    }

    #[test]
    fn single_qubit_fusion_composes_in_gate_order() {
        // X then H on wire 0 fused = H·X as a matrix.
        let fusedm = matmul2(&hadamard(), &pauli_x());
        let mut seq = StateVector::zero_state(1).unwrap();
        seq.apply_single_qubit(0, &pauli_x()).unwrap();
        seq.apply_single_qubit(0, &hadamard()).unwrap();
        let mut one = StateVector::zero_state(1).unwrap();
        one.apply_single_qubit(0, &fusedm).unwrap();
        assert_states_close(&seq, &one, 1e-15);
    }

    #[test]
    fn kernel_errors_surface_through_the_trait() {
        let mut f = FusedDenseBackend::zero_state(2).unwrap();
        assert!(f.apply_tape_op(&cnot(0, 0), &[]).is_err());
        assert!(f.apply_tape_op(&cnot(0, 5), &[]).is_err());
        assert!(f.apply_tape_op(&controlled(3, 0, pauli_x()), &[]).is_err());
        assert!(f.apply_cnot_run(&[(0, 1), (1, 1)]).is_err());
    }

    #[test]
    fn empty_cnot_run_is_a_no_op_on_every_backend() {
        fn check<B: Backend>() {
            let mut s = B::zero_state(2).unwrap();
            let m = ry_matrix(0.7);
            s.apply_tape_op(&TapeOp::OneQ { wire: 0, m }, &[]).unwrap();
            let before = s.to_statevector();
            s.apply_tape_op(&TapeOp::CnotRun(vec![]), &[]).unwrap();
            assert_eq!(s.to_statevector(), before, "{}", B::NAME);
        }
        check::<DenseBackend>();
        check::<FusedDenseBackend>();
        check::<SoaDenseBackend>();
    }
}
