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
//!   (fusing across gates and late-bound slots on *other* wires too, since
//!   disjoint single-qubit unitaries commute);
//! * consecutive CNOTs (and SWAPs, as three CNOTs) collapse into one
//!   [`TapeOp::CnotRun`] permutation;
//! * controlled phases (`CZ`, `CRZ`) become two pre-resolved **diagonal
//!   phases** per controlled pair;
//! * input-dependent embedding gates stay behind as **late-bound**
//!   [`TapeOp::Late`] slots, resolved per row at execution time.
//!
//! The tape also carries a pre-lowered **adjoint program**
//! ([`CompiledTape::adjoint_steps`]) that `crate::grad::adjoint` replays for
//! the batched backward pass. It is lowered into **blocks**: a block is a
//! maximal run of single-qubit gates between two multi-qubit ops
//! ([`AdjointBlock`]). Gates on different wires commute, so every rotation
//! on a wire is differentiated from one 2×2 cross matrix of the bra and ket
//! at the block's end: each wire's chain stores its rotations' generators
//! pre-conjugated by the later gates of the chain, plus the fused inverse of
//! the chain. Fixed multi-qubit gates between blocks are pre-inverted and
//! pre-fused into [`AdjointStep::Unapply`] segments; parametrized controlled
//! rotations stay single [`AdjointStep::Stop`]s. The forward program records
//! where the sweep needs a ket snapshot (one per block or stop), and nothing
//! fuses across those points.
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
use crate::embed::RotationAxis;
use crate::error::{QuantumError, Result};
use crate::gate::{rx_matrix, ry_matrix, Gate, Param};

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
    /// un-applied from the bra in one go.
    Unapply(Vec<TapeOp>),
    /// A maximal run of single-qubit gates holding at least one
    /// parametrized rotation, differentiated wire by wire from one 2×2
    /// cross matrix each.
    Block(AdjointBlock),
    /// A parametrized controlled rotation, differentiated on its own.
    Stop(AdjointStop),
}

/// A parametrized controlled rotation of the backward sweep: where the
/// adjoint engine takes `Im⟨bra|G|ket⟩` before un-applying the gate from the
/// bra.
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
                state.apply_tape_op(&gate.inverse_tape_op(input_angle(inputs, *index)?), inputs)
            }
        }
    }
}

/// The register execution starts from: a dimension-checked clone of
/// `initial`, or `|0…0⟩`. The tape, the gate-by-gate oracles and the noise
/// trajectories all start here, so a width mismatch is the same typed error
/// everywhere.
pub(crate) fn start_state<B: Backend>(n_qubits: usize, initial: Option<&B>) -> Result<B> {
    match initial {
        Some(s) if s.n_qubits() != n_qubits => Err(QuantumError::DimensionMismatch {
            expected: 1 << n_qubits,
            actual: s.dim(),
        }),
        Some(s) => Ok(s.clone()),
        None => B::zero_state(n_qubits),
    }
}

/// The per-row angle of input feature `index`.
pub(crate) fn input_angle(inputs: &[f64], index: usize) -> Result<f64> {
    inputs
        .get(index)
        .copied()
        .ok_or(QuantumError::InputCountMismatch {
            expected: index + 1,
            actual: inputs.len(),
        })
}

/// Where a gradient term accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GradSlot {
    /// `dL/dθ` of a trainable parameter.
    Param(usize),
    /// `dL/dx` of an input feature.
    Input(usize),
}

/// One differentiated rotation of a block: its gradient is
/// `Im Σ_ab q[a][b]·M[a][b]`, where `M` is its wire's cross matrix at the
/// end of its chain part.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GradTerm {
    pub(crate) slot: GradSlot,
    /// The generator pre-conjugated by the later gates of its chain part,
    /// `A·P·A†`.
    pub(crate) q: [[C64; 2]; 2],
}

/// A run of one wire's chain that holds no input rotation except, possibly,
/// its first gate. Every gradient term of a part is pre-conjugated at
/// compile time; only crossing an input rotation needs per-row algebra.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChainPart {
    /// Number of this part's terms in [`AdjointBlock::terms`].
    pub(crate) terms: usize,
    /// The input rotation the part starts with, resolved per row.
    pub(crate) input: Option<(Gate, usize)>,
    /// The inverse of the part's other gates.
    pub(crate) inv: [[C64; 2]; 2],
}

/// The gates one wire contributes to a block, as consecutive
/// [`ChainPart`]s in reverse circuit order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WireChain {
    pub(crate) wire: usize,
    /// Number of this chain's parts in [`AdjointBlock::parts`].
    pub(crate) parts: usize,
    /// Number of this chain's terms over all its parts.
    pub(crate) terms: usize,
}

/// A maximal run of single-qubit gates between two multi-qubit ops, lowered
/// for the adjoint sweep.
///
/// Gates on different wires commute, so the gradient of a rotation on wire
/// `w` is `Im⟨bra|A P A†|ket⟩` with both states taken at the block's end,
/// where `P` is the rotation's Pauli generator and `A` the product of the
/// later gates of `w`'s chain. With the 2×2 cross matrix
/// `M[a][b] = Σ conj(bra[..a..])·ket[..b..]` (wire `w`'s bit set to `a` and
/// `b`, all other bits summed over), that is `Im Σ_ab (A P A†)[a][b]·M[a][b]`:
/// one register pass per wire, however many rotations its chain holds.
#[derive(Debug, Clone, PartialEq)]
pub struct AdjointBlock {
    /// One chain per wire the block touches, in wire order.
    pub(crate) chains: Vec<WireChain>,
    /// Every chain's parts, chain after chain.
    pub(crate) parts: Vec<ChainPart>,
    /// Every part's gradient terms, part after part.
    pub(crate) terms: Vec<GradTerm>,
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
    /// Forward-op indices, ascending, before which the adjoint sweep needs
    /// a ket snapshot: one per block and per controlled-rotation stop.
    snapshots: Vec<usize>,
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

    /// The pre-lowered backward sweep, in reverse circuit order. Its length
    /// counts blocks, pre-inverted fixed segments and controlled-rotation
    /// stops — not rotations: a strongly-entangling layer is one block and
    /// one segment however many wires it spans.
    #[inline]
    pub fn adjoint_steps(&self) -> &[AdjointStep] {
        &self.adjoint
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
        let mut state = start_state(self.n_qubits, initial)?;
        self.check_inputs(inputs)?;
        state.apply_tape_ops(&self.forward, inputs)?;
        Ok(state)
    }

    /// Executes the tape for one row like [`CompiledTape::execute_on`], and
    /// also returns a clone of the register at every point the adjoint
    /// sweep reads the ket, in forward order.
    pub(crate) fn execute_with_snapshots<B: Backend>(
        &self,
        inputs: &[f64],
        initial: Option<&B>,
    ) -> Result<(B, Vec<B>)> {
        self.check_inputs(inputs)?;
        let mut state = start_state(self.n_qubits, initial)?;
        let mut snapshots = Vec::with_capacity(self.snapshots.len());
        let mut done = 0;
        for &at in &self.snapshots {
            state.apply_tape_ops(&self.forward[done..at], inputs)?;
            snapshots.push(state.clone());
            done = at;
        }
        state.apply_tape_ops(&self.forward[done..], inputs)?;
        Ok((state, snapshots))
    }

    /// Checks that `inputs` covers every late-bound slot.
    fn check_inputs(&self, inputs: &[f64]) -> Result<()> {
        if inputs.len() < self.n_inputs {
            return Err(QuantumError::InputCountMismatch {
                expected: self.n_inputs,
                actual: inputs.len(),
            });
        }
        Ok(())
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

/// Incrementally lowers multi-qubit gates into a fused op list.
#[derive(Default)]
struct Lowerer {
    ops: Vec<TapeOp>,
}

impl Lowerer {
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

    /// Lowers one multi-qubit gate with its resolved angle.
    fn lower_multi(&mut self, gate: &Gate, theta: f64) {
        match *gate {
            Gate::CNOT(c, t) => self.push_cnot(c, t),
            // SWAP = CNOT(a,b)·CNOT(b,a)·CNOT(a,b) merges into the run (the
            // same three pairs in either order).
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
            // Every other gate kind reports a single-qubit matrix.
            _ => unreachable!("gate {gate:?} is not a multi-qubit gate"),
        }
    }
}

/// The angle a gate is lowered with: its trainable or fixed value, or 0 for
/// unparametrized gates. Input-bound gates are late-bound and never ask.
fn resolved_angle(gate: &Gate, params: &[f64]) -> f64 {
    match gate.param() {
        Some(Param::Train(i)) => params[i],
        Some(Param::Fixed(v)) => v,
        Some(Param::Input(_)) | None => 0.0,
    }
}

/// The wire and generator axis of a single-qubit rotation.
fn generator(gate: &Gate) -> Option<(usize, RotationAxis)> {
    match *gate {
        Gate::RX(w, _) => Some((w, RotationAxis::X)),
        Gate::RY(w, _) => Some((w, RotationAxis::Y)),
        Gate::RZ(w, _) => Some((w, RotationAxis::Z)),
        _ => None,
    }
}

/// `A·P·A†` for the Pauli `P` about `axis`, in closed form. With
/// `A = [[a, b], [c, d]]` the result is Hermitian, so only its diagonal and
/// upper-right entry are computed.
fn conjugate_pauli(m: &[[C64; 2]; 2], axis: RotationAxis) -> [[C64; 2]; 2] {
    let [[a, b], [c, d]] = *m;
    let (q00, q01, q11) = match axis {
        RotationAxis::X => (
            2.0 * (a * b.conj()).re,
            a * d.conj() + b * c.conj(),
            2.0 * (c * d.conj()).re,
        ),
        RotationAxis::Y => (
            2.0 * (a * b.conj()).im,
            C64::I * (b * c.conj() - a * d.conj()),
            2.0 * (c * d.conj()).im,
        ),
        RotationAxis::Z => (
            a.norm_sqr() - b.norm_sqr(),
            a * c.conj() - b * d.conj(),
            c.norm_sqr() - d.norm_sqr(),
        ),
    };
    [[C64::real(q00), q01], [q01.conj(), C64::real(q11)]]
}

/// The conjugate transpose of a 2×2 matrix.
fn dagger2(m: &[[C64; 2]; 2]) -> [[C64; 2]; 2] {
    [
        [m[0][0].conj(), m[1][0].conj()],
        [m[0][1].conj(), m[1][1].conj()],
    ]
}

const IDENTITY2: [[C64; 2]; 2] = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];

/// One wire's share of the block under construction, built walking the
/// circuit backwards.
struct ChainBuilder {
    /// Product of the current part's gates seen so far (the later ones).
    later: [[C64; 2]; 2],
    /// Gates in the current part, not counting an input rotation.
    gates: usize,
    /// Terms in the current part.
    part_terms: usize,
    /// Finished parts, latest first.
    parts: Vec<ChainPart>,
    /// Every term of the chain, latest first.
    terms: Vec<GradTerm>,
    /// The chain's forward ops, latest first: per part its fused matrix,
    /// then the input rotation it starts with.
    forward: Vec<TapeOp>,
}

impl Default for ChainBuilder {
    fn default() -> Self {
        ChainBuilder {
            later: IDENTITY2,
            gates: 0,
            part_terms: 0,
            parts: Vec::new(),
            terms: Vec::new(),
            forward: Vec::new(),
        }
    }
}

impl ChainBuilder {
    /// Records the gradient term of a rotation about `axis`, taken at the
    /// end of the current part.
    fn push_term(&mut self, slot: GradSlot, axis: RotationAxis) {
        let q = conjugate_pauli(&self.later, axis);
        self.terms.push(GradTerm { slot, q });
        self.part_terms += 1;
    }

    /// Adds a gate with resolved matrix `u`, earlier than every gate seen.
    fn push_gate(&mut self, u: [[C64; 2]; 2]) {
        self.later = if self.gates == 0 {
            u
        } else {
            matmul2(&self.later, &u)
        };
        self.gates += 1;
    }

    /// Closes the current part on `wire`; `input` is the late-bound
    /// rotation it starts with.
    fn close_part(&mut self, wire: usize, input: Option<(Gate, usize)>) {
        if self.gates > 0 {
            self.forward.push(TapeOp::OneQ {
                wire,
                m: self.later,
            });
        }
        if let Some((gate, index)) = input {
            self.forward.push(TapeOp::Late { gate, index });
        }
        self.parts.push(ChainPart {
            terms: self.part_terms,
            input,
            inv: dagger2(&self.later),
        });
        self.later = IDENTITY2;
        self.gates = 0;
        self.part_terms = 0;
    }
}

/// Both programs of a tape, lowered in one backward walk over the circuit.
struct Compiler {
    /// The forward program, back to front.
    forward: Lowerer,
    /// Snapshot points, counted in ops from the end of the forward program.
    snapshots_from_end: Vec<usize>,
    adjoint: Vec<AdjointStep>,
    /// The pending pre-inverted segment of the adjoint program.
    segment: Lowerer,
    chains: Vec<ChainBuilder>,
    /// Whether a block is open.
    in_block: bool,
}

impl Compiler {
    /// Moves the pending segment into the adjoint program.
    fn flush_segment(&mut self) {
        if !self.segment.ops.is_empty() {
            self.adjoint
                .push(AdjointStep::Unapply(std::mem::take(&mut self.segment.ops)));
        }
    }

    /// A parametrized controlled rotation: one adjoint stop, one forward op,
    /// and a ket snapshot right after the gate. The op is pushed unfused, so
    /// no later gate shares it; earlier gates may fuse into it, which the
    /// snapshot after it still sees correctly.
    fn push_stop(&mut self, stop: AdjointStop, forward: TapeOp) {
        self.flush_segment();
        self.adjoint.push(AdjointStep::Stop(stop));
        self.snapshots_from_end.push(self.forward.ops.len());
        self.forward.ops.push(forward);
    }

    /// Closes the open block: emits every wire's fused forward ops and
    /// either an [`AdjointStep::Block`] or, when the block differentiates
    /// nothing, its chain inverses into the pending segment.
    fn close_block(&mut self) {
        self.in_block = false;
        let mut levels = 0;
        let (mut n_chains, mut n_parts, mut n_terms) = (0, 0, 0);
        for (wire, c) in self.chains.iter_mut().enumerate() {
            if c.gates > 0 {
                c.close_part(wire, None);
            }
            if !c.parts.is_empty() {
                levels = levels.max(c.forward.len());
                n_chains += 1;
                n_parts += c.parts.len();
                n_terms += c.terms.len();
            }
        }
        if n_terms > 0 {
            self.flush_segment();
            self.snapshots_from_end.push(self.forward.ops.len());
        }
        // Forward ops level by level from the latest, wires descending, so
        // the reversed program holds the first op of every wire, then the
        // second, and so on: the decoder's embedding slots stay together
        // and so do its fused matrices.
        for level in 0..levels {
            for c in self.chains.iter().rev() {
                let pad = levels - c.forward.len();
                if level >= pad {
                    self.forward.ops.push(c.forward[level - pad].clone());
                }
            }
        }
        if n_terms == 0 {
            // Nothing to differentiate: each chain is one fixed part.
            for (wire, c) in self.chains.iter_mut().enumerate() {
                if let Some(part) = c.parts.pop() {
                    self.segment.ops.push(TapeOp::OneQ { wire, m: part.inv });
                }
                c.forward.clear();
            }
            return;
        }
        let mut block = AdjointBlock {
            chains: Vec::with_capacity(n_chains),
            parts: Vec::with_capacity(n_parts),
            terms: Vec::with_capacity(n_terms),
        };
        for (wire, c) in self.chains.iter_mut().enumerate() {
            if c.parts.is_empty() {
                continue;
            }
            block.chains.push(WireChain {
                wire,
                parts: c.parts.len(),
                terms: c.terms.len(),
            });
            block.parts.append(&mut c.parts);
            block.terms.append(&mut c.terms);
            c.forward.clear();
        }
        self.adjoint.push(AdjointStep::Block(block));
    }

    /// Lowers one gate, later than every gate still to come.
    fn lower(&mut self, gate: &Gate, params: &[f64]) {
        let param = gate.param();
        if let (Some(Param::Input(index)), Some((w, axis))) = (param, generator(gate)) {
            let c = &mut self.chains[w];
            c.push_term(GradSlot::Input(index), axis);
            c.close_part(w, Some((*gate, index)));
            self.in_block = true;
            return;
        }
        if let Some((w, u)) = gate.single_qubit_matrix(resolved_angle(gate, params)) {
            let c = &mut self.chains[w];
            if let (Some(Param::Train(index)), Some((_, axis))) = (param, generator(gate)) {
                c.push_term(GradSlot::Param(index), axis);
            }
            c.push_gate(u);
            self.in_block = true;
            return;
        }
        if self.in_block {
            self.close_block();
        }
        match param {
            Some(Param::Train(index)) => {
                let theta = params[index];
                let stop = AdjointStop::Train {
                    gate: *gate,
                    index,
                    inv: controlled_rotation_op(gate, -theta),
                };
                self.push_stop(stop, controlled_rotation_op(gate, theta));
            }
            Some(Param::Input(index)) => self.push_stop(
                AdjointStop::Input { gate: *gate, index },
                TapeOp::Late { gate: *gate, index },
            ),
            // Fixed multi-qubit gates: CNOT, CZ and SWAP are self-inverse,
            // controlled rotations invert by negating the angle.
            Some(Param::Fixed(v)) => {
                self.forward.lower_multi(gate, v);
                self.segment.lower_multi(gate, -v);
            }
            None => {
                self.forward.lower_multi(gate, 0.0);
                self.segment.lower_multi(gate, 0.0);
            }
        }
    }
}

/// Lowers `circuit` against `params` into a [`CompiledTape`] (the body of
/// [`Circuit::compile`]).
///
/// One walk over the gates in reverse builds both programs. Single-qubit
/// gates gather into per-wire chains until the next multi-qubit op closes
/// the block; the chain products are the forward program's fused matrices
/// and, inverted, the adjoint program's. Fixed multi-qubit gates lower
/// forward and, pre-inverted, into the adjoint program's pending segment.
pub(crate) fn compile(circuit: &Circuit, params: &[f64]) -> Result<CompiledTape> {
    if params.len() < circuit.n_params() {
        return Err(QuantumError::ParamCountMismatch {
            expected: circuit.n_params(),
            actual: params.len(),
        });
    }
    let mut c = Compiler {
        forward: Lowerer::default(),
        snapshots_from_end: Vec::new(),
        adjoint: Vec::new(),
        segment: Lowerer::default(),
        chains: (0..circuit.n_qubits())
            .map(|_| ChainBuilder::default())
            .collect(),
        in_block: false,
    };
    for gate in circuit.ops().iter().rev() {
        c.lower(gate, params);
    }
    if c.in_block {
        c.close_block();
    }
    c.flush_segment();

    let mut forward = c.forward.ops;
    forward.reverse();
    for op in &mut forward {
        if let TapeOp::CnotRun(pairs) = op {
            pairs.reverse();
        }
    }
    let n_forward = forward.len();
    let snapshots = c
        .snapshots_from_end
        .iter()
        .rev()
        .map(|&from_end| n_forward - from_end)
        .collect();
    Ok(CompiledTape {
        n_qubits: circuit.n_qubits(),
        n_params: circuit.n_params(),
        n_inputs: circuit.n_inputs(),
        forward,
        adjoint: c.adjoint,
        snapshots,
    })
}

/// The op of one controlled rotation at angle `theta`, on its own.
fn controlled_rotation_op(gate: &Gate, theta: f64) -> TapeOp {
    let mut lowered = Lowerer::default();
    lowered.lower_multi(gate, theta);
    lowered
        .ops
        .pop()
        .expect("a controlled rotation lowers to one op")
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

        // A late-bound slot on wire 1 does not split wire 0's run either.
        let mut c = Circuit::new(2).unwrap();
        c.rz(0, Param::Fixed(0.3)).unwrap();
        c.ry(1, Param::Input(0)).unwrap();
        c.ry(0, Param::Fixed(-1.1)).unwrap();
        let tape = c.compile(&[]).unwrap();
        assert_eq!(tape.forward_ops().len(), 2);
        let state: DenseBackend = tape.execute_on(&[0.7], None).unwrap();
        let mut reference = StateVector::zero_state(2).unwrap();
        for g in c.ops() {
            let theta = g.param().map_or(0.0, |p| p.resolve(&[], &[0.7]));
            g.apply(&mut reference, theta).unwrap();
        }
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
        let mut dense = StateVector::zero_state(2).unwrap();
        for w in 0..2 {
            dense
                .apply_single_qubit(w, &crate::gate::hadamard())
                .unwrap();
        }
        let start = FusedDenseBackend::from_statevector(dense.clone());
        let fused: FusedDenseBackend = tape.execute_on(&[], Some(&start)).unwrap();
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
    fn adjoint_program_lowers_each_layer_to_one_block_and_one_ring() {
        // Reverse circuit order: each layer's CNOT ring, inverted, then one
        // block holding the layer's 12 rotations; the first block also holds
        // the 4 embedding rotations.
        let c = paper_circuit(4, 2);
        let tape = c.compile(&vec![0.2; c.n_params()]).unwrap();
        let steps = tape.adjoint_steps();
        assert_eq!(steps.len(), 4);
        let inverted_ring = vec![(3, 0), (2, 3), (1, 2), (0, 1)];
        for (k, rotations) in [(0, 12), (2, 12 + 4)] {
            assert_eq!(
                steps[k],
                AdjointStep::Unapply(vec![TapeOp::CnotRun(inverted_ring.clone())])
            );
            let AdjointStep::Block(block) = &steps[k + 1] else {
                panic!("step {} is not a block: {:?}", k + 1, steps[k + 1]);
            };
            let wires: Vec<usize> = block.chains.iter().map(|c| c.wire).collect();
            assert_eq!(wires, vec![0, 1, 2, 3]);
            assert_eq!(block.terms.len(), rotations);
        }
        // One ket snapshot per block, each just before a CNOT ring: after
        // the 4 late-bound slots and 4 fused matrices, then after the ring
        // and the next 4 matrices.
        assert_eq!(tape.snapshots, vec![8, 8 + 1 + 4]);
    }

    #[test]
    fn blocks_without_rotations_join_the_fixed_segment() {
        // H and a fixed RY differentiate nothing: the whole circuit is one
        // pre-inverted segment and the sweep needs no snapshot.
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap();
        c.ry(1, Param::Fixed(0.4)).unwrap();
        c.cnot(0, 1).unwrap();
        c.h(1).unwrap();
        let tape = c.compile(&[]).unwrap();
        assert_eq!(tape.adjoint_steps().len(), 1);
        assert!(matches!(&tape.adjoint_steps()[0], AdjointStep::Unapply(_)));
        assert!(tape.snapshots.is_empty());
    }

    #[test]
    fn controlled_stops_keep_their_own_forward_op() {
        // The sweep reads the ket right after the trainable CRZ, so the CZ
        // behind it must not fuse into the same phase op.
        let mut c = Circuit::new(2).unwrap();
        c.crz(0, 1, Param::Train(0)).unwrap();
        c.cz(0, 1).unwrap();
        let tape = c.compile(&[0.3]).unwrap();
        assert_eq!(tape.forward_ops().len(), 2);
        assert_eq!(tape.snapshots, vec![1]);
        assert!(matches!(
            tape.adjoint_steps(),
            [AdjointStep::Unapply(_), AdjointStep::Stop(_)]
        ));
    }
}
