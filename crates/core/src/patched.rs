//! Variational quantum circuits as neural-network layers, patched or not —
//! the paper's central scaling device (§III-C).
//!
//! "We partition the entire feature vector into multiple equal-sized
//! sub-vectors, and each sub-vector is fed into a quantum sub-circuit."
//! With `p` patches over a 1024-feature input, each sub-circuit
//! amplitude-embeds `1024/p` features into `log2(1024/p)` qubits and
//! measures per-wire `⟨Z⟩`, so the latent space dimension grows to
//! `LSD = p · log2(1024/p)` — 18, 32, 56, 96 for p = 2, 4, 8, 16 — instead
//! of the baseline's 10. The baseline circuit (§III-B) is the same layer
//! with one patch.
//!
//! The layer implements [`Module`], so classical and quantum stages
//! backpropagate through each other exactly as the paper's hybrid
//! architecture requires. Each pass first **compiles every patch's circuit
//! once per batch** into a [`CompiledTape`] — parameters bound, commuting
//! single-qubit gates pre-fused, CNOT runs flattened, the adjoint sweep
//! pre-inverted — and every `(row, patch)` work item then replays its
//! patch's tape, so the per-gate lowering work is paid once per patch
//! instead of once per row. Forward executes the tape; backward runs one
//! tape adjoint pass against the upstream-weighted diagonal observable.
//!
//! Work items are independent simulations, so both passes shard the
//! flattened row × patch grid across OS threads with one pool (no nesting),
//! according to the layer's [`ExecPolicy`] threads knob (default
//! [`sqvae_nn::Threads::Off`]; the trainer propagates its configured
//! policy). The shared tapes are immutable and cross shard boundaries by
//! reference. Outputs land in preallocated slots and gradients accumulate
//! per patch in fixed row order, so the parallel path is bit-identical to
//! the sequential one.
//!
//! Which simulator executes the tapes is the policy's second knob,
//! [`BackendKind`]: every work item dispatches onto the dense reference
//! register, the fused-kernel backend, or the structure-of-arrays SIMD
//! backend (`SQVAE_BACKEND`, `TrainConfig::exec`); backends agree to
//! ≤ 1e-12.

use rand::Rng;
use sqvae_nn::parallel;
use sqvae_nn::{init, BackendKind, ExecPolicy, Matrix, Module, NnError, ParamGroup, ParamTensor};
use sqvae_quantum::embed::{
    amplitude_embedding, angle_embedding_gates, qubits_for_features, RotationAxis,
};
use sqvae_quantum::grad::adjoint;
use sqvae_quantum::grad::CircuitGradients;
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::{
    Backend, Circuit, CompiledTape, FusedDenseBackend, SoaDenseBackend, StateVector,
};

/// How classical data enters each patch's circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumInput {
    /// Amplitude embedding: `in_features ≤ 2^n_qubits` values become the
    /// initial state (qubit-efficient; used by encoders). Inputs receive no
    /// gradient (they are raw data).
    Amplitude {
        /// Width of the feature vector each patch embeds.
        in_features: usize,
    },
    /// Angle embedding: one `RY(x_i)` per wire (used by decoders); inputs
    /// are differentiable.
    Angle,
}

/// What measurement each patch returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumOutput {
    /// Per-wire `⟨Z⟩` — `n_qubits` outputs in [-1, 1].
    ExpectationZ,
    /// All basis-state probabilities — `2^n_qubits` outputs summing to 1.
    Probabilities,
}

/// Latent space dimension of a patched encoder over `input_dim` features
/// with `p` patches: `p · log2(input_dim / p)`.
///
/// # Panics
///
/// Panics unless `input_dim` and `p` are powers of two with `p < input_dim`.
///
/// # Examples
///
/// ```
/// use sqvae_core::patched_latent_dim;
/// // The paper's §IV-D: LSD 18/32/56/96 for 2/4/8/16 patches on 1024.
/// assert_eq!(patched_latent_dim(1024, 2), 18);
/// assert_eq!(patched_latent_dim(1024, 4), 32);
/// assert_eq!(patched_latent_dim(1024, 8), 56);
/// assert_eq!(patched_latent_dim(1024, 16), 96);
/// ```
pub fn patched_latent_dim(input_dim: usize, p: usize) -> usize {
    assert!(
        input_dim.is_power_of_two() && p.is_power_of_two() && p < input_dim,
        "input_dim and patch count must be powers of two with p < input_dim"
    );
    let per_patch = input_dim / p;
    p * (per_patch.trailing_zeros() as usize)
}

/// A bank of `p` identical strongly-entangling circuits, each handling one
/// slice of the feature vector with its own trainable angles; outputs are
/// concatenated. One patch is the paper's unpatched baseline circuit.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sqvae_core::{PatchedQuantumLayer, QuantumInput, QuantumOutput};
/// use sqvae_nn::{Matrix, Module};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // 2 patches × (16 features → 4 qubits → 4 expectations) = 8-dim output.
/// let mut layer = PatchedQuantumLayer::amplitude_encoder(32, 2, 1, &mut rng);
/// let y = layer.forward(&Matrix::filled(3, 32, 0.5)).unwrap();
/// assert_eq!(y.shape(), (3, 8));
/// ```
#[derive(Debug, Clone)]
pub struct PatchedQuantumLayer {
    /// The one circuit structure every patch shares.
    circuit: Circuit,
    input_mode: QuantumInput,
    output_mode: QuantumOutput,
    /// One angle vector per patch.
    patches: Vec<ParamTensor>,
    exec: ExecPolicy,
    cached_input: Option<Matrix>,
}

impl PatchedQuantumLayer {
    /// Builds `p` patches of `n_layers` strongly-entangling layers on
    /// `n_qubits` wires each, with every patch's angles drawn uniformly in
    /// `[-π, π]`, patch by patch.
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero, `n_qubits` is outside the simulator's
    /// supported range, or an amplitude input's `in_features` exceeds
    /// `2^n_qubits` — all construction-time configuration bugs.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use sqvae_core::{PatchedQuantumLayer, QuantumInput, QuantumOutput};
    /// use sqvae_nn::{Matrix, Module};
    ///
    /// let mut rng = StdRng::seed_from_u64(0);
    /// // The paper's baseline encoder: 64 features → 6 qubits → 6 expectations.
    /// let mut enc = PatchedQuantumLayer::new(
    ///     1, 6, 3, QuantumInput::Amplitude { in_features: 64 },
    ///     QuantumOutput::ExpectationZ, &mut rng,
    /// );
    /// assert_eq!(enc.parameter_count(), 54); // 3 layers × 6 qubits × 3 angles
    /// let x = Matrix::filled(2, 64, 0.5);
    /// let z = enc.forward(&x).unwrap();
    /// assert_eq!(z.shape(), (2, 6));
    /// ```
    pub fn new(
        p: usize,
        n_qubits: usize,
        n_layers: usize,
        input_mode: QuantumInput,
        output_mode: QuantumOutput,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(p > 0, "a quantum layer needs at least one patch");
        let mut circuit = Circuit::new(n_qubits).expect("valid register size");
        match input_mode {
            QuantumInput::Amplitude { in_features } => assert!(
                in_features <= 1 << n_qubits,
                "amplitude embedding of {in_features} features needs {} qubits, have {n_qubits}",
                qubits_for_features(in_features)
            ),
            QuantumInput::Angle => circuit
                .extend(angle_embedding_gates(n_qubits, RotationAxis::Y, 0))
                .expect("embedding wires in range"),
        }
        circuit
            .extend(
                strongly_entangling_layers(n_qubits, n_layers, 0, EntangleRange::Ring)
                    .expect("template wires in range"),
            )
            .expect("template wires in range");
        let patches = (0..p)
            .map(|_| ParamTensor::new(init::angle_uniform(1, circuit.n_params(), rng)))
            .collect();
        PatchedQuantumLayer {
            circuit,
            input_mode,
            output_mode,
            patches,
            exec: ExecPolicy::default(),
            cached_input: None,
        }
    }

    /// An encoder bank: each patch amplitude-embeds `input_dim / p` features
    /// and measures `⟨Z⟩` per wire.
    ///
    /// # Panics
    ///
    /// Panics unless `input_dim` and `p` are powers of two with
    /// `p < input_dim` (construction-time configuration).
    pub fn amplitude_encoder(
        input_dim: usize,
        p: usize,
        n_layers: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let n_qubits = patched_latent_dim(input_dim, p) / p;
        let input = QuantumInput::Amplitude {
            in_features: input_dim / p,
        };
        let output = QuantumOutput::ExpectationZ;
        Self::new(p, n_qubits, n_layers, input, output, rng)
    }

    /// A decoder bank: each patch angle-embeds `latent_dim / p` values and
    /// measures `⟨Z⟩` per wire (the paper's scalable decoder readout).
    ///
    /// # Panics
    ///
    /// Panics unless `p` divides `latent_dim` (construction-time
    /// configuration).
    pub fn angle_decoder(latent_dim: usize, p: usize, n_layers: usize, rng: &mut impl Rng) -> Self {
        assert!(
            p > 0 && latent_dim % p == 0,
            "patch count must divide the latent dimension"
        );
        let (input, output) = (QuantumInput::Angle, QuantumOutput::ExpectationZ);
        Self::new(p, latent_dim / p, n_layers, input, output, rng)
    }

    /// Number of patches.
    pub fn n_patches(&self) -> usize {
        self.patches.len()
    }

    /// Input width of one patch.
    fn in_per_patch(&self) -> usize {
        match self.input_mode {
            QuantumInput::Amplitude { in_features } => in_features,
            QuantumInput::Angle => self.circuit.n_qubits(),
        }
    }

    /// Output width of one patch.
    fn out_per_patch(&self) -> usize {
        match self.output_mode {
            QuantumOutput::ExpectationZ => self.circuit.n_qubits(),
            QuantumOutput::Probabilities => 1 << self.circuit.n_qubits(),
        }
    }

    /// Total input width.
    pub fn in_features(&self) -> usize {
        self.in_per_patch() * self.patches.len()
    }

    /// Total output width.
    pub fn out_features(&self) -> usize {
        self.out_per_patch() * self.patches.len()
    }

    /// Builder-style variant of [`Module::set_exec_policy`].
    pub fn with_exec_policy(mut self, policy: ExecPolicy) -> Self {
        self.exec = policy;
        self
    }

    /// Lowers every patch's circuit with its **current** angles once for a
    /// batch pass. Patches share one circuit structure but carry their own
    /// angles, so each gets its own tape; all of them are shared immutably
    /// across the flattened row × patch worker pool. Backward recompiles
    /// rather than reusing forward's tapes: the optimizer may have stepped
    /// the angles in between, and compilation is cheap relative to even one
    /// row's simulation.
    fn compile_tapes(&self) -> Vec<CompiledTape> {
        self.patches
            .iter()
            .map(|params| {
                self.circuit
                    .compile(params.value.as_slice())
                    .expect("validated circuit")
            })
            .collect()
    }

    /// Splits work item `idx` into its `(row, patch)` pair.
    fn item(&self, idx: usize) -> (usize, usize) {
        let p = self.patches.len();
        (idx / p, idx % p)
    }

    /// The input columns of patch `k`.
    fn patch_cols(&self, k: usize) -> std::ops::Range<usize> {
        let w = self.in_per_patch();
        k * w..(k + 1) * w
    }

    /// The tape bindings of one patch input: angle inputs fill the
    /// late-bound slots; amplitude inputs become the embedded starting state
    /// (all-zero inputs embed `|0…0⟩` instead — zero vectors carry no
    /// information; this keeps training robust).
    fn bindings<'x, B: Backend>(&self, x: &'x [f64]) -> (&'x [f64], Option<B>) {
        match self.input_mode {
            QuantumInput::Amplitude { .. } => {
                let n = self.circuit.n_qubits();
                let state = amplitude_embedding(x, n)
                    .unwrap_or_else(|_| StateVector::zero_state(n).expect("validated register"));
                (&[], Some(B::from_statevector(state)))
            }
            QuantumInput::Angle => (x, None),
        }
    }

    /// One work item's forward simulation: replays `tape` on the configured
    /// backend and writes the patch's outputs into `slot`. Probability
    /// readout goes through [`CompiledTape::probabilities_into_on`], so the
    /// `2^n`-wide `scratch` buffer is reused across every item a worker
    /// owns.
    fn forward_item(
        &self,
        tape: &CompiledTape,
        x: &[f64],
        scratch: &mut Vec<f64>,
        slot: &mut [f64],
    ) {
        match self.exec.backend {
            BackendKind::Dense => self.forward_item_on::<StateVector>(tape, x, scratch, slot),
            BackendKind::Fused => self.forward_item_on::<FusedDenseBackend>(tape, x, scratch, slot),
            BackendKind::Soa => self.forward_item_on::<SoaDenseBackend>(tape, x, scratch, slot),
        }
    }

    fn forward_item_on<B: Backend>(
        &self,
        tape: &CompiledTape,
        x: &[f64],
        scratch: &mut Vec<f64>,
        slot: &mut [f64],
    ) {
        let (inputs, initial) = self.bindings::<B>(x);
        match self.output_mode {
            QuantumOutput::ExpectationZ => {
                let state = tape
                    .execute_on(inputs, initial.as_ref())
                    .expect("validated circuit");
                for (w, y) in slot.iter_mut().enumerate() {
                    *y = state.expectation_z(w).expect("wire in range");
                }
            }
            QuantumOutput::Probabilities => {
                tape.probabilities_into_on(inputs, initial.as_ref(), scratch)
                    .expect("validated circuit");
                slot.copy_from_slice(scratch);
            }
        }
    }

    /// One work item's adjoint backward pass over `tape`, on the configured
    /// backend.
    fn backward_item(&self, tape: &CompiledTape, x: &[f64], upstream: &[f64]) -> CircuitGradients {
        match self.exec.backend {
            BackendKind::Dense => self.backward_item_on::<StateVector>(tape, x, upstream),
            BackendKind::Fused => self.backward_item_on::<FusedDenseBackend>(tape, x, upstream),
            BackendKind::Soa => self.backward_item_on::<SoaDenseBackend>(tape, x, upstream),
        }
    }

    fn backward_item_on<B: Backend>(
        &self,
        tape: &CompiledTape,
        x: &[f64],
        upstream: &[f64],
    ) -> CircuitGradients {
        let (inputs, initial) = self.bindings::<B>(x);
        match self.output_mode {
            QuantumOutput::ExpectationZ => {
                adjoint::backward_expectations_z_tape(tape, inputs, initial.as_ref(), upstream)
            }
            QuantumOutput::Probabilities => {
                adjoint::backward_probabilities_tape(tape, inputs, initial.as_ref(), upstream)
            }
        }
        .expect("validated circuit")
    }
}

impl Module for PatchedQuantumLayer {
    /// Forward pass: every `(row, patch)` pair is an independent replay of
    /// its patch's tape, so the layer flattens the whole batch × patch grid
    /// into one work list and shards it with [`parallel::fill_rows`]. Item
    /// `r · p + k` owns the contiguous output block of row `r`, patch `k`,
    /// and writes it in place, so parallel execution is bit-identical to
    /// sequential.
    fn forward(&mut self, input: &Matrix) -> Result<Matrix, NnError> {
        if input.cols() != self.in_features() {
            return Err(NnError::ShapeMismatch {
                expected: (input.rows(), self.in_features()),
                actual: input.shape(),
            });
        }
        let tapes = self.compile_tapes();
        let mut out = Matrix::zeros(input.rows(), self.out_features());
        parallel::fill_rows(
            out.as_mut_slice(),
            self.out_per_patch(),
            self.exec.threads,
            Vec::new,
            |idx, scratch, slot| {
                let (r, k) = self.item(idx);
                let x = &input.row(r)[self.patch_cols(k)];
                self.forward_item(&tapes[k], x, scratch, slot);
            },
        );
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    /// Backward pass, sharded over the same `(row, patch)` work list as
    /// [`PatchedQuantumLayer::forward`]. Gradients accumulate per patch in
    /// fixed row order, preserving the bit-identical determinism guarantee.
    fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward)?;
        let rows = input.rows();
        if grad_output.rows() != rows || grad_output.cols() != self.out_features() {
            return Err(NnError::ShapeMismatch {
                expected: (rows, self.out_features()),
                actual: grad_output.shape(),
            });
        }
        let out = self.out_per_patch();
        let tapes = self.compile_tapes();
        let per_item = parallel::map_rows(rows * self.patches.len(), self.exec.threads, |idx| {
            let (r, k) = self.item(idx);
            let upstream = &grad_output.row(r)[k * out..(k + 1) * out];
            let x = &input.row(r)[self.patch_cols(k)];
            self.backward_item(&tapes[k], x, upstream)
        });
        let mut grad_input = Matrix::zeros(rows, self.in_features());
        for (idx, grads) in per_item.iter().enumerate() {
            let (r, k) = self.item(idx);
            let cols = self.patch_cols(k);
            let grad = &mut self.patches[k].grad;
            for (i, g) in grads.params.iter().enumerate() {
                grad.set(0, i, grad.get(0, i) + g);
            }
            // Input gradients exist only for the differentiable angle
            // embedding; amplitude-embedded raw data gets zeros.
            if matches!(self.input_mode, QuantumInput::Angle) {
                grad_input.row_mut(r)[cols].copy_from_slice(&grads.inputs);
            }
        }
        Ok(grad_input)
    }

    fn parameters(&mut self) -> Vec<&mut ParamTensor> {
        self.patches.iter_mut().collect()
    }

    /// Circuit angles step with the quantum optimizer.
    fn param_group(&self) -> ParamGroup {
        ParamGroup::Quantum
    }

    fn set_exec_policy(&mut self, policy: ExecPolicy) {
        self.exec = policy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqvae_nn::{Activation, ActivationKind, Linear, Sequential, Threads};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// A one-patch layer: the paper's unpatched baseline circuit.
    fn single(
        n_qubits: usize,
        n_layers: usize,
        input: QuantumInput,
        output: QuantumOutput,
    ) -> PatchedQuantumLayer {
        PatchedQuantumLayer::new(1, n_qubits, n_layers, input, output, &mut rng())
    }

    fn grads(layer: &mut PatchedQuantumLayer) -> Vec<Matrix> {
        layer.parameters().iter().map(|p| p.grad.clone()).collect()
    }

    #[test]
    fn latent_dims_match_paper() {
        assert_eq!(patched_latent_dim(1024, 2), 18);
        assert_eq!(patched_latent_dim(1024, 4), 32);
        assert_eq!(patched_latent_dim(1024, 8), 56);
        assert_eq!(patched_latent_dim(1024, 16), 96);
        // Baseline (no patching, p=1): 10 = log2(1024).
        assert_eq!(patched_latent_dim(1024, 1), 10);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn latent_dim_rejects_non_powers() {
        patched_latent_dim(1000, 2);
    }

    #[test]
    fn shapes_for_all_modes() {
        let amp = single(
            3,
            2,
            QuantumInput::Amplitude { in_features: 8 },
            QuantumOutput::ExpectationZ,
        );
        assert_eq!(amp.in_features(), 8);
        assert_eq!(amp.out_features(), 3);
        let ang = single(3, 2, QuantumInput::Angle, QuantumOutput::Probabilities);
        assert_eq!(ang.in_features(), 3);
        assert_eq!(ang.out_features(), 8);
    }

    #[test]
    fn encoder_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut enc = PatchedQuantumLayer::amplitude_encoder(64, 4, 2, &mut rng);
        assert_eq!(enc.n_patches(), 4);
        assert_eq!(enc.in_features(), 64);
        assert_eq!(enc.out_features(), 16); // 4 patches × log2(16)=4 qubits
        let y = enc.forward(&Matrix::filled(2, 64, 0.3)).unwrap();
        assert_eq!(y.shape(), (2, 16));
    }

    #[test]
    fn decoder_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut dec = PatchedQuantumLayer::angle_decoder(16, 4, 2, &mut rng);
        assert_eq!(dec.in_features(), 16);
        assert_eq!(dec.out_features(), 16);
        let y = dec.forward(&Matrix::filled(3, 16, 0.1)).unwrap();
        assert_eq!(y.shape(), (3, 16));
    }

    #[test]
    fn forward_produces_bounded_outputs() {
        let mut layer = single(
            3,
            2,
            QuantumInput::Amplitude { in_features: 8 },
            QuantumOutput::ExpectationZ,
        );
        let x = Matrix::from_fn(4, 8, |i, j| (i * 8 + j) as f64 * 0.1 + 0.1);
        let y = layer.forward(&x).unwrap();
        for &v in y.as_slice() {
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn probability_outputs_sum_to_one_per_row() {
        let mut layer = single(3, 1, QuantumInput::Angle, QuantumOutput::Probabilities);
        let x = Matrix::from_fn(3, 3, |i, j| 0.2 * (i + j) as f64);
        let y = layer.forward(&x).unwrap();
        for row in 0..3 {
            let s: f64 = y.row(row).iter().sum();
            assert!((s - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn zero_row_amplitude_input_does_not_crash() {
        let mut layer = single(
            2,
            1,
            QuantumInput::Amplitude { in_features: 4 },
            QuantumOutput::ExpectationZ,
        );
        let x = Matrix::zeros(1, 4);
        let y = layer.forward(&x).unwrap();
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        let g = layer.backward(&Matrix::filled(1, 2, 1.0)).unwrap();
        assert!(g.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn param_gradients_match_finite_differences() {
        // Loss = sum of outputs, for the baseline circuit and a two-patch
        // bank (whose second patch must get its own gradient).
        let mut rng = StdRng::seed_from_u64(8);
        let layers = [
            single(
                2,
                1,
                QuantumInput::Amplitude { in_features: 4 },
                QuantumOutput::ExpectationZ,
            ),
            PatchedQuantumLayer::amplitude_encoder(8, 2, 1, &mut rng),
        ];
        let x = Matrix::from_rows(&[
            &[0.1, 0.4, 0.2, 0.3, 0.6, 0.2, 0.1, 0.5],
            &[0.5, 0.1, 0.1, 0.3, 0.2, 0.7, 0.4, 0.1],
        ])
        .unwrap();
        for mut layer in layers {
            let x = x.columns(0, layer.in_features()).unwrap();
            let base = layer.forward(&x).unwrap().sum();
            let ones = Matrix::filled(2, layer.out_features(), 1.0);
            layer.backward(&ones).unwrap();
            let eps = 1e-6;
            for k in 0..layer.n_patches() {
                for i in 0..layer.patches[k].len() {
                    let mut pert = layer.clone();
                    let v = pert.patches[k].value.get(0, i);
                    pert.patches[k].value.set(0, i, v + eps);
                    let fd = (pert.forward(&x).unwrap().sum() - base) / eps;
                    let an = layer.patches[k].grad.get(0, i);
                    assert!((an - fd).abs() < 1e-4, "patch {k} param {i}: {an} vs {fd}");
                }
            }
        }
    }

    #[test]
    fn input_gradients_flow_through_angle_embedding() {
        let mut layer = single(2, 1, QuantumInput::Angle, QuantumOutput::ExpectationZ);
        let x = Matrix::from_rows(&[&[0.3, -0.6]]).unwrap();
        let y = layer.forward(&x).unwrap();
        let base = y.sum();
        let gin = layer.backward(&Matrix::filled(1, 2, 1.0)).unwrap();
        let eps = 1e-6;
        for c in 0..2 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut l2 = layer.clone();
            l2.cached_input = None;
            let fp = l2.forward(&xp).unwrap().sum();
            let fd = (fp - base) / eps;
            assert!((gin.get(0, c) - fd).abs() < 1e-4, "input {c}");
        }
    }

    #[test]
    fn amplitude_input_gradient_is_zero() {
        let mut layer = single(
            2,
            1,
            QuantumInput::Amplitude { in_features: 4 },
            QuantumOutput::ExpectationZ,
        );
        layer.forward(&Matrix::filled(1, 4, 0.5)).unwrap();
        let g = layer.backward(&Matrix::filled(1, 2, 1.0)).unwrap();
        assert_eq!(g.frobenius_norm(), 0.0);
    }

    #[test]
    fn patches_are_independent() {
        // Changing features of patch 1 must not affect patch 0's outputs.
        let mut rng = StdRng::seed_from_u64(3);
        let mut enc = PatchedQuantumLayer::amplitude_encoder(16, 2, 1, &mut rng);
        let mut a = Matrix::filled(1, 16, 0.5);
        let y1 = enc.forward(&a).unwrap();
        // Perturb patch 1 non-uniformly (amplitude embedding normalizes, so
        // a uniform rescale would be invisible).
        for c in 8..12 {
            a.set(0, c, 0.9);
        }
        let y2 = enc.forward(&a).unwrap();
        // Each patch embeds 8 features into 3 qubits → outputs are 3 wide.
        for c in 0..3 {
            assert!((y1.get(0, c) - y2.get(0, c)).abs() < 1e-12);
        }
        assert!((3..6).any(|c| (y1.get(0, c) - y2.get(0, c)).abs() > 1e-9));
    }

    #[test]
    fn parameter_count_scales_with_patches() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut enc = PatchedQuantumLayer::amplitude_encoder(64, 4, 3, &mut rng);
        // 4 patches × (3 layers × 4 qubits × 3) = 144.
        assert_eq!(enc.parameter_count(), 144);
    }

    #[test]
    fn paper_parameter_count() {
        // Baseline: 3 layers × 6 qubits × 3 = 54 per network; ×2 networks = 108.
        let mut enc = single(
            6,
            3,
            QuantumInput::Amplitude { in_features: 64 },
            QuantumOutput::ExpectationZ,
        );
        let mut dec = single(6, 3, QuantumInput::Angle, QuantumOutput::Probabilities);
        assert_eq!(enc.parameter_count() + dec.parameter_count(), 108);
    }

    #[test]
    fn backward_routes_gradients_to_the_right_patch() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut dec = PatchedQuantumLayer::angle_decoder(4, 2, 1, &mut rng);
        let x = Matrix::from_rows(&[&[0.2, 0.4, 0.6, 0.8]]).unwrap();
        dec.forward(&x).unwrap();
        // Upstream gradient only on patch 0's outputs.
        let mut g = Matrix::zeros(1, 4);
        g.set(0, 0, 1.0);
        g.set(0, 1, 1.0);
        let gin = dec.backward(&g).unwrap();
        // Patch 1's inputs get zero gradient.
        assert_eq!(gin.get(0, 2), 0.0);
        assert_eq!(gin.get(0, 3), 0.0);
        assert!(gin.get(0, 0).abs() + gin.get(0, 1).abs() > 1e-9);
    }

    #[test]
    fn threaded_passes_are_bit_identical_to_sequential() {
        // The baseline circuit (angle in, differentiable inputs) and a
        // two-patch amplitude bank, each at several worker counts.
        let layers = |threads: Threads| {
            let policy = ExecPolicy::default().with_threads(threads);
            [
                single(3, 2, QuantumInput::Angle, QuantumOutput::ExpectationZ)
                    .with_exec_policy(policy),
                PatchedQuantumLayer::amplitude_encoder(16, 2, 2, &mut StdRng::seed_from_u64(9))
                    .with_exec_policy(policy),
            ]
        };
        let seq: Vec<_> = layers(Threads::Off)
            .into_iter()
            .map(|mut layer| {
                let (rows, w) = (7, layer.in_features());
                let x = Matrix::from_fn(rows, w, |i, j| 0.05 * (i * w + j) as f64 - 0.2);
                let g = Matrix::from_fn(rows, layer.out_features(), |i, j| {
                    0.1 * (i + j) as f64 - 0.4
                });
                let y = layer.forward(&x).unwrap();
                let gin = layer.backward(&g).unwrap();
                (x, g, y, gin, grads(&mut layer))
            })
            .collect();
        for threads in [Threads::Fixed(1), Threads::Fixed(3), Threads::Fixed(16)] {
            for (mut par, (x, g, y, gin, pg)) in layers(threads).into_iter().zip(&seq) {
                assert_eq!(&par.forward(x).unwrap(), y, "{threads:?}");
                assert_eq!(&par.backward(g).unwrap(), gin, "{threads:?}");
                assert_eq!(&grads(&mut par), pg, "{threads:?}");
            }
        }
    }

    #[test]
    fn fused_and_soa_backends_match_dense_numerically() {
        for (input, output) in [
            (
                QuantumInput::Amplitude { in_features: 8 },
                QuantumOutput::ExpectationZ,
            ),
            (QuantumInput::Angle, QuantumOutput::Probabilities),
        ] {
            let layer_with = |backend: BackendKind| {
                single(3, 2, input, output)
                    .with_exec_policy(ExecPolicy::default().with_backend(backend))
            };
            let mut dense = layer_with(BackendKind::Dense);
            let x = Matrix::from_fn(4, dense.in_features(), |i, j| {
                0.15 * (i + 1) as f64 + 0.07 * j as f64
            });
            let yd = dense.forward(&x).unwrap();
            let g = Matrix::from_fn(4, yd.cols(), |i, j| 0.3 * (i as f64) - 0.1 * (j as f64));
            dense.backward(&g).unwrap();
            for backend in [BackendKind::Fused, BackendKind::Soa] {
                let mut other = layer_with(backend);
                let yo = other.forward(&x).unwrap();
                for (a, b) in yd.as_slice().iter().zip(yo.as_slice()) {
                    assert!((a - b).abs() < 1e-12, "{backend} forward {a} vs {b}");
                }
                other.backward(&g).unwrap();
                let (gd, go) = (&dense.patches[0].grad, &other.patches[0].grad);
                for (a, b) in gd.as_slice().iter().zip(go.as_slice()) {
                    assert!((a - b).abs() < 1e-12, "{backend} grad {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn each_patch_block_is_its_own_layer_bitwise() {
        // Guards the (row, patch) work indexing: column block k of the bank
        // output must be exactly a one-patch layer holding patch k's angles,
        // run on patch k's input slice, whatever the chunking of the
        // flattened work list.
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(12);
        let banks = [
            PatchedQuantumLayer::amplitude_encoder(32, 4, 2, &mut rng),
            PatchedQuantumLayer::angle_decoder(12, 3, 2, &mut rng),
        ];
        for bank in banks {
            let width = bank.in_features();
            let x = Matrix::from_fn(5, width, |i, j| 0.07 * (i * width + j) as f64 - 0.4);
            for threads in [Threads::Off, Threads::Fixed(3), Threads::Fixed(64)] {
                let policy = ExecPolicy::default().with_threads(threads);
                let mut bank = bank.clone().with_exec_policy(policy);
                let y = bank.forward(&x).unwrap();
                let (inw, outw) = (bank.in_per_patch(), bank.out_per_patch());
                for (k, params) in bank.patches.iter().enumerate() {
                    let mut own = PatchedQuantumLayer {
                        patches: vec![params.clone()],
                        ..bank.clone()
                    };
                    let slice = x.columns(k * inw, (k + 1) * inw).unwrap();
                    let own = own.forward(&slice).unwrap();
                    let block = y.columns(k * outw, (k + 1) * outw).unwrap();
                    assert_eq!(bits(&block), bits(&own), "{threads:?} patch {k}");
                }
            }
        }
    }

    #[test]
    fn rejects_bad_widths() {
        for mut layer in [
            single(2, 1, QuantumInput::Angle, QuantumOutput::ExpectationZ),
            PatchedQuantumLayer::amplitude_encoder(16, 2, 1, &mut rng()),
        ] {
            let (w, out) = (layer.in_features(), layer.out_features());
            assert!(layer.forward(&Matrix::zeros(1, w + 3)).is_err());
            assert!(matches!(
                layer.backward(&Matrix::zeros(1, out)),
                Err(NnError::BackwardBeforeForward)
            ));
            layer.forward(&Matrix::filled(1, w, 0.1)).unwrap();
            assert!(layer.backward(&Matrix::zeros(1, out + 1)).is_err());
            assert!(layer.backward(&Matrix::zeros(2, out)).is_err());
        }
    }

    /// The hybrid stack every hybrid model is built from: a quantum layer
    /// feeding classical ones, with no caller-set group tags.
    fn hybrid_stack() -> Sequential {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Sequential::new();
        s.push(PatchedQuantumLayer::new(
            1,
            2,
            1,
            QuantumInput::Amplitude { in_features: 4 },
            QuantumOutput::ExpectationZ,
            &mut rng,
        ));
        s.push(Linear::new(2, 3, &mut rng));
        s.push(Activation::new(ActivationKind::Tanh));
        s
    }

    #[test]
    fn modules_name_their_own_group() {
        let mut rng = rng();
        assert_eq!(
            Linear::new(2, 3, &mut rng).param_group(),
            ParamGroup::Classical
        );
        let act = Activation::new(ActivationKind::Tanh);
        assert_eq!(act.param_group(), ParamGroup::Classical);
        let q = single(2, 1, QuantumInput::Angle, QuantumOutput::ExpectationZ);
        assert_eq!(q.param_group(), ParamGroup::Quantum);
    }

    #[test]
    fn forward_chains_quantum_into_classical() {
        let mut s = hybrid_stack();
        let y = s.forward(&Matrix::filled(2, 4, 0.5)).unwrap();
        assert_eq!(y.shape(), (2, 3));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn parameter_groups_split_by_module_type_in_push_order() {
        let mut s = hybrid_stack();
        let count = |ps: Vec<&mut ParamTensor>| ps.iter().map(|p| p.len()).sum::<usize>();
        let q = count(s.parameters_of(ParamGroup::Quantum));
        let c = count(s.parameters_of(ParamGroup::Classical));
        assert_eq!(q, 6); // 1 layer × 2 qubits × 3
        assert_eq!(c, 2 * 3 + 3);
        assert_eq!(s.parameter_count(), q + c);
        // The classical group is the Linear's weight then bias, exactly as
        // `parameters()` lists them after the quantum patch.
        let all: Vec<Matrix> = s.parameters().iter().map(|p| p.value.clone()).collect();
        let classical: Vec<Matrix> = s
            .parameters_of(ParamGroup::Classical)
            .iter()
            .map(|p| p.value.clone())
            .collect();
        assert_eq!(classical, all[1..]);
    }

    #[test]
    fn backward_crosses_the_quantum_classical_boundary() {
        let mut s = hybrid_stack();
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4]]).unwrap();
        let base = s.forward(&x).unwrap().sum();
        s.backward(&Matrix::filled(1, 3, 1.0)).unwrap();
        // Quantum parameter gradient via finite differences end-to-end.
        let eps = 1e-6;
        let grads = s.parameters_of(ParamGroup::Quantum)[0]
            .grad
            .as_slice()
            .to_vec();
        assert_eq!(grads.len(), 6);
        for (k, &g) in grads.iter().enumerate() {
            let mut s2 = hybrid_stack();
            {
                let mut qp = s2.parameters_of(ParamGroup::Quantum);
                let v = qp[0].value.get(0, k);
                qp[0].value.set(0, k, v + eps);
            }
            let fd = (s2.forward(&x).unwrap().sum() - base) / eps;
            assert!((g - fd).abs() < 1e-4, "quantum param {k}: {g} vs {fd}");
        }
    }
}
