//! Shared fixtures of the equivalence suites: the random-gate strategy,
//! the ≤ 1e-12 comparison, and the gate-by-gate `StateVector` oracle every
//! tape and backend result is checked against.

use proptest::prelude::*;
use sqvae_quantum::{Circuit, Gate, Param, StateVector};

pub const TOL: f64 = 1e-12;

/// Strategy: a random gate over `n` wires referencing at most `np` trainable
/// parameters and `ni` input features, spanning every gate kind the tape
/// compiler lowers and the backends specialize (fusible single-qubit runs,
/// CNOTs/SWAPs, controlled rotations and phases, late-bound input slots).
pub fn arb_gate(n: usize, np: usize, ni: usize) -> impl Strategy<Value = Gate> {
    let wire = 0..n;
    let wire2 = 0..n;
    let param = prop_oneof![
        (-3.0..3.0f64).prop_map(Param::Fixed),
        (0..np).prop_map(Param::Train),
        (0..ni).prop_map(Param::Input),
    ];
    (wire, wire2, param, 0..12u8).prop_map(move |(w, w2, p, kind)| {
        let w2 = if w2 == w { (w + 1) % n } else { w2 };
        match kind {
            0 => Gate::Hadamard(w),
            1 => Gate::RX(w, p),
            2 => Gate::RY(w, p),
            3 => Gate::RZ(w, p),
            4 => Gate::PauliX(w),
            5 => Gate::S(w),
            6 => Gate::T(w),
            7 if n > 1 => Gate::CNOT(w, w2),
            8 if n > 1 => Gate::CRZ(w, w2, p),
            9 if n > 1 => Gate::CRY(w, w2, p),
            10 if n > 1 => Gate::CZ(w, w2),
            11 if n > 1 => Gate::SWAP(w, w2),
            _ => Gate::RY(w, p),
        }
    })
}

/// A circuit on `n` wires made of `gates`.
pub fn build_circuit(n: usize, gates: Vec<Gate>) -> Circuit {
    let mut c = Circuit::new(n).expect("valid register");
    for g in gates {
        c.push(g).expect("valid gate");
    }
    c
}

/// The gate-by-gate reference: `c` applied to `initial` (`None` =
/// `|0…0⟩`) one gate at a time on the dense `StateVector`, no tape.
pub fn gate_by_gate(
    c: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
) -> StateVector {
    let mut s = initial
        .cloned()
        .unwrap_or_else(|| StateVector::zero_state(c.n_qubits()).unwrap());
    for g in c.ops() {
        let theta = g.param().map_or(0.0, |p| p.resolve(params, inputs));
        g.apply(&mut s, theta).unwrap();
    }
    s
}

/// Element-wise `|a - b| ≤ TOL`.
pub fn assert_close(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what} length");
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() <= TOL, "{what}: {x} vs {y}");
    }
}
