//! Simulator-backend selection policy.
//!
//! The quantum substrate (`sqvae-quantum`) exposes a `Backend` trait with
//! multiple register implementations; *which* one a model's quantum layers
//! use is a training-time policy, exactly like the [`crate::Threads`]
//! row-parallelism policy that lives next door. [`BackendKind`] names the
//! available choices, parses from the `SQVAE_BACKEND` environment variable
//! and `--backend` experiment flags, and travels inside an
//! [`crate::ExecPolicy`] through [`crate::Module::set_exec_policy`] from the
//! trainer down to every quantum stage. Layers without a simulator inside
//! simply ignore it.
//!
//! Every backend computes the same quantities; selections differ only in
//! wall-clock (and, at the ~1e-15 level, in floating-point rounding, since
//! fused kernels reorder arithmetic). For a fixed selection, results are
//! fully deterministic.

use std::fmt;
use std::str::FromStr;

/// Name of the environment variable read by [`BackendKind::from_env`].
pub const BACKEND_ENV_VAR: &str = "SQVAE_BACKEND";

/// Which simulator backend the quantum layers execute on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The dense reference statevector kernels (one pass per gate).
    #[default]
    Dense,
    /// Dense amplitudes behind specialized kernels: a compiled CNOT run is
    /// one permutation pass, and controlled kernels skip the control-clear
    /// half-space.
    Fused,
    /// Structure-of-arrays dense amplitudes: split re/im `f64` planes whose
    /// branch-free unit-stride kernels autovectorize into packed FMA, with
    /// cache-blocked tape execution — the fastest choice for large
    /// registers (≥ ~10 qubits).
    Soa,
}

impl BackendKind {
    /// Reads the policy from the `SQVAE_BACKEND` environment variable:
    /// unset, empty, or `dense` → [`BackendKind::Dense`]; `fused` →
    /// [`BackendKind::Fused`]; `soa` → [`BackendKind::Soa`]. Unparseable
    /// values fall back to the default (dense) after a one-time stderr
    /// warning (see [`BackendKind::from_env_spec`]).
    pub fn from_env() -> Self {
        match std::env::var(BACKEND_ENV_VAR) {
            Ok(v) => Self::from_env_spec(&v),
            Err(_) => BackendKind::default(),
        }
    }

    /// Parses an environment-supplied spec, falling back to the default
    /// (dense) on an unparseable value — but **warning once** on stderr,
    /// naming the bad value and the accepted ones, instead of silently
    /// running a typo like `SQVAE_BACKEND=fusd` on the dense backend.
    pub fn from_env_spec(raw: &str) -> Self {
        raw.parse().unwrap_or_else(|err| {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!("warning: {BACKEND_ENV_VAR}: {err}; falling back to 'dense'");
            });
            BackendKind::default()
        })
    }

    /// Short lowercase name (`dense` / `fused` / `soa`), matching what
    /// [`FromStr`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
            BackendKind::Fused => "fused",
            BackendKind::Soa => "soa",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "" | "dense" => Ok(BackendKind::Dense),
            "fused" => Ok(BackendKind::Fused),
            "soa" => Ok(BackendKind::Soa),
            other => Err(format!(
                "invalid backend spec '{other}' (want dense, fused, or soa)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_backend_specs() {
        assert_eq!("dense".parse::<BackendKind>(), Ok(BackendKind::Dense));
        assert_eq!("".parse::<BackendKind>(), Ok(BackendKind::Dense));
        assert_eq!("fused".parse::<BackendKind>(), Ok(BackendKind::Fused));
        assert_eq!(" fused ".parse::<BackendKind>(), Ok(BackendKind::Fused));
        assert_eq!("soa".parse::<BackendKind>(), Ok(BackendKind::Soa));
        let err = "gpu".parse::<BackendKind>().unwrap_err();
        assert!(err.contains("soa"), "typo warning must list soa: {err}");
    }

    #[test]
    fn default_is_dense() {
        assert_eq!(BackendKind::default(), BackendKind::Dense);
    }

    #[test]
    fn env_spec_typo_falls_back_to_dense() {
        // The warning is emitted once on stderr; the value still resolves.
        assert_eq!(BackendKind::from_env_spec("fusd"), BackendKind::Dense);
        assert_eq!(BackendKind::from_env_spec("fused"), BackendKind::Fused);
        assert_eq!(BackendKind::from_env_spec("soa"), BackendKind::Soa);
        assert_eq!(BackendKind::from_env_spec(""), BackendKind::Dense);
    }

    #[test]
    fn names_round_trip() {
        for kind in [BackendKind::Dense, BackendKind::Fused, BackendKind::Soa] {
            assert_eq!(kind.name().parse::<BackendKind>(), Ok(kind));
            assert_eq!(format!("{kind}"), kind.name());
        }
    }
}
