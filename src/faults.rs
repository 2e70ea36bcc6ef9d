//! Deterministic fault injection — the chaos-testing entry point.
//!
//! Re-exports [`sqvae_core::faults`] under the facade so the serving stack
//! ([`crate::serve`]), the trainer, and the checkpoint writer all consult
//! **one** global injector. The injection points:
//!
//! | Point | Where it bites | What it exercises |
//! |---|---|---|
//! | [`FaultPoint::WorkerPanic`] | top of a pool worker's batch | supervisor respawn, [`crate::serve::ServeError::WorkerGone`] fan-out |
//! | [`FaultPoint::QueueSaturation`] | [`crate::serve::InferenceServer::submit`] | [`crate::serve::ServeError::QueueFull`] backpressure + [`crate::serve::RetryPolicy`] |
//! | [`FaultPoint::CheckpointFlip`] | after a checkpoint save | checksum detection + `.bak` recovery |
//! | [`FaultPoint::CheckpointTruncate`] | after a checkpoint save | truncation detection + `.bak` recovery |
//! | [`FaultPoint::NanLoss`] | a training batch's loss | trainer non-finite guard (skipped step, LR decay, reseed) |
//!
//! Enable with [`install`] / [`FaultScope`] in tests, or set `SQVAE_FAULTS`
//! (e.g. `seed=42,worker_panic=0.25,nan_loss=0.2`, or `on` for
//! [`FaultPlan::chaos`]) and call [`install_from_env`]. With no plan
//! installed every [`trigger`] is one relaxed atomic load — the hot paths
//! pay nothing. See `tests/chaos.rs` for the full harness in action.
//!
//! Multi-worker serving adds a second axis: each pool member consults the
//! injector through [`trigger_for`] with its worker index, giving every
//! (point, worker) pair an independent deterministic stream — so a plan's
//! schedule for worker 0 never shifts when worker 1 picks up load. Add
//! `worker=N` to the plan (or [`FaultPlan::with_worker`]) to confine the
//! faults to a single pool member, e.g.
//! `seed=42,worker_panic=1.0,worker=0` kills exactly worker 0's next batch.

pub use sqvae_core::faults::{
    active, clear, install, install_from_env, stats, trigger, trigger_for, FaultPlan, FaultPoint,
    FaultScope, FaultStats, ALL_FAULT_POINTS, N_FAULT_POINTS,
};
