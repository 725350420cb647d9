//! The shared worker-budget policy of every parallel fan-out in the
//! workspace.
//!
//! All parallelism in this repository is *deterministic*: workers only ever
//! process disjoint work items (estimators, packets, sessions, GEMM row
//! chunks) whose per-item arithmetic is independent of the worker count, so
//! results are bit-identical whether a fan-out runs on 1 thread or 64.
//! [`worker_budget`] is the single knob that sizes those fan-outs:
//!
//! * by default it follows [`std::thread::available_parallelism`];
//! * setting the `VVD_WORKERS` environment variable to a positive integer
//!   overrides it, which is how CI runs the whole test suite at fixed
//!   worker counts (1 and 4) to enforce the
//!   any-worker-count-bit-identical invariant on every push.
//!
//! Cross-process serving (`vvd-net`) adds a second axis: `VVD_PROCS`
//! sizes the number of worker *processes* a coordinator spawns
//! ([`proc_budget`]), and [`per_process_worker_budget`] resolves the
//! `VVD_PROCS` × `VVD_WORKERS` interplay — an explicit `VVD_WORKERS` is
//! honoured per process, otherwise the hardware parallelism is divided
//! across the processes so a cluster does not oversubscribe the machine.
//!
//! This module is the *single* ambient-environment site for the
//! worker-budget concern (the process axis included):
//! `vvd_nn::kernels::hardware_workers` delegates here, and the
//! `ambient-env` rule of `vvd-analyze` rejects any other `VVD_WORKERS` /
//! `VVD_PROCS` read introduced elsewhere.

/// Name of the environment variable overriding the worker budget.
pub const WORKERS_ENV: &str = "VVD_WORKERS";

/// Name of the environment variable sizing cross-process serve clusters
/// (`vvd-net`): the number of worker *processes* a coordinator spawns.
pub const PROCS_ENV: &str = "VVD_PROCS";

/// Name of the environment variable enabling periodic serve-session
/// checkpoints: a positive integer is the checkpoint interval in engine
/// ticks.  Unset (or non-positive/unparsable) means no ambient checkpoint
/// policy — checkpointing is opt-in, like multi-process serving.
pub const CHECKPOINT_TICKS_ENV: &str = "VVD_CHECKPOINT_TICKS";

/// `VVD_WORKERS` when explicitly set to a positive integer.
fn explicit_workers() -> Option<usize> {
    std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The number of worker threads parallel fan-outs should size themselves
/// for: `VVD_WORKERS` when set to a positive integer, the available
/// hardware parallelism otherwise (1 when even that is unknown).
pub fn worker_budget() -> usize {
    explicit_workers().unwrap_or_else(hardware_parallelism)
}

/// The number of worker *processes* a cross-process serve cluster should
/// spawn: `VVD_PROCS` when set to a positive integer, 1 otherwise.
/// Multi-process serving is opt-in — a plain run stays single-process.
pub fn proc_budget() -> usize {
    match std::env::var(PROCS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => 1,
    }
}

/// The per-process thread budget of a cluster of `procs` worker processes
/// — the `VVD_PROCS` × `VVD_WORKERS` interplay resolved in one place:
///
/// * with `VVD_WORKERS` explicitly set, every process honours it verbatim
///   (CI's worker matrix pins *per-process* shard counts, processes
///   included — total threads are then `VVD_PROCS` × `VVD_WORKERS`);
/// * otherwise the hardware parallelism is divided evenly across the
///   `procs` processes (min 1 each), so a cluster never oversubscribes
///   the machine the way `procs` full [`worker_budget`]s would.
pub fn per_process_worker_budget(procs: usize) -> usize {
    match explicit_workers() {
        Some(n) => n,
        None => (hardware_parallelism() / procs.max(1)).max(1),
    }
}

/// The ambient checkpoint-interval budget of serving layers:
/// `VVD_CHECKPOINT_TICKS` when set to a positive integer (the interval in
/// engine ticks between checkpoint frames), `None` otherwise.
///
/// Like the worker budget this is an *environment policy*, so it lives in
/// this module — the single ambient-environment site the `ambient-env`
/// lint of `vvd-analyze` permits.  Serving layers treat `None` as
/// "checkpointing off": a plain run writes no frames.
pub fn checkpoint_interval() -> Option<u64> {
    std::env::var(CHECKPOINT_TICKS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&n| n >= 1)
}

fn hardware_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_at_least_one() {
        // Whatever the environment says, a budget of zero would deadlock
        // every fan-out.
        assert!(worker_budget() >= 1);
    }

    #[test]
    fn proc_budget_defaults_to_single_process() {
        // Multi-process serving is opt-in via VVD_PROCS; the test
        // environment does not set it (and must not — ambient env writes
        // would race other tests), so the default must be 1 process.
        assert!(proc_budget() >= 1);
    }

    #[test]
    fn checkpoint_interval_is_opt_in() {
        // The test environment does not set VVD_CHECKPOINT_TICKS (and must
        // not — ambient env writes would race other tests), so the default
        // policy is "no checkpointing"; when an operator *does* set it,
        // the interval is at least one tick.
        match checkpoint_interval() {
            None => {}
            Some(n) => assert!(n >= 1),
        }
    }

    #[test]
    fn per_process_budget_never_oversubscribes_to_zero() {
        for procs in [0usize, 1, 2, 64, 10_000] {
            assert!(per_process_worker_budget(procs) >= 1);
        }
        // Dividing across more processes never *increases* the per-process
        // budget.
        assert!(per_process_worker_budget(64) <= per_process_worker_budget(1));
    }
}
