//! The one thread fan-out of the workspace and the worker-budget policy
//! that sizes it.
//!
//! All parallelism in this repository is *deterministic*: workers only ever
//! process disjoint work items (estimators, packets, sessions, GEMM row
//! blocks) whose per-item arithmetic is independent of the worker count, so
//! results are bit-identical whether a fan-out runs on 1 thread or 64.
//! [`fan_out`] is the only library code that spreads such work over
//! threads: it cuts a slice into contiguous chunks, runs the first chunk on
//! the calling thread and every other one on a scoped worker, returns the
//! per-chunk results in chunk order and resumes a worker's panic with the
//! worker's own payload.  [`par_map`] is its order-preserving map form.
//! (`vvd-net`'s long-lived loopback workers are a transport, not a
//! fan-out.)
//!
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
//! worker-budget concern (the process axis included): the `ambient-env`
//! rule of `vvd-analyze` rejects any other `VVD_WORKERS` / `VVD_PROCS`
//! read introduced elsewhere.

use std::iter;
use std::panic::resume_unwind;
use std::sync::OnceLock;

/// Runs `f` over contiguous chunks of `items` on up to `workers` threads
/// and returns the per-chunk results in chunk order.
///
/// `f(first_index, chunk)` receives the index of the chunk's first item
/// and the chunk itself.  `workers` is clamped to `1..=items.len()`; the
/// chunks are `items.len().div_ceil(workers)` items long (the last one
/// possibly shorter), the first runs on the calling thread and the others
/// on [`std::thread::scope`] workers, so a single chunk spawns nothing and
/// empty `items` run nothing.  Every item is in exactly one chunk; with `f`
/// pure per item, the worker count cannot change any result.
///
/// # Panics
/// A panic in `f` is resumed on the calling thread with the panicking
/// chunk's own payload, after every worker has finished.
pub fn fan_out<T, R, F>(items: &mut [T], workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let chunk_len = items.len().div_ceil(workers.clamp(1, items.len()));
    let (first, rest) = items.split_at_mut(chunk_len);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (1..)
            .zip(rest.chunks_mut(chunk_len))
            .map(|(c, chunk)| scope.spawn(move || f(c * chunk_len, chunk)))
            .collect();
        let first = f(0, first);
        let rest = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
        iter::once(first).chain(rest).collect()
    })
}

/// Maps `f(index, item)` over `items` on up to `workers` threads through
/// [`fan_out`], preserving input order.  `f` must be pure per item — with
/// that, the output is identical at every worker count.
pub fn par_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let mut refs: Vec<&T> = items.iter().collect();
    let chunks: Vec<Vec<U>> = fan_out(&mut refs, workers, |first, chunk| {
        (first..).zip(chunk).map(|(i, t)| f(i, *t)).collect()
    });
    chunks.into_iter().flatten().collect()
}

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
///
/// `VVD_WORKERS` is read on every call; the hardware count is read once.
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

/// The hardware parallelism, read once per process: on Linux
/// [`std::thread::available_parallelism`] re-reads the cgroup quota files
/// on every call, and the machine's core count does not change under a
/// running process.
fn hardware_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fan_out_visits_every_item_once_with_its_index() {
        for len in 0..=9usize {
            for workers in [0, 1, 2, 3, 4, len, len + 3] {
                let mut items = vec![(usize::MAX, 0u32); len];
                fan_out(&mut items, workers, |first, chunk| {
                    for (index, (seen, visits)) in (first..).zip(chunk) {
                        *seen = index;
                        *visits += 1;
                    }
                });
                let expected: Vec<(usize, u32)> = (0..len).map(|i| (i, 1)).collect();
                assert_eq!(items, expected, "len {len}, workers {workers}");
            }
        }
    }

    #[test]
    fn fan_out_returns_contiguous_chunks_in_order() {
        for len in 1..=9usize {
            for workers in 1..=len + 2 {
                let mut items = vec![0u8; len];
                let chunks = fan_out(&mut items, workers, |first, chunk| (first, chunk.len()));
                let expected_len = len.div_ceil(workers.min(len));
                let mut next = 0;
                for &(first, chunk_len) in &chunks {
                    assert_eq!(first, next, "len {len}, workers {workers}");
                    assert!(chunk_len == expected_len || first + chunk_len == len);
                    next += chunk_len;
                }
                assert_eq!(next, len);
                assert!(chunks.len() <= workers);
            }
        }
    }

    #[test]
    fn fan_out_clamps_workers_to_the_item_count() {
        let chunk_count = |len: usize, workers: usize| {
            let mut items = vec![0u8; len];
            fan_out(&mut items, workers, |_, _| ()).len()
        };
        for (len, workers, chunks) in [
            (0, 0, 0),
            (0, 1, 0),
            (0, 5, 0),
            (1, 0, 1),
            (1, 1, 1),
            (1, 5, 1),
            (6, 0, 1),
            (6, 1, 1),
            (6, 6, 6),
            (6, 64, 6),
        ] {
            assert_eq!(
                chunk_count(len, workers),
                chunks,
                "len {len}, workers {workers}"
            );
        }
        // Empty items never reach `f`.
        fan_out(&mut [0u8; 0], 4, |_, _| panic!("no items to visit"));
    }

    #[test]
    fn fan_out_runs_the_first_chunk_on_the_calling_thread() {
        let caller = thread::current().id();
        for workers in [1, 3] {
            let mut items = [0u8; 3];
            let ids = fan_out(&mut items, workers, |_, _| thread::current().id());
            assert_eq!(ids[0], caller);
            assert!(ids[1..].iter().all(|&id| id != caller));
        }
    }

    #[test]
    #[should_panic(expected = "item 5 is poisoned")]
    fn a_worker_panic_reaches_the_caller_with_its_own_payload() {
        // Item 5 sits in the third of four chunks: a spawned worker's.
        par_map(&[0u8; 8], 4, |i, _| {
            if i == 5 {
                panic!("item {i} is poisoned");
            }
        });
    }

    #[test]
    fn par_map_keeps_input_order_at_every_worker_count() {
        let items: Vec<u64> = (0..11).map(|i| i * i).collect();
        let expected: Vec<(usize, u64)> = (0..).zip(items.iter().map(|v| v + 1)).collect();
        for workers in 0..=13 {
            assert_eq!(par_map(&items, workers, |i, &v| (i, v + 1)), expected);
        }
        assert!(par_map(&[0u64; 0], 4, |_, &v| v).is_empty());
    }

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
