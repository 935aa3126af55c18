//! Error-strict, deterministic parallel sweep engine.
//!
//! Every "evaluate a grid of corners" loop in the workspace — the 48-corner
//! design-space exploration (Fig. 7), the PVT and mismatch Monte-Carlo
//! sweeps (Fig. 8), the held-out model-evaluation grids (Fig. 6) and the
//! calibration dataset generation (Section IV) — shares the same shape:
//! a known, index-addressable list of independent work items whose results
//! must come back **complete** and **in order**.  This module provides that
//! shape once, with three guarantees:
//!
//! 1. **Error strictness** — a failing item aborts the sweep with a
//!    [`SweepError`] naming the *lowest* failing index; results are never
//!    silently dropped.  (The historical bug this replaces: the design-space
//!    explorer used `filter_map(|p| evaluate(p).ok())`, so paper figures
//!    could quietly be computed over a subset of the design space.)
//! 2. **Determinism** — results are reassembled in item-index order from
//!    contiguous chunks, so the output is bit-identical regardless of the
//!    thread count.  For Monte-Carlo sweeps, [`stream_seed`] derives an
//!    independent RNG stream per item from a base seed, which keeps sampled
//!    results independent of how items are distributed over threads.
//! 3. **No panic swallowing** — worker panics are resumed on the caller
//!    thread instead of being converted into missing results.
//!
//! The thread count is an explicit knob everywhere (`0` = automatic); the
//! automatic count honours the `OPTIMA_SWEEP_THREADS` environment variable
//! and otherwise uses [`std::thread::available_parallelism`].

use crate::error::ModelError;
use optima_circuit::montecarlo::MismatchSample;
use optima_circuit::pvt::PvtConditions;
use optima_circuit::transient::{DischargeStimulus, TransientSimulator};
use optima_circuit::waveform::Waveform;
use optima_circuit::CircuitError;
use std::fmt;

/// Environment variable overriding the automatic sweep thread count.
pub const THREADS_ENV_VAR: &str = "OPTIMA_SWEEP_THREADS";

/// Failure of one sweep item: its index plus the underlying error.
///
/// When several items fail, the reported index is the lowest one, which is
/// also the index a single-threaded sweep would have stopped at — the error
/// is therefore deterministic regardless of the thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError<E> {
    /// Zero-based index of the failing item in the swept slice.
    pub index: usize,
    /// The error produced by that item.
    pub source: E,
}

impl<E: fmt::Display> fmt::Display for SweepError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep item {} failed: {}", self.index, self.source)
    }
}

impl<E: std::error::Error + 'static> std::error::Error for SweepError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The automatic sweep thread count: `OPTIMA_SWEEP_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(value) = std::env::var(THREADS_ENV_VAR) {
        if let Ok(parsed) = value.trim().parse::<usize>() {
            if parsed >= 1 {
                return parsed;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a user-facing thread knob: `0` means automatic.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        default_threads()
    } else {
        requested
    }
}

/// Derives an independent RNG seed for sweep item `index` from `base_seed`.
///
/// Uses the SplitMix64 finalizer, so consecutive indices yield uncorrelated
/// streams.  Seeding one RNG per item (instead of threading a single RNG
/// through the sweep) is what makes Monte-Carlo sweeps bit-identical at any
/// thread count.
///
/// Delegates to [`optima_math::seed::stream_seed`] (bit-identical to the
/// historic local implementation), so the sweep engine and the circuit-level
/// defect sampler derive their streams from the same permutation.
pub fn stream_seed(base_seed: u64, index: u64) -> u64 {
    optima_math::seed::stream_seed(base_seed, index)
}

/// Maps `f` over `items` in parallel, failing on the first (lowest-index)
/// error and returning results in item order.
///
/// `f` receives the item's index and a reference to the item; `threads = 0`
/// selects the automatic thread count.  Items are split into contiguous
/// chunks (one per worker) and reassembled by chunk order, so the result is
/// bit-identical for any thread count.  A worker that hits an error stops
/// its chunk immediately; the sweep then reports the error with the lowest
/// item index across all workers.
///
/// # Errors
///
/// Returns [`SweepError`] wrapping the first failing item's error.
///
/// # Panics
///
/// Re-raises panics from worker threads on the calling thread.
pub fn par_map_sweep<I, O, E, F>(items: &[I], threads: usize, f: F) -> Result<Vec<O>, SweepError<E>>
where
    I: Sync,
    O: Send,
    E: Send,
    F: Fn(usize, &I) -> Result<O, E> + Sync,
{
    par_map_sweep_with(items, threads, || (), |_, index, item| f(index, item))
}

/// [`par_map_sweep`] with per-worker mutable state.
///
/// `init` runs **once on each worker thread** (and once on the calling
/// thread for a serial sweep); the state it builds is handed `&mut` to
/// every invocation of `f` on that worker.  This is how per-thread scratch
/// arenas (e.g. the DNN evaluator's `KernelScratch`) are threaded through a
/// sweep without locking: each worker reuses one arena across its whole
/// contiguous chunk, so the steady state allocates nothing per item.
///
/// Chunking, ordering, error selection and panic behaviour are identical to
/// [`par_map_sweep`] — the state cannot influence which items a worker
/// sees, so determinism is preserved whenever `f`'s *result* is independent
/// of the state's history (true for pure scratch buffers).
///
/// # Errors
///
/// Returns [`SweepError`] wrapping the first failing item's error.
///
/// # Panics
///
/// Re-raises panics from worker threads on the calling thread.
pub fn par_map_sweep_with<I, O, E, S, N, F>(
    items: &[I],
    threads: usize,
    init: N,
    f: F,
) -> Result<Vec<O>, SweepError<E>>
where
    I: Sync,
    O: Send,
    E: Send,
    N: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &I) -> Result<O, E> + Sync,
{
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let threads = resolve_threads(threads).min(items.len());
    if threads == 1 {
        let mut state = init();
        let mut results = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            results
                .push(f(&mut state, index, item).map_err(|source| SweepError { index, source })?);
        }
        return Ok(results);
    }

    let chunk_size = items.len().div_ceil(threads);
    let chunk_results: Vec<Result<Vec<O>, SweepError<E>>> = std::thread::scope(|scope| {
        let f = &f;
        let init = &init;
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .enumerate()
            .map(|(chunk_index, chunk)| {
                scope.spawn(move || {
                    let base = chunk_index * chunk_size;
                    let mut state = init();
                    let mut chunk_out = Vec::with_capacity(chunk.len());
                    for (offset, item) in chunk.iter().enumerate() {
                        let index = base + offset;
                        match f(&mut state, index, item) {
                            Ok(value) => chunk_out.push(value),
                            Err(source) => return Err(SweepError { index, source }),
                        }
                    }
                    Ok(chunk_out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });

    // Chunks are in index order, so the first error seen is the one with the
    // lowest failing index — the same error a serial sweep would report.
    let mut results = Vec::with_capacity(items.len());
    for chunk in chunk_results {
        results.extend(chunk?);
    }
    Ok(results)
}

/// Maps `f` over the golden waveform of every mismatch instance of one
/// stimulus, returning the results in instance order.
///
/// The instances are integrated [`TransientSimulator::LANES`] at a time
/// ([`TransientSimulator::discharge_waveforms`]) and the lane groups are
/// spread over `threads` workers like the items of any sweep, so the result
/// is bit-identical at any thread count and each worker holds one lane
/// group's waveforms at a time.
///
/// # Errors
///
/// Returns a [`SweepError`] whose index is the lowest failing *instance*,
/// not its lane group.
///
/// # Panics
///
/// Re-raises panics from worker threads on the calling thread.
pub fn par_map_mismatch<O, F>(
    simulator: &TransientSimulator,
    stimulus: &DischargeStimulus,
    pvt: &PvtConditions,
    samples: &[MismatchSample],
    threads: usize,
    f: F,
) -> Result<Vec<O>, SweepError<ModelError>>
where
    O: Send,
    F: Fn(&Waveform) -> Result<O, CircuitError> + Sync,
{
    let groups: Vec<&[MismatchSample]> = samples.chunks(TransientSimulator::LANES).collect();
    let per_group = par_map_sweep(&groups, threads, |group_index, group| {
        let base = group_index * TransientSimulator::LANES;
        let mut out = Vec::with_capacity(group.len());
        simulator
            .discharge_waveforms(stimulus, pvt, group, |_, waveform| {
                out.push(f(waveform)?);
                Ok(())
            })
            .map_err(|err| SweepError {
                index: base + err.index,
                source: ModelError::Circuit(err.source),
            })?;
        Ok(out)
    })
    .map_err(|err| err.source)?;
    Ok(per_group.into_iter().flatten().collect())
}

/// Infallible variant of [`par_map_sweep`] for closures that cannot fail.
///
/// # Panics
///
/// Re-raises panics from worker threads on the calling thread.
pub fn par_map<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    match par_map_sweep(items, threads, |index, item| {
        Ok::<O, std::convert::Infallible>(f(index, item))
    }) {
        Ok(results) => results,
        Err(impossible) => match impossible.source {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_item_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64, 200] {
            let out = par_map_sweep(&items, threads, |_, &x| Ok::<_, String>(x * x)).unwrap();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = par_map_sweep(&[] as &[u64], 8, |_, &x| Ok::<_, String>(x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn reports_the_lowest_failing_index_regardless_of_threads() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 7, 16] {
            let err = par_map_sweep(&items, threads, |_, &x| {
                if x == 23 || x == 41 {
                    Err(format!("item {x} broke"))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            assert_eq!(err.index, 23, "threads = {threads}");
            assert_eq!(err.source, "item 23 broke");
        }
    }

    #[test]
    fn closure_receives_matching_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let out = par_map(&items, 2, |index, &item| format!("{index}:{item}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn per_worker_state_is_initialised_once_per_worker_and_reused() {
        let items: Vec<u64> = (0..40).collect();
        let expected: Vec<u64> = items.iter().map(|x| x + 1).collect();
        for threads in [1, 3, 8] {
            // Each worker's state counts how many items it processed; the
            // counts must sum to the item count (every item touched exactly
            // one worker's state) and the results stay in order.
            let touched = std::sync::atomic::AtomicUsize::new(0);
            let out = par_map_sweep_with(
                &items,
                threads,
                || 0usize,
                |state, _, &x| {
                    *state += 1;
                    touched.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Ok::<_, String>(x + 1)
                },
            )
            .unwrap();
            assert_eq!(out, expected, "threads = {threads}");
            assert_eq!(
                touched.load(std::sync::atomic::Ordering::Relaxed),
                items.len()
            );
        }
    }

    #[test]
    fn stateful_sweep_reports_the_lowest_failing_index() {
        let items: Vec<usize> = (0..32).collect();
        for threads in [1, 4, 11] {
            let err = par_map_sweep_with(&items, threads, Vec::<usize>::new, |seen, _, &x| {
                seen.push(x);
                if x % 13 == 12 {
                    Err(format!("item {x} broke"))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            assert_eq!(err.index, 12, "threads = {threads}");
        }
    }

    #[test]
    fn sweep_error_displays_index_and_source() {
        let err = SweepError {
            index: 7,
            source: "boom".to_string(),
        };
        assert_eq!(err.to_string(), "sweep item 7 failed: boom");
    }

    #[test]
    fn stream_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..1000).map(|i| stream_seed(0xf188, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "stream seeds must not collide");
        assert_eq!(stream_seed(1, 2), stream_seed(1, 2));
        assert_ne!(stream_seed(1, 2), stream_seed(2, 2));
    }

    #[test]
    fn resolve_threads_maps_zero_to_automatic() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, 4, |_, &x| {
                if x == 5 {
                    panic!("worker exploded");
                }
                x
            })
        });
        assert!(result.is_err());
    }
}
