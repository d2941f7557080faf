//! Deterministic scoped worker pool for evaluation and sample generation.
//!
//! Every fan-out in this workspace — Table 2/3/4 and Fig. 10 layout
//! evaluation and MCTS sample generation — shares the same shape: a list of
//! independent jobs, each identified by its index, that must produce
//! **bit-identical results regardless of thread count**. This module
//! provides that shape once:
//!
//! * Each job's randomness comes from [`derive_seed`]`(master, index)`, never
//!   from a shared stream, so job `i` sees the same seed whether it runs
//!   first on thread 0 or last on thread 7.
//! * Results are reassembled in submission (index) order, so downstream
//!   floating-point accumulation visits them in a fixed order.
//! * Workers pull indices from a shared atomic counter (work stealing), so
//!   uneven job sizes still balance.
//!
//! The pool is built on `std::thread::scope` + `std::sync::mpsc` only — no
//! external crates — and is therefore available everywhere `std` is.
//!
//! ```
//! use oarsmt::parallel::{derive_seed, run_seeded_with};
//!
//! // Square each job's derived seed; 1 thread and 4 threads must agree.
//! let square = |_: &mut (), i: usize, seed: u64| (i, seed.wrapping_mul(seed));
//! let one = run_seeded_with(8, 42, 1, || (), square);
//! let four = run_seeded_with(8, 42, 4, || (), square);
//! assert_eq!(one, four);
//! assert_eq!(one[3].1, derive_seed(42, 3).wrapping_mul(derive_seed(42, 3)));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Environment variable consulted by [`thread_count`] when no explicit
/// thread count is given: `OARSMT_THREADS=N` caps the pool at `N` workers
/// (`0` or unset means "use all available cores").
pub const THREADS_ENV: &str = "OARSMT_THREADS";

/// Derives the seed of job `index` from a master seed.
///
/// Uses one round of SplitMix64 over `master ⊕ φ·index` (golden-ratio
/// stride), so consecutive indices land far apart even for small masters.
/// The mapping is pure: the same `(master, index)` pair always yields the
/// same seed, which is what makes thread-count-independent results possible.
///
/// ```
/// use oarsmt::parallel::derive_seed;
/// assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
/// assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
/// assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
/// ```
#[must_use]
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resolves the worker-pool size.
///
/// Priority order:
/// 1. `explicit` (e.g. a `--threads N` CLI flag), when `Some(n)` with `n > 0`;
/// 2. the [`THREADS_ENV`] environment variable, when set to a positive
///    integer;
/// 3. [`std::thread::available_parallelism`].
///
/// `Some(0)` and `OARSMT_THREADS=0` both mean "auto" and fall through to the
/// next source. The result is always at least 1.
#[must_use]
pub fn thread_count(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        if n > 0 {
            return n;
        }
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses and removes a `--threads N` / `--threads=N` flag from a CLI
/// argument list, returning the parsed count.
///
/// Returns `Ok(None)` when the flag is absent (callers then fall back to
/// [`thread_count`]`(None)`, i.e. the environment variable or all cores).
///
/// # Errors
///
/// Returns a description of the malformed flag (missing or non-numeric
/// value) suitable for printing next to a usage string.
pub fn take_threads_flag(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    let mut found = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threads" {
            if i + 1 >= args.len() {
                return Err("--threads requires a value".to_string());
            }
            let v = args.remove(i + 1);
            args.remove(i);
            found = Some(parse_threads(&v)?);
        } else if let Some(v) = args[i].strip_prefix("--threads=") {
            let n = parse_threads(v)?;
            args.remove(i);
            found = Some(n);
        } else {
            i += 1;
        }
    }
    Ok(found)
}

fn parse_threads(v: &str) -> Result<usize, String> {
    v.parse::<usize>()
        .map_err(|_| format!("--threads expects a non-negative integer, got {v:?}"))
}

/// Runs `tasks` independent jobs across `threads` workers and returns their
/// results **in index order**.
///
/// Each worker first builds private mutable state with `init` (e.g. a
/// cloned [`crate::selector::NeuralSelector`]; `|| ()` when the jobs need
/// none), and job `i` receives `(&mut state, i, derive_seed(master_seed,
/// i))`. With `threads <= 1` the jobs run inline on the calling thread;
/// either way the returned `Vec` is ordered by index, so results are
/// identical for any thread count as long as `job` itself is a pure
/// function of its index and seed.
///
/// The state must not carry information between jobs that affects results —
/// job `i` may run on any worker — so it is only suitable for caches,
/// scratch buffers, and cloned read-only models.
///
/// ```
/// use oarsmt::parallel::run_seeded_with;
/// let r = run_seeded_with(4, 9, 2, || (), |(), i, _seed| i * 10);
/// assert_eq!(r, vec![0, 10, 20, 30]);
/// ```
///
/// # Panics
///
/// Propagates panics from `init` or `job` once all workers have stopped.
pub fn run_seeded_with<St, R, I, F>(
    tasks: usize,
    master_seed: u64,
    threads: usize,
    init: I,
    job: F,
) -> Vec<R>
where
    R: Send,
    I: Fn() -> St + Sync,
    F: Fn(&mut St, usize, u64) -> R + Sync,
{
    if tasks == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(tasks);
    if threads == 1 {
        let mut state = init();
        return (0..tasks)
            .map(|i| job(&mut state, i, derive_seed(master_seed, i as u64)))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(tasks);
    slots.resize_with(tasks, || None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let init = &init;
            let job = &job;
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks {
                        break;
                    }
                    let out = job(&mut state, i, derive_seed(master_seed, i as u64));
                    if tx.send((i, out)).is_err() {
                        break; // receiver gone: shutting down
                    }
                }
            });
        }
        drop(tx);
        // Collect until every sender hangs up. If a worker panicked, the
        // scope re-raises the panic after this closure returns, so missing
        // slots never escape.
        while let Ok((i, out)) = rx.recv() {
            slots[i] = Some(out);
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every task index sends exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(0xDAC2024, i)).collect();
        let again: Vec<u64> = (0..64).map(|i| derive_seed(0xDAC2024, i)).collect();
        assert_eq!(seeds, again);
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "derived seeds must not collide");
    }

    #[test]
    fn results_come_back_in_index_order_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let r = run_seeded_with(37, 5, threads, || (), |(), i, seed| (i, seed));
            for (i, &(idx, seed)) in r.iter().enumerate() {
                assert_eq!(idx, i);
                assert_eq!(seed, derive_seed(5, i as u64));
            }
        }
    }

    #[test]
    fn per_worker_state_is_threaded_through_jobs() {
        // Each worker counts its own jobs; the counts must sum to the task
        // count even though the partition is nondeterministic.
        use std::sync::Mutex;
        let totals = Mutex::new(Vec::new());
        run_seeded_with(
            100,
            0,
            4,
            || 0usize,
            |count, _i, _s| {
                *count += 1;
                totals.lock().unwrap().push(());
            },
        );
        assert_eq!(totals.lock().unwrap().len(), 100);
    }

    #[test]
    fn zero_tasks_is_empty() {
        let r: Vec<u64> = run_seeded_with(0, 1, 8, || (), |(), _, s| s);
        assert!(r.is_empty());
    }

    #[test]
    fn explicit_thread_count_wins() {
        assert_eq!(thread_count(Some(3)), 3);
        assert!(thread_count(None) >= 1);
    }

    #[test]
    fn threads_flag_is_taken_from_args() {
        let mut args = vec![
            "--fast".to_string(),
            "--threads".to_string(),
            "4".to_string(),
        ];
        assert_eq!(take_threads_flag(&mut args), Ok(Some(4)));
        assert_eq!(args, vec!["--fast".to_string()]);

        let mut args = vec!["--threads=2".to_string()];
        assert_eq!(take_threads_flag(&mut args), Ok(Some(2)));
        assert!(args.is_empty());

        let mut args = vec!["x".to_string()];
        assert_eq!(take_threads_flag(&mut args), Ok(None));
        assert_eq!(args.len(), 1);

        let mut args = vec!["--threads".to_string()];
        assert!(take_threads_flag(&mut args).is_err());
        let mut args = vec!["--threads=abc".to_string()];
        assert!(take_threads_flag(&mut args).is_err());
    }
}
