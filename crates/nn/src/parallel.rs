//! Scoped-thread parallel mapping.
//!
//! Shared by the engine's [`crate::engine::BatchRunner`], the trainer's
//! evaluation/calibration passes, and the edge experiment driver. Work is
//! sharded into contiguous chunks (one scoped thread per chunk) and results
//! are re-assembled in item order, so parallel execution is exactly
//! order-equivalent to the serial map — a requirement for the engine's
//! bit-exactness guarantee and for deterministic metric averaging.

/// Number of worker threads to use for `items` units of work.
///
/// `requested == 0` means "one per available core". The result is clamped to
/// `1..=items` so callers can pass raw user input.
#[must_use]
pub fn thread_count(requested: usize, items: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let threads = if requested == 0 { hw } else { requested };
    threads.clamp(1, items.max(1))
}

/// Maps `f` over `items` on `threads` scoped workers, preserving item order.
///
/// Each worker first builds its own state with `init` (e.g. a scratch arena)
/// and reuses it across every item of its chunk. `threads == 0` selects one
/// thread per available core; `threads == 1` (or a single item) runs inline
/// without spawning.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn par_map_init<T, S, R, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let threads = thread_count(threads, items.len());
    if threads <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|chunk| {
                let (init, f) = (&init, &f);
                scope.spawn(move || {
                    let mut state = init();
                    chunk
                        .iter()
                        .map(|item| f(&mut state, item))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("parallel map worker panicked"));
        }
    });
    out
}

/// Stateless [`par_map_init`]: maps `f` over `items` in parallel, preserving
/// item order.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_init(items, threads, || (), |(), item| f(item))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..101).collect();
        for threads in [0, 1, 2, 3, 7] {
            let out = par_map(&items, threads, |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let out: Vec<u64> = par_map(&[], 4, |x: &u64| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn init_runs_once_per_worker_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let items = [1u8; 16];
        let out = par_map_init(
            &items,
            4,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0u64
            },
            |state, &x| {
                *state += u64::from(x);
                *state
            },
        );
        assert_eq!(out.len(), 16);
        // One init per spawned worker (≤ 4), not one per item.
        assert!(inits.load(Ordering::SeqCst) <= 4);
    }

    #[test]
    fn thread_count_clamps() {
        assert_eq!(thread_count(8, 3), 3);
        assert_eq!(thread_count(2, 100), 2);
        assert_eq!(thread_count(0, 0), 1);
        assert!(thread_count(0, 100) >= 1);
    }
}
