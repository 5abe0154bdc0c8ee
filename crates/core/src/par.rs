//! The one parallel fan-out every experiment matrix, spot frontier and
//! service campaign runs on.
//!
//! [`par_map`] computes `f(0) … f(n - 1)` on scoped worker threads and
//! returns the results in index order. Cells are independent and
//! results are addressed by index, so the output is the same for any
//! thread count.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Compute `f(i)` for every `i` in `0..n` on `min(threads, n)` scoped
/// worker threads (at least one when `n > 0`) and return the results in
/// index order.
///
/// Workers claim the next index from a shared counter, so one slow cell
/// never holds back the cheap cells behind it. Every cell runs on a
/// spawned worker, never on the calling thread: the caller's
/// thread-locals (quiet tracing, the reference-kernel switch) reach no
/// cell, whatever the thread count.
///
/// # Panics
/// A panic in `f` is re-raised on the calling thread with its original
/// payload once every worker has stopped.
///
/// ```
/// let squares = cws_core::par_map(5, 3, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    let mut cells: Vec<(usize, T)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1).min(n))
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices;
                        // results reach the caller through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    cells.sort_unstable_by_key(|&(i, _)| i);
    cells.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn results_come_back_in_index_order_for_any_thread_count() {
        for n in [0, 1, 5, 100] {
            for threads in [1, 2, 3, 8] {
                let calls = AtomicUsize::new(0);
                let out = par_map(n, threads, |i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i * 10
                });
                let want: Vec<usize> = (0..n).map(|i| i * 10).collect();
                assert_eq!(out, want, "n={n} threads={threads}");
                assert_eq!(calls.into_inner(), n, "each index runs exactly once");
            }
        }
    }

    #[test]
    fn zero_threads_still_runs_on_one_worker() {
        assert_eq!(par_map(4, 0, |i| i + 1), [1, 2, 3, 4]);
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let out: Vec<()> = par_map(0, 8, |_| unreachable!("no cell to run"));
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "cell 5 failed")]
    fn a_cell_panic_keeps_its_payload() {
        let _ = par_map(10, 3, |i| {
            assert!(i != 5, "cell {i} failed");
            i
        });
    }

    thread_local! {
        static CALLER_FLAG: Cell<bool> = const { Cell::new(false) };
    }

    #[test]
    fn caller_thread_locals_never_reach_a_cell() {
        CALLER_FLAG.with(|f| f.set(true));
        for threads in [1, 4] {
            let seen = par_map(16, threads, |_| CALLER_FLAG.with(Cell::get));
            assert!(
                seen.iter().all(|&s| !s),
                "threads={threads}: a cell ran on the caller"
            );
        }
        CALLER_FLAG.with(|f| f.set(false));
    }
}
