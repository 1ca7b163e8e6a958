//! The index-ordered scoped thread map — the workspace's only
//! sanctioned home of `std::thread` (lucent-lint L3 enforces it).
//!
//! Determinism argument: workers claim indices from a shared counter,
//! so *which* thread runs an index varies run to run, but every result
//! is placed back into its slot by index and the merged vector is
//! returned in index order. Output is therefore byte-identical at any
//! thread count as long as `f(i)` depends only on `i` — which callers
//! guarantee by giving each index its own inputs (its own file, or its
//! own seeded world).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Apply `f` to `0..n` on up to `threads` workers, returning the
/// results in index order. `threads <= 1` (or `n <= 1`) runs inline on
/// the caller's thread. A panic in `f` is re-raised on the caller's
/// thread once every worker has stopped.
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Relaxed suffices: the counter only hands out distinct indices;
    // results travel back through `join`, which synchronizes.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut part = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return part;
                        }
                        part.push((i, f(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => {
                    for (i, v) in part {
                        slots[i] = Some(v);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Every index was claimed by exactly one worker and every worker was
    // joined, so all slots are filled.
    slots.into_iter().flatten().collect()
}

/// The default worker count: available hardware parallelism, 1 if
/// unknown.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order_at_any_width() {
        let serial: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            assert_eq!(map_indexed(37, threads, |i| i * i), serial, "threads={threads}");
        }
        assert_eq!(map_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn a_panicking_job_reraises_on_the_callers_thread() {
        let outcome = std::panic::catch_unwind(|| {
            map_indexed(8, 4, |i| {
                assert!(i != 5, "job {i} failed");
                i
            })
        });
        // The job's own payload arrives, not the scope's generic one.
        let payload = outcome.expect_err("the job panic must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("job 5 failed"));
    }
}
