//! The one worker pool: an order-preserving fan-out over scoped
//! threads. Generation, coverage evaluation and the daemon's batches
//! all run their independent items through [`fan_out`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count a `threads` option defaults to: the machine's
/// available parallelism, or 4 when it cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Runs `work(0)`, …, `work(n − 1)` on up to `threads` workers and
/// returns the results in index order, whatever order they finished
/// in.
///
/// Workers pull indices from one shared counter, so a slow item never
/// holds up the others' queue. With one worker (`threads <= 1` or
/// `n <= 1`) every item runs inline on the calling thread, in index
/// order. A panic in `work` propagates to the caller once the other
/// workers have finished.
pub fn fan_out<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Vec<Vec<(usize, T)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|_| {
                    let mut mine = Vec::new();
                    loop {
                        // The counter only hands out indices; results
                        // travel back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, work(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
    .expect("every worker is joined inside the scope");
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in done.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots.into_iter().map(|s| s.expect("every index is claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [0, 1, 2, 4, 8] {
            let squares = fan_out(37, threads, |i| i * i);
            assert_eq!(squares, (0..37).map(|i| i * i).collect::<Vec<_>>(), "{threads}");
        }
        assert!(fan_out(0, 4, |i| i).is_empty());
    }

    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = fan_out(5, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        // One item never pays for a spawn either.
        assert_eq!(fan_out(1, 8, |_| std::thread::current().id()), [caller]);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            fan_out(8, 4, |i| if i == 5 { panic!("item five") } else { i })
        });
        let payload = caught.expect_err("the panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item five"));
    }
}
