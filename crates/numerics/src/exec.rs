//! The one parallel executor. [`map`] returns exactly
//! `items.into_iter().map(f).collect()` whatever the thread count, so
//! callers reduce its output sequentially (see [`crate::replicate`]'s
//! chunk-order merge). The thread count is
//! [`std::thread::available_parallelism`] when a call starts; on Linux it
//! honours the CPU affinity mask and cgroup quota, so `taskset -c 0` gives
//! one. [`with_threads`] overrides it on the calling thread.

use std::cell::Cell;

thread_local! {
    /// The [`with_threads`] override; 0 when unset.
    static THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Threads a [`map`] started now on this thread may use.
fn threads() -> usize {
    match THREADS.get() {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
}

/// Run `f` with every [`map`] it calls on this thread limited to exactly
/// `n` threads (at least one; never more than the items). The previous
/// setting comes back when `f` returns or unwinds.
// detlint::allow(U001): thread-count control of the thread_determinism.rs harness
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.set(self.0);
        }
    }
    let _restore = Restore(THREADS.replace(n.max(1)));
    f()
}

/// Map `f` over `items` in contiguous runs, one per thread (the caller maps
/// the first), and return the results in input order. One thread or item
/// runs inline and starts no thread. A panic in `f` resumes on the caller.
pub fn map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let workers = threads().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let run_len = items.len().div_ceil(workers);
    let mut items = items.into_iter();
    let first: Vec<T> = items.by_ref().take(run_len).collect();
    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers - 1);
        while !items.as_slice().is_empty() {
            let run: Vec<T> = items.by_ref().take(run_len).collect();
            handles.push(scope.spawn(move || run.into_iter().map(f).collect::<Vec<R>>()));
        }
        let mut out: Vec<R> = first.into_iter().map(f).collect();
        for handle in handles {
            out.extend(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn keeps_input_order_across_uneven_runs() {
        // 10 items on 3 and 4 threads: runs of 4/4/2 and 3/3/3/1.
        for n in [1, 2, 3, 4, 7] {
            let out = with_threads(n, || map((0..10u64).collect(), |i| i * i));
            assert_eq!(out, (0..10u64).map(|i| i * i).collect::<Vec<_>>(), "{n}");
        }
    }

    #[test]
    fn empty_input_and_fewer_items_than_threads() {
        let empty: Vec<u32> = with_threads(4, || map(Vec::<u32>::new(), |x| x));
        assert!(empty.is_empty());
        let few = with_threads(8, || map(vec!["a", "bb", "ccc"], str::len));
        assert_eq!(few, vec![1, 2, 3]);
    }

    #[test]
    fn worker_panic_reaches_the_caller() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_threads(3, || {
                map((0..9u32).collect(), |i| {
                    assert!(i != 7, "item {i} failed");
                    i
                })
            })
        }));
        let payload = caught.expect_err("the panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("item 7 failed"), "{message}");
    }

    #[test]
    fn one_thread_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = with_threads(1, || map(vec![(); 5], |()| std::thread::current().id()));
        assert!(ids.iter().all(|&id| id == caller));
        // With two threads the second run is on another thread.
        let ids = with_threads(2, || map(vec![(); 4], |()| std::thread::current().id()));
        assert_eq!(ids[0], caller);
        assert_ne!(ids[3], caller);
    }

    #[test]
    fn override_is_restored_after_with_threads() {
        let outer = threads();
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(1, || assert_eq!(threads(), 1));
            assert_eq!(threads(), 3);
            let _ = catch_unwind(|| with_threads(2, || panic!("unwinds through the override")));
            assert_eq!(threads(), 3);
        });
        assert_eq!(threads(), outer);
        assert_eq!(with_threads(0, threads), 1);
    }
}
