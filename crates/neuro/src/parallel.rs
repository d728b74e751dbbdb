//! A persistent worker pool shared by every compute-heavy path in the
//! workspace.
//!
//! The seed implementation spawned scoped OS threads on every call, which
//! put a thread-create/join on the critical path of every convolution
//! forward. This module instead lazily spawns one long-lived pool (sized by
//! `SAFELIGHT_THREADS` or [`std::thread::available_parallelism`]) and gives
//! callers four entry points:
//!
//! * [`scoped_map`] — run one closure per item, results in item order;
//! * [`par_map`] — the same with at most `threads` tasks, each claiming
//!   the next unclaimed item until none is left;
//! * [`join_chunks`] — split `0..n` into contiguous chunks (the seed API);
//! * `map_blocks` (crate-internal) — split `0..n` into **fixed-size** blocks, so the
//!   decomposition — and therefore any floating-point reduction order built
//!   on top of it — is independent of the worker count. This is what makes
//!   conv/linear backward bit-stable across thread counts.
//!
//! # Nested use and deadlock freedom
//!
//! Tasks may themselves call into the pool (a susceptibility trial runs
//! convolutions that fan out again). A blocked submitter never just parks:
//! it first drains and executes queued jobs (*help-first* scheduling) and
//! only sleeps once the queue is empty and all of its own tasks are running
//! on other threads, so the dependency DAG always makes progress.
//!
//! # Safety
//!
//! This is the one module in the workspace that uses `unsafe`: submitted
//! jobs borrow the caller's stack frame, and their lifetime is erased to
//! `'static` so the long-lived workers can hold them. Soundness rests on a
//! single invariant, upheld by [`scoped_map`]: **it never returns (or
//! unwinds) before every job it submitted has finished running** — task
//! panics are caught, counted, and re-thrown only after the whole group has
//! completed.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// A lifetime-erased unit of work.
type Job = Box<dyn FnOnce() + Send>;

struct PoolState {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when new jobs arrive.
    available: Condvar,
}

/// The process-wide worker pool.
pub struct WorkerPool {
    state: &'static PoolState,
    workers: usize,
}

/// Returns the shared pool, spawning its workers on first use.
///
/// The worker count is `SAFELIGHT_THREADS` when set (minimum 1), otherwise
/// the machine's available parallelism.
pub fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = configured_threads();
        let state: &'static PoolState = Box::leak(Box::new(PoolState {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }));
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("safelight-worker-{i}"))
                .spawn(move || worker_loop(state))
                .expect("failed to spawn pool worker");
        }
        WorkerPool { state, workers }
    })
}

/// The worker count the pool uses (or will use): `SAFELIGHT_THREADS` when
/// set, otherwise the machine's available parallelism. Unlike
/// [`pool_size`], this never spawns the pool — use it to size defaults in
/// configuration structs.
#[must_use]
pub fn configured_threads() -> usize {
    std::env::var("SAFELIGHT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        })
        .max(1)
}

/// Number of OS worker threads in the shared pool (spawning it on first
/// use).
#[must_use]
pub fn pool_size() -> usize {
    pool().workers
}

fn worker_loop(state: &'static PoolState) {
    loop {
        let job = {
            let mut queue = state.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = state.available.wait(queue).expect("pool queue poisoned");
            }
        };
        job();
    }
}

/// Completion tracking for one `scoped_map` call.
struct TaskGroup {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl TaskGroup {
    fn new(tasks: usize) -> Self {
        Self {
            remaining: Mutex::new(tasks),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn complete_one(&self) {
        let mut remaining = self.remaining.lock().expect("task group poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().expect("task group poisoned") == 0
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().expect("task group poisoned");
        slot.get_or_insert(payload);
    }

    /// Blocks until every task in the group has completed.
    fn wait_done(&self) {
        let mut remaining = self.remaining.lock().expect("task group poisoned");
        while *remaining > 0 {
            remaining = self.done.wait(remaining).expect("task group poisoned");
        }
    }

    /// Re-throws the first captured task panic, if any.
    fn propagate_panic(&self) {
        let payload = self.panic.lock().expect("task group poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Erases a job's borrow lifetime so pool workers can hold it.
///
/// # Safety
///
/// The caller must guarantee the job runs to completion before anything it
/// borrows is dropped — i.e. the submitting frame must block until the job
/// group is done, on both the success and the panic path.
#[allow(unsafe_code)]
fn erase_job(job: Box<dyn FnOnce() + Send + '_>) -> Job {
    // SAFETY: only a lifetime parameter changes; the vtable and layout of
    // the fat pointer are identical. `scoped_map` upholds the completion
    // invariant documented above.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
}

/// Runs `work` over `items` on the shared pool, returning results in item
/// order. The calling thread participates (help-first), so this is safe to
/// use from inside another pool task.
///
/// A panic in any `work` call is re-thrown here after all items finished.
pub fn scoped_map<T, R, F>(items: Vec<T>, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        let mut items = items;
        return vec![work(items.pop().expect("one item"))];
    }

    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let group = TaskGroup::new(n);
    {
        let work = &work;
        let slots = &slots;
        let group = &group;
        let jobs: Vec<Job> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                erase_job(Box::new(move || {
                    match catch_unwind(AssertUnwindSafe(|| work(item))) {
                        Ok(result) => {
                            *slots[i].lock().expect("result slot poisoned") = Some(result);
                        }
                        Err(payload) => group.record_panic(payload),
                    }
                    group.complete_one();
                }))
            })
            .collect();

        let pool = pool();
        {
            let mut queue = pool.state.queue.lock().expect("pool queue poisoned");
            queue.extend(jobs);
        }
        pool.state.available.notify_all();

        // Help-first wait: run queued jobs (ours or anyone's) until our
        // group completes; sleep only when the queue is empty.
        loop {
            if group.is_done() {
                break;
            }
            let job = pool
                .state
                .queue
                .lock()
                .expect("pool queue poisoned")
                .pop_front();
            match job {
                Some(job) => job(),
                None => group.wait_done(),
            }
        }
    }
    group.propagate_panic();
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("completed task filled its slot")
        })
        .collect()
}

/// Maps `items` through `work` in item order, on the pool when
/// `threads > 1`. Drop-in replacement for the seed's per-call scoped
/// thread fan-out used by the evaluation pipelines.
///
/// `threads` bounds the concurrency like the seed API did: at most
/// `threads` pool tasks run the items, so `threads = 2` occupies at most
/// two workers however large the shared pool is. The tasks claim items
/// one at a time through a shared cursor instead of each taking a
/// contiguous chunk, so a run of expensive items spreads over every task
/// rather than landing on one. Each result is stored at its item's index,
/// so the output keeps item order whichever task ran which item.
///
/// A panic in any `work` call is re-thrown here after every item has
/// finished.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() <= 1 {
        return items.into_iter().map(work).collect();
    }
    if threads >= items.len() {
        return scoped_map(items, work);
    }
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    scoped_map(vec![(); threads], |()| {
        // Claim the next unclaimed item until none is left. Each panic is
        // caught per item, so the task goes on claiming and every item runs.
        // The cursor only hands out indices (items and results travel
        // through their mutexes), so `Relaxed` suffices.
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(input) = inputs.get(i) else { break };
            let item = input
                .lock()
                .expect("input slot poisoned")
                .take()
                .expect("every item is claimed once");
            match catch_unwind(AssertUnwindSafe(|| work(item))) {
                Ok(result) => *outputs[i].lock().expect("result slot poisoned") = Some(result),
                Err(payload) => {
                    panic
                        .lock()
                        .expect("panic slot poisoned")
                        .get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panic.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }
    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed item filled its slot")
        })
        .collect()
}

/// Splits `0..n` into at most `threads` contiguous chunks and runs `work`
/// on each chunk, on the shared pool when `threads > 1`.
///
/// `work` receives `(start, end)` half-open ranges. Results come back one
/// per chunk, in chunk order. The chunk layout depends only on `(n,
/// threads)`, never on the pool size.
pub fn join_chunks<R, F>(n: usize, threads: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return vec![work(0, n)];
    }
    let chunk = n.div_ceil(threads);
    let ranges: Vec<(usize, usize)> = (0..threads)
        .map(|t| (t * chunk, ((t + 1) * chunk).min(n)))
        .filter(|(s, e)| s < e)
        .collect();
    scoped_map(ranges, |(s, e)| work(s, e))
}

/// Splits `0..n` into fixed-size blocks of `block` items and runs `work`
/// on each, returning results in block order. `states` supplies one
/// value per block, handed to that block's `work` call by value — the
/// way a caller gives each block its own `&mut` output rows or buffers.
///
/// Because the block boundaries depend only on `(n, block)`, reducing the
/// per-block results *in order* yields a bitwise-identical floating-point
/// sum no matter how many workers the pool has — the contract conv/linear
/// backward rely on. Set `parallel = false` to run inline (still the same
/// block layout, hence the same numerics).
///
/// # Panics
///
/// Panics when `states` yields fewer values than there are blocks.
pub(crate) fn map_blocks<T, R, F>(
    n: usize,
    block: usize,
    parallel: bool,
    states: impl IntoIterator<Item = T>,
    work: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    let block = block.max(1);
    let blocks = n.div_ceil(block);
    let items: Vec<((usize, usize), T)> = (0..blocks)
        .map(|b| (b * block, ((b + 1) * block).min(n)))
        .zip(states)
        .collect();
    assert_eq!(items.len(), blocks, "map_blocks needs one state per block");
    if !parallel || items.len() <= 1 {
        return items.into_iter().map(|((s, e), t)| work(s, e, t)).collect();
    }
    scoped_map(items, |((s, e), t)| work(s, e, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_full_range_without_overlap() {
        let results = join_chunks(10, 3, |s, e| (s, e));
        let mut covered = [false; 10];
        for (s, e) in results {
            for (i, slot) in covered.iter_mut().enumerate().take(e).skip(s) {
                assert!(!*slot, "index {i} covered twice");
                *slot = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn single_thread_is_one_chunk() {
        let results = join_chunks(5, 1, |s, e| (s, e));
        assert_eq!(results, vec![(0, 5)]);
    }

    #[test]
    fn empty_range_still_calls_once() {
        let results = join_chunks(0, 4, |s, e| e - s);
        assert_eq!(results, vec![0]);
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let data: Vec<u64> = (0..1000).collect();
        let partials = join_chunks(data.len(), 4, |s, e| data[s..e].iter().sum::<u64>());
        assert_eq!(partials.into_iter().sum::<u64>(), 499_500);
    }

    #[test]
    fn scoped_map_preserves_order() {
        let out = scoped_map((0..256).collect::<Vec<i64>>(), |x| x * 3);
        assert_eq!(out, (0..256).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_map_borrows_caller_state() {
        let data: Vec<u64> = (0..10_000).collect();
        let chunks: Vec<(usize, usize)> = (0..10).map(|i| (i * 1000, (i + 1) * 1000)).collect();
        let sums = scoped_map(chunks, |(s, e)| data[s..e].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn nested_scoped_map_completes() {
        // Outer fan-out whose tasks fan out again; exercises the
        // help-first path that prevents pool self-deadlock.
        let out = scoped_map((0..8).collect::<Vec<usize>>(), |i| {
            scoped_map((0..8).collect::<Vec<usize>>(), |j| i * 8 + j)
                .into_iter()
                .sum::<usize>()
        });
        let total: usize = out.into_iter().sum();
        assert_eq!(total, (0..64).sum::<usize>());
    }

    #[test]
    fn task_panic_propagates_after_group_completes() {
        let result = std::panic::catch_unwind(|| {
            scoped_map((0..16).collect::<Vec<usize>>(), |i| {
                assert!(i != 7, "boom");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn map_blocks_layout_is_thread_count_invariant() {
        let serial = map_blocks(23, 4, false, 0.., |s, e, b| (s, e, b));
        let parallel = map_blocks(23, 4, true, 0.., |s, e, b| (s, e, b));
        assert_eq!(serial, parallel);
        assert_eq!(serial.first(), Some(&(0, 4, 0)));
        assert_eq!(serial.last(), Some(&(20, 23, 5)));
    }

    #[test]
    fn par_map_preserves_order_and_matches_serial() {
        let a = par_map((0..100).collect::<Vec<i32>>(), 1, |x| x * 2);
        let b = par_map((0..100).collect::<Vec<i32>>(), 4, |x| x * 2);
        assert_eq!(a, b);
    }

    #[test]
    fn par_map_with_a_task_per_item_matches_serial() {
        // As many tasks as items: every item gets its own pool task.
        let a = par_map(vec![3, 1, 2], 1, |x: i32| x + 1);
        let b = par_map(vec![3, 1, 2], 3, |x: i32| x + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn par_map_never_runs_more_than_threads_items_at_once() {
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        for threads in [2, 3] {
            peak.store(0, Ordering::SeqCst);
            let out = par_map((0..24).collect::<Vec<u64>>(), threads, |x| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                x + 1
            });
            assert_eq!(out, (1..25).collect::<Vec<u64>>());
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                (1..=threads).contains(&peak),
                "{peak} items in flight with threads = {threads}"
            );
        }
    }

    #[test]
    fn par_map_keeps_item_order_under_skewed_costs() {
        // The first items are by far the slowest: a task that claims one
        // of them finishes long after the others drained the rest.
        let items: Vec<u64> = (0..40).collect();
        let out = par_map(items, 3, |x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(15));
            }
            x * x
        });
        assert_eq!(out, (0..40).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_par_map_completes() {
        let out = par_map((0..6).collect::<Vec<usize>>(), 2, |i| {
            par_map((0..10).collect::<Vec<usize>>(), 2, |j| i * 10 + j)
                .into_iter()
                .sum::<usize>()
        });
        let expected: Vec<usize> = (0..6).map(|i| (0..10).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_panic_propagates_after_every_item_finished() {
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map((0..20).collect::<Vec<usize>>(), 2, |i| {
                assert!(i != 3, "boom");
                std::thread::sleep(std::time::Duration::from_millis(1));
                finished.fetch_add(1, Ordering::SeqCst);
                i
            })
        }));
        assert!(result.is_err(), "the item panic was swallowed");
        assert_eq!(finished.load(Ordering::SeqCst), 19);
    }

    #[test]
    fn pool_reports_at_least_one_worker() {
        assert!(pool_size() >= 1);
    }
}
