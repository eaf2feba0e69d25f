//! Deterministic data-parallel compute pool.
//!
//! Every parallel routine in the workspace funnels through this module,
//! and all of them share one contract: **the result is bit-identical to
//! the serial execution, at any thread count**. That holds because work
//! is split into *indexed* tasks whose outputs go to disjoint,
//! index-addressed destinations — which thread happens to execute task
//! `i` never changes what task `i` computes or where it writes. Only
//! wall-clock time depends on the thread count.
//!
//! Scheduling is self-balancing: workers claim task indices from a
//! shared atomic counter, so a slow tile does not stall the rest of the
//! batch. Threads are scoped ([`std::thread::scope`]), so borrowed
//! inputs need no `'static` gymnastics and panics propagate to the
//! caller.
//!
//! Two rules keep the number of threads running at once at the worker
//! count:
//!
//! * **Caller share.** [`par_map`] and [`par_chunks_mut`] claim tasks
//!   on the calling thread too and spawn only `workers - 1` threads.
//!   The caller keeps its warm [`crate::arena`] and its thread-local
//!   instrumentation, and one thread fewer is spawned per call.
//!   [`par_fold_ordered`] is the exception: its caller folds, so it
//!   spawns `workers` producers. Every call joins the threads it
//!   spawned before it returns; each of them hands its arena's buffers
//!   on to a helper of a later call.
//! * **Nesting.** A parallel call made from inside a pool task runs
//!   inline, as a plain serial loop on that task's thread: a conv
//!   inside a generation chunk or a training round does not spawn
//!   threads of its own. Results are unchanged: they never depend on
//!   the worker count.
//!
//! The worker count comes from, in priority order:
//! 1. [`set_threads`] (programmatic override, used by tests to compare
//!    thread counts in-process),
//! 2. the `SPECTRAGAN_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! At one thread every routine degrades to a plain serial loop on the
//! calling thread — no pool, no atomics, no unsafe.

use crate::arena;
use spectragan_obs as obs;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Cached `&'static` metric handles so hot paths pay no registry
/// lookup. All recording self-gates on [`obs::enabled`]; when the
/// observability layer is off each parallel routine costs one extra
/// relaxed atomic load per *call* (not per task).
struct PoolMetrics {
    /// Tasks executed across all parallel routines.
    tasks: &'static obs::Counter,
    /// Per-task `produce` duration in [`par_fold_ordered`].
    task_ns: &'static obs::Histogram,
    /// Worker time from arrival to claiming an index (lock + window
    /// gate) in [`par_fold_ordered`].
    space_wait_ns: &'static obs::Histogram,
    /// Consumer time waiting for the next in-order output in
    /// [`par_fold_ordered`].
    fold_wait_ns: &'static obs::Histogram,
}

fn metrics() -> &'static PoolMetrics {
    static M: OnceLock<PoolMetrics> = OnceLock::new();
    M.get_or_init(|| PoolMetrics {
        tasks: obs::counter("spectragan_pool_tasks_total"),
        task_ns: obs::histogram("spectragan_pool_task_ns"),
        space_wait_ns: obs::histogram("spectragan_pool_space_wait_ns"),
        fold_wait_ns: obs::histogram("spectragan_pool_fold_wait_ns"),
    })
}

/// The `SPECTRAGAN_THREADS` knob, sharing the override/env/default
/// resolution contract of [`crate::envctl`].
static THREADS: crate::envctl::EnvCtl = crate::envctl::EnvCtl::new("SPECTRAGAN_THREADS");

/// Overrides the worker count for subsequent parallel calls.
/// `Some(n)` forces `n` workers (`n >= 1`); `None` restores the
/// environment/default resolution.
///
/// Results never depend on this setting — it exists so tests and
/// benchmarks can sweep thread counts within one process.
pub fn set_threads(n: Option<usize>) {
    if let Some(n) = n {
        assert!(n >= 1, "thread count must be at least 1");
    }
    THREADS.set(n);
}

/// The worker count parallel routines will use right now: the
/// [`set_threads`] override, else `SPECTRAGAN_THREADS`, else
/// [`std::thread::available_parallelism`]. The environment/default
/// resolution is cached on first use (see [`crate::envctl`]).
pub fn threads() -> usize {
    THREADS.get(crate::envctl::parse_count, || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    /// Set while this thread runs pool tasks; parallel calls made then
    /// run inline.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Marks this thread as running pool tasks until dropped.
struct InTask(bool);

impl InTask {
    fn enter() -> Self {
        InTask(IN_TASK.with(|t| t.replace(true)))
    }
}

impl Drop for InTask {
    fn drop(&mut self) {
        IN_TASK.with(|t| t.set(self.0));
    }
}

/// Worker count for a call of `n_tasks` tasks on this thread: 1 inside
/// a pool task, else [`threads`], never more than there are tasks.
fn workers_for(n_tasks: usize) -> usize {
    if IN_TASK.with(Cell::get) {
        1
    } else {
        threads().min(n_tasks)
    }
}

/// Buffer pools of finished helper threads, each waiting for a helper
/// of a later call to adopt it.
static SPARE_POOLS: Mutex<Vec<arena::Parked>> = Mutex::new(Vec::new());

/// Runs `help` on `helpers` spawned threads while `lead` runs on the
/// calling thread, and returns `lead`'s result once every helper thread
/// has exited.
///
/// A helper starts from the [`crate::arena`] pool a finished helper
/// handed off, and hands its own pool off when done. A helper thread
/// lives for one call, but its buffers outlive it: the next call's
/// helpers reuse them instead of allocating a warm-up's worth afresh
/// and freeing it at exit. (Freeing them left the allocator's
/// per-thread heaps to grow whenever a new helper was given a fresh
/// one.) Each helper is joined explicitly, so by the time the call
/// returns its thread has exited. A helper's panic is re-raised on the
/// caller.
fn with_helpers<R>(helpers: usize, help: impl Fn() + Sync, lead: impl FnOnce() -> R) -> R {
    let helper = || {
        let spare = SPARE_POOLS.lock().unwrap_or_else(|e| e.into_inner()).pop();
        if let Some(parked) = spare {
            arena::adopt(parked);
        }
        help();
        let parked = arena::hand_off();
        if !parked.is_empty() {
            SPARE_POOLS
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(parked);
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(helper)).collect();
        let out = lead();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        out
    })
}

/// Runs `f(0..n_tasks)` across the pool and returns the results in
/// task-index order, exactly as the serial `(0..n_tasks).map(f)` would.
///
/// `f` must be safe to call concurrently; each index is claimed by
/// exactly one worker.
pub fn par_map<R, F>(n_tasks: usize, f: F) -> Vec<R>
where
    R: Send + Sync,
    F: Fn(usize) -> R + Sync,
{
    if obs::enabled() {
        metrics().tasks.inc(n_tasks as u64);
    }
    let workers = workers_for(n_tasks);
    if workers <= 1 {
        return (0..n_tasks).map(f).collect();
    }
    let slots: Vec<OnceLock<R>> = (0..n_tasks).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let _task = InTask::enter();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                break;
            }
            let _ = slots[i].set(f(i));
        }
    };
    with_helpers(workers - 1, work, work);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("each task index is claimed exactly once")
        })
        .collect()
}

/// Splits `data` into `data.len() / chunk_len` consecutive tiles and
/// runs `f(tile_index, tile)` across the pool. Tiles are disjoint and
/// index-addressed, so the final contents of `data` are independent of
/// the thread count.
///
/// # Panics
/// Panics if `chunk_len` is zero or does not divide `data.len()`.
pub fn par_chunks_mut<F>(data: &mut [f32], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    assert_eq!(
        data.len() % chunk_len,
        0,
        "chunk_len must divide the buffer length"
    );
    let n_chunks = data.len() / chunk_len;
    if obs::enabled() {
        metrics().tasks.inc(n_chunks as u64);
    }
    let workers = workers_for(n_chunks);
    if workers <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let work = || {
        let _task = InTask::enter();
        let base = &base;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                break;
            }
            // SAFETY: tile i covers i*chunk_len..(i+1)*chunk_len,
            // within bounds by construction; the atomic counter hands
            // each index to exactly one worker, so tiles never alias,
            // and the scope keeps `data` borrowed for the whole run.
            let tile =
                unsafe { std::slice::from_raw_parts_mut(base.0.add(i * chunk_len), chunk_len) };
            f(i, tile);
        }
    };
    with_helpers(workers - 1, work, work);
}

/// A raw pointer blessed for cross-thread use; sound because
/// [`par_chunks_mut`] derives only disjoint slices from it.
struct SendPtr(*mut f32);

unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Shared state of [`par_fold_ordered`]: a ring of `window` slots plus
/// the claim/fold frontiers, all under one mutex.
struct FoldState<T> {
    /// Slot `i % window` holds task `i`'s output between production and
    /// consumption. The claim gate guarantees a slot is vacated before
    /// the index `window` later can be claimed, so slots never collide.
    slots: Vec<Option<T>>,
    /// Next unclaimed task index (monotonic).
    next: usize,
    /// Number of outputs the consumer has taken from the ring; tasks
    /// `0..folded` are done from the ring's point of view.
    folded: usize,
    /// Set when a worker or the consumer panicked, so every other
    /// participant wakes up and bails instead of waiting forever.
    poisoned: bool,
}

/// Wakes everyone and marks the run poisoned if dropped while armed —
/// i.e. during a panic unwind in `produce` or `fold`. Turns would-be
/// deadlocks (peers waiting on a slot that will never fill, or on
/// window space that will never free) into a clean scope join that
/// propagates the original panic.
struct PoisonGuard<'a, T> {
    state: &'a Mutex<FoldState<T>>,
    space: &'a Condvar,
    ready: &'a Condvar,
    armed: bool,
}

impl<T> Drop for PoisonGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            // The std mutex may itself be poisoned mid-unwind; the
            // state is still coherent (no lock is held across user
            // callbacks), so recover the guard and proceed.
            let mut s = self
                .state
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            s.poisoned = true;
            drop(s);
            self.space.notify_all();
            self.ready.notify_all();
        }
    }
}

/// Runs `produce(i)` for `i in 0..n_tasks` across the pool and folds
/// every output **in task-index order on the calling thread** —
/// semantically identical to `for i in 0..n_tasks { fold(i, produce(i)) }`
/// at any thread count, including the order in which `fold` observes
/// results. Use it when the reduction is order-sensitive (bit-exact
/// accumulation) and outputs are too large to buffer all at once.
///
/// `window` bounds the number of tasks past the fold frontier that may
/// be *claimed* at any moment: a worker does not start task `i` until
/// `i < folded + window`. At most `window` outputs therefore exist
/// simultaneously (in flight or parked in the ring), independent of
/// `n_tasks` — that is the memory bound streaming callers rely on.
/// Workers block for space and the consumer blocks for the next
/// in-order output (classic bounded-buffer backpressure); a panic in
/// `produce` or `fold` wakes all parties and propagates instead of
/// deadlocking.
///
/// With one worker (or `window == 1`, which serializes anyway) this is
/// exactly the plain serial loop.
///
/// # Panics
/// Panics if `window` is zero.
pub fn par_fold_ordered<T, P, F>(n_tasks: usize, window: usize, produce: P, mut fold: F)
where
    T: Send,
    P: Fn(usize) -> T + Sync,
    F: FnMut(usize, T),
{
    assert!(window >= 1, "window must be at least 1");
    if obs::enabled() {
        metrics().tasks.inc(n_tasks as u64);
    }
    let workers = workers_for(n_tasks.min(window));
    if workers <= 1 {
        for i in 0..n_tasks {
            fold(i, produce(i));
        }
        return;
    }

    let state: Mutex<FoldState<T>> = Mutex::new(FoldState {
        slots: (0..window).map(|_| None).collect(),
        next: 0,
        folded: 0,
        poisoned: false,
    });
    let space = Condvar::new();
    let ready = Condvar::new();

    with_helpers(
        workers,
        || {
            let _task = InTask::enter();
            loop {
                // Claim the next index once it is inside the window.
                let t_claim = obs::enabled().then(Instant::now);
                let i = {
                    let mut s = state.lock().unwrap();
                    loop {
                        if s.poisoned || s.next >= n_tasks {
                            return;
                        }
                        if s.next < s.folded + window {
                            break;
                        }
                        s = space.wait(s).unwrap();
                    }
                    let i = s.next;
                    s.next += 1;
                    i
                };
                if let Some(t0) = t_claim {
                    metrics()
                        .space_wait_ns
                        .record(t0.elapsed().as_nanos() as u64);
                }
                let mut guard = PoisonGuard {
                    state: &state,
                    space: &space,
                    ready: &ready,
                    armed: true,
                };
                let t_task = obs::enabled().then(Instant::now);
                let out = produce(i);
                if let Some(t0) = t_task {
                    metrics().task_ns.record(t0.elapsed().as_nanos() as u64);
                }
                guard.armed = false;
                {
                    let mut s = state.lock().unwrap();
                    debug_assert!(
                        s.slots[i % window].is_none(),
                        "window gate must vacate a slot before reuse"
                    );
                    s.slots[i % window] = Some(out);
                }
                ready.notify_one();
            }
        },
        || {
            // Consumer: the calling thread folds in index order.
            for i in 0..n_tasks {
                let t_wait = obs::enabled().then(Instant::now);
                let item = {
                    let mut s = state.lock().unwrap();
                    loop {
                        if s.poisoned {
                            break None;
                        }
                        if let Some(v) = s.slots[i % window].take() {
                            s.folded = i + 1;
                            break Some(v);
                        }
                        s = ready.wait(s).unwrap();
                    }
                };
                if let Some(t0) = t_wait {
                    metrics()
                        .fold_wait_ns
                        .record(t0.elapsed().as_nanos() as u64);
                }
                let Some(item) = item else {
                    // A worker panicked; exit so `with_helpers` joins
                    // it and re-raises its panic.
                    break;
                };
                space.notify_all();
                let mut guard = PoisonGuard {
                    state: &state,
                    space: &space,
                    ready: &ready,
                    armed: true,
                };
                fold(i, item);
                guard.armed = false;
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that touch the global override.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn par_map_preserves_index_order() {
        let _g = LOCK.lock().unwrap();
        for t in [1, 2, 3, 8] {
            set_threads(Some(t));
            let got = par_map(17, |i| i * i);
            assert_eq!(
                got,
                (0..17).map(|i| i * i).collect::<Vec<_>>(),
                "threads={t}"
            );
        }
        set_threads(None);
    }

    /// The calling thread claims a share of the tasks, and results
    /// still come back in index order.
    #[test]
    fn par_map_caller_share_keeps_index_order() {
        let _g = LOCK.lock().unwrap();
        let caller = std::thread::current().id();
        for t in [2, 3] {
            set_threads(Some(t));
            let got = par_map(48, |i| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                (i, std::thread::current().id())
            });
            assert_eq!(
                got.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                (0..48).collect::<Vec<_>>(),
                "threads={t}"
            );
            assert!(
                got.iter().any(|(_, id)| *id == caller),
                "threads={t}: the caller ran no task"
            );
        }
        set_threads(None);
    }

    /// Counts the threads inside tracked closures at once. A thread
    /// that waits for a nested call's helpers still counts, so the
    /// peak over-reports rather than misses.
    #[derive(Default)]
    struct Busy(
        Mutex<(
            std::collections::HashMap<std::thread::ThreadId, usize>,
            usize,
        )>,
    );

    impl Busy {
        fn track<R>(&self, body: impl FnOnce() -> R) -> R {
            let id = std::thread::current().id();
            {
                let mut g = self.0.lock().unwrap();
                *g.0.entry(id).or_default() += 1;
                g.1 = g.1.max(g.0.len());
            }
            let out = body();
            let mut g = self.0.lock().unwrap();
            let depth = g.0.get_mut(&id).unwrap();
            *depth -= 1;
            if *depth == 0 {
                g.0.remove(&id);
            }
            out
        }

        fn peak(&self) -> usize {
            self.0.lock().unwrap().1
        }
    }

    /// Parallel calls nested inside a `par_map` task give the serial
    /// result, and no more than `threads()` threads run at once.
    #[test]
    fn nested_calls_are_bit_identical_and_stay_within_the_thread_count() {
        let _g = LOCK.lock().unwrap();
        let busy = Busy::default();
        let nap = || std::thread::sleep(std::time::Duration::from_micros(300));
        let task = |i: usize| -> (Vec<f32>, Vec<f32>) {
            busy.track(|| {
                let mapped = par_map(9, |j| {
                    busy.track(|| {
                        nap();
                        ((i * 31 + j) as f32).sqrt()
                    })
                });
                let mut tiles = vec![0.0f32; 40];
                par_chunks_mut(&mut tiles, 4, |j, c| {
                    busy.track(|| {
                        nap();
                        for (k, v) in c.iter_mut().enumerate() {
                            *v = ((i + j) as f32 * 0.37 + k as f32).sin();
                        }
                    })
                });
                (mapped, tiles)
            })
        };
        let bits = |r: &[(Vec<f32>, Vec<f32>)]| -> Vec<u32> {
            r.iter()
                .flat_map(|(a, b)| a.iter().chain(b))
                .map(|v| v.to_bits())
                .collect()
        };
        set_threads(Some(1));
        let serial = bits(&par_map(7, task));
        for t in [2, 3, 4] {
            set_threads(Some(t));
            *busy.0.lock().unwrap() = Default::default();
            assert_eq!(bits(&par_map(7, task)), serial, "threads={t}");
            assert!(
                busy.peak() <= t,
                "threads={t}: {} threads ran at once",
                busy.peak()
            );
        }
        set_threads(None);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(4));
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 5), vec![5]);
        set_threads(None);
    }

    #[test]
    fn par_chunks_mut_matches_serial_at_any_thread_count() {
        let _g = LOCK.lock().unwrap();
        let fill = |i: usize, chunk: &mut [f32]| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 100 + j) as f32;
            }
        };
        set_threads(Some(1));
        let mut serial = vec![0.0f32; 60];
        par_chunks_mut(&mut serial, 5, fill);
        for t in [2, 4, 7] {
            set_threads(Some(t));
            let mut parallel = vec![0.0f32; 60];
            par_chunks_mut(&mut parallel, 5, fill);
            assert_eq!(parallel, serial, "threads={t}");
        }
        set_threads(None);
    }

    #[test]
    fn override_beats_environment() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(None);
        assert!(threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "chunk_len must divide")]
    fn ragged_chunks_are_rejected() {
        let mut data = vec![0.0f32; 10];
        par_chunks_mut(&mut data, 3, |_, _| {});
    }

    #[test]
    fn fold_ordered_matches_serial_loop() {
        let _g = LOCK.lock().unwrap();
        let serial: Vec<(usize, u64)> = (0..37).map(|i| (i, (i * i) as u64)).collect();
        for t in [1, 2, 3, 8] {
            set_threads(Some(t));
            for window in [1, 2, 4, 64] {
                let mut got = Vec::new();
                par_fold_ordered(37, window, |i| (i * i) as u64, |i, v| got.push((i, v)));
                assert_eq!(got, serial, "threads={t} window={window}");
            }
        }
        set_threads(None);
    }

    #[test]
    fn fold_ordered_handles_empty_and_single() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(4));
        let mut seen = Vec::new();
        par_fold_ordered(0, 4, |i| i, |i, v| seen.push((i, v)));
        assert!(seen.is_empty());
        par_fold_ordered(1, 4, |i| i + 9, |i, v| seen.push((i, v)));
        assert_eq!(seen, vec![(0, 9)]);
        set_threads(None);
    }

    /// The claim gate keeps produced-but-unconsumed outputs bounded by
    /// the window. Outstanding is counted from `produce` entry to
    /// `fold` entry; the consumer may have taken one item out of the
    /// ring before its `fold` call decrements, hence the `+ 1`.
    #[test]
    fn fold_ordered_bounds_outstanding_outputs() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(8));
        let window = 3;
        let outstanding = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        par_fold_ordered(
            64,
            window,
            |i| {
                let now = outstanding.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                // Give other workers a chance to pile up against the gate.
                std::thread::yield_now();
                vec![i as f32; 256]
            },
            |_, buf| {
                outstanding.fetch_sub(1, Ordering::SeqCst);
                assert_eq!(buf.len(), 256);
            },
        );
        set_threads(None);
        assert!(
            peak.load(Ordering::SeqCst) <= window + 1,
            "window gate leaked: peak {} > {}",
            peak.load(Ordering::SeqCst),
            window + 1
        );
    }

    #[test]
    fn fold_ordered_worker_panic_propagates() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(4));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_fold_ordered(
                32,
                4,
                |i| {
                    if i == 5 {
                        panic!("produce failed");
                    }
                    i
                },
                |_, _| {},
            );
        }));
        set_threads(None);
        assert!(r.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn fold_ordered_consumer_panic_propagates() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(4));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_fold_ordered(
                32,
                4,
                |i| i,
                |i, _| {
                    if i == 3 {
                        panic!("fold failed");
                    }
                },
            );
        }));
        set_threads(None);
        assert!(r.is_err(), "consumer panic must reach the caller");
    }
}
