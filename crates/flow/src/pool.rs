//! Process-wide worker budget and scratch pooling for parallel solving.
//!
//! Two layers of parallelism want threads at once: the solve driver in
//! `dmig-core::shard` (one worker per cell shard; without `--shards` the
//! cells are the connected components) and the intra-cell quota recursion
//! in [`crate::quota_round_partition`] (one worker per Euler-split
//! subtree). If each spawned `--threads` workers independently the process
//! could run `threads²` threads. Instead both layers draw
//! [`WorkerPermit`]s from one global [`ThreadBudget`]: the calling thread
//! always works for free, and a layer may only spawn an *extra* worker
//! while it holds a permit. Whoever asks first — shards or inner subtrees
//! — wins the spare threads; a multi-component instance spends them on
//! component shards, and a single giant cell hands them to the recursion.
//!
//! The budget is a soft cap enforced at acquisition time. Races between
//! concurrent acquirers can only affect *how fast* a solve runs, never its
//! result: every parallel consumer writes into position-indexed slots, so
//! schedules are byte-identical for any permit outcome (see the
//! determinism notes on [`crate::quota_round_partition`] and
//! `DESIGN.md`).
//!
//! [`ObjectPool`] is the companion allocation amortizer: solver scratch
//! arenas (`SolveScratch`) are parked here between solves so steady-state
//! recursion levels perform no heap allocation at all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// A counting semaphore of *extra* worker threads the process may run.
///
/// Permits are handed out by [`ThreadBudget::try_acquire`] and returned
/// when the [`WorkerPermit`] drops. `set_parallelism(t)` resets the pool
/// to `t - 1` permits (the calling thread is the implicit `t`-th worker).
#[derive(Debug)]
pub struct ThreadBudget {
    permits: AtomicUsize,
}

impl ThreadBudget {
    /// Creates a budget with `permits` extra-worker permits.
    #[must_use]
    pub const fn new(permits: usize) -> Self {
        ThreadBudget {
            permits: AtomicUsize::new(permits),
        }
    }

    /// Resets the budget for a `threads`-thread run: `threads - 1` extra
    /// workers beyond the calling thread.
    ///
    /// Called by `dmig-core`'s `solve_sharded` (and thus the CLI `--threads`
    /// flag) at the top of every solve. Outstanding permits are not
    /// revoked; the new value takes effect for subsequent acquisitions.
    pub fn set_parallelism(&self, threads: usize) {
        let extras = threads.saturating_sub(1);
        self.permits.store(extras, Ordering::Relaxed);
        dmig_obs::gauge_set(dmig_obs::keys::POOL_PERMITS_CAPACITY, extras as u64);
        dmig_obs::gauge_set(dmig_obs::keys::POOL_PERMITS_AVAILABLE, extras as u64);
    }

    /// Permits currently available (racy; informational only).
    #[must_use]
    pub fn available(&self) -> usize {
        self.permits.load(Ordering::Relaxed)
    }

    /// Takes one permit, or returns `None` when the budget is spent.
    ///
    /// Never blocks: a denied acquirer simply does the work on its own
    /// thread. Counted under [`dmig_obs::keys::POOL_ACQUIRES`] /
    /// [`dmig_obs::keys::POOL_ACQUIRE_DENIED`].
    #[must_use]
    pub fn try_acquire(&self) -> Option<WorkerPermit<'_>> {
        let mut cur = self.permits.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                dmig_obs::counter_add(dmig_obs::keys::POOL_ACQUIRE_DENIED, 1);
                return None;
            }
            match self.permits.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    dmig_obs::counter_add(dmig_obs::keys::POOL_ACQUIRES, 1);
                    // Occupancy gauge is racy-but-close, like available().
                    dmig_obs::gauge_set(dmig_obs::keys::POOL_PERMITS_AVAILABLE, (cur - 1) as u64);
                    return Some(WorkerPermit { budget: self });
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Takes up to `max` permits in one call, returning however many were
    /// available (possibly none). Never blocks.
    ///
    /// "Recruit as many extra workers as the budget allows, up to what the
    /// problem can feed": the shard driver takes its shard workers this
    /// way, while the quota recursion takes one [`try_acquire`] per split.
    /// Dropping the returned vector releases all permits.
    ///
    /// [`try_acquire`]: Self::try_acquire
    #[must_use]
    pub fn try_acquire_many(&self, max: usize) -> Vec<WorkerPermit<'_>> {
        (0..max).map_while(|_| self.try_acquire()).collect()
    }
}

/// RAII permit for one extra worker thread; returns to the budget on drop.
#[derive(Debug)]
pub struct WorkerPermit<'a> {
    budget: &'a ThreadBudget,
}

impl Drop for WorkerPermit<'_> {
    fn drop(&mut self) {
        let before = self.budget.permits.fetch_add(1, Ordering::Relaxed);
        dmig_obs::gauge_set(dmig_obs::keys::POOL_PERMITS_AVAILABLE, (before + 1) as u64);
    }
}

/// The process-wide budget shared by shard- and recursion-level
/// parallelism. Defaults to `available_parallelism() - 1` extra workers
/// until a solve entry point calls
/// [`set_parallelism`](ThreadBudget::set_parallelism).
#[must_use]
pub fn budget() -> &'static ThreadBudget {
    static GLOBAL: OnceLock<ThreadBudget> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        ThreadBudget::new(threads.saturating_sub(1))
    })
}

/// Minimum work units (arcs, for the quota recursion) below which a solve
/// must not recruit extra workers, even when permits are free.
///
/// Spawning a thread costs tens of microseconds; tiny subproblems finish
/// faster than that. Tests that want to force the parallel path on small
/// instances may lower this with [`set_spawn_min_work`].
#[must_use]
pub fn spawn_min_work() -> usize {
    SPAWN_MIN_WORK.load(Ordering::Relaxed)
}

/// Overrides the [`spawn_min_work`] threshold (testing hook; results are
/// identical either way, only thread recruitment changes).
pub fn set_spawn_min_work(units: usize) {
    SPAWN_MIN_WORK.store(units, Ordering::Relaxed);
}

/// Default [`spawn_min_work`] threshold.
pub const DEFAULT_SPAWN_MIN_WORK: usize = 512;

static SPAWN_MIN_WORK: AtomicUsize = AtomicUsize::new(DEFAULT_SPAWN_MIN_WORK);

/// A bounded free-list of reusable scratch objects.
///
/// `acquire` pops a parked object (counted as a
/// [`scratch reuse`](dmig_obs::keys::SCRATCH_REUSES)) or default-constructs
/// a fresh one ([`scratch alloc`](dmig_obs::keys::SCRATCH_ALLOCS));
/// `release` parks it again, dropping the object instead when the pool
/// already holds [`ObjectPool::MAX_PARKED`] entries so a burst of workers
/// cannot pin memory forever.
#[derive(Debug)]
pub struct ObjectPool<T> {
    parked: Mutex<Vec<T>>,
}

impl<T: Default> ObjectPool<T> {
    /// Most objects kept alive between solves.
    pub const MAX_PARKED: usize = 32;

    /// Creates an empty pool (usable in `static` position).
    #[must_use]
    pub const fn new() -> Self {
        ObjectPool {
            parked: Mutex::new(Vec::new()),
        }
    }

    /// Pops a parked object or default-constructs one.
    #[must_use]
    pub fn acquire(&self) -> T {
        let (reused, parked_now) = {
            let mut parked = self.parked.lock().expect("scratch pool poisoned");
            let obj = parked.pop();
            (obj, parked.len())
        };
        dmig_obs::gauge_set(dmig_obs::keys::POOL_PARKED, parked_now as u64);
        match reused {
            Some(obj) => {
                dmig_obs::counter_add(dmig_obs::keys::SCRATCH_REUSES, 1);
                obj
            }
            None => {
                dmig_obs::counter_add(dmig_obs::keys::SCRATCH_ALLOCS, 1);
                T::default()
            }
        }
    }

    /// Parks an object for the next acquirer (dropped if the pool is full).
    pub fn release(&self, obj: T) {
        let parked_now = {
            let mut parked = self.parked.lock().expect("scratch pool poisoned");
            if parked.len() < Self::MAX_PARKED {
                parked.push(obj);
            }
            parked.len()
        };
        dmig_obs::gauge_set(dmig_obs::keys::POOL_PARKED, parked_now as u64);
        dmig_obs::gauge_max(dmig_obs::keys::POOL_PARKED_HIGH_WATER, parked_now as u64);
    }

    /// Number of parked objects (racy; informational only).
    #[must_use]
    pub fn parked(&self) -> usize {
        self.parked.lock().expect("scratch pool poisoned").len()
    }
}

impl<T: Default> Default for ObjectPool<T> {
    fn default() -> Self {
        ObjectPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permits_are_returned_on_drop() {
        let budget = ThreadBudget::new(2);
        let a = budget.try_acquire().expect("2 permits available");
        let b = budget.try_acquire().expect("1 permit available");
        assert!(budget.try_acquire().is_none(), "budget spent");
        drop(a);
        assert_eq!(budget.available(), 1);
        let c = budget.try_acquire().expect("permit came back");
        drop(b);
        drop(c);
        assert_eq!(budget.available(), 2);
    }

    #[test]
    fn set_parallelism_counts_the_caller() {
        let budget = ThreadBudget::new(0);
        budget.set_parallelism(4);
        assert_eq!(budget.available(), 3, "the caller is the 4th worker");
        budget.set_parallelism(1);
        assert!(budget.try_acquire().is_none(), "1 thread = no extras");
        budget.set_parallelism(0);
        assert!(budget.try_acquire().is_none());
    }

    #[test]
    fn try_acquire_many_takes_at_most_whats_there() {
        let budget = ThreadBudget::new(3);
        let batch = budget.try_acquire_many(8);
        assert_eq!(batch.len(), 3, "capped by the budget");
        assert!(budget.try_acquire().is_none());
        drop(batch);
        assert_eq!(budget.available(), 3);
        assert_eq!(budget.try_acquire_many(2).len(), 2, "capped by the ask");
        assert_eq!(budget.available(), 3, "batch released on drop");
        assert!(budget.try_acquire_many(0).is_empty());
    }

    #[test]
    fn global_budget_is_initialized() {
        // Other tests mutate the global budget concurrently; only check
        // that it exists and hands back what it hands out.
        let b = budget();
        if let Some(p) = b.try_acquire() {
            drop(p);
        }
    }

    #[test]
    fn object_pool_reuses_released_objects() {
        let pool: ObjectPool<Vec<usize>> = ObjectPool::new();
        let mut v = pool.acquire();
        assert!(v.is_empty());
        v.reserve(100);
        let cap = v.capacity();
        pool.release(v);
        assert_eq!(pool.parked(), 1);
        let v = pool.acquire();
        assert!(v.capacity() >= cap, "reused object keeps its capacity");
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn object_pool_is_bounded() {
        let pool: ObjectPool<Vec<usize>> = ObjectPool::new();
        for _ in 0..2 * ObjectPool::<Vec<usize>>::MAX_PARKED {
            pool.release(Vec::new());
        }
        assert_eq!(pool.parked(), ObjectPool::<Vec<usize>>::MAX_PARKED);
    }

    #[test]
    fn spawn_min_work_round_trips() {
        let old = spawn_min_work();
        set_spawn_min_work(7);
        assert_eq!(spawn_min_work(), 7);
        set_spawn_min_work(old);
    }
}
