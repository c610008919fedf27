//! Reusable parallel work-queue executor.
//!
//! Every experiment in the evaluation fans the same shape of work out: a
//! list of independent jobs (victim seeds, table cells, benchmark programs)
//! whose results must be reported **in input order** no matter which worker
//! finishes first.  [`JobPool`] is that executor, extracted from the
//! campaign engine so Table I rows, Table III/IV cells and the Fig. 5
//! program sweep can all share it: scoped worker threads claim shards of
//! the job list in index order and a coordinator hands the results back in
//! index order.  There is one executor, [`JobPool::run_sharded`], which can
//! also stop early once a settle callback fires on the ordered prefix.  The
//! callback also bounds speculation: it says how many more results it
//! needs at least before it could fire, and no job past that horizon is
//! started, so an adaptive campaign builds no victim it then throws away.
//! [`JobPool::run`] is the never-settling case.
//!
//! Because jobs are pure functions of their input, the output vector is
//! identical whatever the worker count — parallelism only changes wall
//! time, never results.
//!
//! # Example
//!
//! ```
//! use polycanary_attacks::pool::JobPool;
//!
//! let squares = JobPool::with_workers(3).run(&[1u64, 2, 3, 4], |_, &n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Outcome of a [`JobPool::run_sharded`] fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome<R> {
    /// Results of the settled prefix, in job-index order.  This is the
    /// *deterministic* part of the outcome: for a pure `job` and a pure
    /// `settle`, `results` is identical whatever the worker count or shard
    /// size.
    pub results: Vec<R>,
    /// Number of jobs actually executed.  It equals the settle point (or
    /// `jobs`) whenever `settle` never fires sooner than its horizons
    /// promised; a `settle` that does lets parallel workers run jobs past
    /// the settle point whose results are discarded.  Scheduling
    /// telemetry: such overshoot varies with timing, so it must not flow
    /// into deterministic reports.
    pub executed: usize,
    /// Number of shards workers claimed (same caveat as `executed`).
    pub shards_claimed: usize,
    /// `Some(n)` when `settle` fired at prefix length `n` and the remaining
    /// jobs were cancelled; `None` when every job's result was kept.
    pub settled_at: Option<usize>,
}

/// A fixed-width pool of scoped worker threads draining an indexed work
/// queue.  Construction is cheap — threads are only spawned inside
/// [`JobPool::run_sharded`] and join before it returns.
///
/// ```
/// use polycanary_attacks::pool::JobPool;
///
/// let pool = JobPool::with_workers(4);
/// let doubled = pool.run(&["a", "bb"], |index, item| format!("{index}:{item}{item}"));
/// assert_eq!(doubled, vec!["0:aa", "1:bbbb"]); // input order, any worker count
/// assert_eq!(pool.resolved_workers(2), 2);     // width capped at the job count
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPool {
    workers: usize,
}

impl Default for JobPool {
    fn default() -> Self {
        JobPool::new()
    }
}

impl JobPool {
    /// A pool with one worker per available CPU.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        JobPool { workers }
    }

    /// A pool with exactly `workers` threads (`0` is treated as `1`).
    pub fn with_workers(workers: usize) -> Self {
        JobPool { workers: workers.max(1) }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker count actually used for `jobs` jobs: the configured width
    /// capped at the job count (never below 1).
    pub fn resolved_workers(&self, jobs: usize) -> usize {
        self.workers.min(jobs).max(1)
    }

    /// Worker count for pools nested inside a fan-out over `outer_jobs`
    /// jobs on this pool: the CPUs are split between the outer fan-out and
    /// each job's inner pool so nesting does not oversubscribe (results
    /// are identical either way — only wall time changes).
    pub fn nested_workers(&self, outer_jobs: usize) -> usize {
        (self.workers / self.resolved_workers(outer_jobs)).max(1)
    }

    /// Runs `job(index, &item)` for every item and returns the results in
    /// input order.  `job` must be a pure function of its inputs for the
    /// determinism guarantee to hold (the pool guarantees only ordering).
    /// This is [`JobPool::run_sharded`] with unit shards and a `settle`
    /// that never fires.
    pub fn run<T, R, F>(&self, items: &[T], job: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run_sharded(items.len(), 1, |i| job(i, &items[i]), |_| usize::MAX).results
    }

    /// Runs `jobs` indexed jobs in shards of `shard_size` contiguous
    /// indices, with event-driven early stopping.  `settle(prefix)` is
    /// asked once on the empty prefix (unless `jobs` is 0) and then once
    /// per job **in strict
    /// index order on the contiguous prefix of completed results** (never
    /// on worker finish order).  It answers with a *horizon*: the fewest
    /// further results after which it could fire.  `0` fires now — it
    /// cancels every job not yet started and truncates the results at that
    /// prefix — and `usize::MAX` means it never fires.
    ///
    /// The scheduling contract, in full:
    ///
    /// * Workers claim whole shards in index order and execute their
    ///   indices in order, but never start a job at or beyond
    ///   `prefix + horizon`: a worker whose next index lies past that limit
    ///   waits until the prefix advances, and every worker exits once
    ///   `settle` fires.  The smallest unfinished index is always below
    ///   the limit (the horizon is at least 1 while unsettled), so the
    ///   pool cannot deadlock at any shard size.
    /// * `settle` runs under the coordinator lock, so it may carry state
    ///   (e.g. a success counter) without further synchronisation; it sees
    ///   each prefix exactly once, in order, regardless of parallelism.
    /// * `results` contains the jobs before the settle point and nothing
    ///   else, exactly as if the run had been serial and stopped there.  A
    ///   `settle` that never fires sooner than its horizons promised runs
    ///   nothing past that point; one that does leaves the extra results
    ///   to be discarded, which only [`ShardOutcome::executed`] reveals.
    ///
    /// ```
    /// use polycanary_attacks::pool::JobPool;
    ///
    /// // Square 0..10, stopping once a square reaches 9.  Squares grow
    /// // with the index, so `settle` knows the stop is at least
    /// // `4 - prefix.len()` results away and nothing runs past it.
    /// for workers in [1, 4] {
    ///     let outcome = JobPool::with_workers(workers).run_sharded(
    ///         10,
    ///         2,
    ///         |i| i * i,
    ///         |prefix: &[usize]| match prefix.last() {
    ///             Some(&sq) if sq >= 9 => 0,
    ///             _ => 4 - prefix.len(),
    ///         },
    ///     );
    ///     assert_eq!(outcome.results, vec![0, 1, 4, 9]);
    ///     assert_eq!(outcome.settled_at, Some(4));
    ///     assert_eq!(outcome.executed, 4);
    /// }
    /// ```
    pub fn run_sharded<R, F, S>(
        &self,
        jobs: usize,
        shard_size: usize,
        job: F,
        mut settle: S,
    ) -> ShardOutcome<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        S: FnMut(&[R]) -> usize + Send,
    {
        let shard_size = shard_size.max(1);
        let horizon = if jobs == 0 { usize::MAX } else { settle(&[]) };
        if jobs == 0 || horizon == 0 {
            return ShardOutcome {
                results: Vec::new(),
                executed: 0,
                shards_claimed: 0,
                settled_at: (horizon == 0).then_some(0),
            };
        }
        let workers = self.resolved_workers(jobs);
        if workers == 1 {
            // Serial fast path: execute in index order, settle as results
            // arrive, stop at the boundary.
            let mut results = Vec::new();
            let mut settled_at = None;
            while results.len() < jobs {
                results.push(job(results.len()));
                if settle(&results) == 0 {
                    settled_at = Some(results.len());
                    break;
                }
            }
            let executed = results.len();
            return ShardOutcome {
                results,
                executed,
                shards_claimed: executed.div_ceil(shard_size),
                settled_at,
            };
        }

        // Parallel path.  The coordinator owns the shard cursor, the start
        // limit and the seed-ordered prefix walk: results are deposited
        // under their index and consumed in strictly increasing order, so
        // `settle` observes exactly the sequence a serial run would have
        // produced.  `ready` wakes workers waiting on the limit.
        struct Coordinator<R, S> {
            pending: HashMap<usize, R>,
            ordered: Vec<R>,
            next_shard: usize,
            /// First index no job may start at: `prefix + horizon`.
            limit: usize,
            /// Set once `settle` fires or a job panics; every worker exits.
            halted: bool,
            settled_at: Option<usize>,
            executed: usize,
            shards_claimed: usize,
            settle: S,
        }
        let coordinator = Mutex::new(Coordinator {
            pending: HashMap::new(),
            ordered: Vec::new(),
            next_shard: 0,
            limit: horizon.min(jobs),
            halted: false,
            settled_at: None,
            executed: 0,
            shards_claimed: 0,
            settle,
        });
        let ready = Condvar::new();
        let lock = || coordinator.lock().expect("no worker panicked in the coordinator");

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut coord = lock();
                    while !coord.halted && coord.next_shard < jobs {
                        let start = coord.next_shard;
                        let end = start.saturating_add(shard_size).min(jobs);
                        coord.next_shard = end;
                        coord.shards_claimed += 1;
                        for index in start..end {
                            coord = ready
                                .wait_while(coord, |c| !c.halted && index >= c.limit)
                                .expect("no worker panicked in the coordinator");
                            if coord.halted {
                                return;
                            }
                            drop(coord);
                            let result = panic::catch_unwind(AssertUnwindSafe(|| job(index)));
                            coord = lock();
                            coord.executed += 1;
                            let result = match result {
                                Ok(result) => result,
                                Err(payload) => {
                                    // Wake the waiting workers so the scope
                                    // re-raises the panic instead of hanging.
                                    coord.halted = true;
                                    drop(coord);
                                    ready.notify_all();
                                    panic::resume_unwind(payload);
                                }
                            };
                            if coord.halted {
                                return; // speculative result past the stop point
                            }
                            let limit = coord.limit;
                            let c = &mut *coord;
                            c.pending.insert(index, result);
                            // Advance the contiguous prefix as far as it goes.
                            while let Some(next) = c.pending.remove(&c.ordered.len()) {
                                c.ordered.push(next);
                                let horizon = (c.settle)(&c.ordered);
                                if horizon == 0 {
                                    c.settled_at = Some(c.ordered.len());
                                    c.halted = true;
                                    c.pending.clear();
                                    break;
                                }
                                c.limit = c.ordered.len().saturating_add(horizon).min(jobs);
                            }
                            if c.halted || c.limit != limit {
                                ready.notify_all();
                            }
                        }
                    }
                });
            }
        });

        let coordinator = coordinator.into_inner().expect("worker scope completed");
        ShardOutcome {
            results: coordinator.ordered,
            executed: coordinator.executed,
            shards_claimed: coordinator.shards_claimed,
            settled_at: coordinator.settled_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_crypto::{Prng, SplitMix64};

    /// A boolean stop predicate as a horizon: fire now, or promise nothing
    /// (so parallel workers may speculate past the stop point).
    fn fire_if(stop: bool) -> usize {
        if stop {
            0
        } else {
            usize::MAX
        }
    }

    #[test]
    fn results_are_in_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|n| n * 3 + 1).collect();
        for workers in [1, 2, 5, 64] {
            let got = JobPool::with_workers(workers).run(&items, |_, &n| n * 3 + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn job_receives_its_input_index() {
        let items = ["a", "b", "c"];
        let got = JobPool::with_workers(2).run(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_input_and_zero_workers_are_well_defined() {
        let empty: Vec<u64> = Vec::new();
        assert!(JobPool::with_workers(0).run(&empty, |_, &n| n).is_empty());
        assert_eq!(JobPool::with_workers(0).workers(), 1);
        assert_eq!(JobPool::with_workers(8).resolved_workers(3), 3);
        assert_eq!(JobPool::with_workers(8).resolved_workers(0), 1);
    }

    #[test]
    fn sharded_results_match_serial_for_any_worker_count_and_shard_size() {
        let stop = |prefix: &[usize]| fire_if(prefix.last().is_some_and(|&r| r >= 210));
        let serial = JobPool::with_workers(1).run_sharded(50, 1, |i| i * 7, stop);
        assert_eq!(serial.results, (0..=30).map(|i| i * 7).collect::<Vec<_>>());
        assert_eq!(serial.settled_at, Some(31));
        assert_eq!(serial.executed, 31);
        for workers in [2, 4, 8] {
            for shard_size in [1, 3, 16, 100] {
                let got =
                    JobPool::with_workers(workers).run_sharded(50, shard_size, |i| i * 7, stop);
                assert_eq!(
                    got.results, serial.results,
                    "workers = {workers}, shard_size = {shard_size}"
                );
                assert_eq!(got.settled_at, Some(31));
                assert!(got.executed >= 31, "speculation may overshoot, never undershoot");
            }
        }
    }

    #[test]
    fn sharded_run_without_settling_keeps_every_result() {
        for workers in [1, 4] {
            let got = JobPool::with_workers(workers).run_sharded(17, 4, |i| i + 1, |_| usize::MAX);
            assert_eq!(got.results, (1..=17).collect::<Vec<_>>(), "workers = {workers}");
            assert_eq!(got.settled_at, None);
            assert_eq!(got.executed, 17);
        }
    }

    #[test]
    fn sharded_settle_sees_strict_prefix_order_even_in_parallel() {
        // The settle closure records the prefix lengths it observes; the
        // contract says they are exactly 0..=settled_at in order, whatever
        // the worker count.
        for workers in [1, 8] {
            let mut seen = Vec::new();
            let outcome = JobPool::with_workers(workers).run_sharded(
                40,
                2,
                |i| i,
                |prefix| {
                    seen.push(prefix.len());
                    fire_if(prefix.len() == 10)
                },
            );
            assert_eq!(seen, (0..=10).collect::<Vec<_>>(), "workers = {workers}");
            assert_eq!(outcome.settled_at, Some(10));
        }
    }

    #[test]
    fn sharded_cancellation_bounds_speculation_by_claimed_shards() {
        // Settling on the very first job cancels everything else.  A
        // settle that promises nothing leaves at most the in-flight jobs
        // to discard; one whose horizon says "one more result" lets no
        // second job start at all.
        let speculative =
            JobPool::with_workers(4).run_sharded(1000, 1, |i| i, |p| fire_if(p.len() == 1));
        let bounded =
            JobPool::with_workers(4).run_sharded(1000, 1, |i| i, |p| usize::from(p.is_empty()));
        for outcome in [&speculative, &bounded] {
            assert_eq!(outcome.results, vec![0]);
            assert_eq!(outcome.settled_at, Some(1));
            assert!(
                outcome.executed < 1000,
                "cancellation must prevent exhaustive execution (executed {})",
                outcome.executed
            );
        }
        assert_eq!(bounded.executed, 1);
    }

    #[test]
    fn sharded_edge_cases_are_well_defined() {
        // Empty input: `settle` is never asked.
        let empty = JobPool::with_workers(4).run_sharded(0, 8, |i| i, |_| 0);
        assert!(empty.results.is_empty());
        assert_eq!(empty.executed, 0);
        assert_eq!(empty.shards_claimed, 0);
        assert_eq!(empty.settled_at, None);
        // A settle that fires on the empty prefix runs nothing.
        for workers in [1, 4] {
            let none = JobPool::with_workers(workers).run_sharded(9, 2, |i| i, |_| 0);
            assert!(none.results.is_empty());
            assert_eq!((none.executed, none.settled_at), (0, Some(0)));
        }
        // Shard size 0 behaves as 1.
        let unit = JobPool::with_workers(1).run_sharded(3, 0, |i| i, |_| usize::MAX);
        assert_eq!(unit.results, vec![0, 1, 2]);
        assert_eq!(unit.shards_claimed, 3);
    }

    /// One battery job: a pseudo-random outcome, occasionally yielding so
    /// that workers finish out of order.
    fn battery_job(case: u64, index: usize) -> u64 {
        let outcome = SplitMix64::new(case ^ ((index as u64) << 32)).next_u64();
        if outcome.is_multiple_of(3) {
            std::thread::yield_now();
        }
        outcome
    }

    /// Stops once `need` odd outcomes are in, answering the exact horizon:
    /// the odd outcomes still missing, since each result adds at most one.
    fn exact_horizon(need: usize, prefix: &[u64]) -> usize {
        need - prefix.iter().filter(|&&r| r % 2 == 1).count().min(need)
    }

    /// A horizon drawn from the prefix alone: often wrong about when the
    /// rule fires (too high or too low), sometimes 0 or "never".
    fn random_horizon(case: u64, prefix: &[u64]) -> usize {
        let draw = SplitMix64::new(case ^ prefix.last().copied().unwrap_or(!case)).next_u64();
        match draw % 16 {
            0 => usize::MAX,
            h if prefix.is_empty() => h as usize, // never fires before any result
            h => h as usize % 7,
        }
    }

    #[test]
    fn sharded_battery_matches_serial_and_never_deadlocks() {
        let mut rng = SplitMix64::new(0x5EED_B00C);
        for case in 0..32u64 {
            let jobs = 1 + rng.next_below(40) as usize;
            let need = 1 + rng.next_below(8) as usize;
            let exact = case % 2 == 0;
            let horizon = |prefix: &[u64]| {
                if exact {
                    exact_horizon(need, prefix)
                } else {
                    random_horizon(case, prefix)
                }
            };
            let run = |workers: usize, shard_size: usize| {
                let mut asked = 0;
                let outcome = JobPool::with_workers(workers).run_sharded(
                    jobs,
                    shard_size,
                    |i| battery_job(case, i),
                    |prefix| {
                        asked += 1;
                        horizon(prefix)
                    },
                );
                (outcome, asked)
            };
            let (serial, _) = run(1, 1);
            for workers in [1, 2, 3, 8] {
                for shard_size in [1, 2, 5, 64] {
                    let label = format!("case {case}, workers {workers}, shard {shard_size}");
                    let (got, asked) = run(workers, shard_size);
                    assert_eq!(got.results, serial.results, "{label}");
                    assert_eq!(got.settled_at, serial.settled_at, "{label}");
                    assert_eq!(asked, got.results.len() + 1, "{label}: one ask per prefix");
                    assert!(got.executed >= got.results.len(), "{label}");
                    if exact {
                        assert_eq!(got.executed, got.settled_at.unwrap_or(jobs), "{label}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn a_panicking_job_wakes_waiting_workers_instead_of_hanging() {
        // Workers past the horizon wait for job 0, which panics; the panic
        // must reach the caller rather than leave them blocked.  The sleep
        // only makes it likely that they are already waiting; every
        // interleaving must end in the panic.
        JobPool::with_workers(4).run_sharded(
            8,
            1,
            |i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("job 0 failed");
                }
                i
            },
            |prefix| 2 - prefix.len().min(1),
        );
    }

    #[test]
    fn nested_workers_split_the_pool_without_oversubscribing() {
        let pool = JobPool::with_workers(8);
        // 4 outer jobs on 8 CPUs leave 2 workers per inner pool ...
        assert_eq!(pool.nested_workers(4), 2);
        // ... more outer jobs than CPUs leave serial inner pools ...
        assert_eq!(pool.nested_workers(16), 1);
        // ... and a single outer job keeps the whole pool.
        assert_eq!(pool.nested_workers(1), 8);
        assert_eq!(pool.nested_workers(0), 8);
        assert_eq!(JobPool::with_workers(1).nested_workers(5), 1);
    }
}
