//! Order-preserving parallel map on `std::thread::scope` — the
//! offline stand-in for the *role* rayon would play in this
//! workspace (no crates.io access; see `compat/README.md`).
//!
//! Every parallel caller in the workspace hands over a finished batch
//! (a fleet's campaigns, a sweep's grid cells), so one primitive
//! serves them all: [`map`] runs `f` over the items on
//! `min(workers, items)` scoped threads that take the next item from
//! one shared cursor, and returns the results in input order.
//! `workers <= 1` runs the same loop on the calling thread, the serial
//! reference path.
//!
//! A panicking item never abandons its siblings: each item runs under
//! `catch_unwind`, every other item still runs, and only then is the
//! panic of the lowest panicking index re-raised. So a fleet survives
//! one bad campaign, finishes the rest, and the caller still sees the
//! failure. [`map_with_stats`] also returns each worker's busy
//! intervals ([`PoolStats`]), the raw material for fleet telemetry
//! and trace worker tracks.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one [`map_with_stats`] run observed. Task counts, busy time
/// and utilization all derive from the busy segments.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Wall-clock from the map's start until every item had run.
    pub wall: Duration,
    /// Per-worker `(start, end)` busy intervals, offsets from the
    /// map's start: one interval per item the worker ran, in the order
    /// it ran them.
    pub busy_segments: Vec<Vec<(Duration, Duration)>>,
}

impl PoolStats {
    /// Total time spent inside items, summed over workers.
    pub fn busy_total(&self) -> Duration {
        self.busy_segments
            .iter()
            .flatten()
            .map(|&(start, end)| end.saturating_sub(start))
            .sum()
    }
}

/// Order-preserving parallel map: applies `f` to every item on
/// `min(workers, items.len())` threads and returns the results in
/// input order. `workers <= 1` (or at most one item) runs inline on
/// the calling thread.
///
/// # Panics
///
/// Re-raises the panic of the lowest-indexed item that panicked, after
/// every other item has run.
pub fn map<T, R>(workers: usize, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    map_with_stats(workers, items, f).0
}

/// [`map`] plus the run's [`PoolStats`] (returned only when no item
/// panicked).
///
/// # Panics
///
/// As [`map`].
pub fn map_with_stats<T, R>(
    workers: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> (Vec<R>, PoolStats)
where
    T: Send,
    R: Send,
{
    let n = items.len();
    let width = workers.min(n).max(1);
    let cursor = Mutex::new(items.into_iter().enumerate());
    let start = Instant::now();
    // One worker: claim the next item, run it, record its interval
    // and its result (or panic) under its input index.
    let work = || {
        let mut done = Vec::new();
        let mut segments = Vec::new();
        loop {
            let Some((i, item)) = cursor
                .lock()
                .expect("the cursor lock is never held while an item runs")
                .next()
            else {
                break;
            };
            let begin = start.elapsed();
            done.push((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
            segments.push((begin, start.elapsed()));
        }
        (done, segments)
    };
    let per_worker = if width == 1 {
        vec![work()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..width).map(|_| s.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a worker catches every item's panic"))
                .collect()
        })
    };
    let wall = start.elapsed();
    let mut slots: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
    let mut busy_segments = Vec::with_capacity(width);
    for (done, segments) in per_worker {
        for (i, result) in done {
            slots[i] = Some(result);
        }
        busy_segments.push(segments);
    }
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.expect("the cursor hands out every item")
                .unwrap_or_else(|payload| resume_unwind(payload))
        })
        .collect();
    let stats = PoolStats {
        wall,
        busy_segments,
    };
    (results, stats)
}

/// Worker count for "use the whole machine": the `FLEET_WORKERS` env
/// var when set (clamped to at least 1), else
/// [`std::thread::available_parallelism`].
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("FLEET_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const WIDTHS: [usize; 4] = [1, 2, 4, 9];
    const SIZES: [usize; 3] = [0, 1, 100];

    #[test]
    fn results_come_back_in_input_order() {
        for workers in WIDTHS {
            for n in SIZES {
                let out = map(workers, (0..n).collect(), |x| x * x);
                assert_eq!(out, (0..n).map(|x| x * x).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn each_item_leaves_one_busy_segment() {
        for workers in WIDTHS {
            for n in SIZES {
                let (_, stats) = map_with_stats(workers, (0..n).collect(), |x: usize| x + 1);
                assert_eq!(stats.busy_segments.len(), workers.min(n).max(1));
                let segments: Vec<_> = stats.busy_segments.iter().flatten().collect();
                assert_eq!(segments.len(), n, "width {workers}, {n} items");
                for &&(begin, end) in &segments {
                    assert!(begin <= end && end <= stats.wall);
                }
                assert!(stats.busy_total() <= stats.wall * stats.busy_segments.len() as u32);
            }
        }
    }

    #[test]
    fn a_panic_is_re_raised_after_every_other_item_ran() {
        for workers in WIDTHS {
            for (n, at) in [(1, 0), (100, 0), (100, 57), (100, 99)] {
                let ran = AtomicUsize::new(0);
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    map(workers, (0..n).collect(), |i: usize| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        assert_ne!(i, at, "injected panic");
                        i
                    })
                }));
                let payload = caught.expect_err("the item's panic must reach the caller");
                let msg = payload
                    .downcast_ref::<String>()
                    .expect("assert_ne! payload");
                assert!(msg.contains("injected panic"), "{msg}");
                assert_eq!(ran.load(Ordering::Relaxed), n, "width {workers}");
            }
        }
    }

    #[test]
    fn the_lowest_panicking_index_wins() {
        for workers in WIDTHS {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                map(workers, (0..100).collect(), |i: usize| {
                    if i % 30 == 29 {
                        panic!("item {i}");
                    }
                })
            }));
            let payload = caught.expect_err("panics reach the caller");
            assert_eq!(payload.downcast_ref::<String>().unwrap(), "item 29");
        }
    }

    #[test]
    fn a_map_nests_inside_a_map_task() {
        for workers in WIDTHS {
            let outer = map(workers, vec![10u64, 20, 30], |base| {
                map(workers, (0..8u64).collect(), |k| base + k)
                    .iter()
                    .sum::<u64>()
            });
            assert_eq!(outer, vec![108, 188, 268]);
        }
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    /// Handcrafted stats = a deterministic fake clock: the busy total
    /// must be exact arithmetic over the recorded segments,
    /// independent of any real timer.
    #[test]
    fn busy_total_is_exact_over_fake_clock_durations() {
        let stats = PoolStats {
            wall: Duration::from_millis(100),
            busy_segments: vec![
                vec![(Duration::ZERO, Duration::from_millis(60))],
                vec![(Duration::from_millis(10), Duration::from_millis(30))],
            ],
        };
        assert_eq!(stats.busy_total(), Duration::from_millis(80));
    }

    #[test]
    fn items_that_take_time_leave_busy_time() {
        for workers in WIDTHS {
            let (_, stats) = map_with_stats(workers, vec![(); 4], |()| {
                std::thread::sleep(Duration::from_millis(1));
            });
            assert!(
                stats.busy_total() >= Duration::from_millis(4),
                "width {workers}"
            );
            assert!(stats.wall >= Duration::from_millis(1), "width {workers}");
        }
    }
}
