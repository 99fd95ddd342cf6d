//! The scoped executor behind the campaign's in-process parallel loop: the
//! work units of [`CampaignSession::run`](crate::session::CampaignSession::run).
//!
//! [`try_par_map`] runs a fallible closure over a slice on the calling
//! thread plus one helper thread per further core (at most one per
//! remaining item), and returns the results in input order. Workers claim
//! the next item from one shared atomic cursor, so coarse items of uneven
//! cost (a pair takes 25–60 measurements) balance without per-worker
//! queues. Once an item fails, no worker claims another.
//!
//! Calls are not meant to nest: a call made from inside another call's
//! closure spawns its own helpers on top of the outer ones. Fleet members
//! therefore run one after another, each spreading its pairs over every
//! core.

use std::panic;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

/// Apply `f` to every item, in parallel on every core, and return the
/// results in input order, or the first error in input order.
///
/// The calling thread always works. Each item runs at most once; after an
/// item fails, workers finish the item in hand and claim no more, so later
/// items may never run. A panic in `f` reaches the caller once every
/// worker has stopped.
pub(crate) fn try_par_map<T: Sync, R: Send, E: Send>(
    items: &[T],
    f: impl Fn(&T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    try_par_map_with(cores - 1, items, f)
}

/// [`try_par_map`] with an explicit number of helper threads.
fn try_par_map_with<T: Sync, R: Send, E: Send>(
    helpers: usize,
    items: &[T],
    f: impl Fn(&T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let helpers = helpers.min(items.len().saturating_sub(1));
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    // Each worker keeps its own (index, result) list; the lists are merged
    // and sorted back into input order once every worker has stopped.
    // Relaxed: the cursor and the flag only hand out indices and stop the
    // claiming; results travel through the join.
    let work = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                break;
            };
            let result = f(item);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((index, result));
        }
        done
    };
    let mut done = if helpers == 0 {
        work()
    } else {
        thread::scope(|scope| {
            let helpers: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for helper in helpers {
                match helper.join() {
                    Ok(more) => done.extend(more),
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
            done
        })
    };
    // Without a failure every item ran; with one, collecting stops at the
    // first error in input order.
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Counts closures running at once and remembers the peak.
    #[derive(Default)]
    struct Gauge {
        now: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Gauge {
        fn enter(&self) {
            let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
        }

        fn leave(&self) {
            self.now.fetch_sub(1, Ordering::SeqCst);
        }

        /// Wait (bounded) until `n` closures have overlapped, so a closure
        /// cannot finish before its peers have started.
        fn rendezvous(&self, n: usize) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.peak.load(Ordering::SeqCst) < n && Instant::now() < deadline {
                thread::yield_now();
            }
        }
    }

    #[test]
    fn results_come_back_in_input_order_and_every_item_runs_once() {
        for len in [0usize, 1, 2, 1000] {
            let items: Vec<usize> = (0..len).collect();
            let runs: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let out = try_par_map(&items, |&i| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                Ok::<_, ()>(i * 3)
            });
            assert_eq!(out, Ok(items.iter().map(|i| i * 3).collect::<Vec<_>>()));
            assert!(
                runs.iter().all(|r| r.load(Ordering::SeqCst) == 1),
                "len {len}: every item must run exactly once"
            );
        }
    }

    #[test]
    fn helpers_really_run_alongside_the_caller() {
        // One helper: two items must overlap, which a sequential loop
        // could never achieve.
        let gauge = Gauge::default();
        let out = try_par_map_with(1, &[0, 1], |_| {
            gauge.enter();
            gauge.rendezvous(2);
            gauge.leave();
            Ok::<_, ()>(())
        });
        assert_eq!(out, Ok(vec![(), ()]));
        assert_eq!(gauge.peak.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn without_helpers_nothing_runs_after_the_first_error() {
        let items: Vec<usize> = (0..10).collect();
        let runs = AtomicUsize::new(0);
        let out = try_par_map_with(0, &items, |&i| {
            runs.fetch_add(1, Ordering::SeqCst);
            if i == 3 {
                Err(i)
            } else {
                Ok(i)
            }
        });
        assert_eq!(out, Err(3));
        assert_eq!(runs.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn an_error_stops_every_worker_claiming() {
        // Every other item takes a millisecond, so running them all would
        // take 250 ms on the four workers; the failure at item 3 stops the
        // claiming long before that.
        let items: Vec<usize> = (0..1000).collect();
        let runs = AtomicUsize::new(0);
        let out = try_par_map_with(3, &items, |&i| {
            runs.fetch_add(1, Ordering::SeqCst);
            if i == 3 {
                return Err(i);
            }
            thread::sleep(Duration::from_millis(1));
            Ok(i)
        });
        assert_eq!(out, Err(3));
        let runs = runs.load(Ordering::SeqCst);
        assert!(runs < items.len() / 2, "{runs} items ran after a failure");
    }

    #[test]
    fn a_panic_reaches_the_caller() {
        let items: Vec<usize> = (0..16).collect();
        let others_ran = AtomicBool::new(false);
        let caught = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            try_par_map_with(3, &items, |&i| {
                if i == 7 {
                    panic!("item 7 failed");
                }
                others_ran.store(true, Ordering::SeqCst);
                Ok::<_, ()>(())
            })
        }));
        let payload = caught.expect_err("the panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("the original payload is preserved");
        assert_eq!(message, "item 7 failed");
        assert!(others_ran.load(Ordering::SeqCst));
    }
}
