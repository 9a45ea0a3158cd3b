//! Cross-shard compaction admission: a counting semaphore shared by the
//! background workers of several [`crate::Db`] instances.
//!
//! The paper's C-PPCP argument is that compute stages should be replicated
//! only up to the core count — more concurrency than the hardware has
//! merely adds contention. A sharded engine (N independent `Db`s, one
//! background worker each) re-creates exactly that hazard one level up: N
//! simultaneous compactions each running a pipeline of their own. The
//! [`CompactionLimiter`] answers with a pool of permits over *whole
//! compactions*: the background worker brackets each compaction with
//! [`CompactionLimiter::acquire`] / [`CompactionLimiter::release`], and at
//! most [`CompactionLimiter::permits`] run at once.
//!
//! Flushes are never gated: delaying a flush turns directly into writer
//! stalls. The wait loop polls its abort check with a short timeout
//! instead of relying on a wakeup, so a `Db` that is dropped, or whose
//! memtable fills, while its compaction is queued gives up the wait
//! promptly and goes back to flush or exit.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug)]
struct PermitState {
    /// Permits currently held.
    in_use: usize,
    /// High-water mark of `in_use`, for tests and diagnostics.
    peak: usize,
}

/// A pool of compaction permits shared across databases: at most
/// [`CompactionLimiter::permits`] compactions run at once.
///
/// Created once and stamped into every shard's [`crate::Options`]
/// (`ShardedDb` does this automatically); a standalone `Db` without one
/// simply runs unlimited.
#[derive(Debug)]
pub struct CompactionLimiter {
    permits: usize,
    state: Mutex<PermitState>,
    released: Condvar,
}

impl CompactionLimiter {
    /// A pool of `permits` concurrent compactions (min 1).
    pub fn new(permits: usize) -> Arc<CompactionLimiter> {
        Arc::new(CompactionLimiter {
            permits: permits.max(1),
            state: Mutex::new(PermitState { in_use: 0, peak: 0 }),
            released: Condvar::new(),
        })
    }

    /// A pool sized to the host: `min(shards, cores)` concurrent
    /// compactions.
    pub fn for_shards(shards: usize) -> Arc<CompactionLimiter> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::new(shards.min(cores))
    }

    /// Blocks until a permit is free and takes it, returning true. Returns
    /// false without taking one once `should_abort` reports true; it is
    /// polled every few milliseconds while the caller waits, so it must be
    /// cheap and must not block.
    pub fn acquire(&self, should_abort: &dyn Fn() -> bool) -> bool {
        let mut st = self.state.lock();
        loop {
            if st.in_use < self.permits {
                st.in_use += 1;
                st.peak = st.peak.max(st.in_use);
                return true;
            }
            if should_abort() {
                return false;
            }
            self.released.wait_for(&mut st, Duration::from_millis(5));
        }
    }

    /// Returns a permit taken by [`CompactionLimiter::acquire`].
    pub fn release(&self) {
        let mut st = self.state.lock();
        debug_assert!(st.in_use > 0, "release without acquire");
        st.in_use = st.in_use.saturating_sub(1);
        self.released.notify_all();
    }

    /// Total permits (max concurrent compactions).
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// Permits currently held.
    pub fn in_use(&self) -> usize {
        self.state.lock().in_use
    }

    /// The most permits ever held at once.
    pub fn peak(&self) -> usize {
        self.state.lock().peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn caps_concurrency_and_tracks_peak() {
        let limiter = CompactionLimiter::new(2);
        let never = || false;
        assert!(limiter.acquire(&never));
        assert!(limiter.acquire(&never));
        assert_eq!(limiter.in_use(), 2);
        // Third acquire must wait; abort it instead.
        let aborted = AtomicBool::new(true);
        assert!(!limiter.acquire(&|| aborted.load(Ordering::SeqCst)));
        assert_eq!(limiter.in_use(), 2, "an aborted acquire takes nothing");
        limiter.release();
        limiter.release();
        assert_eq!(limiter.in_use(), 0);
        assert_eq!(limiter.peak(), 2);
    }

    #[test]
    fn contended_acquires_never_exceed_permits() {
        let limiter = CompactionLimiter::new(3);
        let live = Arc::new(AtomicUsize::new(0));
        let worst = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let limiter = Arc::clone(&limiter);
                let live = Arc::clone(&live);
                let worst = Arc::clone(&worst);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        assert!(limiter.acquire(&|| false));
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        worst.fetch_max(now, Ordering::SeqCst);
                        assert!(limiter.in_use() <= limiter.permits());
                        std::thread::yield_now();
                        live.fetch_sub(1, Ordering::SeqCst);
                        limiter.release();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(worst.load(Ordering::SeqCst) <= 3);
        assert_eq!(limiter.in_use(), 0);
        assert!(limiter.peak() <= 3);
    }

    #[test]
    fn zero_permits_clamps_to_one() {
        let limiter = CompactionLimiter::new(0);
        assert_eq!(limiter.permits(), 1);
        assert!(limiter.acquire(&|| false));
        limiter.release();
        assert_eq!(limiter.in_use(), 0);
    }
}
