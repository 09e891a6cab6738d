//! QEMU-style stop-the-world exclusive sections.
//!
//! This reimplements the `start_exclusive`/`end_exclusive` mechanism from
//! QEMU's `cpus-common.c`, which the paper's HST and PST schemes use to
//! make SC emulation atomic with respect to every other vCPU: the
//! requester waits until all other registered vCPUs are *parked* at a
//! safepoint (translated-block boundary), runs its critical work alone,
//! and then releases everyone.
//!
//! The handshake is asymmetric. The requester, once it has claimed the
//! section, drops the lock and *spins* on a lock-free mirror of the
//! running count for a bounded budget, so the common case — the peers
//! reach a safepoint within microseconds — costs no futex sleep/wake on
//! the requester's side. Parked vCPUs always *sleep* on the condvar:
//! letting them spin too makes competing LL/SC loops interleave finely
//! enough to break each other's reservations, and SC-heavy programs slow
//! down (DESIGN.md §4). The requester spins only while the registered
//! vCPUs fit on the host's CPUs; on an oversubscribed host it would
//! steal the CPU from the very vCPU it is waiting on, so it sleeps at
//! once.
//!
//! The cost of this mechanism — requester wait plus everyone else's
//! parked time — is the "exclusive" bucket of the paper's Fig. 12
//! breakdown, so both sides are measured and accumulated into
//! [`crate::VcpuStats::exclusive_ns`].

use adbt_sync::{Condvar, Mutex, MutexGuard};
use std::num::NonZeroUsize;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How long a requester spins for the world to stop before it falls back
/// to sleeping on the condvar. A peer reaches its next safepoint within
/// one translated block (tens of nanoseconds to a few microseconds), so
/// the budget only runs out when a peer is descheduled or blocked.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// The host's CPU count, read once per process (the spin rule's bound).
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// A point-in-time view of the barrier's cumulative counters.
///
/// Per-vCPU stats live in thread-owned contexts and cannot be observed
/// until a run finishes; the barrier is shared, so it is the one place
/// machine-wide exclusive-section pressure can be read *mid-run* — which
/// is exactly what the periodic metrics plane needs.
///
/// Every entry either found the world already stopped, or waited for it
/// and was released while spinning (`spun`) or while asleep on the
/// condvar (`slept`); so `spun + slept <= sections`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExclusiveTelemetry {
    /// Exclusive sections successfully entered since machine start.
    pub sections: u64,
    /// Total requester-side wait across those entries, in nanoseconds.
    pub wait_ns: u64,
    /// Entries whose wait for the world to stop ended while spinning.
    pub spun: u64,
    /// Entries whose wait for the world to stop ended on the condvar.
    pub slept: u64,
}

impl ExclusiveTelemetry {
    /// Renders the snapshot as one JSON object — the `exclusive` block
    /// of the `adbt-metrics-v1` schema.
    pub fn to_json(&self) -> String {
        let ExclusiveTelemetry {
            sections,
            wait_ns,
            spun,
            slept,
        } = self;
        format!(
            "{{\"sections\":{sections},\"wait_ns\":{wait_ns},\"spun\":{spun},\"slept\":{slept}}}"
        )
    }
}

/// `holder` value when no exclusive section names an owner (plain
/// `start_exclusive`, or no section at all). Real tids are 1-based.
const NO_HOLDER: u32 = 0;

/// Error returned by [`ExclusiveBarrier::start_exclusive`] when
/// [`ExclusiveBarrier::halt`] fires before (or while) exclusivity is
/// granted. A halted machine grants no exclusivity: the requester must
/// abandon guest execution, not run its critical section against a
/// world that is no longer stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Halted;

#[derive(Debug, Default)]
struct Inner {
    /// Number of vCPUs currently running (registered and not parked).
    running: usize,
    /// Number of vCPUs registered (running or parked).
    registered: usize,
    /// Threads asleep on the condvar; a notify with none is skipped.
    sleepers: usize,
    /// Whether an exclusive section is in progress or being requested.
    exclusive_active: bool,
}

/// The shared exclusive-section barrier; one per machine.
#[derive(Debug)]
pub struct ExclusiveBarrier {
    inner: Mutex<Inner>,
    cond: Condvar,
    /// Lock-free mirror of `Inner::running` for the requester's spin.
    /// Written only under `inner`, so it equals `running` whenever the
    /// lock is free; the spinner re-checks `running` under the lock
    /// before entering, which is what orders the parked vCPUs' guest
    /// stores before the section (the mirror itself publishes nothing).
    running_hint: AtomicUsize,
    /// Fast-path flag mirroring `exclusive_active`, checked lock-free at
    /// every safepoint.
    pending: AtomicBool,
    /// The tid owning the current exclusive section, when entered via
    /// [`ExclusiveBarrier::start_exclusive_as`]; the owner's own
    /// safepoints then pass through (a section spanning block dispatches
    /// must not park its holder).
    holder: AtomicU32,
    /// Watchdog teardown: when set, every wait loop exits so wedged
    /// threads drain instead of hanging.
    halted: AtomicBool,
    /// Cumulative sections entered (see [`ExclusiveTelemetry`]).
    sections: AtomicU64,
    /// Cumulative requester wait ns (see [`ExclusiveTelemetry`]).
    wait_ns_total: AtomicU64,
    /// Cumulative entries released while spinning.
    spun: AtomicU64,
    /// Cumulative entries released on the condvar.
    slept: AtomicU64,
    /// The requester's spin budget.
    spin_budget: Duration,
    /// The most registered vCPUs a requester spins for (the host's CPUs).
    spin_cpus: usize,
}

impl Default for ExclusiveBarrier {
    fn default() -> ExclusiveBarrier {
        ExclusiveBarrier::with_spin(SPIN_BUDGET, host_cpus())
    }
}

/// The barrier's lock, held. Every unlock — drop or condvar wait —
/// checks that the lock-free running mirror agrees with `running`.
struct Locked<'a> {
    barrier: &'a ExclusiveBarrier,
    inner: MutexGuard<'a, Inner>,
}

impl Locked<'_> {
    /// Updates `running` and its lock-free mirror together.
    fn set_running(&mut self, running: usize) {
        self.inner.running = running;
        self.barrier.running_hint.store(running, Ordering::Relaxed);
    }

    fn check_mirror(&self) {
        debug_assert_eq!(
            self.barrier.running_hint.load(Ordering::Relaxed),
            self.inner.running,
            "running mirror diverged from the locked count"
        );
    }

    /// Sleeps on the condvar until notified (or spuriously woken).
    fn wait(&mut self) {
        self.check_mirror();
        self.inner.sleepers += 1;
        self.barrier.cond.wait(&mut self.inner);
        self.inner.sleepers -= 1;
    }

    /// Wakes every sleeper; free when nobody sleeps.
    fn notify(&self) {
        if self.inner.sleepers > 0 {
            self.barrier.cond.notify_all();
        }
    }

    /// Parks the caller (not counted as running) until no section is
    /// active or the machine halts.
    fn park(&mut self) {
        while self.inner.exclusive_active && !self.barrier.halted() {
            let running = self.inner.running;
            self.set_running(running - 1);
            self.notify();
            self.wait();
            let running = self.inner.running;
            self.set_running(running + 1);
        }
    }
}

impl Deref for Locked<'_> {
    type Target = Inner;
    fn deref(&self) -> &Inner {
        &self.inner
    }
}

impl DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut Inner {
        &mut self.inner
    }
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        // A second panic while unwinding would abort the process.
        if !std::thread::panicking() {
            self.check_mirror();
        }
    }
}

impl ExclusiveBarrier {
    /// Creates a barrier with no registered vCPUs.
    pub fn new() -> ExclusiveBarrier {
        ExclusiveBarrier::default()
    }

    /// A barrier whose requesters spin for at most `budget`, and only
    /// while at most `cpus` vCPUs are registered.
    fn with_spin(budget: Duration, cpus: usize) -> ExclusiveBarrier {
        ExclusiveBarrier {
            inner: Mutex::default(),
            cond: Condvar::default(),
            running_hint: AtomicUsize::new(0),
            pending: AtomicBool::new(false),
            holder: AtomicU32::new(NO_HOLDER),
            halted: AtomicBool::new(false),
            sections: AtomicU64::new(0),
            wait_ns_total: AtomicU64::new(0),
            spun: AtomicU64::new(0),
            slept: AtomicU64::new(0),
            spin_budget: budget,
            spin_cpus: cpus,
        }
    }

    fn lock(&self) -> Locked<'_> {
        Locked {
            barrier: self,
            inner: self.inner.lock(),
        }
    }

    /// Registers the calling vCPU thread as running. Must be paired with
    /// [`ExclusiveBarrier::unregister`].
    pub fn register(&self) {
        let mut inner = self.lock();
        // A newly arriving vCPU may not start running mid-exclusive.
        while inner.exclusive_active && !self.halted() {
            inner.wait();
        }
        inner.registered += 1;
        let running = inner.running;
        inner.set_running(running + 1);
    }

    /// Unregisters the calling vCPU (at guest exit or fatal trap), waking
    /// any exclusive requester that was waiting on it.
    pub fn unregister(&self) {
        let mut inner = self.lock();
        inner.registered -= 1;
        let running = inner.running;
        inner.set_running(running - 1);
        inner.notify();
    }

    /// Enters an exclusive section: waits until every other registered
    /// vCPU is parked, then returns with exclusivity held. Returns the
    /// nanoseconds spent waiting (the requester side of the "exclusive"
    /// profile bucket), or [`Halted`] if [`ExclusiveBarrier::halt`]
    /// fired — in which case the section was **not** entered and the
    /// caller must not run its critical work.
    ///
    /// Concurrent requesters serialize; while waiting for another
    /// requester, the caller counts as parked so the two cannot deadlock.
    #[must_use = "add the returned wait time to VcpuStats::exclusive_ns"]
    pub fn start_exclusive(&self) -> Result<u64, Halted> {
        let start = Instant::now();
        let mut inner = self.lock();
        // Park while another exclusive section runs.
        inner.park();
        // A requester woken from the park above by `halt()` must observe
        // the halt *before* claiming the section: the previous holder may
        // still be mid-critical-work (wedged), and the watchdog already
        // declared the stop-the-world protocol dead.
        if self.halted() {
            return Err(Halted);
        }
        inner.exclusive_active = true;
        self.pending.store(true, Ordering::SeqCst);
        let waited_for_peers = inner.running > 1;
        if waited_for_peers && inner.registered <= self.spin_cpus {
            // The claim is published; peers park without the lock being
            // held here, and the count is re-checked once it is retaken.
            drop(inner);
            self.spin_until_stopped();
            inner = self.lock();
        }
        let mut slept = false;
        while inner.running > 1 && !self.halted() {
            slept = true;
            inner.wait();
        }
        if self.halted() {
            // Claimed, but the world never finished stopping. Undo the
            // claim so late safepoint checks and `end_exclusive` debug
            // assertions see a consistent barrier, then report failure.
            inner.exclusive_active = false;
            self.pending.store(false, Ordering::SeqCst);
            inner.notify();
            return Err(Halted);
        }
        drop(inner);
        let waited = start.elapsed().as_nanos() as u64;
        self.sections.fetch_add(1, Ordering::Relaxed);
        self.wait_ns_total.fetch_add(waited, Ordering::Relaxed);
        // Release pairs with the Acquire loads in `telemetry`: a sampler
        // that sees this entry in `spun`/`slept` also sees it in
        // `sections`, so `spun + slept <= sections` holds mid-run too.
        if slept {
            self.slept.fetch_add(1, Ordering::Release);
        } else if waited_for_peers {
            self.spun.fetch_add(1, Ordering::Release);
        }
        Ok(waited)
    }

    /// The requester's spin: returns once the running mirror shows every
    /// other vCPU parked, the machine halts, or the budget runs out. The
    /// caller decides under the lock; this only saves the sleep.
    fn spin_until_stopped(&self) {
        let deadline = Instant::now() + self.spin_budget;
        loop {
            for _ in 0..64 {
                if self.running_hint.load(Ordering::Relaxed) <= 1 || self.halted() {
                    return;
                }
                std::hint::spin_loop();
            }
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    /// Like [`ExclusiveBarrier::start_exclusive`], but records `tid` as the
    /// section's holder so that the holder's own safepoints
    /// ([`ExclusiveBarrier::safepoint_for`]) pass through. Required when an
    /// exclusive section spans block dispatches (degraded-HTM regions):
    /// the holder crosses its own safepoint while the section is active.
    #[must_use = "add the returned wait time to VcpuStats::exclusive_ns"]
    pub fn start_exclusive_as(&self, tid: u32) -> Result<u64, Halted> {
        let waited = self.start_exclusive()?;
        self.holder.store(tid, Ordering::SeqCst);
        Ok(waited)
    }

    /// Leaves the exclusive section entered by
    /// [`ExclusiveBarrier::start_exclusive`], resuming all parked vCPUs.
    pub fn end_exclusive(&self) {
        let mut inner = self.lock();
        debug_assert!(inner.exclusive_active || self.halted());
        self.holder.store(NO_HOLDER, Ordering::SeqCst);
        inner.exclusive_active = false;
        self.pending.store(false, Ordering::SeqCst);
        inner.notify();
    }

    /// The safepoint polled at every block boundary: parks the caller for
    /// the duration of any pending exclusive section. Returns the
    /// nanoseconds spent parked (zero on the overwhelmingly common fast
    /// path, which is a single atomic load).
    #[inline]
    #[must_use = "add the returned park time to VcpuStats::exclusive_ns"]
    pub fn safepoint(&self) -> u64 {
        if !self.pending.load(Ordering::SeqCst) {
            return 0;
        }
        self.park_slow()
    }

    /// Holder-aware safepoint: behaves like
    /// [`ExclusiveBarrier::safepoint`], except that when `tid` itself owns
    /// the active exclusive section (entered via
    /// [`ExclusiveBarrier::start_exclusive_as`]) the call is a no-op —
    /// the holder must not park at its own safepoint.
    #[inline]
    #[must_use = "add the returned park time to VcpuStats::exclusive_ns"]
    pub fn safepoint_for(&self, tid: u32) -> u64 {
        if !self.pending.load(Ordering::SeqCst) {
            return 0;
        }
        if self.holder.load(Ordering::SeqCst) == tid {
            return 0;
        }
        self.park_slow()
    }

    #[cold]
    fn park_slow(&self) -> u64 {
        let start = Instant::now();
        self.lock().park();
        start.elapsed().as_nanos() as u64
    }

    /// Whether an exclusive section is pending or active (used by tests
    /// and by handlers that must avoid blocking across safepoints).
    pub fn exclusive_pending(&self) -> bool {
        self.pending.load(Ordering::SeqCst)
    }

    /// A point-in-time view of the cumulative counters; safe to call from
    /// a sampler thread while vCPUs run.
    pub fn telemetry(&self) -> ExclusiveTelemetry {
        // `spun`/`slept` first: see the Release side in `start_exclusive`.
        let spun = self.spun.load(Ordering::Acquire);
        let slept = self.slept.load(Ordering::Acquire);
        ExclusiveTelemetry {
            sections: self.sections.load(Ordering::Relaxed),
            wait_ns: self.wait_ns_total.load(Ordering::Relaxed),
            spun,
            slept,
        }
    }

    /// Watchdog teardown: releases every wait loop in the barrier so
    /// stalled vCPU threads drain and exit instead of hanging forever.
    /// After `halt()`, exclusivity guarantees no longer hold — callers
    /// are expected to abandon guest execution and report failure.
    pub fn halt(&self) {
        self.halted.store(true, Ordering::SeqCst);
        self.lock().notify();
    }

    /// Clears a previous [`ExclusiveBarrier::halt`], restoring normal
    /// blocking behaviour (used by tests that reuse a barrier).
    pub fn reset_halt(&self) {
        self.halted.store(false, Ordering::SeqCst);
    }

    /// Whether [`ExclusiveBarrier::halt`] has fired.
    #[inline]
    pub fn halted(&self) -> bool {
        self.halted.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_enters_immediately() {
        let b = ExclusiveBarrier::new();
        b.register();
        let waited = b.start_exclusive().unwrap();
        b.end_exclusive();
        b.unregister();
        assert!(waited < 1_000_000_000);
    }

    #[test]
    fn telemetry_counts_entered_sections() {
        let b = ExclusiveBarrier::new();
        assert_eq!(b.telemetry(), ExclusiveTelemetry::default());
        b.register();
        let waited = b.start_exclusive().unwrap();
        b.end_exclusive();
        b.unregister();
        let t = b.telemetry();
        assert_eq!(t.sections, 1);
        assert_eq!(t.wait_ns, waited);
        assert_eq!((t.spun, t.slept), (0, 0), "no peer to wait for");
        assert!(t.to_json().starts_with("{\"sections\":1,\"wait_ns\":"));
        assert!(t.to_json().ends_with(",\"spun\":0,\"slept\":0}"));
    }

    /// A requester spin budget long enough that no entry in these tests
    /// falls back to the condvar unless the spin rule forbids spinning.
    const LONG_SPIN: Duration = Duration::from_secs(60);

    /// Whether `n` registered vCPUs fit on the host's CPUs, so that a
    /// requester may spin.
    fn host_allows_spin(n: usize) -> bool {
        n <= host_cpus()
    }

    /// An exclusive section must be atomic with respect to work done
    /// between safepoints by other threads. `threads` vCPUs (one
    /// observer requesting sections, the rest working) stay registered
    /// until the observer is done, so the spin rule sees a fixed count.
    fn check_exclusion(barrier: ExclusiveBarrier, threads: usize) -> ExclusiveTelemetry {
        const EXCLUSIVE_ROUNDS: usize = 200;
        let barrier = Arc::new(barrier);
        let counter = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(threads));

        let mut handles = Vec::new();
        for _ in 1..threads {
            let (barrier, counter) = (Arc::clone(&barrier), Arc::clone(&counter));
            let (done, start) = (Arc::clone(&done), Arc::clone(&start));
            handles.push(std::thread::spawn(move || {
                barrier.register();
                start.wait();
                while !done.load(Ordering::SeqCst) {
                    let _ = barrier.safepoint();
                    // Non-atomic read-modify-write "guest work"; only safe
                    // if exclusive sections truly stop the world.
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                barrier.unregister();
            }));
        }

        let mut stable_reads = 0;
        barrier.register();
        start.wait();
        for _ in 0..EXCLUSIVE_ROUNDS {
            let _ = barrier.safepoint();
            let _ = barrier.start_exclusive().unwrap();
            // While exclusive, the counter must not move.
            let before = counter.load(Ordering::Relaxed);
            for _ in 0..50 {
                std::hint::spin_loop();
            }
            let after = counter.load(Ordering::Relaxed);
            if before == after {
                stable_reads += 1;
            }
            barrier.end_exclusive();
        }
        done.store(true, Ordering::SeqCst);
        barrier.unregister();

        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            stable_reads, EXCLUSIVE_ROUNDS,
            "counter moved during an exclusive section"
        );
        let t = barrier.telemetry();
        assert_eq!(t.sections, EXCLUSIVE_ROUNDS as u64);
        assert!(t.spun + t.slept <= t.sections, "{t:?}");
        t
    }

    #[test]
    fn exclusive_section_excludes_other_workers() {
        check_exclusion(ExclusiveBarrier::new(), 5);
    }

    /// Two vCPUs fit on a multi-core host: the requester spins, and with
    /// a budget it cannot exhaust, never sleeps.
    #[test]
    fn exclusion_holds_on_the_spin_path() {
        let t = check_exclusion(ExclusiveBarrier::with_spin(LONG_SPIN, host_cpus()), 2);
        if host_allows_spin(2) {
            assert_eq!(t.slept, 0, "{t:?}");
            assert!(t.spun > 0, "the worker never had to be waited for: {t:?}");
        }
    }

    /// Four vCPUs per host CPU oversubscribe it: the requester must
    /// sleep at once, never spin.
    #[test]
    fn exclusion_holds_on_the_park_path() {
        let t = check_exclusion(ExclusiveBarrier::new(), 4 * host_cpus());
        assert_eq!(t.spun, 0, "an oversubscribed requester spun: {t:?}");
    }

    /// `threads` requesters competing for exclusivity must all complete
    /// (the park-while-waiting logic prevents deadlock). Each stays
    /// registered, passing safepoints, until every requester is done.
    fn check_serialization(barrier: ExclusiveBarrier, threads: usize) -> ExclusiveTelemetry {
        const ROUNDS: usize = 500;
        let barrier = Arc::new(barrier);
        let finished = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(std::sync::Barrier::new(threads));
        let mut handles = Vec::new();
        for _ in 0..threads {
            let (barrier, finished) = (Arc::clone(&barrier), Arc::clone(&finished));
            let start = Arc::clone(&start);
            handles.push(std::thread::spawn(move || {
                barrier.register();
                start.wait();
                for _ in 0..ROUNDS {
                    let _ = barrier.safepoint();
                    let _ = barrier.start_exclusive().unwrap();
                    barrier.end_exclusive();
                }
                finished.fetch_add(1, Ordering::SeqCst);
                while finished.load(Ordering::SeqCst) < threads {
                    let _ = barrier.safepoint();
                    std::hint::spin_loop();
                }
                barrier.unregister();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = barrier.telemetry();
        assert_eq!(t.sections, (threads * ROUNDS) as u64);
        assert!(t.spun + t.slept <= t.sections, "{t:?}");
        t
    }

    #[test]
    fn concurrent_requesters_serialize() {
        check_serialization(ExclusiveBarrier::new(), 4);
    }

    #[test]
    fn requesters_serialize_on_the_spin_path() {
        let t = check_serialization(ExclusiveBarrier::with_spin(LONG_SPIN, host_cpus()), 2);
        if host_allows_spin(2) {
            assert_eq!(t.slept, 0, "{t:?}");
        }
    }

    #[test]
    fn requesters_serialize_on_the_park_path() {
        let t = check_serialization(ExclusiveBarrier::new(), 4 * host_cpus());
        assert_eq!(t.spun, 0, "an oversubscribed requester spun: {t:?}");
    }

    /// Blocks until `barrier`'s requester has claimed the section and
    /// released the lock to spin.
    fn await_spinning_requester(barrier: &ExclusiveBarrier) {
        while !barrier.exclusive_pending() || barrier.inner.try_lock().is_none() {
            std::hint::spin_loop();
        }
    }

    /// A vCPU that unregisters while the requester spins releases it
    /// without a condvar wake.
    #[test]
    fn unregister_releases_a_spinning_requester() {
        let barrier = Arc::new(ExclusiveBarrier::with_spin(LONG_SPIN, usize::MAX));
        barrier.register(); // main: a peer that exits instead of parking
        barrier.register(); // the requester thread's slot
        let requester = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let waited = barrier.start_exclusive();
                barrier.end_exclusive();
                waited
            })
        };
        await_spinning_requester(&barrier);
        barrier.unregister();
        assert!(requester.join().unwrap().is_ok());
        let t = barrier.telemetry();
        assert_eq!((t.sections, t.spun, t.slept), (1, 1, 0), "{t:?}");
        barrier.unregister();
    }

    /// With more vCPUs registered than the barrier may spin for, the
    /// requester sleeps at once and the condvar wake releases it.
    #[test]
    fn oversubscribed_requester_sleeps() {
        let barrier = Arc::new(ExclusiveBarrier::with_spin(LONG_SPIN, 1));
        barrier.register(); // main
        barrier.register(); // the requester thread's slot
        let requester = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let waited = barrier.start_exclusive();
                barrier.end_exclusive();
                waited
            })
        };
        // The requester sleeps on the condvar, so it releases the lock
        // just as a spinner would; the count tells the two apart.
        await_spinning_requester(&barrier);
        barrier.unregister();
        assert!(requester.join().unwrap().is_ok());
        let t = barrier.telemetry();
        assert_eq!((t.sections, t.spun, t.slept), (1, 0, 1), "{t:?}");
        barrier.unregister();
    }

    /// `halt()` fired while the requester spins: it reports [`Halted`],
    /// and the claim is undone.
    #[test]
    fn halt_during_spin_undoes_the_claim() {
        let barrier = Arc::new(ExclusiveBarrier::with_spin(LONG_SPIN, usize::MAX));
        barrier.register(); // main: a peer that never parks
        barrier.register(); // the requester thread's slot
        let requester = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || barrier.start_exclusive())
        };
        await_spinning_requester(&barrier);
        barrier.halt();
        assert_eq!(requester.join().unwrap(), Err(Halted));
        assert!(
            !barrier.exclusive_pending(),
            "a halted spinning requester left the pending flag set"
        );
        assert_eq!(barrier.telemetry(), ExclusiveTelemetry::default());
        barrier.unregister();
        barrier.unregister();
    }

    /// A vCPU that exits while another requests exclusivity must not hang
    /// the requester.
    #[test]
    fn exit_wakes_requester() {
        let barrier = Arc::new(ExclusiveBarrier::new());
        barrier.register(); // main
        let worker = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.register();
                std::thread::sleep(std::time::Duration::from_millis(20));
                barrier.unregister(); // exits without ever parking
            })
        };
        // The point is deadlock-freedom: the requester must return even
        // though the worker never parks (it exits instead). The wait
        // duration itself is scheduling-dependent, so it is not asserted.
        let _waited = barrier.start_exclusive().unwrap();
        barrier.end_exclusive();
        barrier.unregister();
        worker.join().unwrap();
    }

    /// A vCPU registering while an exclusive section is active must park
    /// until the section ends — it may not start running mid-exclusive.
    #[test]
    fn register_during_exclusive_parks_until_end() {
        let barrier = Arc::new(ExclusiveBarrier::new());
        barrier.register(); // main
        let _ = barrier.start_exclusive().unwrap();

        let registered = Arc::new(AtomicBool::new(false));
        let late = {
            let barrier = Arc::clone(&barrier);
            let registered = Arc::clone(&registered);
            std::thread::spawn(move || {
                barrier.register(); // must block here
                registered.store(true, Ordering::SeqCst);
                barrier.unregister();
            })
        };

        // Give the late arrival ample time to (incorrectly) get through.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !registered.load(Ordering::SeqCst),
            "a vCPU registered while an exclusive section was active"
        );

        barrier.end_exclusive();
        late.join().unwrap();
        assert!(registered.load(Ordering::SeqCst));
        barrier.unregister();
    }

    /// The holder of a named exclusive section passes through its own
    /// safepoint, while a bystander parks.
    #[test]
    fn holder_safepoint_is_a_no_op() {
        let barrier = ExclusiveBarrier::new();
        barrier.register();
        let _ = barrier.start_exclusive_as(7).unwrap();
        assert!(barrier.exclusive_pending());
        // The holder's safepoint must return immediately (no park, hence
        // effectively zero wait) even though an exclusive is pending.
        let waited = barrier.safepoint_for(7);
        assert_eq!(waited, 0);
        barrier.end_exclusive();
        barrier.unregister();
    }

    /// `halt()` must release a parked safepoint waiter even though the
    /// exclusive section never ends.
    #[test]
    fn halt_releases_parked_waiters() {
        let barrier = Arc::new(ExclusiveBarrier::new());
        barrier.register(); // main (will hold exclusivity forever)
        let waiter = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.register();
                // Wait until the exclusive request is pending, then park.
                while !barrier.exclusive_pending() {
                    std::hint::spin_loop();
                }
                let _ = barrier.safepoint();
                barrier.unregister();
            })
        };
        let _ = barrier.start_exclusive().unwrap();
        // Never end_exclusive: simulate a wedged holder. The watchdog
        // path must still free the parked waiter.
        barrier.halt();
        waiter.join().unwrap();
        barrier.end_exclusive();
        barrier.unregister();
    }

    /// Halt/park race regression: a requester parked inside
    /// `start_exclusive` (waiting out another holder's section) that is
    /// woken by `halt()` must observe the halt and report [`Halted`] —
    /// it must **not** claim the section and run "exclusively" against
    /// an unstopped world, which is what the pre-fix code did.
    #[test]
    fn halted_requester_never_claims_the_section() {
        let barrier = Arc::new(ExclusiveBarrier::new());
        barrier.register(); // main (the wedged holder)
        barrier.register(); // the requester thread's slot

        let requester = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Let main claim the section first, then park in
                // start_exclusive's first wait loop behind it.
                while !barrier.exclusive_pending() {
                    std::hint::spin_loop();
                }
                barrier.start_exclusive()
            })
        };

        // Granted once the requester parks; then wedge and halt.
        let _ = barrier.start_exclusive().unwrap();
        barrier.halt();

        let granted = requester.join().unwrap();
        assert_eq!(
            granted,
            Err(Halted),
            "a requester parked across halt() re-entered the exclusive section"
        );
        assert!(
            barrier.exclusive_pending(),
            "the failed requester must not have torn down the holder's section"
        );
        barrier.end_exclusive();
        barrier.unregister();
        barrier.unregister();
    }

    /// Same race on the second wait loop: the requester has claimed the
    /// section but `halt()` fires before the world finishes stopping.
    /// The claim must be undone (no dangling `pending` flag) and the
    /// requester told [`Halted`].
    #[test]
    fn halt_during_world_stop_undoes_the_claim() {
        let barrier = Arc::new(ExclusiveBarrier::new());
        barrier.register(); // main
        barrier.register(); // a peer that never parks

        let requester = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || barrier.start_exclusive())
        };
        // The requester claims immediately (no active section) and then
        // waits for the peer — which never parks. Halt it loose.
        while !barrier.exclusive_pending() {
            std::hint::spin_loop();
        }
        barrier.halt();
        assert_eq!(requester.join().unwrap(), Err(Halted));
        assert!(
            !barrier.exclusive_pending(),
            "a halted half-claimed section left the pending flag set"
        );
        barrier.unregister();
        barrier.unregister();
    }

    /// `start_exclusive_as` propagates the halt without naming a holder.
    #[test]
    fn halted_named_requester_sets_no_holder() {
        let barrier = ExclusiveBarrier::new();
        barrier.register();
        barrier.halt();
        assert_eq!(barrier.start_exclusive_as(3), Err(Halted));
        // No section, no holder: a bystander safepoint passes through.
        assert_eq!(barrier.safepoint_for(9), 0);
        barrier.reset_halt();
        barrier.unregister();
    }
}
