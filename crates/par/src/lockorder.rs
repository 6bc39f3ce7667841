//! Rank-annotated lock wrappers with a runtime lock-order witness.
//!
//! `rll-lint`'s static lock-graph analysis (DESIGN.md §14) proves the
//! *declared* acquisition order acyclic; this module is the dynamic half of
//! that contract. Every shared lock in the workspace is declared through
//! [`OrderedMutex`] / [`OrderedRwLock`] with a `&'static str` name and a
//! `u32` **rank**, and the witness asserts at every acquisition that ranks
//! only ever *increase* down the stack of locks a single thread holds.
//! Together the two checks close the gap between the static model and the
//! running system: the linter sees every syntactic acquisition site, the
//! witness sees every dynamic interleaving the test gates actually execute.
//!
//! The witness is **on in debug builds** (so `cargo test` exercises it for
//! free) and **off in release** unless `RLL_LOCK_WITNESS=1` is set — the
//! check.sh serve-smoke and crash-safety gates export it, so release
//! binaries are witnessed exactly where the repo's determinism and
//! crash-resume contracts are gated. Setting `RLL_LOCK_WITNESS=0` force-
//! disables it even in debug builds.
//!
//! A rank inversion is a *programming error* (a latent deadlock), not a
//! runtime condition to recover from, so the witness panics with the full
//! held-lock stack. Poisoning is deliberately ignored throughout
//! (`unwrap_or_else(PoisonError::into_inner)`): a panicking thread must not
//! wedge its siblings, and every guarded structure in this workspace is
//! valid after any partial mutation.
//!
//! Ranks are declared as integer literals at the construction site —
//! `OrderedMutex::new("queue", 30, …)` — because `rll-lint` reads them
//! straight out of the source to cross-check the static lock graph against
//! the declared order. Leave gaps (10, 20, 30, …) so new locks slot in
//! without renumbering.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

/// Lifetime count of witness-validated acquisitions across all threads.
/// Tests (and the serve `/metrics` gauge) use this to prove the witness is
/// actually exercised, not just linked in.
static VALIDATIONS: AtomicU64 = AtomicU64::new(0);

/// Whether the runtime witness is active: debug builds default to on,
/// release builds to off; `RLL_LOCK_WITNESS=1`/`0` overrides either way.
/// Cached after the first read so the hot path pays one branch.
pub fn witness_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("RLL_LOCK_WITNESS") {
        Ok(v) => !matches!(v.trim(), "0" | "off" | "false" | ""),
        Err(_) => cfg!(debug_assertions),
    })
}

/// Number of acquisitions the witness has validated since process start.
/// Always 0 when [`witness_enabled`] is false.
pub fn validations() -> u64 {
    VALIDATIONS.load(Ordering::Relaxed)
}

/// One lock a thread currently holds: `(rank, name, serial)`. The serial
/// disambiguates multiple guards of equal rank/name so out-of-order drops
/// (explicit `drop(a)` before `b`) remove the right entry.
type Held = (u32, &'static str, u64);

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    static SERIAL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Witness bookkeeping for one live guard. `serial == u64::MAX` marks a
/// guard acquired while the witness was disabled (nothing to pop).
#[derive(Clone, Copy, Debug)]
struct Token {
    rank: u32,
    name: &'static str,
    serial: u64,
}

const UNTRACKED: u64 = u64::MAX;

/// Validates an acquisition of (`name`, `rank`) against the current thread's
/// held stack, records it, and returns the pop token.
fn witness_acquire(name: &'static str, rank: u32) -> Token {
    if !witness_enabled() {
        return Token {
            rank,
            name,
            serial: UNTRACKED,
        };
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(&(top_rank, top_name, _)) = held.iter().max_by_key(|&&(r, _, _)| r) {
            if rank <= top_rank {
                let stack: Vec<String> = held
                    .iter()
                    .map(|(r, n, _)| format!("{n}(rank {r})"))
                    .collect();
                // lint: allow(no-panic-lib) — the witness IS the assertion: a
                // rank inversion is a latent deadlock, a programming error that
                // must abort the gate loudly rather than surface as an error value.
                panic!(
                    "lock-order witness: acquiring {name}(rank {rank}) while holding \
                     {top_name}(rank {top_rank}) inverts the declared order; held: [{}]",
                    stack.join(", ")
                );
            }
        }
        let serial = SERIAL.with(|s| {
            let v = s.get();
            s.set(v + 1);
            v
        });
        held.push((rank, name, serial));
        VALIDATIONS.fetch_add(1, Ordering::Relaxed);
        Token { rank, name, serial }
    })
}

/// Removes the entry a token refers to. Searches from the end: guards
/// normally drop LIFO, so the common case is O(1).
fn witness_release(token: Token) {
    if token.serial == UNTRACKED {
        return;
    }
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&(_, _, s)| s == token.serial) {
            held.remove(pos);
        }
    });
}

/// A [`Mutex`] that participates in the workspace lock order. Acquisitions
/// are witness-checked (see the module docs); poisoning is ignored.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    name: &'static str,
    rank: u32,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Declares a lock at `rank`. `name` must match the field or binding the
    /// lock is stored in — `rll-lint` cross-checks the two and keys the
    /// static lock graph on it.
    pub fn new(name: &'static str, rank: u32, value: T) -> Self {
        OrderedMutex {
            name,
            rank,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, asserting the witness order. Blocks like
    /// [`Mutex::lock`]; a poisoned lock is recovered, not propagated.
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        // Acquire the OS lock first, then record: if `lock()` blocks, the
        // witness entry must not exist yet (we do not hold it while waiting).
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let token = witness_acquire(self.name, self.rank);
        OrderedGuard {
            inner: Some(inner),
            token,
        }
    }

    /// The declared lock name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The declared rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }
}

/// Guard returned by [`OrderedMutex::lock`]. Releases the witness entry on
/// drop. The `Option` is `Some` for the guard's whole life; it exists only
/// so [`OrderedCondvar::wait`] can move the inner guard out without running
/// the drop bookkeeping twice.
#[derive(Debug)]
pub struct OrderedGuard<'a, T> {
    inner: Option<MutexGuard<'a, T>>,
    token: Token,
}

impl<T> std::ops::Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // lint: allow(no-panic-lib) — structural invariant: `inner` is Some
        // from construction until drop/into_parts, both of which consume it.
        self.inner.as_ref().expect("guard is live")
    }
}

impl<T> std::ops::DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // lint: allow(no-panic-lib) — structural invariant: `inner` is Some
        // from construction until drop/into_parts, both of which consume it.
        self.inner.as_mut().expect("guard is live")
    }
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            witness_release(self.token);
        }
    }
}

impl<'a, T> OrderedGuard<'a, T> {
    /// Disassembles the guard without running its drop bookkeeping twice:
    /// pops the witness entry and hands back the raw [`MutexGuard`].
    fn into_parts(mut self) -> (MutexGuard<'a, T>, Token) {
        // lint: allow(no-panic-lib) — structural invariant: `inner` is Some
        // until this consuming call; drop then sees None and does nothing.
        let inner = self.inner.take().expect("guard is live");
        let token = self.token;
        witness_release(token);
        (inner, token)
    }
}

/// A [`Condvar`] mated to [`OrderedMutex`]. `wait` releases the witness
/// entry for the duration of the sleep — the thread genuinely does not hold
/// the lock — and re-asserts the order when the wait returns.
#[derive(Debug, Default)]
pub struct OrderedCondvar {
    inner: Condvar,
}

impl OrderedCondvar {
    /// A new condition variable.
    pub fn new() -> Self {
        OrderedCondvar {
            inner: Condvar::new(),
        }
    }

    /// Atomically releases `guard` and sleeps; re-acquires (re-validating
    /// the witness order) before returning, like [`Condvar::wait`].
    pub fn wait<'a, T>(&self, guard: OrderedGuard<'a, T>) -> OrderedGuard<'a, T> {
        let (inner, token) = guard.into_parts();
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        let token = witness_acquire(token.name, token.rank);
        OrderedGuard {
            inner: Some(inner),
            token,
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// An [`RwLock`] that participates in the workspace lock order. Read and
/// write acquisitions both go through the witness (a read-read recursion on
/// one thread is flagged too: with writer priority it can deadlock).
#[derive(Debug)]
pub struct OrderedRwLock<T> {
    name: &'static str,
    rank: u32,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Declares a reader-writer lock at `rank` (see [`OrderedMutex::new`]).
    pub fn new(name: &'static str, rank: u32, value: T) -> Self {
        OrderedRwLock {
            name,
            rank,
            inner: RwLock::new(value),
        }
    }

    /// Acquires a shared read guard, asserting the witness order.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let token = witness_acquire(self.name, self.rank);
        OrderedReadGuard { inner, token }
    }

    /// Acquires the exclusive write guard, asserting the witness order.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let token = witness_acquire(self.name, self.rank);
        OrderedWriteGuard { inner, token }
    }

    /// The declared lock name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The declared rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }
}

/// Shared guard returned by [`OrderedRwLock::read`].
#[derive(Debug)]
pub struct OrderedReadGuard<'a, T> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    token: Token,
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        witness_release(self.token);
    }
}

/// Exclusive guard returned by [`OrderedRwLock::write`].
#[derive(Debug)]
pub struct OrderedWriteGuard<'a, T> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    token: Token,
}

impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        witness_release(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn in_order_nesting_is_clean_and_counted() {
        let a = OrderedMutex::new("a", 10, 1u32);
        let b = OrderedMutex::new("b", 20, 2u32);
        let before = validations();
        {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
        }
        if witness_enabled() {
            assert!(validations() >= before + 2);
        } else {
            assert_eq!(validations(), 0, "an unarmed witness counts nothing");
        }
    }

    #[test]
    fn inverted_nesting_panics_with_held_stack() {
        let result = std::thread::spawn(|| {
            let hi = OrderedMutex::new("hi", 50, ());
            let lo = OrderedMutex::new("lo", 5, ());
            let _g_hi = hi.lock();
            let _g_lo = lo.lock(); // rank 5 under rank 50: inversion
        })
        .join();
        if !witness_enabled() {
            result.expect("an unarmed witness never panics");
            return;
        }
        let payload = result.expect_err("inversion must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("lock-order witness"), "got: {msg}");
        assert!(msg.contains("hi(rank 50)"), "held stack named: {msg}");
    }

    #[test]
    fn equal_rank_is_an_inversion_too() {
        let result = std::thread::spawn(|| {
            let a = OrderedMutex::new("a", 10, ());
            let b = OrderedMutex::new("b", 10, ());
            let _ga = a.lock();
            let _gb = b.lock();
        })
        .join();
        assert_eq!(
            result.is_err(),
            witness_enabled(),
            "two rank-10 locks on one thread must trip exactly when the witness is armed"
        );
    }

    #[test]
    fn out_of_order_drop_releases_the_right_entry() {
        let a = OrderedMutex::new("a", 10, ());
        let b = OrderedMutex::new("b", 20, ());
        let c = OrderedMutex::new("c", 30, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // drop the *lower* rank first
        let gc = c.lock(); // must still validate against {b} only
        drop(gb);
        drop(gc);
        // After everything dropped, a fresh low-rank acquisition is legal.
        let _ga2 = a.lock();
    }

    #[test]
    fn sequential_reacquisition_is_legal() {
        let a = OrderedMutex::new("a", 10, 0u32);
        for _ in 0..3 {
            let mut g = a.lock();
            *g += 1;
        }
        assert_eq!(*a.lock(), 3);
    }

    #[test]
    fn rwlock_read_then_higher_lock_is_clean() {
        let model = OrderedRwLock::new("model", 20, 7u32);
        let cache = OrderedMutex::new("cache", 40, 0u32);
        let gm = model.read();
        let mut gc = cache.lock();
        *gc = *gm;
        drop(gc);
        drop(gm);
        assert_eq!(*cache.lock(), 7);
        *model.write() = 9;
        assert_eq!(*model.read(), 9);
    }

    #[test]
    fn condvar_wait_releases_the_witness_entry() {
        // While thread 1 waits on `queue`, it must be able to... rather: the
        // waiting thread holds nothing, so a second thread can take a LOWER
        // rank lock and signal — exactly the serve worker/submitter shape.
        let queue = Arc::new(OrderedMutex::new("queue", 30, false));
        let cv = Arc::new(OrderedCondvar::new());
        let lower = Arc::new(OrderedMutex::new("model_swap", 20, ()));

        let waiter = {
            let queue = Arc::clone(&queue);
            let cv = Arc::clone(&cv);
            std::thread::spawn(move || {
                let mut ready = queue.lock();
                while !*ready {
                    ready = cv.wait(ready);
                }
                // Re-acquired after wait: witness entry restored, guard live.
                assert!(*ready);
            })
        };
        // Give the waiter a moment to park, then flip the flag.
        std::thread::sleep(std::time::Duration::from_millis(20));
        {
            let _g = lower.lock();
            *queue.lock() = true; // rank 30 over rank 20: legal order
            cv.notify_all();
        }
        waiter.join().expect("waiter exits cleanly");
    }

    #[test]
    fn names_and_ranks_are_reported() {
        let m = OrderedMutex::new("queue", 30, ());
        assert_eq!(m.name(), "queue");
        assert_eq!(m.rank(), 30);
        let rw = OrderedRwLock::new("model", 20, ());
        assert_eq!(rw.name(), "model");
        assert_eq!(rw.rank(), 20);
    }
}
