//! Deterministic fault injection for crash-safety tests.
//!
//! A *fault point* is a named place in production code that asks the
//! registry "should I fail here?" via [`check`]. Tests arm a point with a
//! [`FaultPlan`] — fail the Nth hit, truncate a write to a prefix, or
//! stall — and then drive the code under test; the injected failures are
//! exactly reproducible because triggering is hit-count based, never
//! time or randomness based.
//!
//! Plans are scoped, so tests running in parallel in one process never
//! see each other's faults. [`arm`] returns an [`Armed`] guard that
//! disarms the plan when dropped, and a plan is seen only by the thread
//! that armed it and by threads started through [`inherit`] from a thread
//! that can see it. The workspace's own thread spawns go through
//! [`inherit`], so a fault armed by a test reaches the worker threads the
//! code under test starts on its behalf.
//!
//! Without the `inject` cargo feature the registry is a stub: [`check`]
//! is a `const`-foldable `None`, [`inherit`] adds nothing to the closure
//! it wraps, and the hot paths carry no thread-locals or atomics at all. Test
//! targets turn the feature on through dev-dependencies, which cargo's
//! feature unification extends to the libraries under test.

/// What an armed fault point does when it triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Return an `io::Error` (kind `Other`, message names the point).
    Error,
    /// Write only the first `n` bytes of the buffer, then error — a torn
    /// write, as left by a crash mid-`write(2)`.
    ShortWrite(usize),
    /// Sleep this many milliseconds, then proceed normally — a stalled
    /// disk or peer.
    DelayMs(u64),
}

/// When and how a fault point misbehaves.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Hits to let through before triggering (0 = trigger on first hit).
    pub after: u64,
    /// The fault to inject once triggered.
    pub fault: Fault,
    /// Keep triggering on every subsequent hit (`false` = trigger once).
    pub sticky: bool,
}

impl FaultPlan {
    /// Fail the first hit and every hit after it.
    pub fn always(fault: Fault) -> FaultPlan {
        FaultPlan { after: 0, fault, sticky: true }
    }

    /// Fail exactly the `n`th hit (0-based), then behave normally.
    pub fn nth(n: u64, fault: Fault) -> FaultPlan {
        FaultPlan { after: n, fault, sticky: false }
    }
}

/// Converts a triggered fault into the error the caller should surface.
pub fn to_io_error(point: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {point}"))
}

#[cfg(any(test, feature = "inject"))]
mod imp {
    use super::{Fault, FaultPlan};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    struct Plan {
        scope: u64,
        /// Identifies one `arm` call, so a stale guard cannot disarm a
        /// later plan for the same point.
        id: u64,
        point: String,
        plan: FaultPlan,
        hits: u64,
    }

    /// Source of scope and plan ids; 0 is never handed out.
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    static REGISTRY: Mutex<Vec<Plan>> = Mutex::new(Vec::new());

    thread_local! {
        /// The fault scope this thread sees (0 = none: `check` is a
        /// single thread-local read).
        static SCOPE: Cell<u64> = const { Cell::new(0) };
    }

    fn registry() -> std::sync::MutexGuard<'static, Vec<Plan>> {
        // A test that panics while holding the lock must not wedge the
        // other tests in its process.
        REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn current_scope() -> u64 {
        SCOPE.with(Cell::get)
    }

    pub fn enter_scope(scope: u64) {
        SCOPE.with(|s| s.set(scope));
    }

    pub fn arm(point: &str, plan: FaultPlan) -> u64 {
        let mut scope = current_scope();
        if scope == 0 {
            scope = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            enter_scope(scope);
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let mut plans = registry();
        plans.retain(|p| !(p.scope == scope && p.point == point));
        plans.push(Plan { scope, id, point: point.to_string(), plan, hits: 0 });
        id
    }

    pub fn disarm(id: u64) {
        registry().retain(|p| p.id != id);
    }

    pub fn check(point: &str) -> Option<Fault> {
        let scope = current_scope();
        if scope == 0 {
            return None;
        }
        let mut plans = registry();
        let armed = plans.iter_mut().find(|p| p.scope == scope && p.point == point)?;
        let hit = armed.hits;
        armed.hits += 1;
        if hit < armed.plan.after {
            return None;
        }
        if hit > armed.plan.after && !armed.plan.sticky {
            return None;
        }
        Some(armed.plan.fault)
    }
}

#[cfg(not(any(test, feature = "inject")))]
mod imp {
    use super::{Fault, FaultPlan};

    pub fn arm(_point: &str, _plan: FaultPlan) -> u64 {
        panic!("v2v-fault built without the `inject` feature; enable it in dev-dependencies");
    }

    pub fn disarm(_id: u64) {}

    #[inline(always)]
    pub fn current_scope() -> u64 {
        0
    }

    #[inline(always)]
    pub fn enter_scope(_scope: u64) {}

    #[inline(always)]
    pub fn check(_point: &str) -> Option<Fault> {
        None
    }
}

/// A live plan; dropping it disarms the plan.
#[must_use = "the plan is disarmed as soon as the guard is dropped"]
#[derive(Debug)]
pub struct Armed {
    id: u64,
}

impl Drop for Armed {
    fn drop(&mut self) {
        imp::disarm(self.id);
    }
}

/// Arms `point` with `plan` for the calling thread's scope (replacing any
/// plan the scope holds for `point`, hit count included) until the
/// returned guard drops. A thread that has no scope yet gets a fresh one.
/// Panics if the `inject` feature is off.
pub fn arm(point: &str, plan: FaultPlan) -> Armed {
    Armed { id: imp::arm(point, plan) }
}

/// Wraps a thread body so the new thread sees the fault plans of the
/// thread that calls `inherit`: `thread::spawn(inherit(move || ...))`.
#[inline]
pub fn inherit<T>(f: impl FnOnce() -> T + Send) -> impl FnOnce() -> T + Send {
    let scope = imp::current_scope();
    move || {
        imp::enter_scope(scope);
        f()
    }
}

/// Production-side hook: returns the fault to inject at `point`, if any,
/// advancing the point's hit counter. `None` always when nothing is armed
/// in the calling thread's scope.
#[inline]
pub fn check(point: &str) -> Option<Fault> {
    imp::check(point)
}

/// Applies a triggered [`Fault::DelayMs`] and maps the others onto
/// `Result`, for call sites that only need fail/delay semantics.
pub fn apply(point: &str) -> std::io::Result<()> {
    match check(point) {
        None => Ok(()),
        Some(Fault::DelayMs(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(_) => Err(to_io_error(point)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_pass() {
        assert_eq!(check("inj.test.unarmed"), None);
        assert!(apply("inj.test.unarmed2").is_ok());
    }

    #[test]
    fn always_triggers_until_the_guard_drops() {
        let armed = arm("inj.test.always", FaultPlan::always(Fault::Error));
        assert_eq!(check("inj.test.always"), Some(Fault::Error));
        assert_eq!(check("inj.test.always"), Some(Fault::Error));
        drop(armed);
        assert_eq!(check("inj.test.always"), None);
    }

    #[test]
    fn nth_triggers_exactly_once() {
        let _armed = arm("inj.test.nth", FaultPlan::nth(2, Fault::ShortWrite(3)));
        assert_eq!(check("inj.test.nth"), None);
        assert_eq!(check("inj.test.nth"), None);
        assert_eq!(check("inj.test.nth"), Some(Fault::ShortWrite(3)));
        assert_eq!(check("inj.test.nth"), None);
    }

    #[test]
    fn apply_maps_error_and_delay() {
        let armed = arm("inj.test.apply", FaultPlan::always(Fault::Error));
        let err = apply("inj.test.apply").unwrap_err();
        assert!(err.to_string().contains("inj.test.apply"));
        drop(armed);

        let _armed = arm("inj.test.delay", FaultPlan::always(Fault::DelayMs(1)));
        assert!(apply("inj.test.delay").is_ok());
    }

    #[test]
    fn rearming_resets_hit_count_and_outlives_the_old_guard() {
        let first = arm("inj.test.rearm", FaultPlan::nth(1, Fault::Error));
        assert_eq!(check("inj.test.rearm"), None);
        let _second = arm("inj.test.rearm", FaultPlan::nth(1, Fault::Error));
        drop(first);
        assert_eq!(check("inj.test.rearm"), None, "hit count must reset on re-arm");
        assert_eq!(check("inj.test.rearm"), Some(Fault::Error), "old guard disarmed the new plan");
    }

    /// The same point armed on two threads at once: each sees only its
    /// own plan, and a thread that armed nothing sees neither.
    #[test]
    fn plans_are_scoped_to_the_arming_thread() {
        let _armed = arm("inj.test.scoped", FaultPlan::always(Fault::Error));
        let other = std::thread::spawn(|| {
            let unarmed = check("inj.test.scoped");
            let _own = arm("inj.test.scoped", FaultPlan::always(Fault::DelayMs(1)));
            (unarmed, check("inj.test.scoped"))
        });
        assert_eq!(other.join().unwrap(), (None, Some(Fault::DelayMs(1))));
        assert_eq!(check("inj.test.scoped"), Some(Fault::Error));
    }

    /// Threads started through `inherit` share the arming thread's plans,
    /// hit count included.
    #[test]
    fn inherited_threads_see_the_plan() {
        let _armed = arm("inj.test.inherit", FaultPlan::nth(1, Fault::Error));
        assert_eq!(check("inj.test.inherit"), None);
        let child = std::thread::spawn(inherit(|| check("inj.test.inherit")));
        assert_eq!(child.join().unwrap(), Some(Fault::Error));
        assert_eq!(check("inj.test.inherit"), None, "nth plans trigger once across threads");
    }
}
