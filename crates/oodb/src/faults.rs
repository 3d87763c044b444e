//! Deterministic fault injection: a dependency-free failpoint registry.
//!
//! The view pipeline built in PRs 1–3 assumes every store mutation, journal
//! read, index lookup, and population recompute succeeds. A production-scale
//! system (ROADMAP north star) must *prove* it survives when they do not —
//! which requires making them fail **on demand and deterministically**. This
//! module is that switchboard: code declares named failpoint *sites* with
//! [`failpoint!`](crate::failpoint), and a test (or the chaos harness mode,
//! or `ovq .faults`) arms a site with a *schedule* — fail at exactly the Nth
//! hit, or with a seeded-RNG probability — and an *action*: return a typed
//! error, sleep, or panic.
//!
//! ## Design
//!
//! * **Disabled path is one relaxed atomic load**, the same discipline as
//!   [`crate::trace`] — proved by `disabled_path_touches_nothing` below.
//!   The registry mutex is touched only while some site is armed.
//! * **Deterministic.** Probability mode draws from a per-site SplitMix64
//!   stream seeded from `global_seed ^ fnv(site)`; each hit atomically
//!   consumes one draw, so a given seed produces the same multiset of
//!   fire/no-fire decisions per site regardless of thread interleaving.
//! * **Typed.** A firing site yields [`InjectedFault`], a real
//!   `std::error::Error` carried by [`OodbError::Fault`](crate::OodbError)
//!   — so injected failures travel the same `source()` chains as organic
//!   ones and degradation logic can tell them apart by variant.
//! * **Observable.** Every fire bumps `faults.injected` in
//!   [`crate::metrics`] and emits a `fault.injected` span into the flight
//!   recorder.
//!
//! ## Sites
//!
//! | site | layer |
//! |---|---|
//! | `store.insert` / `store.update` / `store.set_field` / `store.remove` | store mutations |
//! | `store.changes_since` | journal delta serving |
//! | `store.index_lookup` | secondary-index lookups |
//! | `view.population_recompute` | virtual-class population recompute |
//! | `wal.append` | WAL record append (fails before any bytes are written) |
//! | `wal.torn_write` | WAL append that writes only a partial frame (crash mid-write) |
//! | `wal.fsync` | WAL group-commit fsync |
//! | `checkpoint.write` | snapshot temp-file write |
//! | `checkpoint.rename` | snapshot atomic rename (crash before commit) |

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::OodbError;

/// Master switch: `true` iff at least one site is armed. Reading it is the
/// *entire* cost of the disabled path.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Is any failpoint armed? One relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// What an armed failpoint does when its schedule fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Return an [`InjectedFault`] error from the site.
    Error,
    /// Sleep for the given duration, then succeed (latency injection).
    Delay(Duration),
    /// Panic at the site (exercises `catch_unwind` conversion paths).
    Panic,
}

/// When an armed failpoint fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSchedule {
    /// Fire on exactly the `nth` hit (1-based) after arming.
    Nth(u64),
    /// Fire on every hit from the `nth` (1-based) onward.
    From(u64),
    /// Fire independently on each hit with probability `p`, drawn from the
    /// site's seeded stream.
    Probability(f64),
}

/// The error produced by a firing failpoint.
///
/// Deliberately a struct (not a variant of [`OodbError`] directly) so that
/// `OodbError::Fault(InjectedFault)` has a real `source()` and the unified
/// `objects_and_views::Error` chain bottoms out in a distinct type that
/// a caller can `downcast_ref` for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: &'static str,
    /// The hit ordinal (1-based) at which it fired.
    pub hit: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at `{}` (hit #{})", self.site, self.hit)
    }
}

impl std::error::Error for InjectedFault {}

impl From<InjectedFault> for OodbError {
    fn from(f: InjectedFault) -> OodbError {
        OodbError::Fault(f)
    }
}

/// SplitMix64 step — the same generator as the vendored `rand` shim, inlined
/// here so the registry stays dependency-free inside `ov-oodb`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site name: folds the site into the seed so distinct
/// sites armed from one global seed draw from distinct streams.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

#[derive(Clone, Debug)]
struct Site {
    schedule: FaultSchedule,
    action: FaultAction,
    /// Hits since this site was armed.
    hits: u64,
    /// Times the schedule fired.
    fired: u64,
    /// Per-site RNG stream (probability mode).
    rng: u64,
}

#[derive(Default)]
struct Registry {
    /// Global seed the per-site streams derive from.
    seed: u64,
    sites: BTreeMap<&'static str, Site>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

/// Sets the global seed for probability-mode streams. Sites armed *after*
/// this call derive their stream from the new seed; re-arming a site
/// restarts its stream. Defaults to 0.
pub fn set_seed(seed: u64) {
    registry().lock().seed = seed;
}

/// Arms `site` with a schedule and action. Re-arming replaces the previous
/// configuration and resets the site's hit count and RNG stream.
pub fn arm(site: &'static str, schedule: FaultSchedule, action: FaultAction) {
    if let FaultSchedule::Probability(p) = schedule {
        assert!((0.0..=1.0).contains(&p), "fault probability out of [0,1]");
    }
    let mut reg = registry().lock();
    let rng = reg.seed ^ fnv1a(site);
    reg.sites.insert(
        site,
        Site {
            schedule,
            action,
            hits: 0,
            fired: 0,
            rng,
        },
    );
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms `site`. Other sites stay armed.
pub fn disarm(site: &str) {
    let mut reg = registry().lock();
    reg.sites.remove(site);
    if reg.sites.is_empty() {
        ARMED.store(false, Ordering::Relaxed);
    }
}

/// Disarms every site and restores the zero-cost disabled path.
pub fn clear() {
    let mut reg = registry().lock();
    reg.sites.clear();
    ARMED.store(false, Ordering::Relaxed);
}

/// Per-site status: `(site, hits, fired)` for every armed site, sorted by
/// name. For `.faults status` and test assertions.
pub fn status() -> Vec<(&'static str, u64, u64)> {
    registry()
        .lock()
        .sites
        .iter()
        .map(|(name, s)| (*name, s.hits, s.fired))
        .collect()
}

/// The slow path of [`hit`]: decide whether the armed schedule fires, and
/// apply the action. Out of line so the armed check inlines tight.
#[cold]
fn hit_armed(site: &'static str) -> Result<(), InjectedFault> {
    // Decide under the lock; act (sleep / panic) outside it.
    let decision = {
        let mut reg = registry().lock();
        let Some(s) = reg.sites.get_mut(site) else {
            return Ok(());
        };
        s.hits += 1;
        let fire = match s.schedule {
            FaultSchedule::Nth(n) => s.hits == n,
            FaultSchedule::From(n) => s.hits >= n,
            FaultSchedule::Probability(p) => {
                let unit = (splitmix64(&mut s.rng) >> 11) as f64 / (1u64 << 53) as f64;
                unit < p
            }
        };
        if !fire {
            return Ok(());
        }
        s.fired += 1;
        (s.action, s.hits)
    };
    let (action, hits) = decision;
    let mut injected = crate::event::Event::FaultInjected.open();
    injected.field("site", site);
    injected.field("hit", hits);
    if let FaultAction::Delay(d) = action {
        std::thread::sleep(d);
    }
    injected.close(1);
    match action {
        FaultAction::Error => Err(InjectedFault { site, hit: hits }),
        FaultAction::Delay(_) => Ok(()),
        FaultAction::Panic => panic!("injected panic at failpoint `{site}` (hit #{hits})"),
    }
}

/// Evaluates the failpoint `site`: a no-op unless some site is armed.
/// Prefer the [`failpoint!`](crate::failpoint) macro at call sites.
#[inline(always)]
pub fn hit(site: &'static str) -> Result<(), InjectedFault> {
    if !enabled() {
        return Ok(());
    }
    hit_armed(site)
}

/// Declares a failpoint site. Expands to a `?`-propagated check: a no-op
/// (one relaxed atomic load) unless a fault schedule is armed. The
/// enclosing function's error type must implement `From<OodbError>` (or be
/// `OodbError` itself).
///
/// ```
/// use ov_oodb::{failpoint, OodbError};
/// fn mutate() -> Result<(), OodbError> {
///     failpoint!("doc.example");
///     Ok(())
/// }
/// assert!(mutate().is_ok());
/// ```
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        if $crate::faults::enabled() {
            $crate::faults::hit($site).map_err($crate::OodbError::Fault)?;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The registry is process-global; tests serialize here so they cannot
    /// observe each other's schedules (same pattern as `trace::tests`).
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: StdMutex<()> = StdMutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_path_touches_nothing() {
        let _l = test_lock();
        clear();
        // With nothing armed, hit() must not create registry entries or
        // count hits — the whole path is the one atomic load.
        assert!(hit("faults.test.cold").is_ok());
        assert!(status().is_empty());
        assert!(!enabled());
    }

    #[test]
    fn nth_schedule_fires_exactly_once() {
        let _l = test_lock();
        clear();
        arm("faults.test.nth", FaultSchedule::Nth(3), FaultAction::Error);
        assert!(hit("faults.test.nth").is_ok());
        assert!(hit("faults.test.nth").is_ok());
        let e = hit("faults.test.nth").unwrap_err();
        assert_eq!(e.site, "faults.test.nth");
        assert_eq!(e.hit, 3);
        assert!(hit("faults.test.nth").is_ok());
        assert_eq!(status(), vec![("faults.test.nth", 4, 1)]);
        clear();
    }

    #[test]
    fn from_schedule_fires_repeatedly() {
        let _l = test_lock();
        clear();
        arm(
            "faults.test.from",
            FaultSchedule::From(2),
            FaultAction::Error,
        );
        assert!(hit("faults.test.from").is_ok());
        assert!(hit("faults.test.from").is_err());
        assert!(hit("faults.test.from").is_err());
        clear();
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed() {
        let _l = test_lock();
        let run = |seed: u64| -> Vec<bool> {
            clear();
            set_seed(seed);
            arm(
                "faults.test.prob",
                FaultSchedule::Probability(0.5),
                FaultAction::Error,
            );
            (0..64).map(|_| hit("faults.test.prob").is_err()).collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must reproduce the same decisions");
        assert_ne!(a, c, "different seeds must diverge");
        assert!(a.iter().any(|&f| f) && !a.iter().all(|&f| f));
        clear();
        set_seed(0);
    }

    #[test]
    fn delay_action_succeeds_after_sleeping() {
        let _l = test_lock();
        clear();
        arm(
            "faults.test.delay",
            FaultSchedule::Nth(1),
            FaultAction::Delay(Duration::from_millis(5)),
        );
        let t0 = std::time::Instant::now();
        assert!(hit("faults.test.delay").is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(5));
        clear();
    }

    #[test]
    fn panic_action_panics_with_site_name() {
        let _l = test_lock();
        clear();
        arm(
            "faults.test.panic",
            FaultSchedule::Nth(1),
            FaultAction::Panic,
        );
        let r = std::panic::catch_unwind(|| {
            let _ = hit("faults.test.panic");
        });
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("faults.test.panic"));
        clear();
    }

    #[test]
    fn disarm_one_site_keeps_others_armed() {
        let _l = test_lock();
        clear();
        arm("faults.test.a", FaultSchedule::Nth(1), FaultAction::Error);
        arm("faults.test.b", FaultSchedule::Nth(1), FaultAction::Error);
        disarm("faults.test.a");
        assert!(enabled());
        assert!(hit("faults.test.a").is_ok());
        assert!(hit("faults.test.b").is_err());
        clear();
        assert!(!enabled());
    }

    #[test]
    fn failpoint_macro_propagates_as_oodb_error() {
        let _l = test_lock();
        clear();
        fn site() -> crate::Result<()> {
            failpoint!("faults.test.macro");
            Ok(())
        }
        assert!(site().is_ok());
        arm(
            "faults.test.macro",
            FaultSchedule::Nth(1),
            FaultAction::Error,
        );
        match site() {
            Err(OodbError::Fault(f)) => assert_eq!(f.site, "faults.test.macro"),
            other => panic!("expected injected fault, got {other:?}"),
        }
        clear();
    }
}
