//! Calibration against the machine's speed at the moment of measuring.
//!
//! The benchmark runs in a small shared sandbox whose speed swings by tens
//! of percent for seconds to minutes at a time (a fixed pure-Rust kernel
//! read 3.9 ms to 7.9 ms within four minutes on the builder's machine). No
//! median inside the measured window removes a slow phase longer than the
//! window. So the benchmark times a fixed reference kernel alongside every
//! operation and divides each end-to-end time by the *slowdown*: the
//! kernel's time just then over its reference time. The end-to-end times
//! are therefore times at the reference speed; the raw median and the
//! slowdown are printed with the per-layer metrics.
//!
//! The kernel is independent of the program under test: it runs no code of
//! the engine, and it allocates nothing, so neither a change to the
//! program nor the state the program leaves the allocator in moves it.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The kernel's time on a quiet run of the builder's machine. A constant:
/// it only fixes the unit, so that calibrated times read like wall times.
pub const REFERENCE_NS: f64 = 185_000.0;

/// A reading older than this is refreshed before it is used again.
const MAX_AGE: Duration = Duration::from_millis(50);
const RUNS_PER_READING: usize = 3;

const SORT_LEN: usize = 8192;
const FORMATTED: u64 = 2000;

/// The reference kernel's buffers, allocated once: the kernel itself never
/// allocates, so the state the program under test leaves the allocator in
/// cannot move it.
struct Kernel {
    keys: Vec<u64>,
    text: String,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            keys: vec![0; SORT_LEN],
            text: String::with_capacity(24 * FORMATTED as usize),
        }
    }

    /// Branchy compute in cache: a sort, then formatting. Measured against
    /// three alternatives on the same runs (an allocating ordered-map
    /// build, this plus a pointer chase through 16 MiB, the chase alone),
    /// this one left the smallest spread on every workload: the sandbox's
    /// swings are swings of CPU speed.
    fn run(&mut self) -> u64 {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for k in &mut self.keys {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *k = x >> 20;
        }
        self.keys.sort_unstable();
        self.text.clear();
        for i in 0..FORMATTED {
            write!(self.text, "p{} ", self.keys[i as usize] ^ i).expect("write to String");
        }
        self.keys[SORT_LEN / 2] ^ self.text.len() as u64
    }

    /// The machine's slowdown right now: the median of a few runs over the
    /// reference time.
    fn read(&mut self) -> f64 {
        let mut ns = [0.0; RUNS_PER_READING];
        for slot in &mut ns {
            let t0 = Instant::now();
            std::hint::black_box(self.run());
            *slot = t0.elapsed().as_nanos() as f64;
        }
        ns.sort_by(f64::total_cmp);
        ns[RUNS_PER_READING / 2] / REFERENCE_NS
    }
}

/// Hands out the current slowdown, re-reading it when the last reading
/// has aged, and averages it over a stretch of work.
pub struct Calibrator {
    kernel: Kernel,
    taken: Instant,
    slowdown: f64,
    /// Sum and count of the readings ticked since `around` began.
    sum: f64,
    count: u32,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut kernel = Kernel::new();
        Calibrator {
            slowdown: kernel.read(),
            kernel,
            taken: Instant::now(),
            sum: 0.0,
            count: 0,
        }
    }

    /// Notes the current slowdown (re-read if the last reading has aged)
    /// for the stretch of work `around` is timing. Work that takes longer
    /// than a reading lasts calls this as it goes.
    pub fn tick(&mut self) {
        if self.taken.elapsed() >= MAX_AGE {
            self.slowdown = self.kernel.read();
            self.taken = Instant::now();
        }
        self.sum += self.slowdown;
        self.count += 1;
    }

    /// Runs `f` and returns its result with the slowdown around it: the
    /// mean of a reading before, the readings `f` ticked, and one after.
    pub fn around<R>(&mut self, f: impl FnOnce(&mut Calibrator) -> R) -> (R, f64) {
        (self.sum, self.count) = (0.0, 0);
        self.tick();
        let r = f(self);
        self.tick();
        (r, self.sum / self.count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_readings_are_sane() {
        let mut k = Kernel::new();
        let first_run = k.run();
        assert_eq!(k.run(), first_run);
        assert!(
            k.text.capacity() == 24 * FORMATTED as usize,
            "the kernel reallocated"
        );
        let mut c = Calibrator::new();
        // A fresh reading is reused: both ends of a short stretch see it.
        let first = c.slowdown;
        assert!(first > 0.05 && first < 100.0, "slowdown {first}");
        assert_eq!(c.around(|_| ()), ((), first));
        // An aged one is replaced, and ticks inside the stretch count.
        std::thread::sleep(MAX_AGE);
        let ((), mean) = c.around(|c| c.tick());
        assert!(mean > 0.0);
        assert_eq!(c.count, 3);
    }
}
