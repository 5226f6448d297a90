//! The host: its speed, measured by a fixed calibration kernel run
//! before every input, and CPU affinity.

use std::hint::black_box;
use std::io;
use std::time::Instant;

/// Elements the calibration kernel sorts per pass.
const KERNEL_LEN: usize = 4096;

/// Sorting passes per kernel run: about 0.25 ms on the recording host.
const KERNEL_PASSES: usize = 4;

/// The kernel's fastest time on the host the recorded results come from,
/// seconds: [`scale`] maps times measured elsewhere onto that host.
const NOMINAL_KERNEL_S: f64 = 240e-6;

/// How much more the simulator slows than the kernel when the host is
/// slow: its time grows as the kernel's to [`MILD_POWER`] up to
/// [`DEEP_KERNEL_S`], and to [`DEEP_POWER`] beyond. The simulator misses
/// in the caches the host's tenants share, and the kernel, which sorts
/// within the first-level cache, does not. On the recording host the
/// slope of log window time against log kernel time, over runs at
/// different host speeds, was about 1.1 while the kernel stayed within a
/// tenth of its nominal time, and about 2 across the rarer spells that
/// slowed it by a fifth or more, sometimes for minutes (correlations
/// 0.86 to 0.99). The three constants gave the smallest spreads and
/// drifts over 26 sets of 9 to 12 runs, among powers 1 to 1.4 and 1.4
/// to 2.2 and thresholds 240 to 270 us; one power for all speeds left
/// a set run in a slow spell a quarter off the others.
const MILD_POWER: f64 = 1.2;

/// See [`MILD_POWER`].
const DEEP_POWER: f64 = 2.0;

/// See [`MILD_POWER`].
const DEEP_KERNEL_S: f64 = 260e-6;

/// A fixed calibration kernel — sorting pseudo-random integers — run
/// before every input to measure the host's speed at that moment.
///
/// The benchmark's host is a VM on a shared machine. Its speed moves in
/// two ways: slowly, by a tenth over minutes, and in spells of tens of
/// milliseconds to tens of seconds in which code that keeps the core
/// busy — the simulator, and this kernel — runs up to twice as slow,
/// while latency-bound code hardly notices. A window keeps each input's
/// fastest repetition, which lands in a fast spell; the kernel, kept the
/// same way, measures the slow drift for [`scale`] to divide out. The
/// kernel is the benchmark's own code, so a change to the program under
/// test leaves it alone and shows in full.
#[derive(Debug)]
pub struct Kernel {
    buf: Vec<u64>,
    x: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            buf: vec![0; KERNEL_LEN],
            x: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl Kernel {
    /// Run the kernel once; returns its host time, seconds.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..KERNEL_PASSES {
            for v in self.buf.iter_mut() {
                self.x ^= self.x << 13;
                self.x ^= self.x >> 7;
                self.x ^= self.x << 17;
                *v = self.x;
            }
            self.buf.sort_unstable();
            black_box(&self.buf);
        }
        t.elapsed().as_secs_f64()
    }
}

/// Factor that maps times measured in a run onto the recording host,
/// given the kernel's time in that run: the nominal kernel time over it,
/// raised to the powers [`MILD_POWER`] describes.
pub fn scale(kernel_s: f64) -> f64 {
    let mild = kernel_s.min(DEEP_KERNEL_S);
    (NOMINAL_KERNEL_S / mild).powf(MILD_POWER) * (mild / kernel_s).powf(DEEP_POWER)
}

/// Words in a `cpu_set_t`: 1024 CPUs.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every process it starts afterwards,
/// to the highest-numbered CPU it may run on; returns that CPU.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of the size passed, and the
    // call writes only within it.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no CPU in the affinity mask"))?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the size passed, only read.
    if unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}
