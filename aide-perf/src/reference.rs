//! The reference kernel: how fast the machine is *right now*.
//!
//! The builder's vCPUs share physical cores with somebody else's. While that
//! neighbour is busy, code that keeps a core's issue ports full runs up to
//! 1.7 times slower, in stretches of three to seven minutes that took up a
//! quarter of an evening's measuring, with no steal time reported. The
//! platform's code is of that kind: in a disturbed stretch every workload
//! here takes 20–55 % longer, set-up included, and no run-to-run statistic
//! survives a stretch that outlasts several runs (ten consecutive 20 s runs
//! of `memory_rescue_tcp`, raw wall time, a stretch over the second half:
//! medians 4.3–5.8 s, interquartile range 30 % of the median).
//!
//! So a sampler thread on the workload's CPU runs a small issue-bound kernel
//! (six independent integer chains, no memory) every 20 ms and notes the CPU
//! time it took. The *slowdown* of a timed interval is how much longer than
//! nominal the kernel took during the interval, scaled by the share of that
//! which the platform's code was measured to feel; dividing the interval's
//! wall time by it gives the time the interval would have taken on the
//! undisturbed machine.
//!
//! Nominal is a constant, the kernel's time on the undisturbed builder. A
//! yardstick taken from each run's own fastest samples would carry over to
//! other machines, and was tried: the fastest sample of a run varies by 4 %
//! from run to run, and sixteen mostly quiet runs per workload spread 3–6 %
//! between their quartiles with it as the yardstick, 2–3 % with the fifth
//! percentile, 1–2 % (`fleet_serving` 3 %) with the constant, and 2–4 % as
//! raw wall time. On another machine every corrected time is off by one
//! constant factor, which no comparison on that machine sees.
//!
//! The sampler must see the CPU the workload sees: the two vCPUs are not
//! always disturbed together, and a sampler left to float reads the idle one
//! (README.md, "One CPU, a reference slowdown, and a 5 ms heartbeat"). Hence the
//! process is pinned to one CPU before the sampler starts.
//!
//! The sampler costs about 1 % of the CPU. Thread CPU time rather than wall
//! time is read around the kernel, so that being preempted by the workload's
//! threads does not count as the machine being slow.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Iterations of the kernel per sample.
const ITERATIONS: u64 = 300_000;
/// CPU seconds one sample takes on the undisturbed builder (Xeon "Sapphire
/// Rapids" at 2.1 GHz).
const NOMINAL_S: f64 = 250e-6;
/// Share of the kernel's slowdown that the platform's code shows: measured
/// at 0.65 (`policy_sweep`, `local_mutator`) to 0.9 (`memory_rescue_tcp`)
/// over 70 runs that caught disturbances of every size.
const SENSITIVITY: f64 = 0.75;
const INTERVAL: Duration = Duration::from_millis(20);

/// Six independent integer chains: enough parallel work to keep the issue
/// ports full, which is what a busy neighbour on the core takes away.
fn kernel(n: u64) -> u64 {
    let (mut a, mut b, mut c, mut d, mut e, mut f) = (1u64, 2u64, 3u64, 4u64, 5u64, 6u64);
    for i in 0..n {
        a = a.wrapping_mul(3).wrapping_add(i);
        b = b.wrapping_add(a ^ i);
        c = c.rotate_left(7) ^ i;
        d = d.wrapping_add(i * 3);
        e ^= i.wrapping_mul(7);
        f = f.wrapping_sub(i >> 1);
    }
    a ^ b ^ c ^ d ^ e ^ f
}

/// CPU seconds this thread has used.
#[cfg(target_os = "linux")]
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux), which is all the call writes.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "the thread CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_s() -> f64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// CPU seconds of one run of the kernel, now, on this thread.
fn sample() -> f64 {
    let start = thread_cpu_s();
    std::hint::black_box(kernel(std::hint::black_box(ITERATIONS)));
    thread_cpu_s() - start
}

/// `(seconds since the origin, CPU seconds the kernel took)`, in time order.
type Samples = Vec<(f64, f64)>;

/// The running sampler. Start it after pinning the process, so that its
/// thread shares the workload's CPU.
pub struct Reference {
    origin: Instant,
    samples: Arc<Mutex<Samples>>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl Reference {
    pub fn start() -> Reference {
        let origin = Instant::now();
        // One sample at once, so that no interval is without any.
        let samples = Arc::new(Mutex::new(vec![(0.0, sample())]));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (samples, stop) = (samples.clone(), stop.clone());
            std::thread::spawn(move || {
                // `Relaxed`: the flag publishes nothing but itself.
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(INTERVAL);
                    let taken = (origin.elapsed().as_secs_f64(), sample());
                    samples
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(taken);
                }
            })
        };
        Reference {
            origin,
            samples,
            stop,
            sampler: Some(sampler),
        }
    }

    /// Seconds on the sampler's clock; the ends of an interval to ask
    /// [`Reference::slowdowns`] about.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// How much slower than on the undisturbed machine the platform's code
    /// ran during each of `spans`: divide a wall time by it.
    pub fn slowdowns(&self, spans: &[(f64, f64)]) -> Vec<f64> {
        let samples = self.samples.lock().unwrap_or_else(PoisonError::into_inner);
        slowdowns_of(&samples, spans)
    }
}

fn slowdowns_of(samples: &[(f64, f64)], spans: &[(f64, f64)]) -> Vec<f64> {
    spans
        .iter()
        .map(|&(from, to)| 1.0 + SENSITIVITY * (kernel_s(samples, from, to) / NOMINAL_S - 1.0))
        .collect()
}

impl Drop for Reference {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            // The sampler only computes and sleeps; if it panicked there is
            // nothing to recover, and `drop` must not panic.
            let _ = sampler.join();
        }
    }
}

/// The kernel's CPU seconds over `[from, to]`: the mean of the samples taken
/// inside the interval (a pass's time adds up over its disturbed and its
/// undisturbed moments, and so must the reference's), or the one nearest to
/// it when it was too short to hold any. `samples` is not empty.
fn kernel_s(samples: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let first = samples.partition_point(|s| s.0 < from);
    let end = samples.partition_point(|s| s.0 <= to);
    if first < end {
        let inside = &samples[first..end];
        return inside.iter().map(|s| s.1).sum::<f64>() / inside.len() as f64;
    }
    let middle = (from + to) / 2.0;
    [first.checked_sub(1), Some(first)]
        .into_iter()
        .flatten()
        .filter_map(|i| samples.get(i))
        .min_by(|a, b| (a.0 - middle).abs().total_cmp(&(b.0 - middle).abs()))
        .expect("the sampler takes its first sample before it is asked")
        .1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_interval_reads_the_mean_of_the_samples_inside_it() {
        let samples = [(0.0, 1.0), (1.0, 1.2), (2.0, 1.4), (3.0, 2.0)];
        assert!((kernel_s(&samples, 0.5, 2.5) - 1.3).abs() < 1e-9);
        assert!((kernel_s(&samples, 0.0, 3.0) - 1.4).abs() < 1e-9);
        assert!((kernel_s(&samples, 2.0, 2.0) - 1.4).abs() < 1e-9);
    }

    #[test]
    fn an_interval_without_samples_reads_the_nearest_one() {
        let samples = [(0.0, 1.0), (1.0, 1.5)];
        assert_eq!(kernel_s(&samples, 0.1, 0.3), 1.0);
        assert_eq!(kernel_s(&samples, 0.7, 0.9), 1.5);
        assert_eq!(kernel_s(&samples, 5.0, 6.0), 1.5);
    }

    #[test]
    fn slowdown_is_the_platforms_share_of_the_kernels_over_nominal() {
        let samples = [
            (0.0, NOMINAL_S),
            (1.0, 2.0 * NOMINAL_S),
            (2.0, 1.5 * NOMINAL_S),
        ];
        let slowdowns = slowdowns_of(&samples, &[(0.0, 0.5), (0.5, 1.5), (0.0, 2.0)]);
        assert!((slowdowns[0] - 1.0).abs() < 1e-9);
        assert!((slowdowns[1] - (1.0 + SENSITIVITY)).abs() < 1e-9);
        assert!((slowdowns[2] - (1.0 + SENSITIVITY * 0.5)).abs() < 1e-9);
    }

    #[test]
    fn the_sampler_samples_and_stops() {
        let reference = Reference::start();
        let from = reference.now();
        std::thread::sleep(INTERVAL * 4);
        let slowdown = reference.slowdowns(&[(from, reference.now())])[0];
        // Whatever machine this is, it is within a factor of twenty of the
        // builder, and the kernel did run.
        assert!(slowdown > 0.26 && slowdown < 20.0, "{slowdown}");
        assert!(reference.samples.lock().unwrap().len() >= 3);
        drop(reference);
    }

    #[test]
    fn kernel_time_grows_with_its_iterations() {
        let time = |n: u64| {
            let start = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(n)));
            start.elapsed()
        };
        assert!(time(40 * ITERATIONS) > 4 * time(ITERATIONS));
    }
}
