//! CPU time, and a gauge of how fast the host's CPU is running.
//!
//! On a shared virtual machine the hypervisor can take a vCPU away for
//! seconds at a time. That stolen time inflates every wall-clock figure
//! but is not charged to the process, so CPU time measures the program's
//! own cost whatever the neighbours do.
//!
//! CPU time still moves with the speed of the physical core: on the build
//! host a fixed kernel's CPU time drifted by about 20% over tens of
//! minutes, and every workload's CPU per op moved with it. [`Gauge`] times
//! a fixed kernel, owned by the benchmark and independent of the library,
//! throughout a run; dividing by its median turns the program's CPU time
//! into reference-host CPU time.

use std::time::{Duration, Instant};

use crate::stats::median;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock(id: i32) -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this crate builds for) for the
    // whole call, and `id` is one of the constant clock ids above.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by every thread of this process.
pub fn now() -> Duration {
    clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// The gauge kernel's CPU time on the reference host: the build host in a
/// quiet period. Scaled figures read as CPU time on that host.
const REFERENCE_MS: f64 = 1.0;
/// How often a run samples the gauge.
const EVERY: Duration = Duration::from_millis(250);
/// Entries in the gather table: 256 KiB, resident in L2 like the int8
/// product tables.
const TABLE: usize = 1 << 16;
const DIM: usize = 32;

/// Host speed gauge: a fixed mix of f32 multiply-adds, an L2-resident
/// table gather and integer mixing, the three kinds of work the workloads
/// do, timed in the calling thread's CPU time.
pub struct Gauge {
    table: Vec<f32>,
    a: Vec<f32>,
    b: Vec<f32>,
    samples_ms: Vec<f64>,
    last: Option<Instant>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    pub fn new() -> Gauge {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 40) as f32 / (1u64 << 24) as f32
        };
        Gauge {
            table: (0..TABLE).map(|_| next()).collect(),
            a: (0..DIM * DIM).map(|_| next()).collect(),
            b: (0..DIM * DIM).map(|_| next()).collect(),
            samples_ms: Vec::with_capacity(1024),
            last: None,
        }
    }

    fn kernel(&self) -> f32 {
        let mut c = [0.0f32; DIM * DIM];
        for _ in 0..18 {
            for i in 0..DIM {
                for k in 0..DIM {
                    let aik = self.a[i * DIM + k];
                    for j in 0..DIM {
                        c[i * DIM + j] += aik * self.b[k * DIM + j];
                    }
                }
            }
        }
        let mut h = 0x2545_F491_4F6C_DD1Du64;
        let mut sum = 0.0f32;
        for _ in 0..360_000 {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            sum += self.table[(h as usize) & (TABLE - 1)];
        }
        sum + c[DIM + 1]
    }

    /// Time the kernel once.
    pub fn sample(&mut self) {
        let t0 = clock(CLOCK_THREAD_CPUTIME_ID);
        std::hint::black_box(self.kernel());
        let ms = (clock(CLOCK_THREAD_CPUTIME_ID) - t0).as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        self.last = Some(Instant::now());
    }

    /// Sample if [`EVERY`] has passed since the last sample.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Median kernel CPU time in this run.
    pub fn median_ms(&self) -> Option<f64> {
        median(&self.samples_ms)
    }

    /// Factor turning this run's CPU time into reference-host CPU time.
    pub fn scale(&self) -> Option<f64> {
        self.median_ms().map(|m| REFERENCE_MS / m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_clock_advances_with_work() {
        let t0 = now();
        let mut x = 0u64;
        while now() - t0 < Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(now() > t0);
    }

    #[test]
    fn gauge_is_deterministic_and_scales() {
        let mut g = Gauge::new();
        assert_eq!(g.kernel().to_bits(), Gauge::new().kernel().to_bits());
        assert_eq!(g.scale(), None);
        g.sample();
        g.tick();
        assert_eq!(g.samples_ms.len(), 1, "a tick right after a sample does not sample");
        let m = g.median_ms().expect("one sample");
        assert!(m > 0.0);
        assert_eq!(g.scale(), Some(REFERENCE_MS / m));
    }
}
