//! Small helpers shared by every workload: a seeded generator,
//! order statistics, process memory, a precise socket wait, and CPU
//! pinning with an idle-priority spin loop.

use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so every input is a pure
/// function of `--seed`.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Where one set-up's time went, in seconds.
pub struct SetupTimes {
    pub total: f64,
    pub generate: f64,
    /// Index build and packed freeze.
    pub build: f64,
    /// Server start (or session open) and warm-up.
    pub start: f64,
}

/// The median over set-ups of one component.
pub fn setup_median(times: &[SetupTimes], part: fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(part).collect::<Vec<_>>())
}

/// Derives an independent stream seed from the run seed and a label.
pub fn sub_seed(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// The `p`-quantile (0..=1) by nearest rank over an unsorted sample;
/// 0 for an empty one.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Milliseconds from `a` to `b` (negative when `b` precedes `a`).
pub fn ms_between(a: Instant, b: Instant) -> f64 {
    if b >= a {
        ms(b - a)
    } else {
        -ms(a - b)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x1;

/// Waits until `fd` is readable or `timeout` passes, with nanosecond
/// timeout resolution (socket read timeouts round to scheduler ticks,
/// which would make the open-loop generator late). Returns whether the
/// descriptor became readable (or hung up).
pub fn wait_readable(fd: RawFd, timeout: Duration) -> bool {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are valid for the duration of the call,
    // `nfds` is 1 to match the single descriptor, and a null sigmask
    // leaves the signal mask unchanged.
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    n > 0 && pfd.revents != 0
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// Pins the calling thread, and every thread it spawns from now on, to
/// the CPU it is running on. Thread pools sized afterwards from
/// `available_parallelism` see one CPU.
pub fn pin_to_current_cpu() -> Result<(), String> {
    // SAFETY: `sched_getcpu` takes no arguments; `mask` outlives the
    // `sched_setaffinity` call and `size` is its length in bytes.
    unsafe {
        let cpu = usize::try_from(sched_getcpu()).map_err(|_| "sched_getcpu failed")?;
        let mut mask = [0u64; 16];
        *mask.get_mut(cpu / 64).ok_or("CPU number past the mask")? |= 1 << (cpu % 64);
        if sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) != 0 {
            return Err("sched_setaffinity failed".into());
        }
    }
    Ok(())
}

/// An idle-priority (`SCHED_IDLE`) busy loop on the calling thread's
/// CPUs while alive: any other thread that wakes there takes the CPU
/// at once, and the CPU itself never halts. Stops and joins on drop.
pub struct Spinner {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Spinner {
    pub fn start() -> Spinner {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let param = SchedParam { sched_priority: 0 };
            // SAFETY: `param` is valid for the call; pid 0 is the
            // calling thread. On failure the loop spins at normal
            // priority, which the run's latencies would show.
            unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        Spinner {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Spinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
