//! Process counters read from `/proc/self`: CPU time and peak resident
//! memory of the benchmark process itself. Child processes (the proc
//! transport's workers) are not included.

use std::time::Instant;

/// `USER_HZ`: the kernel reports `/proc` CPU times in ticks of 1/100 s.
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU seconds consumed by this process so far (all of
/// its threads, exited ones included).
#[derive(Clone, Copy, Debug, Default)]
pub struct Cpu {
    pub user: f64,
    pub sys: f64,
}

impl Cpu {
    pub fn now() -> Cpu {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        Cpu {
            user: ticks(11) / TICKS_PER_S,
            sys: ticks(12) / TICKS_PER_S,
        }
    }

    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }

    pub fn total(self) -> f64 {
        self.user + self.sys
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide CPU ticks from `/proc/stat`: `(steal, total)`. Steal is
/// time the hypervisor ran something else while this machine's CPUs were
/// ready; a run that saw much of it was slowed by other tenants.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal ...
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines this process, and every thread and process it starts later,
/// to one CPU: the highest-numbered one it may run on. Returns that CPU,
/// or `None` when the affinity calls fail (the run then goes on
/// unconfined).
///
/// On one CPU `kmachine::par` runs each superstep's machines inline
/// instead of spawning scoped threads for them, and the proc transport's
/// workers share the CPU with the coordinator. On a small shared host,
/// thread spawns and cross-CPU wake-ups cost more than the computation
/// they serve and vary with the other tenants' load, so the timings would
/// measure the host's scheduler rather than the program.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, and pid 0 is
    // the calling thread; both calls only read or write that buffer.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, with a read-only buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}
