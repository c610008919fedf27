//! Small helpers shared by the workloads: seed derivation, order
//! statistics, the clocks, the host-speed probe and peak memory.

use std::hint::black_box;
use std::time::{Duration, Instant};

use polycanary_core::record::{export_envelope, Envelope, Record};
use polycanary_crypto::Aes128;

/// SplitMix64 finalizer over `seed` and a stream index: every victim seed,
/// cell seed and input byte of a run is derived from the workload seed
/// through this function, so one `--seed` fixes every input.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples.
///
/// # Panics
///
/// Panics on an empty sample, which no workload produces.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Milliseconds in `d`, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times two fixed pure-Rust loops: a dependent xorshift chain (ALU
/// latency) and filling 20,000 fresh 4–7 KiB buffers (allocator and memory
/// throughput).  Printed at the start and end of every run next to the
/// metrics: on a shared host the second can slow by half while the first
/// holds, and a shift in either is the host, not the program.
pub fn host_speed_ms() -> (f64, f64) {
    let started = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..black_box(2_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    let alu = ms(started.elapsed());
    let started = Instant::now();
    for i in 0..black_box(20_000usize) {
        black_box(vec![i as u8; 4096 + (i % 7) * 512]);
    }
    (alu, ms(started.elapsed()))
}

/// Process CPU time so far, all threads included (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// On a virtual machine whose hypervisor accounts steal time to the guest
/// (paravirtual steal clock) this leaves out the time the host ran another
/// tenant while a thread of this process wanted to run; on the shared
/// two-vCPU hosts this benchmark was written on, that steal swings between
/// 0 and over half of the wall time from one minute to the next.
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `now` is a valid, writable timespec for the call's duration.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "the process CPU clock is readable");
    Duration::new(now.sec as u64, now.nsec as u32)
}

/// What a timed phase measured, one operation (a campaign or a cell) at a
/// time.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests (attack workloads) or cells (`build-run`) completed.
    pub work: u64,
    /// Process CPU time and wall time of all operations.
    pub cpu: Duration,
    pub wall: Duration,
    /// CPU time and wall time of each operation, in ms.
    pub op_cpu_ms: Vec<f64>,
    pub op_wall_ms: Vec<f64>,
}

impl Phase {
    /// Times `op`, which returns the work it completed.
    pub fn time<T>(&mut self, op: impl FnOnce() -> (T, u64)) -> T {
        let (wall, cpu) = (Instant::now(), cpu_time());
        let (value, work) = op();
        let (cpu, wall) = (cpu_time() - cpu, wall.elapsed());
        self.work += work;
        self.cpu += cpu;
        self.wall += wall;
        self.op_cpu_ms.push(ms(cpu));
        self.op_wall_ms.push(ms(wall));
        value
    }
}

/// Jiffies (1/100 s) the hypervisor ran something else while one of this
/// machine's CPUs wanted to run (`steal` in `/proc/stat`, all CPUs).
pub fn steal_jiffies() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .and_then(|fields| fields.split_whitespace().nth(7))
        .and_then(|steal| steal.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Round-trips `records` through the export path a harness run takes:
/// [`export_envelope`] → JSON text → [`Envelope::from_json`].  Returns the
/// JSON size in bytes, or `None` when the parsed envelope does not hold the
/// records written.
pub fn export_round_trip(records: Vec<Record>) -> Option<usize> {
    let count = records.len();
    let json =
        export_envelope("perfbench", Record::new().field("source", "perfbench"), records).to_json();
    let envelope = Envelope::from_json(&json).ok()?;
    (envelope.scenario == "perfbench" && envelope.records.len() == count).then_some(json.len())
}

/// Times `frames` P-SSP-OWF frame encryptions the way the VM performs them:
/// the key schedule from the victim's `r12:r13` key words, then one block
/// of (nonce, return address).  One key per victim, 64 frames a victim,
/// return addresses cycling over a call stack's worth of sites.
pub fn aes_ns_per_frame(seed: u64, frames: u64) -> f64 {
    let started = Instant::now();
    let mut sink = 0u64;
    for frame in 0..frames {
        let victim = frame / 64;
        let (lo, hi) = (mix(seed, 2 * victim), mix(seed, 2 * victim + 1));
        let nonce = mix(seed ^ lo, frame);
        let return_address = 0x40_1000 + (frame % 24) * 0x40;
        let (a, b) = Aes128::from_words(lo, hi).encrypt_words(nonce, return_address);
        sink ^= a ^ b;
    }
    std::hint::black_box(sink);
    started.elapsed().as_nanos() as f64 / frames as f64
}
