//! The polycanary benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload attack-fork|attack-owf|build-run --seed N --seconds S --trace 0|1
//! python3 perfbench/smoke.py    # every workload at minimal size
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics for `S`
//! seconds: set-up time (median of many set-ups), throughput, the median
//! and p90 of each operation's time with its sample count, and peak memory.
//! Times are process CPU time, which leaves out the hypervisor's steal; the
//! wall-clock throughput and percentiles are printed beside them as a
//! diagnostic.  With `--trace 1` it replays a fixed, seed-determined share of
//! the workload with timers around every call into a layer's public
//! functions and reports the per-layer metrics, the tracing overhead and
//! the deterministic counters.  Every output is checked against a known
//! answer; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.  Campaigns run on
//! [`attack::WORKERS`] threads, everything else on one.

mod attack;
mod build_run;
mod layers;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

use attack::Family;
use layers::{declared, LAYER_MOVES};
use util::{aes_ns_per_frame, cpu_time, host_speed_ms, peak_rss_mib, percentile, steal_jiffies};

const USAGE: &str = "usage: perfbench --workload attack-fork|attack-owf|build-run --seed N \
                     --seconds S --trace 0|1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    AttackFork,
    AttackOwf,
    BuildRun,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "attack-fork" => Some(Workload::AttackFork),
            "attack-owf" => Some(Workload::AttackOwf),
            "build-run" => Some(Workload::BuildRun),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::AttackFork => "attack-fork",
            Workload::AttackOwf => "attack-owf",
            Workload::BuildRun => "build-run",
        }
    }

    /// The attack family of an attack workload.
    fn family(self) -> Family {
        if self == Workload::AttackOwf {
            Family::Owf
        } else {
            Family::Fork
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value.parse::<u64>().ok().filter(|s| (1..=600).contains(s)).ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric and the note printed after it.
struct Metric {
    name: String,
    value: f64,
    unit: String,
    note: String,
}

/// The metrics of `section` of the declaration, in its order, from the
/// values and notes a run measured, by name.
///
/// # Panics
///
/// Panics when the run did not measure a declared metric or measured an
/// undeclared one.
fn report(section: &str, mut measured: BTreeMap<&str, (f64, String)>) -> Vec<Metric> {
    let metrics = declared(section)
        .into_iter()
        .map(|(name, unit)| {
            let (value, note) = measured
                .remove(name.as_str())
                .unwrap_or_else(|| panic!("the run did not measure {name}"));
            Metric { name, value, unit, note }
        })
        .collect();
    assert!(measured.is_empty(), "undeclared metrics: {:?}", measured.keys());
    metrics
}

/// A finished run: the JSON fields plus lines printed above them.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

/// Repeated set-ups of one run and their process CPU times.
///
/// The set-up runs once before the timed phase and once more after each of
/// its cycles or passes, untimed by the phase; `setup_s` is the median.
/// One set-up takes 0.1–2 ms while the host's speed drifts over seconds, so
/// the repetitions are spread over the whole run.
struct Setups<F> {
    setup: F,
    seconds: Vec<f64>,
    all_ok: bool,
}

impl<T, F: FnMut() -> (T, bool)> Setups<F> {
    /// Runs the first set-up and returns its output.
    fn new(setup: F) -> (Self, T) {
        let mut setups = Setups { setup, seconds: Vec::new(), all_ok: true };
        let value = setups.once();
        (setups, value)
    }

    /// Runs and times one more set-up.
    fn once(&mut self) -> T {
        let started = cpu_time();
        let (value, ok) = (self.setup)();
        self.seconds.push((cpu_time() - started).as_secs_f64());
        self.all_ok &= ok;
        value
    }
}

/// The untraced run: set-up, then the timed phase.
///
/// The end-to-end metric names are shared by all workloads: an operation is
/// a campaign on the attack workloads and a cell on `build-run`, and the
/// work it does is requests or one cell.  Times are process CPU time (see
/// [`util::cpu_time`]), so the host's steal does not count; the wall-clock
/// figures are printed above the result as a diagnostic.
fn end_to_end(args: &Args) -> Outcome {
    let seconds = args.seconds as f64;
    let mut lines = Vec::new();
    let (setup_seconds, setup_ok, op, work_name, phase, failed) = match args.workload {
        Workload::AttackFork | Workload::AttackOwf => {
            let family = args.workload.family();
            let (mut setups, ()) = Setups::new(|| ((), attack::setup(family, args.seed)));
            let budget = attack::Budget::Seconds(seconds);
            let measured = attack::measure(family, args.seed, budget, false, &mut || {
                setups.once();
            });
            (setups.seconds, setups.all_ok, "campaign", "requests", measured.phase, measured.failed)
        }
        Workload::BuildRun => {
            let (mut setups, suite) = Setups::new(|| (build_run::setup(args.seed), true));
            let measured = build_run::measure(&suite, seconds, &mut || {
                setups.once();
            });
            let mismatches = build_run::reference_mismatches(&suite, &measured);
            lines.push(format!(
                "reference interpreter (outside the timed phase): {mismatches} cells disagree"
            ));
            let failed = measured.failed + mismatches;
            (setups.seconds, setups.all_ok, "cell", "cells", measured.phase, failed)
        }
    };
    let attempted = phase.op_cpu_ms.len() as u64;
    let failed = if setup_ok { failed.min(attempted) } else { attempted };
    let (work, cpu, wall) = (phase.work, phase.cpu.as_secs_f64(), phase.wall.as_secs_f64());
    lines.push(format!(
        "failed_ratio = {} ({failed} failed / {attempted} {op}s)",
        failed as f64 / attempted as f64
    ));
    lines.push(format!(
        "wall clock (diagnostic): {work_name}_per_s {}, {op}_ms_p50 {}, {op}_ms_p90 {}; \
         CPU/wall {:.3}",
        work as f64 / wall,
        percentile(&phase.op_wall_ms, 0.5),
        percentile(&phase.op_wall_ms, 0.9),
        cpu / wall
    ));
    let measured = BTreeMap::from([
        (
            "setup_s",
            (
                percentile(&setup_seconds, 0.5),
                format!("median CPU time of {} set-ups", setup_seconds.len()),
            ),
        ),
        ("ops_per_cpu_s", (work as f64 / cpu, format!("{work} {work_name} in {cpu:.3} CPU s"))),
        (
            "op_cpu_ms_p50",
            (percentile(&phase.op_cpu_ms, 0.5), format!("CPU ms per {op}, n={attempted} {op}s")),
        ),
        (
            "op_cpu_ms_p90",
            (percentile(&phase.op_cpu_ms, 0.9), format!("CPU ms per {op}, n={attempted} {op}s")),
        ),
        ("peak_rss_mib", (peak_rss_mib(), "VmHWM".to_string())),
    ]);
    Outcome { attempted, failed, metrics: report("end_to_end", measured), lines }
}

/// Trace sizes per `--seconds`: attack cycles and build-run cells.
const FORK_CYCLES_PER_S: usize = 3;
const OWF_CYCLES_PER_S: usize = 4;
const CELLS_PER_S: usize = 1_000;
/// Layer probes for the layers a workload does not exercise.
const PROBE_CYCLES: usize = 1;
const PROBE_CELLS: usize = 24;
const AES_FRAMES: u64 = 200_000;

/// The traced run: the workload's own replay, then a small probe of the
/// layers it does not exercise, so every per-layer metric is reported on
/// every workload.  A metric from the workload's own replay wins over the
/// probe's.
fn traced(args: &Args) -> Outcome {
    let seconds = args.seconds as usize;
    let suite = build_run::setup(args.seed);
    let (main, probe, probe_name) = match args.workload {
        Workload::AttackFork | Workload::AttackOwf => {
            let cycles = match args.workload {
                Workload::AttackFork => FORK_CYCLES_PER_S * seconds,
                _ => OWF_CYCLES_PER_S * seconds,
            };
            let main = attack::trace(args.workload.family(), args.seed, cycles);
            (main, build_run::trace(&suite, PROBE_CELLS), "build-run probe")
        }
        Workload::BuildRun => {
            let main = build_run::trace(&suite, CELLS_PER_S * seconds);
            (main, attack::trace(Family::Fork, args.seed, PROBE_CYCLES), "attack-fork probe")
        }
    };
    let mut lines = main.notes;
    lines.push(format!("counters {}: {}", args.workload.name(), main.layers.counters_line()));
    lines.push(format!("counters {probe_name}: {}", probe.layers.counters_line()));
    let mut values = main.metrics;
    for (name, value) in probe.metrics {
        values.entry(name).or_insert(value);
    }
    values.insert("crypto.aes.ns_per_frame", aes_ns_per_frame(args.seed, AES_FRAMES));
    let measured = values
        .into_iter()
        .map(|(name, value)| {
            let (_, moves, on) = LAYER_MOVES
                .iter()
                .find(|(layer, _, _)| *layer == name)
                .unwrap_or_else(|| panic!("no end-to-end metric named for {name}"));
            (name, (value, format!("moves {moves} on {on}")))
        })
        .collect();
    Outcome {
        attempted: main.attempted + probe.attempted,
        failed: main.failed + probe.failed,
        metrics: report("per_layer", measured),
        lines,
    }
}

fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metric values are finite");
    format!("{value}")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} available_parallelism={threads} workers={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        attack::WORKERS
    );
    let host_start = host_speed_ms();
    let steal_start = steal_jiffies();
    let outcome = if args.trace { traced(&args) } else { end_to_end(&args) };
    let steal = steal_jiffies() - steal_start;
    let host_end = host_speed_ms();

    for line in &outcome.lines {
        println!("{line}");
    }
    // Host diagnostics, not metrics: on a shared host the per-request cost
    // can shift by half for seconds at a time while the program is
    // unchanged, and these lines show when it did.
    println!(
        "host_speed_ms alu {:.3} -> {:.3}, memory {:.3} -> {:.3} (fixed pure-Rust loops at \
         the start and end of the run); steal {steal} jiffies during the run",
        host_start.0, host_end.0, host_start.1, host_end.1
    );
    for m in &outcome.metrics {
        println!("{} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    ExitCode::SUCCESS
}
