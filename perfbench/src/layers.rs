//! Per-layer accounting for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call into
//! a layer's public functions; the library is not instrumented.  Every
//! timer sits next to a deterministic counter, and the counters of one seed
//! must repeat exactly from run to run.

use std::collections::BTreeMap;
use std::time::Duration;

use polycanary_core::record::Value;

/// The benchmark's declaration, which names every metric with its unit and
/// better-direction.  The result line takes its names and units from here,
/// so the two cannot drift apart.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` of every metric in `section` (`end_to_end` or
/// `per_layer`) of the declaration, in its order.
///
/// # Panics
///
/// Panics when the declaration does not have that shape.
pub fn declared(section: &str) -> Vec<(String, String)> {
    let Ok(Value::Record(declaration)) = Value::from_json(DECLARATION) else {
        panic!("BENCHMARK.json is not a JSON object");
    };
    let Some(Value::List(metrics)) = declaration.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    let text = |metric: &Value, key: &str| match metric {
        Value::Record(metric) => metric.get(key).and_then(Value::as_str).map(str::to_string),
        _ => None,
    };
    metrics
        .iter()
        .map(|metric| {
            let field = |key| {
                text(metric, key).unwrap_or_else(|| panic!("a {section} metric has no {key}"))
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// For each per-layer metric: the end-to-end metric a change to the layer
/// should move, and the workload on which it should move it (in
/// parentheses, the one that bypasses the layer).  The declaration has no
/// field for this, so it lives here.
pub const LAYER_MOVES: &[(&str, &str, &str)] = &[
    (
        "vm.fork.ns_per_call",
        "ops_per_cpu_s, op_cpu_ms_*",
        "attack-fork, attack-owf (not build-run)",
    ),
    ("vm.fork.calls", "ops_per_cpu_s", "attack-fork, attack-owf"),
    ("vm.send.ns_per_call", "ops_per_cpu_s", "attack-fork, attack-owf"),
    ("vm.send.calls", "ops_per_cpu_s", "attack-fork, attack-owf"),
    ("vm.load.us_per_call", "ops_per_cpu_s, op_cpu_ms_*", "build-run"),
    ("vm.run.ns_per_kinst", "ops_per_cpu_s, op_cpu_ms_*", "build-run"),
    ("vm.run.instructions", "ops_per_cpu_s", "build-run"),
    ("vm.run.cycles", "ops_per_cpu_s", "build-run"),
    ("attacks.attacker.ns_per_request", "ops_per_cpu_s", "attack-fork, attack-owf"),
    ("attacks.boot.ns_per_call", "op_cpu_ms_p50", "attack-owf (reuse)"),
    ("attacks.snapshot.builds", "op_cpu_ms_p50, setup_s", "attack-owf"),
    ("attacks.snapshot.hits", "op_cpu_ms_p50, setup_s", "attack-owf"),
    ("attacks.snapshot.ms", "op_cpu_ms_p50, setup_s", "attack-owf"),
    // Idle workers cost no CPU time, so the pool's parallelism shows in
    // the wall-clock line of an untraced run, not in its metrics.
    (
        "attacks.pool.efficiency",
        "wall-clock requests_per_s",
        "attack-fork (shard 64), attack-owf (shard 1)",
    ),
    ("attacks.pool.useful_ratio", "ops_per_cpu_s", "attack-owf"),
    ("compiler.O0.us_per_call", "ops_per_cpu_s", "build-run (not attack-fork)"),
    ("compiler.O2.us_per_call", "ops_per_cpu_s", "build-run (not attack-fork)"),
    ("compiler.code_bytes", "ops_per_cpu_s", "build-run"),
    ("rewriter.us_per_call", "ops_per_cpu_s", "build-run"),
    ("rewriter.sites_patched", "ops_per_cpu_s", "build-run"),
    ("verifier.us_per_call", "ops_per_cpu_s", "build-run"),
    ("verifier.findings", "ops_per_cpu_s", "build-run"),
    ("crypto.aes.ns_per_frame", "ops_per_cpu_s", "attack-owf; build-run (not attack-fork)"),
    ("export.us_per_call", "op_cpu_ms_p50", "all"),
    ("export.bytes", "op_cpu_ms_p50", "all"),
    ("trace.overhead_ratio", "none (benchmark health)", "all"),
    ("trace.coverage", "none (benchmark health)", "all"),
];

/// Accumulated time and call count of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub ns: u128,
    pub calls: u64,
}

impl Span {
    /// Mean nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Spans by layer name plus the deterministic counters beside them.
#[derive(Debug, Default)]
pub struct Layers {
    spans: BTreeMap<&'static str, Span>,
    counters: BTreeMap<&'static str, u64>,
}

impl Layers {
    /// Adds one call of `elapsed` to layer `name`.
    pub fn time(&mut self, name: &'static str, elapsed: Duration) {
        self.time_calls(name, elapsed, 1);
    }

    /// Adds `calls` calls taking `elapsed` in total to layer `name`.
    pub fn time_calls(&mut self, name: &'static str, elapsed: Duration, calls: u64) {
        let span = self.spans.entry(name).or_default();
        span.ns += elapsed.as_nanos();
        span.calls += calls;
    }

    /// Adds `by` to counter `name`.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_default() += by;
    }

    pub fn span(&self, name: &str) -> Span {
        self.spans.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or_default()
    }

    /// Nanoseconds covered by every named span.
    pub fn covered_ns(&self) -> u128 {
        self.spans.values().map(|span| span.ns).sum()
    }

    /// The deterministic counters as one `name=value` line.
    pub fn counters_line(&self) -> String {
        self.counters
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// What a traced replay of one workload found.
pub struct Trace {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub layers: Layers,
    pub attempted: u64,
    pub failed: u64,
    /// Lines printed above the metrics.
    pub notes: Vec<String>,
}
