//! The `build-run` workload: the 28-program SPEC-like suite compiled,
//! verified and run to completion on one thread, with no fork, pool or
//! attacker.
//!
//! A cell is one (program, build, opt level) triple: 4 compiler schemes ×
//! {O0, O2}, plus the SSP build at each level rewritten to P-SSP for
//! dynamic and static linking — 12 cells a program, 336 a pass.  Each cell
//! runs with its own seed and input, both derived from the workload seed.

use std::collections::BTreeMap;
use std::time::Instant;

use polycanary_compiler::codegen::Compiler;
use polycanary_compiler::ir::ModuleDef;
use polycanary_compiler::OptLevel;
use polycanary_core::record::Record;
use polycanary_core::scheme::SchemeKind;
use polycanary_rewriter::{LinkMode, Rewriter};
use polycanary_verifier::{verify_compiled, verify_rewritten};
use polycanary_vm::cpu::{Cpu, ExecConfig, Exit, RunOutcome};
use polycanary_vm::machine::Machine;
use polycanary_vm::process::Process;
use polycanary_workloads::spec::spec_suite;

use crate::layers::{Layers, Trace};
use crate::util::{export_round_trip, mix, Phase};

/// The compiler schemes of the matrix: the paper's baseline and its three
/// compiler-deployed variants.
const SCHEMES: [SchemeKind; 4] =
    [SchemeKind::Ssp, SchemeKind::Pssp, SchemeKind::PsspLv, SchemeKind::PsspOwf];
const OPTS: [OptLevel; 2] = [OptLevel::O0, OptLevel::O2];
/// Cells whose records are exported together.
const BATCH: usize = 12;

#[derive(Debug, Clone, Copy)]
enum Vehicle {
    Compiler(SchemeKind),
    Rewriter(LinkMode),
}

#[derive(Debug, Clone)]
struct Cell {
    program: usize,
    vehicle: Vehicle,
    opt: OptLevel,
    seed: u64,
    input: Vec<u8>,
}

impl Cell {
    fn label(&self, suite: &Suite) -> String {
        let build = match self.vehicle {
            Vehicle::Compiler(kind) => kind.name().to_string(),
            Vehicle::Rewriter(LinkMode::Dynamic) => "rewrite-dynamic".to_string(),
            Vehicle::Rewriter(LinkMode::Static) => "rewrite-static".to_string(),
        };
        format!("{}/{build}/{}", suite.names[self.program], self.opt)
    }
}

/// The suite's modules and one pass of cells, built in set-up.
pub struct Suite {
    names: Vec<&'static str>,
    modules: Vec<ModuleDef>,
    cells: Vec<Cell>,
}

/// Set-up: generate every program's module and the pass's cells with their
/// seeds and inputs (8 to 128 bytes, so the input copies' cycle counts
/// depend on the seed).
pub fn setup(seed: u64) -> Suite {
    let programs = spec_suite();
    let mut cells = Vec::new();
    for program in 0..programs.len() {
        let vehicles = SCHEMES
            .iter()
            .map(|&kind| Vehicle::Compiler(kind))
            .chain([Vehicle::Rewriter(LinkMode::Dynamic), Vehicle::Rewriter(LinkMode::Static)]);
        for vehicle in vehicles {
            for opt in OPTS {
                let index = cells.len() as u64;
                let cell_seed = mix(seed, index);
                let len = 8 + (cell_seed % 121) as usize;
                let input = (0..len as u64).map(|i| mix(cell_seed, i) as u8).collect();
                cells.push(Cell { program, vehicle, opt, seed: cell_seed, input });
            }
        }
    }
    Suite {
        names: programs.iter().map(|program| program.name).collect(),
        modules: programs.iter().map(|program| program.module()).collect(),
        cells,
    }
}

/// What one cell produced.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CellOut {
    exit: Exit,
    cycles: u64,
    instructions: u64,
    code_bytes: u64,
    sites: u64,
    findings: usize,
}

impl CellOut {
    fn record(&self, label: String) -> Record {
        Record::new()
            .field("cell", label)
            .field("exit", format!("{:?}", self.exit))
            .field("cycles", self.cycles)
            .field("instructions", self.instructions)
            .field("code_bytes", self.code_bytes)
            .field("findings", self.findings)
    }
}

/// Runs `f`, adding its time and `calls` calls to layer `name` when
/// tracing.
fn timed<T>(
    layers: &mut Option<&mut Layers>,
    name: &'static str,
    calls: u64,
    f: impl FnOnce() -> T,
) -> T {
    match layers {
        None => f(),
        Some(layers) => {
            let started = Instant::now();
            let value = f();
            layers.time_calls(name, started.elapsed(), calls);
            value
        }
    }
}

fn compiler_span(opt: OptLevel) -> &'static str {
    match opt {
        OptLevel::O0 => "compiler.O0",
        OptLevel::O1 => "compiler.O1",
        OptLevel::O2 => "compiler.O2",
    }
}

/// Builds the cell's machine and process, ready to run its entry point.
fn load(program: polycanary_vm::program::Program, cell: &Cell) -> (Machine, Process) {
    let hooks_scheme = match cell.vehicle {
        Vehicle::Compiler(kind) => kind,
        Vehicle::Rewriter(_) => SchemeKind::PsspBin32,
    };
    let salt = match cell.vehicle {
        Vehicle::Compiler(_) => 0xB007_0000_0000_0001,
        Vehicle::Rewriter(_) => 0x5EED_B175,
    };
    let hooks = hooks_scheme.scheme().runtime_hooks(cell.seed ^ salt);
    let mut machine = Machine::new(program, hooks, cell.seed);
    let mut process = machine.spawn();
    process.set_input(cell.input.clone());
    (machine, process)
}

/// Compiles (and for rewriter cells, rewrites) the cell's program,
/// verifies it and runs it once to completion, with the pre-decoded
/// interpreter or, for `reference`, with `Cpu::run_reference`.
fn run_cell(
    suite: &Suite,
    cell: &Cell,
    mut layers: Option<&mut Layers>,
    reference: bool,
) -> CellOut {
    let module = &suite.modules[cell.program];
    let (program, code_bytes, sites, findings) = match cell.vehicle {
        Vehicle::Compiler(kind) => {
            let compiled = timed(&mut layers, compiler_span(cell.opt), 1, || {
                Compiler::new(kind).with_opt_level(cell.opt).compile(module)
            })
            .expect("suite programs compile");
            let findings = timed(&mut layers, "verifier", 1, || verify_compiled(&compiled)).len();
            let code_bytes = compiled.code_size();
            // Dropping the module's side tables is the compiler's cost too.
            let program = timed(&mut layers, compiler_span(cell.opt), 0, move || {
                let compiled = compiled;
                compiled.program
            });
            (program, code_bytes, 0, findings)
        }
        Vehicle::Rewriter(mode) => {
            let original = timed(&mut layers, compiler_span(cell.opt), 1, || {
                Compiler::new(SchemeKind::Ssp)
                    .with_opt_level(cell.opt)
                    .with_preserved_canary_shapes()
                    .compile(module)
            })
            .expect("suite programs compile")
            .program;
            let (rewritten, report) = timed(&mut layers, "rewriter", 1, || {
                let mut rewritten = original.clone();
                let report = Rewriter::new().with_link_mode(mode).rewrite(&mut rewritten);
                (rewritten, report)
            });
            let report = report.expect("SSP suite programs are rewritable");
            let findings =
                timed(&mut layers, "verifier", 1, || verify_rewritten(&original, &rewritten)).len();
            let sites = (report.prologues_patched + report.epilogues_patched) as u64;
            let code_bytes = original.text_size();
            timed(&mut layers, compiler_span(cell.opt), 0, || drop(original));
            (rewritten, code_bytes, sites, findings)
        }
    };
    let (machine, mut process) = timed(&mut layers, "vm.load", 1, || load(program, cell));
    let outcome = timed(&mut layers, "vm.run", 1, || {
        let entry = machine.program().entry().expect("suite programs have an entry point");
        if reference {
            let mut cpu = Cpu::new();
            let exit =
                cpu.run_reference(machine.program(), &mut process, entry, &ExecConfig::default());
            RunOutcome { exit, cycles: cpu.cycles, instructions: cpu.instructions }
        } else {
            machine.run_function_id(&mut process, entry)
        }
    });
    // Tearing the machine down is the load layer's other half.
    timed(&mut layers, "vm.load", 0, || drop((machine, process)));
    if let Some(layers) = layers {
        layers.count("instructions", outcome.instructions);
        layers.count("cycles", outcome.cycles);
        layers.count("code_bytes", code_bytes);
        layers.count("rewrite_sites", sites);
        layers.count("findings", findings as u64);
        layers.count("cells", 1);
    }
    CellOut {
        exit: outcome.exit,
        cycles: outcome.cycles,
        instructions: outcome.instructions,
        code_bytes,
        sites,
        findings,
    }
}

/// Whether a cell's output passes the in-phase checks.
fn clean(out: &CellOut) -> bool {
    out.findings == 0 && out.exit.is_normal()
}

/// What the timed phase measured.
pub struct Measured {
    /// A cell's time covers compile, verify, load and run.
    pub phase: Phase,
    pub failed: u64,
    /// First output of every cell the phase ran, by cell index.
    outputs: Vec<Option<CellOut>>,
    export_bytes: usize,
}

impl Measured {
    fn new(suite: &Suite) -> Self {
        Measured {
            phase: Phase::default(),
            failed: 0,
            outputs: vec![None; suite.cells.len()],
            export_bytes: 0,
        }
    }
}

/// One pass over `cells` (by index, wrapping around the suite): runs every
/// cell, exports each batch's records, and checks findings, exits, exports
/// and that a cell run again repeats its first output exactly.
fn pass(
    suite: &Suite,
    cells: std::ops::Range<usize>,
    measured: &mut Measured,
    mut layers: Option<&mut Layers>,
) {
    let indices: Vec<usize> = cells.map(|index| index % suite.cells.len()).collect();
    for batch in indices.chunks(BATCH) {
        let mut records = Vec::with_capacity(batch.len());
        let mut failed = 0;
        for &index in batch {
            let cell = &suite.cells[index];
            let out =
                measured.phase.time(|| (run_cell(suite, cell, layers.as_deref_mut(), false), 1));
            let repeat_ok = match &measured.outputs[index] {
                Some(first) => *first == out,
                None => true,
            };
            failed += u64::from(!(clean(&out) && repeat_ok));
            records.push(out.record(cell.label(suite)));
            measured.outputs[index].get_or_insert(out);
        }
        let exported = timed(&mut layers, "export", 1, || export_round_trip(records));
        measured.export_bytes += exported.unwrap_or(0);
        measured.failed += if exported.is_some() { failed } else { batch.len() as u64 };
    }
}

/// The timed phase: whole passes over the suite until `seconds` have
/// passed, with `between` run (untimed) after each pass.
pub fn measure(suite: &Suite, seconds: f64, between: &mut dyn FnMut()) -> Measured {
    let mut measured = Measured::new(suite);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        pass(suite, 0..suite.cells.len(), &mut measured, None);
        between();
    }
    measured
}

/// Re-runs every cell the phase ran under the reference interpreter
/// (`Cpu::run_reference`) and counts the cells whose exit value or cycle
/// count differ from the phase's.  Runs outside the timed phase.
pub fn reference_mismatches(suite: &Suite, measured: &Measured) -> u64 {
    let mut mismatches = 0;
    for (cell, out) in suite.cells.iter().zip(&measured.outputs) {
        let Some(out) = out else { continue };
        let reference = run_cell(suite, cell, None, true);
        let agrees = matches!((&reference.exit, &out.exit), (Exit::Normal(a), Exit::Normal(b)) if a == b)
            && reference.cycles == out.cycles;
        mismatches += u64::from(!agrees);
    }
    mismatches
}

/// The traced run: `cells` cells in pass order (wrapping into further
/// passes), once untraced (the overhead baseline) and once traced, then the
/// reference check.
pub fn trace(suite: &Suite, cells: usize) -> Trace {
    let mut untraced = Measured::new(suite);
    let started = Instant::now();
    pass(suite, 0..cells, &mut untraced, None);
    let untraced_wall = started.elapsed();

    let mut layers = Layers::default();
    let mut traced = Measured::new(suite);
    let started = Instant::now();
    pass(suite, 0..cells, &mut traced, Some(&mut layers));
    let traced_wall = started.elapsed();
    let repeats = traced.outputs.iter().zip(&untraced.outputs).filter(|(a, b)| a != b).count();
    let failed = traced.failed + reference_mismatches(suite, &traced) + repeats as u64;

    let run = layers.span("vm.run");
    let instructions = layers.counter("instructions");
    let rewrites = layers.span("rewriter");
    let exports = layers.span("export");
    let mut metrics = BTreeMap::new();
    metrics.insert("vm.load.us_per_call", layers.span("vm.load").ns_per_call() / 1e3);
    metrics.insert("vm.run.ns_per_kinst", run.ns as f64 * 1e3 / instructions as f64);
    metrics.insert("vm.run.instructions", instructions as f64);
    metrics.insert("vm.run.cycles", layers.counter("cycles") as f64);
    metrics.insert("compiler.O0.us_per_call", layers.span("compiler.O0").ns_per_call() / 1e3);
    metrics.insert("compiler.O2.us_per_call", layers.span("compiler.O2").ns_per_call() / 1e3);
    metrics.insert("compiler.code_bytes", layers.counter("code_bytes") as f64);
    metrics.insert("rewriter.us_per_call", rewrites.ns_per_call() / 1e3);
    metrics.insert("rewriter.sites_patched", layers.counter("rewrite_sites") as f64);
    metrics.insert("verifier.us_per_call", layers.span("verifier").ns_per_call() / 1e3);
    metrics.insert("verifier.findings", layers.counter("findings") as f64);
    metrics.insert("export.us_per_call", exports.ns_per_call() / 1e3);
    metrics.insert("export.bytes", traced.export_bytes as f64 / exports.calls as f64);
    metrics.insert("trace.overhead_ratio", untraced_wall.as_secs_f64() / traced_wall.as_secs_f64());
    metrics.insert("trace.coverage", layers.covered_ns() as f64 / traced_wall.as_nanos() as f64);
    Trace {
        metrics,
        layers,
        attempted: cells as u64,
        failed: failed.min(cells as u64),
        notes: Vec::new(),
    }
}
