//! Differential contract between the decoded dispatch loop (`Cpu::run`)
//! and the pre-decode reference interpreter (`Cpu::run_reference`).
//!
//! The decode cache is sold as a *pure acceleration*: byte-identical
//! `RunOutcome`s (exit, cycles, instructions) and identical observable
//! process effects on every program, so campaign records and SPRT verdicts
//! cannot move.  This suite enforces that over
//!
//! * PRNG-generated programs stuffed with the adversarial shapes — fusable
//!   canary sequences, branches into the middle of fused sequences, calls
//!   to invalid function ids, falling off function ends, budget cut-offs
//!   at every small count,
//! * every workload build cell (native, every scheme's compiler plugin,
//!   both rewriter link modes),
//! * every victim scheme × deployment cell under benign, leaking and
//!   stack-smashing payloads,
//! * whole campaigns: exported records identical at 1 vs 8 workers.

use polycanary::attacks::{
    AttackKind, Campaign, CampaignReport, Deployment, StopRule, VictimConfig, VictimKey,
    VictimSnapshot,
};
use polycanary::core::record::Record;
use polycanary::core::SchemeKind;
use polycanary::rewriter::LinkMode;
use polycanary::vm::mem::DEFAULT_STACK_SIZE;
use polycanary::vm::{
    Cpu, ExecConfig, FuncId, Inst, Machine, OwfKey, Pid, Process, Program, Reg, RunOutcome,
};
use polycanary::workloads::{build_machine, spec_suite, Build};

/// Deterministic PRNG for program generation (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const REGS: [Reg; 6] = [Reg::Rax, Reg::Rbx, Reg::Rcx, Reg::Rdx, Reg::Rdi, Reg::R12];

/// Appends one randomly chosen instruction chunk.  Chunks include the
/// fusable canary sequences (so the fused superinstructions are exercised)
/// and branches whose targets can land in the middle of those sequences or
/// past the end of the function.
fn push_chunk(rng: &mut Rng, insts: &mut Vec<Inst>) {
    let reg = REGS[rng.below(REGS.len() as u64) as usize];
    let frame_offset = -8 * (1 + rng.below(6) as i32);
    match rng.below(20) {
        0 => {
            // Fusable SSP canary prologue.
            insts.push(Inst::MovTlsToReg { dst: reg, offset: 0x28 });
            insts.push(Inst::MovRegToFrame { src: reg, offset: frame_offset });
        }
        1 => {
            // Fusable full canary epilogue.
            insts.push(Inst::MovFrameToReg { dst: reg, offset: frame_offset });
            insts.push(Inst::XorTlsReg { dst: reg, offset: 0x28 });
            insts.push(Inst::JeSkip(1));
            insts.push(Inst::CallStackChkFail);
        }
        2 => {
            // Fusable compare+guard without the frame load.
            insts.push(Inst::XorTlsReg { dst: reg, offset: 0x28 });
            insts.push(Inst::JeSkip(1));
            insts.push(Inst::CallStackChkFail);
        }
        3 => insts.push(Inst::JeSkip(rng.below(6) as usize)),
        4 => insts.push(Inst::JneSkip(rng.below(6) as usize)),
        5 => insts.push(Inst::JmpSkip(rng.below(5) as usize)),
        6 => insts.push(Inst::CallFn(FuncId(rng.below(6) as usize))),
        7 => insts.push(Inst::Ret),
        8 => insts.push(Inst::CopyInputToFrame { offset: frame_offset }),
        9 => insts.push(Inst::CopyInputToFrameBounded {
            offset: frame_offset,
            max_len: rng.below(24) as u32,
        }),
        10 => insts.push(Inst::Rdrand(reg)),
        11 => insts.push(Inst::Rdtsc),
        12 => insts.push(Inst::PushReg(reg)),
        13 => insts.push(Inst::PopReg(reg)),
        14 => insts.push(Inst::MovRegToFrame { src: reg, offset: frame_offset }),
        15 => insts.push(Inst::MovImmToReg { dst: reg, imm: rng.below(1 << 20) }),
        16 => insts.push(Inst::CmpRegImm { reg, imm: rng.below(3) }),
        17 => insts.push(Inst::TestReg(reg)),
        18 => insts.push(Inst::XorRegReg { dst: reg, src: Reg::Rbx }),
        _ => insts.push(Inst::CallCheckCanary32),
    }
}

fn gen_program(rng: &mut Rng) -> Program {
    let mut prog = Program::new();
    let nfuncs = 1 + rng.below(3);
    for f in 0..nfuncs {
        let mut insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x40),
        ];
        for _ in 0..(2 + rng.below(12)) {
            push_chunk(rng, &mut insts);
        }
        // Most functions return cleanly; some fall off the end.
        if rng.below(4) != 0 {
            insts.push(Inst::Leave);
            insts.push(Inst::Ret);
        }
        prog.add_function(format!("f{f}"), insts).unwrap();
    }
    prog.set_entry(FuncId(0));
    prog.finalize();
    prog
}

/// Runs `entry` through one dispatcher on a freshly prepared process and
/// returns the outcome plus every attacker-observable process effect.
#[allow(clippy::type_complexity)]
fn observe(
    prog: &Program,
    entry: FuncId,
    cfg: &ExecConfig,
    seed: u64,
    input_len: usize,
    reference: bool,
) -> (RunOutcome, Vec<u8>, Vec<u64>, Vec<u64>) {
    let mut p = Process::new(Pid(1), seed, DEFAULT_STACK_SIZE);
    p.tls.set_canary(seed ^ 0xD00D_F00D_0DD5_EED5);
    p.owf_key = Some(OwfKey::new(seed, seed.rotate_left(13)));
    p.set_input(vec![0x41u8; input_len]);
    let mut cpu = Cpu::new();
    let exit = if reference {
        cpu.run_reference(prog, &mut p, entry, cfg)
    } else {
        cpu.run(prog, &mut p, entry, cfg)
    };
    let outcome = RunOutcome { exit, cycles: cpu.cycles, instructions: cpu.instructions };
    (outcome, p.take_output(), p.canary_addresses.clone(), p.dcr_list.clone())
}

#[test]
fn fuzzed_programs_agree_across_dispatchers() {
    let mut rng = Rng(0x5EED_CAFE);
    for case in 0..200u32 {
        let prog = gen_program(&mut rng);
        let seed = rng.next();
        let input_len = rng.below(40) as usize;
        for max_instructions in [0u64, 1, 2, 3, 5, 9, 17, 33, 120, 5_000] {
            let cfg = ExecConfig { max_instructions, hijack_target: Some(0x4141_4141) };
            let cached = observe(&prog, FuncId(0), &cfg, seed, input_len, false);
            let reference = observe(&prog, FuncId(0), &cfg, seed, input_len, true);
            assert_eq!(cached, reference, "case {case}, budget {max_instructions}");
        }
    }
}

#[test]
fn workload_build_cells_agree_across_dispatchers() {
    let builds: Vec<Build> = [
        Build::Native,
        Build::BinaryRewriter(LinkMode::Dynamic),
        Build::BinaryRewriter(LinkMode::Static),
    ]
    .into_iter()
    .chain(SchemeKind::ALL.into_iter().map(Build::Compiler))
    .collect();
    // A tight budget keeps the cell sweep fast; hitting the limit is itself
    // an outcome both dispatchers must agree on, cycle for cycle.
    let cfg = ExecConfig { max_instructions: 150_000, hijack_target: None };
    for spec in spec_suite().iter().take(3) {
        let module = spec.module();
        for build in &builds {
            let label = format!("{} × {}", spec.name, build.label());
            let mut machine = build_machine(&module, *build, 0xBEEF);
            let worker = machine.spawn();
            let entry = machine.program().entry().unwrap();
            let run = |reference: bool| {
                let mut p = worker.clone();
                let mut cpu = Cpu::new();
                let exit = if reference {
                    cpu.run_reference(machine.program(), &mut p, entry, &cfg)
                } else {
                    cpu.run(machine.program(), &mut p, entry, &cfg)
                };
                let outcome =
                    RunOutcome { exit, cycles: cpu.cycles, instructions: cpu.instructions };
                (outcome, p.take_output())
            };
            assert_eq!(run(false), run(true), "{label}");
        }
    }
}

#[test]
fn victim_cells_agree_across_dispatchers_under_attack_payloads() {
    for scheme in SchemeKind::ALL {
        for deployment in [Deployment::Compiler, Deployment::BinaryRewriter] {
            let config = VictimConfig::new(scheme, 0xD15).with_deployment(deployment);
            let snapshot = VictimSnapshot::build(VictimKey::of(&config));
            let geometry = snapshot.geometry();
            let hooks = snapshot.runtime_scheme().scheme().runtime_hooks(0xFEED);
            let mut machine = Machine::from_snapshot(snapshot.vm_snapshot(), hooks, config.seed);
            let mut parent = machine.restore(snapshot.vm_snapshot());
            // A real forked worker: TLS cloned, then the scheme's fork hook
            // runs in the child, exactly as the server's connect path does.
            let worker = machine.fork(&mut parent);
            let program = machine.program();
            let smash = vec![0x41u8; geometry.full_overwrite_len()];
            let payloads: [(&str, &[u8]); 3] = [
                ("handle_request", b"GET / HTTP/1.1"),
                ("leak_status", b"status"),
                ("handle_request", &smash),
            ];
            for (endpoint, payload) in payloads {
                let entry = program.function_by_name(endpoint).unwrap();
                let label = format!("{scheme} × {} × {endpoint}", deployment.label());
                let run = |reference: bool| {
                    let mut p = worker.clone();
                    p.set_input(payload.to_vec());
                    let mut cpu = Cpu::new();
                    let cfg = ExecConfig::default();
                    let exit = if reference {
                        cpu.run_reference(program, &mut p, entry, &cfg)
                    } else {
                        cpu.run(program, &mut p, entry, &cfg)
                    };
                    let outcome =
                        RunOutcome { exit, cycles: cpu.cycles, instructions: cpu.instructions };
                    (outcome, p.take_output())
                };
                assert_eq!(run(false), run(true), "{label}");
            }
        }
    }
}

/// A campaign report's exported record minus the volatile timing fields —
/// the portion the determinism contract promises byte-identical.
fn scrubbed_record(report: &CampaignReport) -> Record {
    report
        .record()
        .fields()
        .iter()
        .filter(|(name, _)| name != "wall_ms" && name != "workers")
        .fold(Record::new(), |rec, (name, value)| rec.field(name.clone(), value.clone()))
}

#[test]
fn campaign_records_identical_at_one_and_eight_workers() {
    for scheme in [SchemeKind::Ssp, SchemeKind::Pssp] {
        let base = Campaign::new(AttackKind::ByteByByte { budget: 2_000 }, scheme)
            .with_seed_range(0xFA11_0F5E, 48)
            .with_stop_rule(StopRule::sprt());
        let one = base.clone().with_workers(1).run();
        let eight = base.with_workers(8).run();
        assert_eq!(one.runs, eight.runs, "{scheme}: per-victim records");
        assert_eq!(scrubbed_record(&one), scrubbed_record(&eight), "{scheme}: exported record");
    }
}
