//! Contract of `harness --list-passes`: it prints exactly the pipeline the
//! selected `--opt-level` runs and exits 0; an unknown level is a usage
//! error (exit 2).

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness")).args(args).output().expect("harness runs")
}

#[test]
fn list_passes_prints_the_o2_pipeline_and_exits_0() {
    let out = harness(&["--opt-level", "O2", "--list-passes"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "O2 pipeline:\n  stack-protect\n  critical-variables\n  compute-fusion\n  \
         redundant-canary-load-elim\n  cost-estimation\n"
    );
}

#[test]
fn list_passes_rejects_an_unknown_opt_level_with_exit_2() {
    let out = harness(&["--opt-level", "O3", "--list-passes"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown opt level `O3`"));
}
