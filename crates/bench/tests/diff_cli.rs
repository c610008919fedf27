//! Exit-code contract of `harness diff` on malformed input: every invalid
//! JSON file, however deeply nested, is a runtime error (exit 1) naming the
//! file, never a crash.

use std::path::PathBuf;
use std::process::Command;

/// Writes `contents` to a file unique to this test process and returns it.
fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("polycanary-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp dir is writable");
    path
}

fn diff_exit(file: &PathBuf) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .arg("diff")
        .arg(file)
        .arg(file)
        .output()
        .expect("harness runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn diff_of_hostile_nesting_exits_1_with_a_json_error() {
    let file = temp_file("deep.json", &"[".repeat(200_000));
    let (code, stderr) = diff_exit(&file);
    std::fs::remove_file(&file).ok();
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("invalid JSON at byte"), "stderr: {stderr}");
    assert!(stderr.contains("nesting"), "stderr: {stderr}");
}

#[test]
fn diff_of_truncated_json_exits_1() {
    let file = temp_file("truncated.json", "{\"scenario\": ");
    let (code, stderr) = diff_exit(&file);
    std::fs::remove_file(&file).ok();
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("invalid JSON at byte"), "stderr: {stderr}");
}
