//! `latest run --checkpoint` end to end: the settle log it writes resumes
//! a rerun to identical output, and a log that cannot be written ends the
//! run with an error instead of finishing as if it were resumable.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("latest-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_with_checkpoint(path: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_latest"))
        .args(["run", "--model", "a100", "--min", "3", "--max", "6"])
        .args(["--sms", "2", "--seed", "5", "--json", "--checkpoint"])
        .arg(path)
        .arg("705,1410")
        .output()
        .expect("latest runs")
}

#[test]
fn a_checkpointed_rerun_resumes_to_identical_output() {
    let dir = temp_dir("resume");
    let path = dir.join("run.log");
    let first = run_with_checkpoint(&path);
    assert!(first.status.success(), "{first:?}");
    // The header plus one line per settled pair.
    let lines = fs::read_to_string(&path).unwrap().lines().count();
    assert_eq!(lines, 3);

    let again = run_with_checkpoint(&path);
    assert!(again.status.success(), "{again:?}");
    let stderr = String::from_utf8_lossy(&again.stderr);
    assert!(
        stderr.contains("(2 of 2 pairs already settled)"),
        "{stderr}"
    );
    assert_eq!(first.stdout, again.stdout);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unwritable_checkpoint_fails_the_run() {
    let dir = temp_dir("squat");
    // Permission bits do not stop a root test runner, so the log path is
    // made unwritable by a directory squatting on it.
    let path = dir.join("run.log");
    fs::create_dir_all(&path).unwrap();
    let out = run_with_checkpoint(&path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: writing checkpoint"), "{stderr}");
    assert!(out.stdout.is_empty(), "no result after a failed write");
    fs::remove_dir_all(&dir).ok();
}
