//! `latest queue` keeps serving through I/O failures it cannot repair, and
//! says so: a quarantine directory that cannot be listed and an event log
//! that cannot be written each produce one warning carrying the error, and
//! the queue still drains.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("latest-cli-queue-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn latest(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_latest"))
        .args(args)
        .arg("--dir")
        .arg(dir)
        .output()
        .expect("latest runs")
}

fn submit_smoke_job(dir: &Path) {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/queue_smoke.json");
    let out = latest(&["queue", "submit", spec], dir);
    assert!(out.status.success(), "{out:?}");
}

fn count(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

#[test]
fn an_unlistable_quarantine_is_warned_once_and_the_queue_drains() {
    let dir = temp_dir("corrupt");
    submit_smoke_job(&dir);
    // A file squatting where the quarantine directory belongs.
    fs::write(dir.join("jobs").join("corrupt"), b"not a directory").unwrap();

    // Exit 3: the job table printed and one job is still pending.
    let status = latest(&["queue", "status"], &dir);
    assert_eq!(status.status.code(), Some(3), "{status:?}");
    assert!(String::from_utf8_lossy(&status.stdout).contains("job-000001"));
    let stderr = String::from_utf8_lossy(&status.stderr);
    assert_eq!(
        count(&stderr, "warning: cannot list quarantined journal entries"),
        1,
        "{stderr}"
    );
    assert!(stderr.contains("jobs/corrupt"), "{stderr}");

    let serve = latest(&["queue", "serve", "--drain", "--workers", "1"], &dir);
    assert!(serve.status.success(), "{serve:?}");
    let stderr = String::from_utf8_lossy(&serve.stderr);
    assert_eq!(
        count(&stderr, "warning: cannot list quarantined journal entries"),
        1,
        "{stderr}"
    );
    assert!(stderr.contains("job-000001 done"), "{stderr}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unwritable_event_log_is_warned_once_and_the_queue_drains() {
    let dir = temp_dir("eventlog");
    submit_smoke_job(&dir);
    // Every append would rotate (the cap is one byte), and the rotation's
    // rename cannot replace a non-empty directory.
    let rotated = dir.join("events.log.1");
    fs::create_dir_all(rotated.join("occupied")).unwrap();

    let serve = latest(
        &[
            "queue",
            "serve",
            "--drain",
            "--workers",
            "1",
            "--log-max-bytes",
            "1",
        ],
        &dir,
    );
    assert!(serve.status.success(), "{serve:?}");
    let stderr = String::from_utf8_lossy(&serve.stderr);
    assert_eq!(count(&stderr, "warning: writing"), 1, "{stderr}");
    assert!(stderr.contains("events.log"), "{stderr}");
    assert!(stderr.contains("job-000001 done"), "{stderr}");
    fs::remove_dir_all(&dir).ok();
}
