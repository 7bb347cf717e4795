//! Exit-code regression tests for the `skyline` binary.
//!
//! `compute --skyband K` bypasses the algorithm registry, and an early
//! version returned exit 0 even when `--algo` named a nonexistent
//! algorithm. Unknown names must fail loudly on every path.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_skyline"))
}

/// Write a tiny CSV fixture and return its path.
fn fixture(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("skyline-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, "1.0,5.0\n5.0,1.0\n6.0,6.0\n").expect("write fixture");
    path
}

#[test]
fn unknown_algo_fails_in_skyband_mode() {
    let csv = fixture("skyband.csv");
    let out = bin()
        .args([
            "compute",
            csv.to_str().unwrap(),
            "--algo",
            "definitely-not-an-algorithm",
            "--skyband",
            "2",
        ])
        .output()
        .expect("run skyline");
    assert!(
        !out.status.success(),
        "unknown --algo with --skyband must fail, got exit 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"),
        "stderr names the problem: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn unknown_algo_fails_in_compute_mode() {
    let csv = fixture("compute.csv");
    let out = bin()
        .args(["compute", csv.to_str().unwrap(), "--algo", "bogus"])
        .output()
        .expect("run skyline");
    assert!(!out.status.success());
}

#[test]
fn valid_invocations_still_exit_zero() {
    let csv = fixture("ok.csv");
    for extra in [vec!["--algo", "SFS"], vec!["--skyband", "2"]] {
        let mut args = vec!["compute", csv.to_str().unwrap()];
        args.extend(extra.iter());
        let out = bin().args(&args).output().expect("run skyline");
        assert!(
            out.status.success(),
            "{args:?} should succeed; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().expect("run skyline");
    assert!(!out.status.success());
}

/// Run `args` to completion, or kill it and fail if it is still running
/// after 10 s (a server that started despite a bad flag never exits).
fn run_bounded(args: &[&str]) -> std::process::Output {
    use std::process::Stdio;
    let mut child = bin()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run skyline");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while child.try_wait().expect("poll skyline").is_none() {
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?} was still running after 10 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

/// A misspelt flag must not fall back to a default in silence: it exits
/// 1 with the usage and names the flag.
#[test]
fn unknown_flags_fail_with_the_usage() {
    for (args, flag) in [
        (
            &["serve", "--port", "0", "--treads", "3", "--shard-reuse"][..],
            "--treads",
        ),
        (
            &[
                "generate", "--dist", "UI", "-n", "5", "-d", "2", "--sed", "9",
            ][..],
            "--sed",
        ),
    ] {
        let out = run_bounded(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}; stderr: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(
            stderr.contains("usage:"),
            "{args:?} prints the usage: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} produced output");
    }
}
