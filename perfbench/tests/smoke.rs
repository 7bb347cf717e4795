//! Drives every workload end to end in smoke mode (tiny n, one second)
//! against a release `skyline` binary built from this checkout.

use std::path::{Path, PathBuf};
use std::process::Command;

fn skyline_binary(scratch: &Path) -> PathBuf {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository");
    let target = scratch.join("skyline-build");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "skyline",
        ])
        .arg("--manifest-path")
        .arg(repo.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building skyline failed");
    target.join("release").join("skyline")
}

fn run(skyline: &Path, cwd: &Path, workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--skyline")
        .arg(skyline)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .current_dir(cwd)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_workload_runs_and_checks_its_answers() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let skyline = skyline_binary(&scratch);
    for workload in ["cold-subspace", "serve-rw", "cluster-rw"] {
        let line = run(&skyline, &scratch, workload, "0");
        assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
        for metric in ["setup_s", "write_p50_ms", "ops_per_s", "peak_rss_mb"] {
            assert!(
                line.contains(&format!("\"{metric}\"")),
                "{workload} lacks {metric}: {line}"
            );
        }
        assert!(
            !line.contains("read_p50_ms"),
            "{workload}: an ungated metric in the result line: {line}"
        );
        let traced = run(&skyline, &scratch, workload, "1");
        assert!(
            traced.starts_with("{\"correct\": true"),
            "{workload} traced: {traced}"
        );
        for metric in [
            "core.dominance.tests",
            "serve.cache.hit_ratio",
            "client.unattributed_us",
        ] {
            assert!(
                traced.contains(&format!("\"{metric}\"")),
                "{workload} traced lacks {metric}"
            );
        }
    }
    assert!(
        !scratch.join(".bench_work").exists(),
        "the run must remove its scratch data"
    );
}
