//! `repro` refuses flags that are not on its mode's usage line: a
//! misspelt or retired flag must not run a benchmark and overwrite an
//! artefact.

use std::path::PathBuf;
use std::process::Command;

/// Run `repro bench-json <flag> <extra>... --out <tmp>/<name>.json`;
/// assert it exits 1, names the flag on stderr and writes no file.
fn refuses(flag: &str, extra: &[&str]) {
    let dir = std::env::temp_dir().join(format!(
        "repro-flags-{}-{}",
        std::process::id(),
        flag.trim_start_matches('-')
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out: PathBuf = dir.join("out.json");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("bench-json")
        .arg(flag)
        .args(extra)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    let written = out.exists();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert_eq!(run.status.code(), Some(1), "{flag}: {stderr}");
    assert!(stderr.contains(flag), "{flag} not named: {stderr}");
    assert!(stderr.contains("usage:"), "no usage text: {stderr}");
    assert!(!written, "{flag} wrote {}", out.display());
}

#[test]
fn retired_serve_mode_is_refused() {
    refuses("--serve", &["--requests", "2"]);
}

#[test]
fn misspelt_flag_is_refused() {
    refuses("--serv", &["--runs", "1"]);
}
