//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list                 # experiment index
//! repro <exp-id>... [--full] [--runs N]
//! repro all [--full]         # everything, in paper order
//! repro bench-json [--out BENCH_PR2.json] [--runs N] [--threads T]
//! repro bench-json --replicated [--out BENCH_PR8.json] [--requests N] [--threads T]
//! ```
//!
//! Each mode accepts exactly the flags on its usage line; any other
//! flag exits 1 with the usage text.
//!
//! `bench-json` measures the evaluation suite plus the parallel engines
//! on the fixed reference workload and writes a machine-readable
//! `BENCH_*.json` artefact (per-algorithm mean DT, milliseconds, skyline
//! size). `--threads` sets the worker count of the `P-*` rows; the
//! default is one per CPU, minimum two so the partition-merge path is
//! exercised.
//!
//! `bench-json --replicated` benchmarks change-feed replication: a
//! follower (`--follow`) tails the primary while it absorbs streaming
//! inserts. Each sample times ack-on-primary to visible-on-follower
//! (replication lag, p50/p99), then pure follower reads measure the
//! read throughput a replica adds off the primary's critical path.
//! `--requests N` sets the lag sample count (follower reads take 4×N).
//!
//! Default workloads are laptop-scale; `--full` uses the paper's exact
//! cardinalities (hours of compute for the AC sweeps). Results print to
//! stdout; progress goes to stderr.

use std::path::Path;
use std::process::ExitCode;

use skyline_bench::artifact::{reference_workload, write_bench_artifact};
use skyline_bench::experiments::{experiment_index, run_experiment};
use skyline_bench::harness::Scale;
use skyline_bench::replication_bench::write_replication_bench_artifact;

/// The usage line of each mode; a mode accepts exactly its line's flags.
const EXPERIMENTS: &str = "repro <exp-id>...|all|list [--full] [--runs N]";
const BENCH: &str = "repro bench-json [--out BENCH_PR2.json] [--runs N] [--threads T]";
const REPLICATED: &str =
    "repro bench-json --replicated [--out BENCH_PR8.json] [--requests N] [--threads T]";

/// Refuse any flag of `args` that is not on the usage `line`. A flag
/// followed there by a placeholder takes the next argument as its value.
fn check_flags(args: &[String], line: &str) -> Result<(), String> {
    let words: Vec<&str> = line
        .split_whitespace()
        .map(|w| w.trim_matches(['[', ']']))
        .collect();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            continue;
        }
        let Some(at) = words.iter().position(|w| w == arg) else {
            return Err(format!(
                "unknown flag {arg:?}\nusage: {EXPERIMENTS}\n       {BENCH}\n       {REPLICATED}"
            ));
        };
        if words.get(at + 1).is_some_and(|w| !w.starts_with('-')) {
            rest.next(); // the flag's value, whatever it looks like
        }
    }
    Ok(())
}

/// The positive integer after `flag`, or `default` when it is absent.
fn positive(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("{flag} expects a positive integer")),
    }
}

fn bench_json(args: &[String]) -> Result<(), String> {
    let replicated = args.iter().any(|a| a == "--replicated");
    let out = match args.iter().position(|a| a == "--out") {
        None if replicated => "BENCH_PR8.json",
        None => "BENCH_PR2.json",
        Some(i) => args.get(i + 1).ok_or("--out expects a path")?,
    };
    // 0 = auto: one per CPU, minimum two.
    let threads = positive(args, "--threads", 0)?;
    let path = Path::new(out);
    let label = path.file_stem().and_then(|s| s.to_str()).unwrap_or("BENCH");
    let spec = reference_workload();
    let written = if replicated {
        let mutations = positive(args, "--requests", 60)?;
        eprintln!(
            "==> bench-json --replicated: {} n={} d={} seed={} ({mutations} lag samples / {} follower reads) -> {out}",
            spec.distribution.tag(),
            spec.cardinality,
            spec.dims,
            spec.seed,
            mutations * 4
        );
        write_replication_bench_artifact(path, label, &spec, mutations, mutations * 4, threads)
    } else {
        let runs = positive(args, "--runs", 3)?;
        eprintln!(
            "==> bench-json: {} n={} d={} seed={} ({runs} runs) -> {out}",
            spec.distribution.tag(),
            spec.cardinality,
            spec.dims,
            spec.seed
        );
        write_bench_artifact(path, label, &spec, runs, threads)
    };
    written.map_err(|e| format!("{out}: {e}"))
}

fn experiments(args: &[String]) -> Result<(), String> {
    let full = args.iter().any(|a| a == "--full");
    let runs = positive(args, "--runs", if full { 10 } else { 1 })?;
    let scale = Scale { full, runs };

    let mut ids: Vec<String> = Vec::new();
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        match a.as_str() {
            "--full" => {}
            "--runs" => skip_next = true,
            other => ids.push(other.to_string()),
        }
    }

    if ids.is_empty() || ids[0] == "list" {
        println!("experiments (laptop-scale by default; add --full for paper sizes):");
        for (id, desc) in experiment_index() {
            println!("  {id:<9} {desc}");
        }
        println!("  all       run everything in paper order");
        println!(
            "  bench-json [--out BENCH_PR2.json] [--runs N] [--threads T]  machine-readable suite timings"
        );
        println!(
            "  bench-json --replicated [--out BENCH_PR8.json] [--requests N] [--threads T]  replication lag, follower reads, failover"
        );
        return Ok(());
    }

    if ids.len() == 1 && ids[0] == "all" {
        ids = experiment_index()
            .iter()
            .map(|(id, _)| id.to_string())
            // The RT ids alias their DT sibling; running both would just
            // repeat the same computation.
            .filter(|id| {
                !matches!(
                    id.as_str(),
                    "fig5" | "table3" | "table5" | "table7" | "table9" | "table11" | "table13"
                )
            })
            .collect();
    }

    for id in &ids {
        eprintln!(
            "==> {id} ({} scale, {} run{} per cell)",
            if full { "paper" } else { "laptop" },
            runs,
            if runs == 1 { "" } else { "s" }
        );
        let start = std::time::Instant::now();
        let output = run_experiment(id, scale)
            .map_err(|e| format!("{e}\nrun `repro list` for the experiment index"))?;
        println!("{output}");
        eprintln!("    done in {:.1}s", start.elapsed().as_secs_f64());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("bench-json") {
        let line = if args.iter().any(|a| a == "--replicated") {
            REPLICATED
        } else {
            BENCH
        };
        check_flags(&args, line).and_then(|()| bench_json(&args[1..]))
    } else {
        check_flags(&args, EXPERIMENTS).and_then(|()| experiments(&args))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
