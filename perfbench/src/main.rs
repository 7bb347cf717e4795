//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! Starts the release `skyline` binary as a child process, drives one
//! workload through its HTTP API over one keep-alive connection (closed
//! loop, one client), checks every answer against an in-process oracle,
//! and prints the metrics. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod client;
mod oracle;
mod procs;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use workload::{Class, Inputs, Op, Phase, Rng, Session, Spec};

const USAGE: &str = "usage: perfbench --skyline BIN \
--workload cold-subspace|serve-rw|cluster-rw \
--seed N --seconds S --trace 0|1 [--smoke]";

/// The end-to-end metrics `BENCHMARK.json` gates, which alone go into the
/// result line. `read_p50_ms`, the p99s and `error_rate` are printed
/// only: on a shared host their spread over ten seeds exceeds the largest
/// bound a gated metric may have (see README.md).
const GATED: [&str; 4] = ["setup_s", "write_p50_ms", "ops_per_s", "peak_rss_mb"];

/// Set-ups per untraced run (one under `--smoke`); `setup_s` is their
/// median.
const SETUPS: usize = 3;

pub struct Args {
    pub skyline: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag).ok_or_else(|| format!("missing {flag}"))?;
        v.parse()
            .map_err(|_| format!("{flag} expects a number, got {v:?}"))
    };
    Ok(Args {
        skyline: PathBuf::from(value("--skyline").ok_or("missing --skyline")?),
        workload: value("--workload").ok_or("missing --workload")?.to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace expects 0 or 1, got {v:?}")),
        },
        smoke: argv.iter().any(|a| a == "--smoke"),
    })
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// The result line the command ends with.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<34} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Set up `count` times; keep the last session, stop the others.
pub fn setups(
    spec: &Spec,
    inputs: &Inputs,
    args: &Args,
    work: &WorkDir,
    count: usize,
) -> Result<(Session, Vec<f64>), String> {
    let mut times = Vec::with_capacity(count);
    for i in 0..count {
        let session = workload::setup(
            spec,
            inputs,
            &args.skyline,
            work.0.join(format!("data-{i}")),
        )?;
        times.push(session.setup.as_secs_f64());
        if i + 1 == count {
            return Ok((session, times));
        }
        session.close();
    }
    unreachable!("count is at least 1")
}

/// Shares of each latency class among reads and among writes.
pub fn class_shares(phase: &Phase) -> Vec<(Class, bool, usize, f64)> {
    let mut out = Vec::new();
    for reads in [true, false] {
        let total = phase
            .ops
            .iter()
            .filter(|o| o.class.is_read() == reads)
            .count();
        for class in Class::ALL.into_iter().filter(|c| c.is_read() == reads) {
            let n = phase.ops.iter().filter(|o| o.class == class).count();
            if n > 0 {
                out.push((class, reads, n, n as f64 / total as f64));
            }
        }
    }
    out
}

/// A class share near 50% puts the median on the boundary between two
/// latency populations; one near 1% does the same to the p99.
fn share_warning(share: f64) -> &'static str {
    if (share - 0.5).abs() < 0.05 || (0.005..0.02).contains(&share) {
        "  <- near a reported percentile"
    } else {
        ""
    }
}

pub fn print_classes(phase: &Phase) {
    for (class, reads, n, share) in class_shares(phase) {
        let lat = workload::latency_where(&phase.ops, |o| o.class == class);
        println!(
            "  class {:<16} {:>6} ops  {:>5.1}% of {}  p50 {:.4} ms{}",
            class.name(),
            n,
            share * 100.0,
            if reads { "reads" } else { "writes" },
            lat.p50.unwrap_or(0.0),
            share_warning(share)
        );
    }
}

/// Ops of the timed loop: all but `cold-subspace`'s write blocks.
fn loop_ops(phase: &Phase) -> impl Iterator<Item = &Op> {
    phase.ops.iter().filter(|o| o.class != Class::RemoveAbsent)
}

/// Completed ops per second in each of `stats::WINDOWS` equal time
/// windows of the timed loop.
pub fn window_rates(phase: &Phase) -> Vec<f64> {
    let window = phase.wall.as_secs_f64() / stats::WINDOWS as f64;
    let mut counts = [0usize; stats::WINDOWS];
    for op in loop_ops(phase) {
        counts[((op.start.as_secs_f64() / window) as usize).min(stats::WINDOWS - 1)] += 1;
    }
    counts.iter().map(|&c| c as f64 / window).collect()
}

/// The untraced run: end-to-end metrics only.
fn run_untraced(spec: &Spec, inputs: &Inputs, args: &Args) -> Result<ExitCode, String> {
    let work = WorkDir::new(spec.name)?;
    let count = if args.smoke { 1 } else { SETUPS };
    let (mut session, setup_times) = setups(spec, inputs, args, &work, count)?;
    let initial: Vec<_> = session.tables.iter().map(|t| t.live.clone()).collect();
    let mut rng = Rng::new(args.seed ^ 0x5c41_7e5e);
    let wal_before = workload::wal_state(&session);
    let cpu0 = session.server.cpu_ms();
    let host0 = procs::host_ticks();
    let seconds = Duration::from_secs(args.seconds);
    let mut phase = workload::timed_phase(spec, inputs, &mut session, &mut rng, seconds, false);
    let host1 = procs::host_ticks();
    let cpu1 = session.server.cpu_ms();
    let wal_compactions =
        workload::timed_compactions(inputs, &phase, &wal_before, &workload::wal_state(&session));
    let peak_rss = session.server.peak_rss_mb().unwrap_or(0.0);
    let final_failed = workload::final_read(spec, &mut session, &mut phase);
    session.close();
    let checking = std::time::Instant::now();
    let wrong = workload::check_answers(inputs, &initial, &phase);
    let check_s = checking.elapsed().as_secs_f64();

    let ops = phase.ops.len();
    let timed_ops = loop_ops(&phase).count();
    // Every timed op and each dataset's final read; an op fails on a
    // transport error, a non-2xx status, a wrong version or a wrong answer.
    let attempted = ops + spec.datasets;
    let failed_ops = phase.ops.iter().filter(|o| !o.ok).count() + wrong.len() + final_failed;
    let reads = workload::latency_of(&phase.ops, true);
    let writes = workload::latency_of(&phase.ops, false);
    let cpu_per_op = match (cpu0, cpu1) {
        (Some(a), Some(b)) if ops > 0 => (b - a) / ops as f64,
        _ => 0.0,
    };
    let steal = procs::steal_pct(host0, host1);

    println!(
        "perfbench {} seed {}: n={} d={} `skyline {}`; one keep-alive connection, closed loop",
        spec.name,
        args.seed,
        spec.n,
        spec.dims,
        spec.server_args(std::path::Path::new("<fresh dir>"))
            .join(" ")
    );
    if spec.topology == workload::Topology::Durable {
        println!(
            "  fsync never; data directory synced after load; WAL compactions in timed phase: {}",
            wal_compactions.map_or("unknown (log size does not replay)".to_string(), |c| c
                .to_string())
        );
    }
    let mut setup_sorted = setup_times.clone();
    setup_sorted.sort_by(f64::total_cmp);
    let mut metrics = vec![Metric::new(
        "setup_s",
        stats::median(&setup_times),
        "s",
        format!("median of {} set-ups {:?}", setup_times.len(), setup_sorted),
    )];
    for (prefix, lat) in [("read", &reads), ("write", &writes)] {
        if let Some(p50) = lat.p50 {
            let note = format!("n={}, median of {} windows", lat.n, lat.p50_windows);
            metrics.push(Metric::new(format!("{prefix}_p50_ms"), p50, "ms", note));
        }
        match lat.p99 {
            Some(p99) => metrics.push(Metric::new(
                format!("{prefix}_p99_ms"),
                p99,
                "ms",
                format!("n={}, {} beyond", lat.n, lat.p99_beyond),
            )),
            None if lat.n > 0 => println!(
                "  {prefix}_p99_ms not reported: {} samples, {} beyond (needs {})",
                lat.n,
                lat.p99_beyond,
                stats::MIN_BEYOND
            ),
            None => {}
        }
    }
    metrics.push(Metric::new(
        "ops_per_s",
        stats::median(&window_rates(&phase)),
        "1/s",
        format!(
            "{timed_ops} ops in {:.3} s, median of {} windows",
            phase.wall.as_secs_f64(),
            stats::WINDOWS
        ),
    ));
    metrics.push(Metric::new(
        "peak_rss_mb",
        peak_rss,
        "MB",
        "VmHWM of the server process",
    ));
    let (gated, printed): (Vec<Metric>, Vec<Metric>) = metrics
        .into_iter()
        .partition(|m| GATED.contains(&m.name.as_str()));
    print_metrics(&gated);
    print_metrics(&printed);
    println!(
        "  {:<34} {:>14.4} {:<6} {failed_ops} of {attempted} ops",
        "error_rate",
        failed_ops as f64 / attempted.max(1) as f64,
        "ratio"
    );
    print_classes(&phase);
    let rates: Vec<String> = window_rates(&phase)
        .iter()
        .map(|r| format!("{r:.1}"))
        .collect();
    println!("  ops/s by time window: {}", rates.join(" "));
    println!(
        "  context: host steal {steal:.2}%, server cpu {cpu_per_op:.4} ms/op, cache hits {} of {} reads, {} answers checked in {check_s:.2} s",
        phase.cache_hits,
        reads.n,
        phase.answers.len()
    );
    for line in phase.failures.iter().chain(&wrong).take(20) {
        println!("  FAILED {line}");
    }
    let correct = failed_ops == 0;
    println!("{}", result_json(correct, attempted, failed_ops, &gated));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.smoke) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let inputs = Inputs::generate(&spec, args.seed);
    let outcome = if args.trace {
        trace::run_traced(&spec, &inputs, &args)
    } else {
        run_untraced(&spec, &inputs, &args)
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
