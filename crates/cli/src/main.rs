//! `skyline` — command-line skyline computation over CSV files.
//!
//! ```text
//! skyline compute  <input.csv> [--algo NAME] [--sigma N] [--threads T]
//!                  [--prefs MIN,MAX,...] [--skyband K] [--rows] [--trace out.jsonl]
//! skyline bench    <input.csv> [--sigma N] [--threads T] [--prefs MIN,MAX,...]
//!                  [--trace out.jsonl]
//! skyline report   <trace.jsonl> [--stages]
//! skyline generate --dist UI|CO|AC -n N -d D [--seed S] [-o out.csv]
//! skyline stats    <input.csv> [--prefs MIN,MAX,...]
//! skyline tune     <input.csv> [--sample N] [--prefs MIN,MAX,...]
//! skyline serve    [--port P] [--bind ADDR] [--threads T] [--cache N] [--trace out.jsonl]
//!                  [--data-dir DIR] [--fsync always|never|interval[=MS]] [--max-inflight N]
//!                  [--slow-ms MS] [--slow-log out.jsonl] [--follow ADDR]
//!                  [--follow-wait-ms MS] [--feed-retain N] [--compact-bytes N]
//! skyline cluster  (--shards ADDR,ADDR,... | --spawn-local N) [--port P] [--bind ADDR]
//!                  [--threads T] [--manifest PATH] [--trace out.jsonl]
//!                  [--slow-ms MS] [--slow-log out.jsonl]
//!                  [--replicas S=ADDR,...] [--replica-staleness V]
//!                  [--failover] [--probe-ms MS] [--suspect-misses N]
//! skyline algorithms
//! ```
//!
//! Each subcommand takes exactly the flags its usage line lists; any
//! other flag is an error (exit 1 with the usage), so a misspelt flag
//! never silently falls back to a default.
//!
//! Parallel engines: `--threads T` switches `compute` to the multi-core
//! partition-merge engine wrapping the selected algorithm (`--threads 0`
//! = one worker per CPU), and makes `bench` measure the `P-*` rows next
//! to their sequential counterparts.
//!
//! Serving: `skyline serve` starts the zero-dependency HTTP query
//! service from the `skyline-serve` crate (dataset registry + result
//! cache); stop it with `POST /shutdown`. With `--data-dir` every
//! mutation is write-ahead logged and datasets recover on restart;
//! `--fsync` picks the durability/throughput trade-off and
//! `--max-inflight` caps concurrent queries (excess load is shed with
//! 503 + `Retry-After`). `--follow ADDR` starts a read-only replica
//! that tails the primary's per-dataset change feeds
//! (`GET /datasets/{name}/changes`), serves reads with an
//! `X-Skyline-Replica-Lag` header and bounces writes to the primary
//! with 307; `skyline cluster --replicas 0=ADDR,...` routes read legs
//! to those followers (bounded by `--replica-staleness`), keeping
//! writes on the primaries. `--failover` adds the failure detector:
//! the coordinator probes each primary's `/healthz` every
//! `--probe-ms` milliseconds and, after `--suspect-misses` consecutive
//! misses, promotes the most-caught-up replica under a fresh fencing
//! epoch (`POST /promote`), re-points the survivors, and fences the
//! deposed primary if it ever comes back.
//!
//! Tracing: `--trace <path>` (or the `SKYLINE_TRACE` environment
//! variable) appends structured JSON-lines telemetry — spans, Merge
//! iterations, trie statistics, per-shard scans, run summaries — which
//! `skyline report` aggregates back into tables.

use std::fs::File;
use std::process::ExitCode;

use skyline_algos::{
    algorithm_by_name, all_algorithms, evaluation_suite, parallel_algorithm, parallel_suite,
    SkylineAlgorithm,
};
use skyline_core::dataset::Dataset;
use skyline_core::metrics::RunMeasurement;
use skyline_core::point::{apply_preferences, Preference};
use skyline_data::io::{read_csv_file, write_csv, write_csv_file};
use skyline_data::{Distribution, SyntheticSpec};
use skyline_obs::{JsonlRecorder, TraceSummary};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  skyline compute  <input.csv> [--algo NAME] [--sigma N] [--threads T]
                   [--prefs MIN,MAX,...] [--skyband K] [--rows] [--trace out.jsonl]
  skyline bench    <input.csv> [--sigma N] [--threads T] [--prefs MIN,MAX,...]
                   [--trace out.jsonl]
  skyline report   <trace.jsonl> [--stages]
  skyline generate --dist UI|CO|AC -n N -d D [--seed S] [-o out.csv]
  skyline stats    <input.csv> [--prefs MIN,MAX,...]
  skyline tune     <input.csv> [--sample N] [--prefs MIN,MAX,...]
  skyline serve    [--port P] [--bind ADDR] [--threads T] [--cache N] [--trace out.jsonl]
                   [--data-dir DIR] [--fsync always|never|interval[=MS]] [--max-inflight N]
                   [--slow-ms MS] [--slow-log out.jsonl] [--follow ADDR]
                   [--follow-wait-ms MS] [--feed-retain N] [--compact-bytes N]
  skyline cluster  (--shards ADDR,ADDR,... | --spawn-local N) [--port P] [--bind ADDR]
                   [--threads T] [--manifest PATH] [--trace out.jsonl]
                   [--slow-ms MS] [--slow-log out.jsonl]
                   [--replicas S=ADDR,...] [--replica-staleness V]
                   [--failover] [--probe-ms MS] [--suspect-misses N]
  skyline algorithms

parallel: --threads T runs the multi-core partition-merge engine (T=0 =
one worker per CPU); bench adds the P-* rows to the table.

tracing: --trace PATH (or env SKYLINE_TRACE=PATH) writes JSON-lines
telemetry; `skyline report` renders a trace file as tables, and
`skyline report --stages` the per-stage latency breakdown. Serving:
--slow-ms MS logs the stitched stage breakdown of any query at or over
the threshold (to --slow-log PATH, or the trace sink).";

/// Write one line to `out`, treating a closed pipe (e.g. `| head`) as a
/// polite request to stop rather than an error. Returns `false` when the
/// consumer has gone away.
fn write_line(out: &mut dyn std::io::Write, line: std::fmt::Arguments<'_>) -> Result<bool, String> {
    match out.write_fmt(line).and_then(|()| out.write_all(b"\n")) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(e.to_string()),
    }
}

/// Forward an I/O result, treating a broken pipe as success.
fn pipe_ok(r: std::io::Result<()>) -> Result<(), String> {
    match r {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(e.to_string()),
    }
}

/// The flags `command` accepts, read off its lines in [`USAGE`] so the
/// usage text and the parser cannot drift: `(flag, takes_value)`, where
/// a flag written `[--flag]` is a switch and any other flag takes the
/// next argument as its value.
fn usage_flags(command: &str) -> Vec<(&'static str, bool)> {
    let mut lines = USAGE
        .lines()
        .skip_while(|l| l.split_whitespace().nth(1) != Some(command));
    let first = lines.next().into_iter();
    let continued = lines.take_while(|l| l.starts_with("    "));
    first
        .chain(continued)
        .flat_map(str::split_whitespace)
        .map(|token| token.trim_start_matches(['[', '(']))
        .filter(|token| token.starts_with('-'))
        .map(|token| (token.trim_end_matches([']', ')']), !token.ends_with(']')))
        .collect()
}

fn run(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("missing command")?;
    let handler: fn(&[String]) -> Result<(), String> = match name.as_str() {
        "compute" => compute,
        "bench" => bench,
        "report" => report,
        "generate" => generate,
        "stats" => stats,
        "tune" => tune,
        "serve" => serve,
        "cluster" => cluster,
        "algorithms" => algorithms,
        other => return Err(format!("unknown command {other:?}")),
    };
    let flags = usage_flags(name);
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match flags.iter().find(|(flag, _)| flag == arg) {
            Some((_, true)) => {
                rest.next(); // the flag's value, whatever it looks like
            }
            Some((_, false)) => {}
            None if arg.starts_with('-') => {
                return Err(format!("unknown flag {arg:?} for `skyline {name}`"))
            }
            None => {}
        }
    }
    handler(&args[1..])
}

fn algorithms(_args: &[String]) -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for algo in all_algorithms() {
        if !write_line(&mut out, format_args!("{}", algo.name()))? {
            break;
        }
    }
    Ok(())
}

/// Pull the value following a flag out of the argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| format!("flag {flag} requires a value")),
    }
}

/// Open the JSON-lines trace sink selected by `--trace <path>` or, when
/// the flag is absent, the `SKYLINE_TRACE` environment variable.
fn open_trace(args: &[String]) -> Result<Option<JsonlRecorder<File>>, String> {
    let from_env = std::env::var("SKYLINE_TRACE")
        .ok()
        .filter(|p| !p.is_empty());
    let path = match flag_value(args, "--trace")? {
        Some(p) => Some(p.to_string()),
        None => from_env,
    };
    match path {
        None => Ok(None),
        Some(p) => JsonlRecorder::create(std::path::Path::new(&p))
            .map(Some)
            .map_err(|e| format!("--trace {p}: {e}")),
    }
}

/// Flush and close a trace sink, surfacing any write errors it swallowed.
fn finish_trace(trace: Option<JsonlRecorder<File>>) -> Result<(), String> {
    match trace {
        None => Ok(()),
        Some(rec) => {
            let errors = rec.io_errors();
            rec.into_inner().map_err(|e| format!("trace: {e}"))?;
            if errors > 0 {
                Err(format!("trace: {errors} records failed to write"))
            } else {
                Ok(())
            }
        }
    }
}

/// Run an algorithm, tracing into `rec` when a sink is open.
fn run_maybe_traced(
    algo: &dyn SkylineAlgorithm,
    data: &Dataset,
    rec: &mut Option<JsonlRecorder<File>>,
) -> RunMeasurement {
    match rec {
        Some(rec) => algo.run_traced(data, rec),
        None => algo.run(data),
    }
}

fn parse_sigma(args: &[String]) -> Result<Option<usize>, String> {
    match flag_value(args, "--sigma")? {
        None => Ok(None),
        Some(v) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| format!("--sigma expects an integer, got {v:?}")),
    }
}

/// `--threads T` selects the parallel engines; `T == 0` means one worker
/// per available CPU. `None` (flag absent) keeps the sequential path.
fn parse_threads(args: &[String]) -> Result<Option<usize>, String> {
    match flag_value(args, "--threads")? {
        None => Ok(None),
        Some(v) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| format!("--threads expects an integer, got {v:?}")),
    }
}

fn load(path: &str, args: &[String]) -> Result<Dataset, String> {
    let mut data = read_csv_file(path).map_err(|e| format!("{path}: {e}"))?;
    if let Some(spec) = flag_value(args, "--prefs")? {
        let prefs: Result<Vec<Preference>, String> = spec
            .split(',')
            .map(|s| match s.trim().to_ascii_uppercase().as_str() {
                "MIN" => Ok(Preference::Min),
                "MAX" => Ok(Preference::Max),
                other => Err(format!("--prefs entries must be MIN or MAX, got {other:?}")),
            })
            .collect();
        let prefs = prefs?;
        if prefs.len() != data.dims() {
            return Err(format!(
                "--prefs has {} entries but the dataset has {} dimensions",
                prefs.len(),
                data.dims()
            ));
        }
        let mut flat = data.as_flat().to_vec();
        apply_preferences(&mut flat, &prefs);
        data = Dataset::from_flat(flat, prefs.len()).map_err(|e| e.to_string())?;
    }
    Ok(data)
}

fn compute(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("compute requires an input file")?;
    let data = load(path, args)?;

    // k-skyband mode bypasses the algorithm registry — but an unknown
    // --algo must still fail loudly instead of being silently ignored.
    if let Some(k) = flag_value(args, "--skyband")? {
        if let Some(name) = flag_value(args, "--algo")? {
            if algorithm_by_name(name).is_none() {
                return Err(format!("unknown algorithm {name:?}"));
            }
        }
        let k: usize = k.parse().map_err(|_| "--skyband expects an integer")?;
        let mut metrics = skyline_core::metrics::Metrics::new();
        let band = skyline_algos::skyband::k_skyband(&data, k, &mut metrics);
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for b in &band {
            if !write_line(&mut out, format_args!("{},{}", b.id, b.dominators))? {
                return Ok(());
            }
        }
        eprintln!(
            "{k}-skyband: {} of {} points | mean DT {:.4}",
            band.len(),
            data.len(),
            metrics.mean_dominance_tests(data.len())
        );
        return Ok(());
    }

    let algo: Box<dyn SkylineAlgorithm> = match (flag_value(args, "--algo")?, parse_threads(args)?)
    {
        (None, None) => Box::new(skyline_algos::boosted::SdiSubset::new(parse_sigma(args)?)),
        (None, Some(threads)) => Box::new(skyline_algos::parallel::ParallelBoosted::new(
            skyline_algos::boosted::SdiSubset::new(parse_sigma(args)?),
            threads,
        )),
        (Some(name), None) => {
            algorithm_by_name(name).ok_or_else(|| format!("unknown algorithm {name:?}"))?
        }
        (Some(name), Some(threads)) => parallel_algorithm(name, parse_sigma(args)?, threads)
            .ok_or_else(|| {
                format!("no parallel engine for {name:?} (see `skyline algorithms` for P-* names)")
            })?,
    };
    let mut trace = open_trace(args)?;
    let result = run_maybe_traced(algo.as_ref(), &data, &mut trace);
    finish_trace(trace)?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if args.iter().any(|a| a == "--rows") {
        let rows = data.project(&result.skyline);
        pipe_ok(write_csv(&mut out, &rows))?;
    } else {
        for id in &result.skyline {
            if !write_line(&mut out, format_args!("{id}"))? {
                break;
            }
        }
    }
    eprintln!(
        "{}: {} skyline points of {} | mean DT {:.4} | {:.3} ms",
        algo.name(),
        result.skyline.len(),
        data.len(),
        result.mean_dominance_tests(),
        result.elapsed_ms()
    );
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("stats requires an input file")?;
    let data = load(path, args)?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    write_line(&mut out, format_args!("points:        {}", data.len()))?;
    write_line(&mut out, format_args!("dimensions:    {}", data.dims()))?;
    write_line(
        &mut out,
        format_args!(
            "mean pairwise correlation: {:+.4}",
            skyline_data::stats::mean_pairwise_correlation(&data)
        ),
    )?;
    write_line(
        &mut out,
        format_args!(
            "{:<6} {:>14} {:>14} {:>10}",
            "dim", "min", "max", "distinct"
        ),
    )?;
    for (d, (lo, hi)) in skyline_data::stats::ranges(&data).into_iter().enumerate() {
        if !write_line(
            &mut out,
            format_args!(
                "{:<6} {:>14.6} {:>14.6} {:>10}",
                d,
                lo,
                hi,
                skyline_data::stats::distinct_values(&data, d)
            ),
        )? {
            break;
        }
    }
    Ok(())
}

fn tune(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("tune requires an input file")?;
    let data = load(path, args)?;
    let sample_size = match flag_value(args, "--sample")? {
        None => skyline_core::tuner::TunerConfig::default().sample_size,
        Some(v) => v.parse().map_err(|_| "--sample expects an integer")?,
    };
    let config = skyline_core::tuner::TunerConfig {
        sample_size,
        ..Default::default()
    };
    let report = skyline_core::tuner::tune_sigma(&data, &config);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    write_line(
        &mut out,
        format_args!(
            "recommended sigma: {} (paper default round(d/3) = {})",
            report.sigma,
            ((data.dims() as f64) / 3.0).round().max(2.0) as usize
        ),
    )?;
    if !report.trials.is_empty() {
        write_line(
            &mut out,
            format_args!("sample size: {}", report.sample_size),
        )?;
        write_line(
            &mut out,
            format_args!(
                "{:<6} {:>14} {:>12} {:>12} {:>8}",
                "sigma", "cost", "DTs", "nodes", "pivots"
            ),
        )?;
        for t in &report.trials {
            if !write_line(
                &mut out,
                format_args!(
                    "{:<6} {:>14.1} {:>12} {:>12} {:>8}",
                    t.sigma, t.cost, t.dominance_tests, t.nodes_visited, t.pivots
                ),
            )? {
                break;
            }
        }
    }
    Ok(())
}

fn bench(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("bench requires an input file")?;
    let data = load(path, args)?;
    let sigma = parse_sigma(args)?;
    let mut suite = evaluation_suite(sigma);
    if let Some(threads) = parse_threads(args)? {
        suite.extend(parallel_suite(sigma, threads));
    }
    let mut trace = open_trace(args)?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    write_line(
        &mut out,
        format_args!(
            "{:<14} {:>12} {:>12} {:>10}",
            "algorithm", "mean DT", "time (ms)", "skyline"
        ),
    )?;
    for algo in suite {
        let r = run_maybe_traced(algo.as_ref(), &data, &mut trace);
        if !write_line(
            &mut out,
            format_args!(
                "{:<14} {:>12.4} {:>12.3} {:>10}",
                algo.name(),
                r.mean_dominance_tests(),
                r.elapsed_ms(),
                r.skyline.len()
            ),
        )? {
            break;
        }
    }
    finish_trace(trace)?;
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    let port: u16 = match flag_value(args, "--port")? {
        None => 0, // ephemeral: the resolved port is printed below
        Some(v) => v.parse().map_err(|_| "--port expects a port number")?,
    };
    let bind = flag_value(args, "--bind")?.unwrap_or("127.0.0.1");
    let threads = parse_threads(args)?.unwrap_or(4).max(1);
    let cache_capacity: usize = match flag_value(args, "--cache")? {
        None => 256,
        Some(v) => v.parse().map_err(|_| "--cache expects an entry count")?,
    };
    let trace = match flag_value(args, "--trace")? {
        Some(p) => Some(std::path::PathBuf::from(p)),
        None => std::env::var("SKYLINE_TRACE")
            .ok()
            .filter(|p| !p.is_empty())
            .map(std::path::PathBuf::from),
    };
    let data_dir = flag_value(args, "--data-dir")?.map(std::path::PathBuf::from);
    let fsync = match flag_value(args, "--fsync")? {
        None => skyline_serve::wal::FsyncPolicy::default(),
        Some(v) => v
            .parse()
            .map_err(|_| "--fsync expects always, never, interval, or interval=<ms>")?,
    };
    let max_inflight: usize = match flag_value(args, "--max-inflight")? {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| "--max-inflight expects a query count (0 = unlimited)")?,
    };
    let follow: Option<std::net::SocketAddr> = match flag_value(args, "--follow")? {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| "--follow expects the primary's host:port")?,
        ),
    };
    let follow_wait_ms: u64 = match flag_value(args, "--follow-wait-ms")? {
        None => 1000,
        Some(v) => v
            .parse()
            .map_err(|_| "--follow-wait-ms expects milliseconds")?,
    };
    let feed_retain: usize = match flag_value(args, "--feed-retain")? {
        None => skyline_serve::registry::DEFAULT_FEED_RETAIN,
        Some(v) => v
            .parse()
            .map_err(|_| "--feed-retain expects a record count")?,
    };
    let compact_bytes: u64 = match flag_value(args, "--compact-bytes")? {
        None => 1 << 20,
        Some(v) => v
            .parse()
            .map_err(|_| "--compact-bytes expects a byte count")?,
    };
    let (slow_ms, slow_log) = parse_slow_flags(args)?;
    let config = skyline_serve::ServerConfig {
        bind: format!("{bind}:{port}"),
        threads,
        cache_capacity,
        trace,
        data_dir,
        fsync,
        max_inflight,
        slow_ms,
        slow_log,
        follow,
        follow_wait_ms,
        feed_retain,
        compact_bytes,
        ..Default::default()
    };
    let mut handle = skyline_serve::Server::start(config).map_err(|e| format!("serve: {e}"))?;
    // Scripts parse this line for the resolved ephemeral port.
    println!("listening on {}", handle.local_addr());
    pipe_ok(std::io::Write::flush(&mut std::io::stdout()))?;
    handle.wait();
    eprintln!("server stopped");
    Ok(())
}

/// `skyline cluster` — start the sharded coordinator. Shards come from
/// `--shards host:port,...` (already-running `skyline serve` nodes),
/// `--spawn-local N` (N in-process shard servers on ephemeral ports —
/// the one-command demo and test topology), or both combined.
fn cluster(args: &[String]) -> Result<(), String> {
    let port: u16 = match flag_value(args, "--port")? {
        None => 0,
        Some(v) => v.parse().map_err(|_| "--port expects a port number")?,
    };
    let bind = flag_value(args, "--bind")?.unwrap_or("127.0.0.1");
    let threads = parse_threads(args)?.unwrap_or(4).max(1);
    let trace = match flag_value(args, "--trace")? {
        Some(p) => Some(std::path::PathBuf::from(p)),
        None => std::env::var("SKYLINE_TRACE")
            .ok()
            .filter(|p| !p.is_empty())
            .map(std::path::PathBuf::from),
    };
    let manifest = flag_value(args, "--manifest")?.map(std::path::PathBuf::from);

    let mut shards: Vec<std::net::SocketAddr> = Vec::new();
    if let Some(list) = flag_value(args, "--shards")? {
        for part in list.split(',').filter(|p| !p.is_empty()) {
            shards.push(
                part.trim()
                    .parse()
                    .map_err(|_| format!("--shards entry {part:?} is not host:port"))?,
            );
        }
    }
    // Local shards keep their handles alive for the coordinator's
    // lifetime; dropping them at exit shuts the shard servers down.
    let mut local_shards: Vec<skyline_serve::ServerHandle> = Vec::new();
    if let Some(n) = flag_value(args, "--spawn-local")? {
        let n: usize = n.parse().map_err(|_| "--spawn-local expects a count")?;
        for _ in 0..n {
            let handle = skyline_serve::Server::start(skyline_serve::ServerConfig {
                threads,
                ..Default::default()
            })
            .map_err(|e| format!("spawn-local shard: {e}"))?;
            println!("shard listening on {}", handle.local_addr());
            shards.push(handle.local_addr());
            local_shards.push(handle);
        }
    }
    if shards.is_empty() {
        return Err("cluster needs --shards and/or --spawn-local".to_string());
    }

    // `--replicas 0=host:port,1=host:port,...` — read replicas keyed
    // by shard index; a shard may appear more than once.
    let mut replicas: Vec<Vec<std::net::SocketAddr>> = vec![Vec::new(); shards.len()];
    let mut have_replicas = false;
    if let Some(list) = flag_value(args, "--replicas")? {
        for part in list.split(',').filter(|p| !p.is_empty()) {
            let (idx, addr) = part
                .trim()
                .split_once('=')
                .ok_or_else(|| format!("--replicas entry {part:?} is not SHARD=host:port"))?;
            let idx: usize = idx
                .parse()
                .map_err(|_| format!("--replicas shard index {idx:?} is not a number"))?;
            if idx >= shards.len() {
                return Err(format!(
                    "--replicas names shard {idx}, the cluster has {}",
                    shards.len()
                ));
            }
            replicas[idx].push(
                addr.parse()
                    .map_err(|_| format!("--replicas address {addr:?} is not host:port"))?,
            );
            have_replicas = true;
        }
    }
    let replica_staleness: u64 = match flag_value(args, "--replica-staleness")? {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| "--replica-staleness expects a version count")?,
    };
    let failover = args.iter().any(|a| a == "--failover");
    let probe_ms: u64 = match flag_value(args, "--probe-ms")? {
        None => 500,
        Some(v) => v.parse().map_err(|_| "--probe-ms expects milliseconds")?,
    };
    let suspect_misses: u32 = match flag_value(args, "--suspect-misses")? {
        None => 3,
        Some(v) => v
            .parse()
            .map_err(|_| "--suspect-misses expects a probe count")?,
    };
    let (slow_ms, slow_log) = parse_slow_flags(args)?;
    let config = skyline_cluster::ClusterConfig {
        bind: format!("{bind}:{port}"),
        threads,
        trace,
        manifest,
        slow_ms,
        slow_log,
        replicas: if have_replicas { replicas } else { Vec::new() },
        replica_staleness,
        failover,
        probe_ms,
        suspect_misses,
        ..skyline_cluster::ClusterConfig::new(shards)
    };
    let mut handle =
        skyline_cluster::Cluster::start(config).map_err(|e| format!("cluster: {e}"))?;
    // Scripts parse this line for the resolved ephemeral port.
    println!("listening on {}", handle.local_addr());
    pipe_ok(std::io::Write::flush(&mut std::io::stdout()))?;
    handle.wait();
    for mut shard in local_shards {
        shard.shutdown();
    }
    eprintln!("cluster stopped");
    Ok(())
}

/// `--slow-ms MS` / `--slow-log PATH` shared by `serve` and `cluster`.
fn parse_slow_flags(args: &[String]) -> Result<(u64, Option<std::path::PathBuf>), String> {
    let slow_ms: u64 = match flag_value(args, "--slow-ms")? {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| "--slow-ms expects milliseconds (0 = disabled)")?,
    };
    let slow_log = flag_value(args, "--slow-log")?.map(std::path::PathBuf::from);
    if slow_ms == 0 && slow_log.is_some() {
        return Err("--slow-log needs --slow-ms to set the threshold".to_string());
    }
    Ok((slow_ms, slow_log))
}

fn report(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("report requires a trace file")?;
    let summary =
        TraceSummary::from_file(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let rendered = if args.iter().any(|a| a == "--stages") {
        summary.render_stages()
    } else {
        summary.render()
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    pipe_ok(std::io::Write::write_all(&mut out, rendered.as_bytes()))?;
    Ok(())
}

fn generate(args: &[String]) -> Result<(), String> {
    let dist = flag_value(args, "--dist")?
        .ok_or_else(|| "generate requires --dist UI|CO|AC".to_string())
        .and_then(|t| {
            Distribution::from_tag(t).ok_or_else(|| "--dist must be UI, CO or AC".to_string())
        })?;
    let n: usize = flag_value(args, "-n")?
        .ok_or("generate requires -n <cardinality>")?
        .parse()
        .map_err(|_| "-n expects an integer")?;
    let d: usize = flag_value(args, "-d")?
        .ok_or("generate requires -d <dims>")?
        .parse()
        .map_err(|_| "-d expects an integer")?;
    let seed: u64 = match flag_value(args, "--seed")? {
        None => 42,
        Some(s) => s.parse().map_err(|_| "--seed expects an integer")?,
    };
    let data = SyntheticSpec {
        distribution: dist,
        cardinality: n,
        dims: d,
        seed,
    }
    .generate();
    match flag_value(args, "-o")? {
        Some(path) => write_csv_file(path, &data).map_err(|e| e.to_string())?,
        None => {
            let stdout = std::io::stdout();
            pipe_ok(write_csv(stdout.lock(), &data))?;
        }
    }
    Ok(())
}
