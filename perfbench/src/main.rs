//! The repository benchmark: three workloads against the availability
//! service and the fleet sweep, end to end (untraced) and per layer
//! (traced). See `perfbench/NOTES.md`.
//!
//! ```text
//! fgcs-perfbench --workload ingest|reads|fleet --seed N --seconds S
//!                --trace 0|1 --serve PATH/TO/fgcs-serve [--out DIR]
//! ```
//!
//! Prints every metric it measured as `name value unit` lines, then one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end set untraced, the per-layer set traced.

mod fleet;
mod ingest;
mod inputs;
mod oracle;
mod procfs;
mod reads;
mod report;
mod servers;
mod spans;

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use report::Report;
use spans::Tracer;

/// End-to-end metrics, the same five for every workload, and the
/// workload metric each one reports.
const END_TO_END: [(&str, &str, [&str; 3]); 5] = [
    (
        "setup_s",
        "s",
        ["ingest.setup_s", "reads.setup_s", "fleet.setup_s"],
    ),
    (
        "work_per_s",
        "1/s",
        [
            "ingest.acked_samples_per_s",
            "reads.ops_per_s",
            "fleet.machine_days_per_s",
        ],
    ),
    (
        "cpu_ns_per_unit",
        "ns",
        [
            "ingest.server_cpu_ns_per_sample",
            "reads.server_cpu_ns_per_op",
            "fleet.cpu_ns_per_machine_day",
        ],
    ),
    (
        "latency_p50_us",
        "us",
        ["ingest.ack_p50_us", "reads.avail_p50_us", "fleet.sweep_us"],
    ),
    (
        "peak_rss_mb",
        "MB",
        [
            "ingest.server_peak_rss_mb",
            "reads.server_peak_rss_mb",
            "fleet.peak_rss_mb",
        ],
    ),
];

/// Per-layer metrics, reported by every traced run.
const PER_LAYER: [&str; 47] = [
    "loadgen.late_p50_us",
    "loadgen.late_p99_us",
    "loadgen.cpu_frac",
    "wire.encode_ns_per_batch",
    "wire.decode_ns_per_batch",
    "wire.bytes_per_sample",
    "wire.stats_reply_bytes",
    "wire.decode_stats_us",
    "cluster.ingest_rtt_p50_us",
    "cluster.route_ns",
    "cluster.retries",
    "cluster.failovers",
    "cluster.follower_read_frac",
    "server.primary_cpu_ns_per_sample",
    "server.follower_cpu_ns_per_sample",
    "server.vcsw_per_batch",
    "server.nvcsw_per_batch",
    "server.threads",
    "server.shed_batches",
    "server.queue_depth_max",
    "server.unattributed_frac",
    "ingest.ack_p99_us",
    "ingest.failed_frac",
    "repl.lag_samples_max",
    "repl.catchup_ms",
    "detector.ns_per_sample",
    "detector.transitions",
    "detector.occurrences",
    "online.update_ns_per_batch",
    "online.predict_machine_ns",
    "online.place_scan_us",
    "reads.place_p50_us",
    "reads.place_p99_us",
    "reads.stats_p50_us",
    "reads.failed_frac",
    "lab.plan_us_per_machine",
    "tracer.us_per_machine",
    "tracer.records_per_machine",
    "streaming.fold_ns_per_record",
    "streaming.merge_us_per_chunk",
    "sketch.extend_ns_per_value",
    "sketch.stored_len",
    "sketch.rank_error_bound",
    "par.busy_frac",
    "par.chunks",
    "trace.overhead_frac",
    "fleet.layer_sum_frac",
];

const WORKLOADS: [&str; 3] = ["ingest", "reads", "fleet"];

/// Seconds each other workload's path runs in a traced run.
const SIDE_PASS_SECONDS: f64 = 3.0;
/// Setups per untraced run of ingest, reads and fleet; `setup_s` is
/// their median. Starting a server pair or the sweep process takes
/// milliseconds and is repeated often; a reads setup also preloads
/// 1000 machines and takes a few hundred.
const SETUPS: [usize; 3] = [25, 5, 25];

/// Cores this process may use; also the cap on its load threads and
/// connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("fleet-child") {
        child_main(&args[1..])
    } else {
        bench_main(&args)
    };
    if let Err(e) = result {
        eprintln!("fgcs-perfbench: {e}");
        std::process::exit(1);
    }
}

fn flags(args: &[String], switches: &[&str]) -> io::Result<HashMap<String, String>> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| usage(&format!("unexpected argument {a:?}")))?;
        let value = if switches.contains(&key) {
            String::new()
        } else {
            it.next()
                .cloned()
                .ok_or_else(|| usage(&format!("--{key} needs a value")))?
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

fn usage(why: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "{why}\nusage: fgcs-perfbench --workload ingest|reads|fleet --seed N \
             --seconds S --trace 0|1 --serve PATH [--out DIR]"
        ),
    )
}

fn parse<T: std::str::FromStr>(f: &HashMap<String, String>, key: &str) -> io::Result<T> {
    f.get(key)
        .ok_or_else(|| usage(&format!("--{key} is required")))?
        .parse()
        .map_err(|_| usage(&format!("--{key} is malformed")))
}

fn child_main(args: &[String]) -> io::Result<()> {
    let f = flags(args, &["probe"])?;
    let spans = PathBuf::from(parse::<String>(&f, "spans")?);
    fleet::child(
        parse(&f, "seed")?,
        parse(&f, "seconds")?,
        parse::<u8>(&f, "trace")? == 1,
        f.contains_key("probe"),
        &spans,
    )
}

fn bench_main(args: &[String]) -> io::Result<()> {
    let f = flags(args, &[])?;
    let workload: String = parse(&f, "workload")?;
    let w = WORKLOADS
        .iter()
        .position(|x| *x == workload)
        .ok_or_else(|| usage(&format!("unknown workload {workload:?}")))?;
    let seed: u64 = parse(&f, "seed")?;
    let seconds: f64 = parse(&f, "seconds")?;
    let traced = match parse::<u8>(&f, "trace")? {
        0 => false,
        1 => true,
        _ => return Err(usage("--trace must be 0 or 1")),
    };
    let serve = PathBuf::from(parse::<String>(&f, "serve")?);
    let out = PathBuf::from(f.get("out").map_or(".perfbench_out", String::as_str));

    // One load thread and two connections (primary, follower) for the
    // service workloads; two fgcs-par workers for the sweep.
    let planned = if workload == "fleet" {
        fleet::WORKERS
    } else {
        2
    };
    if planned > nproc() {
        return Err(io::Error::other(format!(
            "{workload} needs {planned} threads or connections but only {} cores are available",
            nproc()
        )));
    }

    servers::note_inherited_sockets()?;
    let spans = out.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let mut tracer = Tracer::new(traced);
    let mut rep = if traced {
        traced_run(&workload, seed, seconds, &serve, &spans, &mut tracer)?
    } else {
        untraced_run(&workload, seed, seconds, &serve, &spans, &mut tracer)?
    };
    if traced {
        tracer.write_jsonl(&spans)?;
    }

    // Untraced runs print the workload's own metrics; traced runs all.
    for (name, value, unit) in latest(&rep) {
        if traced || name.starts_with(&format!("{workload}.")) || name.starts_with("loadgen.") {
            println!("{name} {value} {unit}");
        }
    }
    let mut metrics = Vec::new();
    if traced {
        for name in PER_LAYER {
            let unit = unit_of(&rep, name);
            match rep.get(name) {
                Some(v) => metrics.push((name.to_string(), v, unit)),
                None => rep
                    .failures
                    .push(format!("per-layer metric {name} was not measured")),
            }
        }
    } else {
        for (name, unit, sources) in END_TO_END {
            match rep.get(sources[w]) {
                Some(v) => metrics.push((name.to_string(), v, unit)),
                None => rep
                    .failures
                    .push(format!("{} was not measured", sources[w])),
            }
        }
    }
    rep.check(rep.attempted > 0, || {
        "no operation was attempted".to_string()
    });
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            rep.failures.push(format!("{name} is not a finite number"));
        }
    }
    for why in &rep.failures {
        eprintln!("check failed: {why}");
    }
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, v, _)| v.is_finite())
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failures.is_empty(),
        rep.attempted,
        rep.failed,
        body.join(", ")
    );
    Ok(())
}

/// The last value of every metric name, in first-seen order.
fn latest(rep: &Report) -> Vec<(String, f64, &'static str)> {
    let mut seen: Vec<String> = Vec::new();
    for (n, _, _) in &rep.metrics {
        if !seen.contains(n) {
            seen.push(n.clone());
        }
    }
    seen.into_iter()
        .map(|n| {
            let v = rep.get(&n).expect("seen above");
            let u = unit_of(rep, &n);
            (n, v, u)
        })
        .collect()
}

fn unit_of(rep: &Report, name: &str) -> &'static str {
    rep.metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or("count", |(_, _, u)| u)
}

fn untraced_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    serve: &Path,
    spans: &Path,
    tracer: &mut Tracer,
) -> io::Result<Report> {
    match workload {
        "ingest" => ingest::run(
            serve,
            &ingest::Opts {
                seed,
                seconds,
                phases: vec![false],
                setups: SETUPS[0],
            },
            tracer,
        ),
        "reads" => reads::run(
            serve,
            &reads::Opts {
                seed,
                seconds,
                phases: vec![false],
                setups: SETUPS[1],
            },
            tracer,
        ),
        _ => {
            let mut rep = fleet::run(seed, seconds, false, SETUPS[2], spans)?;
            rep.attempted = rep.get("fleet.machines_traced").unwrap_or(0.0) as u64;
            Ok(rep)
        }
    }
}

/// Every layer is measured in every traced run: the other two paths
/// first, briefly and traced, then the named workload untraced, traced
/// and untraced again (the traced phase against the mean of the others
/// is `trace.overhead_frac`).
fn traced_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    serve: &Path,
    spans: &Path,
    tracer: &mut Tracer,
) -> io::Result<Report> {
    let mut rep = Report::default();
    let mut order: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| *w != workload)
        .collect();
    order.push(workload);
    let (mut retries, mut failovers) = (0.0, 0.0);
    for w in order {
        let main = w == workload;
        let (secs, phases) = if main {
            (seconds, vec![false, true, false])
        } else {
            (SIDE_PASS_SECONDS, vec![true])
        };
        let pass = match w {
            "ingest" => ingest::run(
                serve,
                &ingest::Opts {
                    seed,
                    seconds: secs,
                    phases,
                    setups: 1,
                },
                tracer,
            )?,
            "reads" => reads::run(
                serve,
                &reads::Opts {
                    seed,
                    seconds: secs,
                    phases,
                    setups: 1,
                },
                tracer,
            )?,
            _ => fleet::run(seed, secs, true, 1, &spans.with_extension("fleet.jsonl"))?,
        };
        retries += pass.get("cluster.retries").unwrap_or(0.0);
        failovers += pass.get("cluster.failovers").unwrap_or(0.0);
        rep.absorb(pass);
    }
    rep.metric("cluster.retries", retries, "count");
    rep.metric("cluster.failovers", failovers, "count");
    Ok(rep)
}
