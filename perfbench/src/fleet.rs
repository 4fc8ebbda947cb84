//! `fleet`: `run_fleet` over 4000 machines × 92 days of the default
//! mix with two `fgcs-par` workers, in a child process that runs only
//! this workload (so its peak RSS is the sweep's alone).
//!
//! Untraced, the child repeats whole sweeps for the run length and
//! checks that they agree. Traced, it runs one sweep, then rebuilds the
//! same sweep from public calls — `MachinePlan::generate`,
//! `trace_machine_batched`, `StreamingAnalysis::push_machine` and
//! `merge` on `fgcs_par::par_map` — timing each, and requires the
//! rebuild to be bit-identical to the sweep.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{ChildStdout, Command, Stdio};
use std::time::Instant;

use fgcs_stats::RankSketch;
use fgcs_testbed::analysis::machine_intervals;
use fgcs_testbed::calendar::{day_index, day_type, DayType};
use fgcs_testbed::{
    run_fleet, trace_machine_batched, FleetConfig, FleetResult, LabConfig, MachinePlan,
    StreamingAnalysis, TestbedConfig, TraceRecord,
};

use crate::procfs;
use crate::report::{median, ratio, Report};
use crate::spans::Tracer;

const MACHINES: usize = 4_000;
const DAYS: usize = 92;
/// `fgcs-par` workers in the sweep process.
pub const WORKERS: usize = 2;
/// `fleet.layer_sum_frac` must fall inside this range: the layers'
/// summed self time over `workers × untraced wall`.
pub const LAYER_SUM_TOLERANCE: (f64, f64) = (0.8, 1.2);

fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed: 0xf1ee_7000 ^ seed,
        machines: MACHINES,
        days: DAYS,
        ..FleetConfig::default()
    }
}

/// Parent side: times `setups` spawns of the sweep process up to its
/// `ready` line (the last one is the real run), then collects what the
/// child measured.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
    spans: &Path,
) -> io::Result<Report> {
    let exe = std::env::current_exe()?;
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    for i in 0..setups.max(1) {
        let last = i + 1 >= setups;
        let mut cmd = Command::new(&exe);
        cmd.arg("fleet-child")
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--spans")
            .arg(spans)
            .env("FGCS_PAR_WORKERS", WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if !last {
            cmd.arg("--probe");
        }
        let t0 = Instant::now();
        let mut child = cmd.spawn()?;
        let out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let read = collect(out, t0, &mut setup_s, &mut rep);
        if read.is_err() {
            let _ = child.kill();
        }
        let status = child.wait()?;
        read?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "sweep process exited with {status}"
            )));
        }
    }
    rep.metric("fleet.setup_s", median(&setup_s), "s");
    Ok(rep)
}

/// Reads the sweep process's `ready` line, timing it from `t0`, then its
/// `metric` and `fail` lines until it closes stdout.
fn collect(
    mut out: BufReader<ChildStdout>,
    t0: Instant,
    setup_s: &mut Vec<f64>,
    rep: &mut Report,
) -> io::Result<()> {
    let mut line = String::new();
    out.read_line(&mut line)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    if line.trim() != "ready" {
        return Err(io::Error::other(format!("sweep process said {line:?}")));
    }
    for l in out.lines() {
        let l = l?;
        let mut f = l.splitn(2, ' ');
        match (f.next(), f.next()) {
            (Some("metric"), Some(rest)) => {
                let v: Vec<&str> = rest.split(' ').collect();
                let value = v.get(1).and_then(|x| x.parse().ok());
                let unit = v.get(2).and_then(|u| UNITS.iter().find(|k| *k == u));
                match (value, unit) {
                    (Some(value), Some(unit)) => rep.metric(v[0], value, unit),
                    _ => return Err(io::Error::other(format!("bad line {l:?}"))),
                }
            }
            (Some("fail"), Some(why)) => rep.failures.push(why.to_string()),
            _ => return Err(io::Error::other(format!("bad line {l:?}"))),
        }
    }
    Ok(())
}

/// Units the child may report (the parent keeps `&'static str`s).
const UNITS: [&str; 9] = ["s", "us", "ns", "ms", "MB", "B", "1/s", "count", "ratio"];

/// Child side: `fleet-child` in `main`.
pub fn child(seed: u64, seconds: f64, traced: bool, probe: bool, spans: &Path) -> io::Result<()> {
    let cfg = config(seed);
    let mut stdout = io::stdout();
    writeln!(stdout, "ready")?;
    stdout.flush()?;
    if probe {
        return Ok(());
    }
    let mut rep = Report::default();
    let machine_days = (cfg.machines * cfg.days) as f64;
    let started = Instant::now();
    // Wall time (s) and CPU time (ns) of every untraced sweep.
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut sweep = |walls: &mut Vec<f64>, rep: &mut Report| -> io::Result<FleetResult> {
        let (c0, t0) = (procfs::self_cpu_ns()?, Instant::now());
        let r = run_fleet(&cfg);
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push((procfs::self_cpu_ns()? - c0) as f64);
        check_sweep(&cfg, &r, rep);
        Ok(r)
    };
    let first = sweep(&mut walls, &mut rep)?;
    if traced {
        let mut tr = Tracer::new(true);
        let (layer_s, rebuilt_s, workers) = rebuild(&cfg, &first, &mut rep, &mut tr);
        // Compare the rebuild with the mean of the sweeps either side of
        // it: that cancels a steady drift in machine speed, which on a
        // shared VM is as large as the tolerance.
        let r = sweep(&mut walls, &mut rep)?;
        rep.check(same(&first, &r), || "fleet: two sweeps differ".to_string());
        let untraced_s = (walls[0] + walls[1]) / 2.0;
        let layer_sum = layer_s / (workers as f64 * untraced_s);
        rep.check(
            (LAYER_SUM_TOLERANCE.0..=LAYER_SUM_TOLERANCE.1).contains(&layer_sum),
            || {
                format!(
                    "fleet: layer sum {layer_sum:.3} of workers x wall is outside \
                     {LAYER_SUM_TOLERANCE:?}"
                )
            },
        );
        rep.metric("fleet.layer_sum_frac", layer_sum, "ratio");
        rep.metric("trace.overhead_frac", rebuilt_s / untraced_s - 1.0, "ratio");
        tr.write_jsonl(spans)?;
    } else {
        // Stop before a sweep that would overrun the run length.
        while started.elapsed().as_secs_f64() + walls.iter().sum::<f64>() / walls.len() as f64
            <= seconds
        {
            let r = sweep(&mut walls, &mut rep)?;
            rep.check(same(&first, &r), || "fleet: two sweeps differ".to_string());
        }
    }
    let md_per_s: Vec<f64> = walls.iter().map(|w| machine_days / w).collect();
    let cpu_per_md: Vec<f64> = cpus.iter().map(|c| c / machine_days).collect();
    rep.metric("fleet.machine_days_per_s", median(&md_per_s), "1/s");
    rep.metric("fleet.cpu_ns_per_machine_day", median(&cpu_per_md), "ns");
    rep.metric("fleet.sweep_us", median(&walls) * 1e6, "us");
    rep.metric(
        "fleet.machines_traced",
        (walls.len() * cfg.machines) as f64,
        "count",
    );
    rep.metric("fleet.peak_rss_mb", procfs::peak_rss_mb("self")?, "MB");
    for (name, value, unit) in &rep.metrics {
        writeln!(stdout, "metric {name} {value} {unit}")?;
    }
    for why in &rep.failures {
        writeln!(stdout, "fail {why}")?;
    }
    stdout.flush()
}

/// Every machine folded exactly once, into the right archetype.
fn check_sweep(cfg: &FleetConfig, r: &FleetResult, rep: &mut Report) {
    let counts = cfg.archetype_counts();
    rep.check(r.combined.machines() == cfg.machines as u64, || {
        format!(
            "fleet: {} machines folded, want {}",
            r.combined.machines(),
            cfg.machines
        )
    });
    for ((a, n), (b, acc)) in counts.iter().zip(&r.per_archetype) {
        rep.check(a == b && acc.machines() == *n as u64, || {
            format!(
                "fleet: {} folded {} machines, want {n}",
                b.name(),
                acc.machines()
            )
        });
    }
    let sum: u64 = r
        .per_archetype
        .iter()
        .map(|(_, acc)| acc.table2_summary().occurrences)
        .sum();
    rep.check(sum == r.combined.table2_summary().occurrences, || {
        "fleet: archetype occurrences do not add up to the combined count".to_string()
    });
}

/// Table 2 summaries and Figure 7 hour counts, per archetype and
/// combined, compared bit for bit (Debug prints every f64 exactly).
fn same(a: &FleetResult, b: &FleetResult) -> bool {
    let key = |r: &FleetResult| {
        let mut accs: Vec<&StreamingAnalysis> = r.per_archetype.iter().map(|(_, s)| s).collect();
        accs.push(&r.combined);
        accs.iter()
            .map(|s| format!("{:?}{:?}", s.table2_summary(), s.day_hour_counts()))
            .collect::<Vec<_>>()
    };
    key(a) == key(b)
}

/// Interval lengths in hours, split by day type, as `StreamingAnalysis`
/// feeds its sketches: the exact values behind the sketch certificate.
fn push_hours(records: &[TraceRecord], span_secs: u64, weekday0: u8, out: &mut [Vec<f64>; 2]) {
    let refs: Vec<&TraceRecord> = records.iter().collect();
    for (s, e) in machine_intervals(&refs, span_secs) {
        let hours = (e - s) as f64 / 3_600.0;
        let i = (day_type(day_index(s), weekday0) == DayType::Weekend) as usize;
        out[i].push(hours);
    }
}

/// Worst rank error of `sk`'s percentiles against the sorted exact
/// values, and the sketch's certified bound (+1 for the rank rounding).
fn rank_error(sk: &RankSketch, sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let mut worst = 0.0f64;
    for i in 1..100 {
        let target = i as f64 / 100.0 * n;
        let v = sk.quantile(i as f64 / 100.0).expect("no NaN intervals");
        let lo = sorted.partition_point(|&x| x < v) as f64;
        let hi = sorted.partition_point(|&x| x <= v) as f64;
        worst = worst.max((lo - target).max(target - hi).max(0.0));
    }
    (worst, sk.quantile_rank_error_bound() as f64 + 1.0)
}

type ChunkOut = (Vec<StreamingAnalysis>, [Vec<f64>; 2], u64, Tracer);

/// Rebuilds `reference` from public calls inside spans, checks it and its
/// sketches, and reports the layer metrics. Returns the layers' summed
/// self time (plan + tracer + fold + merge, s), the rebuild's wall time
/// (s) and the worker count.
fn rebuild(
    cfg: &FleetConfig,
    reference: &FleetResult,
    rep: &mut Report,
    tr: &mut Tracer,
) -> (f64, f64, usize) {
    let weekday0 = LabConfig::default().start_weekday;
    let span_secs = cfg.days as u64 * 86_400;
    let counts = cfg.archetype_counts();
    let testbeds: Vec<TestbedConfig> = counts
        .iter()
        .map(|&(arch, count)| TestbedConfig {
            lab: cfg.resolved_lab(arch, count),
            detector: cfg.detector,
        })
        .collect();
    let mut prefix = vec![0usize];
    for (_, count) in &counts {
        prefix.push(prefix.last().expect("non-empty") + count);
    }
    let chunk = cfg.chunk_size.max(1);
    let chunks: Vec<(usize, usize)> = (0..cfg.machines)
        .step_by(chunk)
        .map(|lo| (lo, (lo + chunk).min(cfg.machines)))
        .collect();
    let fresh = || -> Vec<StreamingAnalysis> {
        counts
            .iter()
            .map(|_| StreamingAnalysis::new(cfg.days, weekday0, cfg.sketch_k))
            .collect()
    };

    let workers = fgcs_par::default_workers(chunks.len());
    let t_all = Instant::now();
    let map_id = tr.next_id();
    let t_map = Instant::now();
    let base: &Tracer = tr;
    let partials: Vec<ChunkOut> = fgcs_par::par_map(&chunks, |&(lo, hi)| {
        let mut ct = base.child();
        let chunk_id = ct.next_id();
        let t_chunk = Instant::now();
        let mut accs = fresh();
        let mut hours: [Vec<f64>; 2] = Default::default();
        let mut records_n = 0u64;
        for m in lo..hi {
            let a = prefix.partition_point(|&p| p <= m) - 1;
            let (tb, local) = (&testbeds[a], m - prefix[a]);
            let plan = ct.time("lab.plan", chunk_id, 1, || {
                MachinePlan::generate(&tb.lab, local)
            });
            drop(std::hint::black_box(plan));
            let records = ct.time("tracer.trace", chunk_id, 1, || {
                trace_machine_batched(tb, local)
            });
            ct.time("streaming.fold", chunk_id, records.len() as u64, || {
                accs[a].push_machine(&records)
            });
            records_n += records.len() as u64;
            push_hours(&records, span_secs, weekday0, &mut hours);
        }
        ct.record_as(chunk_id, "par.chunk", map_id, t_chunk, (hi - lo) as u64);
        (accs, hours, records_n, ct)
    });
    tr.record_as(map_id, "par.map", 0, t_map, chunks.len() as u64);

    let mut per = fresh();
    let mut exact: [Vec<f64>; 2] = Default::default();
    let mut records = 0u64;
    let mut extended = [RankSketch::new(cfg.sketch_k), RankSketch::new(cfg.sketch_k)];
    for (accs, hours, n, ct) in partials {
        tr.time("streaming.merge", 0, 1, || {
            for (mine, theirs) in per.iter_mut().zip(&accs) {
                mine.merge(theirs);
            }
        });
        for (i, h) in hours.iter().enumerate() {
            tr.time("sketch.extend", 0, h.len() as u64, || extended[i].extend(h));
            exact[i].extend_from_slice(h);
        }
        records += n;
        tr.absorb(ct);
    }
    let mut combined = StreamingAnalysis::new(cfg.days, weekday0, cfg.sketch_k);
    tr.time("streaming.merge_combined", 0, per.len() as u64, || {
        for acc in &per {
            combined.merge(acc);
        }
    });
    let rebuilt_wall_s = t_all.elapsed().as_secs_f64();
    let rebuilt = FleetResult {
        per_archetype: counts.iter().map(|(a, _)| *a).zip(per).collect(),
        combined,
    };
    rep.check(same(reference, &rebuilt), || {
        "fleet: the traced rebuild differs from run_fleet".to_string()
    });
    for (i, dt) in [DayType::Weekday, DayType::Weekend].into_iter().enumerate() {
        exact[i].sort_by(f64::total_cmp);
        for (what, sk) in [
            ("streaming", rebuilt.combined.interval_sketch(dt)),
            ("extended", &extended[i]),
        ] {
            let (err, bound) = rank_error(sk, &exact[i]);
            rep.check(err <= bound, || {
                format!(
                    "fleet: {what} {dt:?} sketch rank error {err} exceeds its certificate {bound}"
                )
            });
        }
    }

    let machines = cfg.machines as f64;
    let plan = tr.total_ns("lab.plan") as f64;
    let tracer_self = tr.total_ns("tracer.trace") as f64 - plan;
    let fold = tr.total_ns("streaming.fold") as f64;
    let merge = (tr.total_ns("streaming.merge") + tr.total_ns("streaming.merge_combined")) as f64;
    let map_wall = tr.total_ns("par.map") as f64;
    let weekday = rebuilt.combined.interval_sketch(DayType::Weekday);
    rep.metric("lab.plan_us_per_machine", plan / 1e3 / machines, "us");
    rep.metric("tracer.us_per_machine", tracer_self / 1e3 / machines, "us");
    rep.metric(
        "tracer.records_per_machine",
        records as f64 / machines,
        "count",
    );
    rep.metric(
        "streaming.fold_ns_per_record",
        ratio(fold, records as f64),
        "ns",
    );
    rep.metric(
        "streaming.merge_us_per_chunk",
        tr.total_ns("streaming.merge") as f64 / 1e3 / chunks.len() as f64,
        "us",
    );
    rep.metric(
        "sketch.extend_ns_per_value",
        tr.ns_per_unit("sketch.extend"),
        "ns",
    );
    rep.metric("sketch.stored_len", weekday.stored_len() as f64, "count");
    rep.metric(
        "sketch.rank_error_bound",
        weekday.rank_error_bound() as f64,
        "count",
    );
    rep.metric(
        "par.busy_frac",
        tr.total_ns("par.chunk") as f64 / (workers as f64 * map_wall),
        "ratio",
    );
    rep.metric("par.chunks", chunks.len() as f64, "count");
    (
        (plan + tracer_self + fold + merge) / 1e9,
        rebuilt_wall_s,
        workers,
    )
}
