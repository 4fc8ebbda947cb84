//! `ingest`: an open-loop replay of a 64-machine default-mix fleet at a
//! fixed offered rate, 32-sample batches interleaved across machines,
//! through `ClusterClient::ingest` into the primary + follower pair.
//! Every batch is timed from when it was due, so a stall is charged to
//! every batch it delays.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use fgcs_service::ClusterClient;
use fgcs_testbed::LabConfig;
use fgcs_wire::{decode_one, Frame};

use crate::inputs::{self, Stream};
use crate::oracle::Replay;
use crate::procfs;
use crate::report::{median, quantile, ratio, Report, WINDOW_S};
use crate::servers::{self, PairSample, ServerPair};
use crate::spans::Tracer;

const MACHINES: usize = 64;
const BATCH: usize = 32;
/// Offered load, samples per second.
const RATE: f64 = 200_000.0;
/// A run is generator-bound, and void, when the generator's own
/// lateness has a median above this share of the batch interval.
const GENERATOR_BOUND_SHARE: f64 = 0.25;
/// Traced phases sample queue depth and replication lag every this
/// many batches.
const PROBE_EVERY: usize = 1024;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// One entry per measured phase, run back to back on the same
    /// servers: whether that phase is traced.
    pub phases: Vec<bool>,
    /// Times the pair is started (all but the last are stopped again);
    /// `ingest.setup_s` is the median.
    pub setups: usize,
}

/// What one phase saw.
struct Phase {
    traced: bool,
    /// Per-window `(ack p50 µs, server CPU ns/sample)`.
    windows: Vec<[f64; 2]>,
    batches: u64,
    acked: u64,
    failed: u64,
    wall_s: f64,
    ack_us: Vec<f64>,
    rtt_us: Vec<f64>,
    /// Send start minus the later of due time and the previous reply:
    /// the lateness the generator itself adds.
    late_us: Vec<f64>,
    gen_cpu_ns: u64,
    server: PairSample,
    samples_ingested: u64,
    shed_batches: u64,
    catchup_ms: f64,
    queue_depth_max: u64,
    lag_entries_max: u64,
}

pub fn run(serve: &Path, o: &Opts, tracer: &mut Tracer) -> io::Result<Report> {
    let interval = Duration::from_secs_f64(BATCH as f64 / RATE);
    let per_phase = (o.seconds * RATE / BATCH as f64).ceil() as usize;
    let total = per_phase * o.phases.len();
    let per_machine = (total.div_ceil(MACHINES) + 1) * BATCH;
    let period = LabConfig::default().sample_period;
    let mut streams = inputs::fleet_streams(o.seed, MACHINES, per_machine, period);
    let mut rep = Report::default();

    let (pair, mut client, setup_s) = ServerPair::start_timed(serve, o.setups, |_| Ok(()))?;
    rep.metric("ingest.setup_s", setup_s, "s");
    servers::check_load_budget("ingest")?;

    procfs::tighten_timer_slack()?;
    let mut phases = Vec::new();
    let mut sent = 0u64;
    let mut last_stats = client.stats_of(0)?;
    for &traced in &o.phases {
        let mut tr = if traced {
            tracer.child()
        } else {
            Tracer::new(false)
        };
        let (phase_id, phase_start) = (tr.next_id(), Instant::now());
        let before = pair.sample()?;
        let gen0 = procfs::thread_cpu_ns()?;
        let mut ph = Phase {
            traced,
            windows: Vec::new(),
            batches: per_phase as u64,
            acked: 0,
            failed: 0,
            wall_s: 0.0,
            ack_us: Vec::with_capacity(per_phase),
            rtt_us: Vec::with_capacity(per_phase),
            late_us: Vec::with_capacity(per_phase),
            gen_cpu_ns: 0,
            server: PairSample::default(),
            samples_ingested: 0,
            shed_batches: 0,
            catchup_ms: 0.0,
            queue_depth_max: 0,
            lag_entries_max: 0,
        };
        let t0 = Instant::now() + Duration::from_millis(1);
        let mut prev_done = t0;
        let window = (WINDOW_S / interval.as_secs_f64()).round() as usize;
        let mut w_server = before;
        for k in 0..per_phase {
            let due = t0 + interval * k as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let start = Instant::now();
            ph.late_us
                .push(start.duration_since(due.max(prev_done)).as_secs_f64() * 1e6);
            let stream = &mut streams[sent as usize % MACHINES];
            let samples = stream.next_batch(BATCH).expect("inputs sized for the run");
            let machine = stream.machine;
            let reply = tr.time("cluster.ingest", phase_id, BATCH as u64, || {
                client.ingest(machine, samples)
            });
            let done = Instant::now();
            prev_done = done;
            sent += 1;
            ph.ack_us.push(done.duration_since(due).as_secs_f64() * 1e6);
            ph.rtt_us
                .push(done.duration_since(start).as_secs_f64() * 1e6);
            match reply {
                Ok(Frame::Ack { .. }) => ph.acked += 1,
                _ => ph.failed += 1,
            }
            if k % window == window - 1 {
                let now = pair.sample()?;
                let cpu = now.since(&w_server);
                ph.windows.push([
                    median(&ph.ack_us[k + 1 - window..]),
                    (cpu.primary.cpu_ns + cpu.follower.cpu_ns) as f64 / (window * BATCH) as f64,
                ]);
                w_server = now;
            }
            if traced && k % PROBE_EVERY == PROBE_EVERY - 1 {
                probe(&mut client, &mut ph, &mut tr, phase_id)?;
            }
        }
        let end = Instant::now();
        ph.wall_s = end.duration_since(t0).as_secs_f64();
        ph.gen_cpu_ns = procfs::thread_cpu_ns()? - gen0;
        let stats = servers::drain(&mut client, sent)?;
        servers::catch_up(&mut client)?;
        ph.catchup_ms = end.elapsed().as_secs_f64() * 1e3;
        ph.server = pair.sample()?.since(&before);
        ph.samples_ingested = stats.ingested_samples - last_stats.ingested_samples;
        ph.shed_batches = stats.shed_batches - last_stats.shed_batches;
        last_stats = stats;
        tr.record_as(phase_id, "ingest.phase", 0, phase_start, per_phase as u64);
        tracer.absorb(tr);
        phases.push(ph);
    }

    // Correctness: the servers against an in-process replay of every
    // batch, through the codec.
    let mut replay = Replay::default();
    let mut bytes = 0usize;
    for s in streams.iter_mut() {
        s.rewind();
    }
    let mut rtr = tracer.child();
    let mut off = Tracer::new(false);
    let (replay_id, replay_start) = (rtr.next_id(), Instant::now());
    for k in 0..sent as usize {
        // Spans only for the batches of traced phases.
        let tr = if o.phases[k / per_phase] {
            &mut rtr
        } else {
            &mut off
        };
        let stream: &mut Stream = &mut streams[k % MACHINES];
        let samples = stream.next_batch(BATCH).expect("replaying what was sent");
        let frame = Frame::SampleBatch {
            machine: stream.machine,
            samples,
        };
        let buf = tr
            .time("wire.encode", replay_id, 1, || frame.encode())
            .map_err(io::Error::other)?;
        bytes += buf.len();
        let decoded = tr
            .time("wire.decode", replay_id, 1, || decode_one(&buf))
            .map_err(|e| io::Error::other(e.to_string()))?;
        let Frame::SampleBatch { machine, samples } = decoded else {
            unreachable!("a SampleBatch decodes to a SampleBatch");
        };
        replay.apply(machine, &samples, tr, replay_id);
    }
    replay.check_servers(&mut client, sent, &mut rep, "ingest")?;
    let (transitions, occurrences) = replay.totals();
    rep.check(transitions > 0 && occurrences > 0, || {
        "ingest: the replayed fleet produced no detector activity".to_string()
    });

    rtr.record_as(replay_id, "ingest.replay", 0, replay_start, sent);
    let route_calls = 100_000u64;
    let routed = rtr.time("cluster.route", 0, route_calls, || {
        (0..route_calls)
            .map(|m| client.shard_for(m as u32))
            .sum::<usize>()
    });
    std::hint::black_box(routed);
    tracer.absorb(rtr);

    // Untraced phases first, so that a traced phase's values are the
    // ones a traced run reports.
    let (traced, untraced): (Vec<&Phase>, Vec<&Phase>) = phases.iter().partition(|p| p.traced);
    for ph in untraced.iter().chain(&traced) {
        report_phase(&mut rep, ph, interval);
    }
    if let (Some(t), false) = (traced.first(), untraced.is_empty()) {
        // Against the mean of the untraced phases around it.
        let per = |p: &Phase| p.gen_cpu_ns as f64 / p.batches as f64;
        let base = untraced.iter().map(|p| per(p)).sum::<f64>() / untraced.len() as f64;
        rep.metric("trace.overhead_frac", per(t) / base - 1.0, "ratio");
    }
    rep.metric("ingest.server_peak_rss_mb", pair.peak_rss_mb()?, "MB");
    rep.metric(
        "wire.bytes_per_sample",
        ratio(bytes as f64, (sent as usize * BATCH) as f64),
        "B",
    );
    rep.metric(
        "wire.encode_ns_per_batch",
        tracer.ns_per_unit("wire.encode"),
        "ns",
    );
    rep.metric(
        "wire.decode_ns_per_batch",
        tracer.ns_per_unit("wire.decode"),
        "ns",
    );
    rep.metric(
        "detector.ns_per_sample",
        tracer.ns_per_unit("detector.observe"),
        "ns",
    );
    rep.metric("detector.transitions", transitions as f64, "count");
    rep.metric("detector.occurrences", occurrences as f64, "count");
    rep.metric(
        "online.update_ns_per_batch",
        tracer.ns_per_unit("online.update"),
        "ns",
    );
    rep.metric(
        "cluster.route_ns",
        tracer.ns_per_unit("cluster.route"),
        "ns",
    );
    rep.metric("cluster.retries", client.metrics.retries as f64, "count");
    rep.metric(
        "cluster.failovers",
        client.metrics.failovers as f64,
        "count",
    );
    if let Some(cpu) = rep.get("server.primary_cpu_ns_per_sample") {
        let attributed = (tracer.ns_per_unit("wire.decode") + tracer.ns_per_unit("online.update"))
            / BATCH as f64
            + tracer.ns_per_unit("detector.observe");
        rep.metric(
            "server.unattributed_frac",
            1.0 - ratio(attributed, cpu),
            "ratio",
        );
    }
    pair.stop()?;
    Ok(rep)
}

/// Queue depth on the primary and follower lag, sampled mid-run.
fn probe(
    client: &mut ClusterClient,
    ph: &mut Phase,
    tr: &mut Tracer,
    parent: u64,
) -> io::Result<()> {
    let stats = tr.time("cluster.stats_of", parent, 1, || client.stats_of(0))?;
    ph.queue_depth_max = ph.queue_depth_max.max(stats.queue_depth);
    let (_, head) = tr.time("cluster.repl_status", parent, 1, || {
        servers::repl_status(client, false)
    })?;
    let (_, applied) = tr.time("cluster.repl_status", parent, 1, || {
        servers::repl_status(client, true)
    })?;
    ph.lag_entries_max = ph.lag_entries_max.max(head.saturating_sub(applied));
    Ok(())
}

fn report_phase(rep: &mut Report, ph: &Phase, interval: Duration) {
    let interval_us = interval.as_secs_f64() * 1e6;
    let late_p50 = median(&ph.late_us);
    rep.check(late_p50 <= GENERATOR_BOUND_SHARE * interval_us, || {
        format!(
            "ingest: generator-bound — own lateness p50 {late_p50:.1} us exceeds \
             {GENERATOR_BOUND_SHARE} of the {interval_us:.0} us batch interval"
        )
    });
    rep.attempted += ph.batches;
    rep.failed += ph.failed;
    let samples = ph.samples_ingested as f64;
    let window = |i: usize| median(&ph.windows.iter().map(|w| w[i]).collect::<Vec<_>>());
    rep.metric("ingest.ack_p50_us", window(0), "us");
    rep.metric("ingest.ack_p99_us", quantile(&ph.ack_us, 0.99), "us");
    rep.metric(
        "ingest.acked_samples_per_s",
        (ph.acked * BATCH as u64) as f64 / ph.wall_s,
        "1/s",
    );
    rep.metric("ingest.server_cpu_ns_per_sample", window(1), "ns");
    rep.metric(
        "ingest.failed_frac",
        ratio(ph.failed as f64, ph.batches as f64),
        "ratio",
    );
    rep.metric("loadgen.late_p50_us", late_p50, "us");
    rep.metric("loadgen.late_p99_us", quantile(&ph.late_us, 0.99), "us");
    rep.metric(
        "loadgen.cpu_frac",
        ph.gen_cpu_ns as f64 / 1e9 / ph.wall_s,
        "ratio",
    );
    rep.metric("cluster.ingest_rtt_p50_us", median(&ph.rtt_us), "us");
    rep.metric(
        "server.primary_cpu_ns_per_sample",
        ratio(ph.server.primary.cpu_ns as f64, samples),
        "ns",
    );
    rep.metric(
        "server.follower_cpu_ns_per_sample",
        ratio(ph.server.follower.cpu_ns as f64, samples),
        "ns",
    );
    rep.metric(
        "server.vcsw_per_batch",
        ratio(ph.server.primary.vcsw as f64, ph.batches as f64),
        "count",
    );
    rep.metric(
        "server.nvcsw_per_batch",
        ratio(ph.server.primary.nvcsw as f64, ph.batches as f64),
        "count",
    );
    rep.metric("server.threads", ph.server.primary.threads as f64, "count");
    rep.metric("server.shed_batches", ph.shed_batches as f64, "count");
    rep.metric("server.queue_depth_max", ph.queue_depth_max as f64, "count");
    rep.metric(
        "repl.lag_samples_max",
        (ph.lag_entries_max * BATCH as u64) as f64,
        "count",
    );
    rep.metric("repl.catchup_ms", ph.catchup_ms, "ms");
}
