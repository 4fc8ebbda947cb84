//! `reads`: a scheduler-like closed loop, one request in flight, against
//! a shard preloaded with 1000 machines. The mix is 80% `query_avail`,
//! 10% `place_on`, 1% `read_stats_of` and 9% `ingest`, drawn from the
//! seed; reads take the router's follower-first path, writes go to the
//! primary.

use std::io;
use std::path::Path;
use std::time::Instant;

use fgcs_service::ClusterClient;
use fgcs_stats::Rng;
use fgcs_wire::{decode_one, Frame};

use crate::inputs::{self, Stream};
use crate::oracle::Replay;
use crate::report::{median, quantile, ratio, Report, WINDOW_S};
use crate::servers::{self, ServerPair};
use crate::spans::Tracer;

const MACHINES: usize = 1000;
const BATCH: usize = 32;
/// Monitor period of this fleet, s. The online model predicts exactly
/// 1.0 for every machine until its horizon passes one day, so the
/// preload must cover more than a day; at the labs' 15 s period that is
/// 5.8 M samples to preload, at 2 minutes 0.9 M.
const SAMPLE_PERIOD_S: u64 = 120;
/// Preloaded history per machine: 28 batches, a day and a quarter.
const PRELOAD_SAMPLES: usize = 28 * BATCH;
/// The preload waits for the primary to drain after this many batches,
/// so its bounded queue never sheds.
const DRAIN_EVERY: u64 = 128;
/// Input is generated for up to this many operations per second.
const MAX_OPS_PER_S: f64 = 60_000.0;
const HORIZON_S: u64 = 3_600;
const JOB_LEN_S: u64 = 7_200;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// One entry per measured phase, run back to back on the same
    /// servers: whether that phase is traced.
    pub phases: Vec<bool>,
    /// Times the pair is started and preloaded (all but the last are
    /// stopped again); `reads.setup_s` is the median.
    pub setups: usize,
}

#[derive(Clone, Copy)]
enum Op {
    Avail,
    Place,
    Stats,
    Ingest,
}

struct Phase {
    traced: bool,
    /// Per-window `(ops/s, avail p50 µs, server CPU ns/op)`.
    windows: Vec<[f64; 3]>,
    ops: u64,
    failed: u64,
    wall_s: f64,
    lat_us: [Vec<f64>; 4],
    reads: u64,
    follower_reads: u64,
}

pub fn run(serve: &Path, o: &Opts, tracer: &mut Tracer) -> io::Result<Report> {
    let reserve = (MAX_OPS_PER_S * 0.09 * o.seconds * o.phases.len() as f64 / MACHINES as f64)
        .ceil() as usize
        + 1;
    let mut streams = inputs::fleet_streams(
        o.seed,
        MACHINES,
        PRELOAD_SAMPLES + reserve * BATCH,
        SAMPLE_PERIOD_S,
    );
    let mut rep = Report::default();
    // Machine of every batch sent, in send order, for the replay.
    let mut order: Vec<u32> = Vec::new();

    let (pair, mut client, setup_s) = ServerPair::start_timed(serve, o.setups, |client| {
        streams.iter_mut().for_each(Stream::rewind);
        order.clear();
        preload(client, &mut streams, &mut order)
    })?;
    rep.metric("reads.setup_s", setup_s, "s");
    servers::check_load_budget("reads")?;

    let mut rng = Rng::new(o.seed ^ 0x7265_6164_735f_6d69);
    let mut next_writer = 0usize;
    let mut phases = Vec::new();
    for &traced in &o.phases {
        let mut tr = if traced {
            tracer.child()
        } else {
            Tracer::new(false)
        };
        let (phase_id, phase_start) = (tr.next_id(), Instant::now());
        let before = pair.sample()?;
        let follower_reads0 = client.metrics.follower_reads;
        let mut ph = Phase {
            traced,
            windows: Vec::new(),
            ops: 0,
            failed: 0,
            wall_s: 0.0,
            lat_us: Default::default(),
            reads: 0,
            follower_reads: 0,
        };
        let t0 = Instant::now();
        let (mut w_start, mut w_server, mut w_ops, mut w_avail) = (t0, before, 0u64, Vec::new());
        while t0.elapsed().as_secs_f64() < o.seconds {
            let op = match rng.next_u64() % 100 {
                0..=79 => Op::Avail,
                80..=89 => Op::Place,
                90 => Op::Stats,
                _ => Op::Ingest,
            };
            let start = Instant::now();
            let ok = match op {
                Op::Avail => {
                    let machine = (rng.next_u64() % MACHINES as u64) as u32;
                    let r = tr.time("cluster.query_avail", phase_id, 1, || {
                        client.query_avail(machine, HORIZON_S)
                    });
                    expect(
                        &mut rep,
                        "query_avail",
                        r,
                        |f| matches!(f, Frame::AvailReply { machine: m, .. } if *m == machine),
                    )
                }
                Op::Place => {
                    let r = tr.time("cluster.place_on", phase_id, 1, || {
                        client.place_on(0, JOB_LEN_S)
                    });
                    expect(&mut rep, "place_on", r, |f| {
                        matches!(
                            f,
                            Frame::PlaceReply {
                                machine: Some(_),
                                ..
                            }
                        )
                    })
                }
                Op::Stats => {
                    let r = tr.time("cluster.read_stats_of", phase_id, 1, || {
                        client.read_stats_of(0)
                    });
                    match r {
                        Ok(s) => {
                            rep.check(s.machines.len() == MACHINES, || {
                                format!("reads: StatsReply lists {} machines", s.machines.len())
                            });
                            s.machines.len() == MACHINES
                        }
                        Err(_) => false,
                    }
                }
                Op::Ingest => {
                    // Round-robin over machines that still have input.
                    let Some(k) = (0..MACHINES)
                        .map(|i| (next_writer + i) % MACHINES)
                        .find(|&k| streams[k].batches_left(BATCH) > 0)
                    else {
                        return Err(io::Error::other("reads: ingest input exhausted"));
                    };
                    next_writer = k + 1;
                    let samples = streams[k].next_batch(BATCH).expect("checked above");
                    let machine = streams[k].machine;
                    order.push(machine);
                    let r = tr.time("cluster.ingest", phase_id, BATCH as u64, || {
                        client.ingest(machine, samples)
                    });
                    // Busy is a legal answer to a batch but still a failure.
                    let acked = matches!(r, Ok(Frame::Ack { .. }));
                    if !acked {
                        expect(&mut rep, "ingest", r, |f| matches!(f, Frame::Busy { .. }));
                    }
                    acked
                }
            };
            let lat_us = start.elapsed().as_secs_f64() * 1e6;
            ph.lat_us[op as usize].push(lat_us);
            if let Op::Avail = op {
                w_avail.push(lat_us);
            }
            w_ops += 1;
            let w_s = w_start.elapsed().as_secs_f64();
            if w_s >= WINDOW_S {
                let now = pair.sample()?;
                let cpu = now.since(&w_server);
                ph.windows.push([
                    w_ops as f64 / w_s,
                    median(&w_avail),
                    (cpu.primary.cpu_ns + cpu.follower.cpu_ns) as f64 / w_ops as f64,
                ]);
                (w_start, w_server, w_ops) = (Instant::now(), now, 0);
                w_avail.clear();
            }
            ph.ops += 1;
            ph.failed += !ok as u64;
            ph.reads += !matches!(op, Op::Ingest) as u64;
        }
        ph.wall_s = t0.elapsed().as_secs_f64();
        ph.follower_reads = client.metrics.follower_reads - follower_reads0;
        servers::drain(&mut client, order.len() as u64)?;
        servers::catch_up(&mut client)?;
        tr.record_as(phase_id, "reads.phase", 0, phase_start, ph.ops);
        tracer.absorb(tr);
        phases.push(ph);
    }

    // Correctness: accounting, per-machine state on both nodes and the
    // placement answer, against a replay of every batch in send order.
    streams.iter_mut().for_each(Stream::rewind);
    let mut replay = Replay::default();
    let mut off = Tracer::new(false);
    for &m in &order {
        let samples = streams[m as usize]
            .next_batch(BATCH)
            .expect("replaying what was sent");
        replay.apply(m, &samples, &mut off, 0);
    }
    let (shed, follower) =
        replay.check_servers(&mut client, order.len() as u64, &mut rep, "reads")?;
    let want = replay.place(JOB_LEN_S).map(|(m, _)| m);
    match client.place_on(0, JOB_LEN_S)? {
        Frame::PlaceReply { machine, .. } => rep.check(shed > 0 || machine == want, || {
            format!("reads: Place chose {machine:?}, the replay chose {want:?}")
        }),
        other => rep.check(false, || {
            format!("reads: Place answered tag {}", other.tag())
        }),
    }

    // Layer costs the servers pay for these reads, measured in process.
    let mut ltr = tracer.child();
    let reply = Frame::StatsReply(follower);
    let buf = reply.encode().map_err(io::Error::other)?;
    for _ in 0..31 {
        let d = ltr.time("wire.decode_stats", 0, 1, || decode_one(&buf));
        rep.check(d.as_ref().is_ok_and(|f| *f == reply), || {
            "reads: StatsReply does not round-trip".to_string()
        });
    }
    for _ in 0..31 {
        let p = ltr.time("online.predict_all", 0, replay.machines() as u64, || {
            replay.predict_all(HORIZON_S)
        });
        std::hint::black_box(p);
        let best = ltr.time("online.place_scan", 0, 1, || replay.place(JOB_LEN_S));
        std::hint::black_box(best);
    }

    // Untraced phases first, so that a traced phase's values are the
    // ones a traced run reports.
    let (traced, untraced): (Vec<&Phase>, Vec<&Phase>) = phases.iter().partition(|p| p.traced);
    for ph in untraced.iter().chain(&traced) {
        report_phase(&mut rep, ph);
    }
    if let (Some(t), false) = (traced.first(), untraced.is_empty()) {
        // Against the mean of the untraced phases around it.
        let rate = |p: &Phase| p.ops as f64 / p.wall_s;
        let base = untraced.iter().map(|p| rate(p)).sum::<f64>() / untraced.len() as f64;
        rep.metric("trace.overhead_frac", base / rate(t) - 1.0, "ratio");
    }
    rep.metric("reads.server_peak_rss_mb", pair.peak_rss_mb()?, "MB");
    rep.metric("wire.stats_reply_bytes", buf.len() as f64, "B");
    rep.metric(
        "wire.decode_stats_us",
        median(&ltr.durations("wire.decode_stats")) / 1e3,
        "us",
    );
    rep.metric(
        "online.predict_machine_ns",
        ltr.ns_per_unit("online.predict_all"),
        "ns",
    );
    rep.metric(
        "online.place_scan_us",
        median(&ltr.durations("online.place_scan")) / 1e3,
        "us",
    );
    tracer.absorb(ltr);
    pair.stop()?;
    Ok(rep)
}

/// Sends every machine's first `PRELOAD_SAMPLES` samples, batch-index
/// major, draining the primary every `DRAIN_EVERY` batches, then waits
/// for the follower.
fn preload(
    client: &mut ClusterClient,
    streams: &mut [Stream],
    order: &mut Vec<u32>,
) -> io::Result<()> {
    for _ in 0..PRELOAD_SAMPLES / BATCH {
        for s in streams.iter_mut() {
            let samples = s.next_batch(BATCH).expect("inputs sized for the preload");
            match client.ingest(s.machine, samples)? {
                Frame::Ack { .. } => {}
                other => {
                    return Err(io::Error::other(format!(
                        "preload: batch refused with tag {}",
                        other.tag()
                    )))
                }
            }
            order.push(s.machine);
            if (order.len() as u64).is_multiple_of(DRAIN_EVERY) {
                servers::drain(client, order.len() as u64)?;
            }
        }
    }
    servers::drain(client, order.len() as u64)?;
    servers::catch_up(client)
}

/// True when `reply` arrived and passes `ok`; a reply of the wrong type
/// also fails the run's correctness.
fn expect(
    rep: &mut Report,
    what: &str,
    reply: io::Result<Frame>,
    ok: impl FnOnce(&Frame) -> bool,
) -> bool {
    match reply {
        Ok(f) if ok(&f) => true,
        Ok(f) => {
            rep.check(false, || format!("reads: {what} answered tag {}", f.tag()));
            false
        }
        Err(_) => false,
    }
}

fn report_phase(rep: &mut Report, ph: &Phase) {
    rep.attempted += ph.ops;
    rep.failed += ph.failed;
    let [_, place, stats, _] = &ph.lat_us;
    let window = |i: usize| median(&ph.windows.iter().map(|w| w[i]).collect::<Vec<_>>());
    rep.metric("reads.ops_per_s", window(0), "1/s");
    rep.metric("reads.avail_p50_us", window(1), "us");
    rep.metric("reads.place_p50_us", median(place), "us");
    rep.metric("reads.place_p99_us", quantile(place, 0.99), "us");
    rep.metric("reads.stats_p50_us", median(stats), "us");
    rep.metric(
        "reads.failed_frac",
        ratio(ph.failed as f64, ph.ops as f64),
        "ratio",
    );
    rep.metric("reads.server_cpu_ns_per_op", window(2), "ns");
    rep.metric(
        "cluster.follower_read_frac",
        ratio(ph.follower_reads as f64, ph.reads as f64),
        "ratio",
    );
}
