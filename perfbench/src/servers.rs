//! The system under test: one `fgcs-serve` primary with a replication
//! log and one `fgcs-serve` follower of it, as real processes. Every
//! flag but the ones that make the pair exist keeps its default.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use fgcs_service::{ClusterClient, ClusterConfig, ShardSpec, ROLE_FOLLOWER};
use fgcs_wire::{Frame, StatsPayload};

use crate::procfs::{self, ProcSample};
use crate::report::median;

/// Replication-log entries the primary retains: ~2.6 s of `ingest`
/// traffic, far more than the follower ever lags.
const REPL_LOG: &str = "16384";

/// How long a drain or catch-up may take before the run fails.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

struct Node {
    child: Child,
    /// Kept open: the server exits when its stdin closes, and its
    /// stdout must stay readable.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Node {
    fn spawn(bin: &Path, extra: &[&str]) -> io::Result<Node> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let Some(addr) = read
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening on "))
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "fgcs-serve did not start: {line:?}"
            )));
        };
        Ok(Node {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        })
    }

    /// Closes stdin (the server's shutdown signal) and reaps it, killing
    /// it if it has not exited within 10 s.
    fn stop(&mut self) -> io::Result<()> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other("fgcs-serve ignored stdin EOF; killed"))
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A running primary + follower pair.
pub struct ServerPair {
    primary: Node,
    follower: Node,
}

/// Both nodes' `/proc` counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairSample {
    pub primary: ProcSample,
    pub follower: ProcSample,
}

impl PairSample {
    pub fn since(&self, earlier: &PairSample) -> PairSample {
        PairSample {
            primary: self.primary.since(&earlier.primary),
            follower: self.follower.since(&earlier.follower),
        }
    }
}

impl ServerPair {
    /// Starts the pair and returns it with a connected router whose
    /// write route (primary) and read route (follower) have both
    /// answered once.
    pub fn start(bin: &Path) -> io::Result<(ServerPair, ClusterClient)> {
        let primary = Node::spawn(bin, &["--repl-log", REPL_LOG])?;
        let follower = Node::spawn(bin, &["--follower-of", &primary.addr])?;
        let pair = ServerPair { primary, follower };
        let mut client = ClusterClient::connect(ClusterConfig::new(vec![ShardSpec {
            name: "shard-0".to_string(),
            primary_addr: pair.primary.addr.clone(),
            follower_addr: Some(pair.follower.addr.clone()),
        }]))?;
        client.stats_of(0)?;
        let (role, _) = repl_status(&mut client, true)?;
        if role != ROLE_FOLLOWER {
            return Err(io::Error::other(format!(
                "read route answered with role {role}, expected the follower"
            )));
        }
        Ok((pair, client))
    }

    pub fn sample(&self) -> io::Result<PairSample> {
        Ok(PairSample {
            primary: ProcSample::read(self.primary.child.id())?,
            follower: ProcSample::read(self.follower.child.id())?,
        })
    }

    /// Peak resident memory of both nodes, MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        Ok(procfs::peak_rss_mb(&self.primary.child.id().to_string())?
            + procfs::peak_rss_mb(&self.follower.child.id().to_string())?)
    }

    /// Starts the pair `times` times, running `prepare` on each fresh
    /// router inside the timed span, and keeps the last one; returns it
    /// with the median set-up time, s.
    pub fn start_timed(
        bin: &Path,
        times: usize,
        mut prepare: impl FnMut(&mut ClusterClient) -> io::Result<()>,
    ) -> io::Result<(ServerPair, ClusterClient, f64)> {
        let mut secs = Vec::new();
        loop {
            let t0 = Instant::now();
            let (pair, mut client) = ServerPair::start(bin)?;
            prepare(&mut client)?;
            secs.push(t0.elapsed().as_secs_f64());
            if secs.len() >= times {
                return Ok((pair, client, median(&secs)));
            }
            pair.stop()?;
        }
    }

    /// Stops both nodes, follower first.
    pub fn stop(mut self) -> io::Result<()> {
        let f = self.follower.stop();
        let p = self.primary.stop();
        f.and(p)
    }
}

/// `(role, applied_seq)` of the primary (`follower == false`) or the
/// follower, via the router's write or read route.
pub fn repl_status(client: &mut ClusterClient, follower: bool) -> io::Result<(u8, u64)> {
    let reply = if follower {
        client.read_on(0, &Frame::ReplStatus)?
    } else {
        client.request_on(0, &Frame::ReplStatus)?
    };
    match reply {
        Frame::ReplStatusReply {
            role, applied_seq, ..
        } => Ok((role, applied_seq)),
        other => Err(io::Error::other(format!(
            "unexpected reply to ReplStatus: tag {}",
            other.tag()
        ))),
    }
}

/// Polls the primary until every batch sent has been ingested, shed or
/// rejected and its queue is empty; returns its final stats.
pub fn drain(client: &mut ClusterClient, sent_batches: u64) -> io::Result<StatsPayload> {
    let deadline = Instant::now() + SETTLE_TIMEOUT;
    loop {
        let s = client.stats_of(0)?;
        if s.ingested_batches + s.shed_batches + s.decode_errors >= sent_batches
            && s.queue_depth == 0
        {
            return Ok(s);
        }
        if Instant::now() > deadline {
            return Err(io::Error::other(format!(
                "primary did not drain: {} of {sent_batches} batches accounted",
                s.ingested_batches + s.shed_batches + s.decode_errors
            )));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Polls until the follower has applied the primary's newest seq.
pub fn catch_up(client: &mut ClusterClient) -> io::Result<()> {
    let deadline = Instant::now() + SETTLE_TIMEOUT;
    let (_, head) = repl_status(client, false)?;
    loop {
        let (_, applied) = repl_status(client, true)?;
        if applied >= head {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(io::Error::other(format!(
                "follower stuck at seq {applied} of {head}"
            )));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Sockets open before the benchmark connected anywhere (inherited
/// descriptors), subtracted from later counts.
static INHERITED_SOCKETS: OnceLock<usize> = OnceLock::new();

fn open_sockets() -> io::Result<usize> {
    let mut n = 0;
    for fd in std::fs::read_dir("/proc/self/fd")? {
        if let Ok(target) = std::fs::read_link(fd?.path()) {
            n += target.to_string_lossy().starts_with("socket:") as usize;
        }
    }
    Ok(n)
}

/// Records the inherited sockets; call once at start.
pub fn note_inherited_sockets() -> io::Result<()> {
    let n = open_sockets()?;
    INHERITED_SOCKETS.get_or_init(|| n);
    Ok(())
}

/// Refuses to go on when this process runs more threads, or holds more
/// connections, than there are cores.
pub fn check_load_budget(what: &str) -> io::Result<()> {
    let conns = open_sockets()? - INHERITED_SOCKETS.get().copied().unwrap_or(0);
    let threads = std::fs::read_dir("/proc/self/task")?.count();
    let cores = crate::nproc();
    if conns > cores || threads > cores {
        return Err(io::Error::other(format!(
            "{what}: {threads} threads and {conns} connections exceed {cores} cores"
        )));
    }
    Ok(())
}
