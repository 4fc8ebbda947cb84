//! Outside-in process accounting from `/proc`: CPU time, context
//! switches, thread counts and peak resident memory of a process,
//! summed over its threads where the kernel keeps per-thread counters.

use std::fs;
use std::io;

/// Nanoseconds per `/proc/<pid>/stat` clock tick (`USER_HZ` is 100 on
/// every Linux configuration this benchmark targets).
pub const TICK_NS: u64 = 10_000_000;

/// One reading of a process's counters, summed over its live threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// CPU time, ns (`schedstat`: exact, where `stat` counts 10 ms ticks).
    pub cpu_ns: u64,
    /// Voluntary context switches summed over live threads.
    pub vcsw: u64,
    /// Involuntary context switches summed over live threads.
    pub nvcsw: u64,
    /// Live threads.
    pub threads: u64,
}

impl ProcSample {
    /// Reads every `/proc/<pid>/task/*/{schedstat,status}`. The server's
    /// threads live as long as it does, so no CPU time leaves the sum.
    pub fn read(pid: u32) -> io::Result<ProcSample> {
        let mut s = ProcSample::default();
        for task in fs::read_dir(format!("/proc/{pid}/task"))? {
            let dir = task?.path();
            // A thread may exit between listing and reading.
            let (Ok(sched), Ok(text)) = (
                fs::read_to_string(dir.join("schedstat")),
                fs::read_to_string(dir.join("status")),
            ) else {
                continue;
            };
            s.threads += 1;
            s.cpu_ns += sched
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0);
            s.vcsw += status_field(&text, "voluntary_ctxt_switches").unwrap_or(0);
            s.nvcsw += status_field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0);
        }
        Ok(s)
    }

    /// Counter growth from `earlier` to `self` (threads: the later count).
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            vcsw: self.vcsw.saturating_sub(earlier.vcsw),
            nvcsw: self.nvcsw.saturating_sub(earlier.nvcsw),
            threads: self.threads,
        }
    }
}

/// utime + stime of a `stat` file, ns, in 10 ms ticks; counts exited
/// threads too. Fields are counted after the command name's closing
/// parenthesis, which may itself hold spaces.
fn stat_cpu_ns(path: &str) -> io::Result<u64> {
    let text = fs::read_to_string(path)?;
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| bad(path))?;
    // After ')': state(3) ppid(4) ... utime(14) stime(15).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| bad(path))
    };
    Ok((tick(11)? + tick(12)?) * TICK_NS)
}

/// CPU time of the calling thread, ns, at scheduler resolution.
pub fn thread_cpu_ns() -> io::Result<u64> {
    let text = fs::read_to_string("/proc/thread-self/schedstat")?;
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| bad("/proc/thread-self/schedstat"))
}

/// CPU time of the whole calling process, exited threads included, ns.
pub fn self_cpu_ns() -> io::Result<u64> {
    stat_cpu_ns("/proc/self/stat")
}

/// Peak resident set (`VmHWM`) of a process, MiB.
pub fn peak_rss_mb(pid: &str) -> io::Result<f64> {
    let path = format!("/proc/{pid}/status");
    let text = fs::read_to_string(&path)?;
    let kb = status_field(&text, "VmHWM").ok_or_else(|| bad(&path))?;
    Ok(kb as f64 / 1024.0)
}

/// Sets the main thread's timer slack to 1 ns, so its sleeps wake when
/// due instead of up to the default 50 µs late. Call it from the main
/// thread: `/proc/self` names the thread-group leader.
pub fn tighten_timer_slack() -> io::Result<()> {
    fs::write("/proc/self/timerslack_ns", "1")
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k == key).then(|| v.split_whitespace().next()?.parse().ok())?
    })
}

fn bad(path: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparseable {path}"))
}
