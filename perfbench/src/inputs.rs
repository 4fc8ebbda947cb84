//! Benchmark inputs: monitor sample streams of a default-mix fleet,
//! derived from the seed alone.

use fgcs_testbed::{FleetConfig, LabConfig, LoadSample, MachinePlan};
use fgcs_wire::{SampleLoad, WireSample};

/// The fleet the service workloads replay: `machines` machines of the
/// default archetype mix, seeded from the benchmark seed.
fn fleet_config(seed: u64, machines: usize, days: usize) -> FleetConfig {
    FleetConfig {
        seed: 0x5eed_0000 ^ seed,
        machines,
        days,
        ..FleetConfig::default()
    }
}

/// One machine's sample stream and how far it has been sent.
pub struct Stream {
    pub machine: u32,
    samples: Vec<LoadSample>,
    next: usize,
}

impl Stream {
    /// The next `n` samples as wire samples, or `None` when fewer remain.
    pub fn next_batch(&mut self, n: usize) -> Option<Vec<WireSample>> {
        let batch = self.samples.get(self.next..self.next + n)?;
        self.next += n;
        Some(batch.iter().map(wire).collect())
    }

    /// Starts the stream over, to replay or resend it.
    pub fn rewind(&mut self) {
        self.next = 0;
    }

    /// Batches of `n` samples still unsent.
    pub fn batches_left(&self, n: usize) -> usize {
        (self.samples.len() - self.next) / n
    }
}

/// The first `per_machine` samples of every machine of the fleet
/// (`FleetConfig::archetype_counts` + `MachinePlan`), in global machine
/// order: archetype blocks as `run_fleet` lays them out. Monitors sample
/// every `sample_period` seconds.
pub fn fleet_streams(
    seed: u64,
    machines: usize,
    per_machine: usize,
    sample_period: u64,
) -> Vec<Stream> {
    let per_day = (86_400 / sample_period) as usize;
    let days = per_machine.div_ceil(per_day).max(1);
    let cfg = fleet_config(seed, machines, days);
    let mut streams = Vec::with_capacity(machines);
    for (arch, count) in cfg.archetype_counts() {
        let lab = LabConfig {
            sample_period,
            ..cfg.resolved_lab(arch, count)
        };
        for local in 0..count {
            let plan = MachinePlan::generate(&lab, local);
            streams.push(Stream {
                machine: streams.len() as u32,
                samples: plan.samples().take(per_machine).collect(),
                next: 0,
            });
        }
    }
    streams
}

pub fn wire(s: &LoadSample) -> WireSample {
    WireSample {
        t: s.t,
        load: SampleLoad::Direct(s.host_load),
        host_resident_mb: s.host_resident_mb,
        alive: s.alive,
    }
}
