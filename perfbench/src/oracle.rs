//! In-process replay of exactly what was sent: the detector (through
//! `OccurrenceRecorder`) and the online model, fed the way the server
//! feeds them. It is the correctness oracle for the servers' per-machine
//! state and, in traced runs, the measurement of those layers' cost.

use std::collections::BTreeMap;
use std::io;

use fgcs_core::detector::{DetectorConfig, EventEdge};
use fgcs_core::Observation;
use fgcs_predict::online::OnlineAvailabilityModel;
use fgcs_service::ClusterClient;
use fgcs_testbed::{LabConfig, OccurrenceRecorder};
use fgcs_wire::{SampleLoad, StatsPayload, WireSample};

use crate::report::Report;
use crate::spans::Tracer;

struct Machine {
    recorder: OccurrenceRecorder,
    transitions: u64,
    last_t: u64,
}

/// Per-machine detector state plus the shared online model.
pub struct Replay {
    lab: LabConfig,
    detector: DetectorConfig,
    machines: BTreeMap<u32, Machine>,
    online: OnlineAvailabilityModel,
}

impl Default for Replay {
    fn default() -> Self {
        // The service's defaults: the default lab's memory model and
        // start weekday, the wall-clock detector.
        let lab = LabConfig::default();
        Replay {
            online: OnlineAvailabilityModel::new(lab.start_weekday),
            lab,
            detector: DetectorConfig::wallclock_default(),
            machines: BTreeMap::new(),
        }
    }
}

impl Replay {
    /// Applies one batch: detector per sample, then the online-model
    /// update, each inside its own span.
    pub fn apply(&mut self, machine: u32, samples: &[WireSample], tr: &mut Tracer, parent: u64) {
        let detector = self.detector;
        let online = &mut self.online;
        let m = self.machines.entry(machine).or_insert_with(|| {
            online.ensure_machine(machine);
            Machine {
                recorder: OccurrenceRecorder::new(machine, detector),
                transitions: 0,
                last_t: 0,
            }
        });
        let lab = &self.lab;
        let started = tr.time("detector.observe", parent, samples.len() as u64, || {
            let mut started = Vec::new();
            for s in samples {
                let SampleLoad::Direct(host_load) = s.load else {
                    unreachable!("the benchmark sends direct loads only");
                };
                let obs = if s.alive {
                    Observation {
                        host_load,
                        free_mem_mb: lab.free_for_guest_mb(s.host_resident_mb),
                        alive: true,
                    }
                } else {
                    Observation::dead()
                };
                let before = m.recorder.state();
                let step = m.recorder.observe(s.t, &obs);
                m.transitions += (step.state != before) as u64;
                m.last_t = s.t;
                started.extend(step.edges.iter().filter_map(|e| match *e {
                    EventEdge::Started { at, .. } => Some(at),
                    _ => None,
                }));
            }
            started
        });
        let max_t = samples.iter().map(|s| s.t).max();
        tr.time("online.update", parent, 1, || {
            if let Some(t) = max_t {
                online.observe_time(t);
            }
            for at in started {
                online.record_event(machine, at);
            }
        });
    }

    pub fn machines(&self) -> usize {
        self.machines.len()
    }

    /// Detector transitions and occurrences summed over every machine.
    pub fn totals(&self) -> (u64, u64) {
        self.machines.values().fold((0, 0), |(t, o), m| {
            (t + m.transitions, o + m.recorder.records().len() as u64)
        })
    }

    /// Checks, once both nodes have settled, that the primary accounts
    /// for every batch sent (`sent == ingested + shed + decode-rejected`)
    /// and that each node's per-machine state equals the replay, where as
    /// many machines may differ as batches were shed. Returns the shed
    /// count and the follower's stats.
    pub fn check_servers(
        &self,
        client: &mut ClusterClient,
        sent: u64,
        rep: &mut Report,
        what: &str,
    ) -> io::Result<(usize, StatsPayload)> {
        let primary = client.stats_of(0)?;
        let follower = client.read_stats_of(0)?;
        let (ingested, shed, rejected) = (
            primary.ingested_batches,
            primary.shed_batches,
            primary.decode_errors,
        );
        rep.check(ingested + shed + rejected == sent, || {
            format!(
                "{what}: sent {sent} != ingested {ingested} + shed {shed} + rejected {rejected}"
            )
        });
        for (node, stats) in [("primary", &primary), ("follower", &follower)] {
            let bad = self.mismatches(stats);
            rep.check(bad as u64 <= shed, || {
                format!("{what}: {bad} machines on the {node} differ from the replay ({shed} shed)")
            });
        }
        Ok((shed as usize, follower))
    }

    /// Machines whose `(last_t, transitions, occurrences)` in `stats`
    /// differ from the replay, plus machines missing on either side.
    fn mismatches(&self, stats: &StatsPayload) -> usize {
        let mut bad = self.machines.len().abs_diff(stats.machines.len());
        for s in &stats.machines {
            bad += match self.machines.get(&s.machine) {
                Some(m) => {
                    (m.last_t, m.transitions, m.recorder.records().len() as u64)
                        != (s.last_t, s.transitions, s.occurrences)
                }
                None => true,
            } as usize;
        }
        bad
    }

    /// `predict_machine` for every machine at the model's horizon.
    pub fn predict_all(&self, window: u64) -> f64 {
        let now = self.online.horizon();
        self.machines
            .keys()
            .map(|&id| self.online.predict_machine(id, now, window))
            .sum()
    }

    /// The service's placement scan: harvestable machines ranked by
    /// predicted survival over `job_len`, lowest id winning ties.
    pub fn place(&self, job_len: u64) -> Option<(u32, f64)> {
        let now = self.online.horizon();
        let mut best: Option<(u32, f64)> = None;
        for (&id, m) in &self.machines {
            if !m.recorder.is_available() || m.recorder.spike_active() {
                continue;
            }
            let p = self.online.predict_machine(id, now, job_len);
            if best.is_none_or(|(_, bp)| p > bp) {
                best = Some((id, p));
            }
        }
        best
    }
}
