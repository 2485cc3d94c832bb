//! What one measured phase records: latency samples, op and check tallies,
//! spans, and the program's own metrics diffed over the phase.

use crate::trace::{SpanId, Tracer};
use rcmo_obs::{MetricsSnapshot, Registry};
use rcmo_server::ClusterFrontend;
use std::sync::atomic::{AtomicU64, Ordering};

/// Failure messages kept for the report (the count is always exact).
const MAX_MESSAGES: usize = 8;

/// The record of one measured phase.
pub struct Recorder {
    pub tracer: Tracer,
    pub click_ns: Vec<u64>,
    pub join_ns: Vec<u64>,
    pub save_ns: Vec<u64>,
    /// The program's part of each TTFR sample (delivery and decode), and
    /// the modelled link part.
    pub ttfr_cpu_s: Vec<f64>,
    pub link_s: Vec<f64>,
    pub drain_ns: u64,
    pub decode_ns: u64,
    pub decodes: u64,
    /// Ops that reached the server on behalf of a client.
    pub client_ops: u64,
    /// Every server call the script issued (client ops plus upkeep).
    pub attempted: u64,
    pub failed_ops: u64,
    pub failed_checks: u64,
    pub messages: Vec<String>,
}

impl Recorder {
    pub fn new(trace: bool) -> Recorder {
        Recorder {
            tracer: Tracer::new(trace),
            click_ns: Vec::new(),
            join_ns: Vec::new(),
            save_ns: Vec::new(),
            ttfr_cpu_s: Vec::new(),
            link_s: Vec::new(),
            drain_ns: 0,
            decode_ns: 0,
            decodes: 0,
            client_ops: 0,
            attempted: 0,
            failed_ops: 0,
            failed_checks: 0,
            messages: Vec::new(),
        }
    }

    /// Starts a client op: a new trace op id and one attempted op.
    pub fn begin_op(&mut self, name: &'static str) -> SpanId {
        crate::calibrate::tick();
        self.tracer.next_op();
        self.client_ops += 1;
        self.attempted += 1;
        self.tracer.enter(name)
    }

    /// Times one server call under a span named after it.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let span = self.tracer.enter(name);
        let out = f();
        self.tracer.exit(span);
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed_ops += 1;
                self.note(format!("{name} failed: {e}"));
                None
            }
        }
    }

    /// Records an output check; a failed one counts against the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_checks += 1;
            self.note(what());
        }
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(msg);
        }
    }
}

/// Nearest-rank quantile of unsorted samples (`None` when empty).
pub fn quantile<T: Copy + PartialOrd>(samples: &[T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The program's own metrics at one instant: the process-global registry
/// (storage, codec, core, mediadb), the frontend's registry (routing,
/// journals), and the shard servers' registries summed (rooms, fan-out,
/// resync, delivery). Room counters are read from the shards, not the
/// global root, because replica rebuilds also log events into the root.
pub struct Snap {
    pub global: MetricsSnapshot,
    pub frontend: MetricsSnapshot,
    pub shards: MetricsSnapshot,
    pub checkpoints: u64,
}

impl Snap {
    pub fn take(cluster: &ClusterFrontend, checkpoints: &AtomicU64) -> Snap {
        let mut shards = MetricsSnapshot::default();
        for s in 0..cluster.shard_count() {
            add_into(&mut shards, &cluster.shard_server(s).metrics());
        }
        Snap {
            global: Registry::global().snapshot(),
            frontend: cluster.metrics(),
            shards,
            checkpoints: checkpoints.load(Ordering::Relaxed),
        }
    }

    pub fn since(&self, before: &Snap) -> Snap {
        Snap {
            global: self.global.diff(&before.global),
            frontend: self.frontend.diff(&before.frontend),
            shards: self.shards.diff(&before.shards),
            checkpoints: self.checkpoints - before.checkpoints,
        }
    }
}

fn add_into(acc: &mut MetricsSnapshot, s: &MetricsSnapshot) {
    for (k, v) in &s.counters {
        *acc.counters.entry(k.clone()).or_default() += v;
    }
    for (k, h) in &s.histograms {
        let e = acc.histograms.entry(k.clone()).or_insert_with(|| {
            let mut z = h.clone();
            z.counts.iter_mut().for_each(|c| *c = 0);
            z.count = 0;
            z.sum = 0;
            z
        });
        for (a, b) in e.counts.iter_mut().zip(&h.counts) {
            *a += b;
        }
        e.count += h.count;
        e.sum += h.sum;
        e.max = e.max.max(h.max);
    }
}

/// A counter's value, 0 if never registered.
pub fn counter(s: &MetricsSnapshot, name: &str) -> u64 {
    s.counters.get(name).copied().unwrap_or(0)
}

/// A histogram's (sample count, sample sum).
pub fn hist(s: &MetricsSnapshot, name: &str) -> (u64, u64) {
    s.histograms.get(name).map_or((0, 0), |h| (h.count, h.sum))
}

/// A histogram's mean, 0 when it has no samples.
pub fn hist_mean(s: &MetricsSnapshot, name: &str) -> f64 {
    let (n, sum) = hist(s, name);
    ratio(sum as f64, n as f64)
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
