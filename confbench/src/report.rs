//! Turning measured phases into the printed tables and the result line.

use crate::measure::{counter, hist, hist_mean, median, quantile, ratio, rss_peak_mib};
use crate::trace;
use crate::Phase;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Run {
    pub workload: String,
    pub seed: u64,
    /// Host speed factor every measured time is multiplied by (see
    /// `calibrate`).
    pub scale: f64,
    pub setup_s: Vec<f64>,
    /// The untraced phase, then (when traced) the traced one.
    pub phases: Vec<Phase>,
}

/// Per-op calls timed by the benchmark's spans (`cluster.<call>`).
const CALLS: [&str; 13] = [
    "act.choose",
    "act.unchoose",
    "act.annotate",
    "act.chat",
    "join",
    "leave",
    "resync",
    "deliver_image",
    "report_transfer",
    "save_and_close_image",
    "open_image",
    "save_document",
    "render_presentation",
];

/// Exact counts that repeat for one workload and seed.
struct Fingerprint(Vec<(&'static str, u64)>);

impl Fingerprint {
    fn of(p: &Phase) -> Fingerprint {
        let (sh, g) = (&p.snap.shards, &p.snap.global);
        let resyncs = hist(sh, "server.room.resync.us").0;
        let snapshots = counter(sh, "server.room.resync.snapshot.count");
        Fingerprint(vec![
            ("events_logged", counter(sh, "server.room.logged.count")),
            ("deliveries", counter(sh, "server.room.delivered.count")),
            (
                "delivered_bytes",
                counter(sh, "server.room.delivered.bytes"),
            ),
            ("encodes", counter(sh, "server.room.encode.count")),
            ("commits", hist(g, "storage.txn.commit.us").0),
            ("cache_hits", counter(sh, "server.delivery.cache.hit.count")),
            (
                "cache_misses",
                counter(sh, "server.delivery.cache.miss.count"),
            ),
            ("snapshot_resyncs", snapshots),
            ("replay_resyncs", resyncs - snapshots),
            ("storage_reads", counter(g, "mediadb.image.data_read.count")),
        ])
    }

    fn text(&self) -> String {
        let parts: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
        parts.join(" ")
    }
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn m(out: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    let value = if value.is_finite() { value } else { 0.0 };
    out.push(Metric {
        name: name.into(),
        unit,
        value,
    });
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let p = &run.phases[0];
    let r = &p.rec;
    let k = run.scale;
    let us = |ns: &[u64], q: f64| quantile(ns, q).map_or(0.0, |v| v as f64 * k / 1e3);
    // TTFR: the program's part is scaled, the modelled link is not.
    let ttfr: Vec<f64> = r
        .ttfr_cpu_s
        .iter()
        .zip(&r.link_s)
        .map(|(cpu, link)| cpu * k + link)
        .collect();
    let ms = |q: f64| quantile(&ttfr, q).map_or(0.0, |v| v * 1e3);
    let mut out = Vec::new();
    m(&mut out, "setup_s", "s", median(&run.setup_s) * k);
    m(
        &mut out,
        "ops_per_s",
        "ops/s",
        r.client_ops as f64 / (p.cpu_s * k),
    );
    m(&mut out, "click_p50_us", "us", us(&r.click_ns, 0.5));
    m(&mut out, "click_p99_us", "us", us(&r.click_ns, 0.99));
    m(&mut out, "join_p50_us", "us", us(&r.join_ns, 0.5));
    m(&mut out, "join_p99_us", "us", us(&r.join_ns, 0.99));
    m(&mut out, "ttfr_p50_ms", "ms", ms(0.5));
    m(&mut out, "ttfr_p99_ms", "ms", ms(0.99));
    m(&mut out, "save_p50_us", "us", us(&r.save_ns, 0.5));
    m(&mut out, "save_p99_us", "us", us(&r.save_ns, 0.99));
    m(&mut out, "rss_peak_mib", "MiB", rss_peak_mib());
    out
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let p = run.phases.last().expect("at least one phase");
    let (r, fe, sh, g) = (&p.rec, &p.snap.frontend, &p.snap.shards, &p.snap.global);
    let ops = r.client_ops as f64;
    let events = counter(sh, "server.room.logged.count") as f64;
    // The benchmark's own times are scaled like the end-to-end ones; the
    // program's histograms are its own wall-clock microseconds, as is.
    let k = run.scale;
    let calls = trace::totals_by_name(&p.spans);
    let call_us = |name: &str| {
        calls
            .get(name)
            .map_or(0.0, |&(n, ns)| ratio(ns as f64 * k, n as f64) / 1e3)
    };
    let share = |hit: &str, miss: &str, s| {
        let (h, mi) = (counter(s, hit) as f64, counter(s, miss) as f64);
        ratio(h, h + mi)
    };
    let c = |s, name| counter(s, name) as f64;
    let mut out = Vec::new();
    for op in CALLS {
        let name = format!("cluster.{op}");
        m(
            &mut out,
            format!("cluster.call_us.{op}"),
            "us",
            call_us(&name),
        );
    }
    m(
        &mut out,
        "cluster.ingress_wait_us_per_op",
        "us",
        ratio(hist(fe, "cluster.shard.ingress.wait.us").1 as f64, ops),
    );
    m(
        &mut out,
        "cluster.route_retries",
        "count",
        c(fe, "cluster.route.retry.count"),
    );
    m(
        &mut out,
        "cluster.maintain_us",
        "us",
        call_us("cluster.maintain_replicas"),
    );
    m(
        &mut out,
        "cluster.journal_compactions",
        "count",
        c(fe, "cluster.journal.compact.count"),
    );
    m(
        &mut out,
        "cluster.journal_evicted",
        "count",
        c(fe, "cluster.journal.evicted.count"),
    );

    m(
        &mut out,
        "room.lock_hold_us_per_op",
        "us",
        ratio(hist(sh, "server.room.lock.hold.us").1 as f64, ops),
    );
    m(
        &mut out,
        "room.lock_wait_us_per_op",
        "us",
        ratio(hist(sh, "server.room.lock.wait.us").1 as f64, ops),
    );
    m(
        &mut out,
        "room.broadcast_us",
        "us",
        hist_mean(sh, "server.room.broadcast.us"),
    );
    m(
        &mut out,
        "room.encodes_per_event",
        "ratio",
        ratio(c(sh, "server.room.encode.count"), events),
    );
    m(
        &mut out,
        "room.denied",
        "count",
        c(sh, "server.room.denied.count"),
    );

    m(
        &mut out,
        "fanout.deliveries_per_event",
        "count",
        ratio(c(sh, "server.room.delivered.count"), events),
    );
    m(
        &mut out,
        "fanout.bytes_per_event",
        "bytes",
        ratio(c(sh, "server.room.delivered.bytes"), events),
    );
    m(
        &mut out,
        "fanout.drain_us_per_event",
        "us",
        ratio(r.drain_ns as f64 * k / 1e3, events),
    );
    m(
        &mut out,
        "fanout.slow_evictions",
        "count",
        c(sh, "server.room.evicted_slow.count"),
    );

    let join_us: Vec<f64> = r.join_ns.iter().map(|&ns| ns as f64 * k / 1e3).collect();
    m(&mut out, "resync.join_us", "us", mean(&join_us));
    m(
        &mut out,
        "resync.resync_us",
        "us",
        hist_mean(sh, "server.room.resync.us"),
    );
    m(
        &mut out,
        "resync.snapshots",
        "count",
        c(sh, "server.room.resync.snapshot.count"),
    );
    m(
        &mut out,
        "resync.replayed_events",
        "count",
        c(sh, "server.room.resync.replay.count"),
    );
    m(
        &mut out,
        "resync.snapshot_cache_hit_ratio",
        "ratio",
        share(
            "server.room.snapshot_cache.hit.count",
            "server.room.snapshot_cache.miss.count",
            sh,
        ),
    );

    m(
        &mut out,
        "core.reconfig_us",
        "us",
        hist_mean(g, "core.presentation.reconfig.us"),
    );
    m(
        &mut out,
        "core.reconfig_memo_hit_ratio",
        "ratio",
        share(
            "core.reconfig.memo.hit.count",
            "core.reconfig.memo.miss.count",
            g,
        ),
    );
    let (choose, chat) = (call_us("cluster.act.choose"), call_us("cluster.act.chat"));
    let gap = if choose > 0.0 && chat > 0.0 {
        choose - chat
    } else {
        0.0
    };
    m(&mut out, "core.choose_minus_chat_us", "us", gap);

    let commits = hist(g, "storage.txn.commit.us").0 as f64;
    m(&mut out, "storage.commits", "count", commits);
    m(
        &mut out,
        "storage.commit_us",
        "us",
        hist_mean(g, "storage.txn.commit.us"),
    );
    m(
        &mut out,
        "storage.wal_append_us",
        "us",
        hist_mean(g, "storage.wal.append.us"),
    );
    m(
        &mut out,
        "storage.commits_per_sync",
        "ratio",
        ratio(commits, hist(g, "storage.wal.sync.us").0 as f64),
    );
    m(
        &mut out,
        "storage.pool_hit_ratio",
        "ratio",
        share("storage.pool.hit.count", "storage.pool.miss.count", g),
    );
    m(
        &mut out,
        "storage.checkpoints",
        "count",
        p.snap.checkpoints as f64,
    );
    m(
        &mut out,
        "mediadb.image_reads",
        "count",
        c(g, "mediadb.image.data_read.count"),
    );

    m(
        &mut out,
        "delivery.server_us",
        "us",
        call_us("cluster.deliver_image"),
    );
    m(
        &mut out,
        "delivery.cache_hit_ratio",
        "ratio",
        share(
            "server.delivery.cache.hit.count",
            "server.delivery.cache.miss.count",
            sh,
        ),
    );
    m(
        &mut out,
        "delivery.cache_evictions",
        "count",
        c(sh, "server.delivery.cache.evict.count"),
    );
    m(
        &mut out,
        "delivery.invalidations",
        "count",
        c(sh, "server.delivery.cache.invalidate.count"),
    );
    m(
        &mut out,
        "delivery.avg_layers",
        "layers",
        hist_mean(sh, "server.delivery.depth.layers"),
    );
    m(
        &mut out,
        "delivery.served_bytes",
        "bytes",
        c(sh, "server.delivery.served.bytes"),
    );
    m(
        &mut out,
        "delivery.full_payload_fallbacks",
        "count",
        c(sh, "server.delivery.full_payload.count"),
    );

    m(
        &mut out,
        "codec.decode_us",
        "us",
        ratio(r.decode_ns as f64 * k / 1e3, r.decodes as f64),
    );
    m(
        &mut out,
        "codec.decode_layers",
        "layers",
        hist_mean(g, "codec.decode.layers"),
    );
    m(&mut out, "netsim.link_s", "s", mean(&r.link_s));

    let untraced = &run.phases[0];
    m(
        &mut out,
        "trace.overhead_pct",
        "%",
        100.0 * (p.cpu_s / untraced.cpu_s - 1.0),
    );
    m(&mut out, "host.scale", "ratio", k);
    m(&mut out, "trace.spans", "count", p.spans.len() as f64);
    for (k, v) in Fingerprint::of(p).0 {
        m(&mut out, format!("fingerprint.{k}"), "count", v as f64);
    }
    out
}

/// Checks over the program's own counters, per phase.
fn counter_checks(p: &Phase) -> Vec<String> {
    let sh = &p.snap.shards;
    let mut bad = Vec::new();
    let (logged, encoded) = (
        counter(sh, "server.room.logged.count"),
        counter(sh, "server.room.encode.count"),
    );
    if logged != encoded {
        bad.push(format!(
            "{encoded} encodes for {logged} events (must be one each)"
        ));
    }
    let evicted = counter(sh, "server.room.evicted_slow.count");
    if evicted != 0 {
        bad.push(format!("{evicted} slow-consumer evictions (must be 0)"));
    }
    let fallbacks = counter(sh, "server.delivery.full_payload.count");
    if fallbacks != 0 {
        bad.push(format!(
            "{fallbacks} full-payload fallbacks for layered CTs (must be 0)"
        ));
    }
    bad
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn print(run: &Run, traced: bool) {
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for p in &run.phases {
        attempted += p.rec.attempted;
        failed += p.rec.failed_ops + p.rec.failed_checks;
        failures.extend(p.rec.messages.iter().cloned());
        let bad = counter_checks(p);
        failed += bad.len() as u64;
        failures.extend(bad);
    }
    let fingerprints: Vec<String> = run
        .phases
        .iter()
        .map(|p| Fingerprint::of(p).text())
        .collect();
    if fingerprints.windows(2).any(|w| w[0] != w[1]) {
        failed += 1;
        failures.push("traced and untraced phases differ in their exact counts".to_string());
    }
    let correct = failed == 0;

    let e2e = end_to_end(run);
    println!(
        "confbench {} seed {}: {} ops attempted, {failed} failed",
        run.workload, run.seed, attempted
    );
    for msg in &failures {
        println!("  FAILED: {msg}");
    }
    println!("{:<34} {:>16} unit", "end-to-end", "value");
    for x in &e2e {
        println!("{:<34} {:>16.3} {}", x.name, x.value, x.unit);
    }
    let error_ratio = ratio(failed as f64, attempted as f64);
    println!("{:<34} {:>16.3} fraction", "error_ratio", error_ratio);
    println!("fingerprint {}", fingerprints[0]);
    println!(
        "host speed factor {:.4} (times are CPU time × this factor)",
        run.scale
    );

    let metrics = if traced {
        let layers = per_layer(run);
        println!("{:<34} {:>16} unit", "per-layer", "value");
        for x in &layers {
            println!("{:<34} {:>16.3} {}", x.name, x.value, x.unit);
        }
        let p = run.phases.last().expect("traced phase");
        let table = trace::layer_table(&p.spans);
        println!("self time by layer (spans around public calls):\n{table}");
        let dir = out_dir();
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            let stem = &run.workload;
            std::fs::write(
                dir.join(format!("spans-{stem}.jsonl")),
                trace::to_jsonl(&p.spans),
            )?;
            let mut summary = table;
            let _ = writeln!(summary, "fingerprint {}", fingerprints[0]);
            std::fs::write(dir.join(format!("layers-{stem}.txt")), summary)
        });
        if let Err(e) = written {
            println!("could not write spans: {e}");
        }
        layers
    } else {
        e2e
    };
    let mut json = BTreeMap::new();
    for x in &metrics {
        json.insert(
            x.name.clone(),
            format!("{{\"value\": {}, \"unit\": \"{}\"}}", x.value, x.unit),
        );
    }
    let body: Vec<String> = json.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
