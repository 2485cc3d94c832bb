//! confbench — the conference benchmark.
//!
//! Drives the public `ClusterFrontend` API (2 shards over an in-memory
//! media database) through one seeded, closed-loop op script per
//! workload and prints the user-visible metrics of four paths: a click
//! reaching every member, a late joiner catching up, a CT reaching a
//! client's link, and a save being acknowledged. See README.md.
//!
//! Usage: `confbench --workload <lecture|consult|ct_review> --seed <n>
//! --seconds <n> --trace <0|1>`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod calibrate;
mod clock;
mod consult;
mod ct_review;
mod fixture;
mod lecture;
mod measure;
mod report;
mod rng;
mod trace;

use measure::{Recorder, Snap};
use rcmo_server::ClusterFrontend;

/// Deployments built per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One workload: an op script made from the seed before anything is
/// timed, a set-up that builds the deployment, and a measured phase that
/// runs the whole script once, closed-loop, and checks the outputs.
pub trait Workload {
    type Script;

    fn script(seed: u64, seconds: u64) -> Self::Script;
    fn setup(script: &Self::Script) -> Self;
    fn measure(self, script: &Self::Script, trace: bool) -> Phase;
}

/// What one measured phase produced.
pub struct Phase {
    pub rec: Recorder,
    pub spans: Vec<trace::Span>,
    /// CPU seconds the phase took (see `clock`).
    pub cpu_s: f64,
    /// The program's own metrics over the phase (checks excluded).
    pub snap: Snap,
}

impl Phase {
    pub fn new(mut rec: Recorder, cpu_s: f64, snap: Snap) -> Phase {
        let spans = std::mem::take(&mut rec.tracer.spans);
        Phase {
            rec,
            spans,
            cpu_s,
            snap,
        }
    }
}

/// Replica upkeep, as the deployment runs it between client ops.
pub fn maintain(cluster: &ClusterFrontend, rec: &mut Recorder) {
    rec.tracer.next_op();
    rec.attempted += 1;
    rec.call("cluster.maintain_replicas", || cluster.maintain_replicas());
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: confbench --workload <lecture|consult|ct_review> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 600)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Builds `SETUPS` deployments and measures the last one (the last two
/// when traced: one untraced, one traced, to price the tracing).
fn run<W: Workload>(args: &Args) -> report::Run {
    let script = W::script(args.seed, args.seconds);
    let traced: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut phases = Vec::with_capacity(traced.len());
    for i in 0..SETUPS {
        let t0 = clock::now_ns();
        let deployment = W::setup(&script);
        setup_s.push((clock::now_ns() - t0) as f64 / 1e9);
        calibrate::tick();
        match (i + traced.len()).checked_sub(SETUPS) {
            Some(k) => phases.push(deployment.measure(&script, traced[k])),
            None => drop(deployment),
        }
    }
    report::Run {
        workload: args.workload.clone(),
        seed: args.seed,
        scale: calibrate::scale(),
        setup_s,
        phases,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("confbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "lecture" => run::<lecture::Lecture>(&args),
        "consult" => run::<consult::Consult>(&args),
        "ct_review" => run::<ct_review::CtReview>(&args),
        other => {
            eprintln!("confbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    report::print(&run, args.trace);
}
