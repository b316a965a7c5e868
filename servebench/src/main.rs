//! Serving benchmark for the Shenjing reproduction: one workload per
//! process, through the real compile → serve → wire path, with every
//! reply checked bit for bit against the abstract SNN.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! servebench --workload <name> --seed <n> --setup-probe
//! ```
//!
//! The last line of standard output is one JSON object. With `--trace 0`
//! it carries the end-to-end metrics, with `--trace 1` the per-layer
//! ones; `--setup-probe` prints only one cold set-up time. `run.py`
//! builds this binary, pins the environment and merges set-up probes;
//! see README.md.

mod layers;
mod load;
mod measure;
mod tenant;

use std::time::{Duration, Instant};

use shenjing_runtime::{CompiledModel, RuntimeStats};

use load::{Load, Phase};
use measure::{median, ms, percentile, rss_peak_mib, sliced_percentile};
use tenant::{Arrival, Tenant, Workload};

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|(n, ..)| n != name);
        self.0.push((name.to_string(), value, unit));
    }

    #[cfg(test)]
    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|&(_, v, _)| v)
    }

    fn to_json(&self) -> BenchResult<String> {
        let mut fields = Vec::new();
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}").into());
            }
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> BenchResult<Args> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    tenant::workload(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if setup_probe { 0.0 } else { seconds.ok_or("--seconds is required")? },
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

/// Drives one measured phase of `workload`'s traffic. `first` phases
/// warm up longer (the dispatch policy and caches settle).
fn drive(workload: &Workload, load: Load<'_>, seconds: f64, first: bool) -> Phase {
    let warm_s = if first { 1.0 } else { 0.25 };
    let (warm, window) = (Duration::from_secs_f64(warm_s), Duration::from_secs_f64(seconds));
    match workload.arrival {
        Arrival::Open { rate } => load::open_loop(
            load,
            rate,
            (rate * warm_s).round() as usize,
            (rate * seconds).round() as usize,
        ),
        Arrival::Closed { window: callers } => load::closed_loop(load, callers, warm, window),
        Arrival::Waves { wave } => load::waves(load, wave, warm, window),
    }
}

/// The steady-phase end-to-end figures of one phase.
struct Steady {
    p50_ms: f64,
    p99_ms: f64,
    frames_per_s: f64,
    cpu_ms_per_frame: f64,
}

/// Stretch of the window over which one p99 is taken (see `steady`).
const P99_SLICE: Duration = Duration::from_secs(10);

/// `p99_ms` is the median of the window's 10 s stretches' p99s: a burst
/// of host stalls inside one stretch (a dozen frames taking 2-3 times
/// their time) set a pooled p99 in some runs and not others.
fn steady(phase: &Phase) -> BenchResult<Steady> {
    let latencies: Vec<f64> = phase.records.iter().map(|r| ms(r.latency)).collect();
    if latencies.is_empty() || phase.frames_per_s <= 0.0 {
        return Err("no correct reply in the measured window".into());
    }
    let timed: Vec<_> = phase.records.iter().map(|r| (r.held, ms(r.latency))).collect();
    Ok(Steady {
        p50_ms: median(&latencies).unwrap_or_default(),
        p99_ms: sliced_percentile(&timed, 0.99, P99_SLICE).unwrap_or_default(),
        frames_per_s: phase.frames_per_s,
        cpu_ms_per_frame: phase.cpu_ms_per_frame,
    })
}

/// Outcome of a run: the JSON's `correct`, `attempted`, `failed`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    served_out_spikes: u64,
}

impl Tally {
    fn add(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.served_out_spikes += phase.records.iter().map(|r| r.out_spikes).sum::<u64>();
    }

    fn correct(&self) -> bool {
        if self.served_out_spikes == 0 {
            eprintln!("servebench: vacuous run, served outputs carry no output spike");
        }
        self.failed == 0 && self.attempted > 0 && self.served_out_spikes > 0
    }
}

fn rejected(stats: &RuntimeStats) -> u64 {
    stats.rejected_queue_full
        + stats.rejected_deadline
        + stats.expired_in_queue
        + stats.rejected_unknown_model
}

/// `--trace 0`: one cold set-up, then the untraced steady phase.
fn run_end_to_end(args: &Args, tenant: &Tenant, m: &mut Metrics) -> BenchResult<Tally> {
    let w = &args.workload;
    let (runtime, setup) = tenant::deploy(w, &tenant.snn)?;
    let load =
        Load { runtime: &runtime, tenant, seed: tenant::stream(args.seed, 3), traced: false };
    let phase = drive(w, load, args.seconds, true);
    runtime.shutdown()?;
    let s = steady(&phase)?;
    m.put("setup_s", setup.as_secs_f64(), "s");
    m.put("rss_peak_mib", rss_peak_mib().ok_or("VmHWM unreadable")?, "MiB");
    m.put("p50_ms", s.p50_ms, "ms");
    m.put("p99_ms", s.p99_ms, "ms");
    m.put("frames_per_s", s.frames_per_s, "1/s");
    m.put("cpu_ms_per_frame", s.cpu_ms_per_frame, "ms");
    let mut tally = Tally::default();
    tally.add(&phase);
    Ok(tally)
}

/// The traced run's direct calls into each layer, before any serving:
/// stage-by-stage compile, engine probes (outputs checked into `tally`)
/// and the wire codec. Returns the compiled model and the direct wire
/// round-trip times (µs).
fn probe_layers(
    w: &Workload,
    tenant: &Tenant,
    m: &mut Metrics,
    tally: &mut Tally,
) -> BenchResult<(CompiledModel, Vec<f64>)> {
    let (model, stages) = layers::compile_stages(tenant, m)?;
    let (checked, mismatched) = layers::engine_probes(tenant, w.model, &model, m)?;
    drop(stages);
    tally.attempted += checked;
    tally.failed += mismatched;
    let (wire_bytes, wire_us) = layers::wire_probe(tenant)?;
    m.put("runtime.wire_bytes", wire_bytes, "bytes");
    m.put("snn.spikes_per_frame", tenant.spikes_per_frame, "count");
    m.put("snn.layers_firing_frac", tenant.layers_firing_frac, "ratio");
    Ok((model, wire_us))
}

/// `--trace 1`: direct layer probes, then half the time untraced and
/// half traced on the same runtime.
fn run_traced(args: &Args, tenant: &Tenant, m: &mut Metrics) -> BenchResult<Tally> {
    let w = &args.workload;
    let mut tally = Tally::default();
    let (model, direct_wire_us) = probe_layers(w, tenant, m, &mut tally)?;

    let start = Instant::now();
    let runtime = tenant::serve(w, model)?;
    m.put("runtime.serve_ms", ms(start.elapsed()), "ms");
    let half = args.seconds / 2.0;
    let load =
        Load { runtime: &runtime, tenant, seed: tenant::stream(args.seed, 3), traced: false };
    let plain = drive(w, load, half, true);
    let load = Load { seed: tenant::stream(args.seed, 4), traced: true, ..load };
    let traced = drive(w, load, half, false);
    let stats = runtime.shutdown()?;
    tally.add(&plain);
    tally.add(&traced);

    let wire_us = if traced.wire_us.is_empty() { &direct_wire_us } else { &traced.wire_us };
    m.put("runtime.wire_us", median(wire_us).unwrap_or_default(), "us");
    m.put("runtime.submit_us", median(&traced.submit_us).unwrap_or_default(), "us");
    let queue: Vec<f64> = traced.records.iter().map(|r| ms(r.queue_wait)).collect();
    let service: Vec<f64> = traced.records.iter().map(|r| ms(r.service)).collect();
    m.put("runtime.queue_wait_p50_ms", median(&queue).unwrap_or_default(), "ms");
    m.put("runtime.queue_wait_p99_ms", percentile(&queue, 0.99).unwrap_or_default(), "ms");
    m.put("runtime.service_p50_ms", median(&service).unwrap_or_default(), "ms");
    // Each reply of an n-frame batch stands for 1/n of that batch.
    let batches: f64 = traced.records.iter().map(|r| 1.0 / r.batch_size as f64).sum();
    let frames = traced.records.len() as f64;
    m.put("runtime.lane_occupancy", frames / batches.max(1e-9) / w.max_batch as f64, "ratio");
    let sequential = traced.records.iter().filter(|r| r.sequential).count() as f64;
    m.put("runtime.seq_frac", sequential / frames.max(1.0), "ratio");
    m.put("runtime.retries", stats.retries as f64, "count");
    m.put("runtime.rejected", rejected(&stats) as f64, "count");
    m.put("loadgen.lag_p99_ms", percentile(&traced.lag_ms, 0.99).unwrap_or_default(), "ms");
    m.put("error_frac", tally.failed as f64 / tally.attempted.max(1) as f64, "ratio");

    // Tracing overhead: relative worsening of each steady end-to-end
    // figure, traced half against untraced half.
    let (u, t) = (steady(&plain)?, steady(&traced)?);
    m.put("trace.overhead_frac", t.cpu_ms_per_frame / u.cpu_ms_per_frame - 1.0, "ratio");
    m.put("trace.overhead_frac.p50_ms", t.p50_ms / u.p50_ms - 1.0, "ratio");
    m.put("trace.overhead_frac.p99_ms", t.p99_ms / u.p99_ms - 1.0, "ratio");
    m.put("trace.overhead_frac.frames_per_s", u.frames_per_s / t.frames_per_s - 1.0, "ratio");
    Ok(tally)
}

fn run() -> BenchResult<()> {
    let args = parse_args()?;
    let tenant = tenant::build(args.workload.model, args.seed)?;
    if args.setup_probe {
        let (runtime, setup) = tenant::deploy(&args.workload, &tenant.snn)?;
        runtime.shutdown()?;
        println!("{{\"setup_s\": {}}}", setup.as_secs_f64());
        return Ok(());
    }
    let mut m = Metrics::default();
    let tally = if args.trace {
        run_traced(&args, &tenant, &mut m)?
    } else {
        run_end_to_end(&args, &tenant, &mut m)?
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        m.to_json()?
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-layer metrics that are exact counts: for a given seed they must
    /// repeat exactly, run after run.
    const EXACT_COUNTS: [&str; 7] = [
        "mapper.cores",
        "mapper.chips",
        "sim.raw_cycles",
        "sim.compacted_cycles",
        "runtime.wire_bytes",
        "snn.spikes_per_frame",
        "sim.out_spikes_per_frame",
    ];

    fn exact_counts(workload: &str, seed: u64) -> Vec<(&'static str, f64)> {
        let w = tenant::workload(workload).expect("known workload");
        let tenant = tenant::build(w.model, seed).expect("non-vacuous tenant");
        let (mut m, mut tally) = (Metrics::default(), Tally::default());
        probe_layers(&w, &tenant, &mut m, &mut tally).expect("layer probes run");
        assert_eq!(tally.failed, 0, "engine outputs match the abstract SNN");
        EXACT_COUNTS.iter().map(|&n| (n, m.get(n).expect("count recorded"))).collect()
    }

    #[test]
    fn mlp_exact_counts_repeat_for_a_seed() {
        assert_eq!(exact_counts("mlp-serve", 5), exact_counts("mlp-serve", 5));
    }

    #[test]
    fn cnn_exact_counts_repeat_for_a_seed() {
        assert_eq!(exact_counts("cnn-offline", 5), exact_counts("cnn-offline", 5));
    }
}
