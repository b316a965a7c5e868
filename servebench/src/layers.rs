//! The traced run's per-layer probes: the benchmark times its own calls
//! into each layer's public functions (mapper stages, program decode and
//! optimize, replica instantiation, single engine passes, the wire
//! codec). Nothing here is traced inside the program.

use std::time::{Duration, Instant};

use shenjing_core::ArchSpec;
use shenjing_mapper::{compile, map_logical, place, Mapping, PlacementStrategy};
use shenjing_runtime::{wire, CompiledModel, InferenceRequest};
use shenjing_sim::{BatchSim, DecodedProgram};
use shenjing_snn::SnnOutput;

use crate::measure::{median, ms, rss_mib, us};
use crate::tenant::{matches, output_spikes, Model, Tenant, MODEL_ID, TIMESTEPS};
use crate::{BenchResult, Metrics};

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The stage outputs `compile_stages` produced on the way. The caller
/// holds them until the replica memory probes are done: freed, their
/// pages would be reused by the replicas and hide from `VmRSS`.
pub struct StageOutputs {
    _mapping: Mapping,
    _program: DecodedProgram,
}

/// Runs the compile pipeline stage by stage, recording stage times and
/// the exact structural counts, and returns the compiled artifact.
pub fn compile_stages(
    tenant: &Tenant,
    m: &mut Metrics,
) -> BenchResult<(CompiledModel, StageOutputs)> {
    let arch = ArchSpec::paper();
    let (logical, t) = timed(|| map_logical(&arch, &tenant.snn));
    let logical = logical?;
    m.put("mapper.map_logical_ms", ms(t), "ms");
    let (placement, t) = timed(|| place(&arch, &logical, PlacementStrategy::Greedy));
    let placement = placement?;
    m.put("mapper.place_ms", ms(t), "ms");
    let (program, t) = timed(|| compile(&arch, &tenant.snn, &logical, &placement));
    let program = program?;
    m.put("mapper.compile_ms", ms(t), "ms");
    m.put("mapper.cores", logical.total_cores() as f64, "count");
    m.put("mapper.chips", f64::from(placement.chips), "count");

    let (decoded, t) = timed(|| DecodedProgram::decode(&arch, &logical, &program));
    let decoded = decoded?;
    m.put("sim.decode_ms", ms(t), "ms");
    let (optimized, t) = timed(|| decoded.optimize());
    m.put("sim.optimize_ms", ms(t), "ms");
    m.put("sim.raw_cycles", optimized.block_cycles() as f64, "count");
    let compacted = optimized.compacted_cycles().ok_or("optimizer attached no schedule")?;
    m.put("sim.compacted_cycles", compacted as f64, "count");

    let mapping = Mapping { logical, placement, program };
    let model = CompiledModel::from_mapping(&arch, &mapping)?;
    Ok((model, StageOutputs { _mapping: mapping, _program: optimized }))
}

/// Calls per engine probe: whole passes are costly on the CNN.
fn probe_calls(model: Model) -> usize {
    match model {
        Model::Mlp => 24,
        Model::Cnn => 3,
    }
}

/// Width of the probed batched passes: the model's offline `max_batch`,
/// so both MLP workloads report the same engine figures (`mlp-serve`
/// serves unbatched).
fn probe_width(model: Model) -> usize {
    match model {
        Model::Mlp => 16,
        Model::Cnn => 4,
    }
}

/// Instantiates one replica of each engine cold, then times single
/// frames and full and quarter-width batched passes, checking every
/// output against the reference. A replica's memory is the `VmRSS` growth
/// from before its instantiation to after its first runs, since chip
/// state is touched lazily. Returns (frames checked, mismatches).
pub fn engine_probes(
    tenant: &Tenant,
    model_kind: Model,
    model: &CompiledModel,
    m: &mut Metrics,
) -> BenchResult<(u64, u64)> {
    let rss = || rss_mib().ok_or("VmRSS unreadable");
    let before = rss()?;
    let (single, t) = timed(|| model.instantiate());
    let mut single = single?;
    m.put("runtime.instantiate_ms", ms(t), "ms");
    let calls = probe_calls(model_kind);
    let mut checker = Checker { tenant, checked: 0, mismatched: 0 };
    let mut frame_ms = Vec::new();
    let mut spikes = 0u64;
    for i in 0..calls {
        let idx = i % tenant.frames.len();
        let (out, t) = timed(|| single.run_frame(&tenant.frames[idx], TIMESTEPS));
        frame_ms.push(ms(t));
        spikes += checker.check(idx, &out?);
    }
    m.put("sim.out_spikes_per_frame", spikes as f64 / calls as f64, "count");
    m.put("sim.frame_ms", median(&frame_ms).unwrap_or_default(), "ms");
    let after_single = rss()?;
    m.put("runtime.replica_mib", after_single - before, "MiB");

    let width = probe_width(model_kind);
    let (batched, t) = timed(|| model.instantiate_batched(width));
    let mut batched = batched?;
    m.put("runtime.instantiate_batched_ms", ms(t), "ms");
    let full = time_passes(&mut batched, width, calls, &mut checker)?;
    let quarter = time_passes(&mut batched, width / 4, calls, &mut checker)?;
    m.put("sim.pass_ms", full, "ms");
    m.put("sim.pass_frame_ms", full / width as f64, "ms");
    m.put("sim.partial_pass_ratio", quarter / full, "ratio");
    m.put("runtime.replica_batched_mib", rss()? - after_single, "MiB");
    Ok((checker.checked, checker.mismatched))
}

struct Checker<'a> {
    tenant: &'a Tenant,
    checked: u64,
    mismatched: u64,
}

impl Checker<'_> {
    /// Compares one engine output with the reference; returns its output
    /// spike count.
    fn check(&mut self, idx: usize, out: &SnnOutput) -> u64 {
        self.checked += 1;
        self.mismatched += u64::from(!matches(&self.tenant.reference[idx], out));
        output_spikes(out)
    }
}

/// Median time of `calls` `BatchSim::run_batch` passes of `width` frames.
fn time_passes(
    batched: &mut BatchSim,
    width: usize,
    calls: usize,
    checker: &mut Checker<'_>,
) -> BenchResult<f64> {
    let pool = checker.tenant.frames.len();
    let mut times = Vec::new();
    for c in 0..calls {
        let idx: Vec<usize> = (0..width).map(|j| (c * width + j) % pool).collect();
        let inputs: Vec<_> = idx.iter().map(|&i| checker.tenant.frames[i].clone()).collect();
        let (outs, t) = timed(|| batched.run_batch(&inputs, TIMESTEPS));
        times.push(ms(t));
        for (&i, out) in idx.iter().zip(&outs?) {
            checker.check(i, out);
        }
    }
    Ok(median(&times).unwrap_or_default())
}

/// Request wire size over the pool (exact), and the encode + decode time
/// of each pool frame called directly (for workloads without a wire hop).
pub fn wire_probe(tenant: &Tenant) -> BenchResult<(f64, Vec<f64>)> {
    let mut bytes = 0usize;
    let mut times = Vec::new();
    for frame in &tenant.frames {
        let request = InferenceRequest::new(MODEL_ID, frame.clone());
        let start = Instant::now();
        let json = wire::encode_request(&request)?;
        let back = wire::decode_request(&json)?;
        times.push(us(start.elapsed()));
        if back != request {
            return Err("wire round trip changed the request".into());
        }
        bytes += json.len();
    }
    Ok((bytes as f64 / tenant.frames.len() as f64, times))
}
