//! The workloads and the models they serve: both zoo tenants built the
//! paper's way (ANN from the zoo specs, converted with data-based
//! normalization on seeded calibration frames), plus the seeded input
//! pool and its abstract-SNN reference outputs.

use std::time::{Duration, Instant};

use shenjing_core::ArchSpec;
use shenjing_datasets::{SynthCifar, SynthDigits};
use shenjing_nn::{Network, NetworkKind, Tensor};
use shenjing_runtime::{CompiledModel, ModelRegistry, Runtime, RuntimeConfig, ServeOptions};
use shenjing_snn::{convert, ConversionOptions, SnnNetwork, SnnOutput};

use crate::BenchResult;

/// Spike-train length every frame is served at.
pub const TIMESTEPS: u32 = 8;
/// Worker shards, one per CPU of the reference box.
pub const WORKERS: usize = 2;
/// The id the tenant is registered under.
pub const MODEL_ID: &str = "tenant";
/// Initialization seed of the zoo ANN. Fixed: the workload seed drives
/// only the inputs (calibration set, served frames, arrival clock).
const ANN_SEED: u64 = 7;

/// Which zoo network a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Table III (a): the 10-core MNIST MLP.
    Mlp,
    /// Table III (c): the multi-chip CIFAR CNN.
    Cnn,
}

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Independent users: Poisson arrivals at a fixed rate (requests/s),
    /// sent on schedule whether or not earlier replies came back.
    Open { rate: f64 },
    /// Callers that each wait for their reply before sending the next
    /// request: `window` requests are outstanding at all times.
    Closed { window: usize },
    /// An offline job sending `wave` requests at once and waiting for
    /// all their replies before sending the next wave.
    Waves { wave: usize },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub model: Model,
    pub arrival: Arrival,
    pub max_batch: usize,
    /// Straggler window of an under-full batch.
    pub max_wait: Duration,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mlp-serve",
        model: Model::Mlp,
        // At 100 req/s the latency tail was multi-frame batches run one
        // frame after another, whose count and cost swung with the host:
        // p99 spread 19-27% over seeds. At 60 req/s the tail is a frame
        // queued behind one other.
        arrival: Arrival::Open { rate: 60.0 },
        // Unbatched, as a latency-critical deployment runs. With 16, the
        // `Auto` dispatch policy settled per run on one of two mixes of
        // engines for small batches (`runtime.seq_frac` 0.66 or 0.77),
        // and p50 read 14 or 18 ms and p99 25 or 45 ms with it.
        max_batch: 1,
        max_wait: Duration::from_millis(2),
    },
    Workload {
        name: "mlp-offline",
        model: Model::Mlp,
        arrival: Arrival::Closed { window: 64 },
        max_batch: 16,
        max_wait: Duration::from_millis(2),
    },
    Workload {
        name: "cnn-offline",
        model: Model::Cnn,
        // One full batch per worker per wave. With free-running callers
        // the latency would depend on how the two workers' ~1.5 s passes
        // happen to interleave, which drifts only a few times a run.
        arrival: Arrival::Waves { wave: 8 },
        max_batch: 4,
        // Long enough for the sender to submit all eight requests of a
        // wave even when preempted on a busy two-CPU host, so a wave
        // always forms two full batches.
        max_wait: Duration::from_millis(20),
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Derives an independent sub-seed for one input stream.
pub fn stream(seed: u64, tag: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

impl Model {
    fn kind(self) -> NetworkKind {
        match self {
            Model::Mlp => NetworkKind::MnistMlp,
            Model::Cnn => NetworkKind::CifarCnn,
        }
    }

    /// Data-based normalization keeps this fraction of the calibration
    /// maximum. At 8 timesteps the untrained CNN needs 0.3 for spikes to
    /// reach its output layer on every seed (0.5 leaves it silent on
    /// some).
    fn activation_fraction(self) -> f64 {
        match self {
            Model::Mlp => 1.0,
            Model::Cnn => 0.3,
        }
    }

    /// Calibration frames for data-based normalization. With 32, the
    /// per-layer maxima, and with them the spike activity per frame,
    /// swung by up to ±20% from seed to seed; with these counts activity
    /// stays within a few percent across seeds.
    fn calibration_size(self) -> usize {
        match self {
            Model::Mlp => 1024,
            Model::Cnn => 256,
        }
    }

    /// Distinct frames served (each has a precomputed reference output).
    fn pool_size(self) -> usize {
        match self {
            Model::Mlp => 128,
            Model::Cnn => 32,
        }
    }

    /// `n` synthetic frames of the tenant's input shape.
    fn images(self, seed: u64, n: usize) -> Vec<Tensor> {
        match self {
            Model::Mlp => {
                SynthDigits::new(seed).generate(n).into_iter().map(|(x, _)| x.flattened()).collect()
            }
            Model::Cnn => SynthCifar::new(seed).generate(n).into_iter().map(|(x, _)| x).collect(),
        }
    }
}

/// A converted model with its seeded input pool and reference outputs.
pub struct Tenant {
    pub snn: SnnNetwork,
    pub frames: Vec<Tensor>,
    /// `SnnNetwork::run` output for each pool frame.
    pub reference: Vec<SnnOutput>,
    /// Spikes emitted per frame over all layers in the reference pass.
    pub spikes_per_frame: f64,
    /// Per frame, the share of spiking layers that emit at least one
    /// spike, averaged over the pool.
    pub layers_firing_frac: f64,
}

/// Builds the tenant for `model` from the workload seed: calibration
/// frames and served frames come from separate seeded streams. Fails if
/// any spiking layer never fires over the pool (a vacuous model).
pub fn build(model: Model, seed: u64) -> BenchResult<Tenant> {
    let calibration = model.images(stream(seed, 1), model.calibration_size());
    let frames = model.images(stream(seed, 2), model.pool_size());
    let mut ann = Network::from_specs(&model.kind().specs(), ANN_SEED)?;
    let options = ConversionOptions { activation_fraction: model.activation_fraction() };
    let snn = convert(&mut ann, &calibration, &options)?;

    let mut oracle = snn.clone();
    let layers = oracle.layers().len();
    let mut reference = Vec::with_capacity(frames.len());
    let mut per_layer_total = vec![0u64; layers];
    let mut firing = 0usize;
    for frame in &frames {
        let before = oracle.activity().output_spikes_per_layer.clone();
        reference.push(oracle.run(frame, TIMESTEPS)?);
        let after = &oracle.activity().output_spikes_per_layer;
        for (l, (a, b)) in after.iter().zip(&before).enumerate() {
            per_layer_total[l] += a - b;
            firing += usize::from(a > b);
        }
    }
    if let Some(silent) = per_layer_total.iter().position(|&s| s == 0) {
        return Err(format!(
            "vacuous model: spiking layer {silent} of {layers} never fires over {} frames",
            frames.len()
        )
        .into());
    }
    let n = frames.len() as f64;
    Ok(Tenant {
        spikes_per_frame: per_layer_total.iter().sum::<u64>() as f64 / n,
        layers_firing_frac: firing as f64 / (n * layers as f64),
        snn,
        frames,
        reference,
    })
}

/// Whether a served output matches the reference bit for bit.
pub fn matches(reference: &SnnOutput, got: &SnnOutput) -> bool {
    got.spikes_by_step == reference.spikes_by_step && got.spike_counts == reference.spike_counts
}

/// Output-layer spikes of one frame.
pub fn output_spikes(out: &SnnOutput) -> u64 {
    out.spike_counts.iter().map(|&c| u64::from(c)).sum()
}

pub fn config(workload: &Workload) -> BenchResult<RuntimeConfig> {
    Ok(RuntimeConfig::builder()
        .workers(WORKERS)
        .max_batch(workload.max_batch)
        .max_wait(workload.max_wait)
        .timesteps(TIMESTEPS)
        .queue_depth(256)
        .build()?)
}

/// Starts serving `model` with every worker's replicas warm.
pub fn serve(workload: &Workload, model: CompiledModel) -> BenchResult<Runtime> {
    let registry = ModelRegistry::new().with_model(
        MODEL_ID,
        model,
        ServeOptions::default().with_warm_replicas(WORKERS),
    )?;
    Ok(Runtime::serve(registry, config(workload)?)?)
}

/// The set-up a deployment pays: compile on the paper's architecture,
/// then serve until the warm replicas are up. Returns the runtime and
/// the time it took.
pub fn deploy(workload: &Workload, snn: &SnnNetwork) -> BenchResult<(Runtime, Duration)> {
    let start = Instant::now();
    let model = CompiledModel::compile(&ArchSpec::paper(), snn)?;
    let runtime = serve(workload, model)?;
    Ok((runtime, start.elapsed()))
}
