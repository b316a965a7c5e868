//! Load generators: an open loop (Poisson arrivals through the wire
//! format), a closed loop (a fixed window of waiting callers) and an
//! offline job in waves. Both time each request until the benchmark
//! holds its reply and check every reply bit for bit against the
//! reference.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shenjing_core::Result as CoreResult;
use shenjing_runtime::{wire, EngineKind, InferenceReply, InferenceRequest, PendingReply, Runtime};

use crate::measure::{cpu_time, median, ms, us};
use crate::tenant::{matches, output_spikes, Tenant, MODEL_ID};

/// One correct reply, as the benchmark saw it.
pub struct Record {
    /// When the benchmark held the reply.
    pub held: Instant,
    /// Due (open loop) or sent (closed loop) until the reply was held.
    pub latency: Duration,
    pub queue_wait: Duration,
    /// The runtime's enqueue→reply time minus its queue wait.
    pub service: Duration,
    pub batch_size: usize,
    pub sequential: bool,
    pub out_spikes: u64,
}

/// What every load generator drives: the runtime, the tenant whose
/// frames it sends, the seed of its choices, and whether the traced
/// timers are on.
#[derive(Clone, Copy)]
pub struct Load<'a> {
    pub runtime: &'a Runtime,
    pub tenant: &'a Tenant,
    pub seed: u64,
    pub traced: bool,
}

/// What one measured phase produced.
#[derive(Default)]
pub struct Phase {
    /// Requests sent in the phase, warm-up included.
    pub attempted: u64,
    /// Rejected, failed or output-mismatched requests among them.
    pub failed: u64,
    /// Correct replies inside the measured window.
    pub records: Vec<Record>,
    /// Correct frames per wall second in the measured window.
    pub frames_per_s: f64,
    /// Process CPU time per correct frame in the measured window (ms).
    pub cpu_ms_per_frame: f64,
    /// Open loop: how late the generator sent each request (ms). Closed
    /// loop and waves: the turnaround from holding a reply to sending the
    /// request that replaces it (ms).
    pub lag_ms: Vec<f64>,
    /// Traced only: request encode + decode time (µs).
    pub wire_us: Vec<f64>,
    /// Traced only: `Runtime::submit` call time (µs).
    pub submit_us: Vec<f64>,
}

fn tally(
    tenant: &Tenant,
    idx: usize,
    result: CoreResult<InferenceReply>,
    start: Instant,
    held: Instant,
) -> std::result::Result<Record, String> {
    let reply = result.map_err(|e| format!("request failed: {e}"))?;
    if !matches(&tenant.reference[idx], &reply.output) {
        return Err(format!("frame {idx}: served output differs from the abstract SNN"));
    }
    Ok(Record {
        held,
        latency: held - start,
        queue_wait: reply.queue_wait,
        service: reply.latency.saturating_sub(reply.queue_wait),
        batch_size: reply.batch_size,
        sequential: reply.engine == EngineKind::Sequential,
        out_spikes: output_spikes(&reply.output),
    })
}

fn note_failure(failed: &mut u64, message: &str) {
    if *failed < 5 {
        eprintln!("servebench: {message}");
    }
    *failed += 1;
}

/// Sorted arrival offsets of `n` Poisson arrivals conditioned on landing
/// in `[from, to)` seconds: uniform points, sorted.
fn arrivals(rng: &mut StdRng, n: usize, from: f64, to: f64) -> Vec<f64> {
    let mut at: Vec<f64> = (0..n).map(|_| rng.gen_range(from..to)).collect();
    at.sort_by(f64::total_cmp);
    at
}

struct Job {
    idx: usize,
    due: Instant,
    measured: bool,
    pending: PendingReply,
}

/// Open loop at `rate` requests/s: `warm` unmeasured arrivals, then
/// `measured` arrivals whose latency counts. Every request crosses the
/// wire format before submission; latency runs from the request's due
/// time, so a stalled generator shows up as latency, and its lateness is
/// reported separately.
pub fn open_loop(load: Load<'_>, rate: f64, warm: usize, measured: usize) -> Phase {
    let Load { runtime, tenant, seed, traced } = load;
    let mut rng = StdRng::seed_from_u64(seed);
    let warm_s = warm as f64 / rate;
    let mut schedule = arrivals(&mut rng, warm, 0.0, warm_s);
    schedule.extend(arrivals(&mut rng, measured, warm_s, warm_s + measured as f64 / rate));
    let frames: Vec<usize> =
        schedule.iter().map(|_| rng.gen_range(0..tenant.frames.len())).collect();

    let mut phase = Phase::default();
    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Mutex::new(rx);
    let collected = std::thread::scope(|scope| {
        let collectors: Vec<_> = (0..16)
            .map(|_| {
                let rx = &rx;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let job = match rx.lock().expect("no collector panics holding it").recv() {
                            Ok(job) => job,
                            Err(_) => break,
                        };
                        let result = job.pending.wait();
                        let done = Instant::now();
                        let verdict = tally(tenant, job.idx, result, job.due, done);
                        out.push((job.measured, done, verdict));
                    }
                    out
                })
            })
            .collect();

        let start = Instant::now() + Duration::from_millis(5);
        let window_start = start + Duration::from_secs_f64(warm_s);
        let mut first_measured = None;
        for (k, (&offset, &idx)) in schedule.iter().zip(&frames).enumerate() {
            let due = start + Duration::from_secs_f64(offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let measured = k >= warm;
            if measured && first_measured.is_none() {
                first_measured = Some((window_start, cpu_time().unwrap_or_default()));
            }
            let sent = Instant::now();
            if measured {
                phase.lag_ms.push(ms(sent - due));
            }
            let request = InferenceRequest::new(MODEL_ID, tenant.frames[idx].clone());
            let decoded =
                wire::encode_request(&request).and_then(|json| wire::decode_request(&json));
            phase.attempted += 1;
            let submitted = if traced && measured {
                let wired = Instant::now();
                let submitted = decoded.and_then(|r| runtime.submit(r));
                phase.wire_us.push(us(wired - sent));
                phase.submit_us.push(us(wired.elapsed()));
                submitted
            } else {
                decoded.and_then(|r| runtime.submit(r))
            };
            match submitted {
                Ok(pending) => tx
                    .send(Job { idx, due, measured, pending })
                    .expect("collectors outlive the generator"),
                Err(e) => note_failure(&mut phase.failed, &format!("submit failed: {e}")),
            }
        }
        drop(tx);
        let collected: Vec<_> =
            collectors.into_iter().flat_map(|c| c.join().expect("collector panicked")).collect();
        (first_measured, collected)
    });
    let (first_measured, collected) = collected;
    let cpu_end = cpu_time().unwrap_or_default();
    let mut last_done = None::<Instant>;
    for (measured, done, verdict) in collected {
        match verdict {
            Ok(record) if measured => {
                last_done = Some(last_done.map_or(done, |l| l.max(done)));
                phase.records.push(record);
            }
            Ok(_) => {}
            Err(message) => note_failure(&mut phase.failed, &message),
        }
    }
    if let (Some((from, cpu_from)), Some(to)) = (first_measured, last_done) {
        let frames = phase.records.len() as f64;
        phase.frames_per_s = frames / to.saturating_duration_since(from).as_secs_f64();
        phase.cpu_ms_per_frame = ms(cpu_end.saturating_sub(cpu_from)) / frames;
    }
    phase
}

/// Slice length of a free-running closed loop's measured window.
const SLICE: Duration = Duration::from_secs(1);

/// Medians over the measured window's slices: (correct frames per wall
/// second, CPU ms per correct frame). A rare slow slice (a host hiccup,
/// or the dispatch policy's periodic engine probe on a ~1 s CNN pass)
/// does not move them.
fn slice_medians(slices: &[(f64, Duration, Duration)]) -> (f64, f64) {
    let rates: Vec<f64> =
        slices.iter().map(|&(frames, wall, _)| frames / wall.as_secs_f64()).collect();
    let cpu: Vec<f64> = slices
        .iter()
        .filter(|&&(frames, ..)| frames > 0.0)
        .map(|&(frames, _, cpu)| ms(cpu) / frames)
        .collect();
    (median(&rates).unwrap_or_default(), median(&cpu).unwrap_or_default())
}

/// Closed loop: `window` callers, each sending a request and waiting for
/// its reply before sending the next. After `warm`, the next `measure`
/// is cut into slices of `SLICE`. Each correct request counts in a slice
/// by the share of its send-to-reply time inside it, so whole batches
/// straddling a slice edge do not quantize the slice's throughput.
pub fn closed_loop(load: Load<'_>, window: usize, warm: Duration, measure: Duration) -> Phase {
    let Load { runtime, tenant, seed, traced } = load;
    struct Sent {
        sent: Instant,
        done: Instant,
        /// Time since this caller held its previous reply.
        turnaround: Option<Duration>,
        submit: Duration,
        verdict: std::result::Result<Record, String>,
    }

    let stop = AtomicBool::new(false);
    let (chains, ticks) = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..window)
            .map(|c| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut rng =
                        StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x2545_F491));
                    let mut out = Vec::new();
                    let mut previous: Option<Instant> = None;
                    while !stop.load(Ordering::Relaxed) {
                        let idx = rng.gen_range(0..tenant.frames.len());
                        let request = InferenceRequest::new(MODEL_ID, tenant.frames[idx].clone());
                        let sent = Instant::now();
                        let submitted = runtime.submit(request);
                        let submit = if traced { sent.elapsed() } else { Duration::ZERO };
                        let result = submitted.and_then(PendingReply::wait);
                        let done = Instant::now();
                        out.push(Sent {
                            sent,
                            done,
                            turnaround: previous.map(|p| sent - p),
                            submit,
                            verdict: tally(tenant, idx, result, sent, done),
                        });
                        previous = Some(done);
                    }
                    out
                })
            })
            .collect();
        std::thread::sleep(warm);
        let from = Instant::now();
        let mut ticks = vec![(from, cpu_time().unwrap_or_default())];
        for k in 1..=(measure.as_secs_f64() / SLICE.as_secs_f64()).ceil().max(1.0) as u32 {
            if let Some(wait) = (from + SLICE * k).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            ticks.push((Instant::now(), cpu_time().unwrap_or_default()));
        }
        stop.store(true, Ordering::Relaxed);
        let chains: Vec<Vec<Sent>> =
            callers.into_iter().map(|c| c.join().expect("caller panicked")).collect();
        (chains, ticks)
    });

    let mut phase = Phase::default();
    let (from, to) = (ticks[0].0, ticks[ticks.len() - 1].0);
    let mut frames = vec![0.0; ticks.len() - 1];
    for o in chains.into_iter().flatten() {
        phase.attempted += 1;
        let record = match o.verdict {
            Ok(record) => record,
            Err(message) => {
                note_failure(&mut phase.failed, &message);
                continue;
            }
        };
        let span = (o.done - o.sent).as_secs_f64().max(1e-9);
        for (i, t) in ticks.windows(2).enumerate() {
            let overlap = o.done.min(t[1].0).saturating_duration_since(o.sent.max(t[0].0));
            frames[i] += overlap.as_secs_f64() / span;
        }
        if o.done >= from && o.done < to {
            if let Some(t) = o.turnaround {
                phase.lag_ms.push(ms(t));
            }
            if traced {
                phase.submit_us.push(us(o.submit));
            }
            phase.records.push(record);
        }
    }
    let slices: Vec<_> = ticks
        .windows(2)
        .zip(frames)
        .map(|(t, n)| (n, t[1].0 - t[0].0, t[1].1.saturating_sub(t[0].1)))
        .collect();
    (phase.frames_per_s, phase.cpu_ms_per_frame) = slice_medians(&slices);
    phase
}

/// A request of a wave in flight.
struct InFlight {
    idx: usize,
    sent: Instant,
    /// Time since the reply this request replaces was held.
    turnaround: Option<Duration>,
    /// Traced only: the `Runtime::submit` call time.
    submit: Duration,
    pending: CoreResult<PendingReply>,
}

/// An offline job in waves, from one thread: `wave` requests are sent at
/// once, and the next wave goes out when the whole wave is back. The
/// measured window opens at the first wave end after `warm` and closes
/// at the first wave end `measure` after that; each wave is one slice.
pub fn waves(load: Load<'_>, wave: usize, warm: Duration, measure: Duration) -> Phase {
    let Load { runtime, tenant, seed, traced } = load;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut send = |replaces: Option<Instant>| {
        let idx = rng.gen_range(0..tenant.frames.len());
        let request = InferenceRequest::new(MODEL_ID, tenant.frames[idx].clone());
        let sent = Instant::now();
        let pending = runtime.submit(request);
        let submit = if traced { sent.elapsed() } else { Duration::ZERO };
        InFlight { idx, sent, turnaround: replaces.map(|h| sent - h), submit, pending }
    };

    let mut phase = Phase::default();
    let open_at = Instant::now() + warm;
    let mut held: Vec<Option<Instant>> = vec![None; wave];
    let mut slices = Vec::new();
    // Start of the measured window, and of the current wave (with the
    // CPU time then), once the window is open.
    let mut window: Option<(Instant, Instant, Duration)> = None;
    loop {
        let in_flight: Vec<InFlight> = held.iter().map(|&h| send(h)).collect();
        let mut frames = 0.0;
        for (f, slot) in in_flight.into_iter().zip(&mut held) {
            let result = f.pending.and_then(PendingReply::wait);
            let done = Instant::now();
            *slot = Some(done);
            phase.attempted += 1;
            match tally(tenant, f.idx, result, f.sent, done) {
                Ok(record) if window.is_some() => {
                    frames += 1.0;
                    if let Some(t) = f.turnaround {
                        phase.lag_ms.push(ms(t));
                    }
                    if traced {
                        phase.submit_us.push(us(f.submit));
                    }
                    phase.records.push(record);
                }
                Ok(_) => {}
                Err(message) => note_failure(&mut phase.failed, &message),
            }
        }
        let (end, cpu) = (Instant::now(), cpu_time().unwrap_or_default());
        match window {
            None if end >= open_at => window = Some((end, end, cpu)),
            None => {}
            Some((from, start, cpu_start)) => {
                slices.push((frames, end - start, cpu.saturating_sub(cpu_start)));
                if end - from >= measure {
                    break;
                }
                window = Some((from, end, cpu));
            }
        }
    }
    (phase.frames_per_s, phase.cpu_ms_per_frame) = slice_medians(&slices);
    phase
}
