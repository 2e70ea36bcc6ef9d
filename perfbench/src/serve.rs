//! `serve-mixed`: mixed traffic against `InferenceServer`.
//!
//! Requests go to two published checkpoints, the paper's two input sizes:
//! SQ-VAE on 32×32 ligands (p=16) and H-BQ-VAE on 8×8 molecules. The light
//! phase is open loop: one generator thread submits requests at Poisson
//! arrival times drawn from the seed, one collector thread waits for them
//! in submission order, and each request is timed from when it was due, so
//! a stall also charges the requests queued behind it. The capacity phase
//! is closed loop: a fixed number of requests stays outstanding, and the
//! rate of correct answers is the workload's throughput.

use crate::layers;
use crate::report::Report;
use crate::stats;
use crate::trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqvae::core::checkpoint;
use sqvae::core::{models, Autoencoder, TrainConfig, Trainer};
use sqvae::datasets::{pdbbind, qm9, Dataset};
use sqvae::nn::Matrix;
use sqvae::serve::{BatchEngine, InferenceServer, Op, Request, ServeError, ServerConfig};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load of the light phase: the server is mostly idle, so requests
/// rarely coalesce and per-call costs dominate.
pub const LIGHT_RPS: f64 = 150.0;
/// Requests kept outstanding in the closed-loop capacity phase: enough to
/// keep both workers busy and let same-key requests queue and coalesce.
pub const CLIENTS: usize = 16;
/// Window of the capacity phase's throughput median.
const WINDOW: Duration = Duration::from_secs(1);
/// Share of the run given to the open-loop light phase; the capacity phase
/// gets the rest.
const LIGHT_SHARE: f64 = 1.0 / 3.0;
/// SQ-VAE requests per chunk of the median of medians (about two seconds
/// of them at `LIGHT_RPS`).
const P50_CHUNK: usize = 150;
/// Latency limit for goodput: a request counts only when it completed
/// correctly within this many milliseconds of when it was due.
pub const LIMIT_MS: f64 = 50.0;
/// Unmeasured traffic before each phase, so every worker has loaded both
/// models and the allocator has settled.
const WARMUP: Duration = Duration::from_millis(1000);
/// Every this many requests, the served answer is compared bit for bit with
/// a direct call on the restored checkpoint.
const VERIFY_EVERY: usize = 8;
/// Latency percentile reported as the tail (as a note: its run-to-run
/// spread is too wide to bound, see README.md).
const TAIL: f64 = 0.99;

/// Model targets of the traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    SqVae32,
    HbqVae8,
}

/// Operation kinds of the traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sample,
    Reconstruct,
    Encode,
    Decode,
}

/// One scheduled request: when it is due (from the phase start) and what
/// it asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub target: Target,
    pub kind: Kind,
    pub rows: usize,
    pub payload_seed: u64,
}

/// Poisson arrivals at `rate` per second over `span`, with the op mix drawn
/// uniformly: either model, any of the four ops, 1–4 rows. The same seed
/// gives the same schedule.
pub fn schedule(rate: f64, span: Duration, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        let target = if rng.gen_range(0..2) == 0 {
            Target::SqVae32
        } else {
            Target::HbqVae8
        };
        let kind = match rng.gen_range(0..4) {
            0 => Kind::Sample,
            1 => Kind::Reconstruct,
            2 => Kind::Encode,
            _ => Kind::Decode,
        };
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            target,
            kind,
            rows: rng.gen_range(1..=4),
            payload_seed: rng.gen_range(0..u64::MAX),
        });
    }
}

/// A published model: its checkpoint and the data its inputs come from.
struct Published {
    path: String,
    data: Dataset,
    latent_dim: usize,
    output_dim: usize,
}

impl Published {
    fn op(&self, a: &Arrival) -> Op {
        let mut rng = StdRng::seed_from_u64(a.payload_seed);
        let data_rows = |rng: &mut StdRng| {
            let rows: Vec<&[f64]> = (0..a.rows)
                .map(|_| self.data.sample(rng.gen_range(0..self.data.len())))
                .collect();
            Matrix::from_rows(&rows).expect("equal-width rows")
        };
        match a.kind {
            Kind::Sample => Op::Sample {
                n: a.rows,
                seed: a.payload_seed,
            },
            Kind::Reconstruct => Op::Reconstruct(data_rows(&mut rng)),
            Kind::Encode => Op::Encode(data_rows(&mut rng)),
            Kind::Decode => Op::Decode(Matrix::from_fn(a.rows, self.latent_dim, |_, _| {
                rng.gen_range(-2.0..2.0)
            })),
        }
    }

    fn expected_shape(&self, a: &Arrival) -> (usize, usize) {
        match a.kind {
            Kind::Encode => (a.rows, self.latent_dim),
            _ => (a.rows, self.output_dim),
        }
    }
}

/// The direct in-process answer to `op` from a model restored from the
/// checkpoint the server loads.
fn direct(m: &mut Autoencoder, op: &Op) -> Result<Matrix, String> {
    let out = match op {
        Op::Encode(x) => {
            let _s = trace::span("core.autoencoder.encode");
            m.encode(x)
        }
        Op::Decode(z) => {
            let _s = trace::span("core.autoencoder.decode");
            m.decode(z)
        }
        Op::Reconstruct(x) => {
            let _s = trace::span("core.autoencoder.reconstruct");
            m.reconstruct(x)
        }
        Op::Sample { n, seed } => {
            let _s = trace::span("core.autoencoder.sample");
            m.sample(*n, &mut StdRng::seed_from_u64(*seed))
        }
    };
    out.map_err(|e| e.to_string())
}

/// Everything one set-up builds: the published models, a direct copy of
/// each restored from its checkpoint, and the server.
pub struct Setup {
    models: [Published; 2],
    direct: Vec<Autoencoder>,
    server: InferenceServer,
}

fn out_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Trains both models briefly (SQ-VAE for one batch with the trainer's
/// defaults, as `train-sqvae32` does), publishes them as checkpoints,
/// restores direct copies, starts a server with the default configuration
/// and sends one request of each kind to each model.
pub fn setup(seed: u64, generation: usize) -> Result<Setup, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let sq_data = {
        let _s = trace::span("datasets.generate");
        pdbbind::generate(&pdbbind::PdbbindConfig {
            n_samples: 64,
            seed,
        })
    };
    let hbq_data = {
        let _s = trace::span("datasets.generate");
        qm9::generate(&qm9::Qm9Config {
            n_samples: 64,
            seed,
        })
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let sq = models::sq_vae(1024, 16, models::SCALABLE_LAYERS, &mut rng);
    let hbq = models::h_bq_vae(64, models::BASELINE_LAYERS, &mut rng);
    let mut published = Vec::new();
    let mut directs = Vec::new();
    for (name, mut model, data, train_rows) in
        [("sqvae32", sq, sq_data, 32), ("hbqvae8", hbq, hbq_data, 64)]
    {
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 1,
            seed,
            ..TrainConfig::default()
        });
        trainer
            .train(&mut model, &data.take(train_rows), None)
            .map_err(|e| format!("training {name}: {e}"))?;
        let path = dir
            .join(format!("{name}-{}-{generation}.ckpt", std::process::id()))
            .to_string_lossy()
            .into_owned();
        {
            let _s = trace::span("checkpoint.save");
            checkpoint::save_model(&mut model, seed, &path)
                .map_err(|e| format!("saving {path}: {e}"))?;
        }
        let mut direct = {
            let _s = trace::span("checkpoint.load");
            checkpoint::load_model(&path).map_err(|e| format!("loading {path}: {e}"))?
        };
        let latent_dim = direct.latent_dim();
        published.push(Published {
            path,
            output_dim: data.width(),
            data,
            latent_dim,
        });
        directs.push(direct);
    }
    let models: [Published; 2] = published.try_into().map_err(|_| "two models".to_string())?;
    let server = InferenceServer::start(ServerConfig::default());
    for m in &models {
        for kind in [Kind::Sample, Kind::Reconstruct, Kind::Encode, Kind::Decode] {
            let a = Arrival {
                due: Duration::ZERO,
                target: Target::SqVae32,
                kind,
                rows: 1,
                payload_seed: 0,
            };
            server
                .request(Request::new(m.path.clone(), m.op(&a)))
                .map_err(|e| format!("warm-up request: {e}"))?;
        }
    }
    Ok(Setup {
        models,
        direct: directs,
        server,
    })
}

impl Setup {
    fn model(&self, t: Target) -> &Published {
        &self.models[t as usize]
    }

    /// Removes the checkpoint files (and their backups).
    fn remove_files(&self) {
        for m in &self.models {
            let _ = std::fs::remove_file(&m.path);
            let _ = std::fs::remove_file(checkpoint::backup_path(&m.path));
        }
    }

    /// Stops the server and removes the checkpoints.
    pub fn teardown(self) -> sqvae::serve::EngineStats {
        self.remove_files();
        self.server.shutdown()
    }
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub attempted: usize,
    pub failed: usize,
    /// Latency limit of a good answer.
    pub limit_ms: f64,
    /// Requests answered correctly within `limit_ms`.
    pub good: usize,
    pub latencies_ms: Vec<f64>,
    /// Latencies of the SQ-VAE requests alone.
    pub sq_latencies_ms: Vec<f64>,
    /// Wall time the phase covered.
    pub span: Duration,
    /// When each good answer arrived, from the phase start.
    pub good_at: Vec<Duration>,
    pub submit_us: Vec<f64>,
    pub wait_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub queue_full: usize,
    pub errors: Vec<String>,
    /// Every [`VERIFY_EVERY`]th answer as (request index, hash of its
    /// bits, arrival time if counted as good), for [`verify`]. Hashes rather than matrices
    /// keep memory flat however many requests a phase completes.
    kept: Vec<(usize, u64, Option<Duration>)>,
}

impl PhaseResult {
    fn submit_failed(&mut self, i: usize, e: ServeError) {
        if matches!(e, ServeError::QueueFull { .. }) {
            self.queue_full += 1;
        }
        self.failed += 1;
        self.errors.push(format!("request {i}: submit: {e}"));
    }

    /// Books one answer: its shape is checked, and every
    /// [`VERIFY_EVERY`]th is kept for [`verify`].
    fn answered(
        &mut self,
        i: usize,
        a: &Arrival,
        m: &Published,
        out: Result<Matrix, ServeError>,
        latency_ms: f64,
        at: Duration,
    ) {
        self.latencies_ms.push(latency_ms);
        if a.target == Target::SqVae32 {
            self.sq_latencies_ms.push(latency_ms);
        }
        match out {
            Ok(x) if x.shape() == m.expected_shape(a) => {
                let good = latency_ms <= self.limit_ms;
                if good {
                    self.good += 1;
                    self.good_at.push(at);
                }
                if i.is_multiple_of(VERIFY_EVERY) {
                    self.kept.push((i, bits_hash(&x), good.then_some(at)));
                }
            }
            Ok(x) => {
                self.failed += 1;
                self.errors
                    .push(format!("request {i}: shape {:?}", x.shape()));
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("request {i}: wait: {e}"));
            }
        }
    }
}

/// Served answers must equal a direct call on the restored checkpoint, bit
/// for bit. A mismatch fails the request and takes it out of `good`.
fn verify(setup: &mut Setup, arrivals: &[Arrival], res: &mut PhaseResult) {
    for (i, served, good) in std::mem::take(&mut res.kept) {
        let a = &arrivals[i % arrivals.len()];
        let op = setup.models[a.target as usize].op(a);
        let ok = match direct(&mut setup.direct[a.target as usize], &op) {
            Ok(direct) => bits_hash(&direct) == served,
            Err(_) => false,
        };
        if !ok {
            res.failed += 1;
            res.errors.push(format!("request {i}: served != direct"));
            if let Some(at) = good {
                res.good -= 1;
                if let Some(k) = res.good_at.iter().position(|&t| t == at) {
                    res.good_at.remove(k);
                }
            }
        }
    }
}

/// Runs `arrivals` open loop against the server and checks every answer.
pub fn run_phase(setup: &mut Setup, arrivals: &[Arrival]) -> PhaseResult {
    let mut res = PhaseResult {
        attempted: arrivals.len(),
        limit_ms: LIMIT_MS,
        ..PhaseResult::default()
    };
    type Sent = (usize, Result<u64, ServeError>, Instant);
    let (tx, rx) = mpsc::channel::<Sent>();
    let server = &setup.server;
    let start = Instant::now() + Duration::from_millis(5);
    let mut submit_us = Vec::with_capacity(arrivals.len());
    let mut late_ms = Vec::with_capacity(arrivals.len());
    let models = &setup.models;
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            for (i, a) in arrivals.iter().enumerate() {
                let m = &models[a.target as usize];
                let op = m.op(a);
                let due = start + a.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t0 = Instant::now();
                let sent = {
                    let _s = trace::span_req("serve.submit", i as u64);
                    server.submit(Request::new(m.path.clone(), op))
                };
                submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                late_ms.push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
                if tx.send((i, sent, due)).is_err() {
                    break;
                }
            }
            drop(tx);
        });
        for (i, sent, due) in rx {
            let a = &arrivals[i];
            let id = match sent {
                Ok(id) => id,
                Err(e) => {
                    res.submit_failed(i, e);
                    continue;
                }
            };
            let t0 = Instant::now();
            let out = {
                let _s = trace::span_req("serve.wait", i as u64);
                server.wait(id)
            };
            let done = Instant::now();
            res.wait_ms.push((done - t0).as_secs_f64() * 1e3);
            let latency_ms = done.saturating_duration_since(due).as_secs_f64() * 1e3;
            res.answered(
                i,
                a,
                &models[a.target as usize],
                out,
                latency_ms,
                done - start,
            );
        }
        generator.join().expect("generator thread");
    });
    res.span = arrivals.last().map_or(Duration::ZERO, |a| a.due);
    res.submit_us = submit_us;
    res.late_ms = late_ms;
    verify(setup, arrivals, &mut res);
    res
}

/// Runs the request mix of `arrivals` (their due times ignored, cycling
/// through them) closed loop with [`CLIENTS`] requests outstanding, until
/// `span` has passed, and checks every answer.
pub fn run_closed(setup: &mut Setup, arrivals: &[Arrival], span: Duration) -> PhaseResult {
    let mut res = PhaseResult {
        limit_ms: f64::INFINITY,
        ..PhaseResult::default()
    };
    let server = &setup.server;
    let models = &setup.models;
    let mut inflight: std::collections::VecDeque<(usize, u64, Instant)> =
        std::collections::VecDeque::new();
    let start = Instant::now();
    let mut next = 0;
    loop {
        let open = start.elapsed() < span;
        while open && inflight.len() < CLIENTS {
            let (i, a) = (next, &arrivals[next % arrivals.len()]);
            next += 1;
            res.attempted += 1;
            let m = &models[a.target as usize];
            let op = m.op(a);
            let t0 = Instant::now();
            let sent = {
                let _s = trace::span_req("serve.submit", i as u64);
                server.submit(Request::new(m.path.clone(), op))
            };
            res.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            match sent {
                Ok(id) => inflight.push_back((i, id, t0)),
                Err(e) => res.submit_failed(i, e),
            }
        }
        let Some((i, id, t0)) = inflight.pop_front() else {
            break;
        };
        let w = Instant::now();
        let out = {
            let _s = trace::span_req("serve.wait", i as u64);
            server.wait(id)
        };
        let done = Instant::now();
        res.wait_ms.push((done - w).as_secs_f64() * 1e3);
        let a = &arrivals[i % arrivals.len()];
        let latency_ms = (done - t0).as_secs_f64() * 1e3;
        res.answered(
            i,
            a,
            &models[a.target as usize],
            out,
            latency_ms,
            done - start,
        );
    }
    res.span = start.elapsed();
    verify(setup, arrivals, &mut res);
    res
}

/// FNV-1a over the shape and the bit patterns of every entry.
fn bits_hash(m: &Matrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let shape = [m.rows() as u64, m.cols() as u64];
    for v in shape
        .into_iter()
        .chain(m.as_slice().iter().map(|v| v.to_bits()))
    {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Replays `arrivals` through a standalone `BatchEngine`, `window` requests
/// at a time, with one span per coalesced batch.
fn engine_replay(setup: &Setup, arrivals: &[Arrival], window: usize) -> Result<(), String> {
    let mut engine = BatchEngine::new(ServerConfig::default().max_batch_rows);
    for m in &setup.models {
        engine.warm_up(&m.path).map_err(|e| e.to_string())?;
    }
    for chunk in arrivals.chunks(window) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|a| {
                let m = setup.model(a.target);
                engine.submit(Request::new(m.path.clone(), m.op(a)))
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        while engine.pending() > 0 {
            let _s = trace::span("serve.engine.batch");
            engine.process_next_batch();
        }
        for t in tickets {
            engine
                .take_result(t)
                .ok_or("engine lost a ticket")?
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Good answers per second: the median over consecutive [`WINDOW`]s of
/// the phase (the last, partial one dropped) of the answers each window
/// received, for the same reason the other workloads report a median of
/// chunk medians (see `stats::median_of_medians`).
fn windowed_rate(r: &PhaseResult) -> f64 {
    let windows = (r.span.as_secs_f64() / WINDOW.as_secs_f64()).floor() as usize;
    let mut counts = vec![0.0; windows];
    for t in &r.good_at {
        let w = (t.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if let Some(c) = counts.get_mut(w) {
            *c += 1.0;
        }
    }
    stats::median(&counts).map_or(f64::NAN, |c| c / WINDOW.as_secs_f64())
}

/// Runs `serve-mixed`: the open-loop light phase for the first third of
/// `seconds`, then the closed-loop capacity phase, and fills `report`.
pub fn run(report: &mut Report, seed: u64, seconds: f64, traced: bool) {
    let mut setups = Vec::new();
    let mut setup_s = Vec::new();
    for generation in 0..crate::SETUP_REPEATS {
        let t = Instant::now();
        match setup(seed, generation) {
            Ok(s) => setups.push(s),
            Err(e) => {
                report.error(format!("setup: {e}"));
                return;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut s = setups.pop().expect("at least one set-up");
    for old in setups {
        old.teardown();
    }
    trace::set_enabled(false);
    report.note("server_workers", s.server.workers());
    let warm = run_phase(&mut s, &schedule(LIGHT_RPS, WARMUP, seed ^ 0x5eed));
    if warm.failed > 0 {
        report.error(format!("warm-up: {:?}", warm.errors.first()));
    }
    let light_span = seconds * LIGHT_SHARE;
    let capacity_span = seconds - light_span;
    let light_arrivals = schedule(LIGHT_RPS, Duration::from_secs_f64(light_span), seed);
    // The capacity phase cycles through this mix; only the ops are used,
    // not the due times.
    let mix = schedule(1000.0, Duration::from_secs(4), seed.wrapping_add(1));
    let mut phases = Vec::new();
    let light = run_phase(&mut s, &light_arrivals);
    let (capacity, traced_capacity) = if traced {
        let half = Duration::from_secs_f64(capacity_span / 2.0);
        let (a, b) = mix.split_at(mix.len() / 2);
        let untraced = run_closed(&mut s, a, half);
        trace::set_enabled(true);
        let traced = run_closed(&mut s, b, half);
        trace::set_enabled(false);
        (untraced, Some(traced))
    } else {
        (
            run_closed(&mut s, &mix, Duration::from_secs_f64(capacity_span)),
            None,
        )
    };
    let throughput = windowed_rate(&capacity);
    report.e2e("throughput_per_s", throughput, "1/s");
    report.e2e("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN), "s");
    report.note("limit_ms", LIMIT_MS);
    report.note("light_offered_rps", LIGHT_RPS);
    report.note("capacity_clients", CLIENTS);
    for (name, r) in [("light", &light), ("capacity", &capacity)] {
        let l = &r.latencies_ms;
        report.note(&format!("{name}_latency_samples"), l.len());
        report.note(
            &format!("{name}_p50_ms"),
            stats::median(l).unwrap_or(f64::NAN),
        );
        report.note(
            &format!("{name}_sqvae_p50_ms"),
            stats::median_of_medians(&r.sq_latencies_ms, P50_CHUNK).unwrap_or(f64::NAN),
        );
        if stats::supports(l.len(), TAIL) {
            report.note(
                &format!("{name}_p99_ms"),
                stats::percentile(l, TAIL).unwrap_or(f64::NAN),
            );
        }
    }
    report.note(
        "light_goodput_rps",
        light.good as f64 / light.span.as_secs_f64(),
    );
    report.note(
        "light_generator_late_p99_ms",
        stats::percentile(&light.late_ms, 0.99).unwrap_or(0.0),
    );
    phases.push(light);
    phases.push(capacity);
    phases.extend(traced_capacity);
    for r in &phases {
        report.attempted += r.attempted as u64;
        report.failed += r.failed as u64;
        for e in r.errors.iter().take(5) {
            report.error(e.clone());
        }
    }
    if traced {
        traced_part(report, &s, &phases, &mix, seed, throughput);
    }
    let stats = s.teardown();
    let batches = stats.batches.max(1) as f64;
    report.layer(
        "serve.requests_per_batch",
        stats.requests as f64 / batches,
        "count",
    );
    report.layer("serve.rows_per_batch", stats.rows as f64 / batches, "count");
    report.note("served_requests", stats.requests);
    report.note("served_batches", stats.batches);
}

/// Per-layer serving metrics from the traced half of the capacity phase
/// (`phases[2]`), the engine replay and the circuit replicas.
fn traced_part(
    report: &mut Report,
    s: &Setup,
    phases: &[PhaseResult],
    mix: &[Arrival],
    seed: u64,
    untraced: f64,
) {
    let t = &phases[2];
    let traced = windowed_rate(t);
    report.layer(
        "trace.overhead_pct",
        (untraced - traced) / untraced * 100.0,
        "%",
    );
    report.layer(
        "serve.submit_us",
        stats::median(&t.submit_us).unwrap_or(0.0),
        "us",
    );
    report.layer(
        "serve.wait_ms",
        stats::median(&t.wait_ms).unwrap_or(0.0),
        "ms",
    );
    report.layer(
        "serve.gen_late_ms",
        stats::percentile(&phases[0].late_ms, 0.99).unwrap_or(0.0),
        "ms",
    );
    let queue_full: usize = phases.iter().map(|r| r.queue_full).sum();
    report.layer("serve.queue_full", queue_full as f64, "count");
    report.layer(
        "serve.deadline_shed",
        s.server.health().deadline_shed as f64,
        "count",
    );
    trace::set_enabled(true);
    if let Err(e) = engine_replay(s, &mix[..mix.len().min(400)], CLIENTS) {
        report.error(format!("engine replay: {e}"));
    }
    let policy = TrainConfig::default().exec_policy();
    for (i, shape) in layers::ALL_SHAPES.iter().enumerate() {
        for rep in 0..8 {
            layers::quantum_pass(shape, 2, false, policy, seed ^ (i * 64 + rep) as u64);
        }
    }
    let overhead = layers::map_rows_overhead_us(16 * 2, 200);
    trace::set_enabled(false);
    let spans = trace::take();
    report.layer(
        "serve.engine.batch_ms",
        layers::mean_self_ms(&spans, "serve.engine.batch"),
        "ms",
    );
    layers::quantum_metrics(report, &spans, 2);
    report.layer("nn.parallel.map_rows_overhead_us", overhead, "us");
    for (span, metric) in [
        ("checkpoint.save", "checkpoint.save_ms"),
        ("checkpoint.load", "checkpoint.load_ms"),
        ("datasets.generate", "datasets.generate_ms"),
        ("core.autoencoder.sample", "core.autoencoder.sample_ms"),
        (
            "core.autoencoder.reconstruct",
            "core.autoencoder.reconstruct_ms",
        ),
    ] {
        report.layer(metric, layers::mean_self_ms(&spans, span), "ms");
    }
    crate::finish_trace(report, &spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_from_its_seed() {
        let a = schedule(300.0, Duration::from_secs(2), 7);
        let b = schedule(300.0, Duration::from_secs(2), 7);
        let c = schedule(300.0, Duration::from_secs(2), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_is_ordered_within_its_span_at_about_its_rate() {
        let a = schedule(500.0, Duration::from_secs(4), 3);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.due < Duration::from_secs(4)));
        assert!(a.iter().all(|x| (1..=4).contains(&x.rows)));
        // 2000 expected arrivals; Poisson spread is about 45.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        for kind in [Kind::Sample, Kind::Reconstruct, Kind::Encode, Kind::Decode] {
            assert!(a.iter().any(|x| x.kind == kind));
        }
        assert!(a.iter().any(|x| x.target == Target::SqVae32));
        assert!(a.iter().any(|x| x.target == Target::HbqVae8));
    }
}
