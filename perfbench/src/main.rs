//! The repository's benchmark: paper-scale SQ-VAE training, open-loop
//! serving and generate-then-screen, driven through the library's public
//! API with its default policies.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-sqvae32 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Every result,
//! with the machine and source it came from, is also written under
//! `perfbench/out/`. See `perfbench/README.md` for the workloads and
//! metrics.

mod layers;
mod report;
mod screen;
mod serve;
mod source;
mod stats;
mod trace;
mod train;

use report::{json_number, json_string, Environment, Report};
use std::process::ExitCode;
use std::sync::{Mutex, PoisonError};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Relative tolerance of the reference checks: loose enough for the
/// ≤1e-12 differences between simulator backends, tight enough to catch
/// any change to what the model computes.
const REFERENCE_RTOL: f64 = 1e-9;

const WORKLOADS: [&str; 3] = ["train-sqvae32", "serve-mixed", "screen-sqvae32"];

/// Every per-layer metric, in output order, before the tape counts of each
/// circuit shape (see `layers::shape_counts`). A traced run reports each
/// one; a layer the workload does not call reads 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.accounted_frac", "frac"),
    ("quantum.compile_us", "us"),
    ("quantum.forward_us_per_row", "us"),
    ("quantum.probs_us_per_row", "us"),
    ("quantum.adjoint_us_per_row", "us"),
    ("core.patched_enc.forward_ms", "ms"),
    ("core.patched_enc.backward_ms", "ms"),
    ("core.patched_dec.forward_ms", "ms"),
    ("core.patched_dec.backward_ms", "ms"),
    ("core.latent.forward_ms", "ms"),
    ("core.latent.backward_ms", "ms"),
    ("core.autoencoder.zero_grad_ms", "ms"),
    ("core.autoencoder.forward_train_ms", "ms"),
    ("core.autoencoder.backward_ms", "ms"),
    ("core.autoencoder.sample_ms", "ms"),
    ("core.autoencoder.reconstruct_ms", "ms"),
    ("core.trainer.train_ms", "ms"),
    ("core.trainer.unattributed_ms", "ms"),
    ("core.sampling.sample_molecules_ms", "ms"),
    ("core.sampling.generation_metrics_ms", "ms"),
    ("nn.linear.forward_ms", "ms"),
    ("nn.linear.backward_ms", "ms"),
    ("nn.loss.mse_us", "us"),
    ("nn.optim.step_ms", "ms"),
    ("nn.parallel.map_rows_overhead_us", "us"),
    ("nn.parallel.calls_per_batch", "count"),
    ("chem.decode_us_per_mol", "us"),
    ("chem.valence_us_per_mol", "us"),
    ("chem.sanitize_us_per_mol", "us"),
    ("chem.properties_us_per_mol", "us"),
    ("chem.fingerprint_us_per_mol", "us"),
    ("chem.valid_frac", "frac"),
    ("chem.kept_frac", "frac"),
    ("serve.submit_us", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.engine.batch_ms", "ms"),
    ("serve.requests_per_batch", "count"),
    ("serve.rows_per_batch", "count"),
    ("serve.queue_full", "count"),
    ("serve.deadline_shed", "count"),
    ("serve.gen_late_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("datasets.generate_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (want 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (want one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Makes the library's defaults apply: its environment knobs are cleared,
/// and fault injection must not be armed during a measurement.
fn control_environment() -> Result<(), String> {
    if std::env::var_os("SQVAE_FAULTS").is_some() {
        return Err("SQVAE_FAULTS is set; refusing to measure with fault injection armed".into());
    }
    for var in ["SQVAE_THREADS", "SQVAE_BACKEND", "SQVAE_WORKERS"] {
        std::env::remove_var(var);
    }
    Ok(())
}

/// Reference values: `name value` per line, `#` comments.
fn reference(name: &str) -> Option<Vec<f64>> {
    include_str!("../reference.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next() == Some(name)).then(|| parts.filter_map(|v| v.parse().ok()).collect())
        })
}

pub fn check_reference(report: &mut Report, name: &str, got: Result<Vec<f64>, String>) {
    report.attempted += 1;
    let outcome = got.and_then(|got| {
        let want = reference(name).ok_or(format!("reference.txt has no {name}"))?;
        let close = want.len() == got.len()
            && want.iter().zip(&got).all(|(w, g)| {
                g.is_finite() && (w - g).abs() <= REFERENCE_RTOL * w.abs().max(1e-12)
            });
        if close {
            Ok(())
        } else {
            let got: Vec<String> = got.iter().map(|v| json_number(*v)).collect();
            Err(format!("{name}: got {} want {want:?}", got.join(" ")))
        }
    });
    if let Err(e) = outcome {
        report.failed += 1;
        report.error(format!("reference check: {e}"));
    }
}

static SPANS_OUT: Mutex<Option<String>> = Mutex::new(None);

/// Adds the trace's own metrics and keeps the spans for the output file.
/// `trace.accounted_frac` is the sum of every span's self time over the sum
/// of the root spans' durations: 1 when self times tile the traced time.
pub fn finish_trace(report: &mut Report, spans: &[trace::Span]) {
    let selfs: u64 = trace::self_times(spans).values().sum();
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(trace::Span::duration_ns)
        .sum();
    report.layer("trace.spans", spans.len() as f64, "count");
    report.layer(
        "trace.accounted_frac",
        selfs as f64 / roots.max(1) as f64,
        "frac",
    );
    *SPANS_OUT.lock().unwrap_or_else(PoisonError::into_inner) = Some(trace::to_json_lines(spans));
}

/// `map_rows` calls one batch makes: each patched layer pass shards its
/// patch × row grid through one `map_rows` call, and each plain quantum
/// layer pass through one `fill_rows` or `map_rows` call. Training runs
/// both patched layers forward and backward; screening decodes only; the
/// serving mix averages sample, decode and encode (one call each) with
/// reconstruct (two).
fn parallel_calls_per_batch(workload: &str) -> f64 {
    match workload {
        "train-sqvae32" => 4.0,
        "screen-sqvae32" => 1.0,
        _ => 1.25,
    }
}

/// Puts the per-layer metrics in the order of [`PER_LAYER`], with 0 for
/// layers the workload did not call, followed by the tape counts.
fn canonical_per_layer(report: &mut Report, workload: &str) {
    layers::shape_counts(report);
    report.layer(
        "nn.parallel.calls_per_batch",
        parallel_calls_per_batch(workload),
        "count",
    );
    let mut out = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = report
            .per_layer
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        out.push(report::Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
    for m in &report.per_layer {
        if !out.iter().any(|o| o.name == m.name) {
            out.push(m.clone());
        }
    }
    report.per_layer = out;
}

fn write_outputs(report: &Report, env: &Environment, args: &Args) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let metrics = |ms: &[report::Metric]| {
        ms.iter()
            .map(|m| {
                format!(
                    "{}: [{}, {}]",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let notes = report
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let errors = report
        .errors
        .iter()
        .map(|e| json_string(e))
        .collect::<Vec<_>>()
        .join(", ");
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"source\": {}, \"nproc\": {}, \"cpu_model\": {}, \"notes\": {{{notes}}}, \"errors\": [{errors}], \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}\n",
        json_string(&args.workload),
        args.seed,
        json_number(args.seconds),
        args.trace,
        json_string(&env.source),
        env.nproc,
        json_string(&env.cpu_model),
        metrics(&report.end_to_end),
        metrics(&report.per_layer),
    );
    let _ = std::fs::write(dir.join(format!("{tag}.json")), body);
    if let Some(spans) = SPANS_OUT
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        let _ = std::fs::write(dir.join(format!("{tag}-spans.jsonl")), spans);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = control_environment() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let env = Environment::capture();
    let mut report = Report::default();
    env.to_notes(&mut report);
    let cpu_before = report::cpu_ticks();
    trace::set_enabled(args.trace);
    match args.workload.as_str() {
        "train-sqvae32" => {
            train::run(&mut report, args.seed, args.seconds, args.trace);
            check_reference(&mut report, "train.losses", train::reference_losses());
        }
        "serve-mixed" => serve::run(&mut report, args.seed, args.seconds, args.trace),
        "screen-sqvae32" => screen::run(&mut report, args.seed, args.seconds, args.trace),
        _ => unreachable!("workload names are validated by parse_args"),
    }
    trace::set_enabled(false);
    if let (Some(a), Some(b)) = (cpu_before, report::cpu_ticks()) {
        // The share of CPU time the hypervisor gave to other guests while
        // this run wanted it: the main source of run-to-run spread on a
        // shared VM.
        let total = b.total.saturating_sub(a.total).max(1);
        report.note(
            "host_steal_pct",
            100.0 * b.steal.saturating_sub(a.steal) as f64 / total as f64,
        );
    }
    report.e2e(
        "peak_rss_mb",
        report::peak_rss_mb().unwrap_or(f64::NAN),
        "MiB",
    );
    if args.trace {
        canonical_per_layer(&mut report, &args.workload);
    }
    write_outputs(&report, &env, &args);
    for (k, v) in &report.notes {
        println!("# {k}: {v}");
    }
    for e in &report.errors {
        println!("# error: {e}");
    }
    let shown = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in shown {
        println!("# {} = {} {}", m.name, json_number(m.value), m.unit);
    }
    println!("{}", report.result_json(args.trace));
    ExitCode::SUCCESS
}
