//! The run record: environment, metrics, counts, and the final JSON line.

use sqvae::core::{ExecPolicy, TrainConfig};
use std::fmt::Write as _;

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured, checked and observed.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Problems found by the output checks, one line each.
    pub errors: Vec<String>,
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Context printed with the result but not part of the metric set, such
    /// as sample counts behind each percentile.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records a failed check; the run stays incorrect.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// The final result line. Non-finite values make the run incorrect:
    /// they cannot be written as JSON numbers, so they are reported as 0.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let finite = metrics.iter().all(|m| m.value.is_finite());
        let correct = self.errors.is_empty() && finite && self.attempted > 0;
        let mut body = String::new();
        for (i, m) in metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// JSON string literal with the characters JSON requires escaped.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The machine and build a result came from.
#[derive(Debug, Clone)]
pub struct Environment {
    pub nproc: usize,
    pub cpu_model: String,
    pub source: String,
    pub exec_policy: ExecPolicy,
}

impl Environment {
    /// Reads the environment after the library's variables were cleared, so
    /// the policy shown is the library default.
    pub fn capture() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            source: crate::source::identity(),
            exec_policy: TrainConfig::default().exec_policy(),
        }
    }

    pub fn to_notes(&self, report: &mut Report) {
        report.note("nproc", self.nproc);
        report.note("cpu_model", &self.cpu_model);
        report.note("source", &self.source);
        report.note(
            "exec_policy",
            format!(
                "threads={:?} backend={}",
                self.exec_policy.threads,
                self.exec_policy.backend.name()
            ),
        );
    }
}

/// Machine-wide CPU time in clock ticks, from the first line of
/// `/proc/stat`.
pub struct CpuTicks {
    pub total: u64,
    pub steal: u64,
}

/// Current [`CpuTicks`], if readable.
pub fn cpu_ticks() -> Option<CpuTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user, nice, system, idle, iowait, irq, softirq, steal; the guest
    // fields after them are already counted in user and nice.
    let first8 = fields.get(..8)?;
    Some(CpuTicks {
        total: first8.iter().sum(),
        steal: first8[7],
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.e2e("p50_ms", 1.5, "ms");
        r.layer("quantum.compile_us", 2.0, "us");
        assert_eq!(
            r.result_json(false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(r
            .result_json(true)
            .contains("\"quantum.compile_us\": {\"value\": 2.0"));
    }

    #[test]
    fn errors_and_non_finite_values_make_a_run_incorrect() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.e2e("x", f64::NAN, "ms");
        assert!(r.result_json(false).starts_with("{\"correct\": false"));
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.error("mismatch");
        assert!(r.result_json(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
