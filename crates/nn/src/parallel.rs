//! Row-sharded parallel execution across OS threads.
//!
//! Every quantum layer simulates batch rows independently, so the batch
//! dimension is an embarrassingly parallel axis. [`map_rows`] shards a row
//! range across scoped OS threads (`std::thread::scope`; no external
//! dependencies, matching the offline build environment) and writes each
//! row's result into its own preallocated slot. Because results land in row
//! order — never in thread-arrival order — and callers accumulate any
//! reductions over the returned `Vec` in fixed row order, the parallel path
//! is **bit-identical** to the sequential one.

use std::str::FromStr;
use std::sync::{Mutex, PoisonError};

/// Name of the environment variable read by [`Threads::from_env`].
pub const THREADS_ENV_VAR: &str = "SQVAE_THREADS";

/// Row-parallelism policy for layers that shard batch rows across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// One worker per available CPU (capped by the number of rows).
    Auto,
    /// Exactly `n` workers (capped by the number of rows); `Fixed(0)` and
    /// `Fixed(1)` run sequentially.
    Fixed(usize),
    /// Sequential execution on the calling thread: the conservative
    /// construction-time default (environment-driven callers use
    /// [`Threads::from_env`], which defaults to [`Threads::Auto`]).
    #[default]
    Off,
}

impl Threads {
    /// Reads the policy from the `SQVAE_THREADS` environment variable (see
    /// [`Threads::from_env_var`]).
    pub fn from_env() -> Self {
        Self::from_env_var(THREADS_ENV_VAR)
    }

    /// Reads the policy from the environment variable `var`: unset, empty,
    /// or `auto` → [`Threads::Auto`]; `0` or `off` → [`Threads::Off`]; a
    /// positive integer `n` → [`Threads::Fixed`]`(n)`. Unparseable values
    /// fall back to [`Threads::Auto`] after a one-time stderr warning (see
    /// [`Threads::from_env_spec`]).
    pub fn from_env_var(var: &str) -> Self {
        match std::env::var(var) {
            Ok(v) => Self::from_env_spec(var, &v),
            Err(_) => Threads::Auto,
        }
    }

    /// Parses the value `raw` of environment variable `var`, falling back
    /// to [`Threads::Auto`] on an unparseable value — but **warning once
    /// per variable** on stderr, naming the variable, the bad value and the
    /// accepted ones, instead of silently ignoring a typo like
    /// `SQVAE_THREADS=of`.
    pub fn from_env_spec(var: &str, raw: &str) -> Self {
        raw.parse().unwrap_or_else(|err| {
            if first_warning(var) {
                eprintln!("warning: {var}: {err}; falling back to 'auto'");
            }
            Threads::Auto
        })
    }

    /// Number of worker threads to use for `n_rows` independent rows.
    pub fn resolve(self, n_rows: usize) -> usize {
        let cap = match self {
            Threads::Off => 1,
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        cap.min(n_rows.max(1))
    }
}

/// Whether this is the first fallback warning for environment variable
/// `var` in this process.
fn first_warning(var: &str) -> bool {
    static WARNED: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let mut warned = WARNED.lock().unwrap_or_else(PoisonError::into_inner);
    if warned.iter().any(|w| w == var) {
        return false;
    }
    warned.push(var.to_owned());
    true
}

impl FromStr for Threads {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "" | "auto" => Ok(Threads::Auto),
            "0" | "off" => Ok(Threads::Off),
            other => other
                .parse::<usize>()
                .map(Threads::Fixed)
                .map_err(|_| format!("invalid thread spec '{other}' (want auto, off, or a count)")),
        }
    }
}

/// Computes `f(0), …, f(n_rows - 1)` with rows sharded across scoped OS
/// threads, returning the results **in row order**.
///
/// Each worker owns a contiguous chunk of preallocated output slots, so no
/// result is ever placed by arrival order and the output is bit-identical to
/// the sequential `(0..n_rows).map(f)`. With one resolved worker (or fewer
/// than two rows) no thread is spawned at all.
///
/// # Panics
///
/// Propagates any panic raised by `f` on a worker thread.
pub fn map_rows<R, F>(n_rows: usize, threads: Threads, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.resolve(n_rows);
    if workers <= 1 || n_rows <= 1 {
        return (0..n_rows).map(f).collect();
    }
    let mut slots: Vec<Option<R>> = (0..n_rows).map(|_| None).collect();
    let chunk = n_rows.div_ceil(workers);
    std::thread::scope(|scope| {
        for (w, block) in slots.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (i, slot) in block.iter_mut().enumerate() {
                    *slot = Some(f(w * chunk + i));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every row slot is filled by its worker"))
        .collect()
}

/// Fills the row-major buffer `out` (`out.len() / row_len` rows of
/// `row_len` values) by calling `f(row, scratch, slot)` for every row, with
/// rows sharded across scoped OS threads exactly like [`map_rows`].
///
/// Unlike [`map_rows`], results are written straight into the caller's
/// preallocated storage — no per-row `Vec` is ever allocated — and each
/// worker builds one `scratch` value with `init` and reuses it across every
/// row of its contiguous chunk, so per-row working buffers amortize to one
/// allocation per worker. Row order is still deterministic: each slot is
/// written by exactly one worker, so the output is bit-identical to the
/// sequential loop.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `row_len`, and propagates any
/// panic raised by `f` on a worker thread.
pub fn fill_rows<S, F, G>(out: &mut [f64], row_len: usize, threads: Threads, init: G, f: F)
where
    S: Send,
    G: Fn() -> S + Sync,
    F: Fn(usize, &mut S, &mut [f64]) + Sync,
{
    if row_len == 0 {
        assert!(out.is_empty(), "zero-width rows with non-empty output");
        return;
    }
    assert_eq!(out.len() % row_len, 0, "output is not whole rows");
    let n_rows = out.len() / row_len;
    let workers = threads.resolve(n_rows);
    if workers <= 1 || n_rows <= 1 {
        let mut scratch = init();
        for (r, slot) in out.chunks_mut(row_len).enumerate() {
            f(r, &mut scratch, slot);
        }
        return;
    }
    let chunk = n_rows.div_ceil(workers);
    std::thread::scope(|scope| {
        for (w, block) in out.chunks_mut(chunk * row_len).enumerate() {
            let f = &f;
            let init = &init;
            scope.spawn(move || {
                let mut scratch = init();
                for (i, slot) in block.chunks_mut(row_len).enumerate() {
                    f(w * chunk + i, &mut scratch, slot);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_for_every_policy() {
        let expected: Vec<usize> = (0..37).map(|r| r * r).collect();
        for threads in [
            Threads::Off,
            Threads::Auto,
            Threads::Fixed(1),
            Threads::Fixed(3),
            Threads::Fixed(64),
        ] {
            assert_eq!(map_rows(37, threads, |r| r * r), expected, "{threads:?}");
        }
    }

    #[test]
    fn empty_and_single_row() {
        assert_eq!(map_rows(0, Threads::Fixed(4), |r| r), Vec::<usize>::new());
        assert_eq!(map_rows(1, Threads::Fixed(4), |r| r + 10), vec![10]);
    }

    #[test]
    fn resolve_caps_by_rows_and_floor_is_one() {
        assert_eq!(Threads::Off.resolve(100), 1);
        assert_eq!(Threads::Fixed(0).resolve(100), 1);
        assert_eq!(Threads::Fixed(4).resolve(2), 2);
        assert_eq!(Threads::Fixed(4).resolve(100), 4);
        assert!(Threads::Auto.resolve(100) >= 1);
        assert_eq!(Threads::Auto.resolve(0), 1);
    }

    #[test]
    fn parses_thread_specs() {
        assert_eq!("auto".parse::<Threads>(), Ok(Threads::Auto));
        assert_eq!("".parse::<Threads>(), Ok(Threads::Auto));
        assert_eq!("off".parse::<Threads>(), Ok(Threads::Off));
        assert_eq!("0".parse::<Threads>(), Ok(Threads::Off));
        assert_eq!("6".parse::<Threads>(), Ok(Threads::Fixed(6)));
        assert!("six".parse::<Threads>().is_err());
    }

    #[test]
    fn env_spec_typo_falls_back_to_auto() {
        // The warning is emitted once on stderr; the value still resolves.
        assert_eq!(Threads::from_env_spec(THREADS_ENV_VAR, "of"), Threads::Auto);
        assert_eq!(
            Threads::from_env_spec(THREADS_ENV_VAR, "3"),
            Threads::Fixed(3)
        );
        assert_eq!(Threads::from_env_spec(THREADS_ENV_VAR, "off"), Threads::Off);
    }

    #[test]
    fn each_variable_warns_once() {
        assert!(first_warning("SQVAE_TEST_WARN_A"));
        assert!(!first_warning("SQVAE_TEST_WARN_A"));
        assert!(first_warning("SQVAE_TEST_WARN_B"));
        assert!(!first_warning("SQVAE_TEST_WARN_B"));
    }

    #[test]
    fn fill_rows_matches_sequential_and_reuses_scratch() {
        let row_len = 3;
        let expected: Vec<f64> = (0..13 * row_len)
            .map(|i| (i / row_len + i % row_len) as f64)
            .collect();
        for threads in [
            Threads::Off,
            Threads::Fixed(1),
            Threads::Fixed(4),
            Threads::Fixed(64),
        ] {
            let mut out = vec![0.0; 13 * row_len];
            fill_rows(
                &mut out,
                row_len,
                threads,
                Vec::<f64>::new,
                |r, scratch, slot| {
                    // The scratch persists across a worker's rows: grow it once
                    // and fill from it, as the probability readout path does.
                    scratch.clear();
                    scratch.extend((0..row_len).map(|c| (r + c) as f64));
                    slot.copy_from_slice(scratch);
                },
            );
            assert_eq!(out, expected, "{threads:?}");
        }
    }

    #[test]
    fn fill_rows_handles_empty_output() {
        let mut out: Vec<f64> = Vec::new();
        fill_rows(&mut out, 4, Threads::Fixed(4), || (), |_, (), _| {});
        fill_rows(&mut out, 0, Threads::Off, || (), |_, (), _| {});
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "not whole rows")]
    fn fill_rows_rejects_ragged_output() {
        let mut out = vec![0.0; 5];
        fill_rows(&mut out, 3, Threads::Off, || (), |_, (), _| {});
    }

    #[test]
    fn rows_collect_in_order_not_arrival_order() {
        // Later rows finish first (they sleep less), yet results stay ordered.
        let out = map_rows(8, Threads::Fixed(4), |r| {
            std::thread::sleep(std::time::Duration::from_millis(8 - r as u64));
            r
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }
}
