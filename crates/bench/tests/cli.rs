//! The experiment binaries refuse a bad command line: they print the error
//! and the usage line to stderr and exit with status 2 before doing any
//! work.

use std::process::Command;

fn run_table1(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exp_table1"))
        .args(args)
        .output()
        .expect("exp_table1 launches")
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [&["--wat"][..], &["--seed", "x"], &["--backend"]] {
        let out = run_table1(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} must not start the experiment"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: ") && stderr.contains("--threads"),
            "{stderr}"
        );
    }
}
