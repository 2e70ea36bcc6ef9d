//! Runs every experiment binary in-process at the selected scale, in paper
//! order. `cargo run --release -p sqvae-bench --bin run_all [--full]`.

use std::process::Command;

fn main() {
    // Reject a bad command line once, up front, before launching anything.
    sqvae_bench::ExpArgs::from_cli();
    let pass_through: Vec<String> = std::env::args().skip(1).collect();
    let exe = std::env::current_exe().expect("current executable path");
    let dir = exe.parent().expect("executable directory");
    for bin in [
        "exp_table1",
        "exp_fig4",
        "exp_fig5",
        "exp_fig6",
        "exp_fig7",
        "exp_fig8",
        "exp_table2",
        "exp_ablation",
        "exp_noise",
        "exp_imagegen",
    ] {
        println!();
        println!("################ {bin} ################");
        let status = Command::new(dir.join(bin))
            .args(&pass_through)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} exited with {status}");
    }
    println!();
    println!("All experiments completed.");
}
