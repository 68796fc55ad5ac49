//! `lotus-bench` — the unified scenario runner CLI.
//!
//! ```text
//! lotus-bench --list
//! lotus-bench --scenario bar-gossip --attack trade --format json
//! lotus-bench --scenario token --sweep altruism --curve "random-fraction,fraction=0.5"
//! lotus-bench --preset fig1 --quick
//! ```
//!
//! See [`lotus_bench::runner`] for the full grammar and
//! [`lotus_bench::presets`] for the paper artifacts `--preset` runs.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match lotus_bench::runner::run_args(&args) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
