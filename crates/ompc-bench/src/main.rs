//! Print the paper's figures and write each one's rows to
//! `results/<name>.json` in the current directory.
//!
//! Usage: `cargo run --release -p ompc-bench [-- <figure>...]`
//!
//! With no figure named, prints the six deterministic figures (`fig5`,
//! `fig6`, `fig7a`, `fig7b`, `ablation`, `fault`). `multitenant` times the
//! admission figure on the real backend; `--smoke` shrinks it for CI and is
//! the only flag.

use ompc_bench::{figure, multitenant, FIGURES};
use std::process::ExitCode;

const USAGE: &str =
    "usage: ompc-bench [fig5|fig6|fig7a|fig7b|ablation|fault|multitenant [--smoke]]...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut names: Vec<&str> =
        args.iter().map(String::as_str).filter(|a| *a != "--smoke").collect();
    if names.is_empty() && !smoke {
        names = FIGURES.to_vec();
    }
    let known = |name: &&str| FIGURES.contains(name) || *name == "multitenant";
    if !names.iter().all(known) || (smoke && !names.contains(&"multitenant")) {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    for name in names {
        let figure = match name {
            "multitenant" => multitenant::figure(smoke),
            name => figure(name).expect("a known figure"),
        };
        eprintln!("# {}", figure.title);
        print!("{}", figure.text);
        let path = format!("results/{name}.json");
        if let Err(err) =
            std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, &figure.json))
        {
            eprintln!("cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!("\nwrote {path} ({} rows)", figure.rows);
    }
    ExitCode::SUCCESS
}
