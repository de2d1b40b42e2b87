//! Every deterministic figure, pinned byte for byte.
//!
//! `golden/<name>.txt` is the stdout of `ompc-bench <name>`. A figure that
//! moves on purpose is regenerated with the command a failure prints.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compare figure `name` against its golden and name the first line that
/// differs, with the command that regenerates the golden.
fn check(name: &str) {
    let path = golden_dir().join(format!("{name}.txt"));
    let old = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("cannot read {}: {err}", path.display()));
    let new = ompc_bench::figure(name).expect("a known figure").text;
    if old == new {
        return;
    }
    let (old_lines, new_lines): (Vec<&str>, Vec<&str>) =
        (old.split('\n').collect(), new.split('\n').collect());
    let line = (0..).find(|&i| old_lines.get(i) != new_lines.get(i)).expect("the texts differ");
    let show =
        |lines: &[&str]| lines.get(line).map_or("<end of text>".into(), |l| format!("{l:?}"));
    panic!(
        "figure {name} differs from its golden at line {}:\n  old: {}\n  new: {}\n\
         if the change is intended, regenerate the golden with\n  \
         cargo run --release -p ompc-bench -- {name} > crates/ompc-bench/tests/golden/{name}.txt",
        line + 1,
        show(&old_lines),
        show(&new_lines),
    );
}

#[test]
fn fig5_matches_its_golden() {
    check("fig5");
}

#[test]
fn fig6_matches_its_golden() {
    check("fig6");
}

#[test]
fn fig7a_matches_its_golden() {
    check("fig7a");
}

#[test]
fn fig7b_matches_its_golden() {
    check("fig7b");
}

#[test]
fn ablation_matches_its_golden() {
    check("ablation");
}

#[test]
fn fault_matches_its_golden() {
    check("fault");
}

#[test]
fn every_golden_is_a_figure_and_every_figure_has_a_golden() {
    let mut goldens: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("the golden directory")
        .map(|entry| entry.expect("a golden").file_name().to_string_lossy().into_owned())
        .filter(|file| file.ends_with(".txt"))
        .collect();
    goldens.sort();
    let mut figures: Vec<String> =
        ompc_bench::FIGURES.iter().map(|name| format!("{name}.txt")).collect();
    figures.sort();
    assert_eq!(goldens, figures);
}

#[test]
fn an_unknown_figure_exits_non_zero_with_the_usage_line() {
    for args in [&["fig8"][..], &["--quick"], &["fig5", "--smoke"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_ompc-bench"))
            .args(args)
            .output()
            .expect("the ompc-bench binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: ompc-bench"), "{args:?}");
    }
}
