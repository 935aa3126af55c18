//! Structural invariants of the unified experiment API: the registry, the
//! `optima` CLI and the generated DESIGN.md index must stay in lock-step.

use optima_bench::experiments::{
    design_md, find, registry, BenchError, ExperimentContext, Profile,
};
use optima_circuit::array::ArrayConfig;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the `optima` binary with its stdout on a pipe whose reader is
/// already closed, the way `optima list | head -n 0` leaves it.
fn optima_on_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_optima"))
        .args(args)
        .stdout(writer)
        .output()
        .expect("optima spawns")
}

#[test]
fn list_on_a_closed_pipe_exits_zero_without_panicking() {
    let output = optima_on_closed_pipe(&["list"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn run_on_a_closed_pipe_exits_one_with_a_single_error_line() {
    let output = optima_on_closed_pipe(&["run", "fig1_sota", "--profile", "fast"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("error:"))
        .collect();
    assert_eq!(errors.len(), 1, "stderr: {stderr}");
    assert!(
        errors[0].starts_with("error: cannot write the report to stdout:"),
        "stderr: {stderr}"
    );
}

#[test]
fn list_leads_with_the_registry_size() {
    // CI counts the expected `run --all` reports with
    // `optima list | head -n 1 | cut -d' ' -f1`.
    let output = Command::new(env!("CARGO_BIN_EXE_optima"))
        .arg("list")
        .output()
        .expect("optima spawns");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("list output is UTF-8");
    let first_word = stdout
        .lines()
        .next()
        .and_then(|line| line.split(' ').next());
    assert_eq!(first_word, Some(registry().len().to_string().as_str()));
}

#[test]
fn registry_names_are_unique() {
    let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(names.len(), unique.len(), "duplicate experiment names");
}

#[test]
fn registry_covers_all_paper_experiments_and_ablations() {
    let registered: BTreeSet<&str> = registry().iter().map(|e| e.name()).collect();
    for name in [
        "fig1_sota",
        "fig4_nonideality",
        "fig5_pvt",
        "fig6_model_eval",
        "fig7_dse",
        "fig8_corner_pvt",
        "table1_corners",
        "table2_imagenet",
        "table3_cifar",
        "speedup",
        "snapshot_roundtrip",
    ] {
        assert!(registered.contains(name), "missing paper experiment {name}");
    }
    let ablations = registered
        .iter()
        .filter(|name| name.starts_with("ablation_"))
        .count();
    assert_eq!(ablations, 3, "expected exactly three ablations");
}

#[test]
fn every_experiment_is_self_describing() {
    for experiment in registry() {
        assert!(!experiment.name().is_empty());
        assert!(
            !experiment.description().is_empty(),
            "{} has no description",
            experiment.name()
        );
        assert!(
            !experiment.paper_ref().is_empty(),
            "{} has no paper reference",
            experiment.name()
        );
        assert!(
            find(experiment.name()).is_some_and(|found| std::ptr::eq(found, *experiment)),
            "find() must resolve {} to its registry entry",
            experiment.name()
        );
    }
}

#[test]
fn design_md_on_disk_matches_the_registry() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "DESIGN.md is missing at {} ({err}); regenerate it with \
             `cargo run -q -p optima_bench --bin optima -- design-md > DESIGN.md`",
            path.display()
        )
    });
    assert_eq!(
        on_disk,
        design_md(),
        "DESIGN.md has drifted from the experiment registry; regenerate it with \
         `cargo run -q -p optima_bench --bin optima -- design-md > DESIGN.md`"
    );
}

#[test]
fn paper_only_experiments_refuse_a_non_default_geometry() {
    // These experiments are set up on the paper's INT4 macro; at another
    // geometry they must fail with a typed error, not print INT4 results.
    for name in [
        "table2_imagenet",
        "table3_cifar",
        "ablation_dac",
        "ablation_tau0",
    ] {
        let experiment = find(name).expect("registered");
        let mut ctx = ExperimentContext::new(Profile::Fast).with_array(ArrayConfig::int8());
        match experiment.run(&mut ctx) {
            Err(err @ BenchError::UnsupportedGeometry { experiment, array }) => {
                assert_eq!(experiment, name);
                assert_eq!(array, ArrayConfig::int8());
                assert!(err.to_string().contains("16x8 int8 (4b slices)"), "{err}");
            }
            Err(err) => panic!("{name}: expected UnsupportedGeometry, got {err}"),
            Ok(_) => panic!("{name} printed a report for the INT8 geometry"),
        }
    }
}
