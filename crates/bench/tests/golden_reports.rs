//! Golden tests pinning the text renderer byte-for-byte to the
//! **pre-refactor** binary output (fast mode), captured before the
//! experiment logic moved out of `src/bin/*.rs` into the `Experiment`
//! modules.
//!
//! Machine-dependent tokens are masked on both sides before comparison:
//! worker-thread counts (the preamble lines print the host's parallelism)
//! and the wall-clock columns of the `speedup` table.  Every other byte —
//! headings, blank-line layout, table geometry and all deterministic
//! numbers — must match exactly.

use optima_bench::experiments::{find, ExperimentContext, Profile};
use optima_circuit::array::ArrayConfig;
use std::path::PathBuf;
use std::process::Command;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.fast.txt"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("golden file {} unreadable: {err}", path.display()))
}

fn run_fast(name: &str) -> String {
    let experiment = find(name).unwrap_or_else(|| panic!("{name} is not registered"));
    let mut ctx = ExperimentContext::new(Profile::Fast);
    experiment
        .run(&mut ctx)
        .unwrap_or_else(|err| panic!("{name} failed: {err}"))
        .render_text()
}

/// Masks every digit run in the line containing `marker` (used for the
/// thread-count preambles, which depend on the host's parallelism).
fn mask_line_digits(text: &str, marker: &str) -> String {
    text.lines()
        .map(|line| {
            if line.contains(marker) {
                line.chars()
                    .map(|c| if c.is_ascii_digit() { '#' } else { c })
                    .collect()
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn fig5_pvt_text_output_is_byte_identical_to_the_pre_refactor_binary() {
    // The preamble prints the worker-thread count; everything else is
    // deterministic at any thread count (sweep-engine guarantee).
    let expected = mask_line_digits(&golden("fig5_pvt"), "worker threads");
    let actual = mask_line_digits(&run_fast("fig5_pvt"), "worker threads");
    assert_eq!(actual, expected);
}

#[test]
fn table1_corners_text_output_is_byte_identical_to_the_pre_refactor_binary() {
    // Fully deterministic — not a single byte may differ.
    assert_eq!(run_fast("table1_corners"), golden("table1_corners"));
}

#[test]
fn table1_corners_explores_and_names_a_non_default_geometry() {
    let experiment = find("table1_corners").expect("registered");
    let mut ctx = ExperimentContext::new(Profile::Fast).with_array(ArrayConfig::int8());
    let text = experiment
        .run(&mut ctx)
        .unwrap_or_else(|err| panic!("table1_corners failed at INT8: {err}"))
        .render_text();
    assert!(
        text.contains("Array geometry: 16x8 int8 (4b slices)"),
        "{text}"
    );
    assert_ne!(text, golden("table1_corners"));
}

#[test]
fn optima_run_prints_the_table1_corners_golden_byte_for_byte() {
    // The CLI adds nothing to stdout around a single experiment's report.
    let output = Command::new(env!("CARGO_BIN_EXE_optima"))
        .args(["run", "table1_corners", "--profile", "fast"])
        .output()
        .expect("optima spawns");
    assert!(
        output.status.success(),
        "optima run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("report is UTF-8");
    assert_eq!(stdout, golden("table1_corners"));
}

#[test]
fn speedup_text_output_matches_the_pre_refactor_binary_modulo_timings() {
    // The two workload rows carry wall-clock measurements; mask their
    // numeric cells (and the thread-count preamble) but pin every other
    // byte: headings, column layout, workload names and paper references.
    let mask = |text: &str| {
        let text = mask_line_digits(text, "sweep-engine threads");
        text.lines()
            .map(|line| {
                if line.starts_with("| input-space sweep")
                    || line.starts_with("| mismatch Monte Carlo")
                {
                    let cells: Vec<String> = line
                        .split(" | ")
                        .enumerate()
                        .map(|(i, cell)| {
                            // Cells 1-3 are circuit seconds, model seconds and
                            // the speed-up factor; cell 0 (workload + grid
                            // size) and cell 4 (paper value) stay exact.
                            if (1..=3).contains(&i) {
                                "<timing>".to_string()
                            } else {
                                cell.to_string()
                            }
                        })
                        .collect();
                    cells.join(" | ")
                } else {
                    line.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n"
    };
    assert_eq!(mask(&run_fast("speedup")), mask(&golden("speedup")));
}
