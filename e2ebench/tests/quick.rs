//! Reduced-scale runs of every workload: every metric `BENCHMARK.json`
//! names is printed with its unit, and every correctness check passes.

use std::process::Command;

const WORKLOADS: [&str; 2] = ["steady_single", "room_fused"];

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let strings: Vec<&str> = body.split('"').skip(1).step_by(2).collect();
    let mut out = Vec::new();
    for (i, s) in strings.iter().enumerate() {
        if *s == "name" {
            let unit = strings[i..]
                .iter()
                .position(|x| *x == "unit")
                .map(|j| strings[i + j + 1])
                .expect("every metric has a unit");
            out.push((strings[i + 1].to_string(), unit.to_string()));
        }
    }
    assert!(!out.is_empty(), "{section} lists metrics");
    out
}

fn run(workload: &str, trace: u8) -> (bool, String) {
    let spans = format!("{}/spans-{workload}.tsv", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "3"])
        .args([
            "--trace",
            &trace.to_string(),
            "--quick",
            "--spans-out",
            &spans,
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        last.starts_with('{') && last.ends_with('}'),
        "{workload}: last line is not the JSON result:\n{stdout}"
    );
    (out.status.success(), last)
}

fn check(workload: &str, trace: u8, section: &str) {
    let (ok, result) = run(workload, trace);
    assert!(
        ok && result.contains("\"correct\": true"),
        "{workload} --trace {trace} failed its correctness checks: {result}"
    );
    for (name, unit) in declared(section) {
        let at = result
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
        let rest = &result[at..];
        let entry = &rest[..rest.find('}').expect("entry closes")];
        assert!(
            entry.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} not in {unit}: {entry}"
        );
        assert!(
            !entry.contains("null"),
            "{workload}: {name} is not finite: {entry}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_passes() {
    for w in WORKLOADS {
        check(w, 0, "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_and_passes() {
    for w in WORKLOADS {
        check(w, 1, "per_layer");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
