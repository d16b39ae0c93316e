//! Self-tests of the benchmark: the traced path's wrappers are transparent,
//! every metric is printed with its unit and declared in `BENCHMARK.json`,
//! and every name is well formed.

use std::process::Command;
use taqos_benchmark::metrics::{percentile, valid_name, Outcome, END_TO_END, PER_LAYER};
use taqos_benchmark::run::{fastest_windows, traced_rep, without_telemetry, Ledger};
use taqos_benchmark::workload::{Shape, Workload};
use taqos_netsim::SimConfig;

/// A short run of `workload` through the production path and through the
/// traced path (counting wrappers, counting sink, histograms and frames):
/// the statistics must be identical apart from the telemetry payload.
fn assert_transparent(workload: Workload, cycles: u64) {
    let seed = 7;
    let mut network = workload
        .build(seed, SimConfig::default())
        .expect("production path builds");
    network.run_for(cycles);
    let production = network.into_stats();

    let shape = Shape {
        warmup: 0,
        measure: cycles,
        window: cycles / 4,
        to_completion: false,
        check_prefix: cycles,
    };
    let traced = traced_rep(workload, seed, shape).expect("traced path builds and runs");
    assert!(
        traced.probes.priority.calls() > 0,
        "{}: the QOS wrapper saw no calls",
        workload.name()
    );
    assert!(
        traced.probes.generate.calls() > 0,
        "{}: the generator wrapper saw no calls",
        workload.name()
    );
    assert!(
        traced.probes.trace.calls() > 0,
        "{}: the trace sink saw no events",
        workload.name()
    );
    assert!(
        production.delivered_flits > 0,
        "{}: nothing delivered",
        workload.name()
    );
    assert_eq!(
        without_telemetry(traced.stats),
        production,
        "{}: the traced run diverged from the production path",
        workload.name()
    );
}

#[test]
fn wrappers_are_transparent_on_mesh_pvc_uniform() {
    assert_transparent(Workload::MeshPvcUniform, 2_000);
}

#[test]
fn wrappers_are_transparent_on_column_pvc_adversarial() {
    assert_transparent(Workload::ColumnPvcAdversarial, 4_000);
}

#[test]
fn wrappers_are_transparent_on_chip16_dram_mlp() {
    assert_transparent(Workload::Chip16DramMlp, 800);
}

#[test]
fn wrappers_are_transparent_on_chip_incast_faults() {
    assert_transparent(Workload::ChipIncastFaults, 4_000);
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for metrics in [END_TO_END, PER_LAYER] {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: metrics
                .iter()
                .enumerate()
                .map(|(i, &m)| (m, i as f64 + 0.5))
                .collect(),
        };
        let line = outcome.to_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        for (i, metric) in metrics.iter().enumerate() {
            let entry = format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                i as f64 + 0.5,
                metric.unit
            );
            assert!(line.contains(&entry), "{entry} missing from {line}");
        }
    }
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`, in order.
fn declared(json: &str, list: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{list}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list is closed")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closed")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn metrics_and_workloads_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (list, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let expected: Vec<(String, String)> = metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(declared(&json, list), expected, "{list} differs");
    }
    for workload in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())),
            "{} is not declared",
            workload.name()
        );
    }
}

#[test]
fn every_name_is_well_formed_and_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| m.name)
        .chain(Workload::ALL.iter().map(|w| w.name()))
        .collect();
    for name in &names {
        assert!(valid_name(name), "{name} is not [A-Za-z0-9_.-]+");
    }
    for metric in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            !metric.unit.is_empty()
                && metric.unit.len() <= 16
                && metric
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {:?} of {}",
            metric.unit,
            metric.name
        );
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
    assert!(!valid_name("") && !valid_name("_x") && !valid_name("a b"));
}

#[test]
fn ledger_counts_errors_and_panics_as_failures() {
    let mut ledger = Ledger::default();
    assert_eq!(ledger.attempt("ok", || Ok(1)), Some(1));
    assert_eq!(
        ledger.attempt("error", || Err::<(), _>("no".to_string())),
        None
    );
    assert_eq!(
        ledger.attempt("panic", || -> Result<(), String> { panic!("boom") }),
        None
    );
    assert_eq!((ledger.attempted, ledger.failed()), (3, 2));
    assert!((ledger.failure_share() - 2.0 / 3.0).abs() < 1e-12);
}

#[test]
fn order_statistics() {
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&values, 99.0), 990.0);
    assert_eq!(percentile(&values, 50.0), 500.0);
    assert_eq!(percentile(&[], 50.0), 0.0);
}

#[test]
fn fastest_windows_takes_each_windows_minimum() {
    let reps = [vec![5, 9, 4], vec![7, 3, 6], vec![6, 8, 2]];
    assert_eq!(
        fastest_windows(reps.iter().map(Vec::as_slice)),
        vec![5, 3, 2]
    );
    assert!(fastest_windows(std::iter::empty()).is_empty());
}

#[test]
fn a_bad_command_line_exits_nonzero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "mesh_pvc_uniform", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_taqos-benchmark"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
