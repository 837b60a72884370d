//! Self-test: a short run of every workload, untraced and traced, reports
//! every metric `BENCHMARK.json` names with its unit and passes the
//! correctness gate.

use std::process::Command;

use serde_json::Value;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::parse_value(&text).expect("BENCHMARK.json is JSON")
}

fn short_run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_rbc-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--short",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse_value(last).expect("the last line is JSON")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.field(key).ok().and_then(Value::as_array).unwrap_or_else(|| panic!("{key} is a list"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.field(key).ok().and_then(Value::as_str).unwrap_or_else(|| panic!("{key} is a string"))
}

#[test]
fn every_workload_reports_every_named_metric_with_its_unit() {
    let spec = spec();
    let workloads = list(&spec, "workloads");
    assert!(!workloads.is_empty());
    for workload in workloads {
        let name = text(workload, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = short_run(name, trace);
            assert_eq!(result.field("correct").ok().and_then(Value::as_bool), Some(true), "{name}");
            assert_eq!(result.field("failed").ok().and_then(Value::as_u64), Some(0), "{name}");
            assert!(result.field("attempted").ok().and_then(Value::as_u64).unwrap_or(0) >= 1);
            let metrics = result.field("metrics").expect("metrics object");
            let reported = metrics.as_object().expect("metrics is an object").len();
            let named = list(&spec, key);
            assert_eq!(reported, named.len(), "{name} --trace {trace}: extra or missing metrics");
            for m in named {
                let metric = text(m, "name");
                let got = metrics
                    .field(metric)
                    .unwrap_or_else(|_| panic!("{name} --trace {trace} lacks {metric}"));
                assert_eq!(text(got, "unit"), text(m, "unit"), "{name}: unit of {metric}");
                let value = got.field("value").ok().and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {metric} = {value:?}");
            }
        }
    }
}
