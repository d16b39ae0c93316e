//! Structural validator for exported telemetry artifacts.
//!
//! CI runs `bench_netsim` with `--trace-out trace.jsonl --series-out
//! series.jsonl` and then this binary over the results. Each line is parsed
//! as JSON (with the workspace's own reader, `taqos_analyze::json`), and the
//! validator checks that:
//!
//! * every line of a `--trace` file is a JSON object carrying the required
//!   `kind`/`cycle` fields, the `kind` tag is one of the known event kinds,
//!   flow-scoped events carry a `flow`, fault transitions carry `active`,
//!   and event cycles are monotone non-decreasing — globally and per flow
//!   (the simulator emits events in simulation-time order, so any inversion
//!   is an exporter bug);
//! * every line of a `--series` file is a frame snapshot carrying
//!   `frame`/`cycle` and the `flows`/`router_occupancy`/`link_flits`
//!   arrays, with frame indices consecutive and cycles strictly increasing.
//!
//! Exits non-zero with a line-numbered message on the first violation.
//!
//! ```text
//! cargo run --release -p taqos-bench --bin validate_telemetry -- \
//!     --trace trace.jsonl --series series.jsonl
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;
use taqos_analyze::json::{self, Value};
use taqos_bench::CliArgs;

/// Every `kind` tag the trace exporter can emit.
const KNOWN_KINDS: [&str; 9] = [
    "inject",
    "grant",
    "preempt",
    "nack",
    "deliver",
    "dram_service",
    "timeout",
    "retry",
    "fault_transition",
];

/// A validation failure: 1-based line number (0 for whole-file problems)
/// and message.
type Failure = (usize, String);

/// Parses one non-empty line as a JSON object.
fn parse_object(line: &str) -> Result<Value, String> {
    match json::parse(line) {
        Ok(value @ Value::Obj(_)) => Ok(value),
        Ok(_) => Err("line is not a JSON object".to_string()),
        Err(err) => Err(format!("line is not valid JSON: {err}")),
    }
}

/// The unsigned integer field `key` of `object`.
fn u64_field(object: &Value, key: &str) -> Result<u64, String> {
    object
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing unsigned integer \"{key}\" field"))
}

/// The non-empty lines of `text`, numbered from 1.
fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(idx, line)| (idx + 1, line))
        .filter(|(_, line)| !line.is_empty())
}

/// Validates a flit-level JSONL trace: shape, known kinds, required fields,
/// and cycle monotonicity (global and per flow).
fn check_trace(text: &str) -> Result<String, Failure> {
    let mut last_cycle = 0u64;
    let mut per_flow_last: BTreeMap<u64, u64> = BTreeMap::new();
    let mut kind_counts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut events = 0u64;
    for (line_no, line) in numbered_lines(text) {
        let fail = |msg: String| (line_no, msg);
        let event = parse_object(line).map_err(fail)?;
        let Some(kind) = event.get("kind").and_then(Value::as_str) else {
            return Err(fail("missing string \"kind\" field".to_string()));
        };
        let Some(kind) = KNOWN_KINDS.into_iter().find(|k| *k == kind) else {
            return Err(fail(format!("unknown kind \"{kind}\"")));
        };
        let cycle = u64_field(&event, "cycle").map_err(fail)?;
        if cycle < last_cycle {
            return Err(fail(format!(
                "cycle {cycle} regresses below {last_cycle}: trace is not time-ordered"
            )));
        }
        last_cycle = cycle;
        if kind == "fault_transition" {
            u64_field(&event, "active").map_err(|msg| fail(format!("{kind}: {msg}")))?;
        } else {
            // Every flow-scoped event must name its flow, and within one
            // flow cycles must be monotone as well.
            let flow = u64_field(&event, "flow").map_err(|msg| fail(format!("{kind}: {msg}")))?;
            let flow_last = per_flow_last.entry(flow).or_insert(0);
            if cycle < *flow_last {
                return Err(fail(format!(
                    "flow {flow}: cycle {cycle} regresses below {flow_last}"
                )));
            }
            *flow_last = cycle;
        }
        *kind_counts.entry(kind).or_insert(0) += 1;
        events += 1;
    }
    if events == 0 {
        return Err((0, "trace contains no events".to_string()));
    }
    let breakdown = kind_counts
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect::<Vec<_>>()
        .join(" ");
    Ok(format!(
        "{events} events over {} flows, time-ordered ({breakdown})",
        per_flow_last.len()
    ))
}

/// Validates a per-frame series export: required fields, consecutive frame
/// indices, strictly increasing frame-end cycles.
fn check_series(text: &str) -> Result<String, Failure> {
    let mut prev: Option<(u64, u64)> = None;
    let mut frames = 0u64;
    for (line_no, line) in numbered_lines(text) {
        let fail = |msg: String| (line_no, msg);
        let snapshot = parse_object(line).map_err(fail)?;
        for key in ["flows", "router_occupancy", "link_flits"] {
            if !matches!(snapshot.get(key), Some(Value::Arr(_))) {
                return Err(fail(format!("missing \"{key}\" array")));
            }
        }
        let frame = u64_field(&snapshot, "frame").map_err(fail)?;
        let cycle = u64_field(&snapshot, "cycle").map_err(fail)?;
        if let Some((prev_frame, prev_cycle)) = prev {
            if frame != prev_frame + 1 {
                return Err(fail(format!(
                    "frame {frame} does not follow {prev_frame}: series has a gap"
                )));
            }
            if cycle <= prev_cycle {
                return Err(fail(format!(
                    "frame-end cycle {cycle} does not advance past {prev_cycle}"
                )));
            }
        }
        prev = Some((frame, cycle));
        frames += 1;
    }
    if frames == 0 {
        return Err((0, "series contains no frames".to_string()));
    }
    Ok(format!(
        "{frames} consecutive frames, cycles strictly increasing"
    ))
}

fn main() -> ExitCode {
    let args = CliArgs::from_env();
    let trace = args.value("trace");
    let series = args.value("series");
    if trace.is_none() && series.is_none() {
        eprintln!("usage: validate_telemetry [--trace FILE.jsonl] [--series FILE.jsonl]");
        return ExitCode::FAILURE;
    }
    let mut summaries = Vec::new();
    for (path, check) in [
        (trace, check_trace as fn(&str) -> Result<String, Failure>),
        (series, check_series),
    ] {
        let Some(path) = path else {
            continue;
        };
        let text = std::fs::read_to_string(path).unwrap_or_else(|err| panic!("read {path}: {err}"));
        match check(&text) {
            Ok(summary) => summaries.push(format!("{path}: {summary}")),
            Err((line_no, msg)) => {
                eprintln!("FAIL {path}:{line_no}: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    for summary in summaries {
        println!("OK {summary}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_lines_pass() {
        let trace = "{\"kind\":\"inject\",\"cycle\":3,\"flow\":1,\"packet\":0,\"node\":1}\n\
                     {\"kind\":\"fault_transition\",\"cycle\":4,\"active\":1}\n\
                     {\"kind\":\"dram_service\",\"cycle\":5,\"flow\":1,\"mc\":0,\"bank\":2,\
                     \"latency\":20,\"row_hit\":true}\n";
        assert!(check_trace(trace).is_ok());
        let series = "{\"frame\":0,\"cycle\":500,\"flows\":[],\"router_occupancy\":[1,2],\
                      \"link_flits\":[3]}\n\
                      {\"frame\":1,\"cycle\":1000,\"flows\":[],\"router_occupancy\":[0,0],\
                      \"link_flits\":[0]}\n";
        assert!(check_series(series).is_ok());
    }

    #[test]
    fn malformed_json_is_rejected() {
        let trace = "{\"kind\":\"grant\",\"cycle\":5,\"flow\":1,,,\"packet\":}";
        let (line_no, msg) = check_trace(trace).unwrap_err();
        assert_eq!(line_no, 1);
        assert!(msg.contains("not valid JSON"), "{msg}");
        let series = "{\"frame\":0,\"cycle\":500,\"flows\":[,,],\
                      \"router_occupancy\":[oops,\"link_flits\":[}";
        let (line_no, msg) = check_series(series).unwrap_err();
        assert_eq!(line_no, 1);
        assert!(msg.contains("not valid JSON"), "{msg}");
    }

    #[test]
    fn ordering_and_field_violations_name_their_line() {
        let regress = "{\"kind\":\"nack\",\"cycle\":9,\"flow\":0,\"packet\":1}\n\
                       {\"kind\":\"nack\",\"cycle\":8,\"flow\":0,\"packet\":2}\n";
        assert_eq!(check_trace(regress).unwrap_err().0, 2);
        let flowless = "{\"kind\":\"retry\",\"cycle\":1,\"seq\":0}";
        assert!(check_trace(flowless).unwrap_err().1.contains("\"flow\""));
        let gap = "{\"frame\":0,\"cycle\":500,\"flows\":[],\"router_occupancy\":[],\"link_flits\":[]}\n\
                   {\"frame\":2,\"cycle\":1500,\"flows\":[],\"router_occupancy\":[],\"link_flits\":[]}\n";
        assert_eq!(check_series(gap).unwrap_err().0, 2);
    }
}
