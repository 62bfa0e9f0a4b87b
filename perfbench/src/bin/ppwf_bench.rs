//! `ppwf_bench` — the E20 end-to-end benchmark driver.
//!
//! ```text
//! ppwf_bench --workload <read_hot|read_thrash|write_durable|mixed_live|all>
//!            [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
//!            [--data-dir DIR] [--out FILE] [--ops N] [--tiny]
//! ppwf_bench compare <base.json> <change.json> [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints every metric by name with its unit, writes the one-schema
//! result JSON (`config`, `end_to_end`, `layers`, `gates`), and ends with
//! one JSON line per workload: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). It exits non-zero when any answer check or regime gate
//! failed; a host gate (the open loop's generator lag and backlog) prints
//! `[HOST]` and does not. `compare` exits non-zero on any `regressed`.

use ppwf_perfbench::e2e::drive::{probe_fsync_us, probe_thread_wakeup_us};
use ppwf_perfbench::e2e::report::{self, Table};
use ppwf_perfbench::e2e::{run_workload, DataDir, Options, Sizes, Workload, WorkloadResult};
use ppwf_perfbench::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: ppwf_bench --workload <name|all> [--seed N] [--seconds S] \
[--trace 0|1] [--repeat N] [--data-dir DIR] [--out FILE] [--ops N] [--tiny]\n       \
ppwf_bench compare <base.json> <change.json> [--benchmark BENCHMARK.json]";

fn fail(message: &str) -> ExitCode {
    eprintln!("ppwf_bench: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--benchmark" => match args.next() {
                Some(path) => benchmark = path.clone(),
                None => return fail("--benchmark needs a path"),
            },
            path => files.push(path.to_string()),
        }
    }
    let [base, change] = files.as_slice() else { return fail("compare needs two result files") };
    let outcome = read_json(base).and_then(|base| {
        let change = read_json(change)?;
        let benchmark = read_json(&benchmark)?;
        report::compare(&base, &change, &benchmark)
    });
    match outcome {
        Ok((text, regressed)) => {
            print!("{text}");
            if regressed > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => fail(&message),
    }
}

fn print_result(result: &WorkloadResult, trace: bool) {
    println!("== {} ==", result.workload.name());
    println!("end to end (untraced run):");
    for &(name, unit, value) in result.end_to_end.rows() {
        println!("  {name:<38} {value:>16.4} {unit}");
    }
    println!(
        "per layer ({}):",
        if trace {
            "counters + traced ladder"
        } else {
            "counters only; ladder times need --trace 1"
        }
    );
    for &(name, unit, value) in result.layers.rows() {
        println!("  {name:<38} {value:>16.4} {unit}");
    }
    println!("exact counts: {}", result.counts.render());
    for check in &result.checks {
        let verdict = match (check.pass, check.host) {
            (true, _) => "pass",
            (false, true) => "HOST",
            (false, false) => "FAIL",
        };
        println!("  [{verdict}] {} — {}", check.name, check.detail);
    }
    for finding in &result.findings {
        println!("  finding: {finding}");
    }
}

fn contract_line(result: &WorkloadResult, metrics: &Table) -> String {
    let mut line = Json::obj();
    line.push("correct", result.correct());
    line.push("attempted", result.attempted);
    line.push("failed", result.failed);
    line.push("metrics", metrics.to_json());
    line.render()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let mut workloads: Option<Vec<Workload>> = None;
    let mut options = Options {
        seed: 17,
        seconds: 10.0,
        ops: None,
        trace: false,
        sizes: Sizes::full(),
        data_dir: PathBuf::from("target/ppwf-bench/data"),
        out_dir: PathBuf::from("target/ppwf-bench"),
    };
    let mut out_file: Option<PathBuf> = None;
    let mut repeat = 1usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            options.sizes = Sizes::tiny();
            continue;
        }
        let Some(value) = it.next() else { return fail(&format!("{flag} needs a value")) };
        let parsed = match flag.as_str() {
            "--workload" => {
                workloads = match value.as_str() {
                    "all" => Some(Workload::ALL.to_vec()),
                    name => Workload::parse(name).map(|w| vec![w]),
                };
                workloads.is_some()
            }
            "--seed" => value.parse().map(|v| options.seed = v).is_ok(),
            "--seconds" => {
                value.parse().map(|v| options.seconds = v).is_ok()
                    && options.seconds > 0.0
                    && options.seconds <= 600.0
            }
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    options.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--repeat" => value.parse().map(|v| repeat = v).is_ok() && repeat >= 1,
            "--ops" => {
                value.parse().map(|v| options.ops = Some(v)).is_ok() && options.ops > Some(0)
            }
            "--data-dir" => {
                options.data_dir = PathBuf::from(value);
                true
            }
            "--out" => {
                out_file = Some(PathBuf::from(value));
                true
            }
            _ => return fail(&format!("unknown flag {flag}")),
        };
        if !parsed {
            return fail(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workloads) = workloads else { return fail("--workload is required") };

    // Taken before any durable workload: what an fsync costs here, and
    // whether it is one at all.
    let fsync_probe_us = if workloads.iter().any(|w| w.durable()) {
        let probe = match DataDir::create(&options.data_dir) {
            Ok(mut dir) => probe_fsync_us(&dir.fresh("fsync-probe")),
            Err(error) => return fail(&format!("data dir: {error}")),
        };
        println!("fsync probe: median {probe:.1} us over 200 raw append+sync calls");
        if probe < 5.0 {
            println!(
                "!!! fsync looks like a no-op (tmpfs?) — durable numbers are not device numbers !!!"
            );
        }
        Some(probe)
    } else {
        None
    };

    let wakeup_probe_us = probe_thread_wakeup_us();
    println!(
        "thread wake-up probe: median {wakeup_probe_us:.1} us to wake a thread parked for 50 us"
    );

    let mut document = Json::obj();
    document.push("config", report::config_json(&options, wakeup_probe_us, fsync_probe_us));
    let (mut end_to_end, mut layers, mut gates) = (Json::obj(), Json::obj(), Json::obj());
    let mut lines = Vec::new();
    let mut all_correct = true;
    for &workload in &workloads {
        let mut runs: Vec<WorkloadResult> = Vec::new();
        for _ in 0..repeat {
            match run_workload(workload, &options) {
                Ok(result) => {
                    print_result(&result, options.trace);
                    runs.push(result);
                }
                Err(error) => return fail(&format!("{}: {error}", workload.name())),
            }
        }
        let tables: Vec<Table> = runs.iter().map(|r| r.end_to_end.clone()).collect();
        let summary = report::repeated_json(&tables);
        if repeat > 1 {
            println!("{} over {repeat} runs (median [q1, q3]):", workload.name());
            for (name, metric) in summary.fields() {
                let field = |key: &str| metric.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "  {name:<38} {:>16.4} [{:.4}, {:.4}] {}",
                    field("value"),
                    field("q1"),
                    field("q3"),
                    metric.get("unit").and_then(Json::as_str).unwrap_or("")
                );
            }
        }
        end_to_end.push(workload.name(), summary);
        let last = runs.last().expect("repeat >= 1");
        let mut layer_block = Json::obj();
        layer_block.push("metrics", last.layers.to_json());
        layer_block.push("exact_counts", last.counts.clone());
        layer_block.push(
            "findings",
            last.findings.iter().map(|f| Json::from(f.as_str())).collect::<Vec<_>>(),
        );
        layers.push(workload.name(), layer_block);
        let all_checks: Vec<_> = runs.iter().flat_map(|r| r.checks.iter().cloned()).collect();
        gates.push(workload.name(), report::checks_json(&all_checks));
        all_correct &= runs.iter().all(WorkloadResult::correct);
        let metrics = if options.trace { &last.layers } else { &last.end_to_end };
        lines.push(contract_line(last, metrics));
    }
    document.push("end_to_end", end_to_end);
    document.push("layers", layers);
    document.push("gates", gates);
    let out_file = out_file.unwrap_or_else(|| {
        let name = if workloads.len() == 1 { workloads[0].name() } else { "all" };
        options.out_dir.join(format!("result-{name}.json"))
    });
    let written = out_file
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out_file, document.render_pretty()));
    match written {
        Ok(()) => println!("result written to {}", out_file.display()),
        Err(error) => return fail(&format!("{}: {error}", out_file.display())),
    }
    for line in lines {
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
