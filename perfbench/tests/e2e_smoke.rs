//! Smoke test of the whole benchmark at the `tiny` size: all four
//! workloads with their answer checks and the traced ladder, exact counts
//! that repeat per seed, the `BENCHMARK.json` contract, and the driver
//! binary's last line.

use ppwf_perfbench::e2e::drive::Check;
use ppwf_perfbench::e2e::report::{END_TO_END, PER_LAYER};
use ppwf_perfbench::e2e::{run_workload, DataDir, Options, Sizes, Workload, WorkloadResult};
use ppwf_perfbench::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(label: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(label);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny(label: &str, seed: u64, ops: u64, trace: bool) -> Options {
    let root = scratch(label);
    Options {
        seed,
        seconds: 1.0,
        ops: Some(ops),
        trace,
        sizes: Sizes::tiny(),
        data_dir: root.join("data"),
        out_dir: root.join("out"),
    }
}

fn ops_of(workload: Workload) -> u64 {
    match workload {
        Workload::ReadHot => 2_000,
        Workload::ReadThrash => 700,
        Workload::WriteDurable => 320,
        Workload::MixedLive => 400,
    }
}

fn run(workload: Workload, seed: u64, trace: bool) -> (WorkloadResult, Options) {
    let options =
        tiny(&format!("{}-{seed}-{trace}", workload.name()), seed, ops_of(workload), trace);
    let result = run_workload(workload, &options).expect("benchmark I/O");
    (result, options)
}

#[test]
fn every_workload_checks_its_answers_and_reports_every_metric() {
    for workload in Workload::ALL {
        let (mut result, options) = run(workload, 17, true);
        assert!(result.correct(), "{}: {:?}", workload.name(), result.checks);
        assert_eq!(result.failed, 0);
        assert_eq!(result.attempted, ops_of(workload));
        let ran: Vec<&str> = result.checks.iter().map(|c| c.name).collect();
        assert!(ran.contains(&"every_answer_checked"), "{ran:?}");
        if workload.durable() {
            assert!(ran.contains(&"recovery_equals_sequential_replay"), "{ran:?}");
        }
        if workload == Workload::MixedLive {
            assert!(ran.contains(&"sampled_reads_match_reference_at_epoch"), "{ran:?}");
        }
        let names = |rows: &[(&'static str, &'static str, f64)]| {
            rows.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>()
        };
        assert_eq!(names(result.end_to_end.rows()), END_TO_END.to_vec());
        assert_eq!(names(result.layers.rows()), PER_LAYER.to_vec());
        for &(name, _, value) in result.end_to_end.rows() {
            assert!(value > 0.0 && value.is_finite(), "{}: {name} = {value}", workload.name());
        }
        // The ladder ran: its serve rung always records something.
        assert!(result.layers.get("serve.submit_us") > 0.0);
        let trace = options.out_dir.join(format!("trace-{}.jsonl", workload.name()));
        let first = std::fs::read_to_string(&trace).expect("trace written");
        let span = Json::parse(first.lines().next().expect("a span")).expect("span is JSON");
        for key in ["id", "layer", "name", "request", "start_ns", "end_ns", "parent"] {
            assert!(span.get(key).is_some(), "span lacks {key}: {span:?}");
        }
        assert!(!options.data_dir.exists(), "data dir left behind");
        // A host gate that fails is reported and leaves the run standing;
        // any other failing check does not.
        let failing = |host| Check { name: "synthetic", pass: false, detail: String::new(), host };
        result.checks.push(failing(true));
        assert!(result.correct());
        result.checks.push(failing(false));
        assert!(!result.correct());
    }
}

#[test]
fn exact_counts_repeat_per_seed_and_differ_across_seeds() {
    for workload in Workload::ALL {
        let (first, _) = run(workload, 5, false);
        let (again, _) = run(workload, 5, false);
        let (other, _) = run(workload, 6, false);
        assert_eq!(first.counts, again.counts, "{}", workload.name());
        assert_ne!(first.counts, other.counts, "{}", workload.name());
    }
}

#[test]
fn data_dir_is_removed_when_a_run_unwinds() {
    let root = scratch("unwind").join("data");
    let unwound = std::panic::catch_unwind(|| {
        let mut data = DataDir::create(&root).unwrap();
        let storage = data.fresh("doomed");
        std::fs::create_dir_all(&storage).unwrap();
        std::fs::write(storage.join("wal-0.log"), b"x").unwrap();
        panic!("a failed check");
    });
    assert!(unwound.is_err());
    assert!(!root.exists());
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

#[test]
fn benchmark_json_declares_what_the_driver_reports() {
    let declared = benchmark_json();
    let listed = |key: &str| -> Vec<(String, String)> {
        declared
            .get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |names: &[(&str, &str)]| -> Vec<(String, String)> {
        names.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = declared
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    for metric in declared.get("end_to_end").unwrap().items() {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{metric:?}");
    }
    assert_eq!(declared.get("paths").unwrap().items(), [Json::from("perfbench")]);
}

#[test]
fn the_driver_ends_with_the_contract_line() {
    let root = scratch("driver");
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_ppwf_bench"))
            .args(["--workload", "read_hot", "--tiny", "--seed", "3", "--seconds", "0.2"])
            .args(["--data-dir", root.join("data").to_str().unwrap()])
            .args(["--out", root.join("result.json").to_str().unwrap()])
            .args(extra)
            .current_dir(&root)
            .output()
            .expect("driver runs")
    };
    std::fs::create_dir_all(&root).unwrap();
    for (trace, names) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let output = run(&["--trace", trace]);
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8(output.stdout).unwrap();
        let line = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").unwrap();
        let reported: Vec<&str> = metrics.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(reported, names.iter().map(|n| n.0).collect::<Vec<_>>());
    }
    let result = Json::parse(&std::fs::read_to_string(root.join("result.json")).unwrap()).unwrap();
    let sections: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(sections, ["config", "end_to_end", "layers", "gates"]);
    assert!(!run(&["--workload", "no_such_workload"]).status.success());
    assert!(!root.join("data").exists());
}
