//! Metric names, the one-schema result JSON, and `compare`.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! unit test in `tests/e2e_smoke.rs` holds the two lists together.

use super::drive::{Check, Run};
use super::{Options, Workload, POOL_THREADS, SHARDS};
use crate::json::Json;
use crate::stream::KIND_NAMES;
use ppwf_query::engine::CacheSnapshot;
use ppwf_query::ClusterStats;

/// End-to-end metrics: what a client of the front sees. Every workload
/// reports all three; the latency is that of the workload's gated
/// operation — reads, except on `write_durable`. The 99th percentiles are
/// per-layer metrics (`serve.read_p99_us`, `serve.write_p99_us`): on the
/// shared host they do not repeat within any bound the contract allows.
pub const END_TO_END: [(&str, &str); 3] =
    [("throughput_rps", "1/s"), ("latency_p50_us", "us"), ("setup_s", "s")];

/// Per-layer metrics (layers are this repo's modules). Times come from
/// the traced ladder, counts and rates from the public `*Stats` read
/// around the untraced measured phase. A metric a workload does not
/// exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("serve.self_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.warm_inline_share", "ratio"),
    ("serve.fence_waits", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.in_flight_high_water", "count"),
    ("serve.write_batch_mean", "count"),
    ("serve.read_p99_us", "us"),
    ("serve.read_p999_us", "us"),
    ("serve.write_p50_us", "us"),
    ("serve.write_p99_us", "us"),
    ("serve.gen_lag_p99_us", "us"),
    ("pool.dispatch_us", "us"),
    ("cluster.self_us", "us"),
    ("cluster.shards_per_query", "count"),
    ("cluster.front_hit_rate", "ratio"),
    ("cluster.mutate_us", "us"),
    ("engine.self_us", "us"),
    ("engine.result_hit_rate", "ratio"),
    ("keyword.search_us", "us"),
    ("privacy_exec.private_extra_us", "us"),
    ("ranking.ranked_extra_us", "us"),
    ("keyword_index.candidates_us", "us"),
    ("keyword_index.candidates_per_query", "count"),
    ("keyword_index.maintain_us", "us"),
    ("keyword_index.docs_retracted", "count"),
    ("principals.resolve_us", "us"),
    ("principals.access_hit_rate", "ratio"),
    ("view_cache.view_us", "us"),
    ("view_cache.hit_rate", "ratio"),
    ("repository.apply_us", "us"),
    ("wal.append_us", "us"),
    ("wal.syncs_per_write", "ratio"),
    ("wal.overlapped_fsyncs", "count"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.recover_ms", "ms"),
    ("wal.recover_replayed", "count"),
    ("storage.fsync_us", "us"),
    ("snapshot.count", "count"),
    ("snapshot.pause_us", "us"),
    ("snapshot.background_us", "us"),
    ("snapshot.bytes_written", "bytes"),
    ("trace.overhead_share", "ratio"),
];

/// A named table of values, pre-filled with 0 for every declared name so
/// a typo in a `set` is a panic, not a silently missing metric.
#[derive(Clone, Debug)]
pub struct Table {
    rows: Vec<(&'static str, &'static str, f64)>,
}

impl Table {
    pub fn of(names: &[(&'static str, &'static str)]) -> Table {
        Table { rows: names.iter().map(|&(name, unit)| (name, unit, 0.0)).collect() }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let row = self
            .rows
            .iter_mut()
            .find(|row| row.0 == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        row.2 = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.rows.iter().find(|row| row.0 == name).map_or(0.0, |row| row.2)
    }

    pub fn rows(&self) -> &[(&'static str, &'static str, f64)] {
        &self.rows
    }

    /// `{"name": {"value": v, "unit": u}, …}` — the shape of the contract
    /// line's `metrics` and of the result file's `layers`.
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj();
        for &(name, unit, value) in &self.rows {
            let mut metric = Json::obj();
            metric.push("value", value);
            metric.push("unit", unit);
            out.push(name, metric);
        }
        out
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The four end-to-end metrics of one untraced run.
pub fn end_to_end(run: &Run, workload: Workload) -> Table {
    let mut table = Table::of(&END_TO_END);
    // The open loop completes what it is offered, window after window:
    // its rate is the achieved one over the whole phase, which falls
    // below the offered rate only when a backlog forms.
    let throughput = if workload == Workload::MixedLive {
        run.measured.completed() as f64 / run.measured.elapsed_s.max(1e-9)
    } else {
        run.measured.windowed_throughput()
    };
    table.set("throughput_rps", throughput);
    table.set("latency_p50_us", run.measured.window_median_us(|w| w.gated(workload), 0.5));
    table.set("setup_s", median(&run.setup_s));
    table
}

/// Fill the counter- and driver-derived per-layer metrics from the
/// stats cuts around the measured phase.
pub fn layer_counters(run: &Run, table: &mut Table) {
    let (before, after) = (&run.before, &run.after);
    let m = &run.measured;
    table.set(
        "serve.warm_inline_share",
        ratio(after.serve.warm_inline - before.serve.warm_inline, m.reads.count()),
    );
    table.set("serve.fence_waits", (after.serve.fence_waits - before.serve.fence_waits) as f64);
    table.set("serve.queue_high_water", after.serve.queue_high_water as f64);
    table.set("serve.in_flight_high_water", after.serve.in_flight_high_water as f64);
    table.set(
        "serve.write_batch_mean",
        ratio(
            after.serve.mutations - before.serve.mutations,
            after.serve.write_batches - before.serve.write_batches,
        ),
    );
    // Window medians, like the gated metrics; the p99.9 is whole-phase,
    // where a host stall or a snapshot pause shows undiluted.
    table.set("serve.read_p99_us", m.window_median_us(|w| &w.reads, 0.99));
    table.set("serve.read_p999_us", m.reads.quantile_us(0.999));
    table.set("serve.write_p50_us", m.window_median_us(|w| &w.writes, 0.5));
    table.set("serve.write_p99_us", m.window_median_us(|w| &w.writes, 0.99));
    table.set("serve.gen_lag_p99_us", m.window_median_us(|w| &w.gen_lag, 0.99));

    // Hit rate of a cache over the measured phase alone.
    let hit_rate = |pick: fn(&ClusterStats) -> CacheSnapshot| {
        let (b, a) = (pick(&before.cluster), pick(&after.cluster));
        let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
        ratio(hits, hits + misses)
    };
    table.set("cluster.front_hit_rate", hit_rate(|c| c.front));
    table.set(
        "engine.result_hit_rate",
        hit_rate(|c| c.aggregate.keyword.merge(c.aggregate.private).merge(c.aggregate.ranked)),
    );
    table.set("principals.access_hit_rate", hit_rate(|c| c.aggregate.access));
    table.set("view_cache.hit_rate", hit_rate(|c| c.aggregate.views));
    table
        .set("keyword_index.docs_retracted", (after.docs_retracted - before.docs_retracted) as f64);

    if let (Some(b), Some(a)) = (&before.durability, &after.durability) {
        let appends = a.appends - b.appends;
        table.set("wal.syncs_per_write", ratio(a.syncs - b.syncs, appends));
        table.set("wal.overlapped_fsyncs", (a.overlapped_fsyncs - b.overlapped_fsyncs) as f64);
        let written = (a.bytes_appended - b.bytes_appended)
            + (a.snapshot_bytes_written - b.snapshot_bytes_written);
        table.set("wal.bytes_per_user_byte", ratio(written, run.user_bytes));
        let snapshots = a.snapshots - b.snapshots;
        table.set("snapshot.count", snapshots as f64);
        table.set("snapshot.pause_us", ratio(a.snapshot_pause_us - b.snapshot_pause_us, snapshots));
        table.set(
            "snapshot.background_us",
            ratio(a.snapshot_background_us - b.snapshot_background_us, snapshots),
        );
        table.set(
            "snapshot.bytes_written",
            (a.snapshot_bytes_written - b.snapshot_bytes_written) as f64,
        );
    }
    if let Some((stats, recover_ms)) = &run.recovery {
        table.set("wal.recover_ms", *recover_ms);
        table.set("wal.recover_replayed", stats.replayed as f64);
    }
}

/// The regime checks: each workload must actually be in the regime its
/// "why" claims, or its numbers mean something else.
pub fn regime_checks(
    run: &Run,
    workload: Workload,
    options: &Options,
    layers: &Table,
) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut gate = |name: &'static str, pass: bool, detail: String, host: bool| {
        checks.push(Check { name, pass, detail, host });
    };
    let mut check = |name, pass, detail| gate(name, pass, detail, false);
    match workload {
        Workload::ReadHot => {
            let share = layers.get("serve.warm_inline_share");
            check(
                "read_hot_is_all_warm_inline",
                share == 1.0,
                format!("warm_inline_share {share}"),
            );
        }
        Workload::ReadThrash => {
            let (front, engine) =
                (layers.get("cluster.front_hit_rate"), layers.get("engine.result_hit_rate"));
            check(
                "read_thrash_never_hits_a_result_cache",
                front == 0.0 && engine == 0.0,
                format!("front_hit_rate {front}, result_hit_rate {engine}"),
            );
        }
        Workload::WriteDurable => {
            let syncs = layers.get("wal.syncs_per_write");
            check(
                "write_durable_group_commits",
                syncs > 0.0 && syncs < 0.25,
                format!("syncs_per_write {syncs:.4}"),
            );
        }
        Workload::MixedLive => {
            let rate = options.sizes.live_rate;
            if options.ops.is_none() {
                let offered = (rate as f64 * options.seconds).floor();
                check(
                    "open_loop_achieved_offered_rate",
                    run.measured.attempted as f64 >= offered * 0.999,
                    format!("{} issued of {offered} scheduled", run.measured.attempted),
                );
            }
            // How the host kept the open loop's time. Requests are timed
            // from their due times, so a late generator is already in every
            // latency; these two say so, and do not fail the run.
            let lag = layers.get("serve.gen_lag_p99_us");
            let on_time = lag <= 2000.0;
            gate("open_loop_generator_on_time", on_time, format!("gen_lag_p99 {lag:.1} us"), true);
            let backlog = run.measured.backlog;
            gate(
                "open_loop_backlog_under_one_second",
                backlog <= rate,
                format!("{backlog} pending at schedule end, offered {rate}/s"),
                true,
            );
        }
    }
    checks
}

/// Exact counts two runs of one seed and one operation count agree on.
pub fn exact_counts(run: &Run) -> Json {
    let mut counts = Json::obj();
    counts.push("submitted", run.measured.attempted);
    counts.push("reads", run.measured.reads.count());
    counts.push("writes", run.measured.writes.count());
    let mut kinds = Json::obj();
    for (name, &n) in KIND_NAMES.iter().zip(&run.measured.writes_by_kind) {
        kinds.push(name, n);
    }
    counts.push("writes_by_kind", kinds);
    counts.push("acknowledged_user_bytes", run.user_bytes);
    counts.push("hit_checksum", format!("{:016x}", run.hit_checksum));
    counts.push("nonempty_answer_share", run.nonempty_share);
    counts
}

pub fn checks_json(checks: &[Check]) -> Json {
    Json::Arr(
        checks
            .iter()
            .map(|c| {
                let mut gate = Json::obj();
                gate.push("name", c.name);
                gate.push("pass", c.pass);
                gate.push("fails_run", !c.host);
                gate.push("detail", c.detail.as_str());
                gate
            })
            .collect(),
    )
}

/// The `config` block: everything that must be identical on both sides
/// of a comparison, and what the host looked like.
pub fn config_json(options: &Options, wakeup_probe_us: f64, fsync_probe_us: Option<f64>) -> Json {
    let policy = super::durable_policy();
    let mut config = Json::obj();
    config.push("seed", options.seed);
    config.push("seconds", options.seconds);
    if let Some(ops) = options.ops {
        config.push("ops", ops);
    }
    config.push("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()));
    config.push("pool_threads", POOL_THREADS);
    config.push("generator_threads", 1usize);
    config.push("shards", SHARDS);
    config.push("shard_strategy", "RoundRobin");
    config.push("specs", options.sizes.specs);
    config.push("hot_queries", options.sizes.hot_queries);
    config.push("thrash_queries", options.sizes.thrash_queries);
    config.push("live_queries", options.sizes.live_queries);
    config.push("live_rate_rps", options.sizes.live_rate);
    config.push("setups_per_run_min", options.sizes.setups.0);
    config.push("setups_per_run_max", options.sizes.setups.1);
    config.push("read_mix", "60% Keyword, 20% Private{FilterThenSearch}, 20% Ranked{VisibleOnly}");
    config.push("policy", format!("{policy:?}"));
    config.push("data_dir", options.data_dir.display().to_string());
    config.push("thread_wakeup_probe_median_us", wakeup_probe_us);
    if let Some(us) = fsync_probe_us {
        config.push("fsync_probe_median_us", us);
        config.push("fsync_suspect", us < 5.0);
    }
    config
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Python's `statistics.quantiles(values, n=4)` (the exclusive method):
/// `[q1, median, q3]`. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let m = data.len();
    if m < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// One workload's end-to-end block over `runs` repeats: the median as
/// `value`, the quartiles, and every run's reading.
pub fn repeated_json(runs: &[Table]) -> Json {
    let mut out = Json::obj();
    for (i, &(name, unit, _)) in runs[0].rows().iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|t| t.rows()[i].2).collect();
        let [q1, mid, q3] = quartiles(&values);
        let mut metric = Json::obj();
        metric.push("value", mid);
        metric.push("unit", unit);
        metric.push("q1", q1);
        metric.push("q3", q3);
        metric.push("runs", values.into_iter().map(Json::Num).collect::<Vec<_>>());
        out.push(name, metric);
    }
    out
}

/// Outcome of comparing one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judge a metric: `base` and `change` are the runs of each side,
/// `lower_better` its direction, `bound` the share of the base median by
/// which it may worsen.
///
/// When either side's own spread (quartile distance over median) is wider
/// than the bound the runs cannot resolve a change of that size: the
/// verdict is `Unresolved` — unless every run of the change reads better
/// than every run of the base.
pub fn judge(base: &[f64], change: &[f64], lower_better: bool, bound: f64) -> Verdict {
    let [bq1, bmid, bq3] = quartiles(base);
    let [cq1, cmid, cq3] = quartiles(change);
    let worsening = if lower_better { (cmid - bmid) / bmid } else { (bmid - cmid) / bmid };
    let spread = ((bq3 - bq1) / bmid).max((cq3 - cq1) / cmid);
    let all_better =
        base.iter().all(|&b| change.iter().all(|&c| if lower_better { c < b } else { c > b }));
    if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn runs_of(metric: &Json) -> Vec<f64> {
    let runs: Vec<f64> =
        metric.get("runs").map_or(&[][..], Json::items).iter().filter_map(Json::as_f64).collect();
    if runs.is_empty() {
        metric.get("value").and_then(Json::as_f64).into_iter().collect()
    } else {
        runs
    }
}

/// `ppwf_bench compare`: per workload × end-to-end metric, both medians,
/// the ratio with its base, and the verdict under the bounds in
/// `benchmark` (a parsed `BENCHMARK.json`). Returns the report and the
/// number of `regressed` verdicts.
pub fn compare(base: &Json, change: &Json, benchmark: &Json) -> Result<(String, usize), String> {
    use std::fmt::Write as _;
    let mut report = String::new();
    let (mut regressed, mut unresolved) = (0, 0);
    let declared = benchmark.get("end_to_end").ok_or("BENCHMARK.json has no end_to_end")?;
    let base_e2e = base.get("end_to_end").ok_or("base result has no end_to_end")?;
    let change_e2e = change.get("end_to_end").ok_or("change result has no end_to_end")?;
    let _ = writeln!(
        report,
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "base median", "change median", "ratio", "bound"
    );
    for (workload, base_metrics) in base_e2e.fields() {
        let Some(change_metrics) = change_e2e.get(workload) else { continue };
        for spec in declared.items() {
            let name = spec.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = spec.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            let lower_better = spec.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(b), Some(c)) = (base_metrics.get(name), change_metrics.get(name)) else {
                return Err(format!("{workload}: metric {name} missing from a result file"));
            };
            let (b_runs, c_runs) = (runs_of(b), runs_of(c));
            let verdict = judge(&b_runs, &c_runs, lower_better, bound);
            let (b_mid, c_mid) = (quartiles(&b_runs)[1], quartiles(&c_runs)[1]);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            let _ = writeln!(
                report,
                "{workload:<14} {name:<16} {b_mid:>14.4} {c_mid:>14.4} {:>7.3}x {:>6.0}%  {}",
                c_mid / b_mid,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    let _ = writeln!(
        report,
        "ratio = change median / base median; {regressed} regressed, {unresolved} unresolved"
    );
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [80.0, 130.0, 95.0, 140.0, 100.0];
        assert_eq!(judge(&steady, &steady, true, 0.1), Verdict::Ok);
        assert_eq!(judge(&steady, &slower, true, 0.1), Verdict::Regressed);
        assert_eq!(judge(&slower, &steady, true, 0.1), Verdict::Ok);
        assert_eq!(judge(&steady, &noisy, true, 0.1), Verdict::Unresolved);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&slower, &steady, false, 0.1), Verdict::Regressed);
        // Wide spread, but every run of the change beats every base run.
        let fast_noisy = [40.0, 70.0, 50.0, 75.0, 45.0];
        assert_eq!(judge(&steady, &fast_noisy, true, 0.1), Verdict::Ok);
    }
}
