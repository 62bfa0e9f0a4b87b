//! The one harness under the E10–E19 baseline emitters: flags declared
//! once with their defaults ([`flags!`](crate::flags)), one ordered JSON
//! record writer ([`Json`], [`write_record`]), and one copy of each timed
//! pass or check that more than one emitter runs.

use crate::E10_GROUPS;
use ppwf_query::cluster::EngineCluster;
use ppwf_query::keyword::KeywordQuery;
use ppwf_query::route::ShardStrategy;
use ppwf_query::serve::{QueryAnswer, ServeFront, ServeRequest, ServeStats};
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::mutation::Mutation;
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::repository::Repository;
use ppwf_repo::storage::{FsStorage, StorageBackend};
use ppwf_repo::wal::{DurabilityPolicy, DurabilityStats, DurableLog, RecoveryStats};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

/// Declare an emitter's flags once, as a struct whose fields are the
/// flags (`min_speedup` is `--min-speedup`) and whose defaults are the
/// flags' text, parsed like a value given on the command line. Generates
/// `parse()` (the process's arguments; an error prints the usage and
/// exits 2) and `parse_from(args)`.
///
/// ```
/// ppwf_bench::flags! {
///     struct Config {
///         specs: Vec<usize> = "8,16,32",
///         reps: usize = "50",
///     }
/// }
/// // An emitter calls `Config::parse()`.
/// let config = Config::parse_from(["--reps".to_string(), "5".to_string()]).unwrap();
/// assert_eq!((config.specs, config.reps), (vec![8, 16, 32], 5));
/// ```
#[macro_export]
macro_rules! flags {
    ($(#[$meta:meta])* struct $name:ident { $($field:ident: $ty:ty = $default:literal),* $(,)? }) => {
        $(#[$meta])*
        struct $name { $($field: $ty,)* }

        impl $name {
            /// Parse `args` (without the program name); an error names the flag.
            fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
                let mut flags = $crate::harness::Flags::new(args)?;
                let config = $name { $($field: flags.take(stringify!($field), $default)?,)* };
                flags.finish()?;
                Ok(config)
            }

            /// The process's flags.
            #[allow(dead_code)]
            fn parse() -> Self {
                $crate::harness::parse_env(Self::parse_from, &[$((stringify!($field), $default)),*])
            }
        }
    };
}

/// A flag's value, parsed from its command-line text.
pub trait FlagValue: Sized {
    fn parse_flag(text: &str) -> Result<Self, String>;
}

macro_rules! parsed_flag {
    ($($ty:ty),*) => {$(
        impl FlagValue for $ty {
            fn parse_flag(text: &str) -> Result<Self, String> {
                text.parse().map_err(|e| format!("{e}"))
            }
        }
    )*};
}
parsed_flag!(usize, u64, u32, f64, String);

/// A comma-separated list, such as `1,2,4`.
impl<T: FlagValue> FlagValue for Vec<T> {
    fn parse_flag(text: &str) -> Result<Self, String> {
        text.split(',').map(|item| T::parse_flag(item.trim())).collect()
    }
}

/// Command-line arguments as `--name value` pairs, claimed one declared
/// flag at a time.
pub struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Pair up `args` (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut args = args.into_iter();
        let mut pairs = Vec::new();
        while let Some(name) = args.next() {
            if !name.starts_with("--") {
                return Err(format!("unexpected argument {name:?}"));
            }
            let value = args.next().ok_or_else(|| format!("{name} needs a value"))?;
            pairs.push((name, value));
        }
        Ok(Flags { pairs })
    }

    /// The value of the flag for field `field` (the last one given), or
    /// `default`, parsed.
    pub fn take<T: FlagValue>(&mut self, field: &str, default: &str) -> Result<T, String> {
        let flag = format!("--{}", field.replace('_', "-"));
        let mut given = None;
        self.pairs.retain(|(name, value)| {
            let claimed = *name == flag;
            if claimed {
                given = Some(value.clone());
            }
            !claimed
        });
        let text = given.as_deref().unwrap_or(default);
        T::parse_flag(text).map_err(|e| format!("{flag}: bad value {text:?} ({e})"))
    }

    /// Refuse a flag no field claimed.
    pub fn finish(self) -> Result<(), String> {
        match self.pairs.first() {
            Some((name, _)) => Err(format!("unknown flag {name}")),
            None => Ok(()),
        }
    }
}

/// Parse the process's arguments with `parse`; on an error, print it and
/// the usage (each flag with its default) and exit 2.
pub fn parse_env<T>(
    parse: impl FnOnce(Vec<String>) -> Result<T, String>,
    usage: &[(&str, &str)],
) -> T {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    parse(args.collect()).unwrap_or_else(|e| {
        let flags: Vec<String> =
            usage.iter().map(|(f, d)| format!("[--{} {d}]", f.replace('_', "-"))).collect();
        eprintln!("error: {e}\nusage: {program} {}", flags.join(" "));
        std::process::exit(2)
    })
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// A record value. Objects keep the order their fields were pushed in.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// A number with a fixed count of decimals, or (`None`) its shortest
    /// round-trip form.
    Num(f64, Option<usize>),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// `value` with exactly `decimals` digits after the point.
pub fn fixed(value: f64, decimals: usize) -> Json {
    Json::Num(value, Some(decimals))
}

impl Json {
    /// An empty object to push fields into.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append `key: value` to an object (panics on a non-object: a bug in
    /// the emitter).
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("push into non-object {other:?}"),
        }
    }

    /// [`Self::push`], by value, for building nested objects in place.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.push(key, value);
        self
    }

    /// Two-space indented text; a NaN or infinite number is refused with
    /// the path of its key.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.write(&mut out, 0, &mut String::new())?;
        out.push('\n');
        Ok(out)
    }

    fn write(&self, out: &mut String, depth: usize, path: &mut String) -> Result<(), String> {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", depth));
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => _ = write!(out, "{n}"),
            Json::Num(n, _) if !n.is_finite() => {
                return Err(format!("non-finite number {n} at {path}"));
            }
            Json::Num(n, Some(decimals)) => _ = write!(out, "{:.*}", *decimals, n),
            Json::Num(n, None) => _ = write!(out, "{n}"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    newline(out, depth + 1);
                    let len = path.len();
                    _ = write!(path, "[{i}]");
                    item.write(out, depth + 1, path)?;
                    path.truncate(len);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    newline(out, depth + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    let len = path.len();
                    _ = write!(path, "{}{key}", if len > 0 { "." } else { "" });
                    value.write(out, depth + 1, path)?;
                    path.truncate(len);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => _ = write!(out, "\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n.into())
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n, None)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

/// Write `record` to `path`. A record that does not render is a failed
/// run, before any gate is read.
pub fn write_record(path: &str, record: &Json) {
    let text = record.render().unwrap_or_else(|e| panic!("record not written: {e}"));
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nbaseline written to {path}");
}

// ---------------------------------------------------------------------------
// Shared passes
// ---------------------------------------------------------------------------

/// Serve `log` once, request `i` as group `E10_GROUPS[i % 3]`; returns
/// (elapsed µs, hits served).
pub fn serve_pass(mut serve: impl FnMut(&str, &str) -> usize, log: &[String]) -> (f64, usize) {
    let t = Instant::now();
    let mut hits = 0usize;
    for (i, q) in log.iter().enumerate() {
        hits += serve(E10_GROUPS[i % E10_GROUPS.len()], q);
    }
    (t.elapsed().as_secs_f64() * 1e6, hits)
}

/// Best of `reps` serve passes — warm passes finish in tens of
/// microseconds, where one scheduler interrupt dwarfs the signal; the
/// minimum is the standard noise-floor estimate.
pub fn best_pass(
    reps: usize,
    mut serve: impl FnMut(&str, &str) -> usize,
    log: &[String],
) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut hits = 0usize;
    for _ in 0..reps.max(1) {
        let (us, h) = serve_pass(&mut serve, log);
        best = best.min(us);
        hits = h;
    }
    (best, hits)
}

/// The serve closure of a blocking read: `cluster`'s keyword hit count,
/// 0 for an unknown group.
pub fn hits(cluster: &EngineCluster) -> impl FnMut(&str, &str) -> usize + '_ {
    |g, q| cluster.search_as(g, q).map(|h| h.len()).unwrap_or(0)
}

/// Run `a` and `b` once each — `a` first on an even `rep`, `b` first on an
/// odd one — so neither side of a paired measurement always runs second.
pub fn alternate<A, B>(rep: usize, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if rep.is_multiple_of(2) {
        let a = a();
        (a, b())
    } else {
        let b = b();
        (a(), b)
    }
}

/// Assert `a` and `b` answer every request of `log` with the same spec ids.
pub fn assert_same_answers(a: &EngineCluster, b: &EngineCluster, log: &[String], what: &str) {
    for (i, q) in log.iter().enumerate() {
        let g = E10_GROUPS[i % E10_GROUPS.len()];
        let ids = |c: &EngineCluster| -> Vec<u32> {
            c.search_as(g, q).unwrap().iter().map(|h| h.spec.0).collect()
        };
        assert_eq!(ids(a), ids(b), "{what} diverged on {q:?}");
    }
}

/// Assert the maintained index answers exactly like a fresh full build of
/// `repo`: counts, and every log term's postings, df and idf bits.
pub fn assert_index_equivalent(maintained: &KeywordIndex, repo: &Repository, log: &[String]) {
    let fresh = KeywordIndex::build(repo);
    assert_eq!(maintained.doc_count(), fresh.doc_count(), "doc_count diverged");
    assert_eq!(maintained.term_count(), fresh.term_count(), "term_count diverged");
    for q in log {
        for term in &KeywordQuery::parse(q).terms {
            assert_eq!(
                maintained.lookup_query_term(term),
                fresh.lookup_query_term(term),
                "postings diverged on {term:?}"
            );
            assert_eq!(maintained.df_cached(term), fresh.df(term), "df diverged on {term:?}");
            assert_eq!(
                maintained.idf_cached(term).to_bits(),
                fresh.idf_cached(term).to_bits(),
                "idf diverged on {term:?}"
            );
        }
    }
}

/// Drive `stream` through two copies of `base`: after every write one
/// rebuilds its [`KeywordIndex`] from scratch, the other folds in the
/// write's typed effect (`KeywordIndex::apply_effect`). The maintained
/// index must then answer `log` like a fresh build. Returns (rebuild µs,
/// effect µs, the written repository, its maintained index).
pub fn maintenance_pass(
    base: impl Fn() -> Repository,
    stream: &[Mutation],
    log: &[String],
) -> (f64, f64, Repository, KeywordIndex) {
    let mut repo = base();
    let mut index = KeywordIndex::build(&repo);
    let mut full_us = 0.0f64;
    for m in stream.iter().cloned() {
        repo.apply(m).expect("write stream valid");
        let t = Instant::now();
        index = KeywordIndex::build(&repo);
        full_us += t.elapsed().as_secs_f64() * 1e6;
    }
    drop(index);
    let mut repo = base();
    let mut index = KeywordIndex::build(&repo);
    let mut effect_us = 0.0f64;
    for m in stream.iter().cloned() {
        let effect = repo.apply(m).expect("write stream valid");
        let t = Instant::now();
        index.apply_effect(&repo, &effect);
        effect_us += t.elapsed().as_secs_f64() * 1e6;
    }
    assert_index_equivalent(&index, &repo, log);
    (full_us, effect_us, repo, index)
}

/// The restart path: recover `(snapshot, WAL suffix)` from `backend`,
/// partition the recovered corpus across `shards` shards on `pool` and
/// attach the log ([`DurableLog::open`], `with_config`,
/// `attach_durability`).
pub fn open_durable(
    backend: Arc<dyn StorageBackend>,
    policy: DurabilityPolicy,
    shards: usize,
    pool: Arc<WorkerPool>,
) -> (EngineCluster, RecoveryStats) {
    let opened = DurableLog::open(backend, policy).expect("recover the durable log");
    let registry = crate::standard_registry();
    let strategy = ShardStrategy::RoundRobin;
    let mut cluster =
        EngineCluster::with_config(opened.repository, registry, shards, strategy, pool);
    cluster.attach_durability(opened.log).expect("attach the durable log");
    (cluster, opened.recovery)
}

/// Open a durable 2-shard cluster over a fresh [`FsStorage`] root and
/// push `stream` through a [`ServeFront`] with up to `window` requests in
/// flight. Returns (elapsed µs, WAL stats, serve stats, the image
/// recovered from what the pass wrote).
pub fn front_mutation_pass(
    root: &Path,
    stream: &[Mutation],
    policy: DurabilityPolicy,
    window: usize,
) -> (f64, DurabilityStats, ServeStats, Vec<u8>) {
    let pool = Arc::new(WorkerPool::new(4));
    let backend: Arc<dyn StorageBackend> =
        Arc::new(FsStorage::open(root).expect("bench storage root"));
    let (cluster, _) = open_durable(Arc::clone(&backend), policy, 2, Arc::clone(&pool));
    let front = ServeFront::with_pool(cluster, pool);

    let acked = |ticket: ppwf_repo::ticket::Ticket<_>| {
        let response: ppwf_query::serve::ServeResponse = ticket.wait();
        assert!(
            matches!(response.answer, QueryAnswer::Mutated(Ok(_))),
            "durable mutation refused on healthy storage"
        );
    };
    let t = Instant::now();
    let mut inflight = VecDeque::with_capacity(window);
    for mutation in stream {
        inflight.push_back(front.submit(ServeRequest::mutate(mutation.clone())));
        if inflight.len() >= window.max(1) {
            acked(inflight.pop_front().expect("non-empty window"));
        }
    }
    inflight.into_iter().for_each(acked);
    let us = t.elapsed().as_secs_f64() * 1e6;
    front.quiesce();
    front.with_cluster(|c| c.wait_for_pipeline());
    let wal = front.durability_stats().expect("durable front reports WAL stats");
    // No time is believed over an unverified log: the caller holds the
    // image recovered from what this pass wrote to its reference.
    let (recovered, recovery) =
        Repository::recover(backend.as_ref()).expect("recovery over healthy log");
    assert_eq!(recovery.last_seq, stream.len() as u64, "durable log missed mutations");
    (us, wal, front.stats(), recovered.save().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::flags! {
        struct Config {
            out: String = "BENCH_x.json",
            specs: Vec<usize> = "8,16,32",
            reps: usize = "50",
            min_speedup: f64 = "0.7",
        }
    }

    fn parse(args: &[&str]) -> Result<Config, String> {
        Config::parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn defaults_parse_like_given_values() {
        let c = parse(&[]).unwrap();
        assert_eq!(
            (c.out.as_str(), c.specs, c.reps, c.min_speedup),
            ("BENCH_x.json", vec![8, 16, 32], 50, 0.7)
        );
        let c = parse(&["--specs", "1, 2,4", "--min-speedup", "2.5", "--out", "/tmp/x y.json"])
            .unwrap();
        assert_eq!(
            (c.out.as_str(), c.specs, c.reps, c.min_speedup),
            ("/tmp/x y.json", vec![1, 2, 4], 50, 2.5)
        );
        assert_eq!(
            parse(&["--reps", "1", "--reps", "7"]).unwrap().reps,
            7,
            "the last one given wins"
        );
    }

    #[test]
    fn every_error_names_its_flag() {
        let err = |args: &[&str]| parse(args).err().expect("refused");
        assert!(err(&["--reps"]).contains("--reps needs a value"));
        assert!(err(&["--specs", "4", "--reps"]).contains("--reps needs a value"));
        assert!(err(&["--reps", "many"]).contains("--reps: bad value \"many\""));
        assert!(err(&["--reps", "-1"]).contains("--reps"));
        assert!(err(&["--specs", "1,x,4"]).contains("--specs: bad value \"1,x,4\""));
        assert!(err(&["--specs", ""]).contains("--specs"));
        assert!(err(&["--min-speedup", "fast"]).contains("--min-speedup"));
        assert!(err(&["--shards", "4"]).contains("unknown flag --shards"));
        assert!(err(&["--min_speedup", "4"]).contains("unknown flag --min_speedup"));
        assert!(err(&["specs", "4"]).contains("unexpected argument \"specs\""));
    }

    #[test]
    fn a_record_nests_in_push_order() {
        let record = Json::obj()
            .with("experiment", "E0")
            .with("configs", vec![Json::obj().with("specs", 8usize).with("empty", Json::obj())])
            .with("aggregate", Json::obj().with("best", None::<f64>).with("ok", true))
            .with("list", vec![1u64, 2])
            .with("none", Vec::<Json>::new());
        let text = record.render().unwrap();
        let expected = r#"{
  "experiment": "E0",
  "configs": [
    {
      "specs": 8,
      "empty": {}
    }
  ],
  "aggregate": {
    "best": null,
    "ok": true
  },
  "list": [
    1,
    2
  ],
  "none": []
}
"#;
        assert_eq!(text, expected);
    }

    #[test]
    fn strings_are_escaped() {
        let record = Json::obj().with("s", "a \"q\" \\ b\nc\td\r\u{1}é");
        let text = record.render().unwrap();
        assert!(text.contains(r#""s": "a \"q\" \\ b\nc\td\r\u0001é""#), "{text}");
        let key = Json::obj().with("k\"ey", 1u32).render().unwrap();
        assert!(key.contains(r#""k\"ey": 1"#), "{key}");
    }

    #[test]
    fn numbers_keep_their_precision() {
        let record = Json::obj()
            .with("three", fixed(1.0 / 3.0, 3))
            .with("round", fixed(2.0, 2))
            .with("whole", fixed(52470.4, 0))
            .with("plain", 3.0)
            .with("short", 1.1)
            .with("int", u64::MAX);
        let text = record.render().unwrap();
        for field in [
            "\"three\": 0.333",
            "\"round\": 2.00",
            "\"whole\": 52470",
            "\"plain\": 3",
            "\"short\": 1.1",
            "\"int\": 18446744073709551615",
        ] {
            assert!(text.contains(field), "{field} missing from {text}");
        }
    }

    #[test]
    fn a_non_finite_number_is_refused_by_its_key() {
        let nested =
            Json::obj().with("configs", vec![Json::obj().with("speedup", fixed(f64::NAN, 2))]);
        let err = nested.render().unwrap_err();
        assert!(err.contains("configs[0].speedup"), "{err}");
        let top = Json::obj().with("ok", 1.0).with("ratio", f64::INFINITY);
        assert!(top.render().unwrap_err().contains("at ratio"));
        let listed = Json::obj().with("counts", vec![1.0, f64::NEG_INFINITY]);
        assert!(listed.render().unwrap_err().contains("counts[1]"));
    }

    #[test]
    fn alternate_swaps_the_order_and_not_the_results() {
        let order = std::cell::RefCell::new(Vec::new());
        for rep in 0..2 {
            let (a, b) =
                alternate(rep, || order.borrow_mut().push('a'), || order.borrow_mut().push('b'));
            assert_eq!((a, b), ((), ()));
        }
        assert_eq!(*order.borrow(), ['a', 'b', 'b', 'a']);
    }
}
