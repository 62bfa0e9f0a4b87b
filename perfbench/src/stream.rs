//! The stationary write stream and the durable-front drain barrier.

use ppwf_bench::{e11_repo, e11_spec_params};
use ppwf_core::policy::Policy;
use ppwf_model::spec::Specification;
use ppwf_query::{EngineCluster, ServeFront};
use ppwf_repo::mutation::{ModuleTextEdit, Mutation, SpecText};
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_workloads::generate_spec;
use ppwf_workloads::genexec::generate_executions;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Index of a mutation's kind in per-kind tallies: insert, execution
/// append, policy swap, delete, edit.
pub fn kind_of(mutation: &Mutation) -> usize {
    match mutation {
        Mutation::InsertSpec { .. } => 0,
        Mutation::AddExecution { .. } => 1,
        Mutation::SetPolicy { .. } => 2,
        Mutation::DeleteSpec { .. } => 3,
        Mutation::EditSpec { .. } => 4,
    }
}

/// Names of the kinds, in [`kind_of`] order.
pub const KIND_NAMES: [&str; 5] = ["insert", "add_execution", "set_policy", "delete", "edit"];

/// A stationary five-kind write stream over an E11-shaped corpus: 70 %
/// `AddExecution` and 12 % `SetPolicy` on any live spec, 7 % `InsertSpec`
/// (shaped by [`e11_spec_params`]), 5 % `DeleteSpec` and 6 % `EditSpec`.
///
/// Destructive kinds target only specs the stream itself inserted, so the
/// base corpus's text — and with it the answers of every query log drawn
/// from it — survives any length of run. (`mutation_stream_n` and
/// `e19_write_stream` turn the corpus over; most queries then match
/// nothing and complete inline, which shows up as a bimodal read median.)
/// The stream-inserted population is held between 0 and `corpus.len()/20`
/// (at least 4): an insert at the ceiling becomes a delete and a delete or
/// edit on an empty population becomes an insert, so the live count stays
/// within 5 % of the start however long the stream runs.
///
/// Generated against an evolving scratch [`Repository`] (execution appends
/// are not replayed into it: no later validation reads them), so the
/// stream applies cleanly, in order, to any copy of `e11_repo(corpus)`.
pub fn steady_write_stream(corpus: &[Specification], n: usize, seed: u64) -> Vec<Mutation> {
    assert!(!corpus.is_empty(), "write stream needs a base corpus");
    let ceiling = (corpus.len() / 20).max(4);
    let mut scratch = e11_repo(corpus);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE20);
    let mut inserted: Vec<SpecId> = Vec::new();
    let mut stream = Vec::with_capacity(n);
    for w in 0..n as u64 {
        let roll = rng.gen_range(0..100u32);
        let salt = rng.next_u64();
        let mutation = if roll < 82 {
            // Any live spec: the base corpus, then the stream's own.
            let pick = (salt % (corpus.len() + inserted.len()) as u64) as usize;
            let target = if pick < corpus.len() {
                SpecId(pick as u32)
            } else {
                inserted[pick - corpus.len()]
            };
            if roll < 70 {
                let spec = &scratch.entry(target).expect("live target").spec;
                let exec =
                    generate_executions(spec, 1, salt).pop().expect("one execution generated");
                Mutation::AddExecution { spec: target, exec }
            } else {
                Mutation::SetPolicy { spec: target, policy: Policy::public() }
            }
        } else {
            let want_insert = roll < 89;
            let want_delete = (89..94).contains(&roll);
            if inserted.is_empty() || (want_insert && inserted.len() < ceiling) {
                Mutation::InsertSpec {
                    spec: generate_spec(&e11_spec_params(seed ^ 0xE20 ^ (w << 16))),
                    policy: Policy::public(),
                }
            } else {
                let slot = (salt % inserted.len() as u64) as usize;
                let target = inserted[slot];
                let edit = (!want_insert && !want_delete)
                    .then(|| text_edit(&scratch.entry(target).expect("live target").spec, salt, w))
                    .flatten();
                match edit {
                    Some(text) => Mutation::EditSpec { spec: target, text },
                    None => {
                        inserted.swap_remove(slot);
                        Mutation::DeleteSpec { spec: target }
                    }
                }
            }
        };
        if !matches!(mutation, Mutation::AddExecution { .. }) {
            let effect = scratch.apply(mutation.clone()).expect("generated mutation applies");
            inserted.extend(effect.inserted_id());
        }
        stream.push(mutation);
    }
    stream
}

/// Replacement text for one editable module of `spec`, in the corpus's
/// own `kwN` vocabulary so edited specs keep answering log queries.
/// `None` when the spec has no non-distinguished module.
fn text_edit(spec: &Specification, salt: u64, position: u64) -> Option<SpecText> {
    let editable: Vec<_> = spec.modules().filter(|m| !m.kind.is_distinguished()).collect();
    let module = editable.get((salt % editable.len().max(1) as u64) as usize)?;
    let vocabulary = e11_spec_params(0).vocabulary as u64;
    Some(SpecText {
        edits: vec![ModuleTextEdit {
            module: module.id,
            name: format!("edited step {position}"),
            keywords: vec![
                format!("kw{}", (salt >> 8) % vocabulary),
                format!("kw{}", (salt >> 32) % vocabulary),
            ],
        }],
    })
}

/// Bring a durable front to rest: every accepted request completed, every
/// pipelined fsync acknowledged, and no background snapshot job still
/// writing or pruning. Call before every [`Repository::recover`] on the
/// front's storage root and before every stats read.
///
/// The last wait matters: a recovery that starts while the snapshot job
/// is pruning superseded chunks reads a manifest whose chunks are being
/// deleted under it and fails with `Snapshot { detail: "manifest chunk …
/// is missing" }`.
pub fn drain_durable(front: &ServeFront) {
    front.quiesce();
    front.with_cluster(rest_cluster);
}

/// The cluster half of [`drain_durable`], for a cluster driven without a
/// front: pipelined fsyncs acknowledged, no snapshot job in flight (the
/// job works on a frozen image and takes no cluster lock).
pub fn rest_cluster(cluster: &EngineCluster) {
    cluster.wait_for_pipeline();
    while cluster.background_snapshot_in_flight() {
        std::thread::yield_now();
    }
}

/// The sequential reference for a durable run over `e11_repo(corpus)`:
/// the first `acked` mutations of `stream` applied in order. The version
/// starts at 0 because the cluster stamps its baseline snapshot with the
/// log's sequence number, which counts mutations since the baseline.
pub fn sequential_replay(
    corpus: &[Specification],
    stream: &[Mutation],
    acked: usize,
) -> Repository {
    let mut repo = e11_repo(corpus);
    repo.set_version(0);
    for mutation in &stream[..acked] {
        repo.apply(mutation.clone()).expect("acknowledged mutation replays");
    }
    repo
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_bench::e11_corpus;

    #[test]
    fn steady_stream_is_stationary_and_spares_the_base_corpus() {
        let corpus = e11_corpus(256, 5);
        let stream = steady_write_stream(&corpus, 20_000, 5);
        let mut repo = e11_repo(&corpus);
        let start = repo.live_count();
        let mut kinds = [0usize; 5];
        for mutation in &stream {
            kinds[kind_of(mutation)] += 1;
            if let Mutation::DeleteSpec { spec } | Mutation::EditSpec { spec, .. } = mutation {
                assert!(spec.index() >= corpus.len(), "base spec {spec:?} deleted or edited");
            }
            repo.apply(mutation.clone()).expect("stream replays on a fresh copy");
        }
        assert!(kinds.iter().all(|&n| n > 0), "all five kinds present: {kinds:?}");
        assert!(kinds[1] > 13_000 && kinds[2] > 2_000, "mix drifted: {kinds:?}");
        let drift = repo.live_count() as f64 / start as f64 - 1.0;
        assert!(drift.abs() <= 0.05, "live count drifted {:.1} %", drift * 100.0);
        let again = steady_write_stream(&corpus, 200, 5);
        let other = steady_write_stream(&corpus, 200, 6);
        let signature =
            |s: &[Mutation]| s.iter().map(|m| format!("{:?}", kind_of(m))).collect::<String>();
        assert_eq!(signature(&stream[..200]), signature(&again));
        assert_ne!(signature(&again), signature(&other));
    }
}
