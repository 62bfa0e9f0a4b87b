//! Answer checking: a timed answer that is wrong — or above the
//! requester's access prefix — is a failure, not a latency sample.
//!
//! The reference is one blocking [`QueryEngine`] over the same corpus
//! (the cluster and the front promise bit-identical answers to it). Read
//! workloads compare every response with a table computed in set-up;
//! `mixed_live` re-evaluates a sample of its reads after the run against
//! the reference replayed to each response's epoch.

use super::{Inputs, Pair, ReadKind, PRIVATE_PLAN, RANKING_MODE};
use ppwf_bench::standard_registry;
use ppwf_query::privacy_exec::PrivateSearchOutcome;
use ppwf_query::serve::QueryAnswer;
use ppwf_query::{KeywordHit, QueryEngine, RankedAnswer, RankedHits};
use ppwf_repo::repository::Repository;
use std::sync::Arc;

/// What an answer is compared by: its hit count and an FNV-1a fold of the
/// hits' spec ids, prefix workflows and matched modules — plus the cost
/// counters of a private answer and the order and score bits of a ranked
/// one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub hits: u32,
    pub sum: u64,
}

struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn hits(&mut self, hits: &[KeywordHit]) {
        for hit in hits {
            self.mix(hit.spec.0 as u64);
            for workflow in hit.prefix.workflows() {
                self.mix(workflow.index() as u64);
            }
            self.mix(u64::MAX);
            for (_, module) in &hit.matched {
                self.mix(module.index() as u64);
            }
        }
    }

    fn done(self, hits: usize) -> Digest {
        Digest { hits: hits as u32, sum: self.0 }
    }
}

fn digest_keyword(hits: &[KeywordHit]) -> Digest {
    let mut fold = Fold::new();
    fold.hits(hits);
    fold.done(hits.len())
}

fn digest_private(outcome: &PrivateSearchOutcome) -> Digest {
    let mut fold = Fold::new();
    fold.hits(&outcome.hits);
    for counter in [outcome.views_built, outcome.zoom_steps, outcome.discarded] {
        fold.mix(counter as u64);
    }
    fold.done(outcome.hits.len())
}

fn digest_ranked(hits: &[KeywordHit], ranked: &RankedAnswer) -> Digest {
    let mut fold = Fold::new();
    fold.hits(hits);
    for (&position, score) in ranked.order.iter().zip(&ranked.scores) {
        fold.mix(position as u64);
        fold.mix(score.to_bits());
    }
    fold.done(hits.len())
}

/// The digest of a served answer; `None` for an unknown-group answer or a
/// mutation outcome, neither of which a read of this benchmark may get.
pub fn digest_answer(answer: &QueryAnswer) -> Option<Digest> {
    match answer {
        QueryAnswer::Keyword(Some(hits)) => Some(digest_keyword(hits)),
        QueryAnswer::Private(Some(outcome)) => Some(digest_private(outcome)),
        QueryAnswer::Ranked(Some(answer)) => Some(digest_ranked(&answer.hits, &answer.ranked)),
        _ => None,
    }
}

/// Evaluate `pair` on the reference engine. Also asserts the paper's
/// guarantee on the reference itself: no hit carries a prefix outside the
/// group's resolved access prefix for that spec — so a served answer that
/// matches the digest (which folds every prefix) is inside it too.
pub fn reference_digest(engine: &QueryEngine, inputs: &Inputs, pair: &Pair) -> Digest {
    let (group, query) = inputs.pair_text(pair);
    let known = "benchmark groups are registered";
    let access = engine.access_resolver(group).expect(known);
    let within_access = |hits: &[KeywordHit]| {
        for hit in hits {
            let allowed = access.resolve(hit.spec).expect("a hit names a live spec");
            assert!(
                hit.prefix.workflows().all(|w| allowed.contains(w)),
                "reference answer for {group:?} exposes spec {} above its access prefix",
                hit.spec.0
            );
        }
    };
    match pair.kind {
        ReadKind::Keyword => {
            let hits = engine.search_as(group, query).expect(known);
            within_access(&hits);
            digest_keyword(&hits)
        }
        ReadKind::Private => {
            let outcome = engine.private_search_as(group, query, PRIVATE_PLAN).expect(known);
            within_access(&outcome.hits);
            digest_private(&outcome)
        }
        ReadKind::Ranked => {
            let (hits, ranked) = engine.ranked_search_as(group, query, RANKING_MODE).expect(known);
            within_access(&hits);
            digest_ranked(&hits, &ranked)
        }
    }
}

/// The reference engine over `repo` with the benchmark's registry.
pub fn reference_engine(repo: Repository) -> QueryEngine {
    QueryEngine::new(repo, standard_registry())
}

/// The answer the front last served for a pair and that was verified in
/// full; holding the `Arc` keeps its address from being reused.
enum Seen {
    Keyword(Arc<Vec<KeywordHit>>),
    Private(Arc<PrivateSearchOutcome>),
    Ranked(Arc<RankedHits>),
}

/// Checks every response of a read workload against the set-up table.
///
/// A warm front serves the same `Arc` again and again; a response that is
/// pointer-identical to one already verified for its pair is accepted on
/// that identity, so checking every answer costs the ~300 ns warm path a
/// pointer compare rather than a re-digest.
pub struct Verifier {
    expected: Vec<Digest>,
    /// Empty when the working set overflows the caches: a scan never gets
    /// the same `Arc` twice, and holding 24k answers would only move their
    /// deallocation from the evicting thread to this one.
    seen: Vec<Option<Seen>>,
    /// Order-sensitive fold of the digests of all accepted answers — an
    /// exact count two runs of one seed and one operation count agree on,
    /// and two seeds (two request orders) do not.
    pub folded: u64,
}

impl Verifier {
    /// Compute the expected table on a fresh reference engine.
    /// `memoize` turns the pointer-identity shortcut on.
    pub fn build(inputs: &Inputs, memoize: bool) -> Verifier {
        let engine = reference_engine(ppwf_bench::e11_repo(&inputs.corpus));
        let expected: Vec<Digest> =
            inputs.pairs.iter().map(|pair| reference_digest(&engine, inputs, pair)).collect();
        let seen = if memoize { inputs.pairs.iter().map(|_| None).collect() } else { Vec::new() };
        Verifier { expected, seen, folded: 0 }
    }

    /// Share of pairs whose reference answer has at least one hit.
    pub fn nonempty_share(&self) -> f64 {
        let nonempty = self.expected.iter().filter(|d| d.hits > 0).count();
        nonempty as f64 / self.expected.len().max(1) as f64
    }

    /// Whether `answer` is the right answer for `pair`.
    pub fn check(&mut self, pair: usize, answer: &QueryAnswer) -> bool {
        let same = match (answer, self.seen.get(pair)) {
            (QueryAnswer::Keyword(Some(a)), Some(Some(Seen::Keyword(b)))) => Arc::ptr_eq(a, b),
            (QueryAnswer::Private(Some(a)), Some(Some(Seen::Private(b)))) => Arc::ptr_eq(a, b),
            (QueryAnswer::Ranked(Some(a)), Some(Some(Seen::Ranked(b)))) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let expected = self.expected[pair];
        if !same {
            if digest_answer(answer) != Some(expected) {
                return false;
            }
            if let Some(slot) = self.seen.get_mut(pair) {
                *slot = match answer {
                    QueryAnswer::Keyword(Some(a)) => Some(Seen::Keyword(Arc::clone(a))),
                    QueryAnswer::Private(Some(a)) => Some(Seen::Private(Arc::clone(a))),
                    QueryAnswer::Ranked(Some(a)) => Some(Seen::Ranked(Arc::clone(a))),
                    _ => None,
                };
            }
        }
        self.folded = self.folded.rotate_left(5) ^ expected.sum;
        true
    }
}

/// One `mixed_live` read kept for re-evaluation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub pair: usize,
    /// The epoch the response said it was computed at.
    pub epoch: u64,
    pub digest: Digest,
}

/// Re-evaluate sampled reads against the reference replayed to each
/// response's epoch, and return `(wrong answers, image of the full replay)`.
///
/// `ack_epochs[j]` is the epoch write `j`'s acknowledgement carried (the
/// cluster epoch after applying it); epochs only move on answer-changing
/// writes, so the state a read at epoch `e` saw answers like the replay of
/// every write acknowledged at an epoch `<= e`. An epoch that is neither
/// the initial one nor any acknowledged write's is a phantom and counts
/// as wrong.
pub fn replay_and_check_samples(
    inputs: &Inputs,
    initial_epoch: u64,
    ack_epochs: &[u64],
    mut samples: Vec<Sample>,
) -> (u64, Vec<u8>) {
    let mut base = ppwf_bench::e11_repo(&inputs.corpus);
    base.set_version(0);
    let mut engine = reference_engine(base);
    samples.sort_by_key(|s| s.epoch);
    let mut applied = 0;
    let mut wrong = 0;
    for sample in &samples {
        let upto = ack_epochs.partition_point(|&e| e <= sample.epoch);
        for mutation in &inputs.stream[applied..upto] {
            engine.mutate(mutation.clone()).expect("acknowledged mutation replays");
        }
        applied = upto;
        let at = if upto == 0 { initial_epoch } else { ack_epochs[upto - 1] };
        if at != sample.epoch
            || reference_digest(&engine, inputs, &inputs.pairs[sample.pair]) != sample.digest
        {
            wrong += 1;
        }
    }
    for mutation in &inputs.stream[applied..ack_epochs.len()] {
        engine.mutate(mutation.clone()).expect("acknowledged mutation replays");
    }
    (wrong, engine.repo().save().to_vec())
}
