//! Typed repository mutations and their effects — the one write path every
//! serving layer shares.
//!
//! The paper's repository is write-heavy by nature: every workflow
//! execution appends provenance, and specifications and policies evolve
//! alongside. The layers above the store (the uncached `QueryEngine`
//! reference, the `EngineCluster` that serves and caches) each need to know
//! *what* a write changed to invalidate precisely — an opaque
//! `FnOnce(&mut Repository)` forces them to assume the worst (rebuild
//! every index, drop every cache). [`Mutation`] makes the write vocabulary
//! explicit and [`MutationEffect`] reports exactly what changed, so each
//! layer invalidates only what the effect can reach:
//!
//! * a **spec insert** appends postings and closure rows; it can change
//!   the answers of queries whose every token the new spec posts, and —
//!   through the document count and the document frequencies of the
//!   tokens it posts — the scores of ranked answers;
//! * an **execution append** — the paper's dominant write, provenance
//!   accruing over repeated executions — touches no specification text,
//!   no hierarchy and no policy, so keyword indexes, access-view memos
//!   and `(group, query)` result caches all stay valid;
//! * a **policy swap** can change privacy-filtered answers for the touched
//!   spec but leaves index postings (classification is the owning
//!   workflow, not the policy) and every *other* spec's state untouched;
//! * a **spec delete** retires the id as a tombstone — its postings and
//!   closure rows retract, the cached answers that could name it die,
//!   other specs are untouched;
//! * a **spec edit** rewrites searchable text in place — its postings
//!   retract and re-index, structure and provenance stay put, and the
//!   answers at stake are those of queries over its old *or* its new
//!   vocabulary.
//!
//! "The answers a write can reach" is made exact by
//! [`TouchStamps`](crate::touch::TouchStamps): the serving layers stamp the
//! written spec's vocabulary on every effect but the execution append, and
//! a cached answer survives the write iff the stamps say it cannot have
//! been reached.
//!
//! The last two are the paper's sanitization/retraction scenario (exposed
//! attributes withdrawn, module descriptions revised) and are the only
//! *destructive* effects: derived read structures retract state for them
//! instead of appending. Every such structure is a fold over the effects,
//! in the order [`Repository::apply`] returned them — the keyword index
//! through [`KeywordIndex::apply_effect`](crate::keyword_index::KeywordIndex::apply_effect),
//! the access and view memos through their per-spec `forget_spec` — so the
//! effect, not a scan of the repository, decides what each one does.

use crate::repository::{Repository, SpecId};
use ppwf_core::policy::Policy;
use ppwf_model::exec::Execution;
use ppwf_model::ids::ModuleId;
use ppwf_model::spec::Specification;
use ppwf_model::Result;

/// One module's replacement text inside a [`SpecText`] revision: the new
/// display name and keyword tags. Text-only — module ids, kinds, workflow
/// membership and edges are never touched by an edit, so hierarchies,
/// policies (which reference module *ids* and channel names) and recorded
/// executions all stay valid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleTextEdit {
    /// The module whose text is replaced.
    pub module: ModuleId,
    /// Its new display name.
    pub name: String,
    /// Its new keyword tags.
    pub keywords: Vec<String>,
}

/// A text-only specification revision — the paper's sanitization scenario
/// (exposed attribute names get retracted, module descriptions revised)
/// without structural surgery. Exactly the text the keyword index indexes;
/// reachability and policy validity are untouched by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecText {
    /// Per-module replacements, applied in order.
    pub edits: Vec<ModuleTextEdit>,
}

/// A typed repository write. All mutations — engine-level and cluster
/// writes alike — flow through this vocabulary, so effects (and
/// therefore invalidation) are decided by type, not by convention.
#[derive(Clone, Debug)]
pub enum Mutation {
    /// Insert a specification (yields its new id).
    InsertSpec {
        /// The specification.
        spec: Specification,
        /// Its privacy policy.
        policy: Policy,
    },
    /// Record an execution of an existing spec.
    AddExecution {
        /// Target spec id.
        spec: SpecId,
        /// The execution.
        exec: Execution,
    },
    /// Replace the policy of an existing spec.
    SetPolicy {
        /// Target spec id.
        spec: SpecId,
        /// The new policy.
        policy: Policy,
    },
    /// Remove a specification (and its executions and policy) from the
    /// repository. The id becomes a tombstone: it is never reassigned, so
    /// routing tables, snapshot chunk math and later log records keep
    /// their alignment.
    DeleteSpec {
        /// Target spec id.
        spec: SpecId,
    },
    /// Revise the searchable text of an existing spec in place (see
    /// [`SpecText`]).
    EditSpec {
        /// Target spec id.
        spec: SpecId,
        /// The per-module text replacements.
        text: SpecText,
    },
}

/// What a successfully applied [`Mutation`] changed — the invalidation
/// contract serving layers key their maintenance on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationEffect {
    /// A new specification exists: indexes append its entries; cached
    /// answers over its vocabulary, and ranked answers (the document count
    /// moved), are stale.
    SpecInserted {
        /// The id the spec was assigned.
        spec: SpecId,
    },
    /// Provenance accrued on an existing spec: no specification text,
    /// hierarchy or policy changed, so search indexes and answer caches
    /// remain valid.
    ExecutionAppended {
        /// The spec that gained an execution.
        spec: SpecId,
    },
    /// The spec's privacy policy changed: privacy-filtered answers for it
    /// are stale; index postings and other specs are untouched.
    PolicyChanged {
        /// The spec whose policy was replaced.
        spec: SpecId,
    },
    /// The spec no longer exists: its postings and closure rows must be
    /// retracted, every cached answer naming it is stale, and its id is a
    /// permanent tombstone.
    SpecDeleted {
        /// The retired spec id.
        spec: SpecId,
    },
    /// The spec's searchable text changed in place: its postings must be
    /// retracted and re-indexed and its cached answers are stale;
    /// structure, hierarchy, executions and policy are untouched.
    SpecEdited {
        /// The spec whose text was revised.
        spec: SpecId,
    },
}

impl MutationEffect {
    /// The spec the mutation touched (for inserts, the new id).
    pub fn spec(&self) -> SpecId {
        match self {
            MutationEffect::SpecInserted { spec }
            | MutationEffect::ExecutionAppended { spec }
            | MutationEffect::PolicyChanged { spec }
            | MutationEffect::SpecDeleted { spec }
            | MutationEffect::SpecEdited { spec } => *spec,
        }
    }

    /// The newly assigned id, when the mutation was an insert.
    pub fn inserted_id(&self) -> Option<SpecId> {
        match self {
            MutationEffect::SpecInserted { spec } => Some(*spec),
            _ => None,
        }
    }

    /// Whether the mutation can change principal-visible state — the
    /// answers a group may receive, or how registry overrides map onto
    /// specs. Spec inserts and policy swaps can; execution appends never
    /// do (provenance is not part of any keyword, private or ranked
    /// answer), which is what lets the write-heavy append path leave every
    /// result cache warm.
    pub fn changes_visible_state(&self) -> bool {
        !matches!(self, MutationEffect::ExecutionAppended { .. })
    }

    /// Whether the mutation destroyed or rewrote indexed state in place —
    /// the effects after which derived structures retract rather than
    /// append: the keyword index retracts the spec's postings (and
    /// re-indexes an edit), the access and view memos drop its entries.
    pub fn is_destructive(&self) -> bool {
        matches!(self, MutationEffect::SpecDeleted { .. } | MutationEffect::SpecEdited { .. })
    }
}

impl Repository {
    /// Apply a typed mutation; the returned [`MutationEffect`] tells the
    /// caller exactly what maintenance the write requires. Validation
    /// happens before any state change, so an `Err` leaves the repository
    /// (and its version counter) untouched.
    pub fn apply(&mut self, mutation: Mutation) -> Result<MutationEffect> {
        match mutation {
            Mutation::InsertSpec { spec, policy } => {
                self.insert_spec(spec, policy).map(|spec| MutationEffect::SpecInserted { spec })
            }
            Mutation::AddExecution { spec, exec } => {
                self.add_execution(spec, exec).map(|()| MutationEffect::ExecutionAppended { spec })
            }
            Mutation::SetPolicy { spec, policy } => {
                self.set_policy(spec, policy).map(|()| MutationEffect::PolicyChanged { spec })
            }
            Mutation::DeleteSpec { spec } => {
                self.delete_spec(spec).map(|()| MutationEffect::SpecDeleted { spec })
            }
            Mutation::EditSpec { spec, text } => {
                self.edit_spec(spec, &text).map(|()| MutationEffect::SpecEdited { spec })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_model::fixtures;

    #[test]
    fn apply_reports_effects() {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        let exec = fixtures::disease_susceptibility_execution(&spec);
        let effect = repo.apply(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
        assert_eq!(effect, MutationEffect::SpecInserted { spec: SpecId(0) });
        assert_eq!(effect.inserted_id(), Some(SpecId(0)));
        assert!(effect.changes_visible_state());

        let effect = repo.apply(Mutation::AddExecution { spec: SpecId(0), exec }).unwrap();
        assert_eq!(effect, MutationEffect::ExecutionAppended { spec: SpecId(0) });
        assert_eq!(effect.inserted_id(), None);
        assert!(!effect.changes_visible_state(), "provenance appends change no answer");

        let effect =
            repo.apply(Mutation::SetPolicy { spec: SpecId(0), policy: Policy::public() }).unwrap();
        assert_eq!(effect, MutationEffect::PolicyChanged { spec: SpecId(0) });
        assert!(effect.changes_visible_state());
        assert_eq!(effect.spec(), SpecId(0));
    }

    #[test]
    fn apply_reports_destructive_effects() {
        let mut repo = Repository::new();
        let (spec, m) = fixtures::disease_susceptibility();
        repo.apply(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
        let text = SpecText {
            edits: vec![ModuleTextEdit {
                module: m.m2,
                name: "Renamed".into(),
                keywords: vec!["tag".into()],
            }],
        };
        let effect =
            repo.apply(Mutation::EditSpec { spec: SpecId(0), text: text.clone() }).unwrap();
        assert_eq!(effect, MutationEffect::SpecEdited { spec: SpecId(0) });
        assert!(effect.changes_visible_state());
        assert!(effect.is_destructive());
        assert_eq!(effect.inserted_id(), None);

        let effect = repo.apply(Mutation::DeleteSpec { spec: SpecId(0) }).unwrap();
        assert_eq!(effect, MutationEffect::SpecDeleted { spec: SpecId(0) });
        assert!(effect.changes_visible_state());
        assert!(effect.is_destructive());

        // Non-destructive effects say so.
        assert!(!MutationEffect::SpecInserted { spec: SpecId(0) }.is_destructive());
        assert!(!MutationEffect::ExecutionAppended { spec: SpecId(0) }.is_destructive());
        assert!(!MutationEffect::PolicyChanged { spec: SpecId(0) }.is_destructive());

        // Both destructive mutations fail cleanly on the tombstone.
        let version = repo.version();
        assert!(repo.apply(Mutation::DeleteSpec { spec: SpecId(0) }).is_err());
        assert!(repo.apply(Mutation::EditSpec { spec: SpecId(0), text }).is_err());
        assert_eq!(repo.version(), version);
    }

    #[test]
    fn failed_apply_leaves_repository_untouched() {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        repo.apply(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
        let version = repo.version();
        assert!(repo
            .apply(Mutation::SetPolicy { spec: SpecId(9), policy: Policy::public() })
            .is_err());
        assert_eq!(repo.version(), version, "rejected writes must not bump the version");
    }
}
