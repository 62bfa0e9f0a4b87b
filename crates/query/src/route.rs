//! Spec placement for the sharded serving cluster.
//!
//! An [`EngineCluster`](crate::cluster::EngineCluster) keeps one repository
//! and partitions its keyword index over N shards. Specification `s` is
//! placed on shard `s % N`, a function of the id alone, and is posted
//! there under that same id: there is no id to translate, and a deleted
//! id is a tombstone in the one repository, not a routing entry.

use ppwf_repo::repository::SpecId;

/// How specifications are placed on shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardStrategy {
    /// `spec % shards` — perfectly balanced for append-only corpora.
    RoundRobin,
}

/// The shard, of `shards`, that `spec` is placed on.
pub(crate) fn place(spec: SpecId, shards: usize) -> usize {
    spec.index() % shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{EngineCluster, Mutation};
    use ppwf_core::policy::{AccessLevel, Policy};
    use ppwf_model::{fixtures, ModelError};
    use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
    use ppwf_repo::repository::{deleted_spec_error, Repository};

    fn cluster(specs: usize, shards: usize) -> EngineCluster {
        let mut repo = Repository::new();
        for _ in 0..specs {
            let (spec, _) = fixtures::disease_susceptibility();
            repo.insert_spec(spec, Policy::public()).unwrap();
        }
        let mut registry = PrincipalRegistry::new();
        registry.add_group("researchers", AccessLevel(3), ViewRule::Full);
        EngineCluster::new(repo, registry, shards)
    }

    /// The shards `spec` is posted on.
    fn posted_on(c: &EngineCluster, spec: SpecId) -> Vec<usize> {
        let shards = c.shards().iter().enumerate();
        shards.filter(|(_, s)| s.index().posted_tokens(spec).is_some()).map(|(i, _)| i).collect()
    }

    #[test]
    fn round_robin_balances_and_round_trips() {
        let mut per_shard = vec![Vec::new(); 3];
        for i in 0..9u32 {
            let shard = place(SpecId(i), 3);
            assert_eq!(shard, i as usize % 3);
            per_shard[shard].push(SpecId(i));
        }
        assert!(per_shard.iter().all(|specs| specs.len() == 3));
        let mut merged: Vec<SpecId> = per_shard.concat();
        merged.sort();
        assert_eq!(merged, (0..9).map(SpecId).collect::<Vec<_>>(), "the partition is the id space");
    }

    #[test]
    fn shard_specs_ascend_globally() {
        let c = cluster(20, 3);
        for (s, shard) in c.shards().iter().enumerate() {
            let specs: Vec<SpecId> =
                shard.index().lookup("database").iter().map(|p| p.spec).collect();
            let placed: Vec<SpecId> = (0..20).map(SpecId).filter(|&id| place(id, 3) == s).collect();
            assert_eq!(specs, placed, "shard {s} posts its own specs, in repository id order");
        }
    }

    #[test]
    fn unknown_global_is_none() {
        let mut c = cluster(2, 2);
        assert!(c.repo().entry(SpecId(2)).is_none());
        assert!(posted_on(&c, SpecId(2)).is_empty());
        match c.mutate(Mutation::DeleteSpec { spec: SpecId(2) }).unwrap_err() {
            ModelError::BadId { len, .. } => assert_eq!(len, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn retired_ids_survive_in_the_maps_but_refuse_lookups() {
        let mut c = cluster(4, 2);
        assert_eq!(posted_on(&c, SpecId(1)), vec![1]);
        c.mutate(Mutation::DeleteSpec { spec: SpecId(1) }).unwrap();
        assert_eq!(c.repo().len(), 4, "the deleted id keeps its slot");
        assert_eq!(c.repo().live_count(), 3);
        assert!(c.repo().entry(SpecId(1)).is_none());
        assert!(posted_on(&c, SpecId(1)).is_empty(), "no shard serves a deleted spec");
        let err = c.mutate(Mutation::DeleteSpec { spec: SpecId(1) }).unwrap_err();
        assert_eq!(err.to_string(), deleted_spec_error(SpecId(1)).to_string());
        // The id is never reassigned: the next insert extends the id space
        // and lands where its own id places it.
        let (spec, _) = fixtures::disease_susceptibility();
        let effect = c.mutate(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
        assert_eq!(effect.inserted_id(), Some(SpecId(4)));
        assert_eq!(posted_on(&c, SpecId(4)), vec![0]);
    }
}
