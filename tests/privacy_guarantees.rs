//! Adversarial integration tests: attempted privilege escalations and leak
//! vectors across the whole stack, each of which must be blocked.

use ppwf::model::fixtures;
use ppwf::model::hierarchy::Prefix;
use ppwf::model::ids::WorkflowId;
use ppwf::privacy::dp::{theoretical_failure_rate, LaplaceMechanism};
use ppwf::privacy::enforce::{audit_disclosure, disclose, pair_revealed};
use ppwf::privacy::policy::{AccessLevel, Policy, Principal};
use ppwf::query::keyword::KeywordQuery;
use ppwf::query::privacy_exec::{filter_then_search, AccessMap};
use ppwf::repo::cache::GroupCache;
use ppwf::repo::keyword_index::KeywordIndex;
use ppwf::repo::repository::{Repository, SpecId};

fn paper_setup() -> (Repository, SpecId) {
    let mut repo = Repository::new();
    let (spec, m) = fixtures::disease_susceptibility();
    let mut policy = Policy::public();
    policy.protect_channel("disorders", AccessLevel(2));
    policy.protect_channel("SNPs", AccessLevel(1));
    policy.hide_pair(m.m13, m.m11, AccessLevel(3));
    let exec = fixtures::disease_susceptibility_execution(&spec);
    let id = repo.insert_spec(spec, policy).unwrap();
    repo.add_execution(id, exec).unwrap();
    (repo, id)
}

/// A low-privilege disclosure never contains an unmasked sensitive value,
/// across every access level below the threshold.
#[test]
fn no_sensitive_value_escapes_below_clearance() {
    let (repo, id) = paper_setup();
    let entry = repo.entry(id).unwrap();
    for level in 0u8..4 {
        let p = Principal::new(
            format!("probe{level}"),
            AccessLevel(level),
            Prefix::full(&entry.hierarchy),
        );
        let d = disclose(&entry.spec, &entry.hierarchy, &entry.executions[0], &entry.policy, &p)
            .unwrap();
        audit_disclosure(&entry.spec, &entry.policy, &p, &d).unwrap();
        for item in d.execution.data_items() {
            if !entry.policy.channel_visible(&item.channel, AccessLevel(level)) {
                assert!(item.value.is_masked(), "level {level} leaked {}", item.id);
            }
        }
    }
}

/// The structural hide-pair (M13 → M11) is invisible below level 3 under
/// *every* prefix the principal could request, not just the default.
#[test]
fn hide_pair_invisible_under_every_requested_view() {
    let (repo, id) = paper_setup();
    let entry = repo.entry(id).unwrap();
    let m = fixtures::handles(&entry.spec);
    let h = &entry.hierarchy;
    // All prefixes of the 4-workflow hierarchy.
    let all_prefixes: Vec<Prefix> = vec![
        Prefix::root_only(h),
        Prefix::from_workflows(h, [WorkflowId::new(0), WorkflowId::new(1)]).unwrap(),
        Prefix::from_workflows(h, [WorkflowId::new(0), WorkflowId::new(2)]).unwrap(),
        Prefix::from_workflows(h, [WorkflowId::new(0), WorkflowId::new(1), WorkflowId::new(2)])
            .unwrap(),
        Prefix::from_workflows(h, [WorkflowId::new(0), WorkflowId::new(1), WorkflowId::new(3)])
            .unwrap(),
        Prefix::full(h),
    ];
    for requested in all_prefixes {
        let p = Principal::new("curious", AccessLevel(2), requested);
        let d = disclose(&entry.spec, h, &entry.executions[0], &entry.policy, &p).unwrap();
        assert!(
            !pair_revealed(&d.view, &d.execution, m.m13, m.m11),
            "leak under requested prefix {:?}",
            p.access_view
        );
        audit_disclosure(&entry.spec, &entry.policy, &p, &d).unwrap();
    }
}

/// Index-backed search cannot be used to probe invisible modules: a
/// principal with a root-only view gets no postings for deep modules even
/// though the index contains them.
#[test]
fn index_does_not_oracle_invisible_modules() {
    let (repo, id) = paper_setup();
    let entry = repo.entry(id).unwrap();
    let index = KeywordIndex::build(&repo);
    let mut access: AccessMap = AccessMap::new();
    access.insert(id, Prefix::root_only(&entry.hierarchy));
    // "reformat" exists only on M13 (deep in W3): the filtered plan must
    // return nothing, revealing nothing about W3's contents.
    let out = filter_then_search(&repo, &index, &KeywordQuery::parse("reformat"), &access);
    assert!(out.hits.is_empty());
    // Same for a conjunctive query mixing visible and invisible terms.
    let out = filter_then_search(&repo, &index, &KeywordQuery::parse("risk, reformat"), &access);
    assert!(out.hits.is_empty());
}

/// Cache entries never cross user groups, even for identical queries.
#[test]
fn cache_cannot_launder_privileged_answers() {
    let (repo, id) = paper_setup();
    let entry = repo.entry(id).unwrap();
    let index = KeywordIndex::build(&repo);
    let cache: GroupCache<(), usize> = GroupCache::new(16);

    let mut fine: AccessMap = AccessMap::new();
    fine.insert(id, Prefix::full(&entry.hierarchy));
    let mut coarse: AccessMap = AccessMap::new();
    coarse.insert(id, Prefix::root_only(&entry.hierarchy));

    let q = KeywordQuery::parse("reformat");
    let priv_hits = cache.get_or_compute("researchers", "reformat", (), repo.version(), || {
        filter_then_search(&repo, &index, &q, &fine).hits.len()
    });
    let pub_hits = cache.get_or_compute("public", "reformat", (), repo.version(), || {
        filter_then_search(&repo, &index, &q, &coarse).hits.len()
    });
    assert_eq!(priv_hits, 1);
    assert_eq!(pub_hits, 0, "public group must not see the cached privileged answer");
}

/// Escalating the requested access view beyond what disclosure grants is
/// caught by the audit.
#[test]
fn audit_catches_forged_disclosures() {
    let (repo, id) = paper_setup();
    let entry = repo.entry(id).unwrap();
    let h = &entry.hierarchy;
    let p = Principal::new("low", AccessLevel(0), Prefix::root_only(h));
    let mut d = disclose(&entry.spec, h, &entry.executions[0], &entry.policy, &p).unwrap();
    // Forge: swap in a finer prefix than the principal's access view.
    d.prefix = Prefix::full(h);
    assert!(audit_disclosure(&entry.spec, &entry.policy, &p, &d).is_err());
}

/// The DP mechanism's failure-rate curve brackets the paper's claim: strong
/// privacy makes provenance counts unreliable, weak privacy leaves them
/// intact.
#[test]
fn dp_failure_curve_brackets() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(1);
    let mech_tight = LaplaceMechanism::counting(0.1);
    let mech_loose = LaplaceMechanism::counting(8.0);
    let mut tight_fail = 0;
    let mut loose_fail = 0;
    let trials = 4000;
    for _ in 0..trials {
        if mech_tight.noisy_count_rounded(15, &mut rng) != 15 {
            tight_fail += 1;
        }
        if mech_loose.noisy_count_rounded(15, &mut rng) != 15 {
            loose_fail += 1;
        }
    }
    let tight_rate = tight_fail as f64 / trials as f64;
    let loose_rate = loose_fail as f64 / trials as f64;
    assert!(tight_rate > 0.9, "ε=0.1 must break reproducibility ({tight_rate})");
    assert!(loose_rate < 0.1, "ε=8 must mostly preserve counts ({loose_rate})");
    assert!(theoretical_failure_rate(0.1) > theoretical_failure_rate(8.0));
}

/// Policy changes invalidate previously valid disclosures on re-audit.
#[test]
fn policy_tightening_invalidates_old_disclosures() {
    let (repo, id) = paper_setup();
    let entry = repo.entry(id).unwrap();
    let m = fixtures::handles(&entry.spec);
    let h = &entry.hierarchy;
    let p = Principal::new("user", AccessLevel(2), Prefix::full(h));
    let d = disclose(&entry.spec, h, &entry.executions[0], &entry.policy, &p).unwrap();
    audit_disclosure(&entry.spec, &entry.policy, &p, &d).unwrap();

    // Tighten: protect "prognosis" too, and hide M8 → M9 from level 2.
    let mut tightened = entry.policy.clone();
    tightened.protect_channel("prognosis", AccessLevel(5));
    tightened.hide_pair(m.m8, m.m9, AccessLevel(5));
    assert!(
        audit_disclosure(&entry.spec, &tightened, &p, &d).is_err(),
        "old disclosure must fail under the tightened policy"
    );
    // And a fresh disclosure under the new policy passes.
    let d2 = disclose(&entry.spec, h, &entry.executions[0], &tightened, &p).unwrap();
    audit_disclosure(&entry.spec, &tightened, &p, &d2).unwrap();
}
