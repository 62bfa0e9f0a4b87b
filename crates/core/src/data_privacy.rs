//! Data privacy: masking sensitive values across all executions (Sec. 3).
//!
//! *"Intermediate data within an execution may contain sensitive
//! information... Although users with the appropriate access level may be
//! allowed to see such confidential data, making it available to all users
//! ... is an unacceptable breach of privacy."*
//!
//! The mechanism is in-place masking: the execution's shape (nodes, edges,
//! data-item identities) is preserved — provenance structure remains
//! queryable — but values on channels above the principal's level are
//! replaced with [`Value::Masked`]. Masking is *by channel over all
//! executions*, matching the paper's requirement that guarantees hold over
//! repeated executions with varied inputs.

use crate::policy::{AccessLevel, Policy};
use ppwf_model::exec::Execution;
use ppwf_model::ids::DataId;
use ppwf_model::value::Value;
use ppwf_model::{ModelError, Result};

/// Outcome of masking: which items were hidden.
#[derive(Clone, Debug, Default)]
pub struct MaskReport {
    /// Items whose values were masked, ascending.
    pub masked: Vec<DataId>,
    /// Items left visible, ascending.
    pub visible: Vec<DataId>,
}

/// Mask (in place) every data value whose channel requires more clearance
/// than `level`. Returns the mask report.
pub fn mask_execution(exec: &mut Execution, policy: &Policy, level: AccessLevel) -> MaskReport {
    let mut report = MaskReport::default();
    let ids: Vec<DataId> = exec.data_items().map(|d| d.id).collect();
    for id in ids {
        let channel = exec.data(id).channel.clone();
        if policy.channel_visible(&channel, level) {
            report.visible.push(id);
        } else {
            exec.data_mut(id).value = Value::Masked;
            report.masked.push(id);
        }
    }
    report
}

/// Clone-and-mask convenience.
pub fn masked_clone(
    exec: &Execution,
    policy: &Policy,
    level: AccessLevel,
) -> (Execution, MaskReport) {
    let mut clone = exec.clone();
    let report = mask_execution(&mut clone, policy, level);
    (clone, report)
}

/// Audit that an execution leaks nothing to `level`: every item on a
/// protected channel must be masked. Returns the ids of leaking items on
/// failure.
pub fn audit_masking(exec: &Execution, policy: &Policy, level: AccessLevel) -> Result<()> {
    let leaks: Vec<DataId> = exec
        .data_items()
        .filter(|d| !policy.channel_visible(&d.channel, level) && !d.value.is_masked())
        .map(|d| d.id)
        .collect();
    if leaks.is_empty() {
        Ok(())
    } else {
        Err(ModelError::invalid(format!(
            "data-privacy leak: {} unmasked sensitive item(s), first {}",
            leaks.len(),
            leaks[0]
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_model::fixtures;

    fn setup() -> (Execution, Policy) {
        let (spec, _m) = fixtures::disease_susceptibility();
        let exec = fixtures::disease_susceptibility_execution(&spec);
        let mut policy = Policy::public();
        // The paper's data-privacy example: the disorders M1 outputs are
        // sensitive.
        policy.protect_channel("disorders", AccessLevel(2));
        policy.protect_channel("SNPs", AccessLevel(1));
        (exec, policy)
    }

    #[test]
    fn masks_by_channel_and_level() {
        let (exec, policy) = setup();
        let (public_view, report) = masked_clone(&exec, &policy, AccessLevel::PUBLIC);
        // Channels: "disorders" ×4 items (d8, d9, d10 + none others? d8,d9,
        // d10 are "disorders") and "SNPs" ×2 (d0, d5).
        let masked_channels: Vec<&str> =
            report.masked.iter().map(|&d| exec.data(d).channel.as_str()).collect();
        assert!(masked_channels.iter().all(|c| *c == "disorders" || *c == "SNPs"));
        assert_eq!(masked_channels.iter().filter(|c| **c == "disorders").count(), 3);
        assert_eq!(masked_channels.iter().filter(|c| **c == "SNPs").count(), 2);
        audit_masking(&public_view, &policy, AccessLevel::PUBLIC).unwrap();
        // Shape is untouched.
        assert_eq!(public_view.graph().edge_count(), exec.graph().edge_count());
        assert_eq!(public_view.data_count(), exec.data_count());
    }

    #[test]
    fn intermediate_level_sees_partially() {
        let (exec, policy) = setup();
        let (v1, r1) = masked_clone(&exec, &policy, AccessLevel(1));
        // Level 1 clears SNPs but not disorders.
        assert!(r1.masked.iter().all(|&d| exec.data(d).channel == "disorders"));
        audit_masking(&v1, &policy, AccessLevel(1)).unwrap();
        let (_v2, r2) = masked_clone(&exec, &policy, AccessLevel(2));
        assert!(r2.masked.is_empty(), "level 2 clears everything");
    }

    #[test]
    fn audit_detects_leaks() {
        let (exec, policy) = setup();
        // Unmasked original must fail the public audit.
        assert!(audit_masking(&exec, &policy, AccessLevel::PUBLIC).is_err());
        assert!(audit_masking(&exec, &policy, AccessLevel(2)).is_ok());
    }

    #[test]
    fn masking_is_idempotent() {
        let (exec, policy) = setup();
        let (mut v, r1) = masked_clone(&exec, &policy, AccessLevel::PUBLIC);
        let r2 = mask_execution(&mut v, &policy, AccessLevel::PUBLIC);
        assert_eq!(r1.masked, r2.masked);
        audit_masking(&v, &policy, AccessLevel::PUBLIC).unwrap();
    }
}
