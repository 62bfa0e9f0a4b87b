//! Privacy policies and principals.
//!
//! The paper ties privacy to the three workflow components (Sec. 3): data
//! items, modules, and structure. A [`Policy`] records, per specification:
//!
//! * which data **channels** are sensitive and from which [`AccessLevel`]
//!   their values become visible (data privacy),
//! * which **modules** are private, each with its Γ requirement (module
//!   privacy, ref \[4\]),
//! * which **reachability pairs** must stay hidden (structural privacy).
//!
//! A [`Principal`] carries an ordered access level plus an *access view* —
//! "the finest grained view that s/he can access" (Sec. 2) — expressed as a
//! prefix of the expansion hierarchy. All privacy guarantees are required
//! to hold **over repeated executions** (Sec. 3), which is why the policy
//! is defined against the specification, not a single run.

use ppwf_model::hierarchy::{ExpansionHierarchy, Prefix};
use ppwf_model::ids::ModuleId;
use ppwf_model::spec::Specification;
use ppwf_model::{ModelError, Result};
use std::collections::HashMap;

/// An ordered clearance level; 0 is public, higher sees more.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccessLevel(pub u8);

impl AccessLevel {
    /// The public level (sees only unclassified artifacts).
    pub const PUBLIC: AccessLevel = AccessLevel(0);

    /// Whether this level clears `required`.
    #[inline]
    pub fn clears(self, required: AccessLevel) -> bool {
        self >= required
    }
}

/// Module-privacy requirement: the module's input→output mapping must not
/// be determinable beyond a candidate set of `gamma` outputs per input
/// (ref \[4\]) for principals below `level`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModuleRequirement {
    /// Minimum candidate-set size Γ.
    pub gamma: u32,
    /// Principals at or above this level may see the module in full.
    pub level: AccessLevel,
}

/// Structural-privacy requirement: principals below `level` must not learn
/// that `from` contributes to `to` (Sec. 3's `M13 → M11` example).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HidePair {
    /// Upstream module.
    pub from: ModuleId,
    /// Downstream module.
    pub to: ModuleId,
    /// Principals at or above this level may see the connection.
    pub level: AccessLevel,
}

/// A complete privacy policy for one specification.
#[derive(Clone, Debug, Default)]
pub struct Policy {
    /// Channel name → level required to see values on that channel.
    /// Channels not listed are public.
    pub channel_levels: HashMap<String, AccessLevel>,
    /// Private modules and their Γ requirements.
    pub private_modules: HashMap<ModuleId, ModuleRequirement>,
    /// Structural hide-pairs.
    pub hide_pairs: Vec<HidePair>,
}

impl Policy {
    /// An empty (everything-public) policy.
    pub fn public() -> Self {
        Policy::default()
    }

    /// Mark a channel sensitive from `level` upward.
    pub fn protect_channel(&mut self, channel: impl Into<String>, level: AccessLevel) -> &mut Self {
        self.channel_levels.insert(channel.into(), level);
        self
    }

    /// Mark a module Γ-private below `level`.
    pub fn protect_module(&mut self, m: ModuleId, gamma: u32, level: AccessLevel) -> &mut Self {
        self.private_modules.insert(m, ModuleRequirement { gamma, level });
        self
    }

    /// Hide the fact that `from` contributes to `to` below `level`.
    pub fn hide_pair(&mut self, from: ModuleId, to: ModuleId, level: AccessLevel) -> &mut Self {
        self.hide_pairs.push(HidePair { from, to, level });
        self
    }

    /// Level required to see values on `channel` (public if unlisted).
    pub fn channel_level(&self, channel: &str) -> AccessLevel {
        self.channel_levels.get(channel).copied().unwrap_or(AccessLevel::PUBLIC)
    }

    /// Whether `level` may see values on `channel`.
    pub fn channel_visible(&self, channel: &str, level: AccessLevel) -> bool {
        level.clears(self.channel_level(channel))
    }

    /// The hide-pairs binding for a principal at `level`.
    pub fn active_hide_pairs(&self, level: AccessLevel) -> impl Iterator<Item = &HidePair> {
        self.hide_pairs.iter().filter(move |hp| !level.clears(hp.level))
    }

    /// Validate the policy against a specification: referenced modules must
    /// exist and hide-pairs must be between distinct proper modules.
    pub fn validate(&self, spec: &Specification) -> Result<()> {
        for (&m, req) in &self.private_modules {
            if m.index() >= spec.module_count() {
                return Err(ModelError::BadId {
                    kind: "module",
                    index: m.index(),
                    len: spec.module_count(),
                });
            }
            if req.gamma == 0 {
                return Err(ModelError::invalid("Γ must be at least 1"));
            }
            if spec.module(m).kind.is_distinguished() {
                return Err(ModelError::invalid(format!(
                    "pseudo-module {} cannot be private",
                    spec.module(m).code
                )));
            }
        }
        for hp in &self.hide_pairs {
            for m in [hp.from, hp.to] {
                if m.index() >= spec.module_count() {
                    return Err(ModelError::BadId {
                        kind: "module",
                        index: m.index(),
                        len: spec.module_count(),
                    });
                }
            }
            if hp.from == hp.to {
                return Err(ModelError::invalid("hide-pair endpoints must differ"));
            }
        }
        Ok(())
    }
}

/// A user of the repository: clearance level plus access view.
#[derive(Clone, Debug)]
pub struct Principal {
    /// Display name.
    pub name: String,
    /// Clearance for data values and module/structure requirements.
    pub level: AccessLevel,
    /// The finest hierarchy prefix this principal may see (Sec. 2's
    /// "access view").
    pub access_view: Prefix,
}

impl Principal {
    /// A fully-privileged principal (sees everything).
    pub fn admin(h: &ExpansionHierarchy) -> Self {
        Principal {
            name: "admin".into(),
            level: AccessLevel(u8::MAX),
            access_view: Prefix::full(h),
        }
    }

    /// A public principal (level 0, root-only view).
    pub fn public(h: &ExpansionHierarchy) -> Self {
        Principal {
            name: "public".into(),
            level: AccessLevel::PUBLIC,
            access_view: Prefix::root_only(h),
        }
    }

    /// Construct with explicit level and view.
    pub fn new(name: impl Into<String>, level: AccessLevel, access_view: Prefix) -> Self {
        Principal { name: name.into(), level, access_view }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_model::fixtures;

    #[test]
    fn levels_order() {
        assert!(AccessLevel(3).clears(AccessLevel(3)));
        assert!(AccessLevel(3).clears(AccessLevel(1)));
        assert!(!AccessLevel(0).clears(AccessLevel(1)));
    }

    #[test]
    fn channel_protection() {
        let mut p = Policy::public();
        p.protect_channel("disorders", AccessLevel(2));
        assert!(!p.channel_visible("disorders", AccessLevel(1)));
        assert!(p.channel_visible("disorders", AccessLevel(2)));
        assert!(p.channel_visible("anything else", AccessLevel::PUBLIC));
        assert_eq!(p.channel_level("disorders"), AccessLevel(2));
    }

    #[test]
    fn hide_pairs_active_below_level() {
        let (spec, m) = fixtures::disease_susceptibility();
        let mut p = Policy::public();
        p.hide_pair(m.m13, m.m11, AccessLevel(3));
        assert_eq!(p.active_hide_pairs(AccessLevel(1)).count(), 1);
        assert_eq!(p.active_hide_pairs(AccessLevel(3)).count(), 0);
        p.validate(&spec).unwrap();
    }

    #[test]
    fn validation_catches_bad_policies() {
        let (spec, m) = fixtures::disease_susceptibility();
        let mut p = Policy::public();
        p.protect_module(m.m1, 0, AccessLevel(1));
        assert!(p.validate(&spec).is_err(), "Γ = 0 rejected");

        let mut p = Policy::public();
        p.hide_pair(m.m13, m.m13, AccessLevel(1));
        assert!(p.validate(&spec).is_err(), "self hide-pair rejected");

        let mut p = Policy::public();
        p.protect_module(ModuleId::new(9999), 2, AccessLevel(1));
        assert!(p.validate(&spec).is_err(), "unknown module rejected");

        let input = spec.workflow(spec.root()).input;
        let mut p = Policy::public();
        p.protect_module(input, 2, AccessLevel(1));
        assert!(p.validate(&spec).is_err(), "pseudo-module rejected");
    }

    #[test]
    fn principals() {
        let (spec, _) = fixtures::disease_susceptibility();
        let h = ExpansionHierarchy::of(&spec);
        let admin = Principal::admin(&h);
        let public = Principal::public(&h);
        assert!(admin.level > public.level);
        assert!(public.access_view.coarser_or_equal(&admin.access_view));
        let custom = Principal::new("bio", AccessLevel(2), Prefix::root_only(&h));
        assert_eq!(custom.name, "bio");
    }
}
