//! Provenance queries under privacy: lineage computed **through a
//! disclosure**, so the answer never mentions what the principal cannot
//! see.
//!
//! The paper's Sec. 1 motivates provenance queries ("what downstream data
//! might have been affected", "how the process failed that led to creating
//! the data") and Sec. 4 demands privacy-controlled semantics for them.
//! The rule implemented here mirrors the view semantics everywhere else:
//!
//! * the query runs on the **collapsed** execution view (the disclosure's
//!   [`ExecView`]), so paths through hidden subworkflows appear as single
//!   composite steps (`S1:M1`) rather than their internals,
//! * only **visible** data items can be asked about or returned (asking
//!   about a hidden item is an error, not an empty answer — an empty
//!   answer would itself leak that the item exists but is protected),
//! * values come from the disclosure's masked execution, so sensitive
//!   channels surface as [`Masked`](ppwf_model::value::Value::Masked).

use ppwf_core::enforce::Disclosure;
use ppwf_model::bitset::BitSet;
use ppwf_model::ids::DataId;
use ppwf_model::{ModelError, Result};
use ppwf_views::exec_view::ExecView;

/// A provenance answer over a disclosed execution view.
#[derive(Clone, Debug)]
pub struct PrivateProvenance {
    /// The focus item.
    pub focus: DataId,
    /// View-graph node indices on the answer subgraph.
    pub nodes: Vec<u32>,
    /// Visible data items on the answer subgraph (ascending).
    pub data: Vec<DataId>,
}

fn producer_node(view: &ExecView, d: DataId) -> Option<u32> {
    // The earliest view node emitting d: scan edges for the first carrying
    // d and take its source (view edges store merged data).
    let mut candidate: Option<u32> = None;
    for (_, e) in view.graph().edges() {
        if e.payload.data.contains(&d) {
            let from = e.from;
            // Prefer the topologically earliest source.
            candidate = match candidate {
                None => Some(from),
                Some(c) => {
                    if view.graph().reaches(from, c) {
                        Some(from)
                    } else {
                        Some(c)
                    }
                }
            };
        }
    }
    candidate
}

/// Lineage of `d` through a disclosure: the view nodes and visible items on
/// paths from the view's input to `d`'s (visible) producer.
pub fn private_provenance(disclosure: &Disclosure, d: DataId) -> Result<PrivateProvenance> {
    let view = &disclosure.view;
    if !view.visible_data().contains(&d) {
        return Err(ModelError::invalid(format!(
            "data item {d} is not visible in this disclosure"
        )));
    }
    let producer = producer_node(view, d)
        .ok_or_else(|| ModelError::invalid(format!("no visible producer for {d}")))?;
    let g = view.graph();
    let mut on_path = g.reaching_to(producer);
    on_path.intersect_with(&g.reachable_from(view.input()));
    collect(view, on_path, d)
}

fn collect(view: &ExecView, on_path: BitSet, focus: DataId) -> Result<PrivateProvenance> {
    let g = view.graph();
    let mut nodes: Vec<u32> = on_path.iter().map(|n| n as u32).collect();
    nodes.sort_unstable();
    let mut data = vec![focus];
    for (_, e) in g.edges() {
        if on_path.contains(e.from as usize) && on_path.contains(e.to as usize) {
            data.extend(e.payload.data.iter().copied());
        }
    }
    data.sort();
    data.dedup();
    Ok(PrivateProvenance { focus, nodes, data })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_core::enforce::disclose;
    use ppwf_core::policy::{AccessLevel, Policy, Principal};
    use ppwf_model::fixtures;
    use ppwf_model::hierarchy::{ExpansionHierarchy, Prefix};
    use ppwf_model::value::Value;

    fn disclosure(level: u8, full_view: bool) -> Disclosure {
        let (spec, m) = fixtures::disease_susceptibility();
        let h = ExpansionHierarchy::of(&spec);
        let exec = fixtures::disease_susceptibility_execution(&spec);
        let mut policy = Policy::public();
        policy.protect_channel("disorders", AccessLevel(2));
        let _ = m;
        let view = if full_view { Prefix::full(&h) } else { Prefix::root_only(&h) };
        let p = Principal::new("t", AccessLevel(level), view);
        disclose(&spec, &h, &exec, &policy, &p).unwrap()
    }

    #[test]
    fn coarse_lineage_of_final_output() {
        // Root-only view: provenance of d19 = the whole 4-node view with
        // the boundary items only.
        let d = disclosure(0, false);
        let prov = private_provenance(&d, DataId::new(19)).unwrap();
        // Lineage stops at d19's producer (S8:M2): I, S1:M1, S8:M2.
        assert_eq!(prov.nodes.len(), 3);
        let items: Vec<usize> = prov.data.iter().map(|x| x.index()).collect();
        assert_eq!(items, vec![0, 1, 2, 3, 4, 10, 19]);
    }

    #[test]
    fn hidden_items_are_unaskable() {
        let d = disclosure(0, false);
        // d13 (M12's result) is inside the collapsed S8:M2.
        let err = private_provenance(&d, DataId::new(13)).unwrap_err();
        assert!(err.to_string().contains("not visible"));
    }

    #[test]
    fn masked_values_stay_masked_in_answers() {
        // Level 0 with full view: d10 ("disorders") is visible as an item
        // but its value is masked.
        let d = disclosure(0, true);
        let prov = private_provenance(&d, DataId::new(19)).unwrap();
        assert!(prov.data.contains(&DataId::new(10)));
        assert_eq!(d.execution.data(DataId::new(10)).value, Value::Masked);
    }

    #[test]
    fn full_view_lineage_matches_unprivate_provenance() {
        // With full access, private provenance sees the same item set as
        // the raw provenance query.
        let d = disclosure(5, true);
        let prov = private_provenance(&d, DataId::new(19)).unwrap();
        let raw = ppwf_model::provenance::provenance_of(&d.execution, DataId::new(19));
        assert_eq!(prov.data, raw.data);
    }
}
