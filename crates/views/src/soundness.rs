//! Soundness of clustering views (paper ref \[9\], Sun et al., SIGMOD 2009).
//!
//! A clustering view is **sound** when the reachability it displays tells
//! the truth: whenever the quotient graph shows group `A` reaching group
//! `B`, some member of `A` actually reaches some member of `B` in the base
//! graph. Unsound views show *false paths* — the paper's Sec. 3 example is
//! clustering `{M11, M13}`, which makes `M10 → M14` appear connected even
//! though no such dataflow exists — and false paths corrupt provenance
//! analyses built on the view.
//!
//! This module detects unsoundness, enumerates the offending group pairs,
//! and computes the node-level connectivity accounting (correct / false /
//! hidden pairs) that the paper's utility function in Sec. 4 is defined
//! over: *"utility (defined to be some function of both the number of
//! correct node connectivity relationships captured and the number of
//! modules disclosed in a result)"*.

use crate::clustering::Clustering;
use ppwf_model::bitset::BitSet;
use ppwf_model::graph::DiGraph;

/// Result of a soundness check, with the connectivity accounting used by
/// the structural-privacy utility measures.
#[derive(Clone, Debug)]
pub struct SoundnessReport {
    /// Whether the view is sound.
    pub sound: bool,
    /// Group pairs `(A, B)` claimed connected by the view with no true
    /// witness (empty iff `sound`).
    pub false_group_pairs: Vec<(u32, u32)>,
    /// Ordered node pairs `(u, v)` in distinct groups for which the view
    /// claims `u` may reach `v`.
    pub claimed_pairs: usize,
    /// Claimed pairs that are true in the base graph.
    pub correct_pairs: usize,
    /// Claimed pairs that are false (the view misleads about them).
    pub false_pairs: usize,
    /// True pairs the view hides (both endpoints inside one group).
    pub hidden_pairs: usize,
    /// Number of groups (modules disclosed by the view).
    pub groups: usize,
}

impl SoundnessReport {
    /// The paper's utility shape: reward correct connectivity and module
    /// disclosure. (`α`, `β` weigh the two terms.)
    pub fn utility(&self, alpha: f64, beta: f64) -> f64 {
        alpha * self.correct_pairs as f64 + beta * self.groups as f64
    }
}

/// Reachability of a possibly-cyclic graph as one BitSet row per node
/// (reflexive). Quotient graphs can contain cycles even when the base graph
/// is a DAG, so this uses plain BFS per node.
fn bfs_closure<N, E>(g: &DiGraph<N, E>) -> Vec<BitSet> {
    g.node_ids().map(|u| g.reachable_from(u)).collect()
}

/// Check the soundness of `clustering` over base DAG `g` and produce the
/// full connectivity accounting.
pub fn check_soundness<N, E>(g: &DiGraph<N, E>, clustering: &Clustering) -> SoundnessReport {
    assert_eq!(g.node_count(), clustering.node_count(), "clustering size mismatch");
    let base_tc = g.transitive_closure();
    let q = clustering.quotient(g);
    let q_reach = bfs_closure(&q);
    let members = clustering.members();
    let k = clustering.group_count();

    // Group-level truth: A truly connects to B iff some member pair does.
    let mut false_group_pairs = Vec::new();
    let mut truth = vec![BitSet::new(k); k];
    for (a, ma) in members.iter().enumerate() {
        for (b, mb) in members.iter().enumerate() {
            if a == b {
                continue;
            }
            let witness =
                ma.iter().any(|&u| mb.iter().any(|&v| base_tc[u as usize].contains(v as usize)));
            if witness {
                truth[a].insert(b);
            }
        }
    }
    let mut claimed_pairs = 0usize;
    let mut correct_pairs = 0usize;
    let mut false_pairs = 0usize;
    for a in 0..k {
        for b in q_reach[a].iter() {
            if a == b {
                continue;
            }
            let na = members[a].len();
            let nb = members[b].len();
            claimed_pairs += na * nb;
            if truth[a].contains(b) {
                // Node-level: count which claimed pairs are individually true.
                for &u in &members[a] {
                    for &v in &members[b] {
                        if base_tc[u as usize].contains(v as usize) {
                            correct_pairs += 1;
                        } else {
                            false_pairs += 1;
                        }
                    }
                }
            } else {
                false_pairs += na * nb;
                false_group_pairs.push((a as u32, b as u32));
            }
        }
    }
    // Hidden: true pairs inside one group.
    let mut hidden_pairs = 0usize;
    for ms in &members {
        for &u in ms {
            for &v in ms {
                if u != v && base_tc[u as usize].contains(v as usize) {
                    hidden_pairs += 1;
                }
            }
        }
    }
    SoundnessReport {
        sound: false_group_pairs.is_empty(),
        false_group_pairs,
        claimed_pairs,
        correct_pairs,
        false_pairs,
        hidden_pairs,
        groups: k,
    }
}

/// Quick predicate form of [`check_soundness`] that stops at the first
/// false group pair (used inside greedy merge loops).
pub fn is_sound<N, E>(g: &DiGraph<N, E>, clustering: &Clustering) -> bool {
    let base_tc = g.transitive_closure();
    let q = clustering.quotient(g);
    let q_reach = bfs_closure(&q);
    let members = clustering.members();
    for a in 0..clustering.group_count() {
        for b in q_reach[a].iter() {
            if a == b {
                continue;
            }
            let witness = members[a]
                .iter()
                .any(|&u| members[b].iter().any(|&v| base_tc[u as usize].contains(v as usize)));
            if !witness {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's W3 shape, reduced to the nodes that matter:
    /// 0:M10, 1:M11, 2:M12, 3:M13, 4:M14 with edges
    /// M10→M11, M12→M13, M13→M11, M13→M14.
    fn w3_fragment() -> DiGraph<&'static str, ()> {
        let mut g = DiGraph::new();
        let m10 = g.add_node("M10");
        let m11 = g.add_node("M11");
        let m12 = g.add_node("M12");
        let m13 = g.add_node("M13");
        let m14 = g.add_node("M14");
        g.add_edge(m10, m11, ());
        g.add_edge(m12, m13, ());
        g.add_edge(m13, m11, ());
        g.add_edge(m13, m14, ());
        g
    }

    #[test]
    fn identity_clustering_is_sound() {
        let g = w3_fragment();
        let c = Clustering::identity(5);
        let r = check_soundness(&g, &c);
        assert!(r.sound);
        assert_eq!(r.false_pairs, 0);
        assert_eq!(r.hidden_pairs, 0);
        // True pairs: M10→M11, M12→{M13,M11,M14}, M13→{M11,M14} = 6.
        assert_eq!(r.correct_pairs, 6);
        assert_eq!(r.claimed_pairs, 6);
        assert!(is_sound(&g, &c));
    }

    /// The Sec. 3 example: clustering {M11, M13} falsely implies M10 → M14.
    #[test]
    fn paper_cluster_m11_m13_is_unsound() {
        let g = w3_fragment();
        let c = Clustering::from_groups(5, &[vec![1, 3]]); // {M11, M13}
        let r = check_soundness(&g, &c);
        assert!(!r.sound);
        assert!(!is_sound(&g, &c));
        // The false claim: the composite reaches M14 and M10 reaches the
        // composite, so the view implies M10 → M14 — which is false.
        assert!(r.false_pairs > 0);
        let false_node_pair_exists = {
            // group of M10 reaches group of M14 through {M11,M13} in the
            // quotient, with no true witness for the M10→M14 projection.
            let tc = g.transitive_closure();
            !tc[0].contains(4)
        };
        assert!(false_node_pair_exists);
    }

    #[test]
    fn sound_cluster_example() {
        // Clustering {M12, M13} is sound: everything the quotient claims has
        // a witness.
        let g = w3_fragment();
        let c = Clustering::from_groups(5, &[vec![2, 3]]);
        let r = check_soundness(&g, &c);
        assert!(r.sound, "false pairs: {:?}", r.false_group_pairs);
        // One true pair (M12→M13) is now hidden inside the group.
        assert_eq!(r.hidden_pairs, 1);
    }

    #[test]
    fn accounting_adds_up() {
        let g = w3_fragment();
        for c in [
            Clustering::identity(5),
            Clustering::from_groups(5, &[vec![1, 3]]),
            Clustering::from_groups(5, &[vec![2, 3]]),
            Clustering::from_groups(5, &[vec![0, 1], vec![2, 3, 4]]),
        ] {
            let r = check_soundness(&g, &c);
            assert_eq!(r.claimed_pairs, r.correct_pairs + r.false_pairs);
            // Every true base pair is either claimed-correct or hidden.
            assert_eq!(r.correct_pairs + r.hidden_pairs, 6, "clustering {c:?}");
            assert_eq!(r.groups, c.group_count());
        }
    }

    #[test]
    fn utility_shapes() {
        let g = w3_fragment();
        let fine = check_soundness(&g, &Clustering::identity(5));
        let coarse = check_soundness(&g, &Clustering::from_groups(5, &[vec![1, 3]]));
        assert!(fine.utility(1.0, 1.0) > coarse.utility(1.0, 1.0));
    }

    #[test]
    fn cyclic_quotient_handled() {
        // a → b, c → a with {b, c} merged: quotient is cyclic; the checker
        // must not panic and must classify claims correctly.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        for _ in 0..3 {
            g.add_node(());
        }
        g.add_edge(0, 1, ());
        g.add_edge(2, 0, ());
        let c = Clustering::from_groups(3, &[vec![1, 2]]);
        let r = check_soundness(&g, &c);
        // Quotient: {0} ⇄ {1,2}: claims 0→{1,2} (true: 0→1) and {1,2}→0
        // (true: 2→0); both have witnesses, so the view is *sound* at group
        // level even though node-level false pairs exist (0→2, 1→0).
        assert!(r.sound);
        assert_eq!(r.false_pairs, 2);
        assert_eq!(r.correct_pairs, 2);
    }
}
