//! Typed identifiers for the workflow model.
//!
//! Every entity in a specification or execution is addressed by a small,
//! copyable, strongly-typed index. Using distinct newtypes (rather than bare
//! `usize`) prevents an entire class of "wrong table" bugs: a [`ModuleId`]
//! cannot be used to index executions, a [`DataId`] cannot be confused with a
//! process id, and so on. All ids are dense indexes into the owning
//! container, assigned in creation order — which the paper exploits for its
//! labeling conventions (`S1..S15`, `d0..d19` in Fig. 4).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a dense index.
            #[inline]
            pub fn new(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize);
                $name(index as u32)
            }

            /// The dense index this id wraps.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(i: usize) -> Self {
                $name::new(i)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// Identifies a module within a [`crate::spec::Specification`]; global
    /// across all workflows of the specification (the paper's `M1..M15`,
    /// plus the input/output pseudo-modules).
    ModuleId,
    "m"
);

id_type!(
    /// Identifies a workflow within a specification (the paper's `W1..W4`).
    WorkflowId,
    "w"
);

id_type!(
    /// Identifies a dataflow edge within a specification.
    EdgeId,
    "e"
);

id_type!(
    /// Identifies a data item within an execution (the paper's `d0..d19`).
    /// Each data item is the output of exactly one module execution.
    DataId,
    "d"
);

id_type!(
    /// Identifies a module execution (process) within an execution — the
    /// paper's `S1..S15`. Composite module executions own a begin and an end
    /// node; atomic ones own a single node.
    ProcId,
    "s"
);

id_type!(
    /// Identifies a node of an execution graph (or of a derived view graph).
    NodeId,
    "n"
);

/// Render a process id the way the paper does (1-based: `S1`, `S2`, ...).
pub fn paper_proc_label(p: ProcId) -> String {
    format!("S{}", p.0 + 1)
}

/// Render a data id the way the paper does (0-based: `d0`, `d1`, ...).
pub fn paper_data_label(d: DataId) -> String {
    format!("d{}", d.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_index() {
        let m = ModuleId::new(42);
        assert_eq!(m.index(), 42);
        assert_eq!(usize::from(m), 42);
        assert_eq!(ModuleId::from(42usize), m);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(DataId::new(1) < DataId::new(2));
        assert!(ProcId::new(0) < ProcId::new(10));
    }

    #[test]
    fn debug_and_display() {
        assert_eq!(format!("{}", WorkflowId::new(3)), "w3");
        assert_eq!(format!("{:?}", NodeId::new(7)), "n7");
    }

    #[test]
    fn hashable_distinct() {
        let set: HashSet<ModuleId> = (0..100).map(ModuleId::new).collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn paper_labels() {
        assert_eq!(paper_proc_label(ProcId::new(0)), "S1");
        assert_eq!(paper_proc_label(ProcId::new(14)), "S15");
        assert_eq!(paper_data_label(DataId::new(0)), "d0");
        assert_eq!(paper_data_label(DataId::new(19)), "d19");
    }
}
