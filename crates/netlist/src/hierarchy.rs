//! Design-hierarchy tree with back-annotation links (paper §5.1).
//!
//! Partitioning done throughout the design process creates a tree whose
//! leaves own netlist cells. Debugging changes made at any level are
//! traced through the sub-trees of the altered nodes down to the
//! affected cells — and, once the physical flow assigns cells to tiles,
//! down to the affected tiles. `Quick_ECO` stops this tracing at the
//! netlist (functional-block) level; tiling continues to the physical
//! level. Both consumers use this structure.

use std::fmt;

use crate::error::NetlistError;
use crate::id::CellId;

/// Identifier of a node in a [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HierarchyNodeId(u32);

impl HierarchyNodeId {
    /// Creates an identifier from a raw index.
    pub fn new(index: usize) -> Self {
        Self(index as u32)
    }

    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HierarchyNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    parent: Option<HierarchyNodeId>,
    children: Vec<HierarchyNodeId>,
    cells: Vec<CellId>,
}

/// The module tree of a design, with per-node cell ownership.
///
/// ```
/// use netlist::Hierarchy;
/// use netlist::CellId;
///
/// let mut h = Hierarchy::new("top");
/// let alu = h.add_child(h.root(), "alu");
/// h.assign_cell(alu, CellId::new(0));
/// assert_eq!(h.path(alu).unwrap(), "top/alu");
/// assert_eq!(h.node_of_cell(CellId::new(0)), Some(alu));
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    nodes: Vec<Node>,
    /// cell index -> owning node (dense; grows on demand).
    owner: Vec<Option<HierarchyNodeId>>,
}

impl Hierarchy {
    /// Creates a hierarchy containing only the root module.
    pub fn new(top_name: impl Into<String>) -> Self {
        Self {
            nodes: vec![Node {
                name: top_name.into(),
                parent: None,
                children: Vec::new(),
                cells: Vec::new(),
            }],
            owner: Vec::new(),
        }
    }

    /// The root node.
    pub fn root(&self) -> HierarchyNodeId {
        HierarchyNodeId::new(0)
    }

    /// Adds a child module under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a valid node.
    pub fn add_child(
        &mut self,
        parent: HierarchyNodeId,
        name: impl Into<String>,
    ) -> HierarchyNodeId {
        assert!(parent.index() < self.nodes.len(), "bad parent node");
        let id = HierarchyNodeId::new(self.nodes.len());
        self.nodes.push(Node {
            name: name.into(),
            parent: Some(parent),
            children: Vec::new(),
            cells: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Assigns a cell to a node, replacing any previous assignment.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a valid node.
    pub fn assign_cell(&mut self, node: HierarchyNodeId, cell: CellId) {
        assert!(node.index() < self.nodes.len(), "bad node");
        if cell.index() >= self.owner.len() {
            self.owner.resize(cell.index() + 1, None);
        }
        if let Some(prev) = self.owner[cell.index()] {
            self.nodes[prev.index()].cells.retain(|&c| c != cell);
        }
        self.owner[cell.index()] = Some(node);
        self.nodes[node.index()].cells.push(cell);
    }

    /// The node owning `cell`, if assigned.
    pub fn node_of_cell(&self, cell: CellId) -> Option<HierarchyNodeId> {
        self.owner.get(cell.index()).copied().flatten()
    }

    /// The node's name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownHierarchyNode`] for bad ids.
    pub fn name(&self, node: HierarchyNodeId) -> Result<&str, NetlistError> {
        self.nodes
            .get(node.index())
            .map(|n| n.name.as_str())
            .ok_or(NetlistError::UnknownHierarchyNode(node.index()))
    }

    /// Slash-separated path from the root to `node`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownHierarchyNode`] for bad ids.
    pub fn path(&self, node: HierarchyNodeId) -> Result<String, NetlistError> {
        let mut parts = Vec::new();
        let mut cur = Some(node);
        while let Some(id) = cur {
            let n = self
                .nodes
                .get(id.index())
                .ok_or(NetlistError::UnknownHierarchyNode(id.index()))?;
            parts.push(n.name.clone());
            cur = n.parent;
        }
        parts.reverse();
        Ok(parts.join("/"))
    }

    /// Direct children of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownHierarchyNode`] for bad ids.
    pub fn children(&self, node: HierarchyNodeId) -> Result<&[HierarchyNodeId], NetlistError> {
        self.nodes
            .get(node.index())
            .map(|n| n.children.as_slice())
            .ok_or(NetlistError::UnknownHierarchyNode(node.index()))
    }

    /// Cells assigned directly to `node` (not descendants).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownHierarchyNode`] for bad ids.
    pub fn cells(&self, node: HierarchyNodeId) -> Result<&[CellId], NetlistError> {
        self.nodes
            .get(node.index())
            .map(|n| n.cells.as_slice())
            .ok_or(NetlistError::UnknownHierarchyNode(node.index()))
    }

    /// The *functional block* of a cell: the ancestor that is a direct
    /// child of the root (or the root itself for top-level cells).
    ///
    /// This is the granularity at which the paper's `Quick_ECO`
    /// operates (its experiments, and `QuickEcoFlow`, take the whole
    /// design as one block).
    pub fn functional_block_of(&self, cell: CellId) -> Option<HierarchyNodeId> {
        let mut cur = self.node_of_cell(cell)?;
        loop {
            let parent = self.nodes[cur.index()].parent?;
            if parent == self.root() {
                return Some(cur);
            }
            cur = parent;
        }
    }

    /// Number of nodes (including the root).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over every node id.
    pub fn iter(&self) -> impl Iterator<Item = HierarchyNodeId> {
        (0..self.nodes.len()).map(HierarchyNodeId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Hierarchy, HierarchyNodeId, HierarchyNodeId, HierarchyNodeId) {
        let mut h = Hierarchy::new("top");
        let alu = h.add_child(h.root(), "alu");
        let adder = h.add_child(alu, "adder");
        let ctrl = h.add_child(h.root(), "ctrl");
        h.assign_cell(adder, CellId::new(0));
        h.assign_cell(adder, CellId::new(1));
        h.assign_cell(ctrl, CellId::new(2));
        (h, alu, adder, ctrl)
    }

    #[test]
    fn path_construction() {
        let (h, _, adder, _) = sample();
        assert_eq!(h.path(adder).unwrap(), "top/alu/adder");
        assert_eq!(h.path(h.root()).unwrap(), "top");
    }

    #[test]
    fn functional_block_is_root_child() {
        let (h, alu, _, ctrl) = sample();
        assert_eq!(h.functional_block_of(CellId::new(0)), Some(alu));
        assert_eq!(h.functional_block_of(CellId::new(2)), Some(ctrl));
        assert_eq!(h.functional_block_of(CellId::new(9)), None);
    }

    #[test]
    fn reassignment_moves_cell() {
        let (mut h, _, adder, ctrl) = sample();
        h.assign_cell(ctrl, CellId::new(0));
        assert_eq!(h.node_of_cell(CellId::new(0)), Some(ctrl));
        assert_eq!(h.cells(adder).unwrap(), &[CellId::new(1)]);
    }

    #[test]
    fn unknown_node_errors() {
        let (h, ..) = sample();
        assert!(h.path(HierarchyNodeId::new(99)).is_err());
        assert!(h.children(HierarchyNodeId::new(99)).is_err());
    }
}
