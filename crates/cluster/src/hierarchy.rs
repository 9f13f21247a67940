//! The pattern-cluster hierarchy produced by profiling (Figure 6 of the
//! paper): leaves are the patterns discovered through tokenization and every
//! internal node is a parent (more generic) pattern.

use std::sync::Arc;

use clx_pattern::Pattern;

/// Identifier of a node within a [`PatternHierarchy`].
pub type NodeId = usize;

/// One pattern cluster in the hierarchy.
#[derive(Debug, Clone)]
pub struct ClusterNode {
    /// This node's id.
    pub id: NodeId,
    /// The pattern labelling the cluster.
    pub pattern: Pattern,
    /// Hierarchy level: 0 for leaves, increasing towards more generic
    /// patterns.
    pub level: usize,
    /// Children (more specific patterns) of this node; empty for leaves.
    pub children: Vec<NodeId>,
    /// Parent (more generic pattern), if any.
    pub parent: Option<NodeId>,
    /// Indices into the profiled column's distinct-value table of the
    /// values in this cluster, ascending. For internal nodes this is the
    /// union of the children's members.
    pub members: Vec<usize>,
    /// Number of rows covered: the sum of the members' multiplicities.
    size: usize,
    /// A few example raw values, for display purposes.
    pub examples: Vec<String>,
}

impl ClusterNode {
    /// `true` if this node is a leaf (level 0).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Number of rows covered by this cluster.
    pub fn size(&self) -> usize {
        self.size
    }
}

/// A hierarchical clustering of string data by pattern.
///
/// Level 0 holds the leaf clusters (one per distinct leaf pattern); each
/// higher level holds the covering parent patterns produced by one round of
/// agglomerative refinement. The hierarchy retains every pattern discovered
/// — nothing is lost by generalization (§4.2).
///
/// Clusters hold distinct values, not rows: the hierarchy keeps the
/// profiled column's shared row map and derives row membership from it.
#[derive(Debug, Clone, Default)]
pub struct PatternHierarchy {
    nodes: Vec<ClusterNode>,
    levels: Vec<Vec<NodeId>>,
    /// Row -> distinct-value index: the profiled column's row map.
    row_map: Arc<[u32]>,
    /// Distinct-value index -> the leaf holding that value.
    leaf_of_distinct: Vec<NodeId>,
}

impl PatternHierarchy {
    /// Create an empty hierarchy over a column with `distinct_count`
    /// distinct values and the given row map (used by the profiler).
    pub(crate) fn new(row_map: Arc<[u32]>, distinct_count: usize) -> Self {
        PatternHierarchy {
            nodes: Vec::new(),
            levels: Vec::new(),
            row_map,
            leaf_of_distinct: vec![NodeId::MAX; distinct_count],
        }
    }

    /// Add a node covering `size` rows; returns its id. `level` must be
    /// `levels.len() - 1` or `levels.len()` (nodes are added level by
    /// level), and `members` must be ascending.
    pub(crate) fn add_node(
        &mut self,
        pattern: Pattern,
        level: usize,
        children: Vec<NodeId>,
        members: Vec<usize>,
        size: usize,
        examples: Vec<String>,
    ) -> NodeId {
        let id = self.nodes.len();
        while self.levels.len() <= level {
            self.levels.push(Vec::new());
        }
        for &child in &children {
            self.nodes[child].parent = Some(id);
        }
        if level == 0 {
            for &member in &members {
                self.leaf_of_distinct[member] = id;
            }
        }
        self.levels[level].push(id);
        self.nodes.push(ClusterNode {
            id,
            pattern,
            level,
            children,
            parent: None,
            members,
            size,
            examples,
        });
        id
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &ClusterNode {
        &self.nodes[id]
    }

    /// All nodes, in insertion order (leaves first).
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// Number of levels (1 = leaves only).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The node ids at `level` (0 = leaves).
    pub fn level(&self, level: usize) -> &[NodeId] {
        self.levels.get(level).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The leaf nodes (level 0), most-populated cluster first.
    pub fn leaves(&self) -> Vec<&ClusterNode> {
        let mut leaves: Vec<&ClusterNode> = self.level(0).iter().map(|&id| self.node(id)).collect();
        leaves.sort_by(|a, b| b.size().cmp(&a.size()).then_with(|| a.id.cmp(&b.id)));
        leaves
    }

    /// The root nodes: the nodes of the top level. Together they cover every
    /// row of the profiled data.
    pub fn roots(&self) -> Vec<&ClusterNode> {
        match self.levels.last() {
            Some(top) => top.iter().map(|&id| self.node(id)).collect(),
            None => Vec::new(),
        }
    }

    /// Number of rows that were profiled.
    pub fn total_rows(&self) -> usize {
        self.row_map.len()
    }

    /// The leaf cluster containing data row `row`, if any.
    pub fn leaf_of_row(&self, row: usize) -> Option<&ClusterNode> {
        let &value = self.row_map.get(row)?;
        self.nodes.get(self.leaf_of_distinct[value as usize])
    }

    /// Find the leaf cluster whose pattern equals `pattern`.
    pub fn find_leaf(&self, pattern: &Pattern) -> Option<&ClusterNode> {
        self.level(0)
            .iter()
            .map(|&id| self.node(id))
            .find(|n| &n.pattern == pattern)
    }

    /// Find any node (at any level) whose pattern equals `pattern`.
    pub fn find_pattern(&self, pattern: &Pattern) -> Option<&ClusterNode> {
        self.nodes.iter().find(|n| &n.pattern == pattern)
    }

    /// All distinct leaf patterns with their cluster sizes, largest first —
    /// the list CLX shows the user for labeling (Figure 3 of the paper).
    pub fn pattern_summary(&self) -> Vec<(Pattern, usize)> {
        self.leaves()
            .iter()
            .map(|n| (n.pattern.clone(), n.size()))
            .collect()
    }

    /// The descendants of `id` that are leaves (or `id` itself if it is one).
    pub fn leaf_descendants(&self, id: NodeId) -> Vec<NodeId> {
        let node = self.node(id);
        if node.is_leaf() {
            return vec![id];
        }
        let mut out = Vec::new();
        for &child in &node.children {
            out.extend(self.leaf_descendants(child));
        }
        out
    }

    /// Verify structural invariants; used by tests and debug assertions.
    ///
    /// * every distinct value appears in exactly one leaf;
    /// * each node's members are ascending and its size is the sum of their
    ///   multiplicities;
    /// * leaf sizes sum to the number of profiled rows;
    /// * each internal node's members are the union of its children's;
    /// * each internal node's pattern covers all of its children's patterns;
    /// * parent/child links are mutually consistent.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut multiplicity = vec![0usize; self.leaf_of_distinct.len()];
        for &value in self.row_map.iter() {
            *multiplicity
                .get_mut(value as usize)
                .ok_or(format!("row map names unknown value {value}"))? += 1;
        }
        let leaves = self.level(0).iter().map(|&id| self.node(id));
        let mut held: Vec<usize> = leaves.clone().flat_map(|n| n.members.clone()).collect();
        held.sort_unstable();
        let leaf_rows: usize = leaves.map(ClusterNode::size).sum();
        if !held.into_iter().eq(0..multiplicity.len()) || leaf_rows != self.total_rows() {
            return Err("leaves do not hold each distinct value and row once".into());
        }
        for node in &self.nodes {
            let mut union: Vec<usize> = node
                .children
                .iter()
                .flat_map(|&c| self.node(c).members.clone())
                .collect();
            union.sort_unstable();
            if !node.members.windows(2).all(|w| w[0] < w[1])
                || (!node.is_leaf() && union != node.members)
            {
                return Err(format!("node {} members break order or union", node.id));
            }
            // In range: leaf members were checked above, and an internal
            // node's members equal those of children added before it.
            let size: usize = node.members.iter().map(|&v| multiplicity[v]).sum();
            if node.size != size {
                return Err(format!("node {} size {} is not {size}", node.id, node.size));
            }
            for &child in &node.children {
                let child_node = self.node(child);
                if child_node.parent != Some(node.id) {
                    return Err(format!("child {child} does not point back to {}", node.id));
                }
                if !node.pattern.covers(&child_node.pattern) {
                    return Err(format!(
                        "node {} pattern {} does not cover child pattern {}",
                        node.id, node.pattern, child_node.pattern
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::tokenize;

    fn tiny_hierarchy() -> PatternHierarchy {
        // two leaves under one root; rows 0 and 2 hold distinct value 0
        let mut h = PatternHierarchy::new(Arc::from(vec![0, 1, 0]), 2);
        let l1 = h.add_node(
            tokenize("734-422-8073"),
            0,
            vec![],
            vec![0],
            2,
            vec!["734-422-8073".into()],
        );
        let l2 = h.add_node(
            tokenize("73-42-80"),
            0,
            vec![],
            vec![1],
            1,
            vec!["73-42-80".into()],
        );
        let parent = clx_pattern::parse_pattern("<D>+'-'<D>+'-'<D>+").unwrap();
        h.add_node(
            parent,
            1,
            vec![l1, l2],
            vec![0, 1],
            3,
            vec!["734-422-8073".into()],
        );
        h
    }

    #[test]
    fn basic_navigation() {
        let h = tiny_hierarchy();
        assert_eq!(h.level_count(), 2);
        assert_eq!(h.leaves().len(), 2);
        assert_eq!(h.roots().len(), 1);
        assert_eq!(h.total_rows(), 3);
        assert_eq!(h.node(0).parent, Some(2));
        assert!(h.node(2).children.contains(&0));
        assert!(h.node(0).is_leaf());
        assert!(!h.node(2).is_leaf());
    }

    #[test]
    fn leaves_sorted_by_size() {
        let h = tiny_hierarchy();
        let leaves = h.leaves();
        assert!(leaves[0].size() >= leaves[1].size());
        assert_eq!(leaves[0].size(), 2);
    }

    #[test]
    fn row_lookup() {
        let h = tiny_hierarchy();
        assert_eq!(h.leaf_of_row(1).unwrap().id, 1);
        assert_eq!(h.leaf_of_row(2).unwrap().id, 0);
        assert!(h.leaf_of_row(99).is_none());
    }

    #[test]
    fn pattern_lookup() {
        let h = tiny_hierarchy();
        let p = tokenize("73-42-80");
        assert_eq!(h.find_leaf(&p).unwrap().id, 1);
        assert!(h.find_leaf(&tokenize("xyz")).is_none());
        let root_pattern = clx_pattern::parse_pattern("<D>+'-'<D>+'-'<D>+").unwrap();
        assert!(h.find_pattern(&root_pattern).is_some());
        assert!(h.find_leaf(&root_pattern).is_none());
    }

    #[test]
    fn leaf_descendants() {
        let h = tiny_hierarchy();
        assert_eq!(h.leaf_descendants(2), vec![0, 1]);
        assert_eq!(h.leaf_descendants(0), vec![0]);
    }

    #[test]
    fn summary_lists_patterns_with_sizes() {
        let h = tiny_hierarchy();
        let summary = h.pattern_summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].1, 2);
        assert_eq!(summary[1].1, 1);
    }

    #[test]
    fn invariants_hold_for_tiny_hierarchy() {
        tiny_hierarchy().check_invariants().unwrap();
    }

    #[test]
    fn invariant_violation_is_detected() {
        let mut h = PatternHierarchy::new(Arc::from(vec![0, 1]), 2);
        // Value 0 appears in two leaves.
        h.add_node(tokenize("a"), 0, vec![], vec![0], 1, vec![]);
        h.add_node(tokenize("1"), 0, vec![], vec![0, 1], 2, vec![]);
        assert!(h.check_invariants().is_err());

        // A size that is not the sum of the members' multiplicities.
        let mut h = PatternHierarchy::new(Arc::from(vec![0, 1, 0]), 2);
        h.add_node(tokenize("a"), 0, vec![], vec![0], 1, vec![]);
        h.add_node(tokenize("1"), 0, vec![], vec![1], 2, vec![]);
        let err = h.check_invariants().unwrap_err();
        assert!(err.contains("size"), "{err}");
    }

    #[test]
    fn empty_hierarchy() {
        let h = PatternHierarchy::default();
        assert_eq!(h.level_count(), 0);
        assert!(h.leaves().is_empty());
        assert!(h.roots().is_empty());
        assert!(h.check_invariants().is_ok());
    }
}
