//! Failure scenarios and live cluster state.
//!
//! The paper's evaluation exercises three failure patterns (Figure 7(d)):
//! a single-node failure (the common case the schedulers are designed
//! for), a double-node failure, and a full-rack failure. A scenario is
//! applied at simulation start — the paper's model is a cluster already
//! *in failure mode* while a MapReduce job runs.

use crate::topology::{NodeId, RackId, Topology};
use std::collections::BTreeSet;
use std::fmt;

/// A failure description that does not fit the topology it is applied
/// to (out-of-range node or rack ids).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureError {
    /// A node id beyond the topology's node count.
    UnknownNode {
        /// The offending node.
        node: NodeId,
        /// Nodes in the topology.
        num_nodes: usize,
    },
    /// A rack id beyond the topology's rack count.
    UnknownRack {
        /// The offending rack.
        rack: RackId,
        /// Racks in the topology.
        num_racks: usize,
    },
}

impl fmt::Display for FailureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureError::UnknownNode { node, num_nodes } => {
                write!(f, "{node} out of range (topology has {num_nodes} nodes)")
            }
            FailureError::UnknownRack { rack, num_racks } => {
                write!(f, "{rack} out of range (topology has {num_racks} racks)")
            }
        }
    }
}

impl std::error::Error for FailureError {}

/// A set of failed nodes and/or racks, applied before a run.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FailureScenario {
    nodes: BTreeSet<NodeId>,
    racks: BTreeSet<RackId>,
}

impl FailureScenario {
    /// No failures — "normal mode" in the paper's terminology.
    pub fn none() -> FailureScenario {
        FailureScenario::default()
    }

    /// Fails an explicit set of nodes.
    pub fn nodes(nodes: impl IntoIterator<Item = NodeId>) -> FailureScenario {
        FailureScenario {
            nodes: nodes.into_iter().collect(),
            racks: BTreeSet::new(),
        }
    }

    /// Fails every node of one rack.
    pub fn rack(rack: RackId) -> FailureScenario {
        FailureScenario {
            nodes: BTreeSet::new(),
            racks: [rack].into_iter().collect(),
        }
    }

    /// True if nothing fails.
    pub fn is_normal_mode(&self) -> bool {
        self.nodes.is_empty() && self.racks.is_empty()
    }

    /// Checks every referenced node and rack id against `topo`.
    ///
    /// Scenarios are plain id sets (they deserialize from configuration
    /// and parse from CLI flags), so out-of-range ids are only
    /// detectable once a topology is in hand. Call this at that meeting
    /// point to surface a proper error instead of a later panic deep in
    /// [`ClusterState::fail_node`].
    pub fn validate(&self, topo: &Topology) -> Result<(), FailureError> {
        for &node in &self.nodes {
            if node.index() >= topo.num_nodes() {
                return Err(FailureError::UnknownNode {
                    node,
                    num_nodes: topo.num_nodes(),
                });
            }
        }
        for &rack in &self.racks {
            if rack.index() >= topo.num_racks() {
                return Err(FailureError::UnknownRack {
                    rack,
                    num_racks: topo.num_racks(),
                });
            }
        }
        Ok(())
    }

    /// The failed nodes this scenario implies on `topo` (explicit nodes
    /// plus all members of failed racks).
    pub fn failed_nodes(&self, topo: &Topology) -> BTreeSet<NodeId> {
        let mut out = self.nodes.clone();
        for &rack in &self.racks {
            out.extend(topo.nodes_in_rack(rack).iter().copied());
        }
        out
    }
}

impl fmt::Display for FailureScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_normal_mode() {
            return write!(f, "normal mode");
        }
        let nodes: Vec<String> = self.nodes.iter().map(|n| n.to_string()).collect();
        let racks: Vec<String> = self.racks.iter().map(|r| r.to_string()).collect();
        write!(
            f,
            "failed[{}]",
            nodes.into_iter().chain(racks).collect::<Vec<_>>().join(",")
        )
    }
}

/// The live/failed status of every node during a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterState {
    alive: Vec<bool>,
}

impl ClusterState {
    /// All nodes alive.
    pub fn all_alive(topo: &Topology) -> ClusterState {
        ClusterState {
            alive: vec![true; topo.num_nodes()],
        }
    }

    /// Builds the state implied by a scenario.
    pub fn from_scenario(topo: &Topology, scenario: &FailureScenario) -> ClusterState {
        let mut state = ClusterState::all_alive(topo);
        state.apply(topo, scenario);
        state
    }

    /// Marks the nodes of a scenario as failed, expanding rack failures
    /// to their member nodes via `topo`.
    pub fn apply(&mut self, topo: &Topology, scenario: &FailureScenario) {
        for node in scenario.failed_nodes(topo) {
            self.fail_node(node);
        }
    }

    /// Marks one node failed.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node.
    pub fn fail_node(&mut self, node: NodeId) {
        assert!(node.index() < self.alive.len(), "unknown {node}");
        self.alive[node.index()] = false;
    }

    /// Marks one node alive again (mid-run recovery).
    ///
    /// # Panics
    ///
    /// Panics on an unknown node.
    pub fn recover_node(&mut self, node: NodeId) {
        assert!(node.index() < self.alive.len(), "unknown {node}");
        self.alive[node.index()] = true;
    }

    /// True if the node has not failed.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node.
    pub fn is_alive(&self, node: NodeId) -> bool {
        assert!(node.index() < self.alive.len(), "unknown {node}");
        self.alive[node.index()]
    }

    /// All live node ids, in index order.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// All failed node ids, in index order.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| !a)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Number of live nodes.
    pub fn num_alive(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::homogeneous(2, 3, 2, 1)
    }

    #[test]
    fn normal_mode() {
        let s = FailureScenario::none();
        assert!(s.is_normal_mode());
        assert_eq!(s.to_string(), "normal mode");
        let state = ClusterState::from_scenario(&topo(), &s);
        assert_eq!(state.num_alive(), 6);
        assert!(state.failed_nodes().is_empty());
    }

    #[test]
    fn single_node_failure() {
        let t = topo();
        let s = FailureScenario::nodes([NodeId(1)]);
        let state = ClusterState::from_scenario(&t, &s);
        assert!(!state.is_alive(NodeId(1)));
        assert!(state.is_alive(NodeId(0)));
        assert_eq!(state.num_alive(), 5);
        assert_eq!(state.failed_nodes(), vec![NodeId(1)]);
        assert_eq!(s.failed_nodes(&t).len(), 1);
    }

    #[test]
    fn double_node_failure() {
        let t = topo();
        let s = FailureScenario::nodes([NodeId(0), NodeId(4)]);
        let state = ClusterState::from_scenario(&t, &s);
        assert_eq!(state.num_alive(), 4);
        assert_eq!(
            state.alive_nodes(),
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(5)]
        );
    }

    #[test]
    fn rack_failure_expands_to_members() {
        let t = topo();
        let s = FailureScenario::rack(RackId(1));
        assert!(!s.is_normal_mode());
        let failed = s.failed_nodes(&t);
        assert_eq!(failed.len(), 3);
        assert!(failed.contains(&NodeId(3)));
        assert!(failed.contains(&NodeId(5)));
        let state = ClusterState::from_scenario(&t, &s);
        assert_eq!(state.num_alive(), 3);
    }

    #[test]
    fn apply_node_scenario() {
        let t = topo();
        let mut state = ClusterState::all_alive(&t);
        state.apply(&t, &FailureScenario::nodes([NodeId(2)]));
        assert!(!state.is_alive(NodeId(2)));
    }

    #[test]
    fn apply_expands_rack_scenarios() {
        let t = topo();
        let mut state = ClusterState::all_alive(&t);
        state.apply(&t, &FailureScenario::rack(RackId(0)));
        assert_eq!(state.num_alive(), 3);
        for &node in t.nodes_in_rack(RackId(0)) {
            assert!(!state.is_alive(node));
        }
    }

    #[test]
    fn recover_node_restores_liveness() {
        let t = topo();
        let mut state = ClusterState::from_scenario(&t, &FailureScenario::nodes([NodeId(4)]));
        assert!(!state.is_alive(NodeId(4)));
        state.recover_node(NodeId(4));
        assert!(state.is_alive(NodeId(4)));
        assert_eq!(state, ClusterState::all_alive(&t));
    }

    #[test]
    fn validate_checks_ranges() {
        let t = topo();
        assert_eq!(FailureScenario::none().validate(&t), Ok(()));
        assert_eq!(FailureScenario::nodes([NodeId(5)]).validate(&t), Ok(()));
        assert_eq!(
            FailureScenario::nodes([NodeId(6)]).validate(&t),
            Err(FailureError::UnknownNode {
                node: NodeId(6),
                num_nodes: 6
            })
        );
        assert_eq!(
            FailureScenario::rack(RackId(2)).validate(&t),
            Err(FailureError::UnknownRack {
                rack: RackId(2),
                num_racks: 2
            })
        );
        assert!(FailureScenario::nodes([NodeId(9)])
            .validate(&t)
            .unwrap_err()
            .to_string()
            .contains("node9"));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_panics() {
        let mut state = ClusterState::all_alive(&topo());
        state.fail_node(NodeId(99));
    }

    #[test]
    fn display_lists_failures() {
        let s = FailureScenario::nodes([NodeId(2)]);
        assert_eq!(s.to_string(), "failed[node2]");
        let s = FailureScenario::rack(RackId(0));
        assert!(s.to_string().contains("rack0"));
    }
}
