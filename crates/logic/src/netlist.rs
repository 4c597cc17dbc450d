//! Gate-level netlist representation.

use crate::Trit;
use std::fmt;

/// Identifier of a node (gate output, input, constant, flop, bus) in a
/// [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A node id from a raw index — for deserializing externally stored
    /// references (fault lists, saved patterns). The id is *not* checked
    /// against any netlist here; fallible consumers such as
    /// [`NetlistBuilder::finish`] and
    /// [`Simulator::try_eval_forced`](crate::Simulator::try_eval_forced)
    /// validate on use.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits in u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Combinational gate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// N-input AND.
    And,
    /// N-input OR.
    Or,
    /// N-input NAND.
    Nand,
    /// N-input NOR.
    Nor,
    /// N-input XOR (parity).
    Xor,
    /// N-input XNOR.
    Xnor,
    /// Inverter (1 input).
    Not,
    /// Buffer (1 input).
    Buf,
    /// 2:1 multiplexer; inputs are `[sel, a, b]`, output `a` when `sel=0`.
    Mux,
}

/// Initial (power-up) value of a state element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FlopInit {
    /// Reset to 0.
    #[default]
    Zero,
    /// Reset to 1.
    One,
    /// Uninitialized — powers up as `X`. This is one of the paper's X
    /// sources ("uninitialized memory elements").
    Unknown,
}

impl FlopInit {
    /// The power-up logic value.
    pub fn value(self) -> Trit {
        match self {
            FlopInit::Zero => Trit::Zero,
            FlopInit::One => Trit::One,
            FlopInit::Unknown => Trit::X,
        }
    }
}

/// A node of the netlist graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Primary input (its position in the input vector).
    Input(usize),
    /// Constant value.
    Const(Trit),
    /// Combinational gate over the listed fan-in nodes.
    Gate {
        /// Gate function.
        kind: GateKind,
        /// Fan-in node ids.
        inputs: Vec<NodeId>,
    },
    /// D flip-flop. The node's value is the flop's *current state*; `d` is
    /// sampled into the state on [`crate::Simulator::clock`].
    Flop {
        /// Data input (set by [`NetlistBuilder::connect_flop_d`]).
        d: Option<NodeId>,
        /// Power-up value.
        init: FlopInit,
    },
    /// Tri-state buffer: drives `data` onto its bus when `enable` is 1.
    TriBuf {
        /// Enable input.
        enable: NodeId,
        /// Data input.
        data: NodeId,
    },
    /// A bus net resolved from one or more [`Node::TriBuf`] drivers.
    Bus {
        /// The tri-state drivers of this bus.
        drivers: Vec<NodeId>,
    },
}

/// Errors produced while finalising a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A flop was never given a D input.
    UnconnectedFlop(NodeId),
    /// A gate has the wrong number of inputs for its kind.
    BadArity {
        /// The offending node.
        node: NodeId,
        /// What the gate kind requires.
        expected: &'static str,
        /// What it got.
        got: usize,
    },
    /// The combinational part of the graph has a cycle through these nodes.
    CombinationalCycle(Vec<NodeId>),
    /// A bus driver is not a tri-state buffer.
    NonTriBufDriver {
        /// The bus node.
        bus: NodeId,
        /// The offending driver.
        driver: NodeId,
    },
    /// A node or a primary output refers to a node the builder never made
    /// (an id from [`NodeId::from_index`] past the last node).
    DanglingReference {
        /// The node holding the reference, or `None` for a primary output.
        node: Option<NodeId>,
        /// The reference that names no node.
        reference: NodeId,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnconnectedFlop(n) => write!(f, "flop {n} has no D input"),
            BuildError::BadArity {
                node,
                expected,
                got,
            } => write!(f, "gate {node} expects {expected} inputs, got {got}"),
            BuildError::CombinationalCycle(nodes) => {
                write!(f, "combinational cycle through {} node(s)", nodes.len())
            }
            BuildError::NonTriBufDriver { bus, driver } => {
                write!(f, "bus {bus} driver {driver} is not a tri-state buffer")
            }
            BuildError::DanglingReference { node, reference } => {
                match node {
                    Some(node) => write!(f, "node {node}")?,
                    None => f.write_str("a primary output")?,
                }
                write!(f, " refers to {reference}, which is not a node")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// An immutable, validated gate-level netlist.
///
/// Built with [`NetlistBuilder`], its only constructor; validated for
/// resolved node references, connected flops, gate arities, bus drivers
/// and combinational acyclicity, and pre-levelized for fast simulation.
///
/// # Examples
///
/// ```
/// use xhc_logic::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new();
/// let a = b.input();
/// let c = b.input();
/// let g = b.gate(GateKind::And, vec![a, c]);
/// b.output(g);
/// let netlist = b.finish()?;
/// assert_eq!(netlist.num_inputs(), 2);
/// assert_eq!(netlist.num_outputs(), 1);
/// # Ok::<(), xhc_logic::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) nodes: Vec<Node>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<NodeId>,
    pub(crate) flops: Vec<NodeId>,
    /// Combinational nodes in topological (evaluation) order.
    pub(crate) eval_order: Vec<NodeId>,
}

impl Netlist {
    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of state elements (flops).
    pub fn num_flops(&self) -> usize {
        self.flops.len()
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node ids of the primary inputs, in input-vector order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The node ids of the primary outputs.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The node ids of the flops, in flop-index order.
    pub fn flops(&self) -> &[NodeId] {
        &self.flops
    }

    /// The node stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Position of `flop` in the flop-index order, if it is a flop.
    pub fn flop_index(&self, flop: NodeId) -> Option<usize> {
        self.flops.iter().position(|&f| f == flop)
    }

    /// Iterator over `(NodeId, &Node)` pairs.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The combinational logic depth: the longest source-to-sink gate
    /// chain (sources — inputs, constants, flop outputs — are depth 0;
    /// every gate, tri-state buffer and bus adds one level).
    ///
    /// A rough proxy for the critical path, used by circuit-generation
    /// tests and reports.
    pub fn logic_depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max_depth = 0;
        for &id in &self.eval_order {
            let inputs = comb_inputs(self.node(id));
            let d = 1 + inputs.iter().map(|i| depth[i.index()]).max().unwrap_or(0);
            depth[id.index()] = d;
            max_depth = max_depth.max(d);
        }
        max_depth
    }
}

/// The combinational fan-in of a node. Flop D edges are sequential and
/// excluded (state feedback through a flop is legal).
fn comb_inputs(node: &Node) -> Vec<NodeId> {
    match node {
        Node::Gate { inputs, .. } => inputs.clone(),
        Node::TriBuf { enable, data } => vec![*enable, *data],
        Node::Bus { drivers } => drivers.clone(),
        Node::Input(_) | Node::Const(_) | Node::Flop { .. } => Vec::new(),
    }
}

/// Incremental builder for [`Netlist`].
///
/// See [`Netlist`] for an example.
#[derive(Debug, Default, Clone)]
pub struct NetlistBuilder {
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    flops: Vec<NodeId>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Adds a primary input and returns its node.
    pub fn input(&mut self) -> NodeId {
        let idx = self.inputs.len();
        let id = self.push(Node::Input(idx));
        self.inputs.push(id);
        id
    }

    /// Adds a constant node.
    pub fn constant(&mut self, value: Trit) -> NodeId {
        self.push(Node::Const(value))
    }

    /// Adds a combinational gate.
    pub fn gate(&mut self, kind: GateKind, inputs: Vec<NodeId>) -> NodeId {
        self.push(Node::Gate { kind, inputs })
    }

    /// Adds an inverter.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.gate(GateKind::Not, vec![a])
    }

    /// Adds a 2-input AND.
    pub fn and2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(GateKind::And, vec![a, b])
    }

    /// Adds a 2-input OR.
    pub fn or2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(GateKind::Or, vec![a, b])
    }

    /// Adds a 2-input XOR.
    pub fn xor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(GateKind::Xor, vec![a, b])
    }

    /// Adds a 2-input NAND.
    pub fn nand2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(GateKind::Nand, vec![a, b])
    }

    /// Adds a 2:1 mux (`sel=0` selects `a`).
    pub fn mux(&mut self, sel: NodeId, a: NodeId, b: NodeId) -> NodeId {
        self.gate(GateKind::Mux, vec![sel, a, b])
    }

    /// Adds a flop with the given power-up value. Connect its D input later
    /// with [`connect_flop_d`](Self::connect_flop_d).
    pub fn flop(&mut self, init: FlopInit) -> NodeId {
        let id = self.push(Node::Flop { d: None, init });
        self.flops.push(id);
        id
    }

    /// Connects the D input of a flop created by [`flop`](Self::flop).
    ///
    /// # Panics
    ///
    /// Panics if `flop` is not a flop node.
    pub fn connect_flop_d(&mut self, flop: NodeId, d: NodeId) {
        match &mut self.nodes[flop.index()] {
            Node::Flop { d: slot, .. } => *slot = Some(d),
            other => panic!("node {flop} is not a flop: {other:?}"),
        }
    }

    /// Adds a tri-state buffer driving `data` when `enable` is 1.
    pub fn tribuf(&mut self, enable: NodeId, data: NodeId) -> NodeId {
        self.push(Node::TriBuf { enable, data })
    }

    /// Adds a bus net resolved from tri-state `drivers`.
    pub fn bus(&mut self, drivers: Vec<NodeId>) -> NodeId {
        self.push(Node::Bus { drivers })
    }

    /// Marks a node as a primary output.
    pub fn output(&mut self, node: NodeId) {
        self.outputs.push(node);
    }

    /// Validates and levelizes the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if a node or an output refers to no node, a
    /// flop has no D input, a gate has an invalid arity, a bus driver is
    /// not a tri-state buffer, or the combinational graph is cyclic.
    pub fn finish(self) -> Result<Netlist, BuildError> {
        // Every reference must name a node before any is followed.
        let n = self.nodes.len();
        for (i, node) in self.nodes.iter().enumerate() {
            let flop_d = match node {
                Node::Flop { d, .. } => *d,
                _ => None,
            };
            let mut refs = comb_inputs(node).into_iter().chain(flop_d);
            if let Some(reference) = refs.find(|r| r.index() >= n) {
                return Err(BuildError::DanglingReference {
                    node: Some(NodeId(i as u32)),
                    reference,
                });
            }
        }
        if let Some(&reference) = self.outputs.iter().find(|r| r.index() >= n) {
            return Err(BuildError::DanglingReference {
                node: None,
                reference,
            });
        }

        // Arity / connectivity validation.
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            match node {
                Node::Flop { d: None, .. } => return Err(BuildError::UnconnectedFlop(id)),
                Node::Gate { kind, inputs } => {
                    let ok = match kind {
                        GateKind::Not | GateKind::Buf => inputs.len() == 1,
                        GateKind::Mux => inputs.len() == 3,
                        _ => inputs.len() >= 2,
                    };
                    if !ok {
                        let expected = match kind {
                            GateKind::Not | GateKind::Buf => "exactly 1",
                            GateKind::Mux => "exactly 3",
                            _ => "at least 2",
                        };
                        return Err(BuildError::BadArity {
                            node: id,
                            expected,
                            got: inputs.len(),
                        });
                    }
                }
                Node::Bus { drivers } => {
                    for &drv in drivers {
                        if !matches!(self.nodes[drv.index()], Node::TriBuf { .. }) {
                            return Err(BuildError::NonTriBufDriver {
                                bus: id,
                                driver: drv,
                            });
                        }
                    }
                }
                _ => {}
            }
        }

        // Kahn levelization over combinational edges (flop D edges cut).
        let mut indegree = vec![0usize; n];
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for src in comb_inputs(node) {
                indegree[i] += 1;
                fanout[src.index()].push(i as u32);
            }
        }
        let mut ready: Vec<u32> = (0..n as u32)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut eval_order = Vec::with_capacity(n);
        let mut seen = 0usize;
        while let Some(i) = ready.pop() {
            seen += 1;
            let node = &self.nodes[i as usize];
            if matches!(
                node,
                Node::Gate { .. } | Node::TriBuf { .. } | Node::Bus { .. }
            ) {
                eval_order.push(NodeId(i));
            }
            for &f in &fanout[i as usize] {
                indegree[f as usize] -= 1;
                if indegree[f as usize] == 0 {
                    ready.push(f);
                }
            }
        }
        if seen != n {
            let cyclic: Vec<NodeId> = (0..n)
                .filter(|&i| indegree[i] > 0)
                .map(|i| NodeId(i as u32))
                .collect();
            return Err(BuildError::CombinationalCycle(cyclic));
        }
        // Kahn with a stack doesn't give a level order, but any topological
        // order is a valid evaluation order. Re-sort for determinism.
        // (The pop order above already is topological; sorting by discovery
        // is unnecessary.)

        Ok(Netlist {
            nodes: self.nodes,
            inputs: self.inputs,
            outputs: self.outputs,
            flops: self.flops,
            eval_order,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_and() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        let g = b.and2(a, c);
        b.output(g);
        let nl = b.finish().unwrap();
        assert_eq!(nl.num_inputs(), 2);
        assert_eq!(nl.num_outputs(), 1);
        assert_eq!(nl.num_flops(), 0);
        assert_eq!(nl.eval_order, vec![g]);
    }

    #[test]
    fn unconnected_flop_is_an_error() {
        let mut b = NetlistBuilder::new();
        let f = b.flop(FlopInit::Zero);
        b.output(f);
        assert_eq!(b.finish().unwrap_err(), BuildError::UnconnectedFlop(f));
    }

    #[test]
    fn bad_arity_is_an_error() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        b.gate(GateKind::And, vec![a]);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, BuildError::BadArity { .. }));
        assert!(err.to_string().contains("at least 2"));
    }

    #[test]
    fn not_and_buf_take_exactly_one_input() {
        for kind in [GateKind::Not, GateKind::Buf] {
            let mut b = NetlistBuilder::new();
            let a = b.input();
            let c = b.input();
            let g = b.gate(kind, vec![a, c]);
            b.output(g);
            assert_eq!(
                b.finish().unwrap_err(),
                BuildError::BadArity {
                    node: g,
                    expected: "exactly 1",
                    got: 2
                },
                "{kind:?}"
            );
        }
    }

    #[test]
    fn mux_requires_three_inputs() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        b.gate(GateKind::Mux, vec![a, c]);
        assert!(matches!(b.finish(), Err(BuildError::BadArity { .. })));
    }

    #[test]
    fn combinational_cycle_detected() {
        // g = AND(a, g): a self-loop.
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let g = b.gate(GateKind::And, vec![a, NodeId(1)]); // NodeId(1) == g itself
        b.output(g);
        assert!(matches!(b.finish(), Err(BuildError::CombinationalCycle(_))));
    }

    #[test]
    fn two_gate_combinational_cycle_detected() {
        // g = AND(a, n); n = NOT(g): the AND names the NOT before it exists.
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let g = b.and2(a, NodeId::from_index(2));
        let n = b.not(g);
        assert_eq!(n, NodeId::from_index(2));
        b.output(g);
        assert_eq!(
            b.finish().unwrap_err(),
            BuildError::CombinationalCycle(vec![g, n])
        );
    }

    /// A reference past the last node, as [`NodeId::from_index`] makes one.
    fn missing() -> NodeId {
        NodeId::from_index(99)
    }

    fn assert_dangling(b: NetlistBuilder, node: Option<NodeId>) {
        let err = b.finish().unwrap_err();
        assert_eq!(
            err,
            BuildError::DanglingReference {
                node,
                reference: missing()
            }
        );
        assert!(err.to_string().contains("n99"), "{err}");
    }

    #[test]
    fn dangling_gate_input_is_an_error() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let g = b.and2(a, missing());
        b.output(g);
        assert_dangling(b, Some(g));
    }

    #[test]
    fn dangling_tribuf_enable_or_data_is_an_error() {
        for enable_dangles in [true, false] {
            let mut b = NetlistBuilder::new();
            let a = b.input();
            let t = if enable_dangles {
                b.tribuf(missing(), a)
            } else {
                b.tribuf(a, missing())
            };
            let bus = b.bus(vec![t]);
            b.output(bus);
            assert_dangling(b, Some(t));
        }
    }

    #[test]
    fn dangling_bus_driver_is_an_error() {
        let mut b = NetlistBuilder::new();
        b.input();
        let bus = b.bus(vec![missing()]);
        b.output(bus);
        assert_dangling(b, Some(bus));
    }

    #[test]
    fn dangling_flop_d_is_an_error() {
        let mut b = NetlistBuilder::new();
        b.input();
        let f = b.flop(FlopInit::Zero);
        b.connect_flop_d(f, missing());
        b.output(f);
        assert_dangling(b, Some(f));
    }

    #[test]
    fn dangling_output_is_an_error() {
        let mut b = NetlistBuilder::new();
        b.input();
        b.output(missing());
        assert_dangling(b, None);
    }

    #[test]
    fn flop_d_edge_breaks_cycles() {
        // A feedback loop through a flop is fine: q = flop(not q).
        let mut b = NetlistBuilder::new();
        let q = b.flop(FlopInit::Zero);
        let nq = b.not(q);
        b.connect_flop_d(q, nq);
        b.output(q);
        let nl = b.finish().unwrap();
        assert_eq!(nl.num_flops(), 1);
    }

    #[test]
    fn bus_driver_must_be_tribuf() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        b.bus(vec![a]);
        assert!(matches!(
            b.finish(),
            Err(BuildError::NonTriBufDriver { .. })
        ));
    }

    #[test]
    fn eval_order_is_topological() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        let g1 = b.and2(a, c);
        let g2 = b.or2(g1, a);
        let g3 = b.xor2(g2, g1);
        b.output(g3);
        let nl = b.finish().unwrap();
        let pos = |id: NodeId| nl.eval_order.iter().position(|&n| n == id).unwrap();
        assert!(pos(g1) < pos(g2));
        assert!(pos(g2) < pos(g3));
    }

    #[test]
    fn flop_init_values() {
        assert_eq!(FlopInit::Zero.value(), Trit::Zero);
        assert_eq!(FlopInit::One.value(), Trit::One);
        assert_eq!(FlopInit::Unknown.value(), Trit::X);
    }

    #[test]
    fn logic_depth_counts_levels() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        let g1 = b.and2(a, c); // depth 1
        let g2 = b.or2(g1, a); // depth 2
        let g3 = b.xor2(g2, g1); // depth 3
        b.output(g3);
        let nl = b.finish().unwrap();
        assert_eq!(nl.logic_depth(), 3);
    }

    #[test]
    fn logic_depth_of_sources_only_is_zero() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        b.output(a);
        assert_eq!(b.finish().unwrap().logic_depth(), 0);
    }

    #[test]
    fn adder_depth_grows_linearly() {
        use crate::samples;
        let d4 = samples::ripple_carry_adder(4).logic_depth();
        let d8 = samples::ripple_carry_adder(8).logic_depth();
        assert!(d8 > d4, "carry chain must deepen: {d4} vs {d8}");
    }

    #[test]
    fn error_display_nonempty() {
        let e = BuildError::UnconnectedFlop(NodeId(3));
        assert!(e.to_string().contains("n3"));
    }
}
