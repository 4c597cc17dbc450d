//! Three-valued event-free (levelized) simulation.

use crate::netlist::{GateKind, Netlist, Node, NodeId};
use crate::trit::{resolve_bus, tristate, Drive, Trit};
use std::fmt;

/// Why a simulation request was rejected.
///
/// Most `Simulator` entry points panic on misuse (the callers inside this
/// workspace always pass vectors they just sized off the same netlist),
/// but requests built from *external* data — a fault list read from disk,
/// a pattern file — should go through the fallible
/// [`try_eval_forced`](Simulator::try_eval_forced) and surface these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The input vector does not match the netlist's primary input count.
    InputLengthMismatch {
        /// What the netlist requires.
        expected: usize,
        /// What the caller passed.
        got: usize,
    },
    /// A forced node id does not exist in the netlist.
    ForcedNodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the netlist.
        num_nodes: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InputLengthMismatch { expected, got } => {
                write!(
                    f,
                    "input vector length mismatch: expected {expected}, got {got}"
                )
            }
            SimError::ForcedNodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "forced node {node:?} out of range for a {num_nodes}-node netlist"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A levelized three-valued simulator for a [`Netlist`].
///
/// The simulator owns the flop state vector and a per-node value array. A
/// simulation step is: assign primary inputs, [`eval`](Simulator::eval) the
/// combinational logic, read outputs / flop D values, then
/// [`clock`](Simulator::clock) to latch the next state.
///
/// Scan infrastructure (in `xhc-scan`) bypasses functional D inputs by
/// writing the state vector directly via
/// [`set_flop_state`](Simulator::set_flop_state); capture uses the normal
/// `eval` + `clock` path.
///
/// # Examples
///
/// ```
/// use xhc_logic::{NetlistBuilder, Simulator, Trit};
///
/// let mut b = NetlistBuilder::new();
/// let a = b.input();
/// let c = b.input();
/// let g = b.xor2(a, c);
/// b.output(g);
/// let nl = b.finish()?;
///
/// let mut sim = Simulator::new(&nl);
/// sim.eval(&[Trit::One, Trit::X]);
/// assert_eq!(sim.outputs(), vec![Trit::X]);
/// sim.eval(&[Trit::One, Trit::One]);
/// assert_eq!(sim.outputs(), vec![Trit::Zero]);
/// # Ok::<(), xhc_logic::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    values: Vec<Trit>,
    drives: Vec<Drive>,
    state: Vec<Trit>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with every flop at its power-up value.
    pub fn new(netlist: &'a Netlist) -> Self {
        let state = netlist
            .flops
            .iter()
            .map(|&f| match netlist.node(f) {
                Node::Flop { init, .. } => init.value(),
                _ => unreachable!("flop list holds only flops"),
            })
            .collect();
        Simulator {
            netlist,
            values: vec![Trit::X; netlist.num_nodes()],
            drives: vec![Drive::Z; netlist.num_nodes()],
            state,
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Current state of flop `flop_index` (flop-vector order).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn flop_state(&self, flop_index: usize) -> Trit {
        self.state[flop_index]
    }

    /// Overwrites the state of flop `flop_index` (e.g. a scan load).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set_flop_state(&mut self, flop_index: usize, value: Trit) {
        self.state[flop_index] = value;
    }

    /// The full flop state vector.
    pub fn state(&self) -> &[Trit] {
        &self.state
    }

    /// Resets every flop to its power-up value.
    pub fn reset(&mut self) {
        for (i, &f) in self.netlist.flops.iter().enumerate() {
            if let Node::Flop { init, .. } = self.netlist.node(f) {
                self.state[i] = init.value();
            }
        }
    }

    /// Evaluates the combinational logic for the given primary inputs and
    /// the current flop state.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs`.
    pub fn eval(&mut self, inputs: &[Trit]) {
        self.eval_forced(inputs, &[]);
    }

    /// Like [`eval`](Self::eval), but forces the listed nodes to fixed
    /// values after their normal evaluation — the primitive used for
    /// stuck-at fault injection (a stuck-at-v fault at a node's output
    /// forces that node to `v` regardless of its inputs).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs` or a forced node is out of
    /// range. For requests built from external data, use
    /// [`try_eval_forced`](Self::try_eval_forced) instead.
    pub fn eval_forced(&mut self, inputs: &[Trit], forced: &[(NodeId, Trit)]) {
        assert_eq!(
            inputs.len(),
            self.netlist.num_inputs(),
            "input vector length mismatch"
        );
        if let Some(&(node, _)) = forced
            .iter()
            .find(|(n, _)| n.index() >= self.netlist.num_nodes())
        {
            panic!(
                "forced node {node:?} out of range for a {}-node netlist",
                self.netlist.num_nodes()
            );
        }
        self.eval_forced_unchecked(inputs, forced);
    }

    /// Fallible variant of [`eval_forced`](Self::eval_forced): rejects
    /// mis-sized input vectors and out-of-range forced nodes with a typed
    /// [`SimError`] instead of panicking. On error the simulator state is
    /// untouched.
    pub fn try_eval_forced(
        &mut self,
        inputs: &[Trit],
        forced: &[(NodeId, Trit)],
    ) -> Result<(), SimError> {
        if inputs.len() != self.netlist.num_inputs() {
            return Err(SimError::InputLengthMismatch {
                expected: self.netlist.num_inputs(),
                got: inputs.len(),
            });
        }
        if let Some(&(node, _)) = forced
            .iter()
            .find(|(n, _)| n.index() >= self.netlist.num_nodes())
        {
            return Err(SimError::ForcedNodeOutOfRange {
                node,
                num_nodes: self.netlist.num_nodes(),
            });
        }
        self.eval_forced_unchecked(inputs, forced);
        Ok(())
    }

    fn eval_forced_unchecked(&mut self, inputs: &[Trit], forced: &[(NodeId, Trit)]) {
        let forced_value =
            |id: NodeId| -> Option<Trit> { forced.iter().find(|(n, _)| *n == id).map(|&(_, v)| v) };
        // Seed sources.
        for (id, node) in self.netlist.iter_nodes() {
            match node {
                Node::Input(idx) => self.values[id.index()] = inputs[*idx],
                Node::Const(v) => self.values[id.index()] = *v,
                Node::Flop { .. } => {
                    let fi = self
                        .netlist
                        .flop_index(id)
                        .expect("flop node must be in the flop list");
                    self.values[id.index()] = self.state[fi];
                }
                _ => {}
            }
            if !matches!(
                node,
                Node::Gate { .. } | Node::TriBuf { .. } | Node::Bus { .. }
            ) {
                if let Some(v) = forced_value(id) {
                    self.values[id.index()] = v;
                }
            }
        }
        // Evaluate combinational nodes in topological order.
        for &id in &self.netlist.eval_order {
            match self.netlist.node(id) {
                Node::Gate { kind, inputs } => {
                    self.values[id.index()] = eval_gate(*kind, inputs, &self.values);
                }
                Node::TriBuf { enable, data } => {
                    let drv = tristate(self.values[enable.index()], self.values[data.index()]);
                    self.drives[id.index()] = drv;
                    // A tri-buf observed as an ordinary net reads as X when
                    // not driving.
                    self.values[id.index()] = match drv {
                        Drive::Val(v) => v,
                        Drive::Z => Trit::X,
                    };
                }
                Node::Bus { drivers } => {
                    self.values[id.index()] =
                        resolve_bus(drivers.iter().map(|d| self.drives[d.index()]));
                }
                _ => unreachable!("eval_order holds only combinational nodes"),
            }
            if let Some(v) = forced_value(id) {
                self.values[id.index()] = v;
                // A forced tri-buf actively drives the forced value.
                if matches!(self.netlist.node(id), Node::TriBuf { .. }) {
                    self.drives[id.index()] = Drive::Val(v);
                }
            }
        }
    }

    /// The value of node `id` from the most recent [`eval`](Self::eval).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn value(&self, id: NodeId) -> Trit {
        self.values[id.index()]
    }

    /// Primary output values from the most recent [`eval`](Self::eval).
    pub fn outputs(&self) -> Vec<Trit> {
        self.netlist
            .outputs
            .iter()
            .map(|&o| self.values[o.index()])
            .collect()
    }

    /// D-input values of every flop from the most recent
    /// [`eval`](Self::eval) — what the flops *would* capture.
    pub fn flop_next(&self) -> Vec<Trit> {
        self.netlist
            .flops
            .iter()
            .map(|&f| match self.netlist.node(f) {
                Node::Flop { d: Some(d), .. } => self.values[d.index()],
                _ => unreachable!("validated netlist has connected flops"),
            })
            .collect()
    }

    /// Latches the D inputs into the state vector (a capture clock).
    ///
    /// Call after [`eval`](Self::eval).
    pub fn clock(&mut self) {
        let next = self.flop_next();
        self.state.copy_from_slice(&next);
    }

    /// Convenience: `eval` then `clock`, returning the primary outputs
    /// observed *before* the clock edge.
    pub fn step(&mut self, inputs: &[Trit]) -> Vec<Trit> {
        self.eval(inputs);
        let out = self.outputs();
        self.clock();
        out
    }
}

fn eval_gate(kind: GateKind, inputs: &[NodeId], values: &[Trit]) -> Trit {
    let v = |i: usize| values[inputs[i].index()];
    match kind {
        GateKind::And => inputs
            .iter()
            .map(|n| values[n.index()])
            .fold(Trit::One, |a, b| a & b),
        GateKind::Or => inputs
            .iter()
            .map(|n| values[n.index()])
            .fold(Trit::Zero, |a, b| a | b),
        GateKind::Nand => !inputs
            .iter()
            .map(|n| values[n.index()])
            .fold(Trit::One, |a, b| a & b),
        GateKind::Nor => !inputs
            .iter()
            .map(|n| values[n.index()])
            .fold(Trit::Zero, |a, b| a | b),
        GateKind::Xor => inputs
            .iter()
            .map(|n| values[n.index()])
            .fold(Trit::Zero, |a, b| a ^ b),
        GateKind::Xnor => !inputs
            .iter()
            .map(|n| values[n.index()])
            .fold(Trit::Zero, |a, b| a ^ b),
        GateKind::Not => !v(0),
        GateKind::Buf => v(0),
        GateKind::Mux => match v(0) {
            Trit::Zero => v(1),
            Trit::One => v(2),
            Trit::X => {
                // An unknown select still yields a known output when both
                // data inputs agree on a known value.
                let (a, b) = (v(1), v(2));
                if a == b && a.is_known() {
                    a
                } else {
                    Trit::X
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{FlopInit, NetlistBuilder};
    use Trit::{One, Zero, X};

    #[test]
    fn gate_semantics_through_sim() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        let and = b.and2(a, c);
        let or = b.or2(a, c);
        let xor = b.xor2(a, c);
        let nand = b.nand2(a, c);
        for g in [and, or, xor, nand] {
            b.output(g);
        }
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);

        sim.eval(&[Zero, X]);
        assert_eq!(sim.outputs(), vec![Zero, X, X, One]);
        sim.eval(&[One, X]);
        assert_eq!(sim.outputs(), vec![X, One, X, X]);
        sim.eval(&[One, One]);
        assert_eq!(sim.outputs(), vec![One, One, Zero, Zero]);
    }

    #[test]
    fn mux_with_x_select() {
        let mut b = NetlistBuilder::new();
        let s = b.input();
        let a = b.input();
        let c = b.input();
        let m = b.mux(s, a, c);
        b.output(m);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);

        sim.eval(&[Zero, One, Zero]);
        assert_eq!(sim.outputs(), vec![One]);
        sim.eval(&[One, One, Zero]);
        assert_eq!(sim.outputs(), vec![Zero]);
        // X select, agreeing data -> known output.
        sim.eval(&[X, One, One]);
        assert_eq!(sim.outputs(), vec![One]);
        // X select, disagreeing data -> X.
        sim.eval(&[X, One, Zero]);
        assert_eq!(sim.outputs(), vec![X]);
    }

    #[test]
    fn uninitialized_flop_produces_x() {
        let mut b = NetlistBuilder::new();
        let inp = b.input();
        let shadow = b.flop(FlopInit::Unknown);
        let g = b.xor2(inp, shadow);
        b.connect_flop_d(shadow, inp);
        b.output(g);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);

        // Power-up: shadow is X -> output is X regardless of the input.
        sim.eval(&[One]);
        assert_eq!(sim.outputs(), vec![X]);
        // After a clock the flop holds the (known) input; X washes out.
        sim.clock();
        sim.eval(&[Zero]);
        assert_eq!(sim.outputs(), vec![One]); // 0 ^ 1
    }

    #[test]
    fn floating_bus_and_contention() {
        let mut b = NetlistBuilder::new();
        let en1 = b.input();
        let en2 = b.input();
        let d1 = b.input();
        let d2 = b.input();
        let t1 = b.tribuf(en1, d1);
        let t2 = b.tribuf(en2, d2);
        let bus = b.bus(vec![t1, t2]);
        b.output(bus);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);

        // Nobody drives: floating -> X.
        sim.eval(&[Zero, Zero, One, Zero]);
        assert_eq!(sim.outputs(), vec![X]);
        // One driver.
        sim.eval(&[One, Zero, One, Zero]);
        assert_eq!(sim.outputs(), vec![One]);
        // Contention.
        sim.eval(&[One, One, One, Zero]);
        assert_eq!(sim.outputs(), vec![X]);
        // Agreement.
        sim.eval(&[One, One, One, One]);
        assert_eq!(sim.outputs(), vec![One]);
    }

    #[test]
    fn sequential_toggle() {
        // q' = !q starting from 0: 0, 1, 0, 1, …
        let mut b = NetlistBuilder::new();
        let q = b.flop(FlopInit::Zero);
        let nq = b.not(q);
        b.connect_flop_d(q, nq);
        b.output(q);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);

        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.extend(sim.step(&[]));
        }
        assert_eq!(seen, vec![Zero, One, Zero, One]);
    }

    #[test]
    fn scan_style_state_override() {
        let mut b = NetlistBuilder::new();
        let q = b.flop(FlopInit::Unknown);
        let inp = b.input();
        let g = b.and2(q, inp);
        b.connect_flop_d(q, g);
        b.output(g);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);

        // Scan-load a known value over the X power-up state.
        sim.set_flop_state(0, One);
        sim.eval(&[One]);
        assert_eq!(sim.outputs(), vec![One]);
        assert_eq!(sim.flop_next(), vec![One]);
        sim.reset();
        assert_eq!(sim.flop_state(0), X);
    }

    #[test]
    #[should_panic(expected = "input vector length mismatch")]
    fn wrong_input_len_panics() {
        let mut b = NetlistBuilder::new();
        b.input();
        let nl = b.finish().unwrap();
        Simulator::new(&nl).eval(&[]);
    }

    #[test]
    fn try_eval_forced_rejects_bad_requests() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let g = b.not(a);
        b.output(g);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);

        let err = sim.try_eval_forced(&[], &[]).unwrap_err();
        assert_eq!(
            err,
            SimError::InputLengthMismatch {
                expected: 1,
                got: 0
            }
        );

        let bogus = NodeId::from_index(99);
        let err = sim.try_eval_forced(&[One], &[(bogus, Zero)]).unwrap_err();
        assert!(matches!(err, SimError::ForcedNodeOutOfRange { .. }));
        assert!(err.to_string().contains("out of range"));

        // Valid request succeeds and matches the panicking path.
        sim.try_eval_forced(&[One], &[(g, One)]).unwrap();
        assert_eq!(sim.outputs(), vec![One]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn eval_forced_out_of_range_panics() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        b.output(a);
        let nl = b.finish().unwrap();
        Simulator::new(&nl).eval_forced(&[One], &[(NodeId::from_index(7), Zero)]);
    }

    #[test]
    fn eval_forced_injects_stuck_at() {
        // out = AND(a, b); force the AND output to 1 (stuck-at-1).
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        let g = b.and2(a, c);
        b.output(g);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.eval_forced(&[Zero, Zero], &[(g, One)]);
        assert_eq!(sim.outputs(), vec![One]);
        // Forcing an input node works too.
        sim.eval_forced(&[Zero, One], &[(a, One)]);
        assert_eq!(sim.outputs(), vec![One]);
        // Unforced eval is unaffected.
        sim.eval(&[Zero, One]);
        assert_eq!(sim.outputs(), vec![Zero]);
    }

    #[test]
    fn xnor_and_nor() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        let xnor = b.gate(GateKind::Xnor, vec![a, c]);
        let nor = b.gate(GateKind::Nor, vec![a, c]);
        b.output(xnor);
        b.output(nor);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.eval(&[One, One]);
        assert_eq!(sim.outputs(), vec![One, Zero]);
        sim.eval(&[Zero, Zero]);
        assert_eq!(sim.outputs(), vec![One, One]);
        sim.eval(&[Zero, X]);
        assert_eq!(sim.outputs(), vec![X, X]);
    }
}
