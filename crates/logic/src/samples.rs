//! Small reference circuits used across the workspace's tests and examples.

use crate::netlist::{FlopInit, Netlist, NetlistBuilder, NodeId};

/// The ISCAS-85 C17 benchmark: 5 inputs, 2 outputs, 6 NAND gates.
///
/// The smallest standard combinational benchmark; used as a known-good
/// target for the ATPG and fault-simulation crates.
///
/// # Examples
///
/// ```
/// let c17 = xhc_logic::samples::c17();
/// assert_eq!(c17.num_inputs(), 5);
/// assert_eq!(c17.num_outputs(), 2);
/// ```
pub fn c17() -> Netlist {
    let mut b = NetlistBuilder::new();
    let n1 = b.input();
    let n2 = b.input();
    let n3 = b.input();
    let n6 = b.input();
    let n7 = b.input();
    let n10 = b.nand2(n1, n3);
    let n11 = b.nand2(n3, n6);
    let n16 = b.nand2(n2, n11);
    let n19 = b.nand2(n11, n7);
    let n22 = b.nand2(n10, n16);
    let n23 = b.nand2(n16, n19);
    b.output(n22);
    b.output(n23);
    b.finish().expect("c17 is a valid netlist")
}

/// A 1-bit full adder: inputs `[a, b, cin]`, outputs `[sum, cout]`.
pub fn full_adder() -> Netlist {
    let mut b = NetlistBuilder::new();
    let a = b.input();
    let c = b.input();
    let cin = b.input();
    let axb = b.xor2(a, c);
    let sum = b.xor2(axb, cin);
    let t1 = b.and2(a, c);
    let t2 = b.and2(axb, cin);
    let cout = b.or2(t1, t2);
    b.output(sum);
    b.output(cout);
    b.finish().expect("full adder is a valid netlist")
}

/// A small sequential circuit with all three X sources the paper lists:
///
/// * one **uninitialized** (non-scan) shadow flop,
/// * a **tri-state bus** with two drivers that can float or contend,
/// * four scannable state flops mixing the X's into captured responses.
///
/// Returns the netlist and the flop-vector indices of the scannable flops
/// (the shadow flop is excluded — it is not on any scan chain).
pub fn x_prone_sequential() -> (Netlist, Vec<usize>) {
    let mut b = NetlistBuilder::new();
    let in0 = b.input();
    let in1 = b.input();
    let in2 = b.input();

    // Scannable state.
    let q0 = b.flop(FlopInit::Zero);
    let q1 = b.flop(FlopInit::Zero);
    let q2 = b.flop(FlopInit::Zero);
    let q3 = b.flop(FlopInit::Zero);
    // Uninitialized shadow register: a persistent X source.
    let shadow = b.flop(FlopInit::Unknown);

    // Tri-state bus: two drivers, enables from state.
    let t0 = b.tribuf(q0, in0);
    let t1 = b.tribuf(q1, in1);
    let bus = b.bus(vec![t0, t1]);

    // Next-state logic mixing bus, shadow and inputs.
    let d0 = b.xor2(bus, in2);
    let d1 = b.and2(shadow, in0);
    let or01 = b.or2(q0, q1);
    let d2 = b.xor2(or01, shadow);
    let nb = b.not(bus);
    let d3 = b.and2(nb, q2);
    let dsh = b.xor2(shadow, in2); // shadow keeps cycling its own X

    b.connect_flop_d(q0, d0);
    b.connect_flop_d(q1, d1);
    b.connect_flop_d(q2, d2);
    b.connect_flop_d(q3, d3);
    b.connect_flop_d(shadow, dsh);

    b.output(bus);
    b.output(d2);

    let nl = b.finish().expect("x_prone_sequential is a valid netlist");
    let scan_flops: Vec<usize> = [q0, q1, q2, q3]
        .iter()
        .map(|&f| nl.flop_index(f).expect("scan flop exists"))
        .collect();
    (nl, scan_flops)
}

/// An `n`-bit ripple-carry adder: inputs `[a0..a(n-1), b0..b(n-1), cin]`,
/// outputs `[s0..s(n-1), cout]`.
///
/// A structured, fully testable combinational benchmark for ATPG and
/// fault-simulation experiments at arbitrary size.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// let adder = xhc_logic::samples::ripple_carry_adder(4);
/// assert_eq!(adder.num_inputs(), 9);  // 4 + 4 + carry-in
/// assert_eq!(adder.num_outputs(), 5); // 4 sums + carry-out
/// ```
pub fn ripple_carry_adder(n: usize) -> Netlist {
    assert!(n > 0, "adder width must be positive");
    let mut b = NetlistBuilder::new();
    let a: Vec<_> = (0..n).map(|_| b.input()).collect();
    let bb: Vec<_> = (0..n).map(|_| b.input()).collect();
    let mut carry = b.input(); // cin
    let mut sums = Vec::with_capacity(n);
    for i in 0..n {
        let axb = b.xor2(a[i], bb[i]);
        let sum = b.xor2(axb, carry);
        let t1 = b.and2(a[i], bb[i]);
        let t2 = b.and2(axb, carry);
        carry = b.or2(t1, t2);
        sums.push(sum);
    }
    for s in sums {
        b.output(s);
    }
    b.output(carry);
    b.finish().expect("ripple-carry adder is a valid netlist")
}

/// An `n × n`-bit array multiplier: inputs `[a0.., b0..]`, outputs the
/// `2n`-bit product, LSB first. Built from AND partial products and
/// ripple-carry rows — a deep, reconvergent ATPG workout.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn array_multiplier(n: usize) -> Netlist {
    assert!(n > 0, "multiplier width must be positive");
    let mut b = NetlistBuilder::new();
    let a: Vec<_> = (0..n).map(|_| b.input()).collect();
    let bb: Vec<_> = (0..n).map(|_| b.input()).collect();
    let zero = b.constant(crate::Trit::Zero);

    // Partial products: pp[i][j] = a[j] & b[i], weight i + j.
    // Accumulate row by row with full adders.
    let mut acc: Vec<NodeId> = (0..n).map(|j| b.and2(a[j], bb[0])).collect();
    acc.push(zero); // carry slot
    let mut product = vec![acc[0]];
    let mut carry_word: Vec<NodeId> = acc[1..].to_vec(); // n entries (last is 0)
    for b_i in bb.iter().skip(1) {
        let pp: Vec<_> = (0..n).map(|j| b.and2(a[j], *b_i)).collect();
        let mut next = Vec::with_capacity(n + 1);
        let mut carry = zero;
        for j in 0..n {
            // sum = pp[j] + carry_word[j] + carry
            let x = b.xor2(pp[j], carry_word[j]);
            let s = b.xor2(x, carry);
            let t1 = b.and2(pp[j], carry_word[j]);
            let t2 = b.and2(x, carry);
            carry = b.or2(t1, t2);
            next.push(s);
        }
        next.push(carry);
        product.push(next[0]);
        carry_word = next[1..].to_vec();
    }
    for &p in &product {
        b.output(p);
    }
    for &c in &carry_word {
        b.output(c);
    }
    b.finish().expect("array multiplier is a valid netlist")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulator, Trit};

    #[test]
    fn c17_known_vector() {
        // With all inputs 0: n10=n11=1, n16=nand(0,1)=1, n19=nand(1,0)=1,
        // n22=nand(1,1)=0, n23=nand(1,1)=0.
        let nl = c17();
        let mut sim = Simulator::new(&nl);
        sim.eval(&[Trit::Zero; 5]);
        assert_eq!(sim.outputs(), vec![Trit::Zero, Trit::Zero]);

        // All ones: n10=0, n11=0, n16=1, n19=1, n22=nand(0,1)=1, n23=0.
        sim.eval(&[Trit::One; 5]);
        assert_eq!(sim.outputs(), vec![Trit::One, Trit::Zero]);
    }

    #[test]
    fn full_adder_exhaustive() {
        let nl = full_adder();
        let mut sim = Simulator::new(&nl);
        for a in 0..2u8 {
            for b_ in 0..2u8 {
                for cin in 0..2u8 {
                    sim.eval(&[
                        Trit::from_bool(a == 1),
                        Trit::from_bool(b_ == 1),
                        Trit::from_bool(cin == 1),
                    ]);
                    let total = a + b_ + cin;
                    let out = sim.outputs();
                    assert_eq!(out[0], Trit::from_bool(total % 2 == 1), "sum");
                    assert_eq!(out[1], Trit::from_bool(total >= 2), "carry");
                }
            }
        }
    }

    #[test]
    fn adder_exhaustive_4bit() {
        let nl = ripple_carry_adder(4);
        let mut sim = Simulator::new(&nl);
        for a in 0..16u32 {
            for b_ in 0..16u32 {
                for cin in 0..2u32 {
                    let mut inputs = Vec::new();
                    for i in 0..4 {
                        inputs.push(Trit::from_bool(a >> i & 1 == 1));
                    }
                    for i in 0..4 {
                        inputs.push(Trit::from_bool(b_ >> i & 1 == 1));
                    }
                    inputs.push(Trit::from_bool(cin == 1));
                    sim.eval(&inputs);
                    let out = sim.outputs();
                    let expect = a + b_ + cin;
                    for (i, &o) in out.iter().enumerate() {
                        assert_eq!(
                            o,
                            Trit::from_bool(expect >> i & 1 == 1),
                            "bit {i} of {a}+{b_}+{cin}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn multiplier_exhaustive_3bit() {
        let nl = array_multiplier(3);
        assert_eq!(nl.num_outputs(), 6);
        let mut sim = Simulator::new(&nl);
        for a in 0..8u32 {
            for b_ in 0..8u32 {
                let mut inputs = Vec::new();
                for i in 0..3 {
                    inputs.push(Trit::from_bool(a >> i & 1 == 1));
                }
                for i in 0..3 {
                    inputs.push(Trit::from_bool(b_ >> i & 1 == 1));
                }
                sim.eval(&inputs);
                let out = sim.outputs();
                let expect = a * b_;
                for (i, &o) in out.iter().enumerate() {
                    assert_eq!(
                        o,
                        Trit::from_bool(expect >> i & 1 == 1),
                        "bit {i} of {a}*{b_}={expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn x_propagates_through_adder() {
        let nl = ripple_carry_adder(2);
        let mut sim = Simulator::new(&nl);
        // a=01, b=0X, cin=0: s0 = 1^X = X, but carry chain stays known 0
        // only if the X cannot generate a carry... a0&b0 = 1&X = X, so
        // cout of stage 0 is X and everything downstream degrades.
        sim.eval(&[Trit::One, Trit::Zero, Trit::X, Trit::Zero, Trit::Zero]);
        let out = sim.outputs();
        assert_eq!(out[0], Trit::X);
    }

    #[test]
    fn x_prone_circuit_captures_x() {
        let (nl, scan) = x_prone_sequential();
        assert_eq!(scan.len(), 4);
        let mut sim = Simulator::new(&nl);
        // Scan-load zeros, apply a pattern: both tri-states disabled ->
        // floating bus -> X propagates into d0.
        for &f in &scan {
            sim.set_flop_state(f, Trit::Zero);
        }
        sim.eval(&[Trit::One, Trit::One, Trit::Zero]);
        let next = sim.flop_next();
        assert_eq!(next[scan[0]], Trit::X, "floating bus X reaches q0");
        // Shadow flop is uninitialized: d1 = shadow & in0 = X & 1 = X.
        assert_eq!(next[scan[1]], Trit::X, "shadow X reaches q1");
    }
}
