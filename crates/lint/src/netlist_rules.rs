//! Netlist design rules (XL01xx).
//!
//! [`NetlistBuilder::finish`](xhc_logic::NetlistBuilder::finish) is the
//! one judge of netlist structure: it rejects combinational loops, bad
//! gate arity, unconnected flop D pins and dangling node references with
//! a typed `BuildError`. These rules find what a built [`Netlist`] can
//! still hold: driverless buses (XL0102), dead logic (XL0103) and
//! unobservable flops (XL0105).

use crate::diag::{LintCode, LintConfig, LintReport};
use xhc_logic::{Netlist, Node};

/// Runs every netlist rule (XL0102, XL0103, XL0105).
pub fn check_netlist(config: &LintConfig, netlist: &Netlist) -> LintReport {
    let mut report = LintReport::new();
    rule_floating_net(config, netlist, &mut report);
    rule_dead_logic_and_unreachable_flops(config, netlist, &mut report);
    report
}

/// Nodes whose value can reach a primary output, traversing backward
/// through gates, buses *and* flop D pins.
fn observable(netlist: &Netlist) -> Vec<bool> {
    let mut seen = vec![false; netlist.num_nodes()];
    let mut stack = netlist.outputs().to_vec();
    while let Some(v) = stack.pop() {
        if seen[v.index()] {
            continue;
        }
        seen[v.index()] = true;
        match netlist.node(v) {
            Node::Gate { inputs, .. } => stack.extend(inputs),
            Node::TriBuf { enable, data } => stack.extend([*enable, *data]),
            Node::Bus { drivers } => stack.extend(drivers),
            Node::Flop { d, .. } => stack.extend(*d),
            Node::Input(_) | Node::Const(_) => {}
        }
    }
    seen
}

/// XL0102: floating nets — buses with no tri-state driver.
fn rule_floating_net(config: &LintConfig, netlist: &Netlist, report: &mut LintReport) {
    for (id, node) in netlist.iter_nodes() {
        if matches!(node, Node::Bus { drivers } if drivers.is_empty()) {
            report.push(
                config,
                LintCode::FloatingNet,
                format!("netlist node {id}"),
                "bus has no tri-state drivers: it floats (permanent X source)",
                "connect at least one TriBuf driver or remove the bus",
            );
        }
    }
}

/// XL0103 + XL0105: logic and flops no primary output can observe.
fn rule_dead_logic_and_unreachable_flops(
    config: &LintConfig,
    netlist: &Netlist,
    report: &mut LintReport,
) {
    let observable = observable(netlist);
    for (id, node) in netlist.iter_nodes() {
        if observable[id.index()] {
            continue;
        }
        match node {
            Node::Gate { .. } | Node::Bus { .. } => {
                report.push(
                    config,
                    LintCode::DeadLogic,
                    format!("netlist node {id}"),
                    "combinational node is observable at no primary output",
                    "dead logic wastes area and fault-simulation effort; remove it \
                     or route it to an output",
                );
            }
            Node::Flop { .. } => {
                report.push(
                    config,
                    LintCode::UnreachableFlop,
                    format!("netlist node {id}"),
                    "flop state is observable at no primary output",
                    "unobservable state cannot be tested; scan it out or remove it",
                );
            }
            // TriBufs are reported through their bus; inputs/consts are
            // legitimately fanout-free in partial designs.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_logic::{FlopInit, NetlistBuilder};

    fn codes(report: &LintReport) -> Vec<LintCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_netlist_passes() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        let g = b.and2(a, c);
        let f = b.flop(FlopInit::Zero);
        b.connect_flop_d(f, g);
        let o = b.xor2(g, f);
        b.output(o);
        let netlist = b.finish().expect("valid");
        let report = check_netlist(&LintConfig::default(), &netlist);
        assert!(report.is_empty(), "{}", report.render_human());
    }

    #[test]
    fn floating_bus_fires() {
        let mut b = NetlistBuilder::new();
        let bus = b.bus(Vec::new());
        b.output(bus);
        let netlist = b.finish().expect("a driverless bus builds");
        let report = check_netlist(&LintConfig::default(), &netlist);
        assert_eq!(codes(&report), vec![LintCode::FloatingNet]);
        assert!(report.render_human().contains("netlist node n0"));
    }

    #[test]
    fn dead_logic_and_unreachable_flop_fire() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        let live = b.and2(a, c);
        let dead = b.or2(a, c); // never used
        let _ = dead;
        let f = b.flop(FlopInit::Zero); // feeds nothing
        b.connect_flop_d(f, live);
        b.output(live);
        let netlist = b.finish().expect("valid");
        let report = check_netlist(&LintConfig::default(), &netlist);
        let got = codes(&report);
        assert!(got.contains(&LintCode::DeadLogic), "{got:?}");
        assert!(got.contains(&LintCode::UnreachableFlop), "{got:?}");
        assert!(!report.has_deny(), "both default to Warn");
    }

    #[test]
    fn observable_flop_is_not_reported() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let f = b.flop(FlopInit::Zero);
        b.connect_flop_d(f, a);
        let o = b.not(f);
        b.output(o);
        let netlist = b.finish().expect("valid");
        let report = check_netlist(&LintConfig::default(), &netlist);
        assert!(report.is_empty(), "{}", report.render_human());
    }
}
