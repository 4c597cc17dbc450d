//! A traced cancel session records one `cancel.block` span per halt, the
//! Gauss eliminations inside them, and its halt and X counters: the
//! spans and counters DESIGN §8 lists for the session. Alone in its test
//! binary, so no other test's spans reach the recording.

use xhc_logic::Trit;
use xhc_misr::{CancelSession, Taps, XCancelConfig};
use xhc_scan::{ResponseMatrix, ScanConfig};

#[test]
fn a_traced_session_records_its_blocks_and_counters() {
    // m=6, q=2: a budget of 4 X's per block; 6 patterns of 2 X's each
    // close 3 blocks.
    let scan = ScanConfig::uniform(2, 3);
    let mut responses = ResponseMatrix::filled(scan.clone(), 6, Trit::Zero);
    for p in 0..6 {
        responses.set(p, scan.cell_at(0), Trit::X);
        responses.set(p, scan.cell_at(3), Trit::X);
    }
    let session = xhc_trace::TraceSession::begin().expect("no other session in this binary");
    let report =
        CancelSession::new(scan, XCancelConfig::new(6, 2), Taps::default_for(6)).run(&responses);
    let trace = session.finish();

    assert_eq!(report.halts, 3);
    let spans = |name: &str| trace.events.iter().filter(|e| e.name == name).count();
    assert_eq!(spans("cancel.block"), report.halts);
    assert!(
        spans("gauss.eliminate") >= report.halts,
        "{:?}",
        trace.events
    );
    assert_eq!(trace.counter("cancel.halts"), Some(3));
    assert_eq!(trace.counter("cancel.x_total"), Some(12));
}
