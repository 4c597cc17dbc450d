//! `xhc-lint --list` prints the rule table byte for byte as its golden:
//! the ids, slugs, default severities and summaries are a published
//! listing, whatever code renders them.

use std::process::Command;

#[test]
fn list_prints_the_rule_table_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_xhc-lint"))
        .arg("--list")
        .output()
        .expect("run xhc-lint --list");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 output"),
        include_str!("fixtures/list.txt")
    );
}
