//! Integration tests that shell out to the `xhybrid` binary: exit-code
//! conventions (0 success, 1 runtime failure, 2 usage error),
//! per-subcommand `--help`, and the serve/fetch loop over a real socket.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn xhybrid() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xhybrid"))
}

fn run(args: &[&str]) -> (i32, String, String) {
    let output = xhybrid().args(args).output().expect("spawn xhybrid");
    (
        output.status.code().expect("exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xhc-cli-{tag}-{}", std::process::id()))
}

#[test]
fn no_args_is_a_usage_error() {
    let (code, _, err) = run(&[]);
    assert_eq!(code, 2);
    assert!(err.contains("usage:"));
}

#[test]
fn unknown_command_is_a_usage_error() {
    let (code, _, err) = run(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown command"));
}

#[test]
fn top_level_help_exits_zero() {
    let (code, out, _) = run(&["--help"]);
    assert_eq!(code, 0);
    assert!(out.contains("usage:"));
    assert!(out.contains("serve"));
    assert!(out.contains("fetch"));
}

#[test]
fn every_subcommand_answers_help() {
    for cmd in [
        "gen", "analyze", "plan", "schedule", "verify", "serve", "fetch",
    ] {
        let (code, out, _) = run(&[cmd, "--help"]);
        assert_eq!(code, 0, "{cmd} --help should exit 0");
        assert!(out.contains(cmd), "{cmd} help should mention itself");
    }
}

#[test]
fn missing_flag_value_is_a_usage_error() {
    let (code, _, err) = run(&["plan", "file.xmap", "--m"]);
    assert_eq!(code, 2);
    assert!(err.contains("needs a value"));
}

#[test]
fn bad_cancel_params_are_a_usage_error() {
    let (code, _, err) = run(&["plan", "file.xmap", "--m", "8", "--q", "8"]);
    assert_eq!(code, 2, "{err}");
    // The daemon's XL0305 finding, in its words.
    assert!(
        err.contains("XL0305 X-cancel config (m=8, q=8): q must satisfy 0 < q < m"),
        "{err}"
    );
}

#[test]
fn a_map_that_breaks_a_rule_names_its_code() {
    let path = temp_path("out-of-range.xmap");
    std::fs::write(&path, "xmap v1\nchains 2 2\npatterns 4\nx 9 : 0\n").unwrap();
    let (code, _, err) = run(&["analyze", path.to_str().unwrap()]);
    assert_eq!(code, 1, "{err}");
    assert!(
        err.ends_with(": XL0202 line 4: cell index 9 out of range\n"),
        "{err}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn missing_file_is_a_runtime_error() {
    let (code, _, err) = run(&["analyze", "/nonexistent/path.xmap"]);
    assert_eq!(code, 1);
    assert!(err.contains("cannot open"));
}

#[test]
fn gen_plan_pipeline_succeeds() {
    let xmap_path = temp_path("pipeline.xmap");
    let (code, _, err) = run(&[
        "gen",
        "--profile",
        "demo",
        "--out",
        xmap_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{err}");

    let (code, out, err) = run(&["plan", xmap_path.to_str().unwrap()]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("partitions"));
    assert!(out.contains("control bits"));
    // The Table-1 row comes with the check it passed.
    for line in ["vs baselines", "test time", "certificate", "plan time"] {
        assert!(out.lines().any(|l| l.starts_with(line)), "{line}: {out}");
    }
    let _ = std::fs::remove_file(&xmap_path);
}

#[test]
fn schedule_takes_the_engine_flags() {
    let xmap_path = temp_path("schedule.xmap");
    let xmap = xmap_path.to_str().unwrap();
    let (code, _, err) = run(&["gen", "--profile", "demo", "--out", xmap]);
    assert_eq!(code, 0, "{err}");
    let (code, out, err) = run(&["schedule", xmap, "--strategy", "best-cost"]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("total cycles"), "{out}");
    let _ = std::fs::remove_file(&xmap_path);
}

#[test]
fn retired_planning_commands_are_usage_errors() {
    // `plan` is the one planning command: `partition` is gone, and
    // `verify` only checks stored artifacts.
    let (code, out, err) = run(&["partition", "file.xmap"]);
    assert_eq!(code, 2, "{err}");
    assert!(
        out.is_empty() && err.contains("unknown command `partition`"),
        "{err}"
    );
    let (code, out, err) = run(&["verify", "file.xmap"]);
    assert_eq!(code, 2, "{err}");
    assert!(out.is_empty() && err.contains("xhybrid plan"), "{err}");
}

#[test]
fn verify_against_a_mismatched_map_fails_cleanly() {
    // A plan and certificate made for an 8-cell map (two chains of 4),
    // checked against the 1,000-cell demo map with the same 200 patterns:
    // a runtime failure naming the checker's verdict, not a panic.
    let small = temp_path("small.xmap");
    let demo = temp_path("demo.xmap");
    let plan = temp_path("small.plan");
    let cert = temp_path("small.cert");
    std::fs::write(&small, "xmap v1\nchains 4 4\npatterns 200\nx 0 : 1 2 3\n").unwrap();
    let path = |p: &PathBuf| p.to_str().unwrap().to_string();
    let (code, _, err) = run(&["gen", "--profile", "demo", "--out", &path(&demo)]);
    assert_eq!(code, 0, "{err}");
    let (code, _, err) = run(&[
        "plan",
        &path(&small),
        "--plan-out",
        &path(&plan),
        "--cert-out",
        &path(&cert),
    ]);
    assert_eq!(code, 0, "{err}");

    let (code, _, err) = run(&[
        "verify",
        &path(&demo),
        "--plan",
        &path(&plan),
        "--cert",
        &path(&cert),
    ]);
    assert_eq!(code, 1, "{err}");
    // Named by the rule `/v1/plan/{hash}/verify` reports it under.
    assert!(
        err.contains("certificate verification FAILED: XL0406 "),
        "{err}"
    );
    for p in [small, demo, plan, cert] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn fetch_without_addr_is_a_usage_error() {
    let (code, _, err) = run(&["fetch", "some.xmap"]);
    assert_eq!(code, 2);
    assert!(err.contains("--addr"));
}

#[test]
fn fetch_against_a_dead_daemon_is_a_runtime_error() {
    let hash = "0000000000000000";
    // Port 1 on loopback is essentially never listening.
    let (code, _, err) = run(&["fetch", "--addr", "127.0.0.1:1", "--hash", hash]);
    assert_eq!(code, 1);
    assert!(err.contains("cannot reach"));
}

/// Kills the daemon child on drop so failed asserts don't leak processes.
struct DaemonGuard(Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `xhybrid serve` on a free loopback port over `store` and
/// returns its guard and the address it printed.
fn start_daemon(store: &Path) -> (DaemonGuard, String) {
    let child = xhybrid()
        .args(["serve", "--addr", "127.0.0.1:0", "--store"])
        .arg(store)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let mut guard = DaemonGuard(child);

    // The daemon prints `listening on ADDR` once bound.
    let stdout = guard.0.stdout.take().expect("daemon stdout");
    let mut first_line = String::new();
    BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("read bind line");
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected bind line: {first_line}"))
        .to_string();
    (guard, addr)
}

#[test]
fn serve_and_fetch_roundtrip_over_a_socket() {
    let store = temp_path("cli-store");
    let xmap_path = temp_path("served.xmap");
    let (code, _, err) = run(&[
        "gen",
        "--profile",
        "demo",
        "--out",
        xmap_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{err}");

    let (_guard, addr) = start_daemon(&store);

    // First fetch submits and plans (cache miss)...
    let (code, out, err) = run(&[
        "fetch",
        "--addr",
        &addr,
        xmap_path.to_str().unwrap(),
        "--m",
        "16",
        "--q",
        "3",
    ]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("cache            : miss"), "{out}");
    assert!(out.contains("partitions"), "{out}");
    let hash_line = out
        .lines()
        .find(|l| l.starts_with("plan hash"))
        .expect("hash line");
    let hash = hash_line.rsplit(' ').next().unwrap().to_string();

    // ...the second is a cache hit with the same plan hash.
    let (code, out, _) = run(&[
        "fetch",
        "--addr",
        &addr,
        xmap_path.to_str().unwrap(),
        "--m",
        "16",
        "--q",
        "3",
    ]);
    assert_eq!(code, 0);
    assert!(out.contains("cache            : hit"), "{out}");
    assert!(out.contains(&hash), "{out}");

    // Content-addressed retrieval works and can write the wire plan out.
    let plan_path = temp_path("fetched.plan");
    let (code, out, err) = run(&[
        "fetch",
        "--addr",
        &addr,
        "--hash",
        &hash,
        "--out",
        plan_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains(&hash));
    let plan_bytes = std::fs::read(&plan_path).expect("plan file written");
    assert!(plan_bytes.starts_with(b"XHCW"));

    // A bogus hash is a runtime failure (404 from the daemon).
    let (code, _, err) = run(&["fetch", "--addr", &addr, "--hash", "00000000000000ff"]);
    assert_eq!(code, 1);
    assert!(err.contains("404"), "{err}");

    let _ = std::fs::remove_file(&xmap_path);
    let _ = std::fs::remove_file(&plan_path);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn plan_with_a_non_hybrid_backend_writes_no_artifact() {
    // Only the hybrid has a plan and a certificate to write, and
    // `schedule` needs the hybrid's plan.
    let cases: [(&str, &[&str]); 3] = [
        ("plan", &["--backend", "masking", "--plan-out", "x.plan"]),
        ("plan", &["--backend", "masking", "--cert-out", "x.cert"]),
        ("schedule", &["--backend", "masking"]),
    ];
    for (cmd, flags) in cases {
        let argv = [&[cmd, "file.xmap"][..], flags].concat();
        let flag = argv[argv.len() - 2];
        let (code, out, err) = run(&argv);
        assert_eq!(code, 2, "{argv:?}: {err}");
        assert!(out.is_empty(), "{argv:?} must not run: {out}");
        assert!(
            err.contains(flag) && err.contains(&format!("xhybrid {cmd}")),
            "{argv:?}: {err}"
        );
    }
}

#[test]
fn cli_and_daemon_reject_an_option_with_the_same_message() {
    let store = temp_path("parity-store");
    let xmap_path = temp_path("parity.xmap");
    let (code, _, err) = run(&[
        "gen",
        "--profile",
        "demo",
        "--out",
        xmap_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{err}");
    let body = std::fs::read(&xmap_path).unwrap();
    let (_guard, addr) = start_daemon(&store);

    // `(query string, flags)` naming the same bad input.
    let cases: [(&str, &[&str]); 7] = [
        ("strategy=bogus", &["--strategy", "bogus"]),
        ("policy=bogus", &["--policy", "bogus"]),
        ("backend=bogus", &["--backend", "bogus"]),
        (
            "policy=seeded&seed=x",
            &["--policy", "seeded", "--seed", "x"],
        ),
        ("seed=3", &["--seed", "3"]),
        ("max_rounds=x", &["--max-rounds", "x"]),
        ("cost_stop=2", &["--cost-stop", "2"]),
    ];
    for (query, flags) in cases {
        let answer = xhybrid::serve::client::post(
            addr.as_str(),
            &format!("/v1/plan?m=16&q=3&{query}"),
            "text/plain",
            &body,
        )
        .expect("daemon answers");
        assert_eq!(answer.status, 400, "{query}: {}", answer.body_text());

        let mut argv = vec!["fetch", "--addr", &addr, xmap_path.to_str().unwrap()];
        argv.extend_from_slice(flags);
        let (code, _, err) = run(&argv);
        assert_eq!(code, 2, "{flags:?}: {err}");
        assert_eq!(err, answer.body_text(), "{query} vs {flags:?}");
    }
    let _ = std::fs::remove_file(&xmap_path);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn fetch_sends_every_option_in_a_plan_request() {
    use xhybrid::core::{CellSelection, PartitionEngine, PlanOptions};
    use xhybrid::misr::XCancelConfig;

    let store = temp_path("options-store");
    let xmap_path = temp_path("options.xmap");
    let plan_path = temp_path("options.plan");
    let (code, _, err) = run(&[
        "gen",
        "--profile",
        "demo",
        "--out",
        xmap_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{err}");
    let (_guard, addr) = start_daemon(&store);

    let (code, out, err) = run(&[
        "fetch",
        "--addr",
        &addr,
        xmap_path.to_str().unwrap(),
        "--m",
        "16",
        "--q",
        "3",
        "--policy",
        "seeded",
        "--seed",
        "3",
        "--out",
        plan_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("cache            : miss"), "{out}");

    // The daemon keyed the plan by the seeded options...
    let xmap = xhybrid::scan::read_xmap(std::fs::File::open(&xmap_path).unwrap()).unwrap();
    let opts = PlanOptions {
        policy: CellSelection::Seeded(3),
        ..PlanOptions::default()
    };
    let want_hash = xhybrid::wire::plan_request_hash_with_options(
        &xhybrid::wire::encode_xmap(&xmap),
        16,
        3,
        &opts,
    );
    let hash_line = format!("plan hash        : {}", xhybrid::wire::hash_hex(want_hash));
    assert!(out.contains(&hash_line), "{out}");

    // ...and planned with them: the plan is the offline engine's, byte
    // for byte.
    let outcome = PartitionEngine::with_options(XCancelConfig::new(16, 3), opts).run(&xmap);
    let want_plan = xhybrid::wire::encode_plan(&outcome, xmap.num_patterns());
    assert_eq!(std::fs::read(&plan_path).unwrap(), want_plan);

    // Another backend reaches the daemon too, which answers with its report.
    let (code, out, err) = run(&[
        "fetch",
        "--addr",
        &addr,
        xmap_path.to_str().unwrap(),
        "--backend",
        "masking",
    ]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("\"backend\":\"masking\""), "{out}");

    let _ = std::fs::remove_file(&xmap_path);
    let _ = std::fs::remove_file(&plan_path);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    // `xhybrid analyze FILE | head -1`, with the reader gone before the
    // first line: the command must stop with exit 0, not panic (101).
    let xmap_path = temp_path("closed-stdout.xmap");
    let (code, _, err) = run(&[
        "gen",
        "--profile",
        "demo",
        "--out",
        xmap_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{err}");
    for cmd in ["analyze", "plan", "schedule"] {
        let mut child = xhybrid()
            .arg(cmd)
            .arg(&xmap_path)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn xhybrid");
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("wait for xhybrid");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_ne!(output.status.code(), Some(101), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
        assert_eq!(output.status.code(), Some(0), "{cmd}: {stderr}");
    }
    let _ = std::fs::remove_file(&xmap_path);
}

#[test]
fn a_flag_the_command_does_not_read_is_a_usage_error() {
    let xmap_path = temp_path("unknown-flag.xmap");
    let plan_path = temp_path("unknown-flag.plan");
    let cert_path = temp_path("unknown-flag.cert");
    let [xmap, plan, cert] = [&xmap_path, &plan_path, &cert_path].map(|p| p.to_str().unwrap());
    let (code, _, err) = run(&["gen", "--profile", "demo", "--out", xmap]);
    assert_eq!(code, 0, "{err}");
    let (code, _, err) = run(&["plan", xmap, "--plan-out", plan, "--cert-out", cert]);
    assert_eq!(code, 0, "{err}");
    let verify = |flag: &'static str, value: &'static str| -> Vec<&str> {
        vec!["verify", xmap, "--plan", plan, "--cert", cert, flag, value]
    };
    let fetch_hash = |flag: &'static str, value: &'static str| -> Vec<&str> {
        let hash = ["--hash", "0123456789abcdef"];
        [
            &["fetch", "--addr", "127.0.0.1:1"][..],
            &hash,
            &[flag, value],
        ]
        .concat()
    };
    let masking = |flag: &'static str, value: &'static str| -> Vec<&str> {
        vec!["plan", xmap, "--backend", "masking", flag, value]
    };
    // A misspelt engine flag used to run with the default cost stop, and
    // `fetch --threads` was dropped: the daemon owns the thread count.
    // Each mode reads its own flags: checking artifacts takes (m, q)
    // from the certificate and plans nothing, a fetch by hash sends no
    // request, and a non-hybrid backend runs no engine.
    let cases: Vec<(&str, Vec<&str>)> = vec![
        ("plan", vec!["plan", xmap, "--cost_stop", "0"]),
        ("schedule", vec!["schedule", xmap, "--cost_stop", "0"]),
        (
            "fetch",
            vec!["fetch", "--addr", "127.0.0.1:1", xmap, "--threads", "4"],
        ),
        ("verify", vec!["verify", xmap, "--m", "16"]),
        ("verify", vec!["verify", xmap, "--plan-out", plan]),
        ("verify", verify("--m", "99")),
        ("verify", verify("--q", "98")),
        ("verify", verify("--strategy", "best-cost")),
        ("verify", verify("--threads", "4")),
        ("verify", verify("--plan-out", "x.plan")),
        ("verify", verify("--cert-out", "x.cert")),
        ("fetch", fetch_hash("--m", "5")),
        ("fetch", fetch_hash("--q", "9")),
        ("fetch", fetch_hash("--policy", "seeded")),
        ("plan", masking("--strategy", "best-cost")),
        ("plan", masking("--threads", "4")),
        ("plan", masking("--trace", "t.json")),
    ];
    for (cmd, argv) in &cases {
        let flag = argv[argv.len() - 2];
        let (code, out, err) = run(argv);
        assert_eq!(code, 2, "{argv:?}: {err}");
        assert!(out.is_empty(), "{argv:?} must not run: {out}");
        assert!(
            err.contains(flag) && err.contains(&format!("xhybrid {cmd}")),
            "{argv:?}: {err}"
        );
    }
    for p in [xmap_path, plan_path, cert_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn an_argument_the_command_does_not_read_is_a_usage_error() {
    let xmap_path = temp_path("extra-arg.xmap");
    let plan_path = temp_path("extra-arg.plan");
    let cert_path = temp_path("extra-arg.cert");
    let [xmap, plan, cert] = [&xmap_path, &plan_path, &cert_path].map(|p| p.to_str().unwrap());
    let (code, _, err) = run(&["gen", "--profile", "demo", "--out", xmap]);
    assert_eq!(code, 0, "{err}");
    let (code, _, err) = run(&["plan", xmap, "--plan-out", plan, "--cert-out", cert]);
    assert_eq!(code, 0, "{err}");
    // A fetch by hash reads no FILE, and a verify reads one.
    let extra = "/nonexistent/extra.xmap";
    let cases: [(&str, Vec<&str>); 2] = [
        (
            "fetch",
            vec![
                "fetch",
                "--addr",
                "127.0.0.1:1",
                "--hash",
                "0123456789abcdef",
                extra,
            ],
        ),
        (
            "verify",
            vec!["verify", xmap, "--plan", plan, "--cert", cert, extra],
        ),
    ];
    for (cmd, argv) in &cases {
        let (code, out, err) = run(argv);
        assert_eq!(code, 2, "{argv:?}: {err}");
        assert!(out.is_empty(), "{argv:?} must not run: {out}");
        assert!(
            err.contains(extra) && err.contains(&format!("xhybrid {cmd}")),
            "{argv:?}: {err}"
        );
    }
    for p in [xmap_path, plan_path, cert_path] {
        let _ = std::fs::remove_file(p);
    }
}
