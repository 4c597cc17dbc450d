//! `xhybrid` — command-line front end for the hybrid X-handling toolkit.
//!
//! ```text
//! xhybrid gen --profile ckt-b [--scale N] [--seed S] --out FILE
//! xhybrid analyze FILE
//! xhybrid partition FILE [--m 32] [--q 7] [engine flags]
//! xhybrid schedule FILE [--m 32] [--q 7] [--channels 32]
//! xhybrid verify FILE [--m 32] [--q 7] [--plan-out FILE] [--cert-out FILE]
//! xhybrid serve [--addr 127.0.0.1:7878] [--store DIR] [--threads N]
//! xhybrid fetch --addr HOST:PORT (FILE [--m 32] [--q 7] [engine flags] | --hash HASH)
//!               [--out FILE]
//! ```
//!
//! Files use the `xmap v1` text format (see `xhybrid::scan::write_xmap`)
//! or the binary wire format (see `xhybrid::wire`). Exit codes follow the
//! `xhc-lint` convention: `0` success, `1` runtime failure, `2` usage
//! error. Every subcommand answers `--help`, and a flag it does not read
//! is a usage error.

use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use xhc_lint::{check_cancel_params, LintConfig, Severity};
use xhybrid::core::{
    inter_correlation_stats, intra_correlation_stats, schedule_hybrid, BackendId, BackendReport,
    PartitionEngine, PlanOptions, ScheduleOptions,
};
use xhybrid::misr::XCancelConfig;
use xhybrid::scan::{read_xmap, write_xmap, AteConfig, LintCode, XMap};
use xhybrid::serve::{client, Server, ServerConfig};
use xhybrid::trace::TraceSession;
use xhybrid::wire::{
    decode_plan, encode_plan_request, encode_xmap, parse_hash_hex, peek_kind, PlanRequest,
};
use xhybrid::workload::WorkloadSpec;

fn usage() -> &'static str {
    "usage:
  xhybrid gen --profile <ckt-a|ckt-b|ckt-c|demo> [--scale N] [--seed S] --out FILE
  xhybrid analyze FILE
  xhybrid partition FILE [--m 32] [--q 7] [engine flags]
  xhybrid plan (FILE | --profile <ckt-a|ckt-b|ckt-c|demo> [--scale N])
               [--backend hybrid|masking|canceling|superset|xcode]
               [--m 32] [--q 7] [--strategy largest|best-cost]
               [--policy first|seeded|global-max-x] [--seed S] [--threads N]
               [--max-rounds N] [--cost-stop 0|1] [--trace FILE]
  xhybrid schedule FILE [--m 32] [--q 7] [--channels 32]
  xhybrid verify FILE [--m 32] [--q 7] [engine flags] [--plan-out FILE]
                [--cert-out FILE] | FILE --plan FILE --cert FILE
  xhybrid serve [--addr 127.0.0.1:7878] [--store DIR] [--threads N] [--workers N]
                [--verify-on-write 0|1] [--max-inflight N] [--queue-depth N]
                [--push-metrics URL]
  xhybrid fetch --addr HOST:PORT (FILE [--m 32] [--q 7] [engine flags] | --hash HASH)
                [--out FILE]

run `xhybrid <command> --help` for per-command details"
}

fn command_help(cmd: &str) -> Option<&'static str> {
    match cmd {
        "gen" => Some(
            "xhybrid gen --profile <ckt-a|ckt-b|ckt-c|demo> [--scale N] [--seed S] --out FILE

Generates a synthetic X map in the `xmap v1` text format.

  --profile  workload preset (paper circuits or the small demo)
  --scale    divide cells/chains/patterns by N (default 1)
  --seed     override the preset's PRNG seed
  --out      output file (required)",
        ),
        "analyze" => Some(
            "xhybrid analyze FILE

Prints density and correlation statistics for an X map.",
        ),
        "partition" => Some(
            "xhybrid partition FILE [--m 32] [--q 7] [--strategy largest|best-cost]
                  [--policy first|seeded|global-max-x] [--seed S] [--threads N]
                  [--max-rounds N] [--cost-stop 0|1]

Runs the pattern-partitioning engine on an X map and reports the
hybrid control-bit cost against the masking-only and canceling-only
baselines.

  --m           MISR length (default 32)
  --q           X-cancel quotient, 0 < q < m (default 7)
  engine flags  as for `xhybrid plan`; --backend other than hybrid is a
                usage error (it belongs to `plan`)",
        ),
        "plan" => Some(
            "xhybrid plan (FILE | --profile <ckt-a|ckt-b|ckt-c|demo> [--scale N])
             [--backend hybrid|masking|canceling|superset|xcode]
             [--m 32] [--q 7] [--strategy largest|best-cost]
             [--policy first|seeded|global-max-x] [--seed S] [--threads N]
             [--max-rounds N] [--cost-stop 0|1] [--trace FILE]

Runs the partition engine with the full option set and optionally
records the whole run as a chrome://tracing JSON file. Instead of a
FILE, --profile plans a freshly generated paper workload in memory
(full size; --scale N shrinks it), skipping the text format round trip
— `--profile ckt-a` is the full 505,050-cell circuit.

  --profile     generate and plan a workload preset instead of a FILE
  --scale       divide the profile's cells/chains/patterns by N
  --backend     compaction backend (default hybrid). The non-hybrid
                backends (masking, canceling, superset, xcode) skip the
                partition engine and print the uniform backend report:
                control bits, masked/leaked X's, lost observability;
                they take only --m, --q and the input flags
  --m, --q      cancel parameters (defaults 32, 7)
  --strategy    partition split heuristic (default largest)
  --policy      pivot-cell selection policy (default first)
  --seed        stream seed, only with --policy seeded
  --threads     engine threads, 0 = auto (default 0)
  --max-rounds  cap the number of partitioning rounds
  --cost-stop   1 = stop when the cost stops improving (default), 0 = run
                until no class splits further
  --trace       write a chrome://tracing JSON trace to FILE and print the
                span/counter summary to stderr (open the file at
                chrome://tracing or https://ui.perfetto.dev)",
        ),
        "schedule" => Some(
            "xhybrid schedule FILE [--m 32] [--q 7] [--channels 32]

Schedules the hybrid plan on an ATE model and reports cycle counts.

  --m         MISR length (default 32)
  --q         X-cancel quotient (default 7)
  --channels  ATE channel count (default 32)",
        ),
        "verify" => Some(
            "xhybrid verify FILE [--m 32] [--q 7] [--strategy largest|best-cost]
               [--policy first|seeded|global-max-x] [--seed S] [--threads N]
               [--max-rounds N] [--cost-stop 0|1]
               [--plan-out FILE] [--cert-out FILE]
xhybrid verify FILE --plan FILE --cert FILE

Plans the X map, emits a plan certificate (partition cover witness,
X-class histograms, control-bit accounting) and statically re-checks it
with the engine-independent verifier, reporting plan vs verify wall
time. With --plan/--cert, skips planning and verifies the existing
wire-encoded artifacts against the X map instead; any violated
invariant exits 1 with a typed error.

  --m, --q      cancel parameters (defaults 32, 7; fresh mode only)
  engine flags  as for `xhybrid plan` (fresh mode only); --backend other
                than hybrid is a usage error (it belongs to `plan`)
  --plan-out    write the wire-encoded plan to FILE
  --cert-out    write the wire-encoded certificate to FILE
  --plan        verify this wire-encoded plan instead of planning
  --cert        its certificate (required with --plan; carries (m, q))",
        ),
        "serve" => Some(
            "xhybrid serve [--addr 127.0.0.1:7878] [--store DIR] [--threads N] [--workers N]
              [--verify-on-write 0|1] [--max-inflight N] [--queue-depth N]
              [--push-metrics URL]

Runs the planning daemon. POST an X map (text or wire format) to
/v1/plan and receive the wire-encoded partition plan; plans are cached
on disk keyed by content hash, alongside a plan certificate that
`GET /v1/plan/{hash}/verify` re-checks. Connections are served by a
nonblocking event loop with keep-alive and pipelining; past the
admission limits requests are shed with 429 + Retry-After. See README
`Running as a service`.

  --addr             listen address (port 0 picks a free port; the bound
                     address is printed on startup)
  --store            plan cache directory (default plan-store)
  --threads          engine threads per plan, 0 = auto (default 0)
  --workers          HTTP worker threads (default 4)
  --verify-on-write  statically verify every fresh plan's certificate
                     before caching it (1 = on, default 0)
  --max-inflight     admission ceiling on requests being processed at
                     once (default 256)
  --queue-depth      bounded job-queue length behind the ceiling
                     (default 128)
  --push-metrics     push /metrics counters as Influx line protocol to
                     this http:// URL every XHC_PUSH_INTERVAL_MS ms
                     (default 2000)",
        ),
        "fetch" => Some(
            "xhybrid fetch --addr HOST:PORT FILE [--m 32] [--q 7] [--strategy largest|best-cost]
              [--policy first|seeded|global-max-x] [--seed S] [--max-rounds N]
              [--cost-stop 0|1] [--backend hybrid|masking|canceling|superset|xcode]
              [--out FILE]
xhybrid fetch --addr HOST:PORT --hash HASH [--out FILE]

Client for a running `xhybrid serve`. With FILE (an X map in text or
wire format, or a wire workload spec), submits one wire plan request
carrying (m, q), every engine flag and the map to /v1/plan and prints
the plan summary; a non-hybrid --backend prints the daemon's JSON
report instead. With --hash, fetches an already-cached plan by content
address. Flags are checked as `plan` checks them, and a rejected value
exits 2 with the message the daemon would answer with.

  --addr        daemon address (required)
  --hash        16-hex plan hash from a previous submission
  --m, --q      cancel parameters sent with FILE (defaults 32, 7)
  engine flags  as for `xhybrid plan`, sent with FILE; the daemon owns
                the engine thread count, so there is no --threads
  --out         also write the wire-encoded plan (or the JSON report)
                to FILE",
        ),
        _ => None,
    }
}

/// A CLI failure: usage errors exit 2, runtime failures exit 1 (matching
/// the `xhc-lint` binary convention).
enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }
    fn runtime(msg: impl Into<String>) -> CliError {
        CliError::Runtime(msg.into())
    }
}

type CmdResult = Result<(), CliError>;

/// A subcommand's entry point.
type CmdFn = fn(&Args) -> CmdResult;

/// `println!`, except that a closed stdout (`xhybrid partition FILE |
/// head -1`) ends the process quietly with exit 0 instead of panicking;
/// any other write error exits 1.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// The engine flags: [`PlanOptions::PARAMS`] with dashes for
/// underscores.
const ENGINE_FLAGS: [&str; 6] = [
    "strategy",
    "policy",
    "seed",
    "max-rounds",
    "cost-stop",
    "backend",
];

/// A command's entry point, how many positional arguments (FILEs) its
/// mode reads at most, and the flags it reads; `None` for an unknown
/// command. One flag picks the mode: `verify --plan` checks existing
/// artifacts, `fetch --hash` fetches a cached plan, and `plan --backend`
/// other than hybrid runs no engine. Any other flag, and any positional
/// argument past the count, is a usage error, so a misspelt, misplaced
/// or ignored argument never passes.
fn command(cmd: &str, args: &Args) -> Option<(CmdFn, usize, Vec<&'static str>)> {
    let planning = |extra: &[&'static str]| [&["m", "q"][..], &ENGINE_FLAGS, extra].concat();
    let non_hybrid = args
        .flag("backend")
        .is_some_and(|b| BackendId::parse(b).is_ok_and(|id| id != BackendId::Hybrid));
    Some(match cmd {
        "gen" => (cmd_gen, 0, vec!["profile", "scale", "seed", "out"]),
        "analyze" => (cmd_analyze, 1, vec![]),
        "partition" => (cmd_partition, 1, planning(&["threads"])),
        "plan" if non_hybrid => (cmd_plan, 1, vec!["m", "q", "backend", "profile", "scale"]),
        "plan" => (
            cmd_plan,
            1,
            planning(&["threads", "trace", "profile", "scale"]),
        ),
        "schedule" => (cmd_schedule, 1, vec!["m", "q", "channels"]),
        "verify" if args.flag("plan").is_some() => (cmd_verify, 1, vec!["plan", "cert"]),
        "verify" => (
            cmd_verify,
            1,
            planning(&["threads", "plan-out", "cert-out"]),
        ),
        "serve" => (
            cmd_serve,
            0,
            vec![
                "addr",
                "store",
                "threads",
                "workers",
                "verify-on-write",
                "max-inflight",
                "queue-depth",
                "push-metrics",
            ],
        ),
        "fetch" if args.flag("hash").is_some() => (cmd_fetch, 0, vec!["addr", "hash", "out"]),
        "fetch" => (cmd_fetch, 1, planning(&["addr", "out"])),
        _ => return None,
    })
}

/// Minimal flag parser: `--name value` pairs plus positional arguments.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{name}: {e}")),
        }
    }
}

/// A rejection led by the id of the rule it names, if any (`XL0202 line
/// 4: cell index 9 out of range`), as the daemon's diagnostics name it.
fn coded(code: Option<LintCode>, e: impl std::fmt::Display) -> String {
    match code {
        Some(code) => format!("{} {e}", code.id()),
        None => e.to_string(),
    }
}

fn load(path: &str) -> Result<XMap, CliError> {
    let file =
        File::open(path).map_err(|e| CliError::runtime(format!("cannot open {path}: {e}")))?;
    read_xmap(file)
        .map_err(|e| CliError::runtime(format!("cannot parse {path}: {}", coded(e.code(), &e))))
}

/// `--m`/`--q`, judged by the lint's XL0305 rule, so the CLI rejects an
/// `(m, q)` with the daemon's words.
fn cancel_config(args: &Args) -> Result<XCancelConfig, CliError> {
    let m: usize = args.flag_parse("m", 32).map_err(CliError::Usage)?;
    let q: usize = args.flag_parse("q", 7).map_err(CliError::Usage)?;
    let report = check_cancel_params(&LintConfig::default(), m, q);
    match report
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Deny)
    {
        Some(d) => Err(CliError::usage(coded(
            Some(d.code),
            format!("{}: {}", d.location, d.message),
        ))),
        None => Ok(XCancelConfig::new(m, q)),
    }
}

fn cmd_gen(args: &Args) -> CmdResult {
    let profile = args.flag("profile").unwrap_or("demo");
    let scale: usize = args.flag_parse("scale", 1).map_err(CliError::Usage)?;
    let mut spec = WorkloadSpec::profile(profile)
        .ok_or_else(|| CliError::usage(format!("unknown profile `{profile}`")))?
        .scaled(scale);
    spec.seed = args
        .flag_parse("seed", spec.seed)
        .map_err(CliError::Usage)?;
    let out = args
        .flag("out")
        .ok_or_else(|| CliError::usage("gen needs --out FILE"))?;
    let xmap = spec.generate();
    let file =
        File::create(out).map_err(|e| CliError::runtime(format!("cannot create {out}: {e}")))?;
    write_xmap(file, &xmap).map_err(|e| CliError::runtime(format!("cannot write {out}: {e}")))?;
    eprintln!(
        "wrote {out}: {} cells / {} chains / {} patterns, {} X's ({:.3}%)",
        xmap.config().total_cells(),
        xmap.config().num_chains(),
        xmap.num_patterns(),
        xmap.total_x(),
        100.0 * xmap.x_density()
    );
    Ok(())
}

fn cmd_analyze(args: &Args) -> CmdResult {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("analyze needs a FILE"))?;
    let xmap = load(path)?;
    let inter = inter_correlation_stats(&xmap);
    let intra = intra_correlation_stats(&xmap);
    outln!("cells            : {}", inter.total_cells);
    outln!(
        "X-capturing cells: {} ({:.2}%)",
        inter.x_cells,
        100.0 * inter.x_cells as f64 / inter.total_cells.max(1) as f64
    );
    outln!(
        "total X's        : {} ({:.3}% density)",
        inter.total_x,
        100.0 * xmap.x_density()
    );
    outln!(
        "90% of X's in    : {:.2}% of cells",
        100.0 * inter.cells_for_90pct
    );
    outln!(
        "inter-correlation: largest identical-set group = {} cells; largest count class = {} cells x {} X's",
        inter.largest_identical_group, inter.largest_count_class, inter.largest_count_class_count
    );
    outln!(
        "intra-correlation: {} of {} X-cells have an X neighbour; {} runs, longest {}{}",
        intra.x_cells_with_x_neighbour,
        intra.x_cells,
        intra.runs,
        intra.longest_run,
        match intra.mean_adjacent_jaccard {
            Some(j) => format!("; adjacent-set Jaccard {j:.2}"),
            None => String::new(),
        }
    );
    Ok(())
}

/// The engine flags: the daemon's query parameters as dashed flags
/// (`--max-rounds` for `max_rounds`), read by the same parser, so a
/// rejected value prints the message the daemon answers with.
fn engine_options(args: &Args) -> Result<PlanOptions, CliError> {
    PlanOptions::from_params(|name| args.flag(&name.replace('_', "-"))).map_err(CliError::Usage)
}

/// [`engine_options`] plus `--threads`, for the commands that run the
/// engine in this process.
fn plan_options(args: &Args) -> Result<PlanOptions, CliError> {
    let threads: usize = args.flag_parse("threads", 0).map_err(CliError::Usage)?;
    Ok(PlanOptions {
        threads,
        ..engine_options(args)?
    })
}

/// [`plan_options`] for a command that only plans with the hybrid
/// backend (`partition`, `verify`).
fn hybrid_plan_options(args: &Args, cmd: &str) -> Result<PlanOptions, CliError> {
    let opts = plan_options(args)?;
    if opts.backend != BackendId::Hybrid {
        return Err(CliError::usage(format!(
            "{cmd} works on hybrid partition plans; --backend belongs to `plan`"
        )));
    }
    Ok(opts)
}

fn cmd_partition(args: &Args) -> CmdResult {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("partition needs a FILE"))?;
    let cancel = cancel_config(args)?;
    let opts = hybrid_plan_options(args, "partition")?;
    let xmap = load(path)?;
    let hybrid = BackendId::Hybrid.plan(&xmap, cancel, &opts);
    let canceling = print_vs_baselines(&xmap, cancel, &hybrid);
    let time_canceling_only = canceling.normalized_test_time(&xmap, cancel);
    let time_proposed = hybrid.normalized_test_time(&xmap, cancel);
    outln!(
        "test time        : {:.3} -> {:.3} ({:.2}x)",
        time_canceling_only,
        time_proposed,
        time_canceling_only / time_proposed
    );
    Ok(())
}

/// Prints the hybrid's plan and its control-bit ratios over the Table-1
/// baselines, X-masking-only \[5\] and X-canceling-only \[12\] (the
/// summary `partition` and `plan` share). Returns the canceling-only
/// report.
fn print_vs_baselines(xmap: &XMap, cancel: XCancelConfig, hybrid: &BackendReport) -> BackendReport {
    let opts = PlanOptions::default();
    let masking = BackendId::MaskingOnly.plan(xmap, cancel, &opts);
    let canceling = BackendId::CancelingOnly.plan(xmap, cancel, &opts);
    let outcome = hybrid
        .outcome
        .as_ref()
        .expect("the hybrid carries its plan");
    outln!(
        "partitions       : {} (after {} rounds)",
        outcome.partitions.len(),
        outcome.rounds.len()
    );
    outln!(
        "X's              : {} masked + {} leaked = {}",
        hybrid.masked_x,
        hybrid.leaked_x,
        xmap.total_x()
    );
    outln!(
        "control bits     : {:.1} (mask {} + cancel {:.1})",
        hybrid.control_bits,
        outcome.cost.masking_bits,
        outcome.cost.canceling_bits
    );
    outln!(
        "vs baselines     : {:.2}x over X-masking-only, {:.2}x over X-canceling-only",
        masking.control_bits / hybrid.control_bits,
        canceling.control_bits / hybrid.control_bits
    );
    canceling
}

fn cmd_plan(args: &Args) -> CmdResult {
    let cancel = cancel_config(args)?;
    let opts = plan_options(args)?;
    let trace_out = args.flag("trace");
    // Input: a FILE positional, or a generated full-size paper profile
    // (`--profile ckt-a`, optionally shrunk with `--scale N`).
    let xmap = match (args.positional.first(), args.flag("profile")) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage("plan takes a FILE or --profile, not both"))
        }
        (Some(path), None) => load(path)?,
        (None, Some(profile)) => {
            let scale: usize = args.flag_parse("scale", 1).map_err(CliError::Usage)?;
            let spec = WorkloadSpec::profile(profile)
                .ok_or_else(|| CliError::usage(format!("unknown profile `{profile}`")))?
                .scaled(scale);
            let xmap = spec.generate();
            eprintln!(
                "generated {}: {} cells / {} patterns, {} X's ({:.3}%)",
                spec.name,
                xmap.config().total_cells(),
                xmap.num_patterns(),
                xmap.total_x(),
                100.0 * xmap.x_density()
            );
            xmap
        }
        (None, None) => return Err(CliError::usage("plan needs a FILE or --profile NAME")),
    };

    // Non-hybrid backends have no partition plan to trace: print their
    // uniform report and stop.
    if opts.backend != BackendId::Hybrid {
        let report = opts.backend.plan(&xmap, cancel, &opts);
        outln!("backend          : {}", report.backend);
        outln!("control bits     : {:.1}", report.control_bits);
        outln!(
            "X's              : {} masked + {} leaked = {}",
            report.masked_x,
            report.leaked_x,
            report.masked_x + report.leaked_x
        );
        outln!(
            "observability    : {} non-X response bits lost",
            report.lost_observability
        );
        return Ok(());
    }

    let session = if trace_out.is_some() {
        Some(
            TraceSession::begin()
                .ok_or_else(|| CliError::runtime("another trace session is already active"))?,
        )
    } else {
        None
    };

    let outcome = PartitionEngine::with_options(cancel, opts).run(&xmap);
    print_vs_baselines(&xmap, cancel, &BackendReport::hybrid(outcome));

    if let Some(out) = trace_out {
        let trace = session.expect("session begun when --trace is set").finish();
        std::fs::write(out, trace.to_chrome_json())
            .map_err(|e| CliError::runtime(format!("cannot write {out}: {e}")))?;
        eprintln!(
            "wrote {out}: {} events, {} counters over {:.3} ms",
            trace.events.len(),
            trace.counters.len(),
            trace.duration_ns() as f64 / 1e6
        );
        eprint!("{}", trace.summary());
    }
    Ok(())
}

fn cmd_schedule(args: &Args) -> CmdResult {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("schedule needs a FILE"))?;
    let cancel = cancel_config(args)?;
    let channels: usize = args.flag_parse("channels", 32).map_err(CliError::Usage)?;
    let xmap = load(path)?;
    let outcome = PartitionEngine::new(cancel).run(&xmap);
    let schedule = schedule_hybrid(
        xmap.config(),
        xmap.num_patterns(),
        &outcome,
        cancel,
        AteConfig::new(channels),
        ScheduleOptions::default(),
    );
    outln!("shift cycles     : {}", schedule.shift_cycles);
    outln!("capture cycles   : {}", schedule.capture_cycles);
    outln!(
        "mask loads       : {} ({} reload cycles)",
        schedule.mask_loads,
        schedule.mask_reload_cycles
    );
    outln!(
        "halts            : {} ({} extraction cycles)",
        schedule.halts,
        schedule.extraction_cycles
    );
    outln!("total cycles     : {}", schedule.total_cycles());
    outln!("normalized time  : {:.4}", schedule.normalized());
    Ok(())
}

/// `xhybrid verify`: plan + certify + independently re-check, or verify
/// existing wire artifacts against the X map.
fn cmd_verify(args: &Args) -> CmdResult {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("verify needs a FILE"))?;
    let xmap = load(path)?;

    if let Some(plan_path) = args.flag("plan") {
        // Artifact mode: the certificate carries its own (m, q).
        let cert_path = args
            .flag("cert")
            .ok_or_else(|| CliError::usage("--plan requires --cert FILE"))?;
        let plan_bytes = std::fs::read(plan_path)
            .map_err(|e| CliError::runtime(format!("cannot read {plan_path}: {e}")))?;
        let cert_bytes = std::fs::read(cert_path)
            .map_err(|e| CliError::runtime(format!("cannot read {cert_path}: {e}")))?;
        let cert = xhybrid::wire::decode_certificate(&cert_bytes).map_err(|e| {
            CliError::runtime(format!(
                "cannot decode {cert_path}: {}",
                coded(e.code(), &e)
            ))
        })?;
        let (outcome, num_patterns) = decode_plan(&plan_bytes)
            .map_err(|e| CliError::runtime(format!("cannot decode {plan_path}: {e}")))?;
        let cancel = XCancelConfig::new(cert.m, cert.q);
        let started = std::time::Instant::now();
        xhybrid::verify::check(&cert, &outcome, &plan_bytes, &xmap, cancel)
            .map_err(verify_failed)?;
        let verify_ns = started.elapsed().as_nanos();
        outln!(
            "verified         : {} partitions over {} patterns, m={} q={}",
            cert.num_partitions,
            num_patterns,
            cert.m,
            cert.q
        );
        outln!("verify time      : {:.3} ms", verify_ns as f64 / 1e6);
        return Ok(());
    }

    let cancel = cancel_config(args)?;
    let opts = hybrid_plan_options(args, "verify")?;
    let plan_started = std::time::Instant::now();
    let outcome = PartitionEngine::with_options(cancel, opts).run(&xmap);
    let plan_ns = plan_started.elapsed().as_nanos();
    let plan_bytes = xhybrid::wire::encode_plan(&outcome, xmap.num_patterns());
    let cert = xhybrid::verify::certify_plan(&xmap, cancel, &outcome, &plan_bytes, None);
    let verify_started = std::time::Instant::now();
    let checked = xhybrid::verify::check(&cert, &outcome, &plan_bytes, &xmap, cancel);
    let verify_ns = verify_started.elapsed().as_nanos();
    outln!(
        "plan             : {} partitions over {} patterns (after {} rounds)",
        outcome.partitions.len(),
        xmap.num_patterns(),
        outcome.rounds.len()
    );
    outln!(
        "certificate      : mask {} + cancel {:.1} control bits, {} masked + {} leaked X's",
        cert.mask_bits as u128 * cert.num_partitions as u128,
        cert.partitions.iter().map(|p| p.cancel_bits).sum::<f64>(),
        cert.partitions.iter().map(|p| p.masked_x).sum::<usize>(),
        cert.partitions.iter().map(|p| p.leaked_x).sum::<usize>(),
    );
    outln!(
        "plan time        : {:.3} ms, verify time {:.3} ms ({:.1}% of plan)",
        plan_ns as f64 / 1e6,
        verify_ns as f64 / 1e6,
        100.0 * verify_ns as f64 / plan_ns.max(1) as f64
    );
    if let Some(out) = args.flag("plan-out") {
        std::fs::write(out, &plan_bytes)
            .map_err(|e| CliError::runtime(format!("cannot write {out}: {e}")))?;
        eprintln!("wrote {out}: {} bytes", plan_bytes.len());
    }
    if let Some(out) = args.flag("cert-out") {
        let cert_bytes = xhybrid::wire::encode_certificate(&cert);
        std::fs::write(out, &cert_bytes)
            .map_err(|e| CliError::runtime(format!("cannot write {out}: {e}")))?;
        eprintln!("wrote {out}: {} bytes", cert_bytes.len());
    }
    checked.map_err(verify_failed)
}

/// A failed certificate check, named by the rule the daemon's
/// `/v1/plan/{hash}/verify` reports it under.
fn verify_failed(e: xhybrid::verify::VerifyError) -> CliError {
    CliError::runtime(format!(
        "certificate verification FAILED: {} {e}",
        e.code().id()
    ))
}

fn cmd_serve(args: &Args) -> CmdResult {
    let addr = args.flag("addr").unwrap_or("127.0.0.1:7878");
    let store = args.flag("store").unwrap_or("plan-store");
    let threads: usize = args.flag_parse("threads", 0).map_err(CliError::Usage)?;
    let workers: usize = args.flag_parse("workers", 4).map_err(CliError::Usage)?;
    let verify_on_write = match args.flag("verify-on-write").unwrap_or("0") {
        "1" => true,
        "0" => false,
        other => {
            return Err(CliError::usage(format!(
                "bad --verify-on-write `{other}` (expected 0 or 1)"
            )))
        }
    };
    let max_inflight: usize = args
        .flag_parse("max-inflight", 256)
        .map_err(CliError::Usage)?;
    let queue_depth: usize = args
        .flag_parse("queue-depth", 128)
        .map_err(CliError::Usage)?;
    let mut config = ServerConfig::new(Path::new(store))
        .with_threads(threads)
        .with_workers(workers)
        .with_verify_on_write(verify_on_write)
        .with_max_inflight(max_inflight)
        .with_queue_depth(queue_depth);
    if let Some(url) = args.flag("push-metrics") {
        config = config.with_push_metrics(url);
    }
    let server = Server::bind(addr, config)
        .map_err(|e| CliError::runtime(format!("cannot bind {addr}: {e}")))?;
    outln!("listening on {}", server.local_addr());
    server
        .run()
        .map_err(|e| CliError::runtime(format!("server failed: {e}")))
}

fn cmd_fetch(args: &Args) -> CmdResult {
    let addr = args
        .flag("addr")
        .ok_or_else(|| CliError::usage("fetch needs --addr HOST:PORT"))?;
    // Every backend but the hybrid answers with a JSON report, not a plan.
    let (response, is_plan) = if let Some(hex) = args.flag("hash") {
        if parse_hash_hex(hex).is_none() {
            return Err(CliError::usage(format!(
                "`{hex}` is not a 16-hex plan hash"
            )));
        }
        let response = client::get(addr, &format!("/v1/plan/{hex}"))
            .map_err(|e| CliError::runtime(format!("cannot reach {addr}: {e}")))?;
        (response, true)
    } else {
        let path = args
            .positional
            .first()
            .ok_or_else(|| CliError::usage("fetch needs a FILE or --hash HASH"))?;
        let cancel = cancel_config(args)?;
        // The engine's thread count belongs to the daemon.
        let options = engine_options(args)?;
        let file = std::fs::read(path)
            .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
        // A wire artifact travels as is; a text map is parsed and sent as
        // its wire encoding. The daemon keys the plan by the canonical map
        // either way.
        let artifact = if peek_kind(&file).is_ok() {
            file
        } else {
            let xmap = read_xmap(file.as_slice()).map_err(|e| {
                CliError::runtime(format!("cannot parse {path}: {}", coded(e.code(), &e)))
            })?;
            encode_xmap(&xmap)
        };
        let request = PlanRequest {
            m: cancel.m(),
            q: cancel.q(),
            options,
            artifact,
        };
        let response = client::post(
            addr,
            "/v1/plan",
            "application/octet-stream",
            &encode_plan_request(&request),
        )
        .map_err(|e| CliError::runtime(format!("cannot reach {addr}: {e}")))?;
        (response, options.backend == BackendId::Hybrid)
    };

    if response.status != 200 {
        return Err(CliError::runtime(format!(
            "daemon answered {}: {}",
            response.status,
            response.body_text().trim_end()
        )));
    }
    if is_plan {
        let (outcome, num_patterns) = decode_plan(&response.body)
            .map_err(|e| CliError::runtime(format!("daemon sent an undecodable plan: {e}")))?;
        if let Some(hash) = response.header("x-xhc-plan-hash") {
            outln!("plan hash        : {hash}");
        }
        if let Some(cache) = response.header("x-xhc-cache") {
            outln!("cache            : {cache}");
        }
        outln!(
            "partitions       : {} over {} patterns (after {} rounds)",
            outcome.partitions.len(),
            num_patterns,
            outcome.rounds.len()
        );
        outln!(
            "control bits     : mask {} + cancel {:.1}",
            outcome.cost.masking_bits,
            outcome.cost.canceling_bits
        );
        outln!(
            "X's              : {} masked + {} leaked",
            outcome.cost.masked_x,
            outcome.cost.leaked_x
        );
    } else {
        outln!("{}", response.body_text().trim_end());
    }
    if let Some(out) = args.flag("out") {
        std::fs::write(out, &response.body)
            .map_err(|e| CliError::runtime(format!("cannot write {out}: {e}")))?;
        let key = response.header("x-xhc-plan-hash").unwrap_or("").to_string();
        eprintln!(
            "wrote {out}: {} bytes{}",
            response.body.len(),
            if key.is_empty() {
                String::new()
            } else {
                format!(" ({key})")
            }
        );
    }
    Ok(())
}

fn run() -> CmdResult {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(CliError::usage(usage()));
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        outln!("{}", usage());
        return Ok(());
    }
    let Some(help) = command_help(cmd) else {
        return Err(CliError::usage(format!(
            "unknown command `{cmd}`\n{}",
            usage()
        )));
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        outln!("{help}");
        return Ok(());
    }
    let args = Args::parse(rest).map_err(CliError::Usage)?;
    let (run_cmd, positionals, flags) =
        command(cmd, &args).expect("every command with help text runs");
    if let Some(extra) = args.positional.get(positionals) {
        return Err(CliError::usage(format!(
            "unexpected argument `{extra}` for `xhybrid {cmd}` (see `xhybrid {cmd} --help`)"
        )));
    }
    if let Some((name, _)) = args
        .flags
        .iter()
        .find(|(name, _)| !flags.contains(&name.as_str()))
    {
        return Err(CliError::usage(format!(
            "unknown flag --{name} for `xhybrid {cmd}` (see `xhybrid {cmd} --help`)"
        )));
    }
    run_cmd(&args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_and_positional() {
        let argv: Vec<String> = ["file.xmap", "--m", "16", "--q", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&argv).unwrap();
        assert_eq!(args.positional, vec!["file.xmap"]);
        assert_eq!(args.flag("m"), Some("16"));
        assert_eq!(args.flag_parse::<usize>("q", 7).unwrap(), 3);
        assert_eq!(args.flag_parse::<usize>("channels", 32).unwrap(), 32);
    }

    #[test]
    fn args_missing_value_is_error() {
        let argv = vec!["--m".to_string()];
        assert!(Args::parse(&argv).is_err());
    }

    #[test]
    fn cancel_config_validates() {
        let argv: Vec<String> = ["--m", "8", "--q", "8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&argv).unwrap();
        assert!(matches!(cancel_config(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn every_command_has_help() {
        for cmd in [
            "gen",
            "analyze",
            "partition",
            "plan",
            "schedule",
            "verify",
            "serve",
            "fetch",
        ] {
            assert!(command_help(cmd).is_some(), "{cmd} lacks help text");
        }
        assert!(command_help("bogus").is_none());
    }

    #[test]
    fn every_flag_a_command_reads_is_in_its_help() {
        // No mode flag, then each flag that picks a mode.
        let modes: [&[&str]; 4] = [
            &[],
            &["--plan", "p"],
            &["--hash", "h"],
            &["--backend", "xcode"],
        ];
        let modes = modes.map(|argv| {
            Args::parse(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>()).unwrap()
        });
        for cmd in [
            "gen",
            "analyze",
            "partition",
            "plan",
            "schedule",
            "verify",
            "serve",
            "fetch",
        ] {
            let help = command_help(cmd).expect("a known command");
            for args in &modes {
                let (_, _, flags) = command(cmd, args).expect("a known command");
                for flag in flags {
                    assert!(help.contains(&format!("--{flag}")), "{cmd}: --{flag}");
                }
            }
        }
        assert!(command("bogus", &modes[0]).is_none());
    }

    #[test]
    fn engine_flags_are_the_plan_option_parameters() {
        assert_eq!(
            ENGINE_FLAGS.map(|flag| flag.replace('-', "_")),
            PlanOptions::PARAMS.map(String::from)
        );
    }
}
