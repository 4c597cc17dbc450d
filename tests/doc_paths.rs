//! The docs name only files that exist. Every backticked token in
//! README.md, DESIGN.md and EXPERIMENTS.md that starts with a repo
//! directory, or is a bare `*.md`/`*.json`/`*.toml`/`*.txt`/`*.sh` name,
//! must name a file or directory of the repo; a `*` glob must match at
//! least one. A bare name is read from the root, so a transcript or a
//! script is named by its full `reproduction/` or `scripts/` path. A
//! trailing `:LINE` (`crates/serve/src/lib.rs:662`) is dropped first.

use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

const REPO_DIRS: [&str; 9] = [
    "crates/",
    "scripts/",
    "tests/",
    "src/",
    "examples/",
    "reproduction/",
    "planbench/",
    ".claude/",
    ".github/",
];

/// The inline code spans of `markdown`, outside fenced blocks, with the
/// line each starts on.
fn code_spans(markdown: &str) -> Vec<(usize, String)> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            prose.push('\n');
        } else if fenced {
            prose.push('\n');
        } else {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let mut spans = Vec::new();
    let mut pieces = prose.split('`');
    let mut line = 1 + pieces.next().map_or(0, |p| p.matches('\n').count());
    while let (Some(code), Some(after)) = (pieces.next(), pieces.next()) {
        spans.push((line, code.to_string()));
        line += code.matches('\n').count() + after.matches('\n').count();
    }
    spans
}

/// A path token this test judges, without any `:LINE` suffix; `None`
/// for any other token.
fn repo_path(token: &str) -> Option<&str> {
    let path = match token.split_once(':') {
        Some((path, line)) if !line.is_empty() && line.chars().all(|c| c.is_ascii_digit()) => path,
        _ => token,
    };
    let root_name = !path.contains('/')
        && [".md", ".json", ".toml", ".txt", ".sh"]
            .iter()
            .any(|ext| path.ends_with(ext));
    (REPO_DIRS.iter().any(|d| path.starts_with(d)) || root_name).then_some(path)
}

/// `name` matches `pattern`, where `*` stands for any run of characters.
fn wildcard(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (head.len()..=name.len())
                    .any(|i| name.is_char_boundary(i) && wildcard(tail, &name[i..]))
        }
    }
}

/// The files and directories under `root` that `path` names, one
/// component at a time, each `*` component matched against the
/// directory's entries.
fn matches(root: &Path, path: &str) -> Vec<PathBuf> {
    let mut found = vec![root.to_path_buf()];
    for part in path.split('/').filter(|p| !p.is_empty()) {
        found = found
            .iter()
            .flat_map(|dir| -> Vec<PathBuf> {
                if !part.contains('*') {
                    return vec![dir.join(part)];
                }
                std::fs::read_dir(dir)
                    .into_iter()
                    .flatten()
                    .flatten()
                    .filter(|e| wildcard(part, &e.file_name().to_string_lossy()))
                    .map(|e| e.path())
                    .collect()
            })
            .filter(|p| p.exists())
            .collect();
    }
    found
}

#[test]
fn docs_name_only_paths_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("read a doc");
        for (line, span) in code_spans(&text) {
            for path in span.split_whitespace().filter_map(repo_path) {
                checked += 1;
                if matches(root, path).is_empty() {
                    missing.push(format!("{doc}:{line}: `{path}`"));
                }
            }
        }
    }
    assert!(
        checked > 20,
        "only {checked} paths found: is the scan broken?"
    );
    assert!(
        missing.is_empty(),
        "docs name missing paths:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_scan_judges_what_it_should() {
    let spans = code_spans("a `x` b\n```\n`in/a fence`\n```\nc `crates/y\nz` d `e`\n");
    let spans: Vec<_> = spans.iter().map(|(l, s)| (*l, s.as_str())).collect();
    assert_eq!(spans, [(1, "x"), (5, "crates/y\nz"), (6, "e")]);

    assert_eq!(
        repo_path("crates/serve/src/lib.rs:662"),
        Some("crates/serve/src/lib.rs")
    );
    assert_eq!(repo_path("reproduction/*.txt"), Some("reproduction/*.txt"));
    assert_eq!(
        repo_path("BENCH_partition.json"),
        Some("BENCH_partition.json")
    );
    assert_eq!(repo_path("bench_gate.sh"), Some("bench_gate.sh"));
    assert_eq!(repo_path("xhybrid"), None);
    assert_eq!(repo_path("serve.plan"), None);

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(!matches(root, "reproduction/*.txt").is_empty());
    assert!(matches(root, "reproduction/*.nope").is_empty());
    assert!(matches(root, "scripts/no_such_script.sh").is_empty());
    assert!(matches(root, "bench_gate.sh").is_empty());
}
