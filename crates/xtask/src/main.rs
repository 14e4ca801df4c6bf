//! `cargo xtask` — repo-local developer tasks, wired up through the
//! `[alias]` table in `.cargo/config.toml`.
//!
//! The only task today is `lint`, a token-accurate static-analysis pass
//! for conventions `rustc`/`clippy` do not enforce. Source files are run
//! through a small lossless Rust lexer ([`lexer`]) and a set of rules
//! with stable `LX0xx` codes (see `docs/LINTS.md` for the catalogue):
//!
//! * `LX001` no-unwrap, `LX002` float-partial-cmp — panic discipline;
//! * `LX003` missing-docs-header — `#![deny(missing_docs)]` everywhere;
//! * `LX010` order-sensitive `HashMap`/`HashSet` iteration on
//!   schedule-producing paths — determinism;
//! * `LX011` exact float `==`/`!=`, `LX012` narrowing `as` casts —
//!   numeric safety;
//! * `LX020` guard across a blocking call, `LX021` lock-acquisition
//!   cycle — lock discipline over `crates/serve` + `crates/core`;
//! * `LX030` fsync-free file write in `crates/serve` — the daemon's
//!   fsync-before-ack durability contract.
//!
//! Deliberate findings go in `crates/xtask/lint-allow.txt` with a `#`
//! comment explaining why they are safe; `--write-allowlist` *appends*
//! missing entries (never rewrites, so justifications survive). `--json`
//! emits the machine-readable report CI uploads as an artifact.

mod lexer;
mod lockgraph;
#[cfg(test)]
mod proptests;
mod report;
mod rules;

use std::path::{Path, PathBuf};

use report::{Allowlist, LockEdge, Report, Violation};
use rules::FileCtx;

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(
            args.iter().any(|a| a == "--json"),
            args.iter().any(|a| a == "--write-allowlist"),
        ),
        _ => {
            eprintln!("usage: cargo xtask lint [--json] [--write-allowlist]");
            std::process::ExitCode::FAILURE
        }
    }
}

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the repo root")
        .to_path_buf()
}

fn lint(json: bool, write_allowlist: bool) -> std::process::ExitCode {
    let root = repo_root();
    let allow_path = root.join("crates/xtask/lint-allow.txt");
    let allow = Allowlist::load(&allow_path);
    let report = analyze(&root, &allow);

    if write_allowlist {
        return match append_allowlist(&allow_path, &report) {
            Ok(n) => {
                println!("appended {n} finding(s) to {}", allow_path.display());
                std::process::ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", allow_path.display());
                std::process::ExitCode::FAILURE
            }
        };
    }

    if json {
        println!("{}", report.render_json());
    } else if report.failed() {
        eprint!("{}", report.render_text());
    } else {
        print!("{}", report.render_text());
    }
    if report.failed() {
        std::process::ExitCode::FAILURE
    } else {
        std::process::ExitCode::SUCCESS
    }
}

/// Runs every rule over the whole repo and builds the report.
fn analyze(root: &Path, allow: &Allowlist) -> Report {
    let files = load_sources(root);
    let declared_tests = declared_test_files(&files);

    let mut violations = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    for f in &files {
        let ctx = FileCtx::new(&f.rel, &f.text, declared_tests.contains(&f.rel));
        if ctx.is_empty() {
            continue;
        }
        violations.extend(rules::run_all(&ctx));
        // LX021 lock graph: union over the lock-audited library code.
        if matches!(ctx.crate_name(), "serve" | "core") && !ctx.test_file {
            let mut sites = lockgraph::lock_sites(&ctx);
            sites.retain(|s| !ctx.is_test(s.at));
            edges.extend(lockgraph::lock_edges(&ctx, &sites));
        }
    }
    check_docs_headers(root, &mut violations);

    let cycle = lockgraph::find_cycle(&edges);
    violations.extend(lockgraph::lx021_violations(&edges, &cycle));
    Report::new(violations, allow, edges, cycle)
}

/// One loaded source file: repo-relative `/`-separated path plus content.
struct SourceFile {
    rel: String,
    text: String,
}

/// Reads every checked `.rs` file: the facade `src/`, the top-level
/// `tests/`, and each crate's `src/`, `tests/` and `benches/`. `vendor/`,
/// `target/` and xtask itself are skipped (xtask is dev tooling whose
/// error reporting *is* panicking).
fn load_sources(root: &Path) -> Vec<SourceFile> {
    let mut paths = Vec::new();
    let mut roots = vec![root.join("src"), root.join("tests")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            if e.path().file_name().is_some_and(|n| n == "xtask") {
                continue;
            }
            roots.push(e.path().join("src"));
            roots.push(e.path().join("tests"));
            roots.push(e.path().join("benches"));
        }
    }
    for r in roots {
        walk(&r, &mut paths);
    }
    paths.sort();
    paths
        .into_iter()
        .filter_map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&p).ok()?;
            Some(SourceFile { rel, text })
        })
        .collect()
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Repo-relative paths of file modules declared via `#[cfg(test)] mod x;`
/// anywhere in the checked sources (`src/x.rs` or `src/x/mod.rs` forms).
fn declared_test_files(files: &[SourceFile]) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    for f in files {
        let ctx = FileCtx::new(&f.rel, &f.text, false);
        let dir = match f.rel.rfind('/') {
            Some(i) => &f.rel[..i],
            None => "",
        };
        for name in rules::declared_test_modules(&ctx) {
            out.insert(format!("{dir}/{name}.rs"));
            out.insert(format!("{dir}/{name}/mod.rs"));
        }
    }
    out
}

/// LX003 — every library crate root must opt into `#![deny(missing_docs)]`.
fn check_docs_headers(root: &Path, violations: &mut Vec<Violation>) {
    let mut roots = vec![root.join("src/lib.rs")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let lib = e.path().join("src/lib.rs");
            if lib.exists() {
                roots.push(lib);
            }
        }
    }
    for lib in roots {
        let rel = lib
            .strip_prefix(root)
            .unwrap_or(&lib)
            .to_string_lossy()
            .replace('\\', "/");
        let ok = std::fs::read_to_string(&lib)
            .map(|t| t.contains("#![deny(missing_docs)]"))
            .unwrap_or(false);
        if !ok {
            violations.push(Violation {
                code: "LX003",
                rule: "missing-docs-header",
                path: rel,
                line: 1,
                content: "crate root lacks #![deny(missing_docs)]".to_string(),
            });
        }
    }
}

/// Appends the active findings' keys to the allowlist, preserving the
/// existing file (and its `#` justification comments) byte-for-byte.
fn append_allowlist(path: &Path, report: &Report) -> std::io::Result<usize> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut missing: Vec<String> = report
        .active
        .iter()
        .map(|&i| report.violations[i].key())
        .collect();
    missing.sort();
    missing.dedup();
    if missing.is_empty() {
        return Ok(0);
    }
    let mut out = existing;
    if !out.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("# --- appended by `cargo xtask lint --write-allowlist`: ---\n");
    out.push_str("# --- move each entry under a comment explaining why it is safe ---\n");
    for k in &missing {
        out.push_str(k);
        out.push('\n');
    }
    std::fs::write(path, out)?;
    Ok(missing.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_test_module_files_are_detected_and_exempt() {
        let files = vec![
            SourceFile {
                rel: "crates/x/src/lib.rs".into(),
                text: "#[cfg(test)]\nmod proptests;\npub fn f() {}\n".into(),
            },
            SourceFile {
                rel: "crates/x/src/proptests.rs".into(),
                text: "fn t(y: Option<u8>) { y.unwrap(); }\n".into(),
            },
        ];
        let declared = declared_test_files(&files);
        assert!(declared.contains("crates/x/src/proptests.rs"));
        let ctx = FileCtx::new(
            "crates/x/src/proptests.rs",
            &files[1].text,
            declared.contains("crates/x/src/proptests.rs"),
        );
        assert!(rules::run_all(&ctx).is_empty());
    }

    #[test]
    fn append_allowlist_preserves_existing_comments() {
        let dir = std::env::temp_dir().join("xtask-append-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("allow.txt");
        std::fs::write(&path, "# why: safe because reasons\nLX001\ta.rs\tkept();\n").unwrap();
        let allow = Allowlist::load(&path);
        let report = Report::new(
            vec![Violation {
                code: "LX001",
                rule: "no-unwrap",
                path: "b.rs".into(),
                line: 1,
                content: "x.unwrap();".into(),
            }],
            &allow,
            vec![],
            None,
        );
        let n = append_allowlist(&path, &report).unwrap();
        assert_eq!(n, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("# why: safe because reasons\nLX001\ta.rs\tkept();\n"));
        assert!(text.contains("LX001\tb.rs\tx.unwrap();\n"));
        // Stale entries are reported but never removed automatically.
        assert_eq!(Allowlist::load(&path).stale(&report.violations).len(), 1);
    }

    #[test]
    fn the_repo_is_lint_clean_modulo_allowlist() {
        // The real invariant CI enforces — every LX rule, in-process.
        let root = repo_root();
        let allow = Allowlist::load(&root.join("crates/xtask/lint-allow.txt"));
        let report = analyze(&root, &allow);
        assert!(
            !report.failed(),
            "lint violations not in the allowlist:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn the_lock_graph_is_extracted_and_acyclic() {
        // LX021 over the real repo: the serve/core mutexes must form an
        // acyclic acquisition order. An empty edge list would also pass,
        // so assert the daemon's documented order, journal before state,
        // which `submit` and `finalize` take through the lock helpers.
        let root = repo_root();
        let allow = Allowlist::load(&root.join("crates/xtask/lint-allow.txt"));
        let report = analyze(&root, &allow);
        assert!(report.lock_cycle.is_none(), "{:?}", report.lock_cycle);
        assert!(
            report
                .lock_edges
                .iter()
                .any(|e| e.held == "journal" && e.acquired == "state"),
            "{:?}",
            report.lock_edges
        );
    }
}
