//! `xtask` — the workspace invariant analyzer behind `cargo xtask lint`.
//!
//! The engine's correctness rests on hand-maintained concurrency
//! invariants: epoch-swapped sealed lists, evictable segment data behind
//! `RwLock`/`OnceLock`, a condvar-based admission queue, and raw-pointer
//! `AlignedVec` storage. Stock clippy checks none of the *discipline*
//! around them. This crate is a repo-native static-analysis pass — a
//! hand-rolled lexer (no external parser crates) plus five rule families
//! driven by `lint_policy.toml` at the workspace root:
//!
//! 1. [`rules::atomics`] — atomic-ordering justification discipline;
//! 2. [`rules::unsafe_doc`] — no undocumented `unsafe`;
//! 3. [`rules::server_panics`] — panic-free server request paths;
//! 4. [`rules::condvar`] — condvar waits inside predicate loops;
//! 5. [`rules::locks`] — lock-nesting order against a declared hierarchy,
//!    with workspace-wide cycle detection.
//!
//! Run it as `cargo xtask lint` (aliased in `.cargo/config.toml`); CI
//! runs it as a required job, and `tests/workspace_clean.rs` keeps the
//! real tree lint-clean as part of the normal test suite.

#![warn(missing_docs)]

pub mod lexer;
pub mod model;
pub mod policy;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use policy::Policy;
use rules::locks::{self, LockPolicy};
use rules::{atomics, condvar, server_panics, unsafe_doc, Violation};

/// Lints the workspace rooted at `root`, returning all violations sorted
/// by file and line. `Err` is reserved for infrastructure failures
/// (missing/unparsable policy, unreadable files).
pub fn run_lint(root: &Path) -> Result<Vec<Violation>, String> {
    let policy_path = root.join("lint_policy.toml");
    let policy_src = fs::read_to_string(&policy_path)
        .map_err(|e| format!("cannot read {}: {e}", policy_path.display()))?;
    let policy = Policy::parse(&policy_src).map_err(|e| e.to_string())?;
    let files = scan_files(root, &policy)?;
    lint_files(root, &policy, &files)
}

/// Lints an explicit set of workspace-relative files under `root` with a
/// pre-parsed policy (the test harness entry point).
pub fn lint_files(
    root: &Path,
    policy: &Policy,
    files: &[String],
) -> Result<Vec<Violation>, String> {
    let (lock_policy, mut violations) = LockPolicy::from_policy(policy);
    let mut edges = Vec::new();
    for rel in files {
        let path = root.join(rel);
        let src = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let lexed = lexer::lex(&src);
        violations.extend(atomics::check(rel, &lexed, policy));
        violations.extend(unsafe_doc::check(rel, &lexed));
        if server_panics::applies(rel, policy) {
            violations.extend(server_panics::check(rel, &lexed));
        }
        violations.extend(condvar::check(rel, &lexed));
        let (v, e) = locks::check(rel, &lexed, &lock_policy);
        violations.extend(v);
        edges.extend(e);
    }
    violations.extend(locks::cycle_check(&edges));
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(violations)
}

/// Enumerates the `.rs` files the lint covers: `src/**` of the facade
/// crate and of every `crates/*` member, honoring `[scan] exclude`
/// prefixes from the policy. Integration tests, benches, examples and the
/// vendored stand-ins are intentionally out of scope (documented in
/// DESIGN.md).
pub fn scan_files(root: &Path, policy: &Policy) -> Result<Vec<String>, String> {
    let excludes = policy.list_of("scan", "exclude");
    let mut found = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    for dir in roots {
        walk(&dir, &mut |p| {
            if p.extension().and_then(|e| e.to_str()) == Some("rs") {
                if let Ok(rel) = p.strip_prefix(root) {
                    let rel = rel.to_string_lossy().replace('\\', "/");
                    if !excludes.iter().any(|x| rel.starts_with(x.as_str())) {
                        found.push(rel);
                    }
                }
            }
        })?;
    }
    found.sort();
    Ok(found)
}

fn walk(dir: &Path, f: &mut impl FnMut(&Path)) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            walk(&p, f)?;
        } else {
            f(&p);
        }
    }
    Ok(())
}

/// Locates the workspace root: `$CARGO_MANIFEST_DIR/../..` when run via
/// cargo, else walks up from the current directory to the first
/// `lint_policy.toml`.
pub fn workspace_root() -> Result<PathBuf, String> {
    if let Ok(md) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(md);
        if let Some(root) = p.ancestors().nth(2) {
            if root.join("lint_policy.toml").is_file() {
                return Ok(root.to_path_buf());
            }
        }
    }
    let mut cur = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        if cur.join("lint_policy.toml").is_file() {
            return Ok(cur);
        }
        if !cur.pop() {
            return Err("no lint_policy.toml found between here and filesystem root".into());
        }
    }
}
