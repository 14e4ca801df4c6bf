//! Lock-acquisition analysis over `crates/serve` and `crates/core`:
//! guard-scope extraction (shared with LX020) and the LX021
//! lock-acquisition graph with cycle detection — a static deadlock check.
//!
//! A *lock site* is any `….lock()` call. The lock's identity is the last
//! path segment of the receiver (`self.inner.state.lock()` → `state`),
//! which is stable across `self.`/local-variable spellings of the same
//! mutex. A call of a lock helper, `….lock_<name>()`, is a lock site too:
//! it takes the lock `<name>` (`inner.lock_state()` → `state`), so a
//! mutex reached only through its accessor still shows in the graph. A
//! guard's *scope* runs
//!
//! * from the call to the end of the enclosing statement, for guards that
//!   are never bound (`x.lock().….field`), or
//! * from a `let g = ….lock()…;` binding to the end of the enclosing
//!   block, or to an explicit `drop(g)`, whichever comes first.
//!
//! While a guard of lock A is in scope, an acquisition of lock B adds the
//! edge A → B. A cycle through the resulting graph (including the
//! self-edge A → A: `std::sync::Mutex` is not reentrant) is a potential
//! deadlock and fails the lint. The analysis is per-function-body and
//! token-level — it cannot see acquisitions hidden behind calls into
//! other functions — so it is a cheap invariant keeper, not a proof; the
//! repo keeps it honest by keeping lock scopes short and call-free.

use crate::report::{LockEdge, Violation};
use crate::rules::FileCtx;

/// One `….lock()` or `….lock_<name>()` call and the scope its guard
/// lives for.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Lock identity: last receiver path segment before `.lock()`, or the
    /// `<name>` of a `.lock_<name>()` helper.
    pub name: String,
    /// The bound guard variable, if the result was `let`-bound. The
    /// analysis encodes its effect in `scope_end`; kept for the scope
    /// tests and future diagnostics.
    #[allow(dead_code)]
    pub guard: Option<String>,
    /// Significant-token index of the `lock` identifier.
    pub at: usize,
    /// Significant-token index one past the guard's scope.
    pub scope_end: usize,
    /// 1-based source line of the acquisition.
    pub line: usize,
}

/// Extracts every lock site in `ctx`, with guard scopes.
pub fn lock_sites(ctx: &FileCtx<'_>) -> Vec<LockSite> {
    let mut sites = Vec::new();
    for k in 0..ctx.len() {
        let Some(name) = lock_name(ctx, k) else {
            continue;
        };
        let stmt_start = statement_start(ctx, k);
        let guard = let_binding(ctx, stmt_start);
        let scope_end = match &guard {
            None => end_of_statement(ctx, k),
            Some(g) => guard_scope_end(ctx, stmt_start, k, g),
        };
        sites.push(LockSite {
            name,
            guard,
            at: k,
            scope_end,
            line: ctx.line(k),
        });
    }
    sites
}

/// The lock taken by a method call at token `k`, if it is one: `.lock()`
/// takes the lock its receiver names, `.lock_<name>()` the lock `<name>`.
fn lock_name(ctx: &FileCtx<'_>, k: usize) -> Option<String> {
    if ctx.text(k.wrapping_sub(1)) != "." || ctx.text(k + 1) != "(" {
        return None;
    }
    match ctx.text(k) {
        "lock" => Some(receiver_name(ctx, k)),
        method => method
            .strip_prefix("lock_")
            .filter(|name| !name.is_empty())
            .map(str::to_string),
    }
}

/// Last path segment of the receiver chain before `.lock()`.
fn receiver_name(ctx: &FileCtx<'_>, k: usize) -> String {
    let recv = ctx.text(k.wrapping_sub(2));
    if recv.is_empty()
        || !recv
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    {
        "<expr>".to_string()
    } else {
        recv.to_string()
    }
}

/// Significant index of the first token of the statement containing `k`:
/// just past the nearest `;`, `{` or `}` looking backwards.
fn statement_start(ctx: &FileCtx<'_>, k: usize) -> usize {
    let mut j = k;
    while j > 0 {
        if matches!(ctx.text(j - 1), ";" | "{" | "}") {
            return j;
        }
        j -= 1;
    }
    0
}

/// `let [mut] NAME =` at `stmt_start` → `Some(NAME)`.
fn let_binding(ctx: &FileCtx<'_>, stmt_start: usize) -> Option<String> {
    if ctx.text(stmt_start) != "let" {
        return None;
    }
    let mut j = stmt_start + 1;
    if ctx.text(j) == "mut" {
        j += 1;
    }
    let name = ctx.text(j);
    (ctx.text(j + 1) == "="
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_'))
    .then(|| name.to_string())
}

/// Significant index one past the `;` ending the statement containing `k`
/// (skipping over nested braces: `match`/closure bodies inside the
/// statement stay inside it).
fn end_of_statement(ctx: &FileCtx<'_>, k: usize) -> usize {
    let mut depth = 0i32;
    let mut j = k;
    while j < ctx.len() {
        match ctx.text(j) {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                if depth == 0 {
                    return j; // statement ends with its enclosing block
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    ctx.len()
}

/// Scope of a `let`-bound guard: to the `}` closing the enclosing block,
/// or to an explicit `drop(NAME)`, whichever is first.
fn guard_scope_end(ctx: &FileCtx<'_>, stmt_start: usize, k: usize, name: &str) -> usize {
    let base_depth = ctx.depth.get(stmt_start).copied().unwrap_or(0);
    let mut j = k;
    while j < ctx.len() {
        if ctx.text(j) == "}" && ctx.depth.get(j).copied().unwrap_or(0) <= base_depth {
            return j;
        }
        if ctx.text(j) == "drop" && ctx.text(j + 1) == "(" && ctx.text(j + 2) == name {
            return j;
        }
        // Shadowing re-binding of the same name ends the old guard's
        // life at the re-assignment (`st = cv.wait(st)` keeps it alive;
        // `let st = …` shadows).
        if ctx.text(j) == "let" && j > k {
            let mut m = j + 1;
            if ctx.text(m) == "mut" {
                m += 1;
            }
            if ctx.text(m) == name {
                return j;
            }
        }
        j += 1;
    }
    ctx.len()
}

/// Builds the lock-acquisition edges of one file: for every pair of
/// sites (A, B) where B is acquired inside A's guard scope, emit A → B.
pub fn lock_edges(ctx: &FileCtx<'_>, sites: &[LockSite]) -> Vec<LockEdge> {
    let mut edges = Vec::new();
    for a in sites {
        for b in sites {
            if b.at > a.at && b.at < a.scope_end {
                edges.push(LockEdge {
                    held: a.name.clone(),
                    acquired: b.name.clone(),
                    site: format!("{}:{}", ctx.path, b.line),
                });
            }
        }
    }
    edges
}

/// Finds a cycle in the union lock graph, if any. Returns the node
/// sequence `a -> b -> … -> a`. Deterministic: nodes are visited in
/// sorted order.
pub fn find_cycle(edges: &[LockEdge]) -> Option<Vec<String>> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.held).or_default().insert(&e.acquired);
    }
    // Iterative DFS with an explicit path for cycle reconstruction.
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        if done.contains(start) {
            continue;
        }
        let mut path: Vec<&str> = Vec::new();
        let mut on_path: BTreeSet<&str> = BTreeSet::new();
        // Stack of (node, entered). On first visit push children; on
        // second visit pop from the path.
        let mut stack: Vec<(&str, bool)> = vec![(start, false)];
        while let Some((node, entered)) = stack.pop() {
            if entered {
                path.pop();
                on_path.remove(node);
                done.insert(node);
                continue;
            }
            if on_path.contains(node) {
                // Cycle: slice the current path from the repeat.
                let from = path.iter().position(|&n| n == node).unwrap_or(0);
                let mut cycle: Vec<String> =
                    path[from..].iter().map(|s| (*s).to_string()).collect();
                cycle.push(node.to_string());
                return Some(cycle);
            }
            if done.contains(node) {
                continue;
            }
            path.push(node);
            on_path.insert(node);
            stack.push((node, true));
            if let Some(next) = adj.get(node) {
                for &m in next.iter().rev() {
                    stack.push((m, false));
                }
            }
        }
    }
    None
}

/// LX021 as a violation list: one finding per cycle edge is noisy, so the
/// cycle itself is reported once, anchored at the first participating
/// acquisition site.
pub fn lx021_violations(edges: &[LockEdge], cycle: &Option<Vec<String>>) -> Vec<Violation> {
    let Some(cycle) = cycle else {
        return Vec::new();
    };
    let anchor = edges
        .iter()
        .find(|e| cycle.contains(&e.held) && cycle.contains(&e.acquired));
    let (path, line) = match anchor {
        Some(e) => {
            let mut parts = e.site.rsplitn(2, ':');
            let line = parts.next().and_then(|l| l.parse().ok()).unwrap_or(0);
            let path = parts.next().unwrap_or("").to_string();
            (path, line)
        }
        None => (String::new(), 0),
    };
    vec![Violation {
        code: "LX021",
        rule: "lock-cycle",
        path,
        line,
        content: format!("lock-order cycle: {}", cycle.join(" -> ")),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx<'_> {
        FileCtx::new("crates/serve/src/x.rs", src, false)
    }

    #[test]
    fn guard_scope_runs_to_block_end_or_drop() {
        let src = "fn f(m: &std::sync::Mutex<u32>) {\n    let g = m.lock().unwrap();\n    use_it(&g);\n    drop(g);\n    after();\n}\n";
        let c = ctx(src);
        let sites = lock_sites(&c);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].name, "m");
        assert_eq!(sites[0].guard.as_deref(), Some("g"));
        // Scope ends at the `drop`, before `after()`.
        let drop_idx = (0..c.len()).find(|&k| c.text(k) == "drop").expect("drop");
        assert_eq!(sites[0].scope_end, drop_idx);
    }

    #[test]
    fn unbound_guard_dies_at_statement_end() {
        let src = "fn f(s: &S) -> u64 {\n    s.inner.state.lock().expect(\"x\").stats;\n    other.lock().map(|g| *g).unwrap_or(0)\n}\n";
        let c = ctx(src);
        let sites = lock_sites(&c);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].name, "state");
        assert!(sites[0].guard.is_none());
        // First guard's scope ends before the second acquisition.
        assert!(sites[0].scope_end <= sites[1].at);
        assert!(lock_edges(&c, &sites).is_empty());
    }

    #[test]
    fn nested_acquisition_makes_an_edge_and_an_ab_ba_pair_cycles() {
        let src = "fn ab(a: &M, b: &M) {\n    let ga = a.lock().unwrap();\n    let gb = b.lock().unwrap();\n    use2(&ga, &gb);\n}\nfn ba(a: &M, b: &M) {\n    let gb = b.lock().unwrap();\n    let ga = a.lock().unwrap();\n    use2(&ga, &gb);\n}\n";
        let c = ctx(src);
        let sites = lock_sites(&c);
        let edges = lock_edges(&c, &sites);
        assert!(edges.iter().any(|e| e.held == "a" && e.acquired == "b"));
        assert!(edges.iter().any(|e| e.held == "b" && e.acquired == "a"));
        let cycle = find_cycle(&edges).expect("ab/ba must cycle");
        assert_eq!(cycle.first(), cycle.last());
        assert!(!lx021_violations(&edges, &Some(cycle)).is_empty());
    }

    #[test]
    fn relocking_the_same_mutex_in_scope_is_a_self_cycle() {
        let src = "fn f(m: &M) {\n    let g = m.lock().unwrap();\n    let h = m.lock().unwrap();\n    use2(&g, &h);\n}\n";
        let c = ctx(src);
        let edges = lock_edges(&c, &lock_sites(&c));
        let cycle = find_cycle(&edges).expect("self-edge is a deadlock");
        assert_eq!(cycle, vec!["m".to_string(), "m".to_string()]);
    }

    #[test]
    fn sequential_scopes_do_not_edge() {
        let src = "fn f(a: &M, b: &M) {\n    { let ga = a.lock().unwrap(); use_it(&ga); }\n    { let gb = b.lock().unwrap(); use_it(&gb); }\n}\n";
        let c = ctx(src);
        let edges = lock_edges(&c, &lock_sites(&c));
        assert!(edges.is_empty(), "{edges:?}");
        assert!(find_cycle(&edges).is_none());
    }

    #[test]
    fn a_lock_helper_takes_the_lock_it_names() {
        let src = "fn f(inner: &Inner) {\n    let journal = inner.lock_journal();\n    let st = inner.lock_state();\n    use2(&journal, &st);\n}\nfn lock_state(&self) -> G {\n    self.state.lock().unwrap()\n}\n";
        let c = ctx(src);
        let sites = lock_sites(&c);
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        // The helper's definition is no call; the `.lock()` in its body is.
        assert_eq!(names, ["journal", "state", "state"]);
        let edges = lock_edges(&c, &sites);
        let pairs: Vec<(&str, &str)> = edges
            .iter()
            .map(|e| (e.held.as_str(), e.acquired.as_str()))
            .collect();
        assert_eq!(pairs, [("journal", "state")]);
    }

    #[test]
    fn shadowing_rebind_ends_the_previous_guard() {
        let src = "fn f(a: &M) {\n    let g = a.lock().unwrap();\n    drop(g);\n    let g = a.lock().unwrap();\n    use_it(&g);\n}\n";
        let c = ctx(src);
        let edges = lock_edges(&c, &lock_sites(&c));
        assert!(edges.is_empty(), "{edges:?}");
    }
}
