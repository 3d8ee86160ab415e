//! Conservative intra-crate call graph, reachability, and the P1
//! panic-path lint.
//!
//! Edges are name-resolved (see [`crate::symbols`]): a call site adds
//! an edge to every same-crate function with that name, narrowed by
//! self type when the call is written `Type::method(...)`. This
//! overapproximates real control flow, which is the safe direction for
//! "must never panic" reasoning.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::Tok;
use crate::lints::{FileLex, RawFinding};
use crate::symbols::SymbolTable;

/// A reachability root: a named function in one file. Its closure
/// covers every same-crate function it may call.
#[derive(Debug, Clone)]
pub struct Root {
    /// Workspace-relative path of the root file.
    pub file: String,
    /// Function name.
    pub func: String,
}

/// The call graph: `calls[id]` lists callee ids for function `id`.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Adjacency list indexed by function id.
    pub calls: Vec<Vec<usize>>,
}

/// Identifiers that look like calls but are control flow.
const CALL_KEYWORDS: [&str; 10] =
    ["if", "while", "match", "return", "for", "loop", "let", "else", "move", "in"];

/// Method names whose call may block the current thread.
const BLOCKING_METHODS: [&str; 10] = [
    "recv",
    "recv_timeout",
    "send",
    "join",
    "wait",
    "wait_timeout",
    "write_all",
    "read_exact",
    "read_to_end",
    "accept",
];

impl CallGraph {
    /// Build the graph from every function body in the table.
    pub fn build(files: &[FileLex], symbols: &SymbolTable) -> CallGraph {
        let mut calls = vec![Vec::new(); symbols.fns.len()];
        for (id, f) in symbols.fns.iter().enumerate() {
            let Some((open, close)) = f.body else { continue };
            let file = &files[f.file];
            let t = &file.lexed.tokens;
            for k in open + 1..close {
                if file.mask.get(k).copied().unwrap_or(false) {
                    continue;
                }
                let Tok::Ident(name) = &t[k].tok else { continue };
                if !t.get(k + 1).is_some_and(|x| x.is_punct('(')) {
                    continue;
                }
                if CALL_KEYWORDS.contains(&name.as_str()) {
                    continue;
                }
                if k > 0 && t[k - 1].is_ident("fn") {
                    continue; // nested fn item, not a call
                }
                let candidates: Vec<usize> =
                    if k >= 2 && t[k - 1].is_punct(':') && t[k - 2].is_punct(':') {
                        // `Type::name(...)` — narrow by self type when the
                        // qualifier resolves; `Self::` uses the caller's.
                        let ty = match t.get(k.wrapping_sub(3)).map(|x| &x.tok) {
                            Some(Tok::Ident(q)) if q == "Self" => f.self_ty.clone(),
                            Some(Tok::Ident(q)) => Some(q.clone()),
                            _ => None,
                        };
                        match ty {
                            Some(ty) => symbols.fns_named_on(&f.krate, name, &ty),
                            None => symbols.fns_named(&f.krate, name).to_vec(),
                        }
                    } else {
                        symbols.fns_named(&f.krate, name).to_vec()
                    };
                calls[id].extend(candidates);
            }
            calls[id].sort_unstable();
            calls[id].dedup();
        }
        CallGraph { calls }
    }

    /// Functions reachable from `roots`, mapped to the label of the
    /// first root that reaches them. Each root traverses its whole
    /// crate.
    pub fn reachable(
        &self,
        files: &[FileLex],
        symbols: &SymbolTable,
        roots: &[Root],
    ) -> BTreeMap<usize, String> {
        let mut out: BTreeMap<usize, String> = BTreeMap::new();
        for root in roots {
            let Some(fi) = files.iter().position(|f| f.rel == root.file) else {
                continue; // root not in this scan (e.g. fixture tree)
            };
            let label = format!("`{}` ({})", root.func, root.file);
            let seeds: Vec<usize> = symbols
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| f.file == fi && f.name == root.func)
                .map(|(id, _)| id)
                .collect();
            let mut queue: VecDeque<usize> = seeds.into_iter().collect();
            while let Some(id) = queue.pop_front() {
                if out.contains_key(&id) {
                    continue;
                }
                out.insert(id, label.clone());
                for &callee in &self.calls[id] {
                    let in_crate = symbols.fns[callee].krate == symbols.fns[id].krate;
                    if in_crate && !out.contains_key(&callee) {
                        queue.push_back(callee);
                    }
                }
            }
        }
        out
    }

    /// Functions that may block: those whose body calls a blocking
    /// primitive directly, plus everything that (transitively) calls
    /// them.
    pub fn may_block(&self, files: &[FileLex], symbols: &SymbolTable) -> BTreeSet<usize> {
        let mut set: BTreeSet<usize> = BTreeSet::new();
        for (id, f) in symbols.fns.iter().enumerate() {
            let Some((open, close)) = f.body else { continue };
            let file = &files[f.file];
            let t = &file.lexed.tokens;
            for k in open + 1..close {
                if file.mask.get(k).copied().unwrap_or(false) {
                    continue;
                }
                if blocking_call_at(t, k).is_some() {
                    set.insert(id);
                    break;
                }
            }
        }
        // Propagate caller-ward to a fixpoint.
        let mut changed = true;
        while changed {
            changed = false;
            for (id, callees) in self.calls.iter().enumerate() {
                if !set.contains(&id) && callees.iter().any(|c| set.contains(c)) {
                    set.insert(id);
                    changed = true;
                }
            }
        }
        set
    }
}

/// If token `k` is a blocking call site, return the called name:
/// `.recv(`-style method calls on [`BLOCKING_METHODS`], or a bare /
/// path call to `sleep(`.
pub(crate) fn blocking_call_at(t: &[crate::lexer::Token], k: usize) -> Option<&str> {
    let Tok::Ident(name) = &t[k].tok else { return None };
    if !t.get(k + 1).is_some_and(|x| x.is_punct('(')) {
        return None;
    }
    if name == "sleep" {
        return Some(name);
    }
    if k > 0 && t[k - 1].is_punct('.') && BLOCKING_METHODS.contains(&name.as_str()) {
        return Some(name);
    }
    None
}

/// Identifiers that may legally precede `[` without the bracket being
/// a panicking index (patterns, array literals after these keywords).
const INDEX_PREV_KEYWORDS: [&str; 12] =
    ["let", "in", "return", "if", "while", "match", "mut", "ref", "else", "box", "break", "as"];

/// P1 — panic-path: `unwrap`/`expect`, panicking macros, slice
/// indexing, and division/modulo with a non-constant divisor inside
/// any function reachable from the configured roots.
pub fn lint_panic_path(
    files: &[FileLex],
    symbols: &SymbolTable,
    reach: &BTreeMap<usize, String>,
) -> BTreeMap<usize, Vec<RawFinding>> {
    let mut out: BTreeMap<usize, Vec<RawFinding>> = BTreeMap::new();
    for (&id, root) in reach {
        let f = &symbols.fns[id];
        let Some((open, close)) = f.body else { continue };
        let file = &files[f.file];
        let t = &file.lexed.tokens;
        let mut findings = Vec::new();
        for k in open + 1..close {
            if file.mask.get(k).copied().unwrap_or(false) {
                continue;
            }
            match &t[k].tok {
                Tok::Ident(name)
                    if (name == "unwrap" || name == "expect")
                        && k > 0
                        && t[k - 1].is_punct('.')
                        && t.get(k + 1).is_some_and(|x| x.is_punct('(')) =>
                {
                    findings.push(RawFinding {
                        lint: "panic-path",
                        line: t[k].line,
                        message: format!(
                            "`.{name}()` in `{}` can panic and is reachable from {root}; \
                             propagate a typed error instead",
                            f.name
                        ),
                    });
                }
                Tok::Ident(name)
                    if matches!(
                        name.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    ) && t.get(k + 1).is_some_and(|x| x.is_punct('!'))
                        && !(k > 0 && t[k - 1].is_punct('.')) =>
                {
                    findings.push(RawFinding {
                        lint: "panic-path",
                        line: t[k].line,
                        message: format!(
                            "`{name}!` in `{}` is reachable from {root}; restructure so the \
                             impossible arm does not exist, or return an error",
                            f.name
                        ),
                    });
                }
                Tok::Punct('[') if k > 0 => {
                    let indexes = match &t[k - 1].tok {
                        Tok::Ident(prev) => !INDEX_PREV_KEYWORDS.contains(&prev.as_str()),
                        Tok::Punct(')') | Tok::Punct(']') => true,
                        _ => false,
                    };
                    if indexes {
                        findings.push(RawFinding {
                            lint: "panic-path",
                            line: t[k].line,
                            message: format!(
                                "slice/array indexing in `{}` can panic and is reachable \
                                 from {root}; use `.get(..)` and handle the miss",
                                f.name
                            ),
                        });
                    }
                }
                Tok::Punct(c @ ('/' | '%')) => {
                    // Skip float division: float literal or `as f64`
                    // cast on the left means no panic on zero.
                    let prev_float = match t.get(k.wrapping_sub(1)).map(|x| &x.tok) {
                        Some(Tok::Num { float, .. }) => *float,
                        Some(Tok::Ident(p)) => p == "f64" || p == "f32",
                        _ => false,
                    };
                    if prev_float {
                        continue;
                    }
                    let d =
                        if t.get(k + 1).is_some_and(|x| x.is_punct('=')) { k + 2 } else { k + 1 };
                    let safe = match t.get(d).map(|x| &x.tok) {
                        Some(Tok::Num { float: true, .. }) => true,
                        Some(Tok::Num { float: false, .. }) => {
                            t[d].int_value().is_some_and(|v| v != 0)
                        }
                        // SCREAMING_CASE consts are compile-time nonzero
                        // by convention; lowercase idents are not.
                        Some(Tok::Ident(i)) => {
                            !i.is_empty() && i.chars().all(|c| !c.is_ascii_lowercase())
                        }
                        _ => false,
                    };
                    if !safe {
                        findings.push(RawFinding {
                            lint: "panic-path",
                            line: t[k].line,
                            message: format!(
                                "`{c}` with a non-constant divisor in `{}` can panic on zero \
                                 and is reachable from {root}; clamp or use checked arithmetic",
                                f.name
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
        if !findings.is_empty() {
            out.entry(f.file).or_default().extend(findings);
        }
    }
    for v in out.values_mut() {
        v.sort_by_key(|r| r.line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::lints::test_mask;

    fn file(rel: &str, src: &str) -> FileLex {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        FileLex { rel: rel.into(), lexed, mask }
    }

    fn reach_of(files: &[FileLex], roots: &[Root]) -> Vec<String> {
        let (symbols, _) = SymbolTable::build(files);
        let graph = CallGraph::build(files, &symbols);
        let reach = graph.reachable(files, &symbols, roots);
        let mut names: Vec<String> = reach.keys().map(|&id| symbols.fns[id].name.clone()).collect();
        names.sort();
        names
    }

    #[test]
    fn named_root_closes_over_the_crate() {
        let files = vec![
            file("crates/a/src/main.rs", "fn root() { helper(); }"),
            file("crates/a/src/util.rs", "fn helper() { deep(); }\nfn deep() {}\nfn unused() {}"),
            file("crates/b/src/lib.rs", "fn helper() {}"),
        ];
        let names =
            reach_of(&files, &[Root { file: "crates/a/src/main.rs".into(), func: "root".into() }]);
        assert!(names.contains(&"root".to_string()));
        assert!(names.contains(&"deep".to_string()));
        assert!(!names.contains(&"unused".to_string()));
    }

    #[test]
    fn may_block_propagates_to_callers() {
        let files = vec![file(
            "crates/a/src/lib.rs",
            "fn leaf(rx: &Receiver<u8>) { rx.recv().ok(); }\n\
             fn mid() { }\n\
             fn top(rx: &Receiver<u8>) { leaf(rx); mid(); }\n\
             fn pure() { mid(); }",
        )];
        let (symbols, _) = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &symbols);
        let blocked = graph.may_block(&files, &symbols);
        let names: Vec<&str> = blocked.iter().map(|&id| symbols.fns[id].name.as_str()).collect();
        assert_eq!(names, ["leaf", "top"]);
    }

    #[test]
    fn panic_path_flags_unwrap_index_and_division() {
        let files = vec![file(
            "crates/a/src/hot.rs",
            "fn root(v: Vec<u8>, n: usize) {\n\
                 let a = v.first().unwrap();\n\
                 let b = v[0];\n\
                 let c = n / 4;\n\
                 let d = n % n;\n\
                 let e = 1.0 / 3.0;\n\
                 let _ = (a, b, c, d, e);\n\
             }",
        )];
        let (symbols, _) = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &symbols);
        let reach = graph.reachable(
            &files,
            &symbols,
            &[Root { file: "crates/a/src/hot.rs".into(), func: "root".into() }],
        );
        let findings = lint_panic_path(&files, &symbols, &reach);
        let lines: Vec<u32> = findings[&0].iter().map(|r| r.line).collect();
        // unwrap (2), index (3), `% n` (5); `/ 4` and `1.0 / 3.0` safe.
        assert_eq!(lines, [2, 3, 5]);
    }

    #[test]
    fn unreachable_fns_are_not_linted() {
        let files =
            vec![file("crates/a/src/hot.rs", "fn root() {}\nfn cold(v: Vec<u8>) { v[0]; }")];
        let (symbols, _) = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &symbols);
        let reach = graph.reachable(
            &files,
            &symbols,
            &[Root { file: "crates/a/src/hot.rs".into(), func: "root".into() }],
        );
        assert!(lint_panic_path(&files, &symbols, &reach).is_empty());
    }
}
