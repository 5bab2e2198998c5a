//! zc-escape — inter-procedural escape analysis for zero-copy values.
//!
//! The per-file copy-path rule only sees the declared data-path modules. A
//! `ZcBytes` handed to a helper in an *unlisted* file can be `.to_vec()`'d
//! there without any rule firing — exactly the silent-copy regression the
//! paper's whole-path argument warns about. This pass closes that hole:
//!
//! 1. **Seeds**: every non-test function in a declared data-path module
//!    whose signature mentions a configured zero-copy type.
//! 2. **Taint**: within each function, the zero-copy-typed parameters plus
//!    locals bound from them (`let view = block…`, `for b in &deposits`)
//!    form the tainted set. Propagation is a single forward pass.
//! 3. **Edges**: a call `f → g` exists when the call's receiver or any
//!    argument identifier is tainted in `f` and some function named like
//!    the callee has a zero-copy-typed signature. Resolution is by bare
//!    name (no type inference), unioned over the same-named functions the
//!    shared resolver ([`crate::callgraph`]) lets `f`'s package reach — an
//!    over-approximation within those crate lines.
//! 4. **Report**: any banned idiom applied to a tainted value inside a
//!    function reachable from a seed but *outside* the declared modules is
//!    a violation, waivable exactly like rule 1 (`allow(copy)` citing a
//!    `CopyLayer`, `allow(cheap-clone)`, `allow(control-plane)`).
//!
//! Known false negatives (documented in docs/zero-copy-invariants.md):
//! values smuggled through struct fields or returned-then-copied, and
//! callee resolution across trait objects, are not tracked.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use crate::callgraph::{CallGraph, FnRef};
use crate::config::{path_matches_any, Config};
use crate::lexer::TokKind;
use crate::parser::FnItem;
use crate::rules::{find_idiom_sites, waiver_for, Violation, Waiver, COPY_KINDS};
use crate::FileAnalysis;

pub(crate) fn run(
    files: &[FileAnalysis],
    graph: &CallGraph<'_>,
    cfg: &Config,
    waivers: &[BTreeMap<u32, Waiver>],
    out: &mut Vec<Violation>,
) {
    let types = &cfg.escape.types;
    if types.is_empty() {
        return;
    }
    let is_type = |name: &str| types.iter().any(|t| t == name);
    let dp_paths: Vec<String> = cfg
        .modules
        .iter()
        .flat_map(|m| m.paths.iter().cloned())
        .collect();

    let zc_params = |f: &FnItem| -> HashSet<String> {
        f.params
            .iter()
            .filter(|p| {
                p.ty.iter().any(|t| is_type(t))
                    || (p.name == "self" && f.qual.as_deref().is_some_and(is_type))
            })
            .map(|p| p.name.clone())
            .collect()
    };
    let handles_zc =
        |f: &FnItem| -> bool { !zc_params(f).is_empty() || f.ret.iter().any(|t| is_type(t)) };

    // Memoized tainted-identifier sets.
    let mut tainted: HashMap<FnRef, HashSet<String>> = HashMap::new();
    let mut taint_of = |r: FnRef, files: &[FileAnalysis]| -> HashSet<String> {
        if let Some(t) = tainted.get(&r) {
            return t.clone();
        }
        let f = &files[r.0].items[r.1];
        let t = taint_locals(&files[r.0], f, zc_params(f));
        tainted.insert(r, t.clone());
        t
    };

    // Seeds: zero-copy-signature functions inside declared modules.
    let mut queue: VecDeque<FnRef> = VecDeque::new();
    let mut origin: HashMap<FnRef, (String, u32)> = HashMap::new(); // seed name, distance
    for (fi, file) in files.iter().enumerate() {
        if !path_matches_any(&file.rel, &dp_paths) {
            continue;
        }
        for (ii, item) in file.items.iter().enumerate() {
            if item.is_test || file.in_test_tree || !handles_zc(item) {
                continue;
            }
            origin.insert((fi, ii), (item.name.clone(), 0));
            queue.push_back((fi, ii));
        }
    }

    // BFS along tainted call edges.
    while let Some(r) = queue.pop_front() {
        let (seed, dist) = origin[&r].clone();
        let taint = taint_of(r, files);
        let f = &files[r.0].items[r.1];
        for call in &f.calls {
            let flows = call.recv.as_deref().is_some_and(|rv| taint.contains(rv))
                || call.args.iter().any(|a| taint.contains(a));
            if !flows {
                continue;
            }
            for g in graph.resolve(r.0, &call.callee) {
                if origin.contains_key(&g) {
                    continue;
                }
                if !handles_zc(&files[g.0].items[g.1]) {
                    continue;
                }
                origin.insert(g, (seed.clone(), dist + 1));
                queue.push_back(g);
            }
        }
    }

    // Flag banned idioms on tainted values in reached functions outside the
    // declared modules (inside them, the per-file copy-path rule already
    // runs with per-module idiom lists).
    for (&(fi, ii), (seed, dist)) in &origin {
        let file = &files[fi];
        if *dist == 0 || path_matches_any(&file.rel, &dp_paths) {
            continue;
        }
        let item = &file.items[ii];
        if item.is_test || file.in_test_tree {
            continue;
        }
        let taint = taint_of((fi, ii), files);
        let toks = &file.scanned.toks;
        for site in find_idiom_sites(toks, &cfg.escape.idioms) {
            if !item.contains(site.tok_idx) {
                continue;
            }
            // The innermost function owning the site must be this one, not
            // a nested fn (which is reported on its own if reached).
            if file
                .items
                .iter()
                .any(|o| o.contains(site.tok_idx) && item.contains(o.body.0))
            {
                continue;
            }
            let recv_tainted = site.tok_idx >= 2
                && toks[site.tok_idx - 1].text == "."
                && toks[site.tok_idx - 2].kind == TokKind::Ident
                && taint.contains(&toks[site.tok_idx - 2].text);
            let args_tainted = arg_idents(file, site.tok_idx)
                .iter()
                .any(|a| taint.contains(a));
            if !recv_tainted && !args_tainted {
                continue;
            }
            if waiver_for(&waivers[fi], site.line, COPY_KINDS).is_some() {
                continue;
            }
            out.push(Violation {
                file: file.rel.clone(),
                line: site.line,
                rule: "zc-escape",
                msg: format!(
                    "{} applied to a zero-copy value in `fn {}`, reachable from \
                     data-path `fn {}` ({} call{} away); move the copy behind the \
                     meter or waive it (allow(copy) citing a CopyLayer, \
                     cheap-clone, or control-plane)",
                    site.idiom.describe(),
                    item.name,
                    seed,
                    dist,
                    if *dist == 1 { "" } else { "s" },
                ),
            });
        }
    }
}

/// Identifier texts inside the call's argument parens, if the site is
/// followed by `(…)`.
fn arg_idents(file: &FileAnalysis, tok_idx: usize) -> Vec<String> {
    let toks = &file.scanned.toks;
    if toks.get(tok_idx + 1).map(|t| t.text.as_str()) != Some("(") {
        return Vec::new();
    }
    let mut depth = 0i32;
    let mut args = Vec::new();
    for t in &toks[tok_idx + 1..] {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {
                if t.kind == TokKind::Ident {
                    args.push(t.text.clone());
                }
            }
        }
    }
    args
}

/// Forward-propagate taint from `seed` parameters through simple local
/// bindings: `let x = …tainted…;` and `for x in …tainted… {`.
fn taint_locals(file: &FileAnalysis, f: &FnItem, seed: HashSet<String>) -> HashSet<String> {
    let toks = &file.scanned.toks;
    let mut taint = seed;
    let (open, close) = f.body;
    let mut i = open + 1;
    while i < close {
        let (binder_stop, rhs_stop) = match toks[i].text.as_str() {
            "let" => ("=", ";"),
            "for" => ("in", "{"),
            _ => {
                i += 1;
                continue;
            }
        };
        // Collect bound identifiers up to `=` / `in`.
        let mut j = i + 1;
        let mut binders = Vec::new();
        while j < close && toks[j].text != binder_stop && toks[j].text != ";" {
            if toks[j].kind == TokKind::Ident
                && !matches!(
                    toks[j].text.as_str(),
                    "mut" | "ref" | "_" | "Some" | "Ok" | "Err"
                )
            {
                binders.push(toks[j].text.clone());
            }
            j += 1;
        }
        if j >= close || toks[j].text != binder_stop {
            i = j;
            continue;
        }
        // Does the initializer mention a tainted identifier?
        let mut k = j + 1;
        let mut depth = 0i32;
        let mut rhs_tainted = false;
        while k < close {
            match toks[k].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                t if t == rhs_stop && depth == 0 => break,
                _ => {
                    if toks[k].kind == TokKind::Ident && taint.contains(&toks[k].text) {
                        rhs_tainted = true;
                    }
                }
            }
            k += 1;
        }
        if rhs_tainted {
            taint.extend(binders);
        }
        i = k + 1;
    }
    taint
}
