//! reactor-readiness pass: blocking-leaf reachability from the future
//! reactor entrypoints.
//!
//! ROADMAP item 1 moves the data-path functions (`GiopConn` frame pump,
//! dispatch, deposit collection) onto non-blocking reactor shards. A shard
//! must never block, so every blocking leaf reachable from those functions
//! today is migration debt. This pass walks the crate-aware call graph
//! of [`crate::callgraph`], starting from the configured
//! `[reactor] entrypoints`, and reports every reachable call to a
//! configured blocking leaf (`Mutex::lock`, socket read/write/connect,
//! `thread::sleep`, `JoinHandle::join`, channel `recv`).
//!
//! Findings are emitted under the `reactor-blocking` rule — **advisory**
//! until item 1 lands and `--deny-reactor` flips the gate. The point this
//! PR is the measured starting debt, not a clean bill.

use crate::callgraph::{CallGraph, FnRef};
use crate::config::Config;
use crate::locks::OPAQUE_CALLEES;
use crate::parser::CallSite;
use crate::rules::{waiver_for, Violation, Waiver, WaiverKind};
use crate::FileAnalysis;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// One blocking leaf reachable from a reactor entrypoint (JSON `reactor`
/// section and the human report).
#[derive(Debug, Clone)]
pub struct ReactorFinding {
    pub file: String,
    pub line: u32,
    /// The blocking callee (`lock`, `recv_data`, `sleep`, …).
    pub leaf: String,
    /// The entrypoint whose BFS tree first reached the enclosing fn.
    pub entrypoint: String,
    /// One call chain from the entrypoint to the enclosing fn (names).
    pub chain: Vec<String>,
}

/// Does this call have the *shape* of its blocking namesake? Filters the
/// worst name collisions: `parts.join(sep)` is not `JoinHandle::join`,
/// a free `read()` helper is not `Read::read`.
fn blocking_shape(c: &CallSite) -> bool {
    // `(` is at tok_idx + 1, so an empty argument list closes at + 2.
    let no_args = c.args_close == c.tok_idx + 2;
    match c.callee.as_str() {
        "lock" | "join" => c.recv.is_some() && no_args,
        "read" | "write" | "recv" | "recv_timeout" | "wait" => c.recv.is_some(),
        _ => true,
    }
}

pub(crate) fn run(
    files: &[FileAnalysis],
    graph: &CallGraph<'_>,
    cfg: &Config,
    waivers: &[BTreeMap<u32, Waiver>],
    out: &mut Vec<Violation>,
) -> Vec<ReactorFinding> {
    let rc = &cfg.reactor;
    if rc.entrypoints.is_empty() {
        return Vec::new();
    }

    // BFS from every non-test function named like an entrypoint, along
    // the shared crate-aware resolver, recording one parent per discovered
    // function so a concrete example chain can be reconstructed for each
    // finding.
    let live = |&(fi, ii): &FnRef| !files[fi].in_test_tree && !files[fi].items[ii].is_test;
    let mut parent: HashMap<FnRef, FnRef> = HashMap::new();
    let mut root_ep: HashMap<FnRef, String> = HashMap::new();
    let mut queue: VecDeque<FnRef> = VecDeque::new();
    for ep in &rc.entrypoints {
        for &r in graph.named(ep).iter().filter(|r| live(r)) {
            if let Entry::Vacant(slot) = root_ep.entry(r) {
                slot.insert(ep.clone());
                queue.push_back(r);
            }
        }
    }

    let mut findings: Vec<ReactorFinding> = Vec::new();
    let mut seen_sites: HashSet<(usize, u32, String)> = HashSet::new();
    while let Some(r) = queue.pop_front() {
        let ep = root_ep[&r].clone();
        let (fi, ii) = r;
        let item = &files[fi].items[ii];
        for call in &item.calls {
            let callee = call.callee.as_str();
            if rc.blocking.iter().any(|b| b == callee) {
                // A blocking name is a leaf: report (if it has the right
                // shape) and never traverse into it.
                if !blocking_shape(call) || !seen_sites.insert((fi, call.line, callee.to_string()))
                {
                    continue;
                }
                let mut chain = vec![item.name.clone()];
                let mut cur = r;
                while let Some(&p) = parent.get(&cur) {
                    chain.push(files[p.0].items[p.1].name.clone());
                    cur = p;
                }
                chain.reverse();
                if waiver_for(&waivers[fi], call.line, &[WaiverKind::ReactorBlocking]).is_some() {
                    continue;
                }
                out.push(Violation {
                    file: files[fi].rel.clone(),
                    line: call.line,
                    rule: "reactor-blocking",
                    msg: format!(
                        "blocking leaf `{callee}` reachable from reactor entrypoint \
                         `{ep}` via {}; must go non-blocking (or move off-shard) \
                         before the ROADMAP item 1 reactor cutover",
                        chain.join(" -> ")
                    ),
                });
                findings.push(ReactorFinding {
                    file: files[fi].rel.clone(),
                    line: call.line,
                    leaf: callee.to_string(),
                    entrypoint: ep.clone(),
                    chain,
                });
                continue;
            }
            if OPAQUE_CALLEES.contains(&callee) {
                continue;
            }
            for g in graph.resolve(fi, callee).filter(live) {
                if let Entry::Vacant(slot) = root_ep.entry(g) {
                    slot.insert(ep.clone());
                    parent.insert(g, r);
                    queue.push_back(g);
                }
            }
        }
    }

    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    findings
}
