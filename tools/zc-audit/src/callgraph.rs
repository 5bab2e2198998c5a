//! The call resolver the inter-procedural passes share (zc-escape,
//! wire-taint, reactor-readiness).
//!
//! Calls are resolved by bare name — no type inference — but only within
//! crate lines a real call can cross: a call resolves to same-named
//! functions in the caller's own package and in the packages it depends
//! on, directly or transitively, as read from the `Cargo.toml`s in the
//! audited tree. A package outside the workspace that depends on it (a
//! benchmark, say) can therefore never bridge two workspace functions
//! through a same-named function of its own.
//!
//! A file's package is the one whose manifest sits in the nearest
//! ancestor directory (up to the audit root) with a `[package]` table.
//! `[dependencies]`, `[build-dependencies]` and
//! `[target.'…'.dependencies]` count; dev-dependencies do not, since test
//! code is never a call-graph target. A dependency renamed with
//! `package = "…"` resolves under its real name. A file with no package
//! above it — a bare fixture tree — resolves to every function, and every
//! caller can resolve to it.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use crate::FileAnalysis;

/// Global function handle: (file index, item index).
pub(crate) type FnRef = (usize, usize);

/// Name-keyed function index with crate-aware visibility.
pub(crate) struct CallGraph<'a> {
    by_name: HashMap<&'a str, Vec<FnRef>>,
    /// Package index per file.
    package: Vec<Option<usize>>,
    /// Per package: itself plus every package it depends on.
    visible: Vec<HashSet<usize>>,
}

impl<'a> CallGraph<'a> {
    pub(crate) fn new(root: &Path, files: &'a [FileAnalysis]) -> CallGraph<'a> {
        let mut by_name: HashMap<&str, Vec<FnRef>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, item) in file.items.iter().enumerate() {
                by_name
                    .entry(item.name.as_str())
                    .or_default()
                    .push((fi, ii));
            }
        }

        let mut manifests: Vec<Manifest> = Vec::new();
        let mut by_dir: HashMap<String, Option<usize>> = HashMap::new();
        let package = files
            .iter()
            .map(|f| package_of(root, &f.rel, &mut by_dir, &mut manifests))
            .collect();

        let index: HashMap<&str, usize> = manifests
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.as_str(), i))
            .collect();
        let direct: Vec<Vec<usize>> = manifests
            .iter()
            .map(|m| {
                m.deps
                    .iter()
                    .filter_map(|d| index.get(d.as_str()).copied())
                    .collect()
            })
            .collect();
        let visible = (0..manifests.len())
            .map(|p| {
                let mut seen = HashSet::from([p]);
                let mut stack = vec![p];
                while let Some(q) = stack.pop() {
                    for &d in &direct[q] {
                        if seen.insert(d) {
                            stack.push(d);
                        }
                    }
                }
                seen
            })
            .collect();

        CallGraph {
            by_name,
            package,
            visible,
        }
    }

    /// Every function a call to `callee` made from file `from` can reach.
    pub(crate) fn resolve<'g>(
        &'g self,
        from: usize,
        callee: &str,
    ) -> impl Iterator<Item = FnRef> + 'g {
        self.by_name
            .get(callee)
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .copied()
            .filter(move |&(to, _)| self.can_call(from, to))
    }

    /// Every function named `name`, in any package.
    pub(crate) fn named(&self, name: &str) -> &[FnRef] {
        self.by_name.get(name).map_or(&[][..], Vec::as_slice)
    }

    fn can_call(&self, from: usize, to: usize) -> bool {
        match (self.package[from], self.package[to]) {
            (Some(a), Some(b)) => self.visible[a].contains(&b),
            _ => true,
        }
    }
}

/// The parts of a `Cargo.toml` the resolver needs.
struct Manifest {
    name: String,
    deps: Vec<String>,
}

/// The package owning workspace-relative file `rel`: the nearest ancestor
/// directory, up to the root, whose `Cargo.toml` has a `[package]` name.
fn package_of(
    root: &Path,
    rel: &str,
    by_dir: &mut HashMap<String, Option<usize>>,
    manifests: &mut Vec<Manifest>,
) -> Option<usize> {
    let mut dir = rel.rsplit_once('/').map_or("", |(d, _)| d);
    loop {
        let found = match by_dir.get(dir) {
            Some(&p) => p,
            None => {
                let p = std::fs::read_to_string(root.join(dir).join("Cargo.toml"))
                    .ok()
                    .and_then(|src| parse_manifest(&src))
                    .map(|m| {
                        manifests.push(m);
                        manifests.len() - 1
                    });
                by_dir.insert(dir.to_string(), p);
                p
            }
        };
        if found.is_some() || dir.is_empty() {
            return found;
        }
        dir = dir.rsplit_once('/').map_or("", |(d, _)| d);
    }
}

/// Read the package name and dependency names out of a manifest; `None`
/// when it has no `[package]` name (a virtual workspace manifest).
fn parse_manifest(src: &str) -> Option<Manifest> {
    let mut section = String::new();
    let mut name = None;
    let mut deps = Vec::new();
    for raw in src.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_matches(['[', ']', ' ']).to_string();
            // `[dependencies.foo]`: one dependency as its own table.
            if let Some((table, dep)) = section.rsplit_once('.') {
                if is_dep_table(table) {
                    deps.push(unquote(dep).to_string());
                }
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        if section == "package" && key == "name" {
            name = Some(unquote(value).to_string());
        } else if let Some((table, dep)) = section.rsplit_once('.') {
            // Inside `[dependencies.foo]`, a `package` key renames `foo`.
            if is_dep_table(table) && key == "package" {
                if let Some(last) = deps.iter_mut().rfind(|d| d.as_str() == unquote(dep)) {
                    *last = unquote(value).to_string();
                }
            } else if is_dep_table(&section) {
                deps.push(dep_name(key, value));
            }
        } else if is_dep_table(&section) {
            deps.push(dep_name(key, value));
        }
    }
    name.map(|name| Manifest { name, deps })
}

/// The package a `key = value` dependency line names: the key (`foo`,
/// `foo.workspace`, `"foo"`), or the `package = "…"` an inline table
/// renames it from.
fn dep_name(key: &str, value: &str) -> String {
    let renamed = value.split_once("package").and_then(|(_, rest)| {
        let rest = rest.trim_start().strip_prefix('=')?;
        rest.split('"').nth(1)
    });
    let key = unquote(key.split('.').next().unwrap_or(key));
    renamed.unwrap_or(key).to_string()
}

fn is_dep_table(section: &str) -> bool {
    section == "dependencies"
        || section == "build-dependencies"
        || (section.starts_with("target.")
            && (section.ends_with(".dependencies") || section.ends_with(".build-dependencies")))
}

fn unquote(s: &str) -> &str {
    s.trim().trim_matches(['"', '\''])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_names_and_dependencies() {
        let m = parse_manifest(
            r#"
[workspace]
[workspace.dependencies]
not-a-dep = { path = "x" }

[package]
name = "orbbench" # the benchmark
version = "0.1.0"

[dependencies]
zc-orb = { path = "../crates/core" }
zc-buffers.workspace = true
alias = { package = "zc-cdr", path = "../crates/cdr" }

[dev-dependencies]
proptest = "1"

[target.'cfg(unix)'.dependencies]
libc-shim = "0.1"

[dependencies.zc-trace]
path = "../crates/trace"

[dependencies.short]
package = "zc-giop"
"#,
        )
        .expect("has a package");
        assert_eq!(m.name, "orbbench");
        assert_eq!(
            m.deps,
            [
                "zc-orb",
                "zc-buffers",
                "zc-cdr",
                "libc-shim",
                "zc-trace",
                "zc-giop"
            ]
        );
    }

    #[test]
    fn virtual_manifest_is_no_package() {
        assert!(parse_manifest("[workspace]\nmembers = [\"a\"]\n").is_none());
    }
}
