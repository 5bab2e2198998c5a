//! End-to-end tests of the `orbbench` binary: strict CLI, and a short run
//! of every workload whose result line carries exactly the metrics that
//! `BENCHMARK.json` names, each with its unit.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Output};

fn orbbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_orbbench"))
        .args(args)
        .output()
        .expect("spawn orbbench")
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    for args in [
        &["--workload", "bulk-zc", "--frobnicate"][..],
        &["--workload", "bulk-zc", "--trace", "yes"],
        &[],
    ] {
        let out = orbbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: orbbench"));
        assert!(out.stdout.is_empty(), "no result on a usage error");
    }
    let help = orbbench(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage: orbbench"));
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text);
    doc.get(list)
        .as_array()
        .iter()
        .map(|m| {
            (
                m.get("name").as_str().to_string(),
                m.get("unit").as_str().to_string(),
            )
        })
        .collect()
}

/// Run one workload briefly and check its result line against `list`.
fn short_run(workload: &str, trace: &str, list: &str) -> Json {
    let out = orbbench(&[
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Json::parse(stdout.lines().last().expect("a result line"));
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert_eq!(result.get("failed").as_f64(), 0.0);
    assert!(result.get("attempted").as_f64() >= 1.0);
    let metrics = result.get("metrics").as_object();
    let want = declared(list);
    let got: BTreeMap<String, String> = metrics
        .iter()
        .map(|(k, v)| (k.clone(), v.get("unit").as_str().to_string()))
        .collect();
    assert_eq!(got, want, "{workload} --trace {trace}: metrics and units");
    for (name, v) in metrics {
        let value = v.get("value").as_f64();
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        // Every metric is also printed as a human-readable line.
        assert!(
            stdout.lines().any(|l| l.starts_with(name.as_str())),
            "{workload}: no line for {name}"
        );
    }
    result
}

fn value(result: &Json, name: &str) -> f64 {
    result.get("metrics").get(name).get("value").as_f64()
}

fn check_workload(workload: &str) -> (Json, Json) {
    let e2e = short_run(workload, "0", "end_to_end");
    let layers = short_run(workload, "1", "per_layer");
    assert_eq!(value(&layers, "error_rate"), 0.0);
    (e2e, layers)
}

#[test]
fn bulk_zc_short_run() {
    let (e2e, layers) = check_workload("bulk-zc");
    // Socket send + socket recv, both directions; control bytes only add.
    let copies = value(&e2e, "copy_bytes_per_byte");
    assert!((2.0..2.01).contains(&copies), "{copies}");
    assert_eq!(value(&layers, "copy.marshal_per_byte"), 0.0);
    assert_eq!(value(&layers, "copy.demarshal_per_byte"), 0.0);
}

#[test]
fn bulk_std_short_run() {
    let (e2e, _) = check_workload("bulk-std");
    // Marshal + socket send + socket recv + demarshal.
    let copies = value(&e2e, "copy_bytes_per_byte");
    assert!((4.0..4.01).contains(&copies), "{copies}");
}

#[test]
fn rpc_shared_short_run() {
    let (_, layers) = check_workload("rpc-shared");
    assert!(value(&layers, "core.min_caller_share") > 0.0);
}

/// Just enough JSON to read the result line and `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input in {text:?}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        self.as_object()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key:?}"))
    }

    fn as_object(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(o) => o,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn as_array(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn as_f64(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut o = Vec::new();
                if self.peek() == b'}' {
                    self.eat(b'}');
                    return Json::Obj(o);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    o.push((k, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b'}');
                        return Json::Obj(o);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut a = Vec::new();
                if self.peek() == b']' {
                    self.eat(b']');
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b']');
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n\t\r".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match &self.s[start..self.i] {
                    b"true" => Json::Bool(true),
                    b"false" => Json::Bool(false),
                    b"null" => Json::Null,
                    num => Json::Num(
                        std::str::from_utf8(num)
                            .ok()
                            .and_then(|t| t.parse().ok())
                            .unwrap_or_else(|| panic!("bad JSON token at {start}")),
                    ),
                }
            }
        }
    }

    /// A string without escapes (none of this benchmark's strings need any).
    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not supported");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }
}
