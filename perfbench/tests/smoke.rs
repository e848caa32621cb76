//! Smoke tests: every workload at a tiny size through the benchmark
//! binary, metric names checked against `BENCHMARK.json`, and a planted
//! output mismatch counted as failed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{check, Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the binary's result line.
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
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input");
        v
    }
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {:?} at {}", c as char, self.i);
        self.i += 1;
    }
    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }
    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                if self.peek() == b'}' {
                    self.eat(b'}');
                    return Json::Obj(fields);
                }
                loop {
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b'}');
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() == b']' {
                    self.eat(b']');
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b']');
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()));
        self.i += w.len();
        v
    }
    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i] as char);
            self.i += 1;
        }
        self.i += 1;
        out
    }
}

fn benchmark_spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

/// Run the binary; return its parsed last line.
fn run(mode: &str, workload: &str, extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([mode, "--workload", workload, "--seed", "7", "--nodes", "48"])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{mode} {workload} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Parser::parse(stdout.trim().lines().last().expect("a result line"))
}

/// `(name, unit)` of each metric in a `BENCHMARK.json` list.
fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
    match spec.get(key) {
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect(),
        other => panic!("{key} is not a list: {other:?}"),
    }
}

/// `(name, unit)` of each metric a result line printed, with its value.
fn printed(result: &Json) -> (Vec<(String, String)>, BTreeMap<String, f64>) {
    let mut names = Vec::new();
    let mut values = BTreeMap::new();
    match result.get("metrics") {
        Json::Obj(fields) => {
            for (name, m) in fields {
                names.push((name.clone(), m.get("unit").str().to_string()));
                values.insert(name.clone(), m.get("value").num());
            }
        }
        other => panic!("metrics is not an object: {other:?}"),
    }
    (names, values)
}

#[test]
fn every_workload_prints_the_listed_metrics_and_passes_its_checks() {
    let spec = benchmark_spec();
    let workloads: Vec<String> = match spec.get("workloads") {
        Json::Arr(items) => items
            .iter()
            .map(|w| w.get("name").str().to_string())
            .collect(),
        other => panic!("workloads is not a list: {other:?}"),
    };
    assert_eq!(workloads, WORKLOADS);
    for w in WORKLOADS {
        let checked = run("check", w, &[]);
        assert_eq!(checked.get("failed").num(), 0.0, "{w}: output check failed");
        assert!(checked.get("attempted").num() >= 1.0);

        for (mode, key) in [("measure", "end_to_end"), ("trace", "per_layer")] {
            let result = run(mode, w, &["--seconds", "0.05"]);
            let (names, values) = printed(&result);
            assert_eq!(
                names,
                listed(&spec, key),
                "{w} {mode}: metric names or units"
            );
            assert_eq!(result.get("failed").num(), 0.0, "{w} {mode}: failed ticks");
            assert!(result.get("attempted").num() >= 1.0);
            for (name, v) in &values {
                assert!(v.is_finite(), "{w} {mode}: {name} = {v}");
            }
            if mode == "measure" {
                for (name, v) in &values {
                    assert!(*v > 0.0, "{w}: end-to-end metric {name} is {v}");
                }
            } else {
                assert!(values["trace.coverage"] > 0.9, "{w}: coverage {values:?}");
            }
        }
    }
}

#[test]
fn planted_mismatch_is_counted_as_failed() {
    let w = Workload::named("updates_e25", 7, Some(48)).unwrap();
    let clean = check::compare(&w.base, &check::oracle_of(&w.base), &w.variants, 3, true);
    assert_eq!(clean.failed, 0, "{:?}", clean.problems);

    // Plant a mismatch: the oracle simulates a different world.
    let mut planted = check::oracle_of(&w.base);
    planted.seed += 1;
    for audit in [true, false] {
        let bad = check::compare(&w.base, &planted, &w.variants, 3, audit);
        assert_eq!(bad.ticks, 3);
        assert_eq!(
            bad.failed, 3,
            "a digest mismatch must fail every checked tick"
        );
        assert_eq!(bad.problems.len(), w.variants.len());
    }
}
