//! `perfbench <measure|trace|check> --workload W --seed S [--seconds X]
//! [--nodes N]`
//!
//! * `measure` — the untraced run; end-to-end metrics.
//! * `trace` — the traced replay; per-layer metrics and the fidelity check.
//! * `check` — the output check against the full-rebuild oracle.
//!
//! Informational lines come first; the last line of standard output is one
//! JSON object with `attempted`, `failed` and, for measure and trace,
//! `metrics`. `--nodes` overrides the workload's size (for smoke tests).
//! `run.py` runs `check` and then `measure` or `trace`, each in its own
//! process, and merges their results.

use perfbench::alloc::CountingAlloc;
use perfbench::{check, measure, trace, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perfbench <measure|trace|check> --workload W --seed S [--seconds X] [--nodes N]";

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    nodes: Option<usize>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mode = argv.next().ok_or("missing mode")?;
    let (mut workload, mut seed, mut seconds, mut nodes) = (None, None, 10.0, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--nodes" => nodes = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds >= 0.0 && f64::is_finite(seconds)) {
        return Err("--seconds must be finite and non-negative".into());
    }
    if nodes == Some(0) {
        return Err("--nodes must be positive".into());
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        nodes,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = match Workload::named(&args.workload, args.seed, args.nodes) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match args.mode.as_str() {
        "measure" => {
            let m = measure::run(&w, args.seconds);
            for note in &m.notes {
                println!("{note}");
            }
            println!(
                "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                m.ticks,
                m.failed,
                m.metrics.to_json()
            );
        }
        "trace" => {
            let t = match trace::run(&w, args.seconds) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            };
            for note in &t.notes {
                println!("{note}");
            }
            println!(
                "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                t.ticks,
                t.failed,
                t.metrics.to_json()
            );
        }
        "check" => {
            let c = check::run(&w);
            for b in &c.banks {
                let audit = if b.audited {
                    format!("audited, {} violations", b.violations)
                } else {
                    "unaudited".to_string()
                };
                println!(
                    "digest {} {:#018x} (oracle {:#018x}, {} ticks, {audit})",
                    b.label, b.digest, b.oracle_digest, b.ticks
                );
            }
            for p in &c.problems {
                println!("FAILED: {p}");
            }
            println!("{{\"attempted\": {}, \"failed\": {}}}", c.ticks, c.failed);
        }
        other => {
            eprintln!("unknown mode {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
