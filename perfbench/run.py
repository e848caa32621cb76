#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (Rust, in this
directory) in release mode, then runs two processes one after the other:

* `perfbench check` — every bank's report digest after a fixed prefix of
  ticks against the full-rebuild oracle, audited;
* `perfbench measure` (`--trace 0`, end-to-end metrics) or `perfbench
  trace` (`--trace 1`, per-layer metrics plus the traced-replay fidelity
  check).

The measuring process runs only this workload, so its peak RSS is the
workload's. Informational lines (host and build fingerprint, per-bank
digests, tick counts) come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

Exit codes: 0 with a result; 1 if a measuring process failed or printed
malformed metrics; 2 if the benchmark could not be built or the arguments
are wrong. No result is printed unless the exit code is 0.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run must end within 180 s; leave room for the build check.
DEADLINE_S = 170.0


def fail(code, message):
    print(message, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the benchmark binary and return its path."""
    target = os.environ.get("CARGO_TARGET_DIR")
    target = (Path.cwd() / target).resolve() if target else HERE / "target"
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(HERE / "Cargo.toml"),
        "--target-dir",
        str(target),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(2, f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(2, "building the benchmark failed")
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        fail(2, f"benchmark binary not found at {binary}")
    return binary


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_hash():
    """SHA-256 over every source file the benchmark builds from."""
    h = hashlib.sha256()
    roots = [ROOT / "crates", ROOT / "vendor", HERE]
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "rust-toolchain.toml"]
    for base in roots:
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files.extend(Path(dirpath) / f for f in sorted(filenames))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source": source_hash(),
    }


def run_child(binary, args, deadline):
    """Run the benchmark binary; return (info lines, parsed last line) or
    (lines, None) if it failed, timed out or printed no JSON."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            [str(binary)] + args, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return [f"{args[0]} timed out"], None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return lines + [f"{args[0]} exited with code {done.returncode}"], None
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        return lines, None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if args.seed < 0 or args.seconds < 0:
        fail(2, "--seed and --seconds must be non-negative")

    binary = build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    check_lines, check = run_child(binary, ["check"] + common, deadline)
    mode = "trace" if args.trace else "measure"
    run_lines, result = run_child(
        binary, [mode] + common + ["--seconds", str(args.seconds)], deadline
    )
    for line in check_lines + run_lines:
        print(line)
    if result is None:
        fail(1, f"the {mode} process failed")

    metrics = result["metrics"]
    expected = expected_metrics(args.trace)
    if list(metrics) != expected:
        fail(1, f"{mode} printed metrics {list(metrics)}, BENCHMARK.json lists {expected}")
    bad = [k for k, m in metrics.items() if not isinstance(m["value"], (int, float))]
    if bad:
        fail(1, f"non-numeric metric values: {bad}")

    if check is None:
        # A crashed check still counts: one failed attempt.
        check = {"attempted": 1, "failed": 1}
    attempted = check["attempted"] + result["attempted"]
    failed = check["failed"] + result["failed"]
    print("host " + json.dumps(fingerprint()))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
