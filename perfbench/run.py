#!/usr/bin/env python3
"""Repository benchmark: one command per workload.

    python3 perfbench/run.py --workload mesh_amg --seed 1 --seconds 20 --trace 0

Builds the parmis library and the workload driver from the sources of the
checkout it runs in (Release, invariant checks off, no sanitizers) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload for
`--seconds`, checks its outputs, and prints:

- one JSON row per metric, with its unit, layer, sample count, min,
  quartiles, median, max, tail percentile, stall count and provenance;
- as the last line, {"correct", "attempted", "failed", "metrics"}: the
  end-to-end metrics with `--trace 0`, the per-layer metrics with
  `--trace 1`.

Exits non-zero on any failed check (after printing the result line), and
without a result line when the sources are missing, the build fails, or the
build is not comparable. Metric definitions are in METRICS.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("mesh_amg", "powerlaw_setup", "serve_customize")
DEADLINE_S = 170.0  # a run (after the build) must end within 180 s


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(bdir):
    """Configure once, then an incremental build of the driver."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"parmis sources not found next to {HERE.name}/; nothing to build")
    if not (bdir / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release",
               "-DPARMIS_CHECK_INVARIANTS=OFF", "-DPARMIS_SANITIZE="]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return bdir / "perfbench_driver"


def source_digest():
    """SHA-1 over the library and benchmark sources: identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha1()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", HERE.name):
        files += sorted(p for p in (ROOT / d).rglob("*")
                        if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def comparable(prov):
    """Refuse numbers from check-enabled, sanitized or non-Release builds."""
    if prov.get("check_invariants"):
        return "built with PARMIS_CHECK_INVARIANTS"
    if prov.get("sanitize"):
        return f"built with sanitizers ({prov['sanitize']})"
    if prov.get("build_type") != "Release":
        return f"build type {prov.get('build_type')} is not Release"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test inputs (not comparable)")
    args = ap.parse_args(argv)

    bdir = build_dir()
    driver = build(bdir)
    out = bdir / f"run_{args.workload}_{args.seed}_{args.trace}.json"
    out.unlink(missing_ok=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--size", args.size]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=DEADLINE_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DEADLINE_S:.0f} s")
    if rc != 0 or not out.is_file():
        fail(f"driver exited with code {rc}")
    run = json.loads(out.read_text())
    run["spans"] = metrics.span_rows(run["spans"])
    out.unlink()

    prov = dict(run["provenance"])
    prov["commit"] = git_commit()
    prov["source_sha1"] = source_digest()
    why = comparable(prov)
    if why:
        fail(f"refusing to report comparable numbers: {why}", code=3)

    catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = metrics.compute(run, catalogue)
    for name, (value, unit, series) in values.items():
        _unit, better, layer, kind, source = catalogue[name]
        row = {"row": "metric", "workload": args.workload, "metric": name, "unit": unit,
               "layer": layer, "better": better, "value": value, "kind": kind,
               "source": source}
        stats = metrics.summary(series) if len(series) > 1 else None
        if stats:
            row.update(stats)
        row["provenance"] = prov
        print(json.dumps(row))
    for msg in run["failures"]:
        print(json.dumps({"row": "failure", "workload": args.workload, "what": msg}))

    failed = int(run["failed"])
    result = {
        "correct": failed == 0,
        "attempted": int(run["attempted"]),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _s) in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
