#!/usr/bin/env python3
"""Serving-stack benchmark: build, run one workload, report (README.md).

    python3 perfbench/run.py --workload ingest_saturate --seed 1 --seconds 8 --trace 0

Builds the library and the workload driver (perfbench/CMakeLists.txt, an
optimised build under .bench_build/perfbench), runs one workload and
prints a fingerprinted report. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0), or every
per-layer metric plus a per-layer time breakdown and the tracing
overhead (--trace 1).

Other modes:
    --selfcheck          every workload on tiny inputs; exit 1 on any failure
    --out DIR            also save the full report as DIR/<workload>-s<seed>-t<trace>.json
    --repair-threads N   PyramidParams::num_threads (reference figures)
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_saturate", "durable_mixed", "rpc_mixed")
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def scratch_env():
    """Environment for the build and the driver: temporary files stay
    inside the checkout's build tree."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no library sources under %s/src" % ROOT)
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=scratch_env())
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "anc_perfbench"],
                   check=True, stdout=sys.stderr, env=scratch_env())
    return os.path.join(build_dir, "anc_perfbench")


def run_driver(binary, workload, seed, seconds, trace, tiny=False,
               repair_threads=1):
    """Runs one driver invocation and returns its JSON report."""
    work_dir = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--repair-threads", str(repair_threads), "--work-dir", work_dir]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=scratch_env())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("perfbench: driver failed (exit %d) on %s"
                         % (proc.returncode, workload))
    return json.loads(lines[-1])


def git_state():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--", "src", "perfbench"],
                                capture_output=True, text=True, check=True)
        return sha.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None


def source_digest():
    """sha256 over the library and benchmark sources, documentation
    excluded (the checkout may not be a git repository, so this
    identifies the code measured)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".md"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(report):
    sha, dirty = git_state()
    build = report.get("build", {})
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "compiler": build.get("compiler"),
        "build_type": build.get("build_type"),
        "anc_metrics": build.get("metrics"),
        "sanitize": build.get("sanitize"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "repair_threads": report.get("repair_threads"),
    }


def select(report, names, section):
    values = report[section]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise SystemExit("perfbench: driver did not report %s" % missing)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in names}


def print_report(report, metrics, fp, trace):
    print("# perfbench %s seed=%d trace=%d" % (
        report["workload"], report["seed"], trace))
    print("# fingerprint %s" % json.dumps(fp, sort_keys=True))
    print("# attempted=%d failed=%d correct=%s" % (
        report["attempted"], report["failed"],
        str(report["correct"]).lower()))
    for failure in report["check_failures"]:
        print("# CHECK FAILED %s" % failure)
    print("# checks passed: %s" % " ".join(report["checks_passed"]))
    for name, m in sorted(metrics.items()):
        print("%-32s %16.6f %s" % (name, m["value"], m["unit"]))
    for name, value in sorted(report["info"].items()):
        print("# info %-30s %.6g" % (name, value))


def print_breakdown(traced, untraced, spec):
    """Per-layer self time of the traced window, its share of all traced
    time and of wall time, and the tracing overhead (traced minus
    untraced end-to-end figures, same seed)."""
    busy = [r for r in traced["breakdown"] if not r["wait"]]
    total = sum(r["self_ms"] for r in busy) or 1.0
    wall_ms = traced["window_s"] * 1e3
    print("# layer breakdown (%s, traced window %.2f s)" % (
        traced["workload"], traced["window_s"]))
    print("# %-10s %12s %8s %9s  %s" % ("layer", "self_ms", "share",
                                         "per_wall", "source"))
    by_layer = {}
    for r in busy:
        by_layer[r["layer"]] = by_layer.get(r["layer"], 0.0) + r["self_ms"]
        print("# %-10s %12.2f %8.3f %9.3f  %s" % (
            r["layer"], r["self_ms"], r["self_ms"] / total,
            r["self_ms"] / wall_ms, r["source"]))
    for layer, ms in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print("# layer %-10s self %10.2f ms  share %.3f  per wall %.3f" % (
            layer, ms, ms / total, ms / wall_ms))
    for r in traced["breakdown"]:
        if r["wait"]:
            print("# wait  %-10s %10.2f ms  per wall %.3f  %s" % (
                r["layer"], r["self_ms"], r["self_ms"] / wall_ms, r["source"]))
    print("# tracing overhead (traced - untraced, same seed)")
    for m in spec["end_to_end"]:
        a = untraced["e2e"].get(m["name"])
        b = traced["e2e"].get(m["name"])
        if a is None or b is None:
            continue
        rel = (b - a) / a if a else 0.0
        print("# overhead %-18s %14.6f -> %14.6f %s (%+.1f%%)" % (
            m["name"], a, b, m["unit"], 100.0 * rel))


def save(out_dir, report, fp):
    os.makedirs(out_dir, exist_ok=True)
    report = dict(report, fingerprint=fp)
    name = "%s-s%d-t%d.json" % (report["workload"], report["seed"],
                                1 if report["trace"] else 0)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(report, f, sort_keys=True)


def selfcheck(binary, spec):
    """Every workload on tiny inputs, untraced and traced: every check must
    pass, no operation may fail, every metric must be reported."""
    bad = []
    for workload in WORKLOADS:
        for trace in (False, True):
            report = run_driver(binary, workload, 1, 2, trace, tiny=True)
            section, names = (("layers", spec["per_layer"]) if trace
                              else ("e2e", spec["end_to_end"]))
            missing = [m["name"] for m in names
                       if m["name"] not in report[section]]
            ok = (report["correct"] and report["failed"] == 0
                  and not missing and (report["breakdown"] or not trace))
            print("%-16s trace=%d %s attempted=%d failed=%d checks=%d%s" % (
                workload, trace, "ok" if ok else "FAILED",
                report["attempted"], report["failed"],
                len(report["checks_passed"]),
                "" if not missing else " missing=%s" % missing))
            for failure in report["check_failures"]:
                print("    CHECK FAILED %s" % failure)
            if not ok:
                bad.append((workload, trace))
    if bad:
        print("SELF-CHECK FAILED: %s" % bad)
        return 1
    print("self-check passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repair-threads", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    if args.selfcheck:
        return selfcheck(binary, spec)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    report = run_driver(binary, args.workload, args.seed, seconds, False,
                        repair_threads=args.repair_threads)
    fp = fingerprint(report)
    if args.out:
        save(args.out, report, fp)
    if args.trace:
        # The per-layer metrics come from the untraced pass (histograms and
        # the driver's own timers need no trace sink); a second, traced
        # pass over the same seed yields the span breakdown and overhead.
        traced = run_driver(binary, args.workload, args.seed, seconds, True,
                            repair_threads=args.repair_threads)
        if args.out:
            save(args.out, traced, fp)
        metrics = select(report, spec["per_layer"], "layers")
        print_report(report, metrics, fp, 1)
        print("# per-layer metrics above come from the untraced pass")
        print_breakdown(traced, report, spec)
        correct = report["correct"] and traced["correct"]
        attempted = report["attempted"] + traced["attempted"]
        failed = report["failed"] + traced["failed"]
    else:
        metrics = select(report, spec["end_to_end"], "e2e")
        print_report(report, metrics, fp, 0)
        correct, attempted, failed = (report["correct"], report["attempted"],
                                      report["failed"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
