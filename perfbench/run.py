#!/usr/bin/env python3
"""fransonsim benchmark: analytic, sparse Monte Carlo and dense Monte Carlo workloads.

Run from the repository root:

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of ``fransonsim`` CLI commands (a pass), run
in-process through ``fransonsim.cli.main`` in a closed loop: one pass after
another, a single client, until the next pass would overrun ``--seconds``
(at least one pass always runs). Set-up is timed separately in fresh
interpreters. Every op's output goes through the correctness gates in
workloads.py.

``--trace 0`` reports the end-to-end metrics. Their times are calibrated:
every op and set-up probe is scaled to a nominal host speed by a fixed kernel
timed around it (calibrate.py), and the raw times are printed beside them
as ``*_raw_s``. ``--trace 1`` runs each pass untraced and then traced with
identical inputs, and reports per-layer self times and counts from the spans,
plus the tracing overhead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full record
(provenance, per-op results, gate tallies, baseline counts) is written under
perfbench/out/. ``--size smoke`` shrinks every workload for the self-test.
"""

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
# BLAS/OpenMP threads, pinned before NumPy loads. One thread keeps the load
# a single busy core; fransonsim's only BLAS calls are dot products and a
# 3-column least-squares fit.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken set-up)."""


@dataclass
class OpResult:
    latency: float
    rc: int | None
    stdout: str
    stderr: str
    error: str | None
    bytes_written: int = 0
    kernel_s: float | None = None  # calibration kernel time around the op
    cal_latency: float | None = None  # latency at the nominal host speed


def run_op(cli_main, op, tracer=None, op_id=None):
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                rc = cli_main(op.argv)
            else:
                with tracer.op(op_id):
                    rc = cli_main(op.argv)
    except Exception as exc:  # a raising op is a failed op, not a failed benchmark
        error = exc
    latency = perf_counter() - start
    if error is not None:
        error = "".join(traceback.format_exception(error, limit=-3))
    res = OpResult(latency, rc, out.getvalue(), err.getvalue(), error)
    res.bytes_written = len(res.stdout.encode()) + sum(
        os.path.getsize(p) for p in op.files.values() if os.path.exists(p))
    return res


def run_pass(cli_main, ops, tracer=None, calibration=None):
    """Run the ops of one pass; returns (wall time, results).

    The wall time is the sum of the op latencies. With ``calibration`` (the
    calibrate module), its kernel runs before the first op and after every
    op; each result's ``kernel_s`` is the mean of the two kernel times around
    it, and ``cal_latency`` its latency scaled to the nominal kernel time.
    """
    kernel = calibration and calibration.kernel
    for op in ops:
        for path in op.files.values():
            if os.path.exists(path):
                os.remove(path)
    before = kernel() if kernel else None
    results = []
    for i, op in enumerate(ops):
        res = run_op(cli_main, op, tracer, i)
        if kernel:
            after = kernel()
            res.kernel_s, before = (before + after) / 2.0, after
            res.cal_latency = res.latency * calibration.NOMINAL_S / res.kernel_s
        results.append(res)
    return sum(r.latency for r in results), results


def verify(W, cli_main, ops, results, ref, ran):
    """Gate every op of a pass; returns one record per op."""
    records = []
    for op, res in zip(ops, results):
        c = W.check_op(op, res, ref, ran)
        failures, confirmation = list(c.failures), None
        if c.stat_failures:
            # A statistical gate fails at its stated level by chance; it counts
            # as failed only when an independent replicate fails it as well.
            rop = W.confirmation_op(op)
            rc = W.check_op(rop, run_pass(cli_main, [rop])[1][0], ref, {})
            confirmation = rc.failures + rc.stat_failures
            ran["confirmations"] = ran.get("confirmations", 0) + 1
            if confirmation:
                failures += c.stat_failures + [f"confirmation {m}" for m in confirmation]
        records.append({"argv": op.argv, "latency_s": res.latency, "kernel_s": res.kernel_s,
                        "cal_latency_s": res.cal_latency, "rc": res.rc,
                        "bytes_written": res.bytes_written, "failures": failures,
                        "statistical_retest": None if confirmation is None else c.stat_failures,
                        "info": c.info})
    return records


def tail_percentile(values):
    """Highest of p99.9/p99/p90/p75/p50 with at least 10 samples beyond it.

    Nearest-rank percentiles. With fewer than 20 samples no candidate has 10
    beyond it and the maximum is reported (percentile 100).
    """
    xs = sorted(values)
    n = len(xs)
    for q in (99.9, 99.0, 90.0, 75.0, 50.0):
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            return xs[rank - 1], q
    return xs[-1], 100.0


def run_probe(root, argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up probe timed out: {argv}") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {argv}: {proc.stderr.strip()[-500:]}")
    return proc


def setup_time(root, items):
    proc = run_probe(root, [os.path.join(HERE, "probe.py"), *items])
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    _require_checkout_module(root, data["module"])
    return data["setup_s"]


def calibrated_setup(root, items, calibration):
    """Set-up probes, each between two runs of the calibration kernel.

    Returns (raw seconds, mean kernel time around the probe) per probe.
    """
    before = calibration.kernel()
    probes = []
    for _ in range(SETUP_PROBES):
        seconds = setup_time(root, items)
        after = calibration.kernel()
        probes.append((seconds, (before + after) / 2.0))
        before = after
    return probes


def import_times(root):
    """``-X importtime`` of ``import fransonsim``: (fransonsim s, scipy s)."""
    proc = run_probe(root, ["-X", "importtime", "-c", "import fransonsim"])
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    fransonsim_us = scipy_us = 0
    open_scopes = []  # enclosing entries while walking parents-first
    for depth, cumulative, name in reversed(entries):
        while open_scopes and open_scopes[-1][0] >= depth:
            open_scopes.pop()
        top_scipy = name.split(".")[0] == "scipy" and not any(
            n.split(".")[0] == "scipy" for _, n in open_scopes)
        if top_scipy:
            scipy_us += cumulative
        if name == "fransonsim":
            fransonsim_us = cumulative
        open_scopes.append((depth, name))
    if not fransonsim_us:
        raise BenchError("no fransonsim entry in -X importtime output")
    return fransonsim_us * 1e-6, scipy_us * 1e-6


def _require_checkout_module(root, module_file):
    expected = os.path.join(os.path.realpath(root), "src", "fransonsim")
    if os.path.dirname(os.path.realpath(module_file)) != expected:
        raise BenchError(f"imported fransonsim from {module_file}, not from {expected}")


def _command(root, *argv):
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root, args, sizes, numpy_version):
    # a checkout exported without .git has no commit to name
    sha = _command(root, "git", "rev-parse", "HEAD") if os.path.exists(os.path.join(root, ".git")) else None
    status = _command(root, "git", "status", "--porcelain", "--untracked-files=no") if sha else None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy": metadata.version("scipy"),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "workload_sizes": sizes,
    }


def end_to_end(passes, setup, nominal_s):
    ops = [op for p in passes for op in p["ops"]]
    latencies = [op["latency_s"] for op in ops]
    calibrated = [op["cal_latency_s"] for op in ops]
    tail, q = tail_percentile(latencies)
    walls = [p["wall_s"] for p in passes]
    cal_walls = [sum(op["cal_latency_s"] for op in p["ops"]) for p in passes]
    gates = sum(p["gates_simulated"] for p in passes)
    failed = sum(1 for op in ops if op["failures"])
    return {
        "setup_s": statistics.median(s * nominal_s / k for s, k in setup),
        "wall_s": statistics.fmean(cal_walls),
        "op_p50_s": statistics.median(calibrated),
        "op_tail_s": tail_percentile(calibrated)[0],
        "setup_raw_s": statistics.median(s for s, _ in setup),
        "wall_raw_s": statistics.fmean(walls),
        "op_p50_raw_s": statistics.median(latencies),
        "op_tail_raw_s": tail,
        "op_tail_percentile": q,
        "op_samples": len(latencies),
        "cal.kernel_s": statistics.median(op["kernel_s"] for op in ops),
        "gates_per_s": gates / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / len(latencies),
    }


# units of the reported values that BENCHMARK.json does not gate
UNITS = {"setup_raw_s": "s", "wall_raw_s": "s", "op_p50_raw_s": "s", "op_tail_raw_s": "s",
         "op_tail_percentile": "pct", "op_samples": "count", "cal.kernel_s": "s",
         "gates_per_s": "1/s", "fail_frac": "ratio"}


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    return ap.parse_args(argv)


def main(argv=None):
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fransonsim", "__init__.py")):
        print(f"error: no fransonsim sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)

    import numpy as np
    import calibrate as C
    import spans as S
    import workloads as W

    args = parse_args(argv, W.WORKLOADS)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    sizes = W.SIZES[args.size][args.workload]
    run_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                        f"-{args.size}-{os.getpid()}")
    files_dir = os.path.join(run_dir, "files")
    os.makedirs(files_dir, exist_ok=True)

    try:
        # set-up, in fresh interpreters, on the experiments of the first pass
        items = W.experiments(W.build_ops(args.workload, args.size, args.seed, 0, files_dir))
        if args.trace:
            imports = [import_times(root) for _ in range(IMPORTTIME_PROBES)]
        else:
            setup = calibrated_setup(root, items, C)

        sys.path.insert(0, src)
        import fransonsim.cli
        _require_checkout_module(root, fransonsim.__file__)
        cli_main = fransonsim.cli.main
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ran = {}
    passes, traced, tracers, cycles = [], [], [], []
    deadline = perf_counter() + args.seconds
    k = 0
    while True:
        cycle_start = perf_counter()
        ops = W.build_ops(args.workload, args.size, args.seed, k, files_dir)
        wall, results = run_pass(cli_main, ops, calibration=None if args.trace else C)
        passes.append({"index": k, "wall_s": wall,
                       "gates_simulated": sum(op.gates_simulated() for op in ops),
                       "ops": verify(W, cli_main, ops, results, ref, ran)})
        if args.trace:
            ops = W.build_ops(args.workload, args.size, args.seed, k, files_dir)
            tracer = S.Tracer()
            with tracer:
                wall_t, results = run_pass(cli_main, ops, tracer)
            layers = S.layer_metrics(tracer.spans)
            layers["cli.bytes_written"] = sum(r.bytes_written for r in results)
            layers["trace.overhead_s"] = wall_t - wall
            traced.append({"index": k, "wall_s": wall_t, "layers": layers,
                           "baseline": S.baseline_counts(tracer.spans),
                           "missing_hooks": tracer.missing,
                           "ops": verify(W, cli_main, ops, results, ref, ran)})
            tracers.append(tracer)
        cycles.append(perf_counter() - cycle_start)
        k += 1
        if perf_counter() + statistics.median(cycles) > deadline:
            break

    all_ops = [op for p in passes + traced for op in p["ops"]]
    attempted = len(all_ops)
    failed = sum(1 for op in all_ops if op["failures"])
    if args.trace:
        names = traced[0]["layers"].keys()
        metrics = {n: statistics.median(t["layers"][n] for t in traced) for n in names}
        metrics["setup.import_s"] = statistics.median(i[0] for i in imports)
        metrics["setup.scipy_import_s"] = statistics.median(i[1] for i in imports)
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(passes, setup, C.NOMINAL_S)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # not gated: the Monte Carlo's excess over V(1-alpha), in standard errors
    # of one op's batch mean and of the mean over all ops of the run
    rows = {}
    for op in all_ops:
        for alpha, row in op["info"].get("by_alpha", {}).items():
            rows.setdefault(alpha, []).append(row)
    informational = {alpha: {
        "ops": len(r),
        "median_op_z": statistics.median((v - v_an) / se for v_an, v, se in r),
        "pooled_z": (statistics.fmean(v for _, v, _ in r) - r[0][0])
                    / (math.sqrt(sum(se * se for _, _, se in r)) / len(r)),
    } for alpha, r in rows.items()}

    record = {
        "provenance": provenance(root, args, sizes, np.__version__),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "informational": informational,
        "gates_evaluated": ran,
        "passes": passes,
        "traced_passes": traced,
    }
    record_path = os.path.join(run_dir, "record.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for i, tracer in enumerate(tracers):
        tracer.write(os.path.join(run_dir, f"spans-pass{i}.jsonl"))
    shutil.rmtree(files_dir, ignore_errors=True)

    prov = record["provenance"]
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{len(passes)} passes, {attempted} ops, {failed} failed")
    print(f"nproc {prov['nproc']}  cpu {prov['cpu_model']}  python {prov['python']}  "
          f"numpy {prov['numpy']}  scipy {prov['scipy']}  blas_threads {BLAS_THREADS}  "
          f"git {prov['git_sha']} dirty={prov['git_dirty']}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units.get(name) or UNITS.get(name, '')}")
    for op in all_ops:
        for msg in op["failures"]:
            print(f"  FAILED {' '.join(op['argv'][:3])}: {msg}")
    for alpha, z in informational.items():
        print(f"  informational: alpha {float(alpha):g}: (V_mc - V(1-alpha))/SE = "
              f"{z['median_op_z']:+.2f} per op (median), {z['pooled_z']:+.2f} over {z['ops']} ops")
    if args.trace:
        if traced[0]["missing_hooks"]:
            print(f"  WARNING: functions not found, their layers read 0: {traced[0]['missing_hooks']}")
        b = traced[0]["baseline"]
        print(f"  baseline: dispersion calls per sweep {sorted(set(b['phase_calls_per_sweep']))}, "
              f"per integral {sorted(set(b['phase_calls_per_integral']))}, "
              f"rate calls per MC estimate {sorted(set(c for _, c in b['rate_calls_per_estimate']))}")
    print(f"record: {os.path.relpath(record_path, root)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
