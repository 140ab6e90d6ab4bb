#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size (about a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with ``--size smoke`` and
checks that: the run exits 0; the last output line is the result object with
exactly the keys correct, attempted, failed and metrics; the metrics are
exactly the ones BENCHMARK.json declares, each with its unit; every output
passed its gates and every gate of the workload was evaluated; the traced
run reproduces the baseline call counts. It also checks that the gates
reject corrupted output, and that the benchmark fails without printing a
result in a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

GATES = {
    "analytic": {"exit_ok", "visibility_digest", "fringe_digest", "integral_vs_sweep",
                 "visibility_range"},
    "mc_sparse": {"exit_ok", "pipeline_reference", "mc_vs_analytic", "histogram_nonnegative",
                  "side_peak_flatness", "events_valid", "histogram_recount"},
    "mc_dense": {"exit_ok", "alpha_reference", "mc_finite"},
}
SWEEP_PHASE_CALLS = 1652  # 826 coincidence rates, two arm phases each
INTEGRAL_PHASE_CALLS = 2

problems = []


def expect(ok, message):
    if not ok:
        problems.append(message)
    return ok


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def check_run(workload, trace, spec):
    proc = run(workload, trace)
    label = f"{workload} trace {trace}"
    if not expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-800:]}"):
        return
    lines = proc.stdout.strip().splitlines()
    print("\n".join(f"  {ln}" for ln in lines[:-1]))
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
    expect(result["correct"] is True and result["failed"] == 0, f"{label}: not correct")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == declared, f"{label}: metrics {got} != declared {declared}")
    expect(all(isinstance(v["value"], float) for v in result["metrics"].values()),
           f"{label}: non-float metric value")

    record_line = next(ln for ln in lines if ln.startswith("record: "))
    with open(os.path.join(ROOT, record_line[len("record: "):]), encoding="utf-8") as fh:
        record = json.load(fh)
    missing = GATES[workload] - set(record["gates_evaluated"])
    expect(not missing, f"{label}: gates never evaluated: {sorted(missing)}")
    prov = record["provenance"]
    expect(all(prov[k] is not None for k in ("nproc", "python", "numpy", "scipy", "src_sha256")),
           f"{label}: incomplete provenance {prov}")
    if trace:
        traced = record["traced_passes"][0]
        b = traced["baseline"]
        expect(not traced["missing_hooks"], f"{label}: missing hooks {traced['missing_hooks']}")
        if workload == "analytic":
            expect(set(b["phase_calls_per_sweep"]) == {SWEEP_PHASE_CALLS},
                   f"{label}: phase calls per sweep {b['phase_calls_per_sweep']}")
        expect(set(b["phase_calls_per_integral"]) == {INTEGRAL_PHASE_CALLS},
               f"{label}: phase calls per integral {b['phase_calls_per_integral']}")
        ops = traced["ops"]
        for op_id, calls in b["rate_calls_per_estimate"]:
            argv = ops[op_id]["argv"]
            batches = int(argv[argv.index("--batches") + 1])
            expect(calls == batches * W.PHASES,
                   f"{label}: {calls} rate calls in an estimate of {batches} batches")


def check_gates_reject():
    """Feed corrupted outputs to the gates; each must fail."""
    class Res:
        rc, error, stderr = 0, None, ""

        def __init__(self, stdout):
            self.stdout = stdout

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    op = W.Op("preset_visibility", ["visibility", "--preset", "fig4a"], params={"preset": "fig4a"})
    expect(W.check_op(op, Res("preset fig4a\n"), ref, {}).failures,
           "visibility digest accepted altered output")
    op = W.Op("config_visibility", ["visibility", "--config", "x.ini"])
    rows = ("intrinsic_visibility_integral 9.0e-01\nintrinsic_visibility_sweep 9.1e-01\n"
            "observed_visibility 9.0e-01\n")
    expect(W.check_op(op, Res(rows), ref, {}).failures, "integral/sweep gate accepted a 1e-2 gap")
    op = W.Op("alpha_mc", ["alpha-sweep"], params={"preset": "fig4c", "batches": 20})
    csv = ("alpha,V_analytic,V_montecarlo,sigma_mc\n1.00000000e-01,9.1e-01,9.5e-01,1e-02\n"
           "2.00000000e-01,8.00000000e-01,9.1e-01,1e-02\n")
    expect(W.check_op(op, Res(csv), ref, {}).failures, "alpha reference accepted a changed row")
    expect(abs(W.chi2_sf(52.19139483, 31) - 0.01) < 1e-6, "chi-square tail at 31 dof")


def check_bare_directory():
    bare = os.path.join(HERE, "out", f"selftest-bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run("analytic", 0, cwd=bare)
        expect(proc.returncode != 0, "bare directory: exit 0")
        expect('"metrics"' not in proc.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_gates_reject()
    check_bare_directory()
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            print(f"{workload} trace {trace}")
            check_run(workload, trace, spec)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
