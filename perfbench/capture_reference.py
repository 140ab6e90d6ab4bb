#!/usr/bin/env python3
"""Write perfbench/reference.json from the fransonsim sources in ./src.

    python3 perfbench/capture_reference.py

The reference holds the SHA-256 of ``visibility --preset P`` standard output
and of the ``fringe --preset P --points 256`` CSV for every preset, and the
analytic columns the Monte Carlo commands print. These outputs contain no
random draws, so any change that keeps the physics keeps them byte-identical.
Capture them only from a commit whose output is known to be right.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))


def run(main, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return out.getvalue()


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from fransonsim.cli import main as cli

    import workloads as W

    ref = {"visibility_stdout_sha256": {}, "fringe_csv_sha256": {},
           "mc_v_analytic_pipeline": {}, "alpha_sweep_v_analytic": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for p in W.PRESETS:
            stdout = run(cli, ["visibility", "--preset", p])
            ref["visibility_stdout_sha256"][p] = hashlib.sha256(stdout.encode()).hexdigest()
            path = os.path.join(tmp, "fringe.csv")
            run(cli, ["fringe", "--preset", p, "--points", "256", "--out", path])
            with open(path, "rb") as fh:
                ref["fringe_csv_sha256"][p] = hashlib.sha256(fh.read()).hexdigest()
    for p in ("fig4a", "fig4c"):
        stdout = run(cli, ["montecarlo", "--preset", p, "--gates", "9600", "--batches", "2"])
        ref["mc_v_analytic_pipeline"][p] = W.report_rows(stdout)["V_analytic_pipeline"]
    stdout = run(cli, ["alpha-sweep", "--preset", "fig4c", "--alphas", "0.1,0.2"])
    rows = [line.split(",") for line in stdout.splitlines() if line.count(",") == 3][1:]
    ref["alpha_sweep_v_analytic"]["fig4c"] = {r[0]: r[1] for r in rows}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
