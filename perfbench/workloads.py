"""Workload definitions: the CLI ops of one pass, their seeded inputs, and the
correctness gates applied to each op's output.

A pass is the fixed list of ``fransonsim`` commands a workload runs. Inputs
that vary (generated experiment files, Monte Carlo seeds) are derived from
(workload seed, pass index, op index), so the same seed always gives the
same inputs and repeated passes inside one run do not repeat the same
random inputs.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

PRESETS = ("fig4a", "fig4b", "fig4c", "fig4d")
# the presets' 4.77 ns path imbalance spans this many 628.5 MHz gates
SIDE_PEAK_OFFSET = 3
PHASES = 32  # the CLI's default phase grid for Monte Carlo runs

# |V_mc - V(1-alpha)| may reach this many standard errors of the batch mean
V_GATE_SE = 4.0
# side peaks fail the flatness check below this chi-square p-value
FLATNESS_P = 0.01
# integral and sweep visibilities of one config must agree this closely
METHOD_AGREEMENT = 1e-6

# Sizes per workload. "full" is what the benchmark measures; "smoke" runs
# every op kind and every gate in a few seconds per workload.
SIZES = {
    "full": {
        "analytic": {"presets": PRESETS, "fringe_points": 256, "configs": 3},
        # the export op runs the same 10 batches as the others, so all ops of
        # a pass cost about the same and their median is not a low order
        # statistic of the two slower kinds
        "mc_sparse": {"presets": ("fig4a", "fig4c"), "gates": 10_000_000, "batches": 10,
                      "export_preset": "fig4a", "export_gates": 10_000_000, "export_batches": 10},
        # 5 batches per op rather than 20: the same 31k-gate, events-bound
        # streams, but ~7 timed ops per run instead of 2. Each op still
        # shows the alpha = 0.2 excess over V(1-alpha) at about 10 standard
        # errors; the run's pooled estimate at several tens.
        "mc_dense": {"preset": "fig4c", "alphas": (0.1, 0.2), "gates": 1_000_000, "batches": 5},
    },
    "smoke": {
        "analytic": {"presets": ("fig4a",), "fringe_points": 256, "configs": 1},
        "mc_sparse": {"presets": ("fig4a",), "gates": 3_200_000, "batches": 3,
                      "export_preset": "fig4a", "export_gates": 1_000_000, "export_batches": 2},
        "mc_dense": {"preset": "fig4c", "alphas": (0.1, 0.2), "gates": 128_000, "batches": 3},
    },
}

WORKLOADS = tuple(SIZES["full"])


@dataclass
class Op:
    """One CLI command plus what its checks need to know."""

    kind: str
    argv: list
    files: dict = field(default_factory=dict)  # role -> output path
    params: dict = field(default_factory=dict)

    def gates_simulated(self):
        return self.params.get("gates_simulated", 0)


def derived_seed(*key):
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _span_radps(nm, center_nm=1560.0):
    # linearized width conversion used by fransonsim: 2*pi*c*dlambda/lambda0^2
    return 2.0 * math.pi * 299792.458 * nm / center_nm**2


def generate_config(seed, pass_index, index):
    """Experiment file text around the presets: model, span, filter, |d(beta2 L)|."""
    rng = np.random.default_rng([seed, pass_index, index, 7])
    model = ("sinc2", "gaussian")[int(rng.integers(2))]
    fwhm = round(float(rng.uniform(1.2, 2.0)), 3)
    if model == "sinc2":
        span = _span_radps(float(rng.uniform(10.0, 20.0)))
    else:  # 5 to 8 standard deviations of the Gaussian
        sigma = _span_radps(fwhm) / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        span = float(rng.uniform(5.0, 8.0)) * sigma
    lines = [
        "[spectrum]",
        f"model = {model}",
        f"fwhm_nm = {fwhm}",
        "center_wavelength_nm = 1560",
        f"span_radps = {span:.6f}",
    ]
    filt = ("none", "flattop", "gaussian")[int(rng.integers(3))]
    if filt != "none":
        lines += [f"filter_fwhm_nm = {rng.uniform(0.3, 0.6):.3f}", f"filter_shape = {filt}"]
    # signal arm all-SMF with a varied surplus; idler arm either all-SMF or
    # the opposite-sign LEAF/SMF construction of fig4d, also varied
    surplus = rng.uniform(500.0, 1500.0, size=2)
    idler_long = (f"SMF:{1900.0 + surplus[1]:.1f}" if rng.integers(2)
                  else f"LEAF:{rng.uniform(2400.0, 3000.0):.1f}, SMF:180.0")
    lines += [
        "", "[signal_arm]", "delta_t_ns = 4.77", f"long = SMF:{1900.0 + surplus[0]:.1f}",
        "short = SMF:1900.0",
        "", "[idler_arm]", "delta_t_ns = 4.77", f"long = {idler_long}", "short = SMF:1900.0",
        "", "[noise]", f"alpha = {rng.uniform(0.001, 0.01):.5f}",
    ]
    return "\n".join(lines) + "\n"


def build_ops(workload, size, seed, pass_index, workdir):
    """The ops of one pass. Writes the pass's generated config files to workdir."""
    sz = SIZES[size][workload]
    base = os.path.join(workdir, f"p{pass_index}")
    ops = []
    if workload == "analytic":
        for p in sz["presets"]:
            ops.append(Op("preset_visibility", ["visibility", "--preset", p], params={"preset": p}))
            path = f"{base}_fringe_{p}.csv"
            ops.append(Op("fringe", ["fringe", "--preset", p, "--points", str(sz["fringe_points"]),
                                     "--out", path], files={"csv": path}, params={"preset": p}))
        for i in range(sz["configs"]):
            path = f"{base}_config{i}.ini"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(generate_config(seed, pass_index, i))
            ops.append(Op("config_visibility", ["visibility", "--config", path],
                          params={"config": path}))
    elif workload == "mc_sparse":
        for i, p in enumerate(sz["presets"]):
            path = f"{base}_per_phase_{p}.csv"
            ops.append(mc_op(p, sz["gates"], sz["batches"], derived_seed(seed, pass_index, i), path))
        gates, batches = sz["export_gates"], sz["export_batches"]
        ev, hist = f"{base}_events.csv", f"{base}_histogram.csv"
        ops.append(Op("mc_export", [
            "montecarlo", "--preset", sz["export_preset"], "--gates", str(gates),
            "--batches", str(batches), "--seed", str(derived_seed(seed, pass_index, 99)),
            "--events", ev, "--histogram", hist],
            files={"events": ev, "histogram": hist},
            params={"gates": gates, "gates_simulated": gates * (batches + 1)}))
    elif workload == "mc_dense":
        alphas = ",".join(str(a) for a in sz["alphas"])
        ops.append(Op("alpha_mc", [
            "alpha-sweep", "--preset", sz["preset"], "--montecarlo", "--alphas", alphas,
            "--gates", str(sz["gates"]), "--batches", str(sz["batches"]),
            "--seed", str(derived_seed(seed, pass_index, 0))],
            params={"preset": sz["preset"], "batches": sz["batches"],
                    "gates_simulated": sz["gates"] * sz["batches"] * len(sz["alphas"])}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def mc_op(preset, gates, batches, mc_seed, per_phase_path):
    return Op("mc", [
        "montecarlo", "--preset", preset, "--gates", str(gates), "--batches", str(batches),
        "--seed", str(mc_seed), "--out", per_phase_path],
        files={"per_phase": per_phase_path},
        params={"preset": preset, "gates": gates, "batches": batches,
                "gates_simulated": gates * batches})


def confirmation_op(op):
    """Same Monte Carlo command on an independent seed, for a statistical re-test."""
    seed = int(op.argv[op.argv.index("--seed") + 1])
    p = op.params
    return mc_op(p["preset"], p["gates"], p["batches"], derived_seed(seed, 1),
                 op.files["per_phase"] + ".confirm.csv")


def experiments(ops):
    """The experiments a pass expands: preset names and config paths."""
    out = []
    for op in ops:
        for flag in ("--preset", "--config"):
            if flag in op.argv:
                item = f"{flag[2:]}:{op.argv[op.argv.index(flag) + 1]}"
                if item not in out:
                    out.append(item)
    return out


def chi2_sf(x, dof):
    """Chi-square survival function for an integer number of degrees of freedom."""
    half = x / 2.0
    if dof % 2 == 0:
        term = total = math.exp(-half)
        for i in range(1, dof // 2):
            term *= half / i
            total += term
        return min(1.0, total)
    total = math.erfc(math.sqrt(half))
    term = math.sqrt(2.0 * x / math.pi) * math.exp(-half)
    for i in range(1, (dof - 1) // 2 + 1):
        total += term
        term *= x / (2 * i + 1)
    return min(1.0, total)


class Checks:
    """Gate outcomes of one op: hard failures, statistical failures, tallies."""

    def __init__(self, ran):
        self.failures = []
        self.stat_failures = []
        self.info = {}
        self.ran = ran  # gate name -> times evaluated, shared across ops

    def expect(self, gate, ok, message, statistical=False):
        self.ran[gate] = self.ran.get(gate, 0) + 1
        if not ok:
            (self.stat_failures if statistical else self.failures).append(f"{gate}: {message}")
        return ok


def report_rows(stdout):
    """``key value`` report rows printed by the CLI."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2:
            rows[parts[0]] = parts[1]
    return rows


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def check_op(op, res, ref, ran):
    """Apply the op's correctness gates to its result."""
    c = Checks(ran)
    if not c.expect("exit_ok", res.error is None and res.rc == 0,
                    f"rc={res.rc} error={res.error} stderr={res.stderr.strip()[:200]}"):
        return c
    try:
        CHECKERS[op.kind](op, res, ref, c)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        c.expect("output_parse", False, f"{type(exc).__name__}: {exc}")
    return c


def _check_preset_visibility(op, res, ref, c):
    p = op.params["preset"]
    c.expect("visibility_digest",
             _sha256(res.stdout.encode()) == ref["visibility_stdout_sha256"][p],
             f"{p} stdout differs from the reference")


def _check_fringe(op, res, ref, c):
    p = op.params["preset"]
    c.expect("fringe_digest", _sha256(_read(op.files["csv"])) == ref["fringe_csv_sha256"][p],
             f"{p} fringe CSV differs from the reference")


def _check_config_visibility(op, res, ref, c):
    rows = report_rows(res.stdout)
    vi = float(rows["intrinsic_visibility_integral"])
    vs = float(rows["intrinsic_visibility_sweep"])
    vo = float(rows["observed_visibility"])
    c.expect("integral_vs_sweep", abs(vi - vs) <= METHOD_AGREEMENT,
             f"integral {vi} vs sweep {vs}")
    c.expect("visibility_range", all(0.0 <= v <= 1.0 for v in (vi, vs, vo)),
             f"visibilities {vi}, {vs}, {vo} outside [0, 1]")


def _check_mc(op, res, ref, c):
    p = op.params
    rows = report_rows(res.stdout)
    c.expect("pipeline_reference",
             rows["V_analytic_pipeline"] == ref["mc_v_analytic_pipeline"][p["preset"]],
             f"V_analytic_pipeline {rows['V_analytic_pipeline']}")
    v, sigma = float(rows["V_montecarlo"]), float(rows["sigma_V"])
    se = sigma / math.sqrt(p["batches"])
    z = (v - float(rows["V_analytic_pipeline"])) / se if se > 0 else math.inf
    c.info["z"] = z
    c.expect("mc_vs_analytic", abs(z) <= V_GATE_SE,
             f"V_mc {v} is {z:+.2f} standard errors from V(1-alpha)", statistical=True)

    with open(op.files["per_phase"], encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        table = np.array([[int(x) for x in line.split(",")[1:]] for line in fh if line.strip()])
    offsets = [int(h[len("offset_"):]) for h in header[1:]]
    c.expect("histogram_nonnegative", table.shape[0] == PHASES and bool((table >= 0).all()),
             f"per-phase table shape {table.shape} or negative counts")
    side = (table[:, offsets.index(-SIDE_PEAK_OFFSET)]
            + table[:, offsets.index(SIDE_PEAK_OFFSET)]).astype(float)
    mean = side.mean()
    stat = float(((side - mean) ** 2).sum() / mean) if mean > 0 else math.inf
    pval = chi2_sf(stat, len(side) - 1)
    c.info["side_peak_p"] = pval
    c.expect("side_peak_flatness", pval > FLATNESS_P,
             f"+-{SIDE_PEAK_OFFSET} side peaks vary with phase (chi2 p={pval:.3g})",
             statistical=True)


def _check_mc_export(op, res, ref, c):
    with open(op.files["events"], encoding="utf-8") as fh:
        header = fh.readline().strip()
        pairs = [line.strip().split(",") for line in fh if line.strip()]
    gates = {"signal": [], "idler": []}
    for det, g in pairs:
        gates[det].append(int(g))
    sig, idl = (np.array(gates[d], dtype=np.int64) for d in ("signal", "idler"))
    n = op.params["gates"]
    c.expect("events_valid",
             header == "detector,gate_index" and len(sig) > 0 and len(idl) > 0
             and all(len(a) == 0 or (a.min() >= 0 and a.max() < n and (np.diff(a) > 0).all())
                     for a in (sig, idl)),
             "events CSV not sorted, unique and inside the gate range")
    with open(op.files["histogram"], encoding="utf-8") as fh:
        fh.readline()
        hist = [tuple(int(x) for x in line.split(",")) for line in fh if line.strip()]
    offsets = np.array([h[0] for h in hist])
    counts = np.array([h[1] for h in hist])
    c.expect("histogram_nonnegative", bool((counts >= 0).all()), "negative histogram counts")
    recount = np.array([np.isin(sig + d, idl, assume_unique=True).sum() for d in offsets])
    c.expect("histogram_recount", bool((recount == counts).all()),
             f"histogram {counts.tolist()} != recount from events {recount.tolist()}")


def _check_alpha_mc(op, res, ref, c):
    p = op.params
    expected = ref["alpha_sweep_v_analytic"][p["preset"]]
    rows = [line.split(",") for line in res.stdout.splitlines() if line.count(",") == 3]
    table = {r[0]: r[1:] for r in rows[1:]}
    c.expect("alpha_reference", rows[0] == ["alpha", "V_analytic", "V_montecarlo", "sigma_mc"]
             and {a: table[a][0] for a in expected} == expected,
             f"analytic column {table} differs from the reference {expected}")
    by_alpha = {}
    for a in expected:
        v_an, v_mc, sigma = (float(x) for x in table[a])
        c.expect("mc_finite", math.isfinite(v_mc) and sigma > 0, f"alpha {a}: V {v_mc} sigma {sigma}")
        # informational, not gated: the known Monte Carlo excess over V(1-alpha)
        by_alpha[a] = (v_an, v_mc, sigma / math.sqrt(p["batches"]))
    c.info["by_alpha"] = by_alpha


CHECKERS = {
    "preset_visibility": _check_preset_visibility,
    "fringe": _check_fringe,
    "config_visibility": _check_config_visibility,
    "mc": _check_mc,
    "mc_export": _check_mc_export,
    "alpha_mc": _check_alpha_mc,
}
