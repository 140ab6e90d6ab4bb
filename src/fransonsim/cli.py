"""Command-line front end: analytic visibility, fringes, sweeps, Monte Carlo,
and fiber-length design, with CSV output suitable for plotting elsewhere.

Exit codes: 0 success, 2 usage/parse errors, 3 physics or configuration
contract violations, 4 infeasible design problems, 5 statistics failures.
All numeric output uses 9 significant digits in scientific notation, and
identical inputs (config plus seed) produce byte-identical output at a fixed
BLAS thread count: the 16,385-point dot product in
interference.fringe_amplitude is split across BLAS threads, which can move
the last printed digit. The Monte Carlo output does not depend on the number
of cores it runs on. Warnings, such as a Monte Carlo visibility above 1,
go to stderr.
"""

import argparse
import functools
import sys
from dataclasses import fields, replace

import numpy as np

from . import montecarlo
from .designer import solve_lengths
from .errors import (
    ConfigParseError,
    ConfigurationError,
    FransonError,
    InfeasibleDesignError,
    StatisticsError,
)
from .expconfig import RunSettings, parse_experiment_file, parse_problem_file, resolve_run
from .interference import (
    COMPLEX_INTEGRAL,
    PHASE_SWEEP,
    fringe_rates,
    visibility,
)
from .noise import alpha_sweep, bell_significance, observed_visibility
from .presets import PRESET_NAMES, preset_experiment, preset_summary

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PHYSICS = 3
EXIT_INFEASIBLE = 4
EXIT_STATISTICS = 5

# each fringe point is one CSV line held until written; its rate comes from
# the closed form, which runs one rate quadrature per config, not per point
MAX_FRINGE_POINTS = 2**16

# the run settings a flag may set: RunSettings' int fields, in field order
_RUN_FLAGS = tuple(f.name for f in fields(RunSettings) if f.type is int)


def _sci(x: float) -> str:
    """Fixed scientific notation, 9 significant digits."""
    return f"{x:.8e}"


def _load_experiment(args):
    if args.preset and args.config:
        raise ConfigParseError("give either --preset or --config, not both")
    if args.preset:
        return preset_experiment(args.preset)
    if args.config:
        return parse_experiment_file(args.config)
    raise ConfigParseError("one of --preset or --config is required")


def _run_flags(args):
    """The run-setting flags, None where not given."""
    return {name: getattr(args, name) for name in _RUN_FLAGS}


def _warn_if_unphysical(est, label=""):
    """One stderr line when a fringe fit reads V > 1, which too few offset-0 counts produce."""
    if est.v > 1.0:
        zero = int(est.per_phase_histogram[:, est.offsets == 0].sum())
        bins = len(est.batch_visibilities) * len(est.phases)
        print(
            f"warning: {label}V_montecarlo {_sci(est.v)} exceeds 1: only {zero} offset-0 "
            f"coincidences in {bins} (batch, phase) bins ({zero / bins:.2g} per bin) are too "
            "few to fit a fringe; raise the gate count",
            file=sys.stderr,
        )


def _estimate(exp, run, noise, label=""):
    """The Monte Carlo fringe visibility of ``run``'s settings, warned about when V > 1."""
    est = montecarlo.estimate_visibility(
        exp.franson,
        noise,
        exp.detector,
        n_gates=run.gates,
        phases=run.phases,
        batches=run.batches,
        seed=run.seed,
    )
    _warn_if_unphysical(est, label)
    return est


def _check_fringe_points(points):
    if not 0 <= points <= MAX_FRINGE_POINTS:
        raise ConfigurationError(f"--points {points} is outside [0, {MAX_FRINGE_POINTS}]")


def _write_csv(path, header, rows):
    """Write a header line and rows, each ending in a newline, to ``path``; to stdout without one."""
    if not path:
        sys.stdout.write(header)
        sys.stdout.writelines(rows)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(rows)


def _report(key, value):
    """Print one report row: ``key`` padded to 32 columns, a space and ``value``."""
    print(f"{key:32s} {value}")


def _event_csv(stream):
    """Header and rows of an event CSV: a row per detection by gate, signal before idler on a tie."""
    gates = np.concatenate([stream.signal_gates, stream.idler_gates])
    order = np.argsort(gates, kind="stable")
    names = np.where(order < len(stream.signal_gates), "signal", "idler").tolist()
    return "detector,gate_index\n", (f"{d},{g}\n" for d, g in zip(names, gates[order].tolist()))


def _write_fringe_csv(path, cfg, points):
    """Coincidence rate at ``points`` phases over [0, 2pi) as CSV; to stdout without a path."""
    phis = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    rows = [f"{_sci(phi)},{_sci(rate)}\n" for phi, rate in zip(phis, fringe_rates(cfg, phis))]
    _write_csv(path, "phi_rad,coincidence_rate\n", rows)


def cmd_visibility(args) -> int:
    _check_fringe_points(args.points)
    exp = _load_experiment(args)
    cfg = exp.franson
    res_int = visibility(cfg, COMPLEX_INTEGRAL)
    # both methods print the sweep's visibility: two rate quadratures, at the
    # extrema that Z locates
    res_sweep = visibility(cfg, PHASE_SWEEP)
    # --method overrides the file's [run] method, which defaults to integral
    chosen = res_sweep if (args.method or exp.run.method) == PHASE_SWEEP else res_int
    v_obs = observed_visibility(chosen.visibility, exp.noise)
    bell = bell_significance(min(v_obs, 1.0), args.sigma_v)

    rows = [
        ("preset", args.preset or args.config),
        ("method", chosen.method),
        ("intrinsic_visibility_integral", _sci(res_int.visibility)),
        ("intrinsic_visibility_sweep", _sci(res_sweep.visibility)),
        ("c_max", _sci(chosen.c_max)),
        ("c_min", _sci(chosen.c_min)),
        ("phase_at_max_rad", _sci(chosen.phase_at_max_rad)),
        ("alpha", _sci(exp.noise.alpha)),
        ("observed_visibility", _sci(v_obs)),
        ("bell_s_value", _sci(bell.s_value)),
        ("bell_sigma_violation", _sci(bell.sigma_violation)),
        ("bell_sigma_v_input", _sci(args.sigma_v)),
    ]
    if exp.franson.spectrum.passband_fraction != 1.0:
        rows.append(("passband_fraction", _sci(cfg.spectrum.passband_fraction)))
    for key, val in rows:
        _report(key, val)
    if args.out:
        _write_fringe_csv(args.out, cfg, args.points)
        _report("fringe_csv", args.out)
    return EXIT_OK


def cmd_fringe(args) -> int:
    _check_fringe_points(args.points)
    exp = _load_experiment(args)
    _write_fringe_csv(args.out, exp.franson, args.points)
    return EXIT_OK


def cmd_alpha_sweep(args) -> int:
    exp = _load_experiment(args)
    try:
        alphas = sorted(float(a) for a in args.alphas.split(",") if a.strip())
    except ValueError:
        raise ConfigParseError(f"bad alpha list {args.alphas!r}")
    if not alphas:
        raise ConfigParseError("alpha list is empty")
    repeated = [a for a, b in zip(alphas, alphas[1:]) if a == b]
    if repeated:
        raise ConfigParseError(f"alpha {repeated[0]!r} is repeated in {args.alphas!r}")

    # gates 0 asks for the analytic columns alone, with nan Monte Carlo ones
    run = resolve_run(exp.run, _run_flags(args))
    if args.montecarlo and run.gates:
        run = resolve_run(exp.run, _run_flags(args), simulate=True)
    v0 = visibility(exp.franson, COMPLEX_INTEGRAL).visibility
    analytic = alpha_sweep(v0, alphas)

    mc_rows = {}
    if run.gates and args.montecarlo:
        for a in alphas:
            est = _estimate(exp, run, replace(exp.noise, alpha=a), f"alpha {_sci(a)}: ")
            mc_rows[a] = (est.v, est.sigma_v)

    rows = []
    for a, v in analytic:
        vm, sm = (_sci(x) for x in mc_rows[a]) if a in mc_rows else ("nan", "nan")
        rows.append(f"{_sci(a)},{_sci(v)},{vm},{sm}\n")
    _write_csv(args.out, "alpha,V_analytic,V_montecarlo,sigma_mc\n", rows)

    if len(alphas) >= 2:
        slope, intercept = np.polyfit(alphas, [v for _, v in analytic], 1)
        _report("fitted_slope_analytic", _sci(slope))
        _report("fitted_intercept_analytic", _sci(intercept))
        if len(mc_rows) >= 2:
            slope_mc, intercept_mc = np.polyfit(
                sorted(mc_rows), [mc_rows[a][0] for a in sorted(mc_rows)], 1
            )
            _report("fitted_slope_montecarlo", _sci(slope_mc))
            _report("fitted_intercept_montecarlo", _sci(intercept_mc))
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    if args.phase is not None and not (args.events or args.histogram):
        raise ConfigParseError("--phase sets only an --events or --histogram export's phase")
    exp = _load_experiment(args)
    run = resolve_run(exp.run, _run_flags(args), simulate=True)
    if args.phase is not None and not np.isfinite(args.phase):
        raise ConfigurationError(f"--phase {args.phase} must be finite")

    est = _estimate(exp, run, exp.noise)
    v0 = visibility(exp.franson, COMPLEX_INTEGRAL).visibility
    v_pipeline = observed_visibility(v0, exp.noise)

    _report("fringe_estimator", "sinusoidal-least-squares")
    _report("gates_per_phase", est.n_gates_per_phase)
    _report("batches", run.batches)
    _report("V_montecarlo", _sci(est.v))
    _report("sigma_V", _sci(est.sigma_v))
    _report("V_analytic_pipeline", _sci(v_pipeline))
    dev = est.v - v_pipeline
    if est.sigma_v:
        sigmas = dev / est.sigma_v
    else:  # no spread over the batches: any deviation lies infinitely many sigmas out
        sigmas = np.copysign(np.inf, dev) if dev else 0.0
    _report("deviation_sigmas", _sci(sigmas))

    if args.out:
        offsets = ",".join(f"offset_{o:+d}" for o in est.offsets)
        rows = (
            f"{_sci(phi)},{','.join(str(int(c)) for c in counts)}\n"
            for phi, counts in zip(est.phases, est.per_phase_histogram)
        )
        _write_csv(args.out, f"phi_rad,{offsets}\n", rows)
        _report("per_phase_csv", args.out)

    if args.events or args.histogram:
        stream = montecarlo.simulate_run(
            exp.franson,
            exp.noise,
            exp.detector,
            n_gates=run.gates,
            seed=run.seed,
            phi_tilde=args.phase,
        )
        if args.events:
            _write_csv(args.events, *_event_csv(stream))
            _report("events_csv", args.events)
        if args.histogram:
            k = montecarlo.coincidence_window(montecarlo.gate_offset(exp.franson, exp.detector))
            hist = montecarlo.count_coincidences(stream, window_offsets=k)
            rows = (f"{o},{c}\n" for o, c in zip(hist.offsets.tolist(), hist.counts.tolist()))
            _write_csv(args.histogram, "offset,counts\n", rows)
            _report("histogram_csv", args.histogram)
    return EXIT_OK


def cmd_design(args) -> int:
    problem = parse_problem_file(args.problem, args.catalog)
    sol = solve_lengths(problem)

    for name, length in zip(sol.fibers, sol.lengths_mm):
        _report("length_mm_" + name, _sci(length))
    _report("achieved_d_beta2_l_ps2", _sci(sol.achieved_d_beta2_l_ps2))
    _report("achieved_delay_ns", _sci(sol.achieved_delay_ns))
    _report("residual_d_beta2_l_ps2", _sci(sol.achieved_d_beta2_l_ps2 - problem.target_d_beta2_l_ps2))
    _report("residual_delay_ps", _sci((sol.achieved_delay_ns - problem.delta_t_ns) * 1e3))

    if args.emit_arm:
        segments = ", ".join(
            f"{name}:{length:.6f}" for name, length in zip(sol.fibers, sol.lengths_mm)
        )
        print()
        print(f"[{args.emit_arm}]")
        print(f"delta_t_ns = {problem.delta_t_ns}")
        print("phase_rad = 0.0")
        print(f"long = {segments}")
        print(f"short = {problem.short_fiber.name}:{problem.short_length_mm:.6f}")
    return EXIT_OK


def cmd_presets(args) -> int:
    # argparse accepts no action but "list"
    for name in PRESET_NAMES:
        print(f"{name:8s} {preset_summary(name)}")
    return EXIT_OK


def _add_experiment_args(p, with_run=False):
    p.add_argument("--preset", choices=PRESET_NAMES, help="bundled scenario")
    p.add_argument("--config", help="experiment file path")
    if with_run:
        for name in _RUN_FLAGS:
            p.add_argument(f"--{name}", type=int, default=None)


def _add_points_arg(p, help_text=None):
    """--points for a fringe CSV: 256 phases unless given, checked by _check_fringe_points."""
    p.add_argument("--points", type=int, default=256, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fransonsim",
        description="Franson interferometry with chromatic dispersion: "
        "visibility, fringes, Monte Carlo detection, fiber design.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("visibility", help="analytic visibility report")
    _add_experiment_args(p)
    p.add_argument(
        "--method",
        choices=(PHASE_SWEEP, COMPLEX_INTEGRAL),
        default=None,
        help="visibility method whose extrema are reported; overrides [run] method "
        f"(default {COMPLEX_INTEGRAL})",
    )
    p.add_argument("--sigma-v", type=float, default=0.002, help="visibility uncertainty for Bell significance")
    p.add_argument("--out", help="write per-phase fringe CSV here")
    _add_points_arg(p, help_text="fringe CSV phase points")
    p.set_defaults(func=cmd_visibility)

    p = sub.add_parser("fringe", help="coincidence rate vs phase as CSV")
    _add_experiment_args(p)
    _add_points_arg(p)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_fringe)

    p = sub.add_parser("alpha-sweep", help="observed visibility vs pair rate")
    _add_experiment_args(p, with_run=True)
    p.add_argument("--alphas", default="0.0024,0.01,0.02,0.04", help="comma-separated pair rates")
    p.add_argument("--montecarlo", action="store_true", help="also run the Monte Carlo estimator")
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_alpha_sweep)

    p = sub.add_parser("montecarlo", help="event-level visibility estimate")
    _add_experiment_args(p, with_run=True)
    p.add_argument("--out", help="per-phase coincidence histogram CSV")
    p.add_argument("--events", help="export one run's event stream CSV")
    p.add_argument("--histogram", help="export one run's offset histogram CSV")
    p.add_argument(
        "--phase", type=float, help="summed phase for --events/--histogram run (default: the arms')"
    )
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("design", help="solve fiber lengths for a dispersion target")
    p.add_argument("--problem", required=True, help="problem file path")
    p.add_argument("--catalog", help="extra fiber catalog file")
    p.add_argument("--emit-arm", metavar="SECTION", help="print an arm config fragment under this section name")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("presets", help="preset utilities")
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=cmd_presets)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call and reused: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleDesignError as exc:
        print(f"error: infeasible design: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except StatisticsError as exc:
        print(f"error: statistics: {exc}", file=sys.stderr)
        return EXIT_STATISTICS
    except FransonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
