"""In-memory span tracer that wraps fransonsim functions from outside the package.

A Tracer replaces selected module functions with timing wrappers for the
duration of a ``with`` block and restores them afterwards. Every call becomes
a span (name, start, end, parent span, op id, info); spans stay in memory
until the caller writes them out. A layer's self time is its span time minus
the time of its direct child spans, so work in untraced helpers (noise,
designer, numerics) lands in the self time of the traced caller.
"""

import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _phase_points(args, kwargs, result):
    omega = args[1] if len(args) > 1 else kwargs.get("omega")
    return {"points": int(getattr(omega, "size", 1))}


def _rate_phase(args, kwargs, result):
    phi = args[1] if len(args) > 1 else kwargs.get("phi_tilde")
    return {"phi": None if phi is None else float(phi)}


def _visibility_method(args, kwargs, result):
    return {"method": args[1] if len(args) > 1 else kwargs.get("method", "integral")}


def _stream_size(args, kwargs, result):
    return {"gates": int(args[3]), "events": int(len(result))}


def _coincidences(args, kwargs, result):
    return {"coincidences": int(result.counts.sum())}


# (module, function, span name, info extractor). The names are the layer
# boundaries the benchmark reports; a hook whose function no longer exists is
# reported as missing instead of failing the run.
HOOKS = (
    ("fransonsim.spectra", "make_spectrum", "spectra.build", None),
    ("fransonsim.spectra", "apply_bandpass", "spectra.build", None),
    ("fransonsim.spectra", "load_tabulated", "spectra.build", None),
    ("fransonsim.presets", "preset_experiment", "presets.expand", None),
    ("fransonsim.expconfig", "parse_experiment", "expconfig.parse", None),
    ("fransonsim.dispersion", "differential_phase", "dispersion.phase", _phase_points),
    ("fransonsim.interference", "coincidence_rate", "interference.rate", _rate_phase),
    ("fransonsim.interference", "fringe_amplitude", "interference.amplitude", None),
    ("fransonsim.interference", "visibility", "interference.visibility", _visibility_method),
    ("fransonsim.montecarlo", "estimate_visibility", "montecarlo.estimate", None),
    ("fransonsim.montecarlo", "_simulate_stream", "montecarlo.stream", _stream_size),
    ("fransonsim.montecarlo", "count_coincidences", "montecarlo.count", _coincidences),
    ("fransonsim.montecarlo", "_fit_fringe", "montecarlo.fit", None),
)


class Tracer:
    """Collects spans while installed; ``op_id`` tags spans with the current op."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, info]
        self.missing = []
        self.op_id = None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.op_id, None])
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = start, end
                if info is not None and result is not None:
                    try:
                        span[5] = info(args, kwargs, result)
                    except (TypeError, AttributeError, IndexError, ValueError):
                        # a changed signature or result type loses the
                        # counts of this span, not the op
                        span[5] = None

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id):
        """Root span around one CLI op; every span inside it carries ``op_id``."""
        idx = len(self.spans)
        self.op_id = op_id
        self.spans.append(["cli.main", perf_counter(), 0.0, None, op_id, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()
            self.op_id = None

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("fransonsim") and m]
        for mod_name, attr, name, info in HOOKS:
            owner = sys.modules.get(mod_name)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, info)
            # the same function object is re-exported under its name by other
            # modules (from-imports), so every alias is replaced
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "info": info}) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def enclosing(spans, idx, name):
    """Index of the nearest span named ``name`` that encloses span ``idx``, or None."""
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][3]
    return None


def layer_metrics(spans):
    """Per-layer self times and work counts of one traced pass."""
    own = self_times(spans)
    time, calls, totals = {}, {}, {}
    for span, t in zip(spans, own):
        name, info = span[0], span[5]
        time[name] = time.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        for key, value in (info or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[(name, key)] = totals.get((name, key), 0) + value
    # the sweep is the visibility span with method "sweep"; its self time
    # includes the golden-section refinement in numerics
    sweep_s = sum(t for s, t in zip(spans, own)
                  if s[0] == "interference.visibility" and s[5] and s[5]["method"] == "sweep")
    # distinct (op, phase) points at which the coincidence rate was asked for
    phases = {(s[4], s[5]["phi"]) for s in spans if s[0] == "interference.rate" and s[5]}
    gates = totals.get(("montecarlo.stream", "gates"), 0)
    events = totals.get(("montecarlo.stream", "events"), 0)
    rate_calls = calls.get("interference.rate", 0)
    return {
        "spectra.build_s": time.get("spectra.build", 0.0),
        "spectra.build_calls": calls.get("spectra.build", 0),
        "presets.expand_s": time.get("presets.expand", 0.0),
        "expconfig.parse_s": time.get("expconfig.parse", 0.0),
        "expconfig.parse_calls": calls.get("expconfig.parse", 0),
        "dispersion.phase_s": time.get("dispersion.phase", 0.0),
        "dispersion.phase_calls": calls.get("dispersion.phase", 0),
        "dispersion.phase_points": totals.get(("dispersion.phase", "points"), 0),
        "interference.rate_s": time.get("interference.rate", 0.0),
        "interference.rate_calls": rate_calls,
        "interference.amplitude_s": time.get("interference.amplitude", 0.0),
        "interference.sweep_s": sweep_s,
        "interference.rate_calls_per_phase": rate_calls / len(phases) if phases else 0.0,
        "montecarlo.estimate_s": time.get("montecarlo.estimate", 0.0),
        "montecarlo.stream_s": time.get("montecarlo.stream", 0.0),
        "montecarlo.streams": calls.get("montecarlo.stream", 0),
        "montecarlo.gates": gates,
        "montecarlo.events": events,
        "montecarlo.events_per_gate": events / gates if gates else 0.0,
        "montecarlo.count_s": time.get("montecarlo.count", 0.0),
        "montecarlo.coincidences": totals.get(("montecarlo.count", "coincidences"), 0),
        "montecarlo.fit_s": time.get("montecarlo.fit", 0.0),
        "montecarlo.fits": calls.get("montecarlo.fit", 0),
        "cli.self_s": time.get("cli.main", 0.0),
    }


def baseline_counts(spans):
    """Call counts and times the baseline measurements are stated in.

    Returns dispersion calls under each sweep and each integral visibility,
    coincidence-rate calls under each Monte Carlo estimate (keyed by op),
    the durations of sweeps and integrals, and how the estimate time splits
    over the Monte Carlo stages.
    """
    own = self_times(spans)
    under = {}
    stage = {}
    for i, s in enumerate(spans):
        if s[0] in ("dispersion.phase", "interference.rate"):
            outer = enclosing(spans, i, "interference.visibility" if s[0] == "dispersion.phase"
                              else "montecarlo.estimate")
            if outer is not None:
                under[outer] = under.get(outer, 0) + 1
        est = i if s[0] == "montecarlo.estimate" else enclosing(spans, i, "montecarlo.estimate")
        if est is not None:
            key = "interference.rate" if s[0] == "dispersion.phase" else s[0]
            stage[key] = stage.get(key, 0.0) + own[i]
    out = {"phase_calls_per_sweep": [], "phase_calls_per_integral": [],
           "sweep_s": [], "integral_s": [], "rate_calls_per_estimate": []}
    for i, s in enumerate(spans):
        if s[0] == "interference.visibility" and s[5]:
            method = s[5]["method"]
            out[f"phase_calls_per_{method}"].append(under.get(i, 0))
            out[f"{method}_s"].append(s[2] - s[1])
        elif s[0] == "montecarlo.estimate":
            out["rate_calls_per_estimate"].append((s[4], under.get(i, 0)))
    total = sum(stage.values())
    out["estimate_split"] = {k: v / total for k, v in sorted(stage.items())} if total else {}
    return out
