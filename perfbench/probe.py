"""Set-up probe, run in a fresh interpreter: time ``import fransonsim`` plus the
expansion of a workload's experiments, up to the point where the first CLI
op could start.

    PYTHONPATH=src python3 perfbench/probe.py preset:fig4a config:path.ini ...

Prints one JSON object: {"setup_s": seconds, "module": fransonsim.__file__}.
"""

import time

_t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import fransonsim  # noqa: E402
import fransonsim.cli  # noqa: E402,F401  (the entry point every op goes through)


def main(items):
    for item in items:
        kind, _, value = item.partition(":")
        if kind == "preset":
            fransonsim.preset_experiment(value)
        elif kind == "config":
            fransonsim.parse_experiment_file(value)
        else:
            raise SystemExit(f"unknown experiment {item!r}")
    elapsed = time.perf_counter() - _t0
    print(json.dumps({"setup_s": elapsed, "module": fransonsim.__file__}))


if __name__ == "__main__":
    main(sys.argv[1:])
