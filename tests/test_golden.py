"""Byte-identity of the CLI's analytic reports, fringe CSVs and seeded Monte Carlo runs.

The analytic and ``montecarlo fig4a`` stdout digests pin the output of the
code before the summed dispersion phase was cached per config; the default
``visibility`` report prints the sweep's visibility, which has kept its
digits since the sweep searched a 720-point grid with golden-section steps.
The ``visibility --method sweep`` digests also print the sweep's c_max,
c_min and phase, and were re-captured when the sweep came to take its
extrema where Z places them, phi* = -arg Z - offset and phi* + pi, with one
rate quadrature each: the phase is then the integral method's, and c_min
the direct quadrature at the minimum. The five Monte Carlo digests
(``montecarlo fig4a`` stdout, its ``--out/--events/--histogram`` files and
the ``alpha-sweep --montecarlo`` stdout) were re-captured when pair births
and dark counts came to be drawn as geometric gaps; the RNG draw order is
pinned in tests/test_montecarlo.py. A change that keeps the physics, the
arithmetic and the RNG draw order keeps every digest; a change that alters
a printed digit must say so and re-capture them. The commands run in one fresh interpreter with BLAS pinned
to one thread (see ``tests.helpers.run_python``).
"""

import json

import pytest

from tests.helpers import run_python

DRIVER = r"""
import contextlib, hashlib, io, json, os, sys, tempfile
from fransonsim.cli import main

def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        sys.exit(f"{argv} exited {rc}")
    return buf.getvalue().encode()

digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for p in ("fig4a", "fig4b", "fig4c", "fig4d"):
        digests["visibility " + p] = hashlib.sha256(stdout_of(["visibility", "--preset", p])).hexdigest()
        sweep = stdout_of(["visibility", "--preset", p, "--method", "sweep"])
        digests["visibility --method sweep " + p] = hashlib.sha256(sweep).hexdigest()
        path = os.path.join(tmp, p + ".csv")
        stdout_of(["fringe", "--preset", p, "--points", "256", "--out", path])
        with open(path, "rb") as fh:
            digests["fringe " + p] = hashlib.sha256(fh.read()).hexdigest()
    export = ["montecarlo", "--preset", "fig4a", "--gates", "2000000", "--batches", "2", "--seed", "5"]
    exports = {name: os.path.join(tmp, name + ".csv") for name in ("out", "events", "histogram")}
    for name, path in exports.items():
        export += ["--" + name, path]
    stdout_of(export)
    for name, path in exports.items():
        with open(path, "rb") as fh:
            digests["montecarlo fig4a --" + name] = hashlib.sha256(fh.read()).hexdigest()
mc = ["montecarlo", "--preset", "fig4a", "--gates", "320000", "--batches", "2", "--seed", "7"]
digests["montecarlo fig4a"] = hashlib.sha256(stdout_of(mc)).hexdigest()
sweep = ["alpha-sweep", "--preset", "fig4c", "--montecarlo", "--alphas", "0.1,0.2",
         "--gates", "200000", "--batches", "3", "--seed", "4"]
digests["alpha-sweep fig4c --montecarlo"] = hashlib.sha256(stdout_of(sweep)).hexdigest()
print(json.dumps(digests))
"""

DIGESTS = {
    "alpha-sweep fig4c --montecarlo": "410e7dce577c6f72733ecdf910bac51de1374bc70938a13752a7608d462f965b",
    "fringe fig4a": "3c795c0e7fad8ff02304bfe51d1ca9ad2238f61f129f528a44264b2cfbee6956",
    "fringe fig4b": "1f6f1cbc0c2a8424b742e42f4933a24c19b67be34317edaabba07b98b9f894e8",
    "fringe fig4c": "063a77259d660dbb400ccbb0d4b68ab2fdf8ea721b30b03c10fcc5075202b4f1",
    "fringe fig4d": "183bb1d4ec9bfc3022e73aaf830a547fc036136cc2257a943c669da70be120c5",
    "montecarlo fig4a": "5a509edaec356a2c10f5a712c984b359443dddfbe47332515de36dc90089da2a",
    "montecarlo fig4a --events": "f4d82ba48991ed34e8315273a71afa9607a1b43161979dfab235dc39d7efbcad",
    "montecarlo fig4a --histogram": "9e2832c80bc8d33a7d1aa7ee79484584a432ec829f7502a43c9d24d5a7ece49f",
    "montecarlo fig4a --out": "9d7973f04bb92d36dec97ba1be841fdc3d0bdbc5c84bbd8c679d94eb56b85eef",
    "visibility --method sweep fig4a": "0d6f083b9cd14105ba8f8f4f57be6e6c3372550c1ab77f4c6b233b91332d817d",
    "visibility --method sweep fig4b": "a873734da4c24fcb8363ac1b402b125ad5a3384768b6d092e65ba210621379f1",
    "visibility --method sweep fig4c": "69bb9c5d218f22497913f82666e258c7e33a0e501dc0d90d140a0759997f903f",
    "visibility --method sweep fig4d": "1642a23589c36b878fe7f965cf5c37374931ee707eefc602db51918b9996d604",
    "visibility fig4a": "4399e2471b2b30677bdf39357f211c81916d7e6a19ee04935c3c26fceec076da",
    "visibility fig4b": "568f325cd3c1c5e852c84738b99a79568b019b8c1d8331b8aa376e13b33357d9",
    "visibility fig4c": "63c5d8d36417dd2c19efd6bc0e061289015db22d8c0558666c1d09a22578bc45",
    "visibility fig4d": "7f8f63aee6e2fb74f82833c74a98bb76893210e1106867799f5c6fcaf9df92f5",
}


@pytest.fixture(scope="module")
def digests():
    return json.loads(run_python(DRIVER))


@pytest.mark.parametrize("output", sorted(DIGESTS))
def test_output_digest(digests, output):
    assert digests[output] == DIGESTS[output]

