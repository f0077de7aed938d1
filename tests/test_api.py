"""The package's public names: the README's "Library API" table, and every
name that the benchmark in ``perfbench/`` reads from the package."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import skorodist

ROOT = Path(__file__).resolve().parents[1]

# The parameter names of every public callable, so that a new option shows up
# here as a test edit.  None marks an exception, which takes a message only.
SIGNATURES = {
    "CertificateError": None,
    "Coordinate": "k",
    "Discrete": "",
    "DistanceResult": "value certificate time_sup value_sup",
    "Euclidean": "",
    "MaxOf": "parts",
    "Pseudometric": "",
    "StepFunction": "times values",
    "TimeChange": "knots",
    "TraceParseError": None,
    "ValueSpaceMismatch": None,
    "bisect_distance": "x y d",
    "check_certificate": "x y d claimed cert",
    "coordinate_family": "dim",
    "euclidean_family": "",
    "family_from_config": "obj",
    "feasible": "x y eps d",
    "make_step": "times values",
    "oracle_distance": "x y d",
    "pushforward": "value_map x",
    "skorohod_distance": "x y d",
    "t1_transfer_check": "x coarse fine index eps sampler trials rng",
    "uniform_distance": "x y d",
    "uniform_modulus": "family K rho eps",
}


def readme_api_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)


def test_all_is_the_readme_api_table():
    names = readme_api_names()
    assert len(names) == len(set(names)) == 24
    assert set(skorodist.__all__) == set(names)
    for name in names:
        assert getattr(skorodist, name) is not None


def test_names_the_benchmark_reads_resolve():
    # perfbench/run.py imports skorodist.sampling next to the package, and
    # reads the rest as ``lib.<name>``; its tracer patches module attributes.
    lib = importlib.import_module("skorodist")
    importlib.import_module("skorodist.sampling")
    used = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= set(re.findall(r"\blib\.(\w+)", path.read_text(encoding="utf-8")))
    assert {"make_step", "skorohod_distance", "t1_transfer_check"} <= used
    for name in sorted(used):
        assert hasattr(lib, name), name
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _, _ in tracing._PATCHES:
        assert attr in vars(getattr(lib, module)), f"{module}.{attr}"


def test_public_signatures_are_pinned():
    assert set(SIGNATURES) == set(skorodist.__all__)
    for name, params in SIGNATURES.items():
        obj = getattr(skorodist, name)
        if params is None:
            assert issubclass(obj, Exception) and "__init__" not in vars(obj), name
        else:
            assert list(inspect.signature(obj).parameters) == params.split(), name
