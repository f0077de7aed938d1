import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import skorodist
from skorodist import cli
from skorodist.cli import main
from skorodist.pseudometric import Euclidean, Scaled

IND_05 = {"times": [0, 0.5], "values": [[0], [1]]}
IND_06 = {"times": [0, 0.6], "values": [[0], [1]]}


@pytest.fixture
def traces(tmp_path):
    paths = {}
    for name, obj in (("x", IND_05), ("y", IND_06)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths


# the output of the README's distance example, which shows it indented by 2
README_DISTANCE = """\
{
  "certificate": {
    "knots": [
      [
        0.0,
        0.0
      ],
      [
        0.6,
        0.5
      ],
      [
        1.0,
        1.0
      ]
    ]
  },
  "distance": 0.09999999999999998,
  "time_sup": 0.09999999999999998,
  "value_sup": 0.0
}
"""


def test_distance_output(traces, tmp_path):
    out = tmp_path / "res.json"
    assert main(["distance", traces["x"], traces["y"], "--out", str(out)]) == 0
    assert out.read_bytes() == README_DISTANCE.encode()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert json.dumps(IND_05) in readme and json.dumps(IND_06) in readme
    assert textwrap.indent(README_DISTANCE, "  ") in readme


def test_distance_identical_files(traces, capsys):
    assert main(["distance", traces["x"], traces["x"]]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["distance"] == 0.0


def test_distance_parse_error(tmp_path, traces):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["distance", traces["x"], str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["distance", traces["x"], str(missing)]) == 2


def test_distance_space_mismatch(tmp_path, traces):
    z = tmp_path / "z.json"
    z.write_text(json.dumps({"times": [0], "values": [[0, 1]]}))
    assert main(["distance", traces["x"], str(z)]) == 3


def test_certificate_check_space_mismatch(tmp_path, traces):
    res = tmp_path / "res.json"
    assert main(["distance", traces["x"], traces["y"], "--out", str(res)]) == 0
    z = tmp_path / "z.json"
    z.write_text(json.dumps({"times": [0], "values": [[0, 1]]}))
    assert main(["certificate-check", traces["x"], str(z), str(res)]) == 3


def test_certificate_check_unreadable_certificate(tmp_path, traces, capsys):
    missing = tmp_path / "missing.json"
    assert main(["certificate-check", traces["x"], traces["y"], str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_distance_with_family_and_index(tmp_path):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(json.dumps({"times": [0], "values": [[0, 0]]}))
    y.write_text(json.dumps({"times": [0], "values": [[0.2, 0.7]]}))
    fam = tmp_path / "family.json"
    fam.write_text(
        json.dumps(
            {
                "space": {"dim": 2},
                "generators": [
                    {"kind": "coordinate", "k": 1},
                    {"kind": "coordinate", "k": 2},
                ],
            }
        )
    )
    out = tmp_path / "res.json"
    assert main(["distance", str(x), str(y), "--family", str(fam), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["distance"] == 0.7
    assert (
        main(
            ["distance", str(x), str(y), "--family", str(fam), "--metric", "1",
             "--out", str(out)]
        )
        == 0
    )
    assert json.loads(out.read_text())["distance"] == 0.2


@pytest.mark.parametrize("index", ["1,x", "3", "0", ""])
def test_distance_rejects_a_bad_family_index(index, tmp_path, traces, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"generators": [{"kind": "euclidean"}, {"kind": "discrete"}]}))
    argv = ["distance", traces["x"], traces["y"], "--family", str(fam), "--metric", index]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: bad index {index!r}: ")


# The message names the path as given: Path("") would be "."
def test_distance_rejects_an_empty_family_path(traces, capsys):
    assert main(["distance", traces["x"], traces["y"], "--family", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "parse error: bad family config: [Errno 2] No such file or directory: ''\n"
    )


def test_distance_rejects_an_empty_trace_path(traces, capsys):
    assert main(["distance", "", traces["y"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: [Errno 2] No such file or directory: ''\n"


# A file of bytes that are not UTF-8 is a parse error, whichever input it is.
@pytest.mark.parametrize("which", ["x", "y", "certificate"])
def test_an_input_file_that_is_not_utf8_is_a_parse_error(which, traces, tmp_path, capsys):
    res = tmp_path / "res.json"
    assert main(["distance", traces["x"], traces["y"], "--out", str(res)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    files = {"x": traces["x"], "y": traces["y"], "certificate": str(res), which: str(bad)}
    argv = ["certificate-check", files["x"], files["y"], files["certificate"]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: {str(bad)!r} is not UTF-8: ")
    assert captured.err.count("\n") == 1
    if which != "certificate":
        assert main(["distance", files["x"], files["y"]]) == 2


# A passing suite too: the failed write decides the exit code.
@pytest.mark.parametrize("command", ["distance", "suite"])
def test_an_unwritable_out_path_exits_2(command, traces, tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    argv = {
        "distance": ["distance", traces["x"], traces["y"]],
        "suite": ["suite", "axioms", "--trials", "2"],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"cannot write output: [Errno 2] No such file or directory: {str(out)!r}\n"
    )


def test_distance_named_metrics_without_family(traces, capsys):
    assert main(["distance", traces["x"], traces["y"], "--metric", "discrete"]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 0.6 - 0.5
    assert main(["distance", traces["x"], traces["y"], "--metric", "foo"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "parse error: --metric 'foo' needs --family (or use euclidean/discrete)\n"
    )


def test_distance_labels_default_discrete(tmp_path, capsys):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(json.dumps({"times": [0], "values": ["idle"]}))
    y.write_text(json.dumps({"times": [0, 0.5], "values": ["idle", "busy"]}))
    assert main(["distance", str(x), str(y)]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 1.0


def test_explicit_euclidean_on_labels_is_a_space_mismatch(tmp_path, capsys):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    res = tmp_path / "res.json"
    x.write_text(json.dumps({"times": [0], "values": ["idle"]}))
    y.write_text(json.dumps({"times": [0, 0.5], "values": ["idle", "busy"]}))
    assert main(["distance", str(x), str(y), "--out", str(res)]) == 0
    capsys.readouterr()
    for argv in (
        ["distance", str(x), str(y), "--metric", "euclidean"],
        ["certificate-check", str(x), str(y), str(res), "--metric", "euclidean"],
    ):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "value-space mismatch: vector pseudometric applied to a label value\n"


def test_certificate_round_trip(traces, tmp_path):
    res = tmp_path / "res.json"
    assert main(["distance", traces["x"], traces["y"], "--out", str(res)]) == 0
    assert main(["certificate-check", traces["x"], traces["y"], str(res)]) == 0


def test_certificate_round_trip_on_unnormalized_traces(tmp_path):
    # x's last jump changes no value, and reading x merges it away
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    res = tmp_path / "res.json"
    x.write_text(json.dumps({
        "times": [0, 0.23295774902070854, 0.945734342008963, 0.9457343420089905],
        "values": [[1e5], [0], [1e5], [1e5]],
    }))
    y.write_text(json.dumps({
        "times": [0, 0.5119210591086867, 0.9999999999999999],
        "values": [[1e4], [0], [3e4]],
    }))
    assert main(["distance", str(x), str(y), "--out", str(res)]) == 0
    assert json.loads(res.read_text())["distance"] == 90000.0
    assert main(["certificate-check", str(x), str(y), str(res)]) == 0


def test_certificate_rejects_deflated_claim(traces, tmp_path):
    res = tmp_path / "res.json"
    main(["distance", traces["x"], traces["y"], "--out", str(res)])
    obj = json.loads(res.read_text())
    obj["distance"] -= 1e-8  # ten times the audit tolerance
    res.write_text(json.dumps(obj))
    assert main(["certificate-check", traces["x"], traces["y"], str(res)]) == 1


def test_certificate_rejects_bad_knots(traces, tmp_path):
    res = tmp_path / "res.json"
    main(["distance", traces["x"], traces["y"], "--out", str(res)])
    obj = json.loads(res.read_text())
    obj["certificate"]["knots"] = [[0, 0], [0.6, 0.5], [0.4, 0.7], [1, 1]]
    res.write_text(json.dumps(obj))
    assert main(["certificate-check", traces["x"], traces["y"], str(res)]) == 4


def test_certificate_that_collapses_jump_times_is_invalid(tmp_path, capsys):
    # The knot (5e-324, 0.9) maps 0.1 and 0.2 back to the same float, so the
    # composed x would need two jumps at one time.
    trace = tmp_path / "x.json"
    trace.write_text(json.dumps({"times": [0.0, 0.1, 0.2], "values": [[0.0], [1.0], [0.0]]}))
    res = tmp_path / "res.json"
    res.write_text(
        json.dumps({"distance": 0.9, "certificate": {"knots": [[0, 0], [5e-324, 0.9], [1, 1]]}})
    )
    assert main(["certificate-check", str(trace), str(trace), str(res)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invalid certificate: ") and err.count("\n") == 1


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_certificate_rejects_non_finite_distance(token, tmp_path, capsys):
    trace = tmp_path / "x.json"
    trace.write_text(json.dumps({"times": [0.0], "values": [[0.0]]}))
    res = tmp_path / "res.json"
    res.write_text('{"distance": %s, "certificate": {"knots": [[0,0],[1,1]]}}' % token)
    assert main(["certificate-check", str(trace), str(trace), str(res)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid certificate: non-finite token '{token}' in input\n"


@pytest.mark.parametrize(
    "text",
    [
        "{nope",
        "[]",
        '{"certificate": {"knots": [[0,0],[1,1]]}}',
        '{"distance": 0.5}',
        '{"distance": "0.5", "certificate": {"knots": [[0,0],[1,1]]}}',
        '{"distance": true, "certificate": {"knots": [[0,0],[1,1]]}}',
        '{"distance": 0.5, "certificate": {}}',
        '{"distance": 0.5, "certificate": {"knots": "x"}}',
        '{"distance": 0.5, "certificate": {"knots": [[0,0],[0.5],[1,1]]}}',
        '{"distance": 0.5, "certificate": {"knots": [[0,0],5,[1,1]]}}',
        '{"distance": 0.5, "certificate": {"knots": [[0,0],[0.5,"a"],[1,1]]}}',
    ],
    ids=["invalid-json", "not-an-object", "no-distance", "no-certificate",
         "string-distance", "bool-distance", "no-knots", "string-knots",
         "short-knot", "number-knot", "string-knot-entry"],
)
def test_certificate_rejects_malformed_result_document(text, tmp_path, capsys):
    trace = tmp_path / "x.json"
    trace.write_text(json.dumps({"times": [0.0], "values": [[0.0]]}))
    res = tmp_path / "res.json"
    res.write_text(text)
    assert main(["certificate-check", str(trace), str(trace), str(res)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid certificate: ")
    assert captured.err.count("\n") == 1


BIG_INT = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "distance, knots",
    [
        ("1e400", "[[0,0],[1,1]]"),
        ("-1e400", "[[0,0],[1,1]]"),
        (BIG_INT, "[[0,0],[1,1]]"),
        ("0.5", f"[[0,0],[{BIG_INT},0.5],[1,1]]"),
    ],
    ids=["1e400", "-1e400", "big-int-distance", "big-int-knot"],
)
def test_certificate_rejects_numbers_out_of_float_range(distance, knots, tmp_path, capsys):
    trace = tmp_path / "x.json"
    trace.write_text(json.dumps({"times": [0.0], "values": [[0.0]]}))
    res = tmp_path / "res.json"
    res.write_text('{"distance": %s, "certificate": {"knots": %s}}' % (distance, knots))
    assert main(["certificate-check", str(trace), str(trace), str(res)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid certificate: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "trace",
    [
        '{"times": [0], "values": [[%s]]}' % BIG_INT,
        '{"times": [0], "values": [%s]}' % BIG_INT,
        '{"times": [0, %s], "values": [[0], [1]]}' % BIG_INT,
        '{"times": [0], "values": [[1e400]]}',
    ],
    ids=["big-int-coordinate", "big-int-scalar", "big-int-time", "1e400-coordinate"],
)
def test_trace_rejects_numbers_out_of_float_range(trace, tmp_path, capsys):
    x = tmp_path / "x.json"
    x.write_text(trace)
    assert main(["distance", str(x), str(x)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "generator",
    [
        {"kind": "scaled"},
        {"kind": "coordinate"},
        {"kind": "max_of", "parts": 5},
        {"kind": "scaled", "factor": [1], "inner": {"kind": "euclidean"}},
        {"kind": "pulled_back", "map": {"kind": "project"}, "inner": {"kind": "euclidean"}},
        # not pseudometrics: factor -1 puts x and y, which differ, at distance 0
        *(
            {"kind": "scaled", "factor": f, "inner": {"kind": "euclidean"}}
            for f in (-1, -1e-300, math.nan, math.inf)
        ),
        # numbers of the wrong JSON type are not coerced
        *({"kind": "coordinate", "k": k} for k in (1.7, 1.0, True, "2")),
        *(
            {"kind": "scaled", "factor": f, "inner": {"kind": "euclidean"}}
            for f in ("2", True)
        ),
        *(
            {"kind": "pulled_back", "map": m, "inner": {"kind": "euclidean"}}
            for m in (
                {"kind": "project", "coords": [1.5]},
                {"kind": "project", "coords": [True]},
                {"kind": "project", "coords": "1"},
                {"kind": "clamp", "lo": "0", "hi": 1},
                {"kind": "clamp", "lo": 0, "hi": True},
                {"kind": "affine", "matrix": [["1"]], "offset": [0]},
                {"kind": "affine", "matrix": [[1]], "offset": [False]},
                {"kind": "affine", "matrix": ["1"], "offset": [0]},
            )
        ),
    ],
    ids=["scaled-no-factor", "coordinate-no-k", "max-of-int-parts", "scaled-list-factor",
         "project-no-coords", "scaled-negative", "scaled-tiny-negative", "scaled-nan",
         "scaled-inf", "coordinate-float-k", "coordinate-integral-float-k",
         "coordinate-bool-k", "coordinate-string-k", "scaled-string-factor",
         "scaled-bool-factor", "project-float-coord", "project-bool-coord",
         "project-string-coords", "clamp-string-bound", "clamp-bool-bound",
         "affine-string-entry", "affine-bool-offset", "affine-string-row"],
)
def test_distance_rejects_malformed_family_config(generator, traces, tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"generators": [generator]}))
    assert main(["distance", traces["x"], traces["y"], "--family", str(fam)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: bad family config: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "config",
    [
        '{"space": {"dim": Infinity}, "generators": [{"kind": "euclidean"}]}',
        '{"generators": [{"kind": "pulled_back", "inner": {"kind": "euclidean"},'
        ' "map": {"kind": "clamp", "lo": -Infinity, "hi": Infinity}}]}',
        '{"generators": [{"kind": "pulled_back", "inner": {"kind": "euclidean"},'
        ' "map": {"kind": "clamp", "lo": -1e400, "hi": 1e400}}]}',
        '{"generators": [{"kind": "pulled_back", "inner": {"kind": "euclidean"},'
        ' "map": {"kind": "affine", "matrix": [[NaN]], "offset": [0]}}]}',
        '{"generators": [{"kind": "pulled_back", "inner": {"kind": "euclidean"},'
        ' "map": {"kind": "affine", "matrix": [[1]], "offset": [-Infinity]}}]}',
    ],
    ids=["infinity-in-space", "clamp-infinity", "clamp-1e400", "affine-nan",
         "affine-minus-infinity"],
)
def test_family_config_rejects_non_finite_numbers_before_solving(
    config, traces, tmp_path, capsys, monkeypatch
):
    def solve(*args):
        raise AssertionError("solved with a non-finite config")

    monkeypatch.setattr(cli, "skorohod_distance", solve)
    fam = tmp_path / "family.json"
    fam.write_text(config)
    assert main(["distance", traces["x"], traces["y"], "--family", str(fam)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: bad family config: ")
    assert captured.err.count("\n") == 1


def test_distance_reads_a_negative_zero_factor_as_zero(traces, tmp_path, capsys):
    fam = tmp_path / "family.json"
    generator = {"kind": "scaled", "factor": -0.0, "inner": {"kind": "euclidean"}}
    fam.write_text(json.dumps({"generators": [generator]}))
    assert main(["distance", traces["x"], traces["x"], "--family", str(fam), "--metric", "1"]) == 0
    out = capsys.readouterr().out
    assert '"value_sup": 0.0' in out
    assert "-0.0" not in out


def test_distance_rejects_an_overflowing_metric(tmp_path, capsys):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(json.dumps({"times": [0], "values": [[1e308]]}))
    y.write_text(json.dumps({"times": [0], "values": [[-1e308]]}))
    assert main(["distance", str(x), str(y)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input rejected: value metric gave a non-finite distance (inf)\n"


def _nested(depth, inner):
    return "[" * depth + inner + "]" * depth


@pytest.mark.parametrize("file", ["trace", "family"])
def test_distance_rejects_input_nested_past_the_recursion_limit(file, traces, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    if file == "trace":
        deep.write_text(f'{{"times": [0], "values": {_nested(100_000, "0")}}}')
        argv = ["distance", str(deep), traces["y"]]
    else:
        deep.write_text(f'{{"generators": {_nested(100_000, "")}}}')
        argv = ["distance", traces["x"], traces["y"], "--family", str(deep)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input rejected: maximum recursion depth exceeded")
    assert captured.err.count("\n") == 1


def test_distance_rejects_a_metric_nested_past_the_recursion_limit(
    traces, tmp_path, capsys, monkeypatch
):
    # A family config of about 600 nested "scaled" generators parses and then
    # overflows the stack in Scaled.__call__ on Python 3.10-3.12; on 3.13 only
    # a few depths between the two limits do.  A metric built in Python
    # overflows the solve on every interpreter.
    metric = Euclidean()
    for _ in range(sys.getrecursionlimit()):
        metric = Scaled(1.0, metric)
    monkeypatch.setattr(cli, "_resolve_metric", lambda args, x: metric)
    assert main(["distance", traces["x"], traces["y"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input rejected: maximum recursion depth exceeded")
    assert captured.err.count("\n") == 1


def test_suite_oracle_passes(capsys):
    assert main(["suite", "oracle", "--seed", "42", "--trials", "30"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is True
    assert summary["suites"][0]["cases"] == 30


def test_suite_output_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["suite", "axioms", "--seed", "7", "--trials", "20", "--out", str(a)])
    main(["suite", "axioms", "--seed", "7", "--trials", "20", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_suite_all_output_is_pinned(capsys):
    # The bytes of `skorodist suite all --seed 42`, recorded once; a change
    # that keeps the distances and certificates keeps these bytes.
    golden = Path(__file__).parent / "data" / "suite_all_seed42.json"
    assert main(["suite", "all", "--seed", "42"]) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_example_k_report(capsys):
    assert main(["example-k"]) == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["pass"] is True
    assert obj["report"]["tail_diverges_tauk"] is True
    assert "K-topology example [pass]" in captured.err


def test_console_script_entry_point(traces):
    # run the CLI from the package tree these tests import
    src = str(Path(skorodist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "skorodist.cli", "distance", traces["x"], traces["y"]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["distance"] == 0.6 - 0.5


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--eps", "0"),
        ("--eps", "-0.1"),
        ("--eps", "nan"),
        ("--eps", "inf"),
        ("--eps", "1e308"),
        ("--eps", "5e-324"),
        ("--eps", "1e-310"),
        ("--eps", "x"),
        ("--trials", "0"),
        ("--trials", "-3"),
        ("--trials", "1.5"),
    ],
)
def test_suite_rejects_bad_eps_and_trials(flag, value, capsys):
    # rejected at argument parsing: exit 2, the parse-error code, no traceback
    with pytest.raises(SystemExit) as exc:
        main(["suite", "transfer", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "Traceback" not in err


def test_suite_accepts_smallest_valid_trials_and_eps(capsys):
    assert main(["suite", "transfer", "--trials", "1", "--eps", "0.2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["suites"][0]["cases"] == 10  # 5 functions x 2 directions x 1
