import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skorodist
from skorodist.cli import main

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


def test_distance_output(traces, tmp_path, capsys):
    out = tmp_path / "res.json"
    assert main(["distance", traces["x"], traces["y"], "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["distance"] == pytest.approx(0.1, abs=1e-9)
    assert res["time_sup"] == pytest.approx(0.1, abs=1e-9)
    assert res["value_sup"] == 0.0
    assert res["certificate"]["knots"] == [[0.0, 0.0], [0.6, 0.5], [1.0, 1.0]]


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
    assert json.loads(out.read_text())["distance"] == pytest.approx(0.7)
    assert (
        main(
            ["distance", str(x), str(y), "--family", str(fam), "--metric", "1",
             "--out", str(out)]
        )
        == 0
    )
    assert json.loads(out.read_text())["distance"] == pytest.approx(0.2)


def test_distance_labels_default_discrete(tmp_path, capsys):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(json.dumps({"times": [0], "values": ["idle"]}))
    y.write_text(json.dumps({"times": [0, 0.5], "values": ["idle", "busy"]}))
    assert main(["distance", str(x), str(y)]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 1.0


def test_certificate_round_trip(traces, tmp_path):
    res = tmp_path / "res.json"
    assert main(["distance", traces["x"], traces["y"], "--out", str(res)]) == 0
    assert main(["certificate-check", traces["x"], traces["y"], str(res)]) == 0


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
    assert json.loads(proc.stdout)["distance"] == pytest.approx(0.1, abs=1e-9)
