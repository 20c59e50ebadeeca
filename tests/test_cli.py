"""CLI surface: subcommands, exit codes, deterministic output."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import pytest

from stochgraph.cli import main

RUN = [sys.executable, "-m", "stochgraph.cli"]


def run_cli(args, **kw):
    return subprocess.run(
        RUN + args, capture_output=True, text=True, timeout=300, **kw
    )


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    code = main(["gen", "euclidean-uniform", "3", "4", "--seed", "5", "-o", str(path)])
    assert code == 0
    return path


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "home-separated", "3", "4", "--seed", "9", "-o", str(a)]) == 0
    assert main(["gen", "home-separated", "3", "4", "--seed", "9", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["gen", "home-separated", "3", "4", "--seed", "10", "-o", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_validate_ok_and_failure(tmp_path, instance_path):
    assert main(["validate", str(instance_path)]) == 0
    bad = tmp_path / "bad.json"
    doc = json.loads(instance_path.read_text())
    doc["nodes"][0]["dist"] = {"p0": 0.4}  # row no longer sums to 1
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["validate", str(missing)]) == 2


@pytest.mark.parametrize(
    "break_doc",
    [
        lambda d: d["nodes"][0].pop("dist"),
        lambda d: d["points"][0].pop("id"),
        lambda d: d.update(points=5),
        lambda d: d["nodes"][0].update(dist=[0.5, 0.5]),
    ],
    ids=["node-without-dist", "point-without-id", "points-not-a-list", "dist-is-a-list"],
)
def test_validate_malformed_document_exits_2(tmp_path, instance_path, break_doc):
    doc = json.loads(instance_path.read_text())
    break_doc(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2


def test_solve_single_realization(tmp_path, instance_path):
    out = tmp_path / "out.json"
    realization = json.dumps({"v0": "p0", "v1": "p1", "v2": "p2"})
    code = main(
        [
            "solve",
            str(instance_path),
            "--functional",
            "mst",
            "--realization",
            realization,
            "-o",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["functional"] == "mst"
    assert doc["value"] > 0


def test_exact_subcommand(tmp_path, instance_path):
    out = tmp_path / "exact.json"
    assert (
        main(["exact", str(instance_path), "--functional", "mst", "-o", str(out)])
        == 0
    )
    doc = json.loads(out.read_text())
    assert set(doc) >= {"value", "count", "event", "probability"}
    assert doc["count"] >= 1


@pytest.mark.parametrize(
    "event",
    [
        '{"allowed": {"nope": ["p0"]}}',  # unknown node
        '{"allowed": {"v0": ["nope"]}}',  # unknown point
        "[1, 2]",  # not an object
        '{"allowed": ["v0"]}',
        "{not json",
        '{"allowed": {"v0": [true]}}',  # a number is not a point id
        '{"allowed": {"v0": [1]}}',
        '{"allow_absent": {"v0": "no"}}',  # only true or false
        '{"allow_absent": {"v0": []}}',
        '{"allow_absent": {"v0": 0}}',
        '{"allow_absent": {"v0": null}}',
    ],
)
def test_exact_rejects_malformed_event(instance_path, event):
    args = ["exact", str(instance_path), "--functional", "mst", "--event", event]
    assert main(args) == 2


def test_exact_cap_refusal(instance_path):
    code = main(
        ["exact", str(instance_path), "--functional", "mst", "--cap", "1"]
    )
    assert code == 3


def test_estimate_outputs_report(tmp_path, instance_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "estimate", "mst", str(instance_path),
            "--epsilon", "0.25", "--seed", "7",
            "--budget-cap", "2000", "-o", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["estimator"] == "mst-home"
    assert doc["schema_version"] == 1
    assert "elapsed_seconds" not in doc
    assert abs(sum(t["value"] for t in doc["terms"]) - doc["value"]) < 1e-12


def test_estimate_dp_method(tmp_path, instance_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "estimate", "mst", str(instance_path),
            "--method", "dp", "--epsilon", "0.25", "--seed", "7",
            "--budget-cap", "2000", "-o", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["estimator"] == "mst-dp"


def test_estimate_byte_identical_across_runs_and_threads(tmp_path, instance_path):
    outs = []
    for name, threads in (("r1.json", "1"), ("r2.json", "1"), ("r4.json", "4")):
        out = tmp_path / name
        code = main(
            [
                "estimate", "cc", str(instance_path),
                "--epsilon", "0.25", "--seed", "3",
                "--budget-cap", "1500", "--threads", threads,
                "-o", str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # thread count is part of the config record; values must match exactly
    r1, r4 = json.loads(outs[0]), json.loads(outs[2])
    assert r1["value"] == r4["value"]
    assert [t["value"] for t in r1["terms"]] == [t["value"] for t in r4["terms"]]


def test_estimate_cc_csv_pair_table(tmp_path, instance_path):
    js, cs = tmp_path / "r.json", tmp_path / "r.csv"
    base = [
        "estimate", "cc", str(instance_path),
        "--epsilon", "0.25", "--seed", "3", "--budget-cap", "1000",
    ]
    assert main(base + ["-o", str(js)]) == 0
    assert main(base + ["--format", "csv", "-o", str(cs)]) == 0
    pairs = json.loads(js.read_text())["extras"]["pairs"]
    lines = cs.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["schema_version", "s", "t"]
    assert len(lines) - 1 == len(pairs)
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["estimate"]) == pairs[0]["estimate"]
    assert float(row["prob"]) == pairs[0]["prob"]


def test_estimate_mpm_odd_rejected(instance_path):
    assert (
        main(
            ["estimate", "mpm", str(instance_path), "--epsilon", "0.25", "--seed", "1"]
        )
        == 2
    )


def test_budget_scale_warning_on_stderr(instance_path):
    proc = run_cli(
        [
            "estimate", "mst", str(instance_path),
            "--epsilon", "0.25", "--seed", "1",
            "--budget-scale", "0.001", "--budget-cap", "1000",
        ]
    )
    assert proc.returncode == 0
    assert "WARNING" in proc.stderr
    assert "FPRAS" in proc.stderr


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_non_finite_budget_scale_is_invalid(instance_path, scale):
    for args in (
        ["estimate", "mst", str(instance_path), "--epsilon", "0.25", "--seed", "1"],
        ["compare", str(instance_path), "--epsilon", "0.25", "--seeds", "1"],
    ):
        assert main(args + ["--budget-scale", scale]) == 2


@pytest.mark.parametrize(
    "setting",
    [
        ["--budget-cap", "0"],
        ["--budget-cap", "-5"],
        ["--threads", "0"],
        ["--threads", "-3"],
    ],
)
def test_budget_cap_or_threads_below_1_is_invalid(instance_path, setting):
    for args in (
        ["estimate", "mst", str(instance_path), "--epsilon", "0.25", "--seed", "1"],
        ["estimate", "cc", str(instance_path), "--epsilon", "0.25", "--seed", "1"],
        ["compare", str(instance_path), "--epsilon", "0.25", "--seeds", "1"],
    ):
        assert main(args + setting) == 2


def test_budget_cap_warning_on_stderr(instance_path, capsys):
    args = ["estimate", "mst", str(instance_path), "--epsilon", "0.25", "--seed", "1"]
    assert main(args + ["--budget-cap", "1000"]) == 0
    err = capsys.readouterr().err
    assert "WARNING" in err and "budget-cap 1000" in err and "FPRAS" in err


@pytest.mark.parametrize("epsilon", ["0", "-0.5", "1.5", "nan"])
def test_compare_epsilon_outside_unit_interval_is_invalid(instance_path, epsilon):
    args = ["compare", str(instance_path), "--epsilon", epsilon, "--seeds", "1"]
    assert main(args) == 2


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_compare_seed_count_below_1_is_invalid(instance_path, seeds, capsys):
    args = ["compare", str(instance_path), "--epsilon", "0.25", "--seeds", seeds]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "seed count must be at least 1" in captured.err
    assert captured.out == ""


def exit_code(args) -> int:
    """main()'s exit code, also when argparse rejects an argument."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def test_csv_rows_have_the_header_width(instance_path, capsys):
    # mst-dp term names such as dp(p3,p1) and the oracle's refusal reason
    # hold commas, so those fields must be quoted
    runs = [
        ["estimate", "mst", str(instance_path), "--method", "dp"],
        ["compare", str(instance_path), "--seeds", "1", "--cap", "5"],
    ]
    for args in runs:
        args += ["--epsilon", "0.25", "--seed" if args[0] == "estimate" else "--seed-base", "1"]
        assert main(args + ["--budget-cap", "20", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) > 1
        assert {len(row) for row in rows} == {len(rows[0])}
        assert any("," in field for row in rows[1:] for field in row)


def test_huge_budget_scale_under_a_cap_runs_the_cap(tmp_path, instance_path):
    args = ["estimate", "mst", str(instance_path), "--epsilon", "0.25", "--seed", "1"]
    out = tmp_path / "r.json"
    assert main(args + ["--budget-scale", "1e308", "--budget-cap", "100", "-o", str(out)]) == 0
    sampled = [t for t in json.loads(out.read_text())["terms"] if t["method"] == "monte-carlo"]
    assert sampled and all(t["samples"] == 100 for t in sampled)
    assert main(args + ["--budget-scale", "1e308"]) == 2


@pytest.mark.parametrize("value", ["-3", "0", "abc", "1.5", ""])
def test_malformed_threads_env_var_is_invalid(instance_path, monkeypatch, capsys, value):
    monkeypatch.setenv("STOCHGRAPH_THREADS", value)
    args = ["estimate", "mst", str(instance_path), "--epsilon", "0.25", "--seed", "1"]
    assert exit_code(args) == 2
    env_err = capsys.readouterr().err.splitlines()[-1]
    monkeypatch.delenv("STOCHGRAPH_THREADS")
    assert exit_code(args + ["--threads", value]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == env_err


@pytest.mark.parametrize("realization", ["[1, 2]", '"v0"', "5", "null"])
def test_solve_rejects_non_object_realization(instance_path, realization):
    args = ["solve", str(instance_path), "--functional", "mst", "--realization", realization]
    assert main(args) == 2


@pytest.mark.parametrize("point", [1, True])
def test_solve_rejects_number_as_point_id(instance_path, point):
    realization = json.dumps({"v0": point, "v1": "p1", "v2": "p2"})
    args = ["solve", str(instance_path), "--functional", "mst", "--realization", realization]
    assert main(args) == 2


def test_compare_json_and_csv_agree(tmp_path):
    inst = tmp_path / "i.json"
    assert main(["gen", "euclidean-uniform", "2", "3", "--seed", "2", "-o", str(inst)]) == 0
    js, cs = tmp_path / "c.json", tmp_path / "c.csv"
    args = [
        "compare", str(inst),
        "--estimators", "mst-home,cc",
        "--seeds", "2", "--epsilon", "0.25",
        "--budget-cap", "1500",
    ]
    assert main(args + ["--format", "json", "-o", str(js)]) == 0
    assert main(args + ["--format", "csv", "-o", str(cs)]) == 0
    doc = json.loads(js.read_text())
    lines = cs.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == len(doc["rows"]) == 4
    for jrow, crow in zip(doc["rows"], rows):
        assert crow["instance"] == jrow["instance"]
        assert crow["estimator"] == jrow["estimator"]
        assert float(crow["estimate"]) == jrow["estimate"]
        assert float(crow["oracle"]) == jrow["oracle"]
        assert (crow["pass"] == "true") == jrow["pass"]
    # deterministic instances aside, everything here should be scored
    assert all(not r["reason"] for r in doc["rows"])
    assert set(doc["aggregate"]) == {"mst-home", "cc"}


def test_console_entry_point(instance_path):
    proc = run_cli(["validate", str(instance_path)])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


@pytest.fixture
def instance_4x5(tmp_path):
    path = tmp_path / "inst45.json"
    assert main(["gen", "euclidean-uniform", "4", "5", "--seed", "3", "-o", str(path)]) == 0
    return path


@pytest.mark.parametrize(
    "epsilon, method",
    [
        ("1e-100", ["mst"]),
        *(("1e-160", m) for m in (["mst"], ["mst", "--method", "dp"], ["mpm"], ["cc"])),
        *(("1e-200", m) for m in (["mst"], ["mst", "--method", "dp"], ["mpm"], ["cc"])),
    ],
)
def test_epsilon_too_small_for_a_finite_budget_is_invalid(instance_4x5, capsys, epsilon, method):
    args = ["estimate", *method, str(instance_4x5), "--epsilon", epsilon, "--seed", "1"]
    assert main(args + ["--budget-cap", "10"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("invalid: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command",
    [
        ["validate", "INST"],
        ["solve", "INST", "--functional", "mst", "--realization", '{"v0": "a", "v1": "b", "v2": "c"}'],
        ["exact", "INST", "--functional", "mst"],
        ["estimate", "mst", "INST", "--epsilon", "0.25", "--seed", "1"],
        ["estimate", "mst", "INST", "--method", "dp", "--epsilon", "0.25", "--seed", "1"],
        ["estimate", "cc", "INST", "--epsilon", "0.25", "--seed", "1"],
    ],
)
def test_distances_overflowing_solver_sums_are_invalid(tmp_path, capsys, command):
    path = tmp_path / "big.json"
    d = 1e308
    path.write_text(json.dumps({
        "points": ["a", "b", "c"],
        "distance_matrix": [[0.0, d, d], [d, 0.0, d], [d, d, 0.0]],
        "nodes": [{"id": "v0", "dist": {"a": 1.0}}, {"id": "v1", "dist": {"b": 1.0}},
                  {"id": "v2", "dist": {"c": 1.0}}],
    }))
    assert main([str(path) if arg == "INST" else arg for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "n^2 * (largest distance + 1)" in err
