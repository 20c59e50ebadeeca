"""CLI surface: subcommands, exit codes, deterministic output."""

from __future__ import annotations

import csv
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from stochgraph import Functional, Realization, cc_length, load_instance, mpm_length, mst_length
from stochgraph.cli import build_parser, main
from stochgraph.oracle import FunctionalEvaluator

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
        lambda d: d["nodes"][0].update(id=None),
    ],
    ids=["node-without-dist", "point-without-id", "points-not-a-list", "dist-is-a-list",
         "node-id-null"],
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


def test_out_of_memory_is_a_refusal(monkeypatch, capsys):
    """A command that runs out of memory (``gen euclidean-uniform 3
    99999999999`` asks numpy for terabytes) exits 3 with one line, not a
    traceback.  The command is patched to raise, so nothing is allocated."""
    import stochgraph.cli as cli

    def no_memory(args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setitem(cli._COMMANDS, "gen", no_memory)
    assert main(["gen", "euclidean-uniform", "3", "99999999999"]) == 3
    assert capsys.readouterr().err == (
        "refused: not enough memory: Unable to allocate 7.28 TiB for an array\n"
    )


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


@pytest.mark.parametrize("target", ["cc", "mpm"])
def test_method_off_mst_is_invalid(instance_path, capsys, target):
    args = ["estimate", target, str(instance_path), "--epsilon", "0.25", "--seed", "1"]
    assert main(args + ["--method", "dp"]) == 2
    assert capsys.readouterr().err == "invalid: --method applies to estimate mst only\n"


@pytest.mark.parametrize("target", [["cc"], ["mst", "--method", "dp"]])
def test_dump_homes_without_a_home_is_invalid(instance_path, capsys, target):
    args = ["estimate", *target, str(instance_path), "--epsilon", "0.25", "--seed", "1"]
    assert main(args + ["--dump-homes"]) == 2
    assert capsys.readouterr().err == (
        "invalid: --dump-homes applies to estimate mst --method home and mpm only\n"
    )


@pytest.mark.parametrize("target", [["mst"], ["mpm"]])
@pytest.mark.parametrize("flag", ["--dump-homes", "--with-timing"])
def test_json_only_flags_with_csv_are_invalid(instance_path, capsys, target, flag):
    args = ["estimate", *target, str(instance_path), "--epsilon", "0.25", "--seed", "1"]
    assert main(args + [flag, "--format", "csv"]) == 2
    assert capsys.readouterr().err == f"invalid: {flag} applies to JSON output only\n"


def test_dump_homes_keeps_the_mpm_homes(tmp_path, instance_4x5):
    out = tmp_path / "r.json"
    args = ["estimate", "mpm", str(instance_4x5), "--epsilon", "0.25", "--seed", "1"]
    assert main(args + ["--budget-cap", "20", "--dump-homes", "-o", str(out)]) == 0
    assert "homes" in json.loads(out.read_text())["extras"]


@pytest.mark.parametrize("method", [["cc"], ["mst", "--method", "dp"]])
def test_point_id_equal_to_a_split_copy_name_estimates(tmp_path, method):
    # splitting a (shared by v0 and v1) would name its copy for v1 "a~v1"
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "points": [{"id": p, "coords": [x, 0.0]} for p, x in (("a", 0.0), ("a~v1", 1.0), ("b", 3.0))],
        "nodes": [{"id": "v0", "dist": {"a": 0.5, "b": 0.5}},
                  {"id": "v1", "dist": {"a": 0.4, "a~v1": 0.6}}],
    }))
    args = ["estimate", *method, str(path), "--epsilon", "0.25", "--seed", "1"]
    assert main(args + ["--budget-cap", "20", "-o", str(tmp_path / "r.json")]) == 0


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


@pytest.mark.parametrize("estimators", ["", ",", " , "])
def test_compare_without_estimators_is_invalid(instance_path, estimators, capsys):
    args = ["compare", str(instance_path), "--epsilon", "0.25", "--seeds", "1"]
    assert main(args + ["--estimators", estimators]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        "invalid: no estimator given; choose from mst-home,mst-dp,mpm,cc"
    )
    assert captured.out == ""


@pytest.mark.parametrize("repeat", ["estimator", "instance"])
def test_compare_with_a_repeated_estimator_or_instance_is_invalid(instance_path, repeat, capsys):
    path = str(instance_path)
    if repeat == "estimator":
        args, name = ["compare", path, "--estimators", "mst-home,cc, mst-home"], "mst-home"
    else:
        args, name = ["compare", path, path, "--estimators", "mst-home"], path
    assert main(args + ["--epsilon", "0.25", "--seeds", "1", "--budget-cap", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == f"invalid: {repeat} {name!r} given more than once"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["exact", "compare"])
def test_negative_enumeration_cap_is_invalid_and_cap_0_refuses(instance_path, capsys, command):
    args = {
        "exact": ["exact", str(instance_path), "--functional", "mst"],
        "compare": ["compare", str(instance_path), "--epsilon", "0.25", "--seeds", "1",
                    "--estimators", "mst-home", "--budget-cap", "20"],
    }[command]
    assert main(args + ["--cap", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == "invalid: enumeration cap must not be negative"
    assert captured.out == ""
    if command == "exact":
        assert main(args + ["--cap", "0"]) == 3
        assert capsys.readouterr().err.startswith("refused: ")
    else:
        assert main(args + ["--cap", "0"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows and all(r["reason"].startswith("oracle refused: ") for r in rows)


def test_compare_json_writes_null_for_numbers_of_skipped_rows(instance_path, capsys):
    args = ["compare", str(instance_path), "--epsilon", "0.25", "--seeds", "2", "--cap", "1"]
    assert main(args + ["--budget-cap", "20"]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    rows = json.loads(capsys.readouterr().out, parse_constant=refuse)["rows"]
    assert len(rows) == 8
    for row in rows:
        assert row["reason"]
        assert row["estimate"] is row["oracle"] is row["rel_err"] is None


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
def test_malformed_threads_is_invalid_and_no_variable_sets_it(
    tmp_path, instance_path, monkeypatch, value
):
    args = ["estimate", "mst", str(instance_path), "--epsilon", "0.25", "--seed", "1"]
    assert exit_code(args + ["--threads", value]) == 2
    # no environment variable sets the thread count
    monkeypatch.setenv("STOCHGRAPH_THREADS", value)
    out = tmp_path / "r.json"
    assert exit_code(args + ["--budget-cap", "20", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["threads"] == 1


@pytest.mark.parametrize("realization", ["[1, 2]", '"v0"', "5", "null"])
def test_solve_rejects_non_object_realization(instance_path, realization):
    args = ["solve", str(instance_path), "--functional", "mst", "--realization", realization]
    assert main(args) == 2


@pytest.mark.parametrize("point", [1, True])
def test_solve_rejects_number_as_point_id(instance_path, point):
    realization = json.dumps({"v0": point, "v1": "p1", "v2": "p2"})
    args = ["solve", str(instance_path), "--functional", "mst", "--realization", realization]
    assert main(args) == 2



SOLVE_POINTS = [[0.1, 0.7], [0.45, 0.2], [0.9, 0.35], [0.3, 0.05], [0.75, 0.9]]
SOLVE_CASES = {
    # existential, node b absent, four distinct points present
    "existential": (
        {
            "presence_mode": "existential",
            "nodes": [
                {"id": "a", "dist": {"p0": 0.5, "p1": 0.25}},
                {"id": "b", "dist": {"p1": 0.5, "p2": 0.5}},
                {"id": "c", "dist": {"p2": 0.25, "p3": 0.5}},
                {"id": "d", "dist": {"p3": 0.5, "p4": 0.25}},
                {"id": "e", "dist": {"p4": 1.0}},
            ],
        },
        {"a": "p0", "b": None, "c": "p2", "d": "p3", "e": "p4"},
        {
            "mst": (0, '{\n "functional": "mst",\n "value": 1.920981631236278\n}\n'),
            "mpm": (0, '{\n "functional": "mpm",\n "value": 1.2501612379863412\n}\n'),
            "cc": (0, '{\n "functional": "cc",\n "value": 2.5003224759726823\n}\n'),
            "nn-total": (0, '{\n "functional": "nn-total",\n "value": 1.920981631236278\n}\n'),
            "nn-longest": (0, '{\n "functional": "nn-longest",\n "value": 0.680073525436772\n}\n'),
        },
    ),
    # certain, nodes a and b both on p0
    "certain": (
        {
            "presence_mode": "certain",
            "nodes": [
                {"id": "a", "dist": {"p0": 0.5, "p1": 0.5}},
                {"id": "b", "dist": {"p0": 0.5, "p2": 0.5}},
                {"id": "c", "dist": {"p1": 1.0}},
                {"id": "d", "dist": {"p2": 0.5, "p3": 0.5}},
            ],
        },
        {"a": "p0", "b": "p0", "c": "p1", "d": "p3"},
        {
            "mst": (0, '{\n "functional": "mst",\n "value": 0.8224598151426494\n}\n'),
            "mpm": (0, '{\n "functional": "mpm",\n "value": 0.21213203435596428\n}\n'),
            "cc": (0, '{\n "functional": "cc",\n "value": 0.42426406871192857\n}\n'),
            "nn-total": (2, ""),  # nearest neighbours need distinct points
            "nn-longest": (2, ""),
        },
    ),
}


@pytest.mark.parametrize("case", list(SOLVE_CASES))
def test_solve_output_is_pinned(tmp_path, capsys, case):
    doc, realization, expected = SOLVE_CASES[case]
    points = [{"id": f"p{i}", "coords": xy} for i, xy in enumerate(SOLVE_POINTS)]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(doc, points=points)))
    for functional, (code, out) in expected.items():
        args = ["solve", str(path), "--functional", functional]
        assert main(args + ["--realization", json.dumps(realization)]) == code
        assert capsys.readouterr().out == out
    g = load_instance(str(path))
    present = [p for p in realization.values() if p is not None]
    indices = Realization.from_mapping(g, realization).indices
    for functional, solver in (("mst", mst_length), ("mpm", mpm_length), ("cc", cc_length)):
        evaluator = FunctionalEvaluator(g, Functional(functional))
        assert evaluator.value_of_assignment(indices) == solver(g.space, present)

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
    assert capsys.readouterr().err.splitlines()[-1] == (
        "invalid: epsilon is too small: the full sample budget is not finite"
    )


@pytest.mark.parametrize("epsilon, code", [("1e-13", 0), ("1e-300", 2)])
def test_mpm_at_a_tiny_epsilon_settles_its_clusters(tmp_path, capsys, epsilon, code):
    """At 1e-13, 1 - theta rounds to 1.0, above some nodes' float row sums."""
    path = tmp_path / "eu45.json"
    assert main(["gen", "euclidean-uniform", "4", "5", "--seed", "1", "-o", str(path)]) == 0
    args = ["estimate", "mpm", str(path), "--epsilon", epsilon, "--seed", "1"]
    assert main(args + ["--budget-cap", "5"]) == code
    if code == 2:
        assert capsys.readouterr().err.splitlines()[-1] == (
            "invalid: epsilon is too small: the full sample budget is not finite"
        )


@pytest.mark.parametrize(
    "command",
    [
        ["validate", "BAD"],
        ["compare", "BAD", "--epsilon", "0.25", "--seeds", "1"],
        ["solve", "INST", "--functional", "mst", "--realization", "@BAD"],
        ["exact", "INST", "--functional", "mst", "--event", "@BAD"],
    ],
)
def test_a_file_that_is_not_utf8_is_invalid(tmp_path, instance_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    args = [a.replace("BAD", str(bad)).replace("INST", str(instance_path)) for a in command]
    assert main(args) == 2
    assert "not valid UTF-8 JSON" in capsys.readouterr().err


@pytest.mark.parametrize("d", [1e-318, 1e-322])
@pytest.mark.parametrize("functional", ["mst", "mpm"])
def test_tiny_diameter_estimates_land_near_exact(tmp_path, functional, d):
    """At a diameter this small the all-home and near(v) mean bounds formed
    at D, and sample values times the engine's overflow scale, underflow."""
    path, exact, est = tmp_path / "tiny.json", tmp_path / "exact.json", tmp_path / "est.json"
    points = ["a", "b", "c", "e"]
    path.write_text(json.dumps({
        "points": points,
        "distance_matrix": [[0.0 if p == q else d for q in points] for p in points],
        "nodes": [{"id": "v0", "dist": {"a": 0.5, "b": 0.5}},
                  {"id": "v1", "dist": {"c": 0.25, "e": 0.25, "a": 0.5}}],
    }))
    assert main(["exact", str(path), "--functional", functional, "-o", str(exact)]) == 0
    args = ["estimate", functional, str(path), "--epsilon", "0.25", "--seed", "1"]
    assert main(args + ["--budget-cap", "50", "-o", str(est)]) == 0
    want, got = json.loads(exact.read_text())["value"], json.loads(est.read_text())["value"]
    assert want > 0.0 and abs(got - want) <= 0.25 * want


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


def _drop_optional_groups(line: str) -> str:
    """``line`` without its ``[...]`` groups; brackets inside quotes stay."""
    out, depth, quote = [], 0, None
    for ch in line:
        if quote:
            quote = None if ch == quote else quote
        elif ch in "'\"":
            quote = ch
        elif ch in "[]":
            depth += 1 if ch == "[" else -1
            continue
        if depth == 0:
            out.append(ch)
    return "".join(out)


def test_readme_command_lines_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(_drop_optional_groups(line), comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["stochgraph"]]
    assert {words[0] for words in commands} == {
        "gen", "validate", "solve", "exact", "estimate", "compare"
    }
    for words in commands:
        build_parser().parse_args(words)
