"""Golden estimator reports: every pinned ``EstimateReport.to_dict()`` must
stay bit-identical.

The pinned runs cover all four estimators on the acceptance suite (seeds
1-3 at the acceptance caps), one large rung each for mst-home and mpm
(homes of 24 and 16 points, where the order in which home masses are summed
shows in the last bit), and one existential-mode instance each for mst-dp
and cc.  Runs an estimator refuses are pinned by their error message.

Regenerate the data only when a change is meant to alter the estimates:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from stochgraph.campaign import run_estimator
from stochgraph.errors import StochgraphError
from stochgraph.generate import gen_graph, gen_instance
from stochgraph.model import instance_from_dict

from test_acceptance import CAPS, EPSILON, SUITE_SPEC

DATA = Path(__file__).parent / "data" / "golden_reports.json"


def _existential(kind: str, n: int, m: int, seed: int):
    doc = gen_instance(kind, n, m, seed)
    doc["presence_mode"] = "existential"
    for node in doc["nodes"]:
        node["dist"] = {p: 0.85 * w for p, w in node["dist"].items()}
    return instance_from_dict(doc)


def golden_cases():
    """case id -> (estimator, graph factory, seed, budget cap)."""
    cases = {}
    for name, kind, n, m, gseed in SUITE_SPEC:
        for est, cap in CAPS.items():
            for seed in (1, 2, 3):
                cases[f"{est}/{name}/{seed}"] = (
                    est, lambda kind=kind, n=n, m=m, gseed=gseed: gen_graph(kind, n, m, gseed),
                    seed, cap,
                )
    cases["mst-home/eu-16-24/1"] = (
        "mst-home", lambda: gen_graph("euclidean-uniform", 16, 24, 1), 1, 4096,
    )
    cases["mpm/eu-12-16/1"] = ("mpm", lambda: gen_graph("euclidean-uniform", 12, 16, 1), 1, 75)
    for est in ("mst-dp", "cc"):
        cases[f"{est}/exist-eu-4-5/1"] = (
            est, lambda: _existential("euclidean-uniform", 4, 5, 13), 1, CAPS[est],
        )
    return cases


def run_case(case) -> dict:
    est, make_graph, seed, cap = case
    try:
        report = run_estimator(est, make_graph(), EPSILON, seed, budget_cap=cap)
    except StochgraphError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return report.to_dict()


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("case_id", list(golden_cases()))
def test_report_is_bit_identical(golden, case_id):
    assert canonical(run_case(golden_cases()[case_id])) == canonical(golden[case_id])


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    docs = {case_id: run_case(case) for case_id, case in golden_cases().items()}
    lines = [f"{json.dumps(k)}: {canonical(docs[k])}" for k in sorted(docs)]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(docs)} reports to {DATA}", file=sys.stderr)
