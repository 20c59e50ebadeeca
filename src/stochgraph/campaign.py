"""Estimator-versus-oracle comparison campaigns."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .cc import estimate_ecc
from .errors import DomainError, EnumerationCapError
from .mc import EstimateReport, check_run_settings
from .model import StochasticGraph
from .mpm import estimate_empm
from .mst_dp import estimate_emst_dp
from .mst_home import estimate_emst
from .oracle import DEFAULT_CAP, Functional, check_cap, exact_expectation

# estimator name -> (estimate function, the functional it estimates)
_ESTIMATORS = {
    "mst-home": (estimate_emst, Functional.MST),
    "mst-dp": (estimate_emst_dp, Functional.MST),
    "mpm": (estimate_empm, Functional.MPM),
    "cc": (estimate_ecc, Functional.CC),
}
ESTIMATORS = tuple(_ESTIMATORS)

CSV_COLUMNS = (
    "schema_version",
    "instance",
    "estimator",
    "seed",
    "estimate",
    "oracle",
    "rel_err",
    "pass",
    "reason",
)


def run_estimator(
    name: str,
    g: StochasticGraph,
    epsilon: float,
    seed: int,
    *,
    budget_scale: float = 1.0,
    budget_cap: Optional[int] = None,
    threads: int = 1,
) -> EstimateReport:
    if name not in _ESTIMATORS:
        raise DomainError(f"unknown estimator {name!r}; choose from {ESTIMATORS}")
    estimate, _ = _ESTIMATORS[name]
    return estimate(
        g, epsilon, seed, budget_scale=budget_scale, budget_cap=budget_cap, threads=threads
    )


@dataclass
class CampaignRow:
    instance: str
    estimator: str
    seed: int
    estimate: float
    oracle: float
    rel_err: float
    passed: bool
    reason: str = ""

    def to_dict(self) -> dict:
        """The fields, with ``passed`` under the key ``pass``.  JSON has no
        NaN or infinity, so a number that is not finite (a skipped row's NaN,
        the infinite relative error of a nonzero estimate of 0) is None."""
        return {
            ("pass" if k == "passed" else k): None
            if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in vars(self).items()
        }


@dataclass
class CampaignResult:
    epsilon: float
    rows: list[CampaignRow] = field(default_factory=list)

    def aggregate(self) -> dict[str, float]:
        """Per-estimator success fraction over its scored rows."""
        totals: dict[str, list[int]] = {}
        for row in self.rows:
            if row.reason:
                continue
            hit = totals.setdefault(row.estimator, [0, 0])
            hit[0] += int(row.passed)
            hit[1] += 1
        return {k: v[0] / v[1] for k, v in sorted(totals.items()) if v[1]}

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "epsilon": self.epsilon,
            "rows": [r.to_dict() for r in self.rows],
            "aggregate": self.aggregate(),
        }

    def to_csv(self) -> str:
        return csv_text(
            CSV_COLUMNS,
            (
                [1, r.instance, r.estimator, r.seed, r.estimate, r.oracle, r.rel_err,
                 "true" if r.passed else "false", r.reason]
                for r in self.rows
            ),
        )


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV with "\\n" line ends: a field holding a comma or a quote is quoted,
    None is an empty field and other values are written with str()."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def run_campaign(
    instances: Sequence[tuple[str, StochasticGraph]],
    estimators: Sequence[str],
    seeds: Sequence[int],
    epsilon: float,
    *,
    budget_scale: float = 1.0,
    budget_cap: Optional[int] = None,
    threads: int = 1,
    cap: int = DEFAULT_CAP,
) -> CampaignResult:
    """Oracle once per (instance, functional); each estimator once per seed.

    Rows where the oracle refused (enumeration cap) or the estimator cannot
    apply (odd node count for matchings) carry a reason and are excluded from
    the aggregate.  An invalid epsilon, budget scale, budget cap, thread
    count or enumeration cap fails the whole run.
    """
    check_run_settings(budget_scale, budget_cap, threads, epsilon)
    check_cap(cap)
    result = CampaignResult(epsilon=epsilon)
    for name, g in instances:
        oracles: dict[Functional, tuple[Optional[float], str]] = {}
        for est in estimators:
            _, f = _ESTIMATORS[est]
            if f not in oracles:
                try:
                    oracles[f] = (exact_expectation(g, f, cap=cap), "")
                except EnumerationCapError as exc:
                    oracles[f] = (None, f"oracle refused: {exc}")
                except DomainError as exc:
                    oracles[f] = (None, f"not applicable: {exc}")
            oracle, reason = oracles[f]
            for seed in seeds:
                if oracle is None:
                    result.rows.append(
                        CampaignRow(name, est, seed, math.nan, math.nan, math.nan, False, reason)
                    )
                    continue
                try:
                    report = run_estimator(
                        est,
                        g,
                        epsilon,
                        seed,
                        budget_scale=budget_scale,
                        budget_cap=budget_cap,
                        threads=threads,
                    )
                except DomainError as exc:
                    result.rows.append(
                        CampaignRow(
                            name, est, seed, math.nan, math.nan, math.nan, False,
                            f"not applicable: {exc}",
                        )
                    )
                    continue
                err = abs(report.value - oracle)
                rel = err / oracle if oracle > 0 else (0.0 if err == 0.0 else math.inf)
                result.rows.append(
                    CampaignRow(
                        name, est, seed, report.value, oracle, rel,
                        err <= epsilon * oracle,
                    )
                )
    result.rows.sort(key=lambda r: (r.instance, r.estimator, r.seed))
    return result
