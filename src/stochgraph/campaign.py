"""Estimator-versus-oracle comparison campaigns."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cc import estimate_ecc
from .errors import DomainError, EnumerationCapError
from .mc import EstimateReport, check_run_settings
from .model import StochasticGraph
from .mpm import estimate_empm
from .mst_dp import estimate_emst_dp
from .mst_home import estimate_emst
from .oracle import DEFAULT_CAP, Functional, exact_expectation

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
        return {
            "instance": self.instance,
            "estimator": self.estimator,
            "seed": self.seed,
            "estimate": self.estimate,
            "oracle": self.oracle,
            "rel_err": self.rel_err,
            "pass": self.passed,
            "reason": self.reason,
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
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for r in self.rows:
            out.write(
                ",".join(
                    [
                        "1",
                        r.instance,
                        r.estimator,
                        repr(r.seed),
                        repr(r.estimate),
                        repr(r.oracle),
                        repr(r.rel_err),
                        "true" if r.passed else "false",
                        r.reason,
                    ]
                )
                + "\n"
            )
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
    the aggregate.  An invalid epsilon, budget scale, budget cap or thread
    count fails the whole run.
    """
    if not 0.0 < epsilon <= 1.0:
        raise DomainError("epsilon must be in (0, 1]")
    check_run_settings(budget_scale, budget_cap, threads)
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
