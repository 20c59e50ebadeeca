"""Stochastic graph data model.

A ``MetricSpace`` is a finite set of points with a symmetric distance matrix
satisfying the triangle inequality.  A ``StochasticGraph`` places ``n`` nodes
on that space, each node carrying an independent discrete distribution over
the points.  A ``Realization`` assigns every node to a concrete point (or, in
existential mode, marks it absent).  ``EventSpec`` describes product-form
events by ids: per-node restrictions of the allowed points, which is the only
kind of conditioning the estimators in this package ever need.  Inside the
package events are ``Event`` index masks; ``EventSpec.to_event`` converts.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ValidationError

TRIANGLE_TOL = 1e-9   # relative slack when validating the triangle inequality
ROW_SUM_TOL = 1e-12   # slack on per-node probability mass

CERTAIN = "certain"
EXISTENTIAL = "existential"

ABSENT = None  # public marker for "node not present" in a realization


def _lookup(index: Mapping, key, kind: str) -> int:
    """Position of ``key`` in ``index`` (id -> position): an int is a position
    itself, checked against the range; an unknown or unhashable id raises
    ``ValidationError``."""
    if isinstance(key, (int, np.integer)):
        if not 0 <= key < len(index):
            raise ValidationError(f"{kind} index {key} out of range")
        return int(key)
    try:
        return index[key]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown {kind} identifier {key!r}") from None


class MetricSpace:
    """Finite metric space: point identifiers plus a distance matrix.

    Construct either from an explicit matrix (``MetricSpace(ids, dist=...)``)
    or from Euclidean coordinates (``MetricSpace(ids, coords=...)``), in which
    case pairwise L2 distances are computed once and then treated as a plain
    matrix.

    The canonical point order (the order of ``point_ids``) doubles as the
    fixed total order on identifiers used for deterministic edge tie-breaking.
    """

    def __init__(
        self,
        point_ids: Sequence[str],
        dist: Optional[np.ndarray] = None,
        coords: Optional[np.ndarray] = None,
        validate: bool = True,
    ):
        self.point_ids: tuple[str, ...] = tuple(str(p) for p in point_ids)
        if len(set(self.point_ids)) != len(self.point_ids):
            raise ValidationError("duplicate point identifiers")
        if len(self.point_ids) == 0:
            raise ValidationError("a metric space needs at least one point")
        self._index = {p: i for i, p in enumerate(self.point_ids)}

        m = len(self.point_ids)
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            if coords.ndim != 2 or coords.shape[0] != m:
                raise ValidationError("coords must be an (m, dim) array")
            diff = coords[:, None, :] - coords[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            self.coords: Optional[np.ndarray] = coords
        else:
            self.coords = None
            if dist is None:
                raise ValidationError("need either a distance matrix or coordinates")
        dist = np.asarray(dist, dtype=float)
        if dist.shape != (m, m):
            raise ValidationError(f"distance matrix must be {m}x{m}")
        self.dist: np.ndarray = dist
        self.dist.setflags(write=False)
        if validate:
            self._validate()

    def _validate(self) -> None:
        d = self.dist
        m = len(self.point_ids)
        if np.any(~np.isfinite(d)) or np.any(d < 0):
            raise ValidationError("distances must be finite and nonnegative")
        if np.any(np.diag(d) != 0.0):
            raise ValidationError("dist(a, a) must be 0")
        if np.any(d != d.T):
            raise ValidationError("distance matrix must be symmetric")
        # d[a, c] <= d[a, b] + d[b, c], up to relative tolerance; a path
        # whose sum overflows to inf is longer than any distance.
        for b in range(m):
            with np.errstate(over="ignore"):
                via_b = d[:, b:b + 1] + d[b:b + 1, :]
            bad = d > via_b * (1.0 + TRIANGLE_TOL) + 0.0
            if np.any(bad):
                a, c = np.argwhere(bad)[0]
                raise ValidationError(
                    f"triangle inequality violated: d({self.point_ids[a]},{self.point_ids[c]})="
                    f"{d[a, c]} > d(.,{self.point_ids[b]}) path {via_b[a, c]}"
                )

    @property
    def m(self) -> int:
        return len(self.point_ids)

    def index(self, point: Union[str, int]) -> int:
        return _lookup(self._index, point, "point")

    def indices(self, points: Iterable[Union[str, int]]) -> list[int]:
        return [self.index(p) for p in points]

    def d(self, a: Union[str, int], b: Union[str, int]) -> float:
        return float(self.dist[self.index(a), self.index(b)])

    @functools.cached_property
    def padded_dist(self) -> np.ndarray:
        """``dist`` with one more row and column of +inf, flattened and
        read-only: entry a * (m + 1) + b is d(a, b), and index m is a point
        at infinite distance from every point.  Built on first use; threads
        racing to build it build equal tables."""
        pad = np.pad(self.dist, (0, 1), constant_values=np.inf).reshape(-1)
        pad.flags.writeable = False
        return pad


def _point_id_index(space: MetricSpace, point) -> int:
    """Index of a point named by id in a JSON document.

    Ids are strings; a number there is refused rather than read as an index.
    """
    if not isinstance(point, str):
        raise ValidationError(f"point ids are strings, got {point!r}")
    return space.index(point)


def set_distance(space: MetricSpace, p: Union[str, int], H: Iterable) -> float:
    """Closest distance from point ``p`` to the nonempty point set ``H``."""
    idx = space.indices(H)
    if not idx:
        raise DomainError("set_distance: empty point set")
    return float(space.dist[space.index(p), idx].min())


def diam(space: MetricSpace, H: Iterable) -> float:
    """max pairwise distance within the nonempty point set ``H``."""
    idx = space.indices(H)
    if not idx:
        raise DomainError("diam: empty point set")
    sub = space.dist[np.ix_(idx, idx)]
    return float(sub.max())


def set_set_distance(space: MetricSpace, H1: Iterable, H2: Iterable) -> float:
    """min over s in H1, t in H2 of d(s, t); both sets must be nonempty."""
    i1, i2 = space.indices(H1), space.indices(H2)
    if not i1 or not i2:
        raise DomainError("set_set_distance: empty point set")
    return float(space.dist[np.ix_(i1, i2)].min())


class StochasticGraph:
    """Nodes with independent discrete location distributions over a space.

    ``probs[v, s]`` is the probability that node ``v`` realizes at point
    ``s``.  In ``certain`` mode every row sums to 1; in ``existential`` mode a
    row may sum to less than 1, the deficit being the probability that the
    node is absent.  ``outcome_probs`` is ``probs`` with that absence mass
    appended as column m (0 in certain mode), computed once per graph.
    """

    def __init__(
        self,
        node_ids: Sequence[str],
        space: MetricSpace,
        probs: Union[np.ndarray, Mapping[str, Mapping[str, float]]],
        presence_mode: str = CERTAIN,
        validate: bool = True,
    ):
        self.node_ids: tuple[str, ...] = tuple(str(v) for v in node_ids)
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValidationError("duplicate node identifiers")
        if not self.node_ids:
            raise ValidationError("a stochastic graph needs at least one node")
        self._index = {v: i for i, v in enumerate(self.node_ids)}
        self.space = space
        if presence_mode not in (CERTAIN, EXISTENTIAL):
            raise ValidationError(f"unknown presence mode {presence_mode!r}")
        self.presence_mode = presence_mode

        if isinstance(probs, Mapping):
            P = np.zeros((len(self.node_ids), space.m))
            for v, row in probs.items():
                vi = self.node_index(v)
                for s, p in row.items():
                    P[vi, space.index(s)] = float(p)
        else:
            P = np.asarray(probs, dtype=float)
            if P.shape != (len(self.node_ids), space.m):
                raise ValidationError(
                    f"probability matrix must be {len(self.node_ids)}x{space.m}"
                )
        self.probs: np.ndarray = P
        self.probs.setflags(write=False)
        if validate:
            self._validate()
        existential = presence_mode == EXISTENTIAL
        absent = [max(0.0, 1.0 - float(row.sum())) if existential else 0.0 for row in P]
        self.outcome_probs: np.ndarray = np.column_stack([P, absent])
        self.outcome_probs.setflags(write=False)

    def _validate(self) -> None:
        # The solvers' largest sums of distances: a cycle cover's assignment over
        # up to n points, fixed points costing n * (max + 1); others add <= n edges.
        dmax = float(self.space.dist.max())
        if not math.isfinite(self.n * self.n * (dmax + 1.0)):
            raise ValidationError(
                f"largest distance {dmax} is too large for {self.n} nodes: "
                "n^2 * (largest distance + 1) must stay below the largest float, 1.8e308"
            )
        P = self.probs
        if np.any(~np.isfinite(P)) or np.any(P < 0):
            raise ValidationError("location probabilities must be finite and >= 0")
        rows = P.sum(axis=1)
        if self.presence_mode == CERTAIN:
            bad = np.abs(rows - 1.0) > ROW_SUM_TOL
            if np.any(bad):
                v = int(np.argmax(bad))
                raise ValidationError(
                    f"node {self.node_ids[v]}: probabilities sum to {rows[v]}, expected 1"
                )
        else:
            if np.any(rows > 1.0 + ROW_SUM_TOL):
                v = int(np.argmax(rows))
                raise ValidationError(
                    f"node {self.node_ids[v]}: probabilities sum to {rows[v]} > 1"
                )

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def m(self) -> int:
        return self.space.m

    def node_index(self, node: Union[str, int]) -> int:
        return _lookup(self._index, node, "node")

    def absent_mass(self, node: Union[str, int]) -> float:
        """Probability that the node is not present (0 in certain mode)."""
        return float(self.outcome_probs[self.node_index(node), -1])


@dataclass(frozen=True)
class Realization:
    """One joint assignment of nodes to points; ``None`` marks an absent node.

    ``indices`` is the internal form: one entry per node in node order, the
    point index or -1 for absent.
    """

    indices: tuple[int, ...]

    @classmethod
    def from_mapping(cls, g: StochasticGraph, assignment: Mapping[str, Optional[str]]) -> "Realization":
        if not isinstance(assignment, Mapping):
            raise ValidationError("a realization must be an object mapping node ids to point ids")
        if set(assignment.keys()) != set(g.node_ids):
            missing = set(g.node_ids) - set(assignment.keys())
            extra = set(assignment.keys()) - set(g.node_ids)
            raise ValidationError(
                f"realization must assign every node exactly once "
                f"(missing {sorted(missing)}, unknown {sorted(extra)})"
            )
        idx = []
        for v in g.node_ids:
            point = assignment[v]
            if point is ABSENT:
                if g.presence_mode != EXISTENTIAL:
                    raise ValidationError(f"node {v}: absent only allowed in existential mode")
                idx.append(-1)
            else:
                idx.append(_point_id_index(g.space, point))
        return cls(tuple(idx))

    def to_mapping(self, g: StochasticGraph) -> dict[str, Optional[str]]:
        return {
            v: (None if i < 0 else g.space.point_ids[i])
            for v, i in zip(g.node_ids, self.indices)
        }


@dataclass(frozen=True)
class Event:
    """Product-form event as index masks, the form used inside the package.

    ``allowed[v, s]`` says node ``v`` may realize at point ``s``;
    ``absent[v]`` says it may be absent (always False in certain mode).
    """

    allowed: np.ndarray  # (n, m) bool
    absent: np.ndarray  # (n,) bool


@dataclass(frozen=True)
class EventSpec:
    """Product-form conditioning event by node and point ids (JSON/CLI form).

    ``allowed`` maps a node id to an iterable of point ids (or one point id,
    meaning the node is forced there).  Unmentioned nodes are unrestricted.
    ``allow_absent`` (existential mode only) controls whether "not present"
    counts as allowed for a node; it defaults to True for every node.
    ``to_event`` validates the ids and converts to index masks.
    """

    allowed: Mapping[str, Union[str, Iterable[str]]] = field(default_factory=dict)
    allow_absent: Mapping[str, bool] = field(default_factory=dict)

    def to_event(self, g: StochasticGraph) -> Event:
        if not isinstance(self.allowed, Mapping) or not isinstance(self.allow_absent, Mapping):
            raise ValidationError('event "allowed" and "allow_absent" must be objects')
        event = as_event(g, None)
        for name, spec in self.allowed.items():
            v = g.node_index(name)
            if isinstance(spec, str):
                spec = [spec]
            elif not isinstance(spec, Iterable) or isinstance(spec, Mapping):
                raise ValidationError(f"node {name}: allowed points must be a list of point ids")
            idx = [_point_id_index(g.space, p) for p in spec]
            if not idx:
                raise ValidationError(f"node {name}: empty allowed set")
            event.allowed[v] = False
            event.allowed[v, idx] = True
        for name, flag in self.allow_absent.items():
            if not isinstance(flag, (bool, np.bool_)):
                raise ValidationError(f"node {name}: allow_absent must be true or false")
            event.absent[g.node_index(name)] &= bool(flag)
        return event

    def contains(self, g: StochasticGraph, r: Realization) -> bool:
        event = self.to_event(g)
        return all(
            event.absent[v] if s < 0 else event.allowed[v, s]
            for v, s in enumerate(r.indices)
        )

    def to_json_dict(self, g: StochasticGraph) -> dict:
        out: dict = {"allowed": {}, "allow_absent": {}}
        for v, spec in self.allowed.items():
            out["allowed"][v] = [spec] if isinstance(spec, str) else sorted(spec)
        for v, b in self.allow_absent.items():
            out["allow_absent"][v] = bool(b)
        return out


def as_event(g: StochasticGraph, event: Union[EventSpec, Event, None]) -> Event:
    """The index-mask form of ``event``; ``None`` is the unrestricted event."""
    if event is None:
        return Event(np.ones((g.n, g.m), dtype=bool), np.full(g.n, g.presence_mode == EXISTENTIAL))
    if isinstance(event, EventSpec):
        return event.to_event(g)
    return event


def pinned_event(g: StochasticGraph, base: np.ndarray, v: int, s: int, u: int, t: int) -> Event:
    """Node v at point s, node u at point t, and every other node inside
    ``base`` (a point mask, or an n×m mask with one row per node) or, in
    existential mode, absent."""
    allowed = np.empty((g.n, g.m), dtype=bool)
    allowed[:] = base
    allowed[v] = allowed[u] = False
    allowed[v, s] = allowed[u, t] = True
    absent = np.full(g.n, g.presence_mode == EXISTENTIAL)
    absent[v] = absent[u] = False
    return Event(allowed, absent)


def mass_in(g: StochasticGraph, w: int, points, absent: bool = True) -> float:
    """Probability that node ``w`` realizes in ``points`` (point indices or a
    boolean mask over the points), plus its absence mass when ``absent`` and
    the presence mode allow it.  The point masses are summed by numpy first."""
    mass = float(g.probs[w, points].sum())
    return mass + float(g.outcome_probs[w, -1]) if absent else mass


def realization_probability(g: StochasticGraph, r: Realization) -> float:
    """Product of per-node marginals for one realization."""
    if len(r.indices) != g.n:
        raise ValidationError("realization does not match graph size")
    prob = 1.0
    for ni, pi in enumerate(r.indices):
        if pi < 0 and g.presence_mode != EXISTENTIAL:
            raise ValidationError("absent node in certain mode")
        if not -1 <= pi < g.m:
            raise ValidationError(f"point index {pi} out of range")
        prob *= float(g.outcome_probs[ni, pi])  # column -1 is the absence mass
    return prob


def expected_mass(g: StochasticGraph, H: Iterable) -> float:
    """p(H): expected number of nodes realized in the point set ``H``."""
    idx = g.space.indices(H)
    return float(g.probs[:, idx].sum())


def node_mass(g: StochasticGraph, v: Union[str, int], H: Iterable) -> float:
    """p_v(H): probability that node ``v`` realizes in the point set ``H``."""
    idx = g.space.indices(H)
    return float(g.probs[g.node_index(v), idx].sum())


def event_probability(g: StochasticGraph, event: Union[EventSpec, Event]) -> float:
    """Probability of a product-form event: the product of per-node masses."""
    event = as_event(g, event)
    prob = 1.0
    for v in range(g.n):
        prob *= mass_in(g, v, event.allowed[v], event.absent[v])
    return prob


# ---------------------------------------------------------------------------
# Instance JSON format
# ---------------------------------------------------------------------------
# {"points": [{"id": str, "coords": [f, ...]}, ...]        (coords optional)
#  "distance_matrix": [[f, ...], ...],                     (alternative)
#  "nodes": [{"id": str, "dist": {point_id: prob, ...}}, ...],
#  "presence_mode": "certain" | "existential"}

def _field(entry, key: str, kind: str):
    if not isinstance(entry, Mapping):
        raise ValidationError(f"each {kind} must be an object")
    if key not in entry:
        raise ValidationError(f'a {kind} has no "{key}"')
    return entry[key]


def _id(entry, kind: str) -> str:
    value = _field(entry, "id", kind)
    if not isinstance(value, str):
        raise ValidationError(f"{kind} ids are strings, got {value!r}")
    return value


def _numbers(value, what: str, scalar: bool = False):
    try:
        return float(value) if scalar else np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be numbers") from None


def instance_from_dict(doc: Mapping) -> StochasticGraph:
    if not isinstance(doc, Mapping):
        raise ValidationError("instance document must be a JSON object")
    if "points" not in doc or "nodes" not in doc:
        raise ValidationError('instance needs "points" and "nodes"')
    points, nodes = doc["points"], doc["nodes"]
    if not isinstance(points, list) or not isinstance(nodes, list):
        raise ValidationError('"points" and "nodes" must be lists')
    ids = []
    coords = []
    have_coords = True
    for entry in points:
        if isinstance(entry, str):
            ids.append(entry)
            have_coords = False
            continue
        ids.append(_id(entry, "point"))
        if "coords" in entry:
            coords.append(entry["coords"])
        else:
            have_coords = False
    if "distance_matrix" in doc:
        space = MetricSpace(ids, dist=_numbers(doc["distance_matrix"], "distance_matrix"))
    elif have_coords and coords:
        space = MetricSpace(ids, coords=_numbers(coords, "point coords"))
    else:
        raise ValidationError("points need coords, or provide a distance_matrix")

    node_ids = []
    rows = {}
    for entry in nodes:
        name = _id(entry, "node")
        dist = _field(entry, "dist", "node")
        if not isinstance(dist, Mapping):
            raise ValidationError(f'node {name}: "dist" must be an object')
        node_ids.append(name)
        rows[name] = {
            str(k): _numbers(p, f"node {name} probabilities", scalar=True)
            for k, p in dist.items()
        }
    mode = doc.get("presence_mode", CERTAIN)
    return StochasticGraph(node_ids, space, rows, presence_mode=mode)


def instance_to_dict(g: StochasticGraph) -> dict:
    points: list[dict] = []
    for i, p in enumerate(g.space.point_ids):
        entry: dict = {"id": p}
        if g.space.coords is not None:
            entry["coords"] = [float(x) for x in g.space.coords[i]]
        points.append(entry)
    doc: dict = {"points": points, "presence_mode": g.presence_mode}
    if g.space.coords is None:
        doc["distance_matrix"] = [[float(x) for x in row] for row in g.space.dist]
    doc["nodes"] = [
        {
            "id": v,
            "dist": {
                g.space.point_ids[s]: float(g.probs[vi, s])
                for s in range(g.m)
                if g.probs[vi, s] > 0.0
            },
        }
        for vi, v in enumerate(g.node_ids)
    ]
    return doc


def load_instance(path: str) -> StochasticGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: not valid UTF-8 JSON ({exc})") from None
    return instance_from_dict(doc)
