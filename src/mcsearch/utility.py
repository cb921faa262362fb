"""Tabulated utility functions, function-class membership tests, and the
closure operators (truncation, positive affine transformation, clamping).

Membership in the increasing / componentwise-convex / supermodular families
is decided by local constraints that, on a product of chains, exactly
characterize the class:

* increasing: every successor-edge difference is nonnegative;
* componentwise convex: along each axis line, slopes between consecutive
  nodes are nondecreasing (divided differences handle nonuniform spacing);
* supermodular: every elementary 2x2 cell of adjacent coordinates, for every
  pair of dimensions, has nonnegative cross-difference.

Joint convexity is tested as extendability to a convex function on R^K:
a subgradient g_i must exist at every node i, with
``u_j - u_i - g_i . (x_j - x_i) >= 0`` for every other node j.

Each class, the convex one included, has one cone representation, a
``ConeMatrix`` whose row ``r`` reads ``sum_c coeff[r, c] * v[idx[r, c]] >=
0``; membership and the dominance LP both use it.  For the local classes
``v`` is ``u``; for the convex class it is ``u`` followed by the
subgradients, one ``K``-vector per node.  One table, ``_LOCAL_FAMILIES``,
gives each local family as a stencil of node offsets with its shared
coefficients and witness order.  Each class's index block derives from it,
built once per grid shape and shared by every grid of that shape; only
the coefficients are computed per grid.  The convex test checks candidate
subgradients on their nodes' rows of that block by ``ConeMatrix.margins``
and solves an LP per node only where none holds.  Composite classes are
conjunctions.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .grids import Grid
from .simplex import check_entries, solve_lp

#: The one absolute tolerance of membership and dominance, so both premises
#: of a theorem are decided alike; no call sets its own.
MEMBERSHIP_TOL = 1e-9


class FunctionClass(enum.Enum):
    INCREASING = "increasing"
    CONVEX = "convex"
    COMPONENTWISE_CONVEX = "componentwise_convex"
    SUPERMODULAR = "supermodular"
    ULTRAMODULAR = "ultramodular"
    INCREASING_SUPERMODULAR = "increasing_supermodular"
    INCREASING_ULTRAMODULAR = "increasing_ultramodular"

    @classmethod
    def from_name(cls, name: str) -> "FunctionClass":
        try:
            return cls(name)
        except ValueError:
            choices = ", ".join(c.value for c in cls)
            raise ValueError(f"unknown function class {name!r}; choose one of {choices}") from None


#: Base families whose conjunction defines each class, in the order
#: membership reports violations.  ``convex`` rows carry subgradient
#: variables; the rest are local constraints on the values alone.
_FAMILIES: dict[FunctionClass, tuple[str, ...]] = {
    FunctionClass.INCREASING: ("increasing",),
    FunctionClass.CONVEX: ("convex",),
    FunctionClass.COMPONENTWISE_CONVEX: ("componentwise_convex",),
    FunctionClass.SUPERMODULAR: ("supermodular",),
    FunctionClass.ULTRAMODULAR: ("supermodular", "componentwise_convex"),
    FunctionClass.INCREASING_SUPERMODULAR: ("increasing", "supermodular"),
    FunctionClass.INCREASING_ULTRAMODULAR: (
        "increasing",
        "supermodular",
        "componentwise_convex",
    ),
}


@dataclass(frozen=True)
class TabulatedUtility:
    """Utility values at every grid node, in canonical node order."""

    grid: Grid
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.size:
            raise ValueError(
                f"need one value per node: got {len(self.values)}, grid has {self.grid.size}"
            )
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"utility values must be finite, got {v!r}")

    @cached_property
    def values_array(self) -> np.ndarray:
        out = np.asarray(self.values, dtype=float)
        out.setflags(write=False)
        return out

    def at(self, coords: Sequence[float]) -> float:
        return self.values[self.grid.node_index(coords)]


def tabulate(grid: Grid, values: Sequence[float]) -> TabulatedUtility:
    arr = np.asarray(values, dtype=float).reshape(-1)
    return TabulatedUtility(grid, tuple(arr.tolist()))


def tabulate_family(
    family: str,
    grid: Grid,
    *,
    a: Sequence[float] | None = None,
    values: Sequence[float] | None = None,
) -> TabulatedUtility:
    """Tabulate a closed-form utility family on a grid.

    Families and their expected memberships:

    * ``linear`` (requires ``a``): a . x.  With a >= 0 it belongs, weakly, to
      every class tested here (all its local constraints hold with equality
      or better).
    * ``product``: prod_k x_k.  On grids with nonnegative coordinates it is
      increasing ultramodular.
    * ``min``: min_k x_k.  Increasing supermodular, but in general not
      componentwise convex (the kink bends the wrong way).
    * ``custom`` (requires ``values``): explicit per-node values in canonical
      order.
    """
    nodes = grid.nodes
    if family == "linear":
        if a is None:
            raise ValueError("linear family needs coefficient vector a")
        coeff = np.asarray(a, dtype=float).reshape(-1)
        if coeff.size != grid.ndim:
            raise ValueError(f"a has {coeff.size} entries, grid is {grid.ndim}-D")
        return tabulate(grid, nodes @ coeff)
    if family == "product":
        return tabulate(grid, np.prod(nodes, axis=1))
    if family == "min":
        return tabulate(grid, nodes.min(axis=1))
    if family == "custom":
        if values is None:
            raise ValueError("custom family needs explicit values")
        return tabulate(grid, values)
    raise ValueError(f"unknown utility family {family!r}")


# ---------------------------------------------------------------------------
# cone matrices
# ---------------------------------------------------------------------------


#: The local families as stencils.  ``offsets`` gives a row's nodes, in
#: summation order, as multiples of the unit vectors of one axis (e_k) or
#: of two (e_p, e_q with p < q): increasing (e_k, 0), supermodular
#: (0, e_p+e_q, e_q, e_p), componentwise convex (0, e_k, 2e_k).  Each axis
#: or pair places the stencil at every node where all its nodes lie on the
#: grid.  ``coeff`` is shared by all the family's rows (None:
#: componentwise-convex ones depend on the coordinates) and ``witness``
#: lists the columns of its witness nodes, (lower, upper) and
#: (ll, lh, hl, hh).  Topology, row counts and widths all derive from this
#: table.  Convex rows (j, i, subgradient of i) are built apart: their
#: witness is a node's subgradient LP, not a row.
class _Stencil(NamedTuple):
    offsets: tuple[tuple[int, ...], ...]
    coeff: tuple[float, ...] | None
    witness: tuple[int, ...]


_LOCAL_FAMILIES: dict[str, _Stencil] = {
    "increasing": _Stencil(((1,), (0,)), (1.0, -1.0), (1, 0)),
    "supermodular": _Stencil(((0, 0), (1, 1), (0, 1), (1, 0)), (1.0, 1.0, -1.0, -1.0), (0, 2, 3, 1)),
    "componentwise_convex": _Stencil(((0,), (1,), (2,)), None, (0, 1, 2)),
}


#: Each family of a cone with the end of its rows.
Families = tuple[tuple[str, int], ...]


@dataclass(frozen=True, eq=False)
class ConeMatrix:
    """The constraints of a class cone on one grid.

    Row ``r`` reads ``sum_c coeff[r, c] * v[idx[r, c]] >= 0``, where ``v``
    is the values ``u`` and, for convex rows, the subgradients after them
    (node i's ``K`` components at ``n + i*K``).  Rows come in the class's
    family order; ``families`` pairs each family with the end of its rows.
    A row narrower than the matrix is padded with zero coefficients on its
    own last node.
    """

    idx: np.ndarray
    coeff: np.ndarray
    families: Families

    def __len__(self) -> int:
        return self.idx.shape[0]

    def margins(self, values: np.ndarray, rows: slice | np.ndarray = slice(None)) -> np.ndarray:
        """Slack of ``rows`` (all by default), summed one column at a time:
        no row is copied, and two row-length temporaries are held at once."""
        out = 0.0
        for column, weights in zip(self.idx.T, self.coeff.T):
            term = values[column[rows]]
            term *= weights[rows]
            out += term
            del term  # before the next column's gather
        return out

    def witness(self, grid: Grid, r: int, margin: float) -> Witness:
        """The violated constraint of row ``r``, nodes in witness order."""
        family = next(f for f, stop in self.families if r < stop)
        nodes = self.idx[r, _LOCAL_FAMILIES[family].witness]
        return Witness(family, tuple(grid.node(i) for i in nodes), margin)


def _stencils(family: str, ndim: int) -> np.ndarray:
    """A local family's stencils on ``ndim`` axes as one (S, width, ndim)
    array of node offsets: one stencil per axis, or per pair of axes
    ``p < q``, in order."""
    offsets = np.array(_LOCAL_FAMILIES[family].offsets)
    arity = offsets.shape[1]
    axes = np.array(list(itertools.combinations(range(ndim), arity)), dtype=np.intp)
    return offsets @ np.eye(ndim, dtype=np.intp)[axes.reshape(-1, arity)]


def _family_index(shape: tuple[int, ...], family: str) -> np.ndarray:
    """Node indices of one family's rows on a grid of this shape.  Local
    rows place the family's stencils at every node where all their nodes
    lie on the grid: over the nodes in C order and, at each, over the
    stencils.  Convex rows are the ordered pairs ``i != j``, i-major."""
    n, ndim = math.prod(shape), len(shape)
    if family == "convex":
        # node i down the rows, every other node j across them
        idx = np.empty((n * (n - 1), 2 + ndim), dtype=np.intp)
        i, j = idx[:, 1], idx[:, 0]
        i[:] = np.repeat(np.arange(n), n - 1)
        j[:] = np.tile(np.arange(n - 1), n)
        j += j >= i
        idx[:, 2:] = np.arange(ndim)
        idx[:, 2:] += (n + ndim * i)[:, None]
        return idx
    stencils = _stencils(family, ndim)
    multi = np.indices(shape).reshape(ndim, -1).T
    stride = np.array([math.prod(shape[k + 1 :]) for k in range(ndim)])
    valid = (multi[:, None] + stencils.max(axis=1) < np.array(shape)).all(axis=-1)
    return (np.arange(n)[:, None, None] + stencils @ stride)[valid]


@functools.lru_cache(maxsize=64)
def _cone_index(shape: tuple[int, ...], function_class: FunctionClass) -> tuple[np.ndarray, Families]:
    """The class cone's index block on every grid of this shape, and its
    ``families``.  It is read-only because the cache shares it."""
    families = _FAMILIES[function_class]
    blocks = [_family_index(shape, family) for family in families]
    stops = np.cumsum([len(block) for block in blocks]).tolist()
    idx = np.empty((stops[-1], max(block.shape[1] for block in blocks)), dtype=np.intp)
    for block, stop in zip(blocks, stops):
        rows, w = slice(stop - len(block), stop), block.shape[1]
        idx[rows, :w] = block
        idx[rows, w:] = block[:, -1:]
    idx.setflags(write=False)
    return idx, tuple(zip(families, stops))


@functools.lru_cache(maxsize=64)
def cone_size(shape: tuple[int, ...], function_class: FunctionClass) -> tuple[int, int, int]:
    """``(rows, width, variables)`` of the class cone on a grid of this
    shape, counted exactly in Python integers without building any rows:
    ``len(local_rows(grid, function_class))``, its index width and the
    length of the ``v`` its rows read."""
    shape = tuple(map(int, shape))
    n, ndim = math.prod(shape), len(shape)
    if function_class is FunctionClass.CONVEX:
        # every ordered pair of nodes, over the values and one subgradient each
        return n * (n - 1), 2 + ndim, n + n * ndim
    stencils = [_stencils(family, ndim) for family in _FAMILIES[function_class]]
    # a stencil fits at (extent - reach)+ positions along each axis
    reaches = np.vstack([s.max(axis=1) for s in stencils]).tolist()
    rows = sum(math.prod(max(e - r, 0) for e, r in zip(shape, reach)) for reach in reaches)
    return rows, max(s.shape[1] for s in stencils), n


def check_cone(shape: tuple[int, ...], function_class: FunctionClass) -> None:
    """``simplex.check_entries`` on the class cone's index block (rows x
    width) on this shape, from ``cone_size``'s counts alone."""
    rows, width, _ = cone_size(shape, function_class)
    check_entries(f"{function_class.value} cone", rows, width)


def local_rows(grid: Grid, function_class: FunctionClass) -> ConeMatrix:
    """The class cone on this grid as one ``ConeMatrix``.

    ``idx`` is the index block that every grid of this shape shares, built
    once; each call computes only the coefficients that depend on the
    coordinates: ``1/h1, -(1/h1 + 1/h2), 1/h2`` for componentwise-convex
    rows and ``1, -1, -(x_j - x_i)`` for convex rows.  ``check_cone``
    refuses a block past ``simplex.TABLEAU_ENTRY_GUARD`` entries (rows x
    width) with ``ValueError`` before any of it is built.
    """
    check_cone(grid.shape, function_class)
    idx, families = _cone_index(grid.shape, function_class)
    coeff = np.zeros(idx.shape)
    nodes = grid.nodes
    start = 0
    for family, stop in families:
        rows = slice(start, stop)
        block, start = idx[rows], stop
        if family == "convex":
            # -(x_j - x_i), not x_i - x_j: a zero difference stays -0.0
            coeff[rows, :2] = (1.0, -1.0)
            grad = coeff[rows, 2:]
            np.subtract(nodes[block[:, 0]], nodes[block[:, 1]], out=grad)
            np.negative(grad, out=grad)
            continue
        shared = _LOCAL_FAMILIES[family].coeff
        if shared is None:
            # a row's nodes differ only along its axis, so the largest
            # coordinate difference of two of them is their axis spacing
            inv_h1 = 1.0 / (nodes[block[:, 1]] - nodes[block[:, 0]]).max(axis=1)
            inv_h2 = 1.0 / (nodes[block[:, 2]] - nodes[block[:, 1]]).max(axis=1)
            shared = np.stack([inv_h1, -(inv_h1 + inv_h2), inv_h2], axis=-1)
        coeff[rows, : len(_LOCAL_FAMILIES[family].offsets)] = shared
    return ConeMatrix(idx, coeff, families)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A violated constraint: the lexicographically first one found.

    ``margin`` is the signed slack of the constraint (membership needs
    margin >= -MEMBERSHIP_TOL everywhere, so a witness's is below that).
    """

    constraint: str
    nodes: tuple[tuple[float, ...], ...]
    margin: float


@dataclass(frozen=True)
class MembershipResult:
    """A verdict at the fixed ``MEMBERSHIP_TOL``.  ``reason`` names the LP
    status when a subgradient LP failed; its node's witness margin is -inf."""

    member: bool
    function_class: FunctionClass
    witness: Witness | None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.member


def _convex_membership(u: TabulatedUtility) -> MembershipResult:
    """Certify every node by a subgradient checked on its own rows of the
    cone.  The increasing cone's rows are the grid's edges; on each axis
    they give the difference quotients, offered first as the forward field
    and then as the backward one (at an end of an axis, the quotient that
    exists; 0 on an axis of one node).  Then, in rounds until one certifies
    none, each uncertified node is offered a certified neighbour's
    subgradient, one axis and direction at a time (a kink node of a
    max-affine U shares a piece with a neighbour).  Only then does the
    first node still uncertified solve its LP, whose optimum above the
    tolerance is the witness; else its subgradient is held and the rounds
    resume.  A candidate only certifies a node whose LP optimum is within
    the tolerance, so the verdict is that of one LP per node."""
    grid = u.grid
    n, k = grid.size, grid.ndim
    cone = local_rows(grid, FunctionClass.CONVEX)
    vals, x = u.values_array, grid.nodes
    held = np.zeros((n, k))
    certified = np.zeros(n, dtype=bool)

    def offer(nodes: np.ndarray, g: np.ndarray) -> bool:
        """Certify each of ``nodes`` whose candidate ``g`` (one row per
        node) leaves each of the node's own rows a slack of at least
        ``-MEMBERSHIP_TOL``; whether any was."""
        field = np.zeros((n, k))
        field[nodes] = g
        v = np.concatenate([vals, field.reshape(-1)])
        rows = (nodes[:, None] * (n - 1) + np.arange(n - 1)).reshape(-1)
        slack = cone.margins(v, rows).reshape(len(nodes), n - 1)
        hit = slack.min(axis=1, initial=np.inf) >= -MEMBERSHIP_TOL
        certified[nodes[hit]] = True
        held[nodes[hit]] = g[hit]
        return bool(hit.any())

    # the increasing cone's rows (upper, lower) are the grid's edges, an
    # axis's one stride apart; an axis of one node has none
    upper, lower = _cone_index(grid.shape, FunctionClass.INCREASING)[0].T
    forward, backward = np.zeros((n, k)), np.zeros((n, k))
    neighbours = []
    for a, extent in enumerate(grid.shape):
        if extent == 1:
            continue
        on = upper - lower == math.prod(grid.shape[a + 1 :])
        lo, up = lower[on], upper[on]
        slope = (vals[up] - vals[lo]) / (x[up, a] - x[lo, a])
        # each field takes every edge's slope at both its nodes, its own
        # side's last: a node with no edge on that side keeps the other's
        forward[up, a] = backward[lo, a] = slope
        forward[lo, a] = backward[up, a] = slope
        neighbours += [(lo, up), (up, lo)]
    for field in (forward, backward):
        rest = np.flatnonzero(~certified)
        if rest.size:
            offer(rest, field[rest])
    while True:
        # nodes in one affine piece share a subgradient: pass each held one
        # to the uncertified neighbours, axis by axis, until none takes it
        grew = False
        for node, other in neighbours:
            open_ = ~certified[node] & certified[other]
            if open_.any():
                grew |= offer(node[open_], held[other[open_]])
        if grew:
            continue
        rest = np.flatnonzero(~certified)
        if not rest.size:
            return MembershipResult(True, FunctionClass.CONVEX, None)
        # min v s.t. g . (x_j - x_i) - (u_j - u_i) <= v for all j, with v
        # floored at -1 to keep the program bounded
        i = int(rest[0])
        rows = slice(i * (n - 1), (i + 1) * (n - 1))
        a_ub = np.hstack([-cone.coeff[rows, 2:], -np.ones((n - 1, 1))])
        c = np.zeros(k + 1)
        c[-1] = 1.0
        bounds = [(None, None)] * k + [(-1.0, None)]
        res = solve_lp(c, a_ub=a_ub, b_ub=vals[cone.idx[rows, 0]] - vals[i], bounds=bounds)
        if not res.ok or res.fun > MEMBERSHIP_TOL:
            margin = -float(res.fun) if res.ok else -math.inf
            reason = None if res.ok else f"LP status: {res.status}"
            witness = Witness("subgradient", (grid.node(i),), margin)
            return MembershipResult(False, FunctionClass.CONVEX, witness, reason)
        certified[i] = True
        held[i] = res.x[:k]


def is_member(u: TabulatedUtility, function_class: FunctionClass) -> MembershipResult:
    """Test class membership; on failure report the first violated constraint.

    ``tol`` is ``MEMBERSHIP_TOL``, fixed, not set per call.  Local classes
    evaluate every row of the class's ``ConeMatrix`` at once; the witness is
    the first row with slack below ``-tol``, so families are checked in
    class order (increasing, supermodular, componentwise convex) and rows
    within a family in C node order.

    The convex class needs a subgradient g at every node i with
    ``max_j (g . (x_j - x_i) - (u_j - u_i)) <= tol``; the witness is the
    first node in C order with none, with margin ``-v*`` for ``v*`` the
    optimum of its LP min_g max(that maximum, -1).  A failed LP ends the
    test as a non-member with margin ``-inf`` and ``reason`` naming the LP
    status.
    """
    if function_class is FunctionClass.CONVEX:
        return _convex_membership(u)
    cone = local_rows(u.grid, function_class)
    margins = cone.margins(u.values_array)
    violated = np.flatnonzero(margins < -MEMBERSHIP_TOL)
    if violated.size:
        r = int(violated[0])
        witness = cone.witness(u.grid, r, float(margins[r]))
        return MembershipResult(False, function_class, witness)
    return MembershipResult(True, function_class, None)


# ---------------------------------------------------------------------------
# closure operators
# ---------------------------------------------------------------------------


def truncate(u: TabulatedUtility) -> TabulatedUtility:
    """Pointwise max(u, 0), that is ``clamp_below(u, 0.0)``."""
    return clamp_below(u, 0.0)


def affine_transform(u: TabulatedUtility, m: float, n: float) -> TabulatedUtility:
    """Positive affine transformation m*u + n with m > 0 and intercept
    restricted to n >= 0."""
    if not (m > 0):
        raise ValueError(f"slope m must be positive, got {m}")
    if not (n >= 0):
        raise ValueError(f"intercept n must be nonnegative, got {n}")
    return tabulate(u.grid, m * u.values_array + n)


def clamp_below(u: TabulatedUtility, level: float) -> TabulatedUtility:
    """Pointwise max(u, level)."""
    if not math.isfinite(level):
        raise ValueError(f"clamp level must be finite, got {level}")
    return tabulate(u.grid, np.maximum(u.values_array, level))


# ---------------------------------------------------------------------------
# constructive random members
# ---------------------------------------------------------------------------


def _axis_profile(rng: np.random.Generator, axis: tuple[float, ...], kind: str) -> np.ndarray:
    """Random 1-D tabulation on one axis with the requested shape property."""
    t = np.asarray(axis, dtype=float)
    n = t.size
    if kind == "arbitrary":
        return rng.normal(0.0, 1.0, size=n)
    if kind == "increasing_nonneg":
        steps = rng.uniform(0.0, 1.0, size=n - 1) if n > 1 else np.zeros(0)
        return rng.uniform(0.0, 0.5) + np.concatenate([[0.0], np.cumsum(steps)])
    if kind == "increasing_convex_nonneg":
        start = rng.uniform(0.0, 0.5)
        if n == 1:
            return np.array([start])
        slopes = np.cumsum(rng.uniform(0.05, 1.0, size=n - 1))
        return start + np.concatenate([[0.0], np.cumsum(slopes * np.diff(t))])
    if kind == "convex":
        start = rng.normal(0.0, 1.0)
        if n == 1:
            return np.array([start])
        slopes = np.sort(rng.normal(0.0, 1.0, size=n - 1))
        return start + np.concatenate([[0.0], np.cumsum(slopes * np.diff(t))])
    if kind == "convex_nonneg":
        theta = rng.uniform(t[0], t[-1])
        return rng.uniform(0.2, 1.5) * np.abs(t - theta)
    raise ValueError(f"unknown profile kind {kind!r}")


def _step_indicator(grid: Grid, anchor: np.ndarray) -> np.ndarray:
    return np.all(grid.nodes >= anchor, axis=1).astype(float)


def _random_values(function_class: FunctionClass, grid: Grid, rng: np.random.Generator) -> np.ndarray:
    nodes = grid.nodes
    K = grid.ndim

    def profiles(op: np.ufunc, kind: str) -> np.ndarray:
        """``op`` (np.add or np.multiply) folded over one random ``kind``
        profile per axis, in axis order, from the identity 0.0 or 1.0."""
        out = np.full(grid.shape, float(op.identity))
        for k, ax in enumerate(grid.axes):
            shape = [1] * K
            shape[k] = len(ax)
            out = op(out, _axis_profile(rng, ax, kind).reshape(shape))
        return out.reshape(-1)

    def steps(count: int) -> np.ndarray:
        out = np.zeros(grid.size)
        for _ in range(count):
            anchor = nodes[rng.integers(grid.size)]
            out += rng.uniform(0.2, 1.5) * _step_indicator(grid, anchor)
        return out

    def max_affine(count: int) -> np.ndarray:
        planes = [
            nodes @ rng.normal(0.0, 1.0, size=K) + rng.normal(0.0, 1.0)
            for _ in range(count)
        ]
        return np.max(np.stack(planes), axis=0)

    fc = FunctionClass
    if function_class is fc.INCREASING:
        v = steps(int(rng.integers(1, 4))) + nodes @ rng.uniform(0.0, 1.0, size=K)
        if rng.random() < 0.5:
            v = v + profiles(np.add, "increasing_nonneg")
        return v
    if function_class is fc.CONVEX:
        v = max_affine(int(rng.integers(2, 5))) + nodes @ rng.normal(0.0, 0.5, size=K)
        if rng.random() < 0.5:
            v = v + rng.uniform(0.2, 1.0) * max_affine(2)
        return v
    if function_class is fc.COMPONENTWISE_CONVEX:
        v = profiles(np.add, "convex")
        if rng.random() < 0.5:
            v = v + rng.uniform(0.2, 1.0) * profiles(np.multiply, "convex_nonneg")
        return v + nodes @ rng.normal(0.0, 0.5, size=K)
    if function_class is fc.SUPERMODULAR:
        v = profiles(np.add, "arbitrary")
        v = v + rng.uniform(0.2, 1.0) * profiles(np.multiply, "increasing_nonneg")
        if rng.random() < 0.5:
            v = v + steps(int(rng.integers(1, 3)))
        return v
    if function_class is fc.ULTRAMODULAR:
        v = profiles(np.add, "convex")
        v = v + rng.uniform(0.2, 1.0) * profiles(np.multiply, "increasing_convex_nonneg")
        return v + nodes @ rng.normal(0.0, 0.5, size=K)
    if function_class is fc.INCREASING_SUPERMODULAR:
        v = steps(int(rng.integers(1, 4)))
        v = v + rng.uniform(0.2, 1.0) * profiles(np.multiply, "increasing_nonneg")
        return v + nodes @ rng.uniform(0.0, 1.0, size=K)
    if function_class is fc.INCREASING_ULTRAMODULAR:
        v = profiles(np.multiply, "increasing_convex_nonneg")
        v = v + profiles(np.add, "increasing_convex_nonneg")
        return v + nodes @ rng.uniform(0.0, 1.0, size=K)
    raise ValueError(f"no generator for {function_class}")


def random_member(
    function_class: FunctionClass, grid: Grid, rng: np.random.Generator
) -> TabulatedUtility:
    """Draw a random member of a function class, a member by construction;
    ``is_member`` certifies it where a premise is decided.

    The values are a nonnegative combination of sound generators (upper-set
    step indicators, products and sums of per-axis profiles, maxima of
    affine pieces), rescaled to peak at 5 in absolute value.
    """
    values = _random_values(function_class, grid, rng)
    return tabulate(grid, values * (5.0 / float(np.abs(values).max())))
