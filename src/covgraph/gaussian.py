"""Regular Gaussian models whose covariance zero pattern follows a graph.

A model is a mean vector plus a symmetric positive definite covariance
matrix.  Sampling draws diagonal entries from (n-0.5, n+0.5) and edge
entries from [-1, 1]: the matrix is then strictly diagonally dominant, so
it is positive definite for every draw, and its off-diagonal zeros sit
exactly on the non-edges.  Conditional independence i | j given K holds
iff det(sigma[{i} | K, {j} | K]) vanishes.

`ci_test` answers one query with an LU determinant and a relative
tolerance.  The sweeps read every determinant of a trial from one exact
minor table instead (`_minors`, integer arithmetic by Sylvester's
identity) and take an exact zero as the verdict; `ci_test` is the oracle
tests compare that row against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import inf, prod, sqrt
from typing import Optional, Sequence

from .graphs import MixedGraph, NodeSet, bit, iter_nodes

DEFAULT_TOL = 1e-9


def det(rows: Sequence[Sequence[float]]) -> float:
    """Determinant by LU elimination with partial pivoting."""
    n = len(rows)
    if n == 0:
        return 1.0
    a = [list(r) for r in rows]
    sign = 1.0
    for col in range(n):
        piv_row = col
        best = abs(a[col][col])
        for r in range(col + 1, n):
            mag = abs(a[r][col])
            if mag > best:
                best = mag
                piv_row = r
        piv = a[piv_row][col]
        if piv == 0.0:
            return 0.0
        if piv_row != col:
            a[piv_row], a[col] = a[col], a[piv_row]
            sign = -sign
        prow = a[col]
        for r in range(col + 1, n):
            f = a[r][col] / piv
            if f:
                row = a[r]
                for c in range(col + 1, n):
                    row[c] -= f * prow[c]
    out = sign
    for i in range(n):
        out *= a[i][i]
    return out


def cholesky(rows: Sequence[Sequence[float]]) -> Optional[list[list[float]]]:
    """Lower-triangular Cholesky factor, or None when not positive definite."""
    n = len(rows)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = rows[i][j] - sum(low[i][k] * low[j][k] for k in range(j))
            if i == j:
                if not 0.0 < s < inf:  # NaN fails this test too
                    return None
                low[i][i] = sqrt(s)
            else:
                low[i][j] = s / low[j][j]
    return low


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector and covariance matrix; construction certifies symmetry
    and positive definiteness."""

    mean: tuple[float, ...]
    sigma: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.mean)
        if len(self.sigma) != n or any(len(row) != n for row in self.sigma):
            raise ValueError("sigma must be square and match the mean length")
        for i in range(n):
            for j in range(i):
                if self.sigma[i][j] != self.sigma[j][i]:
                    raise ValueError("sigma must be symmetric")
        if cholesky(self.sigma) is None:
            raise ValueError("sigma must be positive definite")

    @property
    def n(self) -> int:
        return len(self.mean)


def nd_dimension(g: MixedGraph) -> int:
    """Free parameters of the graph-constrained Gaussian family: the mean,
    the diagonal, and one covariance per edge."""
    if g.directed:
        raise ValueError("nd dimension is defined for undirected graphs")
    return 2 * g.n + len(g.undirected)


def trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def sample_markov_gaussian(g: MixedGraph, seed: int) -> GaussianModel:
    """Deterministic-in-seed draw of a model Markov to the graph.

    Draw order: diagonal by node index, edge entries in sorted edge order,
    then the mean.  Non-edges are exactly zero.
    """
    if g.directed:
        raise ValueError("sampling requires an undirected graph")
    if seed < 0:
        raise ValueError("seed must not be negative")
    rng = random.Random(seed)
    n = g.n
    sig = [[0.0] * n for _ in range(n)]
    for i in range(n):
        sig[i][i] = rng.uniform(n - 0.5, n + 0.5)
    for i, j in sorted(g.undirected):
        v = rng.uniform(-1.0, 1.0)
        sig[i][j] = v
        sig[j][i] = v
    mean = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
    return GaussianModel(mean, tuple(tuple(row) for row in sig))


def require_tolerance(tol: float) -> None:
    """Refuse a tolerance outside 0 < tol < inf, NaN included."""
    if not 0 < tol < inf:
        raise ValueError("tolerance must be positive and finite")


def ci_test(
    model: GaussianModel, i: int, j: int, k: NodeSet, tol: float = DEFAULT_TOL
) -> bool:
    """True when the model carries i independent of j given K.

    Decided by det(sigma[{i} | K, {j} | K]) compared against tol times the
    product of the rows' largest magnitudes.  Positive definiteness is
    certified at model construction, which makes det(sigma[ijK, ijK])
    positive for every query, so the determinant criterion is well posed.
    """
    require_tolerance(tol)
    n = model.n
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError("i and j must be distinct nodes of the model")
    if k & (bit(i) | bit(j)) or k >> n:
        raise ValueError("K must avoid i, j and stay inside the model")
    ks = list(iter_nodes(k))
    sub = [[model.sigma[r][c] for c in [j, *ks]] for r in [i, *ks]]
    return abs(det(sub)) <= tol * prod(max(map(abs, row)) for row in sub)


@lru_cache(maxsize=None)
def _minor_steps(n: int) -> tuple[tuple[int, int, int, tuple[tuple[int, ...], ...]], ...]:
    """The steps of `_minors` at size n, in mask order: (K, P, kk, cells)
    with P = K minus its top node k, kk the position of (k, k), and per
    computed entry (a, b) the positions (ab, ba, ak, kb).  Diagonal entries
    are computed only where a larger K reads them as a pivot."""
    steps = []
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > n - 2:
            continue
        k = mask.bit_length() - 1
        out = [a for a in range(n) if not mask >> a & 1]
        cells = tuple((a * n + b, b * n + a, a * n + k, k * n + b)
                      for x, a in enumerate(out) for b in out[x + (size == n - 2):])
        steps.append((mask, mask ^ bit(k), k * n + k, cells))
    return tuple(steps)


def _minors(sigma: Sequence[Sequence[float]]) -> tuple[int, list[Optional[list[int]]]]:
    """Every minor the determinant tests of a model read, exactly.

    Returns (shift, table): S = sigma * 2**shift is an integer matrix,
    since every float is dyadic, and table[K][a * n + b] is
    E(a, b, K) = det S[{a} | K, {b} | K] for a != b outside K with
    |K| <= n - 2, and for a == b with |K| <= n - 3.  Each K comes from its
    parent P = K minus its top node k by Sylvester's identity, the step of
    Bareiss's fraction-free elimination:
    E(a, b, K) * det S[P, P] = E(a, b, P) * E(k, k, P) - E(a, k, P) * E(k, b, P).
    The division is exact, and det S[P, P] > 0 when sigma is positive
    definite.  S is symmetric, so each entry is computed once for a <= b
    and stored at both positions.
    """
    n = len(sigma)
    ratios = [v.as_integer_ratio() for row in sigma for v in row]
    shift = max((q for _p, q in ratios), default=1).bit_length() - 1
    table: list[Optional[list[int]]] = [None] * (1 << n)
    table[0] = [p << (shift + 1 - q.bit_length()) for p, q in ratios]
    pivots = [1] * (1 << n)  # pivots[K] = det S[K, K]
    for mask, parent, at, cells in _minor_steps(n):
        e, d = table[parent], pivots[parent]
        kk = pivots[mask] = e[at]
        f = [0] * (n * n)
        for ab, ba, ak, kb in cells:
            f[ab] = f[ba] = (e[ab] * kk - e[ak] * e[kb]) // d
        table[mask] = f
    return shift, table


def _graph_of(
    model: GaussianModel, tol: float, labels: Sequence[str], given: NodeSet
) -> MixedGraph:
    """UG joining exactly the pairs i, j dependent given `given` minus i, j."""
    require_tolerance(tol)
    n = model.n
    edges = frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not ci_test(model, i, j, given & ~bit(i) & ~bit(j), tol)
    )
    return MixedGraph(n, tuple(labels), edges, frozenset())


def covariance_graph_of(
    model: GaussianModel, tol: float, labels: Sequence[str]
) -> MixedGraph:
    """UG joining exactly the marginally dependent pairs."""
    return _graph_of(model, tol, labels, 0)


def concentration_graph_of(
    model: GaussianModel, tol: float, labels: Sequence[str]
) -> MixedGraph:
    """UG joining exactly the pairs dependent given all remaining nodes."""
    return _graph_of(model, tol, labels, (1 << model.n) - 1)


def dump_model(model: GaussianModel) -> str:
    """Plain-text matrix dump: n, then the covariance rows."""
    lines = [str(model.n)]
    for row in model.sigma:
        lines.append(" ".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"
