"""Regular Gaussian models whose covariance zero pattern follows a graph.

A model is a mean vector plus a symmetric positive definite covariance
matrix.  Sampling draws diagonal entries from (n-0.5, n+0.5) and edge
entries from [-1, 1]: the matrix is then strictly diagonally dominant, so
it is positive definite for every draw, and its off-diagonal zeros sit
exactly on the non-edges.  Conditional independence i | j given K holds
iff det(sigma[{i} | K, {j} | K]) vanishes.

Every verdict is exact, on the integer matrix S = sigma * 2**shift the
model keeps.  Positive definiteness is certified first by strict
diagonal dominance with a positive diagonal (Levy-Desplanques, a
corollary of Gershgorin's circle theorem), an O(n**2) integer test that
every sampled model passes; a matrix that fails it goes to one
fraction-free elimination (`_leading_minors`), which also decides each
`ci_test` by an exact zero.  The sweeps read every minor of a trial from
one table built on S by the same identity (`_minors`).  No float
arithmetic decides a verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import inf, isfinite
from typing import Optional, Sequence

from .graphs import MixedGraph, NodeSet, bit, iter_nodes

# Graph recovery takes a tolerance and refuses a bad one; every test is
# exact, so the value has no other effect.
DEFAULT_TOL = 1e-9


def _leading_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """det rows[:m, :m] for m = 1, 2, ... of an integer matrix, up to and
    including the first that is not positive.

    Bareiss's fraction-free elimination without pivoting: after step m,
    entry (r, c) with r, c > m is det rows[[0..m, r], [0..m, c]] by
    Sylvester's identity, so each division by the previous pivot is exact
    and entry (m + 1, m + 1) is the next leading minor.
    """
    a = [list(row) for row in rows]
    n = len(a)
    minors = []
    prev = 1
    for m in range(n):
        top = a[m]
        pivot = top[m]
        minors.append(pivot)
        if pivot <= 0:
            break
        for r in range(m + 1, n):
            row = a[r]
            first = row[m]
            for c in range(m + 1, n):
                row[c] = (row[c] * pivot - first * top[c]) // prev
        prev = pivot
    return minors


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector and covariance matrix; construction certifies symmetry
    and, exactly, positive definiteness.

    Every float is dyadic, so S = sigma * 2**shift is an integer matrix.
    The model keeps shift and S, row by row in one flat tuple.  Sigma is
    positive definite when every row of S has 2 * S[r][r] > sum(|S[r]|),
    strict diagonal dominance with a positive diagonal (Levy-Desplanques);
    otherwise it is positive definite iff every leading principal minor
    of S is positive (Sylvester's criterion), by one Bareiss elimination.
    The first test is sufficient and the second exact, so together they
    accept exactly the positive definite matrices.
    """

    mean: tuple[float, ...]
    sigma: tuple[tuple[float, ...], ...]
    _shift: int = field(init=False, repr=False, compare=False)
    _scaled: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.mean)
        if len(self.sigma) != n or any(len(row) != n for row in self.sigma):
            raise ValueError("sigma must be square and match the mean length")
        if not all(map(isfinite, self.mean)):
            raise ValueError("mean must be finite")
        for i in range(n):
            for j in range(i):
                if self.sigma[i][j] != self.sigma[j][i]:
                    raise ValueError("sigma must be symmetric")
        try:
            ratios = [v.as_integer_ratio() for row in self.sigma for v in row]
        except (OverflowError, ValueError):  # an infinite or NaN entry
            raise ValueError("sigma must be positive definite") from None
        shift = max([q for _p, q in ratios], default=1).bit_length() - 1
        scaled = tuple([p << (shift + 1 - q.bit_length()) for p, q in ratios])
        rows = [scaled[r * n:(r + 1) * n] for r in range(n)]
        if not (all(2 * row[r] > sum(map(abs, row)) for r, row in enumerate(rows))
                or all(m > 0 for m in _leading_minors(rows))):
            raise ValueError("sigma must be positive definite")
        object.__setattr__(self, "_shift", shift)
        object.__setattr__(self, "_scaled", scaled)

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


def ci_test(model: GaussianModel, i: int, j: int, k: NodeSet) -> bool:
    """True when the model carries i independent of j given K.

    Decided exactly: det S[K + [i], K + [j]], with K's rows and columns
    placed first, is the last leading minor of that submatrix, and the
    test reads independence when it is zero.  The minors before it are
    principal minors of S, positive because construction certified S
    positive definite, so the elimination needs no pivoting.
    """
    n = model.n
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError("i and j must be distinct nodes of the model")
    if k & (bit(i) | bit(j)) or k >> n:
        raise ValueError("K must avoid i, j and stay inside the model")
    ks = list(iter_nodes(k))
    s = model._scaled
    return _leading_minors([[s[r * n + c] for c in [*ks, j]] for r in [*ks, i]])[-1] == 0


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


def _minors(model: GaussianModel) -> list[Optional[list[int]]]:
    """Every minor the determinant tests of a model read, exactly.

    table[K][a * n + b] is E(a, b, K) = det S[{a} | K, {b} | K] of the
    model's integer matrix S = sigma * 2**shift, for a != b outside K
    with |K| <= n - 2, and for a == b with |K| <= n - 3.  Each K comes
    from its parent P = K minus its top node k by Sylvester's identity,
    the step of Bareiss's fraction-free elimination:
    E(a, b, K) * det S[P, P] = E(a, b, P) * E(k, k, P) - E(a, k, P) * E(k, b, P).
    The division is exact, and det S[P, P] > 0 because construction
    certified S positive definite.  S is symmetric, so each entry is
    computed once for a <= b and stored at both positions.
    """
    n = model.n
    table: list[Optional[list[int]]] = [None] * (1 << n)
    table[0] = list(model._scaled)
    pivots = [1] * (1 << n)  # pivots[K] = det S[K, K]
    for mask, parent, at, cells in _minor_steps(n):
        e, d = table[parent], pivots[parent]
        kk = pivots[mask] = e[at]
        f = [0] * (n * n)
        for ab, ba, ak, kb in cells:
            f[ab] = f[ba] = (e[ab] * kk - e[ak] * e[kb]) // d
        table[mask] = f
    return table


def _graph_of(
    model: GaussianModel, tol: float, labels: Sequence[str], given: NodeSet
) -> MixedGraph:
    """UG joining exactly the pairs i, j dependent given `given` minus i, j.
    `tol` is checked and has no other effect: every test is exact."""
    require_tolerance(tol)
    n = model.n
    edges = frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not ci_test(model, i, j, given & ~bit(i) & ~bit(j))
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
