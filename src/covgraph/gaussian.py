"""Regular Gaussian models whose covariance zero pattern follows a graph.

A model is a mean vector plus a symmetric positive definite covariance
matrix.  Sampling draws diagonal entries from (n-0.5, n+0.5) and edge
entries from [-1, 1]: the matrix is then strictly diagonally dominant, so
it is positive definite for every draw, and its off-diagonal zeros sit
exactly on the non-edges.  Conditional independence i | j given K holds
iff det(sigma[{i} | K, {j} | K]) vanishes.

Every verdict is exact, on the integer matrix S = sigma * 2**shift the
model keeps.  One certificate serves every matrix (`_certify`): strict
diagonal dominance with a positive diagonal (`_dominant`;
Levy-Desplanques, a corollary of Gershgorin's circle theorem), an
integer test that every sampled model passes; a matrix that fails it
goes to one fraction-free elimination (`_leading_minors`), which also
decides each `ci_test` by an exact zero.  Sampling is one draw
(`_draw`) that builds S from the n + |E| nonzero entries alone and
certifies it; `sample_markov_gaussian` wraps it in a `GaussianModel`,
and the sweeps read every minor of a trial from one table built on the
drawn S by the same identity (`_minors`), with no model per trial.  No
float arithmetic decides a verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import inf, isfinite
from operator import gt
from typing import Iterable, Optional, Sequence

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


def _dominant(diagonal: Iterable[int], off: Iterable[int]) -> bool:
    """Strict diagonal dominance with a positive diagonal: every diagonal
    entry exceeds `off`, its row's sum of absolute off-diagonal entries.
    A symmetric matrix that has it is positive definite (Levy-Desplanques,
    a corollary of Gershgorin's circle theorem)."""
    return all(map(gt, diagonal, off))


def _certify(n: int, s: Sequence[int], off: Sequence[int]) -> None:
    """Refuse the symmetric n x n integer matrix s, flat by rows, unless
    it is positive definite; off[r] is the sum of |s[r][c]| over c != r.
    `_dominant` is sufficient, in O(n) once `off` is known; a matrix that
    fails it is positive definite iff every leading principal minor is
    positive (Sylvester's criterion), by one Bareiss elimination.  The
    first test is sufficient and the second exact, so together they
    accept exactly the positive definite matrices."""
    if not (_dominant(s[::n + 1], off)
            or all(m > 0 for m in _leading_minors([s[r * n:(r + 1) * n] for r in range(n)]))):
        raise ValueError("sigma must be positive definite")


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector and covariance matrix; construction certifies symmetry
    and, exactly, positive definiteness.

    Every float is dyadic, so S = sigma * 2**shift is an integer matrix.
    The model keeps shift and S, row by row in one flat tuple, and
    certifies S by `_certify`, the test every drawn matrix passes too.
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
        _certify(n, scaled, [sum(map(abs, scaled[r * n:(r + 1) * n])) - abs(scaled[r * n + r])
                             for r in range(n)])
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


def _draw(g: MixedGraph, seed: int) -> tuple[int, list[int], tuple[float, ...]]:
    """The shift, the certified integer matrix S = sigma * 2**shift (flat
    by rows) and the mean of the model Markov to the graph that `seed`
    draws: the one draw behind `sample_markov_gaussian` and every trial.

    Draw order: diagonal by node index from (n - 0.5, n + 0.5), edge
    entries in sorted edge order from [-1, 1], then the mean from [-1, 1],
    each as `random.uniform` computes it, a + (b - a) * random().
    Non-edges are exactly zero, so only the n + |E| drawn entries are
    converted, and `_certify` reads their row sums in O(n + |E|).
    """
    if g.directed:
        raise ValueError("sampling requires an undirected graph")
    if seed < 0:
        raise ValueError("seed must not be negative")
    u = random.Random(seed).random
    n = g.n
    edges = sorted(g.undirected)
    ratios = [((n - 0.5) + u()).as_integer_ratio() for _ in range(n)]
    ratios += [(-1.0 + 2.0 * u()).as_integer_ratio() for _ in edges]
    mean = tuple([-1.0 + 2.0 * u() for _ in range(n)])
    shift = max([q for _p, q in ratios], default=1).bit_length() - 1
    values = [p << (shift + 1 - q.bit_length()) for p, q in ratios]
    s = [0] * (n * n)
    s[::n + 1] = values[:n]
    off = [0] * n
    for (i, j), v in zip(edges, values[n:]):
        s[i * n + j] = s[j * n + i] = v
        off[i] += abs(v)
        off[j] += abs(v)
    _certify(n, s, off)
    return shift, s, mean


def sample_markov_gaussian(g: MixedGraph, seed: int) -> GaussianModel:
    """Deterministic-in-seed draw of a model Markov to the graph: the
    model of `_draw(g, seed)`.  Each entry of sigma is S * 2**-shift,
    exactly the float drawn."""
    shift, s, mean = _draw(g, seed)
    n, unit = g.n, 2.0 ** -shift
    return GaussianModel(mean, tuple(tuple([v * unit for v in s[r * n:(r + 1) * n]])
                                     for r in range(n)))


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
    computed entry (a, b) the positions (ab, ba, ak, kb).  A diagonal entry
    (a, a) is computed only for a above k: the pivot that K plus a reads."""
    steps = []
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > n - 2:
            continue
        k = mask.bit_length() - 1
        out = [a for a in range(n) if not mask >> a & 1]
        cells = tuple((a * n + b, b * n + a, a * n + k, k * n + b)
                      for x, a in enumerate(out) for b in out[x + (size == n - 2 or a < k):])
        steps.append((mask, mask ^ bit(k), k * n + k, cells))
    return tuple(steps)


def _minors(n: int, s: Sequence[int]) -> list[Optional[list[int]]]:
    """Every minor the determinant tests of a trial read, exactly.

    table[K][a * n + b] is E(a, b, K) = det S[{a} | K, {b} | K] of the
    certified symmetric n x n integer matrix S, flat by rows: a trial's
    `_draw`, or a model's `_scaled`, S = sigma * 2**shift.  It holds for
    a != b outside K with |K| <= n - 2, and for a == b above every node
    of K, with |K| <= n - 3.  Each K comes from P = K minus its top node k
    by Sylvester's identity, the step of Bareiss's fraction-free elimination:
    E(a, b, K) * det S[P, P] = E(a, b, P) * E(k, k, P) - E(a, k, P) * E(k, b, P).
    The division is exact, and det S[P, P] > 0 because `_certify`
    certified S positive definite.  S is symmetric, so each entry is
    computed once for a <= b and stored at both positions.
    """
    table: list[Optional[list[int]]] = [None] * (1 << n)
    table[0] = list(s)
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
