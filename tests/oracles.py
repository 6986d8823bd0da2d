"""Independent brute-force reference implementations used as test oracles.

Everything here works on plain edge lists and python sets, enumerating
paths explicitly, so none of the package's bitmask machinery is reused.
The exception is `cov_independent_by_separation`, which cross-checks two
routes through the package against each other.
"""

from __future__ import annotations

from covgraph import MixedGraph, sep


def mask_of(nodes) -> int:
    """Bitmask of an iterable of node indices."""
    m = 0
    for i in nodes:
        m |= 1 << i
    return m


def und_neighbor_sets(g: MixedGraph) -> dict[int, set[int]]:
    nbr: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for i, j in g.undirected:
        nbr[i].add(j)
        nbr[j].add(i)
    return nbr


def naive_adjacency_masks(g: MixedGraph) -> tuple[tuple[int, ...], ...]:
    """(und_adj, pa_adj, any_adj) straight from the edge sets: per node,
    its undirected neighbours, the tails of arrows into it, and every node
    joined to it by any edge."""
    nbr = und_neighbor_sets(g)
    und = tuple(mask_of(nbr[v]) for v in range(g.n))
    pa = tuple(mask_of(u for u, w in g.directed if w == v) for v in range(g.n))
    ch = tuple(mask_of(w for u, w in g.directed if u == v) for v in range(g.n))
    return und, pa, tuple(u | p | c for u, p, c in zip(und, pa, ch))


def all_simple_paths(nbr: dict[int, set[int]], a: int, b: int,
                     allowed: set[int]) -> list[list[int]]:
    """Every simple path a..b inside `allowed`, by exhaustive recursion."""
    paths: list[list[int]] = []

    def extend(path: list[int]) -> None:
        tip = path[-1]
        if tip == b:
            paths.append(list(path))
            return
        for w in sorted(nbr[tip]):
            if w in allowed and w not in path:
                path.append(w)
                extend(path)
                path.pop()

    if a in allowed and b in allowed:
        extend([a])
    return paths


def count_paths_bruteforce(g: MixedGraph, a: int, b: int, allowed: set[int]) -> int:
    return len(all_simple_paths(und_neighbor_sets(g), a, b, allowed))


def cov_independent_bruteforce(g: MixedGraph, x: set[int], y: set[int],
                               z: set[int]) -> bool:
    """Every path between X and Y must contain a node outside X | Y | Z."""
    nbr = und_neighbor_sets(g)
    inside = x | y | z
    everything = set(range(g.n))
    for a in x:
        for b in y:
            for path in all_simple_paths(nbr, a, b, everything):
                if all(v in inside for v in path):
                    return False
    return True


def cov_dependent_bruteforce(g: MixedGraph, x: set[int], y: set[int],
                             z: set[int]) -> bool:
    """Some pair (a, b) has exactly one simple path with nodes in {a,b}|Z."""
    nbr = und_neighbor_sets(g)
    for a in x:
        for b in y:
            if len(all_simple_paths(nbr, a, b, z | {a, b})) == 1:
                return True
    return False


def cov_independent_by_separation(g: MixedGraph, x: int, y: int, z: int) -> bool:
    """Covariance reading routed through the package's chain-graph
    separation, conditioning on the complement of X|Y|Z: a second route to
    the verdict of `ci_independent`.  Arguments are node masks."""
    return sep(g, x, y, g.full_mask & ~(x | y | z))


def naive_ancestors(g: MixedGraph, targets: set[int]) -> set[int]:
    anc = set(targets)
    changed = True
    while changed:
        changed = False
        for i, j in g.undirected:
            if j in anc and i not in anc:
                anc.add(i)
                changed = True
            if i in anc and j not in anc:
                anc.add(j)
                changed = True
        for i, j in g.directed:
            if j in anc and i not in anc:
                anc.add(i)
                changed = True
    return anc


def naive_components(nodes: set[int], und_edges: set[tuple[int, int]]) -> list[set[int]]:
    comps: list[set[int]] = []
    left = set(nodes)
    while left:
        seed = min(left)
        comp = {seed}
        changed = True
        while changed:
            changed = False
            for i, j in und_edges:
                if i in comp and j not in comp and j in nodes:
                    comp.add(j)
                    changed = True
                if j in comp and i not in comp and i in nodes:
                    comp.add(i)
                    changed = True
        comps.append(comp)
        left -= comp
    return comps


def naive_moral_adjacency(g: MixedGraph, inside: set[int]) -> dict[int, set[int]]:
    """Moral graph of the subgraph induced by `inside`, straight from the
    definition: keep adjacencies, then join all parents of each
    connectivity component."""
    und = {(i, j) for i, j in g.undirected if i in inside and j in inside}
    dire = {(i, j) for i, j in g.directed if i in inside and j in inside}
    adj: dict[int, set[int]] = {v: set() for v in inside}
    for i, j in und | dire:
        adj[i].add(j)
        adj[j].add(i)
    for comp in naive_components(inside, und):
        parents = {u for u, v in dire if v in comp}
        for p in parents:
            for q in parents:
                if p != q:
                    adj[p].add(q)
    return adj


def sep_bruteforce(g: MixedGraph, x: set[int], y: set[int], z: set[int]) -> bool:
    """Separation by explicit path enumeration in the moralized ancestral
    subgraph: every X-Y path must contain a Z node."""
    anc = naive_ancestors(g, x | y | z)
    adj = naive_moral_adjacency(g, anc)
    for a in x:
        for b in y:
            for path in all_simple_paths(adj, a, b, anc):
                if not any(v in z for v in path):
                    return False
    return True


def dag_is_acyclic_dfs(g: MixedGraph) -> bool:
    """Three-color depth-first cycle check over the directed edges."""
    succ: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for u, v in g.directed:
        succ[u].append(v)
    color = {v: 0 for v in range(g.n)}  # 0 new, 1 active, 2 done

    def visit(v: int) -> bool:
        color[v] = 1
        for w in succ[v]:
            if color[w] == 1:
                return False
            if color[w] == 0 and not visit(w):
                return False
        color[v] = 2
        return True

    return all(color[v] != 0 or visit(v) for v in range(g.n))


def has_semi_directed_cycle(g: MixedGraph) -> bool:
    """Search for a route v:v mixing undirected and directed forward steps
    with at least one arrow, via reachability over (node, used-arrow)
    states."""
    steps: dict[int, list[tuple[int, bool]]] = {v: [] for v in range(g.n)}
    for i, j in g.undirected:
        steps[i].append((j, False))
        steps[j].append((i, False))
    for i, j in g.directed:
        steps[i].append((j, True))
    for start in range(g.n):
        seen = set()
        stack: list[tuple[int, bool]] = [(w, arrow) for w, arrow in steps[start]]
        while stack:
            node, used = stack.pop()
            if node == start and used:
                return True
            if (node, used) in seen:
                continue
            seen.add((node, used))
            for w, arrow in steps[node]:
                stack.append((w, used or arrow))
    return False


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion; exact on integer or
    Fraction entries."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for col in range(n):
        entry = rows[0][col]
        if entry == 0:
            continue
        minor = [[row[c] for c in range(n) if c != col] for row in rows[1:]]
        total += (-1) ** col * entry * det_cofactor(minor)
    return total


def inverse_adjugate(rows) -> list[list]:
    """The inverse as adjugate over determinant; exact on Fraction entries."""
    n = len(rows)
    d = det_cofactor(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            out[i][j] = (-1) ** (i + j) * det_cofactor(minor) / d
    return out
