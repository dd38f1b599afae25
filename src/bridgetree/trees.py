"""Spanning trees over measure vertices: Prüfer codes, enumeration, and the
composition/cost rules that make tree-structured couplings tractable.

A tree-structured optimal coupling factors over its edges:

    M_T[i_1..i_s] = prod_edges M_edge[i_a, i_b] / prod_v mu_v[i_v]^(deg v - 1)

and its KL value decomposes as  sum_edges sb_edge + sum_v (deg v - 1) H(mu_v),
equivalently  sum_edges g_edge - sum_v H(mu_v)  with the degree-free weights
g_edge = sb_edge + H(mu_a) + H(mu_b).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .config import DEFAULT_TENSOR_CAP, as_index, check_edges, check_tensor_cap
from .errors import ValidationError
from .measures import DiscreteMeasure
from .sinkhorn import total_variation

Edge = tuple[int, int]

ENUMERATION_CAP = 8  # 8^6 = 262144 trees
MARGINAL_TOL = 1e-6  # TV slack a pairwise plan may have on its marginals


class DisjointSet:
    """Union-find over the elements 0..n-1, with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False if they were already one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


@dataclass(frozen=True, slots=True)
class SpanningTree:
    """Tree on vertices 1..s, stored as s-1 canonical sorted edges."""

    s: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        canon = check_edges(self.s, self.edges)
        if len(canon) != self.s - 1:
            raise ValidationError(
                f"spanning tree on {self.s} vertices needs {self.s - 1} edges, got {len(canon)}"
            )
        components = DisjointSet(self.s + 1)
        for a, b in canon:
            if not components.union(a, b):
                raise ValidationError(f"edges contain a cycle through ({a}, {b})")
        object.__setattr__(self, "edges", canon)

    def degrees(self) -> np.ndarray:
        """Degree of each vertex; index i holds the degree of vertex i+1."""
        deg = np.zeros(self.s, dtype=int)
        for a, b in self.edges:
            deg[a - 1] += 1
            deg[b - 1] += 1
        return deg

    def to_dot(self) -> str:
        lines = ["graph tree {"]
        lines += [f"  {a} -- {b};" for a, b in self.edges]
        lines.append("}")
        return "\n".join(lines) + "\n"


def prufer_decode(code: Sequence[int], s: int) -> SpanningTree:
    """The unique labeled tree on s vertices with the given Prüfer code.

    Standard leaf construction: each entry of the code consumes the smallest
    current leaf; deg(v) = multiplicity of v in the code + 1.
    """
    code = tuple(as_index(c, "code entry") for c in code)
    if s < 2:
        raise ValidationError(f"need s >= 2, got {s}")
    if len(code) != s - 2:
        raise ValidationError(f"code length {len(code)} invalid for s={s} (need {s - 2})")
    for c in code:
        if not 1 <= c <= s:
            raise ValidationError(f"code entry {c} out of range 1..{s}")
    deg = [1] * (s + 1)
    for c in code:
        deg[c] += 1
    leaves = [v for v in range(1, s + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for c in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, c))
        deg[c] -= 1
        if deg[c] == 1:
            heapq.heappush(leaves, c)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return SpanningTree(s, tuple(edges))


def prufer_encode(tree: SpanningTree) -> tuple[int, ...]:
    """Prüfer code of a tree: repeatedly strip the smallest leaf, recording
    its neighbor, until two vertices remain.  Inverse of prufer_decode."""
    adjacency: dict[int, set[int]] = {v: set() for v in range(1, tree.s + 1)}
    for a, b in tree.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    leaves = [v for v, nbrs in adjacency.items() if len(nbrs) == 1]
    heapq.heapify(leaves)
    code = []
    for _ in range(tree.s - 2):
        leaf = heapq.heappop(leaves)
        neighbor = adjacency[leaf].pop()
        adjacency[neighbor].discard(leaf)
        code.append(neighbor)
        if len(adjacency[neighbor]) == 1:
            heapq.heappush(leaves, neighbor)
    return tuple(code)


def format_prufer(code: Sequence[int]) -> str:
    """Space-separated serialization, e.g. (3, 3, 5) -> "3 3 5"."""
    return " ".join(str(int(c)) for c in code)


def parse_prufer(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise ValidationError(f"malformed Prüfer code {text!r}") from exc


def _prufer_codes(s: int) -> Iterator[tuple[int, ...]]:
    """The Prüfer codes of enumerate_trees(s), in the same order."""
    return itertools.product(range(1, s + 1), repeat=s - 2)


def enumerate_trees(s: int, cap: int = ENUMERATION_CAP) -> Iterator[SpanningTree]:
    """All s^(s-2) labeled trees, in lexicographic Prüfer-code order."""
    if s < 2:
        raise ValidationError(f"need s >= 2, got {s}")
    if s > cap:
        raise ValidationError(
            f"s={s} exceeds the enumeration cap of {cap} ({cap}^{cap - 2} trees)"
        )
    for code in _prufer_codes(s):
        yield prufer_decode(code, s)


def on_axes(array: np.ndarray, s: int, *vertices: int) -> np.ndarray:
    """View of a 1-d or 2-d array on the axes of the given 1-based vertices
    (ascending) of an s-way tensor, with length-1 axes elsewhere."""
    view = [1] * s
    for v, n in zip(vertices, array.shape):
        view[v - 1] = n
    return array.reshape(view)


def rooted_walk(tree: SpanningTree) -> list[Edge]:
    """The tree's edges as (parent, child) pairs in breadth-first order from
    vertex 1; neighbors are visited in canonical edge order."""
    neighbors: dict[int, list[int]] = {v: [] for v in range(1, tree.s + 1)}
    for a, b in tree.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    walk = []
    frontier, seen = [1], {1}
    for parent in frontier:  # frontier grows while it is walked
        for child in neighbors[parent]:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
                walk.append((parent, child))
    return walk


def compose_tree_coupling(
    tree: SpanningTree,
    plans: Mapping[Edge, np.ndarray],
    measures: Sequence[DiscreteMeasure],
    cap: int = DEFAULT_TENSOR_CAP,
) -> np.ndarray:
    """Dense tree-structured coupling from the pairwise plans on its edges.

    Each plan must be keyed by a canonical (a, b) edge with shape
    (n_a, n_b), a < b, and must reproduce the endpoint marginals within
    MARGINAL_TOL (TV).  Along rooted_walk(tree) the coupling is the first
    edge's plan times, for each further edge p -> c, the conditional
    plan / mu_p, taken as 0 where mu_p vanishes: entries whose marginal
    weight vanishes are zero by feasibility, so no 0/0 is formed.
    """
    measures = list(measures)
    if len(measures) != tree.s:
        raise ValidationError(f"tree has s={tree.s} vertices but {len(measures)} measures given")
    shape = tuple(m.n for m in measures)
    check_tensor_cap(shape, cap)

    out = np.ones(shape)
    for step, (parent, child) in enumerate(rooted_walk(tree)):
        a, b = min(parent, child), max(parent, child)
        if (a, b) not in plans:
            raise ValidationError(f"missing pairwise plan for tree edge ({a}, {b})")
        plan = np.asarray(plans[(a, b)], dtype=float)
        if plan.shape != (shape[a - 1], shape[b - 1]):
            raise ValidationError(
                f"plan for edge ({a}, {b}) has shape {plan.shape}, expected "
                f"({shape[a - 1]}, {shape[b - 1]})"
            )
        row_gap = total_variation(plan.sum(axis=1), measures[a - 1].weights)
        col_gap = total_variation(plan.sum(axis=0), measures[b - 1].weights)
        if max(row_gap, col_gap) > MARGINAL_TOL:
            raise ValidationError(
                f"plan for edge ({a}, {b}) violates its marginals "
                f"(TV {max(row_gap, col_gap):.3e} > {MARGINAL_TOL:.1e})"
            )
        if step:  # every edge after the first enters as plan / mu_parent
            mu = on_axes(measures[parent - 1].weights, 2, 1 if parent == a else 2)
            plan = np.divide(plan, mu, out=np.zeros_like(plan), where=mu > 0)
        out *= on_axes(plan, tree.s, a, b)
    return out


def tree_cost_decomposed(
    tree: SpanningTree,
    sb_values: Mapping[Edge, float],
    entropies: Sequence[float],
) -> float:
    """KL cost of a tree via its edges: sum sb_edge + sum (deg-1) * H."""
    if len(entropies) != tree.s:
        raise ValidationError(f"need {tree.s} entropies, got {len(entropies)}")
    missing = [edge for edge in tree.edges if edge not in sb_values]
    if missing:
        raise ValidationError(f"missing sb value for tree edge {missing[0]}")
    total = sum(float(sb_values[edge]) for edge in tree.edges)
    deg = tree.degrees()
    total += float(((deg - 1) * np.asarray(entropies, dtype=float)).sum())
    return total


def tree_cost_additive(
    tree: SpanningTree,
    g_weights: np.ndarray,
    entropies: Sequence[float],
) -> float:
    """KL cost of a tree via degree-free edge weights: sum g_edge - sum H.

    Algebraically identical to tree_cost_decomposed when
    g[a, b] = sb[a, b] + H_a + H_b.
    """
    g = np.asarray(g_weights, dtype=float)
    if g.shape != (tree.s, tree.s):
        raise ValidationError(f"weight matrix shape {g.shape} != ({tree.s}, {tree.s})")
    if len(entropies) != tree.s:
        raise ValidationError(f"need {tree.s} entropies, got {len(entropies)}")
    total = sum(float(g[a - 1, b - 1]) for a, b in tree.edges)
    return total - float(np.asarray(entropies, dtype=float).sum())
