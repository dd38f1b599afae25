"""Spanning trees over measure vertices: Prüfer codes, enumeration, and the
composition/cost rules that make tree-structured couplings tractable.

Every Prüfer decode, of one code (prufer_decode) or of all codes
(enumerate_trees, rank_trees), is one vectorised peel over a block of codes
(_decode_codes): step k removes the smallest leaf and joins it to code entry
k, so the same steps drive the direct evaluator's leaves-first recursion.

A tree-structured optimal coupling factors over its edges:

    M_T[i_1..i_s] = prod_edges M_edge[i_a, i_b] / prod_v mu_v[i_v]^(deg v - 1)

which compose_tree_coupling forms as written, with no root.  Its KL value
is the one tree cost, tree_cost_additive:  sum_edges g_edge - sum_v H(mu_v)
with the degree-free weights g_edge = sb_edge + H(mu_a) + H(mu_b).  That is
the edge decomposition  sum_edges sb_edge + sum_v (deg v - 1) H(mu_v)  of a
tree-structured bridge (Haasler, Ringh, Chen, Karlsson 2021), which
tests/helpers.py keeps as the reference the tests check it against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .config import as_float_array, as_index, check_edges, check_shape, check_tensor_cap
from .config import check_vertex_count
from .errors import ValidationError
from .measures import DiscreteMeasure, total_variation

Edge = tuple[int, int]

ENUMERATION_CAP = 8  # 8^6 = 262144 trees
MARGINAL_TOL = 1e-6  # TV slack a pairwise plan may have on its marginals
_BLOCK = 2048  # codes per block decode: s <= 6 takes one block, larger s several


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

    @classmethod
    def _trusted(cls, s: int, edges: tuple[Edge, ...]) -> SpanningTree:
        """A tree from s - 1 canonical sorted edges known to be acyclic,
        made without __post_init__'s checks."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "s", s)
        object.__setattr__(tree, "edges", edges)
        return tree

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
    s = check_vertex_count(s)
    code = tuple(as_index(c, "code entry") for c in code)
    if len(code) != s - 2:
        raise ValidationError(f"code length {len(code)} invalid for s={s} (need {s - 2})")
    for c in code:
        if not 1 <= c <= s:
            raise ValidationError(f"code entry {c} out of range 1..{s}")
    keys = _decode_codes(np.array([code], dtype=np.intp), s)[1][0].tolist()
    return SpanningTree._trusted(s, tuple((k // s + 1, k % s + 1) for k in keys))


def _decode_codes(codes: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode a (T, s - 2) block of valid Prüfer codes, all rows at once.

    Returns (steps, keys), 0-based, in a signed dtype wide enough for s * s:
    - steps[k, t] = leaf * s + parent for the smallest leaf of tree t at step
      k and its one neighbour, which is code entry k; the last step joins the
      remaining leaf to vertex s, so the steps peel each tree leaves-first
      toward the root s;
    - keys[t] are the canonical edge keys a * s + b, a < b, in ascending
      order, which is the order of the sorted (a, b) edges.
    """
    dtype = np.min_scalar_type(-s * s)
    count = len(codes)
    rows = np.arange(count)
    parents = codes.astype(dtype).T - 1
    degree = np.ones((count, s), dtype)
    for column in parents:
        degree[rows, column] += 1
    steps = np.empty((s - 1, count), dtype)
    for step, parent in zip(steps, parents):
        leaf = np.argmax(degree == 1, axis=1)
        degree[rows, leaf] = 0
        degree[rows, parent] -= 1
        step[:] = leaf * s + parent
    steps[-1] = np.argmax(degree[:, :-1] == 1, axis=1) * s + s - 1
    leaf, parent = np.divmod(steps, s)
    keys = np.sort(np.minimum(leaf, parent) * s + np.maximum(leaf, parent), axis=0)
    return steps, keys.T.copy()  # C order: each tree's keys contiguous


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


def _codes(s: int, start: int, stop: int) -> np.ndarray:
    """Prüfer codes start..stop - 1 of the lexicographic order of all
    s^(s-2), clipped to the last, one code per row."""
    index = np.arange(start, min(stop, s ** (s - 2)))
    return index[:, None] // s ** np.arange(s - 3, -1, -1) % s + 1


def enumerate_trees(s: int) -> Iterator[SpanningTree]:
    """All s^(s-2) labeled trees, in lexicographic Prüfer-code order; s is
    checked against ENUMERATION_CAP at the call, before any tree is made."""
    if check_vertex_count(s) > ENUMERATION_CAP:
        raise ValidationError(
            f"s={s} exceeds the enumeration cap of {ENUMERATION_CAP} "
            f"({ENUMERATION_CAP}^{ENUMERATION_CAP - 2} trees)"
        )
    # the codes are valid by construction, so each tree skips the checks; a
    # _BLOCK of codes is decoded at a time, and all trees share one tuple per edge
    edges = [(k // s + 1, k % s + 1) for k in range(s * s)]
    blocks = (_decode_codes(_codes(s, start, start + _BLOCK), s)[1].tolist()
              for start in range(0, s ** (s - 2), _BLOCK))
    return (SpanningTree._trusted(s, tuple(map(edges.__getitem__, keys)))
            for block in blocks for keys in block)


def on_axes(array: np.ndarray, s: int, *vertices: int) -> np.ndarray:
    """View of a 1-d or 2-d array on the axes of the given 1-based vertices
    (ascending) of an s-way tensor, with length-1 axes elsewhere."""
    view = [1] * s
    for v, n in zip(vertices, array.shape):
        view[v - 1] = n
    return array.reshape(view)


def compose_tree_coupling(
    tree: SpanningTree,
    plans: Mapping[Edge, np.ndarray],
    measures: Sequence[DiscreteMeasure],
) -> np.ndarray:
    """Dense tree-structured coupling from the pairwise plans on its edges.

    Each plan must be keyed by a canonical (a, b) edge with shape
    (n_a, n_b), a < b, and must reproduce the endpoint marginals within
    MARGINAL_TOL (TV).  The edges enter in canonical order, each plan
    divided by mu_v on the axis of every endpoint v that an earlier edge
    touched, taken as 0 where mu_v vanishes: so each weight is divided out
    deg(v) - 1 times, as the closed form says.  Entries whose marginal
    weight vanishes are zero by feasibility, so no 0/0 is formed.
    """
    measures = list(measures)
    if len(measures) != tree.s:
        raise ValidationError(f"tree has s={tree.s} vertices but {len(measures)} measures given")
    shape = check_tensor_cap([m.n for m in measures])

    out = np.ones(shape)
    touched = set()  # the vertices of earlier edges
    for a, b in tree.edges:
        if (a, b) not in plans:
            raise ValidationError(f"missing pairwise plan for tree edge ({a}, {b})")
        plan = as_float_array(plans[(a, b)], f"plan for edge ({a}, {b})")
        check_shape(plan, (shape[a - 1], shape[b - 1]), f"plan for edge ({a}, {b})")
        gap = max(total_variation(plan.sum(axis=1), measures[a - 1].weights),
                  total_variation(plan.sum(axis=0), measures[b - 1].weights))
        if not gap <= MARGINAL_TOL:  # a NaN gap is refused too
            raise ValidationError(
                f"plan for edge ({a}, {b}) violates its marginals "
                f"(TV {gap:.3e} > {MARGINAL_TOL:.1e})"
            )
        for axis, v in enumerate((a, b), start=1):
            if v in touched:
                mu = on_axes(measures[v - 1].weights, 2, axis)
                plan = np.divide(plan, mu, out=np.zeros_like(plan), where=mu > 0)
        touched.update((a, b))
        out *= on_axes(plan, tree.s, a, b)
    return out


def tree_cost_additive(
    tree: SpanningTree,
    g_weights: np.ndarray,
    entropies: Sequence[float],
) -> float:
    """KL cost of a tree via degree-free edge weights: sum g_edge - sum H,
    the cost that solve, enumerate and oracle report.  Only the tree's
    entries g[a - 1, b - 1], a < b, are read.
    """
    g = as_float_array(g_weights, "weight matrix")
    check_shape(g, (tree.s, tree.s), "weight matrix")
    if len(entropies) != tree.s:
        raise ValidationError(f"need {tree.s} entropies, got {len(entropies)}")
    total = sum(float(g[a - 1, b - 1]) for a, b in tree.edges)
    return total - float(as_float_array(entropies, "entropies").sum())
