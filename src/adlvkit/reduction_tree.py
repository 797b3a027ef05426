"""Reduction trees: binary branching by length-dropping conjugation moves.

A non-minimal element w is conjugated (by length-preserving shifts) to
some w' admitting an affine simple index a with s_a w' sigma(s_a) two
shorter; the pair (w', a) is read off the shift class graph of w that
:mod:`conjugacy` builds once per class. The tree then branches to
w' sigma(s_a) (type I, length drop 1) and to s_a w' sigma(s_a) (type II,
length drop 2) and recurses; minimal length elements are the endpoints.
Trees are stored as DAGs keyed by the canonical element form so revisited
elements share subtrees, and every edge carries the shift sequence that
witnesses it, so each claim can be re-checked by replaying moves.

Construction is seed-dependent: the seed fixes an index order, which
fixes both the BFS order over the shift class graph and the order drops
are tried in, and yields a reproducible diversity of trees for the
tree-independence tests. Many seeds give the same order, and every node
of a tree is itself the root of a smaller tree, so the datum memoizes
per (node, index order): the node's expansion (its two edges, or None at
an endpoint) and its path summary. Trees of one order share their edges
and summaries across seeds and across roots. Orders that pick the same
move share its edges, and equal summaries are interned, one object per
value and datum, as elements and class invariants are. A tree is a walk
over that memo from its root. Pipelines get their trees from
:func:`seed_trees`, which builds one tree per index order and gives
every seed whose tree equals an earlier one that earlier object, so the
readers do each distinct tree's work once (skipping objects they have
met) and replay the result for every seed.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from typing import NamedTuple

from .affine_weyl import (
    AffineElement,
    format_element,
    left_by_simple,
    length,
    multiply,
    right_by_simple,
    sigma_act,
    sigma_on_affine_index,
    simple_reflection,
)
from .conjugacy import (
    DEFAULT_BFS_CAP,
    ClassInvariant,
    ShiftClass,
    class_invariant,
    first_drop,
    replay_moves,
)
from .errors import InternalInvariantError, UsageError


class Edge(NamedTuple):
    source: AffineElement
    target: AffineElement
    kind: str  # "I" or "II"
    witness_shifts: tuple  # conjugation indices from source to the pivot w'
    witness_index: int  # the affine simple index a


class ReductionPath(NamedTuple):
    edges: tuple
    end: AffineElement
    count_I: int
    count_II: int
    end_class: ClassInvariant


class ReductionTree:
    """A reduction DAG rooted at ``root`` for a fixed strategy seed.

    A tree that :func:`seed_trees` shares between seeds keeps as ``seed``
    the first seed that built it.
    """

    def __init__(self, root, seed, order, expansions):
        self.root = root
        self.seed = seed
        # the index order the seed fixes; it keys the datum's memos
        self.order = order
        # element -> None (endpoint) or (edge_I, edge_II)
        self.expansions = expansions

    @property
    def nodes(self):
        return set(self.expansions)

    @property
    def edges(self):
        out = []
        for exp in self.expansions.values():
            if exp is not None:
                out.extend(exp)
        return out

    def endpoints(self):
        return [x for x, exp in self.expansions.items() if exp is None]


@lru_cache(maxsize=None)
def _index_order(size: int, seed: int) -> tuple:
    """range(size) permuted by the seed; the only thing a seed decides."""
    order = list(range(size))
    random.Random(seed).shuffle(order)
    return tuple(order)


_MISSING = object()


def _expansion(w: AffineElement, order: tuple, cap: int):
    """(edge_I, edge_II) from w under ``order``, or None when w is minimal.

    Memoized per (w, order) on the datum; a memo hit still raises
    CapExceededError when the class of w has more than ``cap`` members.
    """
    datum = w.datum
    memo = datum._move_cache
    exp = memo.get((w, order), _MISSING)
    if exp is not _MISSING:
        ShiftClass.of(w, cap)
        return exp
    move = first_drop(w, order, cap)
    exp = None if move is None else _edges(w, *move)
    memo[(w, order)] = exp
    return exp


def _edges(w: AffineElement, pivot: AffineElement, a: int, shifts: tuple):
    """The two edges of the move (pivot, a, shifts) from w.

    Different orders often pick the same move, and all of them get one
    pair of edges per (w, a, shifts) on the datum.
    """
    datum = w.datum
    key = (w, a, shifts)
    exp = datum._edge_cache.get(key)
    if exp is None:
        child_one = right_by_simple(pivot, sigma_on_affine_index(datum, a))
        child_two = left_by_simple(child_one, a)
        if length(child_one) != length(w) - 1 or length(child_two) != length(w) - 2:
            raise InternalInvariantError("reduction move produced wrong lengths")
        exp = datum._edge_cache[key] = (
            Edge(w, child_one, "I", shifts, a),
            Edge(w, child_two, "II", shifts, a),
        )
    return exp


def find_reduction_move(
    w: AffineElement, seed: int = 0, cap: int = DEFAULT_BFS_CAP
):
    """A pair (w', a, shifts) with s_a w' sigma(s_a) two shorter, or None.

    None is returned exactly when w has minimal length in its class. The
    move is the first length drop met walking the shift class graph of w
    breadth-first, with indices tried in seed-permuted order, so the
    choice is deterministic for a given seed. The move is read off the
    expansion of w that the datum memoizes per (w, index order) for
    :func:`build_tree`, with w' recovered from the type I child; a memo
    hit still raises CapExceededError when the class of w has more than
    ``cap`` members.
    """
    datum = w.datum
    exp = _expansion(w, _index_order(datum.rank + 1, seed), cap)
    if exp is None:
        return None
    edge_one = exp[0]
    a = edge_one.witness_index
    pivot = right_by_simple(edge_one.target, sigma_on_affine_index(datum, a))
    return pivot, a, edge_one.witness_shifts


def build_tree(
    w: AffineElement, seed: int = 0, cap: int = DEFAULT_BFS_CAP
) -> ReductionTree:
    """Construct a reduction tree; terminates since lengths strictly drop.

    The nodes are walked depth first from w, each expansion read from
    (or added to) the datum's per-(node, order) memo.
    """
    datum = w.datum
    order = _index_order(datum.rank + 1, seed)
    expansions = {}
    stack = [w]
    while stack:
        cur = stack.pop()
        if cur in expansions:
            continue
        exp = expansions[cur] = _expansion(cur, order, cap)
        if exp is not None:
            stack.append(exp[0].target)
            stack.append(exp[1].target)
    return ReductionTree(w, seed, order, expansions)


def seed_trees(w: AffineElement, seeds, cap: int = DEFAULT_BFS_CAP) -> list:
    """The tree of w for each seed, one object per distinct tree.

    A seed only fixes an index order, so each distinct order's tree is
    built once, by the first seed that gives it, and replaced by an
    earlier order's tree, ``seed`` included, when their ``expansions``
    are equal. Equal expansions mean equal node order, since the build
    inserts nodes by a walk that reads only the root and the expansions,
    and are mostly the same edge objects, from the datum's memo, so the
    comparison is quick. Raises UsageError when ``seeds`` is empty.
    """
    size = w.datum.rank + 1
    by_order = {}
    distinct = []
    trees = []
    for seed in seeds:
        order = _index_order(size, seed)
        tree = by_order.get(order)
        if tree is None:
            built = build_tree(w, seed=seed, cap=cap)
            tree = next((t for t in distinct if t.expansions == built.expansions), built)
            if tree is built:
                distinct.append(tree)
            by_order[order] = tree
        trees.append(tree)
    if not trees:
        raise UsageError("at least one strategy seed is required")
    return trees


def verify_edge(edge: Edge) -> bool:
    """Replay the witness shifts and re-derive both branch targets.

    The targets are re-derived by the general :func:`multiply` and
    :func:`sigma_act`, not by the one-sided products that built them.
    """
    pivot = replay_moves(edge.source, edge.witness_shifts)
    if length(pivot) != length(edge.source):
        return False
    s = simple_reflection(edge.source.datum, edge.witness_index)
    one = multiply(pivot, sigma_act(s))
    two = multiply(s, one)
    return edge.target == (one if edge.kind == "I" else two)


def enumerate_paths(tree: ReductionTree, start=None):
    """All root-to-endpoint paths with exact type counts and end classes."""
    start = tree.root if start is None else start
    out = []

    def walk(node, acc):
        exp = tree.expansions[node]
        if exp is None:
            edges = tuple(acc)
            n_one = sum(1 for e in edges if e.kind == "I")
            out.append(
                ReductionPath(
                    edges=edges,
                    end=node,
                    count_I=n_one,
                    count_II=len(edges) - n_one,
                    end_class=class_invariant(node),
                )
            )
            return
        for edge in exp:
            acc.append(edge)
            walk(edge.target, acc)
            acc.pop()

    walk(start, [])
    return out


def path_summary(tree: ReductionTree, start=None):
    """Path multiset keyed (end_class, count_I, count_II, end_length).

    Dynamic programming over the shared DAG, so the cost is linear in the
    number of distinct nodes rather than the number of paths. Carrying
    the endpoint length makes per-path conservation and the tree-derived
    dimension maximum checkable without expanding paths. Each node's
    summary is memoized per (node, index order) on the datum, so trees of
    one order share it, and equal summaries are one object: a corpus has
    few distinct ones (92 for the 29 860 (node, order) pairs of the
    2A4:sc <= 8 audit). The returned dict must not be modified.
    """
    datum = tree.root.datum
    memo = datum._summary_cache
    values = datum._summary_value_cache
    order = tree.order

    def node_summary(node):
        key = (node, order)
        cached = memo.get(key)
        if cached is not None:
            return cached
        exp = tree.expansions[node]
        if exp is None:
            result = {(class_invariant(node), 0, 0, length(node)): 1}
        else:
            result = {}
            for edge in exp:
                inc_one = 1 if edge.kind == "I" else 0
                for (cls, c1, c2, lend), mult in node_summary(edge.target).items():
                    k = (cls, c1 + inc_one, c2 + (1 - inc_one), lend)
                    result[k] = result.get(k, 0) + mult
        result = memo[key] = values.setdefault(frozenset(result.items()), result)
        return result

    return node_summary(tree.root if start is None else start)


def summary_classes(summary):
    """The distinct endpoint classes of a path summary."""
    return {cls for (cls, _c1, _c2, _lend) in summary}


def bgw(w: AffineElement, seed: int = 0, cap: int = DEFAULT_BFS_CAP):
    """Reduction paths of one tree grouped by the class of their endpoint."""
    tree = build_tree(w, seed=seed, cap=cap)
    grouped = {}
    for path in enumerate_paths(tree):
        grouped.setdefault(path.end_class, []).append(path)
    return grouped


# -- serialization -----------------------------------------------------------


def tree_to_dict(tree: ReductionTree) -> dict:
    nodes = sorted(tree.expansions, key=lambda x: (-length(x), format_element(x)))
    return {
        "root": format_element(tree.root),
        "seed": tree.seed,
        "nodes": [format_element(x) for x in nodes],
        "edges": [
            {
                "from": format_element(e.source),
                "to": format_element(e.target),
                "kind": e.kind,
                "witness_shifts": list(e.witness_shifts),
                "witness_index": e.witness_index,
            }
            for x in nodes
            if tree.expansions[x] is not None
            for e in tree.expansions[x]
        ],
    }


def export_tree(tree: ReductionTree, format: str = "json") -> str:
    if format == "json":
        return json.dumps(tree_to_dict(tree), sort_keys=True, separators=(",", ":"))
    if format == "dot":
        data = tree_to_dict(tree)
        ids = {text: f"n{i}" for i, text in enumerate(data["nodes"])}
        lines = ["digraph reduction {"]
        lines += [f'  {ids[text]} [label="{text}"];' for text in data["nodes"]]
        lines += [
            f'  {ids[e["from"]]} -> {ids[e["to"]]} [label="{e["kind"]}"];'
            for e in data["edges"]
        ]
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown tree format {format!r}")

