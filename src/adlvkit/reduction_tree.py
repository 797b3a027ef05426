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

Construction is seed-dependent: the seed permutes the index order, which
fixes both the BFS order over the shift class graph and the order drops
are tried in, and yields a reproducible diversity of trees for the
tree-independence tests. A tree memoizes the path summary of each of its
nodes, so the memo lives and dies with the tree; pipelines build each
seed's tree once and hand it to every function that reads it.

Different seeds often build the same tree. :func:`share_equal_trees`
replaces every seed's tree whose expansions equal an earlier seed's by
that earlier object, so the readers can do each distinct tree's work once
(skipping objects they have met) and replay the result for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

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
from .errors import InternalInvariantError


@dataclass(frozen=True)
class Edge:
    source: AffineElement
    target: AffineElement
    kind: str  # "I" or "II"
    witness_shifts: tuple  # conjugation indices from source to the pivot w'
    witness_index: int  # the affine simple index a


@dataclass(frozen=True)
class ReductionPath:
    edges: tuple
    end: AffineElement
    count_I: int
    count_II: int
    end_class: ClassInvariant


class ReductionTree:
    """A reduction DAG rooted at ``root`` for a fixed strategy seed."""

    def __init__(self, root, seed, expansions):
        self.root = root
        self.seed = seed
        # element -> None (endpoint) or (edge_I, edge_II)
        self.expansions = expansions
        # element -> path summary from that node, filled by path_summary
        self.summaries = {}

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


def find_reduction_move(
    w: AffineElement, seed: int = 0, cap: int = DEFAULT_BFS_CAP
):
    """A pair (w', a, shifts) with s_a w' sigma(s_a) two shorter, or None.

    None is returned exactly when w has minimal length in its class. The
    move is the first length drop met walking the shift class graph of w
    breadth-first, with indices tried in seed-permuted order, so the
    choice is deterministic for a given seed. Results are memoized per
    (w, seed) on the datum; a memo hit still raises CapExceededError when
    the class of w has more than ``cap`` members.
    """
    memo = w.datum._move_cache
    key = (w, seed)
    if key not in memo:
        order = list(range(w.datum.rank + 1))
        random.Random(seed).shuffle(order)
        memo[key] = first_drop(w, order, cap)
    else:
        ShiftClass.of(w, cap)
    return memo[key]


def build_tree(
    w: AffineElement, seed: int = 0, cap: int = DEFAULT_BFS_CAP
) -> ReductionTree:
    """Construct a reduction tree; terminates since lengths strictly drop."""
    datum = w.datum
    expansions = {}
    stack = [w]
    while stack:
        cur = stack.pop()
        if cur in expansions:
            continue
        move = find_reduction_move(cur, seed=seed, cap=cap)
        if move is None:
            expansions[cur] = None
            continue
        pivot, a, shifts = move
        child_one = right_by_simple(pivot, sigma_on_affine_index(datum, a))
        child_two = left_by_simple(child_one, a)
        if length(child_one) != length(cur) - 1 or length(child_two) != length(cur) - 2:
            raise InternalInvariantError("reduction move produced wrong lengths")
        edge_one = Edge(cur, child_one, "I", shifts, a)
        edge_two = Edge(cur, child_two, "II", shifts, a)
        expansions[cur] = (edge_one, edge_two)
        stack.append(child_one)
        stack.append(child_two)
    return ReductionTree(w, seed, expansions)


def share_equal_trees(trees):
    """The trees in their order, each repeat replaced by its first occurrence.

    A tree whose root and ``expansions`` equal an earlier tree's is
    replaced by that earlier object, ``seed`` included, so a reader that
    skips objects it has met does each distinct tree's work once. For trees from :func:`build_tree` equal expansions also mean
    equal node order: the build inserts nodes by a walk that reads only
    the root and the expansions.
    """
    distinct = []
    shared = []
    for tree in trees:
        for earlier in distinct:
            if earlier.root == tree.root and earlier.expansions == tree.expansions:
                tree = earlier
                break
        else:
            distinct.append(tree)
        shared.append(tree)
    return shared


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
    summary is memoized on the tree.
    """
    memo = tree.summaries

    def node_summary(node):
        cached = memo.get(node)
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
        memo[node] = result
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
        lines = ["digraph reduction {"]
        nodes = sorted(tree.expansions, key=lambda x: (-length(x), format_element(x)))
        ids = {x: f"n{i}" for i, x in enumerate(nodes)}
        for x in nodes:
            lines.append(f'  {ids[x]} [label="{format_element(x)}"];')
        for x in nodes:
            exp = tree.expansions[x]
            if exp is None:
                continue
            for e in exp:
                lines.append(f'  {ids[e.source]} -> {ids[e.target]} [label="{e.kind}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown tree format {format!r}")

