"""Reduction trees: binary branching down to minimal length endpoints.

Every non-minimal element is shifted to a pivot with a double descent,
then branches along a type I edge (length drop one) and a type II edge
(length drop two). Different seeds explore the shift class in different
orders and can produce different trees; the endpoint classes and the
per-class edge counts do not change.
"""

from adlvkit import (
    bgw,
    build_root_datum,
    build_tree,
    export_tree,
    format_element,
    length,
    parse_element,
    sort_classes,
)

a2 = build_root_datum("A2:adj")
w = parse_element(a2, "s0 s1 s2 s1 s0")
print(f"root: {format_element(w)}   length {length(w)}")

tree = build_tree(w, seed=0)
print(f"tree with seed 0: {len(tree.nodes)} nodes, {len(tree.edges)} edges, "
      f"endpoints {[format_element(e) for e in tree.endpoints()]}")

print()
print("== endpoint classes with their paths ==")
for cls, paths in sort_classes(bgw(w, seed=0).items(), key=lambda kv: kv[0]):
    for p in paths:
        print(f"  {cls}: {p.count_I} type I + {p.count_II} type II, "
              f"ending at {format_element(p.end)}")

print()
print("== seed independence of the class data ==")
reference = {
    (cls, len(paths)) for cls, paths in bgw(w, seed=0).items()
}
for seed in range(1, 6):
    assert {(cls, len(paths)) for cls, paths in bgw(w, seed=seed).items()} == reference
print("  five more seeds agree on classes and path counts")

print()
print("== DOT export of the A1 example ==")
a1 = build_root_datum("A1:adj")
print(export_tree(build_tree(parse_element(a1, "s0 s1 s0"), seed=0), format="dot"))
