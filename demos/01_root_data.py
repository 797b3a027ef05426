"""Root data on a chosen coweight lattice.

A datum string picks a family, a rank, a lattice preset and an optional
twist digit. Everything downstream uses integer lattice coordinates and
exact rational covectors, so the printed numbers are the actual values.
"""

from adlvkit import build_root_datum
from adlvkit.linalg import identity_matrix, mat_mul, mat_vec

print("== the three presets ==")
for spec in ("A2:adj", "A2:sc", "A2:gl"):
    datum = build_root_datum(spec)
    print(f"{spec}: lattice rank {datum.n}, "
          f"{len(datum.positive_roots)} positive roots, "
          f"component group order {datum.omega_quotient.order}")

print()
print("== pairings on C2:sc ==")
c2 = build_root_datum("C2:sc")
for i, coroot in enumerate(c2.simple_coroots, start=1):
    row = [c2.pair(coroot, alpha) for alpha in c2.simple_roots]
    print(f"  <coroot {i}, simple roots> = {row}")
print(f"  highest root as a covector: {c2.theta}")
print(f"  rho = {c2.rho}  (pairs to 1 with every simple coroot)")

print()
print("== dominance normalization ==")
v = (-1, 2)
dom = c2.dominant(v)
# the same descent, applying s_i while some pairing is negative, keeps the matrix
cur, z = v, identity_matrix(c2.n)
while cur != dom:
    i = next(i for i, alpha in enumerate(c2.simple_roots) if c2.pair(cur, alpha) < 0)
    cur = mat_vec(c2.weyl_generators[i], cur)
    z = mat_mul(c2.weyl_generators[i], z)
print(f"  {v} is dominant: {c2.is_dominant(v)}")
print(f"  its dominant representative is {dom}, via the matrix {z}")

print()
print("== a twisted datum ==")
tw = build_root_datum("2A4:sc")
print(f"  2A4:sc twist permutes the simple indices as {tw.delta_diagram}")
