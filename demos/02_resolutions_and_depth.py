"""Betti numbers, projective dimension and depth via the Lyubeznik resolution.

The resolution of S/I is indexed by the faces of the Lyubeznik complex, a
subcomplex of the subsets of the minimal generators; mapping it into the
residue field and taking exact ranks over GF(32003) yields the Betti
numbers, and depth follows from Auslander-Buchsbaum.
"""

from relhom import RingSpec, parse_ideal, quotient_dimension
from relhom.taylor import betti_numbers, depth_quotient, pd_quotient

ring = RingSpec(("x1", "x2", "y1", "y2"))

for text in ("x1, x2", "x1*x2, x2*y1, y1*y2, y2*x1", "x1^2, x2^3"):
    ideal = parse_ideal(ring, text)
    print(f"I = <{text}>")
    print("  betti:", betti_numbers(ideal))
    print("  pd   :", pd_quotient(ideal))
    print("  depth:", depth_quotient(ideal), " dim:", quotient_dimension(ideal))
    print()

# The 4-cycle edge ideal has depth 1 < dim 2: its quotient is not Cohen-Macaulay
edge = parse_ideal(ring, "x1*x2, x2*y1, y1*y2, y2*x1")
assert depth_quotient(edge) == 1 and quotient_dimension(edge) == 2
print("the 4-cycle quotient has depth < dim, so it is not Cohen-Macaulay in the classical sense")
