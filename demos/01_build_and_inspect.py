"""Build the smallest instance and look at everything by hand.

The space of 2x2 symmetric matrices over GF(2) has 8 points and 12 lines;
its incidence matrix is small enough to print whole and check against the
structural claims: row weight q, column weight (q^n-1)/(q-1), pairwise
overlaps at most 1, girth 8, diameter 6.
"""

import symldpc as s

sp = s.sym_space(2, 2)
print(f"space: {sp} with {sp.size} points and {sp.line_count()} lines")

print("\npoints (index: matrix rows):")
for idx in range(sp.size):
    p = sp.point_at(idx)
    print(f"  {idx}: {sp.matrix_of(p)}")

print("\nlines (index: member point indices):")
for line in sp.lines():
    print(f"  {line.index:2d}: {line.points}")

h = s.build_h(sp)
print("\nincidence matrix H (lines x points):")
for row in h.toarray():
    print("  " + " ".join(str(v) for v in row))

report = s.verify_structure(h, 2, 2)
print(f"\nstructure: rho={report.rho} gamma={report.gamma} lambda<={report.lambda_max}")

print(f"girth   = {s.girth(h)}")
print(f"diameter = {s.diameter(h)}")
print(f"rank over GF(2) = {s.rank_gf2(h)}")
print(f"code dimensions: columns-as-points {s.code_dimension(h)}, "
      f"columns-as-lines {s.code_dimension(h.transpose())}")
