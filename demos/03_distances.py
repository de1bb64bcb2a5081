"""Minimum and stopping distances: exact searches against explicit witnesses.

Small instances are settled by full codeword enumeration and by one
branch and bound for codeword supports and stopping sets; the transpose
family is settled at every size because its 2q dependent lines, as the
searches' seed, meet the girth-8 lower bound exactly.
"""

import symldpc as s

print("exact search regime:")
for family, n, q, stop_budget in [
    ("symmetric", 2, 2, None),
    ("symmetric_transpose", 2, 2, None),
    ("symmetric", 2, 3, None),
    ("symmetric_transpose", 2, 3, None),
    ("symmetric", 2, 4, 16),
]:
    code = s.make_code(family, n, q)
    d = s.min_distance(code.h)
    st = s.stopping_distance(code.h, budget=stop_budget)
    s_text = f"s={st.value}" if st.exact else f"s>={st.value}"
    print(f"  {code.code_id}: [{code.length},{code.dimension}] "
          f"d={d.value} ({d.method}), {s_text}, "
          f"girth bound {s.tanner_lower_bound(8, int(code.h.col_weights[0]))}")

# the support search also finds the 2q lines, within a budget of 2q
code = s.make_code(s.FAMILY_TRANSPOSE, 2, 5)
d = s.min_distance(code.h, budget=10)
print(f"  CT(2,5): support search d={d.value} ({d.status}), certified "
      f"d = {s.certified_min_distance(code).value}")

print("\nwitness regime (no search needed):")
for q in (2, 3, 4, 5):
    witness = s.ctranspose_witness(2, q)
    code = s.make_code(s.FAMILY_TRANSPOSE, 2, q)
    print(f"  CT(2,{q}): {len(witness)} dependent lines, columns sum to zero: "
          f"{s.columns_sum_zero(code.h, witness)}, certified "
          f"d = {s.certified_min_distance(code).value}")

# seeded with its 2q lines, the search needs no budget: they meet the girth floor
code = s.make_code(s.FAMILY_TRANSPOSE, 2, 8)
st = s.stopping_distance(code.h, seed=s.ctranspose_witness(2, 8))
print(f"  CT(2,8): seeded stopping distance s={st.value} ({st.status}, {st.method})")

for q in (2, 4, 8):
    witness = s.c2q_witness(q)
    hits = {len(witness.intersection(line.points)) for line in s.sym_space(2, q).lines()}
    print(f"  C(2,{q}): {len(witness)} dependent points, per-line hits {sorted(hits)}")

print("\nrank bounds from independent rows:")
for n, q in [(2, 2), (2, 3), (2, 4), (3, 2)]:
    rows = s.independent_row_family(n, q)
    code = s.make_code(s.FAMILY_SYMMETRIC, n, q)
    print(f"  H({n},{q}): rank {s.rank_gf2(code.h)} >= {len(rows)} independent rows; "
          f"dimension {code.dimension} <= {s.symmetric_dimension_bound(n, q)}")
