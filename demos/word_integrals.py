"""Word integrals along straight paths: tables, identities, cross-checks.

The three 1-forms on the 4-punctured sphere are labelled 1, 2, 3; a word
(i_1, ..., i_n) denotes the n-fold nested integral of those forms from 0 to
the endpoint.  This script builds a table of all words up to length 4 at
the minimal angle, compares the values with their closed forms, and shows
the algebraic structure (shuffle products, path composition) together with
an independent quadrature evaluation.
"""

import mpmath

from lawsonarea import (PrecisionConfig, build_table, chen_compose,
                        quadrature_oracle, shuffle)
from lawsonarea.omega import OmegaTable
from lawsonarea.verify import closed_forms_pi4

cfg = PrecisionConfig(target_digits=30)
ctx = cfg.context

print("building the depth-4 table at phi = pi/4 ...")
table = build_table("1", "pi/4", 4, cfg)

print("\nclosed forms (value, residual):")
for word, expected in sorted(closed_forms_pi4(cfg).items()):
    got = table.value(word)
    print(f"  omega{word}: {mpmath.nstr(got, 25)}   "
          f"residual {mpmath.nstr(abs(got - expected), 3)}")

print("\nshuffle identity: omega(1)*omega(2) = omega(1,2) + omega(2,1)")
lhs = table.value((1,)) * table.value((2,))
rhs = table.value((1, 2)) + table.value((2, 1))
print(f"  lhs - rhs = {mpmath.nstr(abs(lhs - rhs), 3)}")

print("\na longer shuffle: omega(2,1)*omega(3,1) expands into length-4 words")
combo = shuffle((2, 1), (3, 1))
rhs = sum(mult * table.value(word) for word, mult in combo.items())
lhs = table.value((2, 1)) * table.value((3, 1))
print(f"  {dict(combo)}")
print(f"  lhs - rhs = {mpmath.nstr(abs(lhs - rhs), 3)}")

print("\npath composition: a constant path changes nothing")
# the constant path at the table's end point, an exact integer pair
endpoint_table = OmegaTable.constant_path(cfg, "pi/4", table.ends[1], 4)
recomposed = chen_compose(table, endpoint_table)
worst = max(abs(recomposed.value(w) - table.value(w)) for w in table.words())
print(f"  worst deviation {mpmath.nstr(worst, 3)}")

print("\nindependent check: nested Gauss-Legendre quadrature")
for word in [(3,), (2, 1), (2, 2, 3)]:
    quad = quadrature_oracle(word, "1", "pi/4", cfg)
    print(f"  omega{word}: transport-vs-quadrature "
          f"{mpmath.nstr(abs(quad - table.value(word)), 3)}")

print("\ngeneral angle: omega(1)(1) = i (pi - 2 phi)")
for phi in ("pi/3", "0.3"):
    t1 = build_table("1", phi, 1, cfg)
    phiv = ctx.pi / 3 if phi == "pi/3" else ctx.mpf(phi)
    expected = ctx.mpc(0, 1) * (ctx.pi - 2 * phiv)
    print(f"  phi = {phi}: residual "
          f"{mpmath.nstr(abs(t1.value((1,)) - expected), 3)}")
