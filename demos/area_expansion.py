"""The full pipeline: signed word-integral tables -> recursion -> area coefficients.

Computes the Taylor expansion Area = 8 pi (1 - sum alpha_k t^k) of the
genus-g minimal surfaces at t = 1/(2g+2), checks the known closed forms,
and evaluates the conjectural order-5 form in alternating zeta values.
Expect a few seconds at the default 40 digits.
"""

import time

import mpmath

from lawsonarea import PrecisionConfig, build_signed_table, first_order_general_phi
from lawsonarea.engine import area_series, run
from lawsonarea.verify import alpha5_conjecture_value

cfg = PrecisionConfig(target_digits=40)
ctx = cfg.context

start = time.perf_counter()
print("building the depth-6 table of signed sums per letter multiset ...")
table = build_signed_table("1", "pi/4", 6, cfg)
print(f"  {len(table.values)} signed sums in {time.perf_counter() - start:.1f}s")

start = time.perf_counter()
state = run(5, cfg, table=table)
result = area_series(state)
print(f"recursion to order 5 in {time.perf_counter() - start:.1f}s\n")

for k, alpha in enumerate(result.alphas, 1):
    print(f"  alpha_{k} = {mpmath.nstr(alpha, 40)}")

print("\nclosed forms:")
print("  alpha_1 - log 2        =",
      mpmath.nstr(abs(result.alpha(1) - ctx.ln(2)), 3))
print("  alpha_3 - (9/4) zeta 3 =",
      mpmath.nstr(abs(result.alpha(3) - ctx.mpf(9) / 4 * ctx.zeta(3)), 3))
print("  alpha_5 - conjecture   =",
      mpmath.nstr(abs(result.alpha(5) - alpha5_conjecture_value(cfg)), 3))

print("\nper-genus normalization (powers of 1/(g+1)):")
for k, coeff in enumerate(result.per_genus_coefficients(), 1):
    if abs(coeff) > cfg.eps(6):
        print(f"  order {k}: {mpmath.nstr(coeff, 25)}")

print("\nfirst-order data away from the minimal angle:")
for phi in ("pi/6", "0.5"):
    first = first_order_general_phi(phi, cfg)
    print(f"  phi = {phi}: d(Willmore)/dt = {mpmath.nstr(first.willmore_slope, 20)}, "
          f"dH/dt = {mpmath.nstr(first.mean_curvature_slope, 20)}")
print("  (the mean-curvature slope changes sign exactly at pi/4)")
