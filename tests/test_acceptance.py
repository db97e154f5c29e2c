"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 7 (the order-7 coefficient) is stretch-gated:
it runs by default here because this implementation stays far under its
budget, and can be disabled with ``--skip-stretch``.
"""

import random
import time

import mpmath
import pytest

from lawsonarea.engine import (area_series, first_order_general_phi,
                               q_first_order_check, run)
from lawsonarea.laurent import LaurentPoly
from lawsonarea.mpl import convert_word, li, mpl_spec
from lawsonarea.omega import build_signed_table, build_table, parse_phi, quadrature_oracle
from lawsonarea.precision import PrecisionConfig
from lawsonarea.verify import (alpha5_conjecture_value, closed_form_suite,
                               integral_identity_suite)
from lawsonarea.words import letter, shuffle, stuffle

ALPHA5_PAPER = "3.69962699449761843989338013547104461773632954830910"
ALPHA7_PAPER = "-53.1688000602634657601186493744463143722221041377109"


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_closed_form_suite(cfg45, tables):
    start = time.perf_counter()
    report = closed_form_suite(cfg45, table=tables.get("1", "pi/4", 4, cfg45))
    worst = max(c.residual for c in report.checks)
    elapsed = time.perf_counter() - start
    ok = (len(report.checks) == 9 and worst < mpmath.mpf("1e-35")
          and elapsed < 60)
    _report(1, ok, f"9 closed forms at precision 45, worst residual "
                   f"{mpmath.nstr(worst, 3)}, {elapsed:.1f}s")


def test_criterion_2_integral_identities(cfg45):
    start = time.perf_counter()
    report = integral_identity_suite(cfg45, phis=("0.3", "pi/4", "1.2"))
    worst = max(c.residual for c in report.checks)
    elapsed = time.perf_counter() - start
    ok = worst < mpmath.mpf("1e-35") and elapsed < 60
    _report(2, ok, f"first-order integral identities at three angles, worst "
                   f"residual {mpmath.nstr(worst, 3)}, {elapsed:.1f}s")


def test_criterion_3_oracle_triangle():
    cfg = PrecisionConfig(30)
    tol = cfg.context.mpf("1e-20")
    worst = cfg.context.mpf(0)
    for phi_label in ("pi/6", "pi/4"):
        table = build_table("1", phi_label, 2, cfg)
        phi = parse_phi(phi_label, cfg)
        words = [(i,) for i in (1, 2, 3)]
        words += [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        for word in words:
            transport = table.value(word)
            quad = quadrature_oracle(word, "1", phi_label, cfg)
            conv = convert_word(word, phi, cfg).value(cfg)
            worst = max(worst, abs(transport - quad), abs(transport - conv),
                        abs(quad - conv))
    ok = worst < tol
    _report(3, ok, f"transport/quadrature/polylog triangle on 12 words x 2 "
                   f"angles, worst spread {mpmath.nstr(worst, 3)} (>= 20 digits)")


def test_criterion_4_alpha1_and_even_orders(cfg40, state40_o6):
    ctx = cfg40.context
    res = area_series(state40_o6)
    err1 = abs(res.alpha(1) - ctx.ln(2))
    evens = max(abs(res.alpha(k)) for k in (2, 4, 6))
    ok = err1 < ctx.mpf("1e-35") and evens < ctx.mpf("1e-30")
    _report(4, ok, f"alpha_1 - log 2 = {mpmath.nstr(err1, 3)}, "
                   f"max even-order coefficient {mpmath.nstr(evens, 3)}")


def test_criterion_5_alpha3_three_way(cfg40, table40_pi4_L4, signed40_pi4_L4):
    from lawsonarea.verify import alpha3_raw, alpha3_simplified
    start = time.perf_counter()
    ctx = cfg40.context
    target = ctx.mpf(9) / 4 * ctx.zeta(3)
    raw = alpha3_raw(table40_pi4_L4)
    simplified = alpha3_simplified(table40_pi4_L4)
    engine_val = area_series(run(3, cfg40, table=signed40_pi4_L4)).alpha(3)
    worst = max(abs(raw - target), abs(simplified - target),
                abs(engine_val - target))
    elapsed = time.perf_counter() - start
    ok = worst < ctx.mpf("1e-30") and elapsed < 300
    _report(5, ok, f"alpha_3 vs 9/4 zeta(3) three ways, worst "
                   f"{mpmath.nstr(worst, 3)}, {elapsed:.1f}s")


def test_criterion_6_alpha5(cfg40, signed40_pi4_L7):
    ctx = cfg40.context
    start = time.perf_counter()
    res = area_series(run(5, cfg40, table=signed40_pi4_L7))
    err = abs(res.alpha(5) - ctx.mpf(ALPHA5_PAPER))
    elapsed = time.perf_counter() - start
    ok = err < ctx.mpf("1e-38") and elapsed < 10
    _report(6, ok, f"alpha_5 vs published digits: {mpmath.nstr(err, 3)} "
                   f"(>= 38 digits), {elapsed:.1f}s")


@pytest.mark.stretch
def test_criterion_7_alpha7_stretch(cfg40):
    ctx = cfg40.context
    budget = 10
    start = time.perf_counter()
    table = build_signed_table("1", "pi/4", 8, cfg40)
    state = run(7, cfg40, table=table)
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        _report(7, False, f"order-7 run exceeded its budget: {elapsed:.1f}s > {budget}s")
    res = area_series(state)
    err = abs(res.alpha(7) - ctx.mpf(ALPHA7_PAPER))
    ok = err < ctx.mpf("1e-30") and elapsed < budget
    _report(7, ok, f"alpha_7 vs published digits: {mpmath.nstr(err, 3)} "
                   f"(>= 30 digits), {elapsed:.1f}s")


def test_criterion_8_first_order_suite(cfg40, state40_o6):
    ctx = cfg40.context
    tol = ctx.mpf("1e-30")
    first = first_order_general_phi("pi/4", cfg40)
    # b^(1) and c^(1) against the closed forms, degree by degree, on the same degrees
    closed = ((state40_o6.x(2, 1), {0: first.b0, 2: first.b2}),
              (state40_o6.c[1], {0: first.c0, 2: first.c2}))
    degrees_ok = all(set(poly.degrees()) == set(forms) for poly, forms in closed)
    worst = max([abs(poly.coefficient(d) - v) for poly, forms in closed
                 for d, v in forms.items()]
                + [state40_o6.a[1].max_abs(), abs(state40_o6.r[1])])
    slope_err = abs(first.willmore_slope + 8 * ctx.pi * ctx.ln(2))
    q1 = q_first_order_check("pi/4", cfg40)
    q2 = q_first_order_check("0.4", cfg40)
    ok = degrees_ok and worst < tol and slope_err < tol and q1 < tol and q2 < tol
    _report(8, ok, f"first-order closed forms {mpmath.nstr(worst, 3)} "
                   f"(same degrees: {degrees_ok}), "
                   f"slope {mpmath.nstr(slope_err, 3)}, q-residuals "
                   f"{mpmath.nstr(q1, 3)} / {mpmath.nstr(q2, 3)}")


def test_criterion_9_property_suites(cfg40, state40_o6, table40_pi4_L7):
    ctx = cfg40.context
    tol = cfg40.eps(6)
    rng = random.Random(0)
    failures = []

    # 50 shuffle pairs, combined length <= 6
    for k in range(50):
        n1 = rng.randint(1, 5)
        n2 = rng.randint(1, 6 - n1)
        w1 = tuple(rng.choice((1, 2, 3)) for _ in range(n1))
        w2 = tuple(rng.choice((1, 2, 3)) for _ in range(n2))
        rhs = ctx.mpc(0)
        for word, mult in shuffle(w1, w2).items():
            rhs += mult * table40_pi4_L7.value(word)
        if abs(table40_pi4_L7.value(w1) * table40_pi4_L7.value(w2) - rhs) >= tol:
            failures.append(f"shuffle {w1} x {w2}")

    # 20 stuffle pairs with convergent arguments
    for k in range(20):
        def rand_letter():
            return letter(rng.randint(1, 3),
                          ctx.mpf(rng.randint(2, 7)) / 10
                          * ctx.expjpi(ctx.mpf(rng.randint(0, 15)) / 8))
        w1 = tuple(rand_letter() for _ in range(rng.randint(1, 2)))
        w2 = (rand_letter(),)
        lhs = (li(mpl_spec([l.n for l in w1], [l.z for l in w1], cfg40), cfg40)
               * li(mpl_spec([l.n for l in w2], [l.z for l in w2], cfg40), cfg40))
        rhs = ctx.mpc(0)
        for word, mult in stuffle(w1, w2).items():
            rhs += mult * li(mpl_spec([l.n for l in word], [l.z for l in word],
                                      cfg40), cfg40)
        if abs(lhs - rhs) >= tol:
            failures.append(f"stuffle pair {k}")

    # star involution laws on random real Laurent polynomials: each law holds
    # to 0 units of 2^-P, since the integer kernel permutes exact sums and
    # rounds a product oddly (laurent's rounding budget)
    for k in range(20):
        coeffs = {d: ctx.mpf(rng.uniform(-2, 2))
                  for d in range(-3, 4) if rng.random() < 0.7}
        p = LaurentPoly(cfg40, coeffs)
        q = LaurentPoly(cfg40, {d: ctx.mpf(rng.uniform(-2, 2))
                                for d in range(-2, 3)})
        if not (p.star().star() - p).is_zero:
            failures.append(f"star involution {k}")
        if not ((p * q).star() - p.star() * q.star()).is_zero:
            failures.append(f"star multiplicativity {k}")

    # degree and parity invariants at every computed engine order
    for n in range(1, state40_o6.order + 1):
        for poly in (state40_o6.a[n], state40_o6.x(2, n), state40_o6.c[n]):
            if poly.is_zero:
                continue
            if poly.min_degree() < 0 or poly.max_degree() > n + 1:
                failures.append(f"degree bound at order {n}")
            if any((d + n) % 2 == 0 for d in poly.degrees()):
                failures.append(f"parity at order {n}")
        if n % 2 == 1 and state40_o6.r[n] != 0:
            failures.append(f"odd-order r at order {n}")

    _report(9, not failures,
            f"90 sampled property checks plus engine invariants to order "
            f"{state40_o6.order}; failures: {failures or 'none'}")


@pytest.mark.stretch
def test_criterion_10_alpha5_conjecture(cfg40, state40_o6):
    ctx = cfg40.context
    res = area_series(state40_o6)
    err = abs(res.alpha(5) - alpha5_conjecture_value(cfg40))
    ok = err < ctx.mpf("1e-20")
    _report(10, ok, f"alpha_5 vs alternating-zeta conjecture: "
                    f"{mpmath.nstr(err, 3)} (< 1e-20)")
