"""Real Laurent polynomials on fixed-point integers at scale 2^P.

The bounds are stated in units of 2^-P.  Sums, ``star``, projections, the
value at i and the division by lambda^2 - 1 are exact, and a product's one
rounding is odd, so every algebraic law below holds to 0 units.
"""

import random

import pytest

from lawsonarea.laurent import LaurentMatrix2, LaurentPoly, fixed_bits, round_map
from lawsonarea.precision import PrecisionConfig

CFG = PrecisionConfig(40)
CTX = CFG.context


def lam(deg, coeff=1):
    return LaurentPoly(CFG, {deg: coeff})


def central_a():
    return LaurentPoly(CFG, {-1: CTX.mpf(1) / 2, 1: -CTX.mpf(1) / 2})


def central_c(phi):
    v = -CTX.cos(phi) / 2
    return LaurentPoly(CFG, {-1: v, 1: v})


def random_poly(rng, span=3):
    coeffs = {}
    for deg in range(-span, span + 1):
        if rng.random() < 0.6:
            coeffs[deg] = CTX.mpf(rng.uniform(-2, 2))
    return LaurentPoly(CFG, coeffs)


def test_mul_basics():
    p = lam(1) + lam(0)
    q = lam(1) - lam(0)
    prod = p * q
    assert prod.coefficient(2) == 1 and prod.coefficient(0) == -1
    assert prod.coefficient(1) == 0

    assert (p * LaurentPoly.zero(CFG)).is_zero

    p = lam(-1) - lam(1)
    q = lam(-1) + lam(1)
    prod = p * q
    assert prod.coefficient(-2) == 1 and prod.coefficient(2) == -1
    assert prod.coefficient(0) == 0


def test_star_examples():
    assert (lam(1).star() - lam(-1)).is_zero
    a = central_a()
    assert (a.star() + a).is_zero                         # star(a) = -a
    c = central_c(CTX.pi / 3)
    assert (c.star() - c).is_zero                         # star(c) = c


def test_involution_laws():
    rng = random.Random(7)
    for _ in range(10):
        p, q = random_poly(rng), random_poly(rng)
        assert (p.star().star() - p).is_zero
        assert ((p * q).star() - p.star() * q.star()).is_zero


def test_product_rounds_once_and_oddly():
    """A product is the exact integer sum at 2^-2P, rounded once to nearest
    with ties away from zero, so negating a factor negates the result."""
    bits = fixed_bits(CFG)
    rng = random.Random(13)
    for _ in range(10):
        p, q = random_poly(rng), random_poly(rng)
        exact: dict = {}
        for d1, v1 in p.re.items():
            for d2, v2 in q.re.items():
                exact[d1 + d2] = exact.get(d1 + d2, 0) + v1 * v2
        assert (p * q).re == {d: v for d, v in round_map(exact, bits).items() if v}
        assert (p * -q + p * q).is_zero
    ties = {0: 3 << (bits - 1), 1: -3 << (bits - 1), 2: 1, 3: -(1 << (bits - 1))}
    assert round_map(ties, bits) == {0: 2, 1: -2, 2: 0, 3: -1}


def test_projections():
    h = lam(-1) + lam(0, 2) + lam(1, 3)
    assert (h.project("plus") - lam(1, 3)).is_zero
    recombined = h.project("plus") + h.project("minus") + h.project("zero")
    assert (recombined - h).is_zero
    a = central_a()
    assert (a.project("geq0") - lam(1, -CTX.mpf(1) / 2)).is_zero
    with pytest.raises(ValueError):
        h.project("negativeish")


def test_at_i():
    """h(i) as its real and imaginary parts, integers at 2^P."""
    one = 1 << fixed_bits(CFG)
    assert (lam(-1) + lam(1)).at_i() == (0, 0)
    assert lam(2).at_i() == (-one, 0) and lam(3, 2).at_i() == (0, -2 * one)
    assert (lam(-1, 3) + lam(0, 5)).at_i() == (5 * one, -3 * one)
    assert central_c(CTX.pi / 4).at_i() == (0, 0)


def test_divrem():
    q, r = lam(3).divrem_l2m1()
    assert (q - lam(1)).is_zero and (r - lam(1)).is_zero
    q, r = (lam(2) - lam(0)).divrem_l2m1()
    assert (q - lam(0)).is_zero and r.is_zero
    q, r = lam(1, 2).divrem_l2m1()
    assert q.is_zero and (r - lam(1, 2)).is_zero
    with pytest.raises(ValueError):
        (lam(-1) + lam(2)).divrem_l2m1()
    q, r = (lam(4) - lam(0)).divrem_l2m1()            # lam^4 - 1: a gap at degree 2
    assert (q - lam(2) - lam(0)).is_zero and r.is_zero


def test_divrem_reconstruction():
    rng = random.Random(11)
    modulus = lam(2) - lam(0)
    for _ in range(10):
        p = LaurentPoly(CFG, {d: CTX.mpf(rng.uniform(-3, 3))
                              for d in range(rng.randint(2, 9))})
        q, r = p.divrem_l2m1()
        if not r.is_zero:
            assert r.max_degree() <= 1
        assert (q * modulus + r - p).is_zero


def test_precision_mismatch_rejected():
    other = LaurentPoly(PrecisionConfig(60), {0: 1})
    with pytest.raises(ValueError):
        _ = lam(0) + other
    with pytest.raises(ValueError):
        _ = lam(0) * other


def test_only_exact_zeros_are_dropped():
    big = CTX.mpf(10) ** 6
    p = LaurentPoly(CFG, {0: big, 5: big * CFG.eps(0), 7: 0})
    assert p.degrees() == {0, 5}
    assert (p - p).is_zero


def test_real_coefficients_stay_real():
    """The constructor takes real numbers only, and refuses a coefficient
    with a nonzero imaginary part."""
    p = LaurentPoly(CFG, {0: CTX.mpf(2), 1: 3, 2: CTX.mpc(5, 0)})
    q = (p * p - p).scale(-2).star().shift(1)
    assert all(type(v) is CTX.mpf for v in map(q.coefficient, q.degrees()))
    for bad in (CTX.mpc(0, 1), 1 + 1e-30j):
        with pytest.raises(ValueError, match="not real"):
            LaurentPoly(CFG, {0: 1, 3: bad})
    with pytest.raises(ValueError, match="not real"):
        p.scale(CTX.mpc(0, 1))


def test_matrix_helpers():
    ident = LaurentMatrix2.identity(CFG)
    assert ident.max_abs_degree() == 0
    m = ident.add_scaled_constant(lam(2), CTX.mpf(3), ((0, 1), (-1, 0)))
    assert m.max_abs_degree() == 2
    assert (m[0, 1] - lam(2, 3)).max_abs() == 0 and (m[1, 0] + lam(2, 3)).max_abs() == 0
    assert (m[0, 0] - lam(0)).max_abs() == 0
