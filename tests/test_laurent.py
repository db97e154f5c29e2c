import random

import pytest

from lawsonarea.laurent import LaurentMatrix2, LaurentPoly
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
            coeffs[deg] = CTX.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return LaurentPoly(CFG, coeffs)


def test_mul_basics():
    p = lam(1) + lam(0)
    q = lam(1) - lam(0)
    prod = p * q
    assert abs(prod.coefficient(2) - 1) < CFG.eps(2)
    assert abs(prod.coefficient(0) + 1) < CFG.eps(2)
    assert prod.coefficient(1) == 0

    assert (p * LaurentPoly.zero(CFG)).is_zero

    p = lam(-1) - lam(1)
    q = lam(-1) + lam(1)
    prod = p * q
    assert abs(prod.coefficient(-2) - 1) < CFG.eps(2)
    assert abs(prod.coefficient(2) + 1) < CFG.eps(2)
    assert prod.coefficient(0) == 0


def test_star_examples():
    assert (lam(1).star() - lam(-1)).is_zero
    a = central_a()
    assert (a.star() + a).max_abs() < CFG.eps(2)          # star(a) = -a
    c = central_c(CTX.pi / 3)
    assert (c.star() - c).max_abs() < CFG.eps(2)          # star(c) = c


def test_bar_examples():
    p = lam(1, CTX.mpc(0, 1))
    assert (p.bar() + p).max_abs() < CFG.eps(2)
    rng = random.Random(1)
    real_poly = LaurentPoly(CFG, {d: CTX.mpf(rng.uniform(-1, 1)) for d in (-2, 0, 3)})
    assert (real_poly.bar() - real_poly).max_abs() == 0
    p = random_poly(rng)
    assert (p.bar().bar() - p).max_abs() == 0


def test_involution_laws():
    rng = random.Random(7)
    for _ in range(10):
        p, q = random_poly(rng), random_poly(rng)
        assert (p.star().star() - p).max_abs() < CFG.eps(2)
        assert ((p * q).star() - p.star() * q.star()).max_abs() < CFG.eps(4)
        assert ((p * q).bar() - p.bar() * q.bar()).max_abs() < CFG.eps(4)
        assert (p.star().bar() - p.bar().star()).max_abs() < CFG.eps(2)


def test_projections():
    h = lam(-1) + lam(0, 2) + lam(1, 3)
    assert (h.project("plus") - lam(1, 3)).is_zero
    recombined = h.project("plus") + h.project("minus") + h.project("zero")
    assert (recombined - h).max_abs() == 0
    a = central_a()
    assert (a.project("geq0") - lam(1, -CTX.mpf(1) / 2)).max_abs() < CFG.eps(2)
    with pytest.raises(ValueError):
        h.project("negativeish")


def test_eval():
    i = CTX.mpc(0, 1)
    assert abs((lam(-1) + lam(1)).eval(i)) < CFG.eps(2)
    assert abs(lam(2).eval(i) + 1) < CFG.eps(2)
    c = central_c(CTX.pi / 4)
    assert abs(c.eval(i)) < CFG.eps(2)
    with pytest.raises(ZeroDivisionError):
        lam(-1).eval(0)


def test_eval_real_on_circle_iff_star_symmetric():
    rng = random.Random(3)
    sym = lam(2) + lam(-2) + lam(0, CTX.mpf("0.7"))      # star-symmetric, real coeffs
    for _ in range(5):
        z = CTX.expjpi(CTX.mpf(rng.uniform(-1, 1)))
        assert abs(CTX.im(sym.eval(z))) < CFG.eps(4)
    asym = lam(2) + lam(1, CTX.mpf("0.3"))
    hits = sum(1 for _ in range(5)
               if abs(CTX.im(asym.eval(CTX.expjpi(CTX.mpf(rng.uniform(-1, 1)))))) > 1e-3)
    assert hits == 5


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
        p = LaurentPoly(CFG, {d: CTX.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
                              for d in range(rng.randint(2, 9))})
        q, r = p.divrem_l2m1()
        if not r.is_zero:
            assert r.max_degree() <= 1
        residual = (q * modulus + r - p).max_abs()
        assert residual < max(p.max_abs(), CTX.mpf(1)) * CFG.eps(4)


def test_precision_mismatch_rejected():
    other = LaurentPoly(PrecisionConfig(60), {0: 1})
    with pytest.raises(ValueError):
        _ = lam(0) + other
    with pytest.raises(ValueError):
        _ = lam(0) * other


def test_only_exact_zeros_are_dropped():
    big = CTX.mpf(10) ** 6
    p = LaurentPoly(CFG, {0: big, 5: big * CFG.eps(0), 7: 0})
    assert set(p.coeffs) == {0, 5}
    assert (p - p).is_zero


def test_real_coefficients_stay_real():
    p = LaurentPoly(CFG, {0: CTX.mpf(2), 1: 3})
    q = (p * p - p).scale(-2).star().shift(1) + p.bar()
    assert all(type(v) is CTX.mpf for v in q.coeffs.values())
    assert all(type(v) is CTX.mpc for v in p.scale(CTX.mpc(0, 1)).coeffs.values())


def test_serialization_roundtrip():
    rng = random.Random(5)
    p = random_poly(rng)
    q = LaurentPoly.loads(p.dumps(), CFG)
    assert (p - q).max_abs() == 0
    data = p.to_jsonable()
    assert all(set(item) == {"deg", "re", "im"} for item in data)


def test_matrix_helpers():
    ident = LaurentMatrix2.identity(CFG)
    assert ident.max_abs_degree() == 0
    m = ident.add_scaled_constant(lam(2), CTX.mpc(0, 1), ((0, 1), (1, 0)))
    assert m.max_abs_degree() == 2
    assert (m[0, 1] - lam(2, CTX.mpc(0, 1))).max_abs() == 0
    assert (m[0, 0] - lam(0)).max_abs() == 0
