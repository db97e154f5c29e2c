import functools
import itertools
import math
from fractions import Fraction

import mpmath
import pytest

from lawsonarea.engine import (M_MATS, DerivativeState, EngineError, _t_matrix,
                               _word, advance, area_series, central_state, extract_a_r,
                               extract_c, first_order_general_phi, frame_derivative,
                               frame_lower, p_derivative, q_first_order_check, run)
from lawsonarea.laurent import LaurentMatrix2, LaurentPoly, to_mpf
from lawsonarea.omega import build_signed_table
from lawsonarea.precision import PrecisionConfig, guard_digits_for_order, pi_fixed

CFG = PrecisionConfig(40)
CTX = CFG.context
ALPHA9 = "-459.5656763714886336332528952560965619955262720306898451994"


def test_central_values_determinant():
    state = central_state(CFG)
    combo = (state.x(1, 0) * state.x(1, 0) - state.x(2, 0) * state.x(2, 0)
             - state.x(3, 0) * state.x(3, 0))
    expected = LaurentPoly(CFG, {0: -1})
    assert (combo - expected).max_abs() < CFG.eps(4)


def test_first_order_matches_closed_forms(state40_o6):
    """b^(1) and c^(1) of the recursion hold the closed forms' degrees 0 and 2
    and no other, and match them degree by degree."""
    first = first_order_general_phi("pi/4", CFG)
    for poly, closed in ((state40_o6.x(2, 1), {0: first.b0, 2: first.b2}),
                         (state40_o6.c[1], {0: first.c0, 2: first.c2})):
        assert set(poly.degrees()) == set(closed)
        for degree, value in closed.items():
            assert abs(poly.coefficient(degree) - value) < CFG.eps(6), degree
    assert state40_o6.a[1].max_abs() < CFG.eps(6)           # sin(2 phi) log tan phi = 0
    assert state40_o6.r[1] == 0


def test_first_order_values_at_pi4():
    first = first_order_general_phi("pi/4", CFG)
    log2 = CTX.ln(2)
    s = 1 / CTX.sqrt(2)
    assert abs(first.b2 - log2 * s) < CFG.eps(4)
    assert abs(first.c2 + log2 * s) < CFG.eps(4)
    assert abs(first.b0 - log2 * s) < CFG.eps(4)
    assert abs(first.c0 + log2 * s) < CFG.eps(4)
    assert first.theta1 == 0
    assert first.mean_curvature_slope == 0
    assert abs(first.willmore_slope + 8 * CTX.pi * log2) < CFG.eps(4)
    assert abs(first.area_slope + 8 * CTX.pi * log2) < CFG.eps(4)


def test_first_order_data_has_the_fields_the_cli_prints():
    """``cli._cmd_expand`` reads these by name, in this order."""
    first = first_order_general_phi(" pi/6 ", CFG)
    names = ("a0", "a2", "b0", "b2", "c0", "c2", "r1", "theta1",
             "mean_curvature_slope", "willmore_slope", "area_slope")
    assert first.FIELDS == names
    assert all(isinstance(getattr(first, name), CTX.mpf) for name in names)
    assert first.phi_label == "pi/6"


def test_first_order_general_phi_signs():
    first = first_order_general_phi("pi/6", CFG)
    expected = -2 * CTX.sin(CTX.pi / 3) * CTX.ln(CTX.tan(CTX.pi / 6))
    assert abs(first.mean_curvature_slope - expected) < CFG.eps(4)
    assert first.mean_curvature_slope > 0      # positive below the minimal angle
    # reflection symmetry of the Willmore slope
    other = first_order_general_phi("pi/3", CFG)
    assert abs(first.willmore_slope - other.willmore_slope) < CFG.eps(4)


def test_parity_and_symmetry_invariants(state40_o6):
    # structural zeros stay exact, with no rounding dust left in them
    assert state40_o6.a[1].is_zero and state40_o6.a[2].is_zero
    for n in range(1, state40_o6.order + 1):
        for poly in (state40_o6.a[n], state40_o6.c[n]):
            if poly.is_zero:
                continue
            assert poly.min_degree() >= 0
            assert poly.max_degree() <= n + 1
            for deg in poly.re:
                assert (deg + n) % 2 == 1, (n, deg)
        # odd-order r vanish
        if n % 2 == 1:
            assert state40_o6.r[n] == 0
    # b(t) = c(-t): b^(n) prints as c^(n), sign-flipped at odd n
    rows = state40_o6.derivatives_jsonable()
    assert [row["order"] for row in rows] == list(range(1, 7))
    for row in rows:
        c_terms = row["c"]
        if row["order"] % 2:
            c_terms = [dict(t, re=t["re"][1:] if t["re"].startswith("-") else "-" + t["re"])
                       for t in c_terms]
        assert row["c"] and row["b"] == c_terms, row["order"]


def test_frame_degree_bounds(state40_o6):
    for m, frame in enumerate(state40_o6.frames):
        assert frame.max_abs_degree() <= max(m, 0)


def test_residual_diagnostics_small(state40_o6):
    """Each order reports the star and Sym-point residuals, and an even order
    the normalization residual too: at odd n a^(n), r^(n) and K_lower are
    exactly 0 and there is nothing to normalize."""
    assert [diag["order"] for diag in state40_o6.diagnostics] == list(range(1, 7))
    for diag in state40_o6.diagnostics:
        keys = {"order", "star_residual", "sym_residual"}
        if diag["order"] % 2 == 0:
            keys.add("normalization_residual")
        assert set(diag) == keys, diag["order"]
        for key in keys - {"order"}:
            assert diag[key] < CFG.eps(8) * 100, (diag["order"], key)


def test_area_series_low_orders(state40_o6):
    res = area_series(state40_o6)
    assert abs(res.alpha(1) - CTX.ln(2)) < CFG.eps(6)
    assert abs(res.alpha(2)) < CFG.eps(6)
    assert abs(res.alpha(3) - CTX.mpf(9) / 4 * CTX.zeta(3)) < CFG.eps(6)
    assert abs(res.alpha(4)) < CFG.eps(6)
    assert abs(res.alpha(6)) < CFG.eps(6)
    # b(t) = c(-t), r even in t and cos = sin make every even alpha_k exactly 0
    for k in range(2, res.order + 1, 2):
        assert res.alpha_fixed[k - 1] == 0, k
    # Willmore = area at the minimal angle, H-series identically zero
    payload = res.to_jsonable()
    assert payload["willmore_t"] == payload["alpha_t"]
    assert set(payload["mean_curvature_t"]) == {"0.0"}


def test_per_genus_rescaling(state40_o6):
    res = area_series(state40_o6)
    per_g = res.per_genus_coefficients()
    assert abs(per_g[0] - res.alpha(1) / 2) == 0
    assert abs(per_g[2] - res.alpha(3) / 8) == 0
    # one rounding: the values are the ones alpha_texts prints
    assert [CTX.nstr(v, CFG.target_digits) for v in per_g] == res.alpha_texts(per_genus=True)


def test_result_json_schema(state40_o6):
    payload = area_series(state40_o6).to_jsonable()
    assert payload["version"] == 1
    assert payload["order"] == 6
    assert len(payload["alpha_t"]) == 6
    assert payload["area_prefactor"] == "8*pi"
    assert len(payload["order_diagnostics"]) == 6
    float(payload["alpha_t"][0])     # decimal strings parse


def test_truncated_series_extraction(state40_o6):
    res = area_series(state40_o6, order=3)
    assert len(res.alphas) == 3
    for order in (7, 0, -1):
        with pytest.raises(ValueError, match="outside the state's orders 1..6"):
            area_series(state40_o6, order=order)


def test_alpha_refuses_orders_outside_the_series(state40_o6):
    """alpha(k) reads k = 1..order only: a k <= 0 must not index the list
    from its end and return alpha_N or alpha_(N-1)."""
    res = area_series(state40_o6, order=3)
    assert res.alpha(3) == res.alphas[2]
    for k in (0, -1, 4):
        with pytest.raises(ValueError, match=f"alpha_{k} is outside orders 1..3"):
            res.alpha(k)


def test_frame_requires_complete_state(state40_o6, signed40_pi4_L7):
    with pytest.raises(ValueError):
        frame_derivative(7, state40_o6, signed40_pi4_L7)


def test_table_depth_guard(cfg40, tables):
    shallow = tables.signed("1", "pi/4", 1, cfg40)
    with pytest.raises(ValueError):
        run(2, cfg40, table=shallow)


def test_engine_rejects_word_tables(state40_o6, table40_pi4_L4, table40_pi4_L7):
    """The engine reads signed sums per letter multiset, never a word table."""
    with pytest.raises(TypeError, match="signed"):
        run(3, CFG, table=table40_pi4_L4)
    with pytest.raises(TypeError, match="signed"):
        frame_lower(3, state40_o6, table40_pi4_L7)


def test_q_first_order_check():
    assert q_first_order_check("pi/4", CFG) < CFG.eps(6)
    assert q_first_order_check("0.4", CFG) < CFG.eps(6)


def test_engine_precision_doubling(signed40_pi4_L4, tables):
    hi_cfg = PrecisionConfig(50)
    lo = area_series(run(3, CFG, table=signed40_pi4_L4))
    hi = area_series(run(3, hi_cfg, table=tables.signed("1", "pi/4", 4, hi_cfg)))
    for k in (1, 3):
        assert abs(lo.alpha(k) - hi.alpha(k)) < CTX.mpf(10) ** (-(40 - 2))


def test_engine_precision_doubling_order5(tables):
    hi_cfg = PrecisionConfig(60)
    lo = area_series(run(5, CFG, table=tables.signed("1", "pi/4", 6, CFG)))
    hi = area_series(run(5, hi_cfg, table=tables.signed("1", "pi/4", 6, hi_cfg)))
    for k in (3, 5):
        assert abs(lo.alpha(k) - hi.alpha(k)) < CTX.mpf("1e-38")


def test_run_rejects_bad_order():
    with pytest.raises(ValueError):
        run(0, CFG)


def test_engine_error_is_raised_on_corrupt_table(signed40_pi4_L4):
    import copy
    broken = copy.copy(signed40_pi4_L4)
    broken.values = dict(signed40_pi4_L4.values)
    phase, x = broken.values[(3,)]
    # poison sigma_(0,0,1) = Omega(3): its imaginary value i x made real
    broken.values[(3,)] = 1 - phase, x
    with pytest.raises(EngineError):
        run(2, CFG, table=broken)


def test_negative_degrees_of_lambda_k_lower(signed40_pi4_L7):
    """lambda * K_lower's negative degrees are projected away as dust up to
    eps(2) of its peak (350 at order 4), and raise above that."""
    state = run(3, CFG, table=signed40_pi4_L7)
    c_n = extract_c(4, p_derivative(4, state, frame_lower(4, state, signed40_pi4_L7)), CFG)
    a_n, r_n, _ = extract_a_r(4, state, c_n)

    def with_extra(size):      # c^(4) plus size * lambda^-1, which b^(4) = c^(4) doubles,
        # puts sqrt(2) size on lambda^-1
        return extract_a_r(4, state, c_n + LaurentPoly(CFG, {-1: CTX.mpf(size)}))

    # 1.4e-47 lies above eps(2) = 1e-48 of the floor 1, below eps(2) of the peak
    a_dust, r_dust, _ = with_extra("1e-47")
    assert (a_dust - a_n).is_zero and to_mpf(abs(r_dust - r_n), CFG) < CFG.eps(8)
    with pytest.raises(EngineError, match="negative degrees"):
        with_extra("1e-40")


@pytest.fixture(scope="module")
def order2_inputs(signed40_pi4_L7):
    """The order-1 state and c^(2), the inputs of ``extract_a_r(2, ...)``."""
    state = run(1, CFG, table=signed40_pi4_L7)
    c_n = extract_c(2, p_derivative(2, state, frame_lower(2, state, signed40_pi4_L7)), CFG)
    return state, c_n


def test_negative_degrees_tolerance_floor(order2_inputs):
    """At order 2 lambda * K_lower is pure dust (its peak below 1e-57), so its
    negative degrees are measured against max(peak, 1): dust up to eps(2)
    passes, and anything above it raises.  a^(2) = r^(2) = 0 by
    construction (``test_order2_identity``), so only K_lower is returned."""
    state, c_n = order2_inputs
    a_n, r_n, k_low = extract_a_r(2, state, c_n)
    assert a_n.is_zero and r_n == 0
    assert k_low.max_abs() < CTX.mpf("1e-57")

    def with_extra(size):      # c^(2) plus size * lambda^-1: c0 (1/lambda + lambda)
        # and the factor -4 put 2 sqrt(2) size on lambda^-1 of lambda * K_lower
        return extract_a_r(2, state, c_n + LaurentPoly(CFG, {-1: CTX.mpf(size)}))

    assert not with_extra("1e-50")[2].is_zero
    with pytest.raises(EngineError, match="negative degrees"):
        with_extra("1e-40")


@pytest.mark.parametrize("target, guard", [(35, 10), (40, 10), (40, 36), (100, 10), (200, 12)])
def test_order2_identity(tables, target, guard):
    """The engine docstring's "order-2 identity" on the recursion's integers:
    c^(1) = kappa (1 + lambda^2), kappa = -h m / pi, c^(2) = -(m kappa / pi)
    (lambda + lambda^3), which is (kappa^2 / h)(lambda + lambda^3), and
    c0 c^(2) + (c^(1))^2 = 0, with h = -c0's coefficient, m = x_(1,2) -
    x_(1,) x_(2,) from the table and pi = ``pi_fixed``.

    The bounds, in units u = 2^-P, follow laurent's rounding budget: a
    product rounds each coefficient by at most u/2, and errors propagate as
    e_p |q| + |p| e_q, |q| the sum of q's coefficients' moduli.  Rounding is
    odd and star only permutes, so a product of star-even or star-odd
    factors has that parity exactly, errors included; c^(n) reads p_lower at
    degree d > 0 only as p_(-d) - p_d, from which every star-even part
    cancels.  At pi/4, |x_(1,)| = pi/2, |x_(2,)| = 1.763, |x_(1,2)| = 1.586,
    |kappa| = 0.490 and h = 0.354.
    * Order 1: p_lower^(2) is star-odd exactly, so p_lower^(2)(i) = 0 and
      c^(1)'s degree-0 and degree-2 integers are equal.  A coefficient of
      p_lower^(2) carries 2 |x_(1,2)| u from the frame sums' one product
      a0 c0, u from their two entries and 2 (2.56 + 3.81) u from the two
      products of P^(1)'s entries; p_(-2) - p_2 twice that, 33.8 u, times
      1/(4 pi), plus the factor's u/2 times 4 pi |kappa| and the product's
      u/2: 6.3 u.
    * Order 2: the frame sums' D^1 of (1, 2) carries 6 |x_(1,2)| u and
      their two entries u; of the four products of P^(1) and P^(2) entries
      two are star-even, and the two others, scaled by 3, carry 6.88 u and
      3.42 u (P^(2)'s letter-2 and letter-3 terms round u/2 each).  So
      p_(-d) - p_d carries 82.8 u, and c^(2), after 1/(6 pi), the factor's
      u/2 times 6 pi |c^(2)_d| and the product's u/2: 11.3 u.
    * The identity: its degrees 0 and 4 are kappa e_1 - h e_2, e_n the
      errors above, and degree 2 twice that, plus the two products' u/2
      each: 8.1 u and 15.2 u.
    Against the closed forms at pi/4, kappa = -ln(2)/sqrt(2) and
    kappa^2 / h = sqrt(2) ln(2)^2, the table's error adds: omega's budget
    holds each sigma within 2^23 u (series of at most 1000 terms), which
    moves kappa by at most 0.49 and c^(2) by 1.36 times that, so both lie
    within one unit of the working precision, 2^24 u.
    """
    cfg = PrecisionConfig(target, guard)
    bits = cfg.fixed_bits
    table = tables.signed("1", "pi/4", 3, cfg)
    state = run(2, cfg, table=table)
    c0, c1, c2 = state.c[:3]
    x1, x2, x12 = (table.values[key][1] for key in ((1,), (2,), (1, 2)))
    h, pi = -c0.re[1], pi_fixed(bits)
    m = Fraction((x12 << bits) - x1 * x2, 1 << bits)        # at 2^P, as h and pi
    assert set(c1.re) == {0, 2} and c1.re[0] == c1.re[2]
    assert abs(c1.re[2] - (-h * m / pi)) <= Fraction(63, 10)
    assert set(c2.re) == {1, 3}
    for d in (1, 3):
        assert abs(c2.re[d] - (-m * c1.re[2] / pi)) <= Fraction(113, 10), d
    identity = c0 * c2 + c1 * c1
    assert set(identity.re) <= {0, 2, 4}
    for d, bound in ((0, Fraction(81, 10)), (2, Fraction(152, 10)), (4, Fraction(81, 10))):
        assert abs(identity.re.get(d, 0)) <= bound, d
    with mpmath.workprec(bits + 32):
        kappa = -mpmath.ln(2) / mpmath.sqrt(2)
        gamma = 2 * mpmath.sqrt(2) * kappa ** 2        # kappa^2 / h at h = 1/(2 sqrt(2))
        for poly, degrees, value in ((c1, (0, 2), kappa), (c2, (1, 3), gamma)):
            for d in degrees:
                assert abs(poly.re[d] - value * 2 ** bits) <= 2 ** (bits - cfg.working_bits), d


def with_c_term(state, c_n, degree, size):
    """``extract_a_r(2, ...)`` on c^(2) plus size * lambda^degree, which
    c0 (1/lambda + lambda) and the factor -4 put on degrees degree and
    degree + 2 of lambda * K_lower."""
    return extract_a_r(2, state, c_n + LaurentPoly(CFG, {degree: CTX.mpf(size)}))


def test_division_remainder_is_exactly_zero(order2_inputs):
    """lambda * K_lower has odd degrees only, so the remainder of its
    (lambda^2 - 1) division has no constant term: 1e-50 on c^(2)'s
    parity-forbidden degree 0, far below any tolerance, raises where
    lambda * K_lower is formed."""
    state, c_n = order2_inputs
    with pytest.raises(EngineError, match=r"lambda \* K_lower\^\(2\): parity-forbidden "
                                          "coefficient at degree [02] "):
        with_c_term(state, c_n, 0, "1e-50")


def test_lambda_k_lower_rejects_even_degrees_whose_remainder_cancels(order2_inputs):
    """c^(2) + 1e-50 - 1e-50 lambda^2 puts dust of one size and opposite
    signs on degrees 0 and 4 of lambda * K_lower (their terms at degree 2
    cancel exactly): a division by lambda^2 - 1 leaves them no remainder,
    and the even-degree dust they leave in a^(2) lies below the noise cut,
    so only the check where lambda * K_lower is formed sees them."""
    state, c_n = order2_inputs
    extra = LaurentPoly(CFG, {0: CTX.mpf("1e-50"), 2: -CTX.mpf("1e-50")})
    with pytest.raises(EngineError, match="parity-forbidden coefficient at degree [04] "):
        extract_a_r(2, state, c_n + extra)


@pytest.mark.parametrize("size", ["1e-50", "1"])
def test_lambda_k_lower_rejects_an_even_degree(order2_inputs, size):
    """Nothing at an even degree of lambda * K_lower is dust, at any size:
    c^(2) + size * lambda^2 reaches its degrees 2 and 4 and raises."""
    state, c_n = order2_inputs
    with pytest.raises(EngineError, match="parity-forbidden coefficient at degree [24] "):
        with_c_term(state, c_n, 2, size)


@pytest.mark.parametrize("degree", [-3, 7])
def test_lambda_k_lower_rejects_degrees_outside_its_window(order2_inputs, degree):
    """At order 2 lambda * K_lower has odd degrees in -1..5: 1e-50 at degree
    -3 or n + 5 = 7, far below any tolerance, raises."""
    state, c_n = order2_inputs
    with pytest.raises(EngineError, match=f"coefficient outside degrees -1..5 at degree "
                                          f"{degree} "):
        with_c_term(state, c_n, degree if degree < 0 else degree - 2, "1e-50")


def test_p_lower_rejects_degrees_outside_its_window(order2_inputs, signed40_pi4_L7):
    """p_lower^(3) has odd degrees in -3..3, by the same rule as lambda *
    K_lower: 1e-50 at degree 5 of P^(3)_lower[1, 0] raises."""
    state, _ = order2_inputs
    f_low = frame_lower(2, state, signed40_pi4_L7)
    entries = [list(row) for row in f_low.entries]
    entries[1][0] = entries[1][0] + LaurentPoly(CFG, {5: CTX.mpf("1e-50")})
    with pytest.raises(EngineError, match=r"p_lower\^\(3\): coefficient outside degrees "
                                          "-3..3 at degree 5 "):
        p_derivative(2, state, LaurentMatrix2(CFG, entries))


def test_p_derivative_rejects_parity_dust(order2_inputs, signed40_pi4_L7):
    """p_lower^(3) has odd degrees only, exactly: 1e-50 at degree 0 of
    P^(3)_lower[1, 0], far below any tolerance, raises where it is formed."""
    state, _ = order2_inputs
    f_low = frame_lower(2, state, signed40_pi4_L7)
    p_derivative(2, state, f_low)
    entries = [list(row) for row in f_low.entries]
    entries[1][0] = entries[1][0] + LaurentPoly(CFG, {0: CTX.mpf("1e-50")})
    with pytest.raises(EngineError, match="parity-forbidden coefficient at degree 0"):
        p_derivative(2, state, LaurentMatrix2(CFG, entries))


def test_extract_c_pins_the_constant_at_odd_orders_only(state40_o6, signed40_pi4_L7):
    """At even n p_lower^(n+1) and c^(n) have odd degrees only, so their real
    parts at i are exactly 0 and c^(n) has no constant term.  At odd n their
    imaginary parts at i are exactly 0, and the constant makes
    c^(n)(i) 2 pi (n+1) + p_lower(i) vanish up to the rounding of c^(n)(i),
    half a unit of 2^-P times 2 pi (n+1)."""
    bits = CFG.fixed_bits
    for n in range(1, 7):
        p_low = p_derivative(n, state40_o6, frame_lower(n, state40_o6, signed40_pi4_L7))
        c_n = extract_c(n, p_low, CFG)
        assert c_n.re == state40_o6.c[n].re, n
        (c_re, c_im), (p_re, p_im) = c_n.at_i(), p_low.at_i()
        if n % 2 == 0:
            assert 0 not in c_n.re and c_re == 0 and p_re == 0, n
            continue
        assert 0 in c_n.re and c_im == 0 and p_im == 0, n
        two_pi = 2 * pi_fixed(bits) * (n + 1)
        sym = abs(c_re * two_pi + (p_re << bits))       # at 2^2P
        assert sym <= two_pi // 2 + (1 << bits), n


def test_extract_a_r_refuses_odd_orders(state40_o6):
    """a and r are even in t: at odd n there is nothing to extract."""
    for n in (1, 3, 5):
        with pytest.raises(ValueError, match="odd order"):
            extract_a_r(n, state40_o6, state40_o6.c[n])


def test_m_mats_anticommute_to_sorted_order():
    """M_w = (-1)^inv(w) times the product of w's letters in non-decreasing
    order, for every word of length <= 5: the identity ``frame_lower``'s
    signed sums rest on."""
    def product(word):
        out = ((1, 0), (0, 1))
        for letter in word:
            m = M_MATS[letter - 1]
            out = tuple(tuple(sum(out[i][k] * m[k][j] for k in range(2))
                              for j in range(2)) for i in range(2))
        return out

    for length in range(1, 6):
        for word in itertools.product((1, 2, 3), repeat=length):
            inv = sum(a > b for a, b in itertools.combinations(word, 2))
            sign = (-1) ** inv
            assert product(word) == tuple(tuple(sign * v for v in row)
                                          for row in product(sorted(word))), word


def test_solved_y_is_built_once(monkeypatch, tables):
    """An order-7 run builds each y_i^(k), i = 1, 3 and k = 0..6, once: 14
    full Leibniz sums.  y_2 is read from y_3 and never summed."""
    full = []
    y = DerivativeState.y
    monkeypatch.setattr(DerivativeState, "y", lambda self, i, k, ells=None: (
        ells is None and full.append((i, k))) or y(self, i, k, ells))
    run(7, CFG, table=tables.signed("1", "pi/4", 8, CFG))
    assert sorted(full) == [(i, k) for i in (1, 3) for k in range(7)]


def test_carried_products_match_fresh(signed40_pi4_L7):
    """The product derivatives carried on the state from lower orders give
    the same frame sums, digit for digit, as ones built afresh."""
    state = run(5, CFG, table=signed40_pi4_L7)
    for n in range(1, 7):
        carried = frame_lower(n, state, signed40_pi4_L7)
        state._products.clear()
        fresh = frame_lower(n, state, signed40_pi4_L7)
        for i in range(2):
            for j in range(2):
                assert carried[i, j].re == fresh[i, j].re, (n, i, j)


def test_t_matrix_from_letter_counts():
    """The closed form of T_c = i^p M^(c), p = (c1 + c3) mod 2, from the letter
    counts equals the product of the letters' matrices for every multiset
    of size 1..10, both halves of each 2<->3 mirror pair, and is a real
    integer matrix."""
    def mat_mul(m1, m2):
        return tuple(tuple(sum(m1[i][k] * m2[k][j] for k in range(2)) for j in range(2))
                     for i in range(2))

    count = 0
    for size in range(1, 11):
        for key in itertools.combinations_with_replacement((1, 2, 3), size):
            c1, c2, c3 = (key.count(i) for i in (1, 2, 3))
            assert _word(c1, c2, c3) == key
            phase = 1j ** ((c1 + c3) % 2)
            m_c = functools.reduce(mat_mul, (M_MATS[i - 1] for i in key))
            t_c = _t_matrix(c1, c2, c3)
            assert t_c == tuple(tuple(phase * v for v in row) for row in m_c), key
            assert all(type(v) is int for row in t_c for v in row), key
            count += 1
    assert count == math.comb(13, 3) - 1


def test_products_kept_for_one_half_of_each_mirror_pair(monkeypatch, tables):
    """``run(9)`` keeps the product derivatives of exactly the multisets with
    c2 <= c3 of size 1..10 (160 of the 285), a self-mirror multiset's odd
    derivatives are exactly empty, and the Leibniz products of the carried
    lists take at most half the 2 439 calls that both halves took."""
    import lawsonarea.engine as engine
    cfg = PrecisionConfig(40, guard_digits_for_order(9))
    table = tables.signed("1", "pi/4", 10, cfg)
    calls = []
    add_product = engine.add_product
    monkeypatch.setattr(engine, "add_product",
                        lambda *args: calls.append(1) or add_product(*args))
    state = run(9, cfg, table=table)
    kept = {_word(c1, c2, c3) for c1 in range(11) for c2 in range(11) for c3 in range(c2, 11)
            if 1 <= c1 + c2 + c3 <= 10}
    assert set(state._products) == kept and len(kept) == 160
    for key, derivs in state._products.items():
        if key.count(2) == key.count(3):
            assert all(derivs[s] == {} for s in range(1, len(derivs), 2)), key
    assert 0 < len(calls) <= 2439 // 2


def test_expansion_values_match_reference(state40_o6):
    """Spot-render the decimal output of the first two odd coefficients."""
    res = area_series(state40_o6)
    assert mpmath.nstr(res.alpha(1), 10) == "0.6931471806"
    assert mpmath.nstr(res.alpha(3), 10) == "2.704628032"


def _word_sum_frame_lower(n, state, table):
    """Oracle for ``frame_lower``: the word sum it groups by letter multiset.

    Every word of length 2..n+1 builds the t-derivatives of its own product
    y_{w_1} ... y_{w_l} along the word tree and adds them, times its matrix
    and integral, straight into complex matrix entries {degree: mpc}.
    """
    entries = [[{}, {}], [{}, {}]]

    def axpy(acc, s, p):
        for d, v in p.items():
            acc[d] = acc.get(d, 0) + s * v

    def add(mmat, poly, weight):
        for i in range(2):
            for j in range(2):
                if mmat[i][j]:
                    axpy(entries[i][j], weight * mmat[i][j], poly)

    def y(i, k, ells):          # the terms ells of the k-th derivative of r x_i
        total = {}
        for ell in ells:
            axpy(total, math.comb(k, ell) * to_mpf(state.r[k - ell], CFG),
                 {d: to_mpf(v, CFG) for d, v in state.x(i, ell).re.items()})
        return total

    for i in (1, 2, 3):
        add(M_MATS[i - 1], y(i, n, range(1, n)), (n + 1) * table.value((i,)))
    ys = {(i, k): y(i, k, range(k + 1)) for i in (1, 2, 3) for k in range(n)}

    def descend(word, mmat, derivs):
        if len(word) >= 2:
            add(mmat, derivs[n + 1 - len(word)],
                math.perm(n + 1, len(word)) * table.value(word))
        if len(word) > n:
            return
        for letter in (1, 2, 3):
            child = []
            for s in range(n + 1 - max(len(word), 1)):
                total = {}
                for j in range(s + 1):
                    for d1, v1 in derivs[j].items():
                        axpy(total, math.comb(s, j) * v1,
                             {d1 + d2: v2 for d2, v2 in ys[(letter, s - j)].items()})
                child.append(total)
            m = M_MATS[letter - 1]
            descend(word + (letter,), tuple(
                tuple(sum(mmat[i][k] * m[k][j] for k in range(2)) for j in range(2))
                for i in range(2)), child)

    descend((), ((1, 0), (0, 1)), [{0: CTX.mpf(1)}] + [{}] * n)
    return entries


def test_frame_lower_matches_word_sum(state40_o6, signed40_pi4_L7, table40_pi4_L7):
    for n in range(1, 7):
        got = frame_lower(n, state40_o6, signed40_pi4_L7)
        want = _word_sum_frame_lower(n, state40_o6, table40_pi4_L7)
        for i in range(2):
            for j in range(2):
                entry = want[i][j]
                tol = CFG.eps(2) * max([CTX.mpf(1)] + [abs(v) for v in entry.values()])
                for d in got[i, j].degrees() | entry.keys():
                    err = abs(got[i, j].coefficient(d) - entry.get(d, 0))
                    assert err <= tol, (n, i, j, d, mpmath.nstr(err, 3))


@pytest.mark.parametrize("digits", [35, 40, 45])
def test_alpha9_matches_reference(digits):
    cfg = PrecisionConfig(digits, guard_digits_for_order(9))
    ctx = cfg.context
    res = area_series(run(9, cfg, table=build_signed_table("1", "pi/4", 10, cfg)))
    assert res.alpha(8) == 0
    assert abs(res.alpha(9) - ctx.mpf(ALPHA9)) < ctx.mpf(10) ** (-(digits - 2))


def test_alpha11_and_alpha13_match_reference():
    """``expand --order 17 --precision 40`` prints alpha_11, alpha_13,
    alpha_15 and alpha_17 as found by runs at more guard digits (34, 50 and
    60 for the first two), in all 40 digits."""
    cfg = PrecisionConfig(40, guard_digits_for_order(17))
    res = area_series(run(17, cfg, table=build_signed_table("1", "pi/4", 18, cfg)))
    texts = res.alpha_texts()
    assert texts[9] == texts[11] == texts[13] == texts[15] == "0.0"
    for k in range(2, 18, 2):
        assert res.alpha_fixed[k - 1] == 0, k
    assert texts[10] == "-260.9317297748582460588527568354450168419"
    assert texts[12] == "26311.75666632241667824049728000376568319"
    assert texts[14] == "219897.7526067197482348266274038050133502"
    assert texts[16] == "-204390.9874969168798762233265690206768251"


@pytest.mark.parametrize("endpoint, phi, digits, match", [
    ("1", "0.7", 40, "recursion reads z = 1 at phi = pi/4"),
    ("1", "pi/3", 40, "recursion reads z = 1 at phi = pi/4"),
    ("i", "pi/4", 40, "recursion reads z = 1 at phi = pi/4"),
    ("1", "pi/4", 45, "table holds 55 working digits; the recursion runs at 50"),
], ids=["1-0.7", "1-pi/3", "i-pi/4", "1-pi/4-45digits"])
def test_engine_rejects_a_table_of_another_angle_or_endpoint(tables, endpoint, phi, digits,
                                                              match):
    """The recursion at pi/4 reads sigma along [0, 1] at pi/4, as integers
    at its own scale, only: a table of another angle or to z = i raises,
    where it used to print a wrong alpha_3 (3.99370... at 0.7, 0.77777... at
    pi/3, against 2.70462...), and so does a table at 45 target digits,
    whose integers lie at another scale."""
    with pytest.raises(ValueError, match=match):
        run(5, CFG, table=tables.signed(endpoint, phi, 6, PrecisionConfig(digits)))


def test_engine_compares_angles_by_value(signed40_pi4_L4, pi_over_4_80):
    """The recursion takes a table of any spelling of pi/4: one built at
    " 2*pi / 8", and one labelled with an 80-digit decimal of pi/4, which
    ``omega.is_pi_over_4`` reads as the same value."""
    import copy
    spelled = build_signed_table("1", " 2*pi / 8", 4, CFG)
    assert spelled.values == signed40_pi4_L4.values
    decimal = copy.copy(signed40_pi4_L4)
    decimal.phi_label = pi_over_4_80
    expected = area_series(run(3, CFG, table=signed40_pi4_L4)).alpha_fixed
    for table in (spelled, decimal):
        assert area_series(run(3, CFG, table=table)).alpha_fixed == expected


def test_frame_lower_skips_zero_parts(monkeypatch, signed40_pi4_L7):
    """Each sigma_c is exactly real or exactly imaginary, and ``frame_lower``
    multiplies no derivative map by its zero part."""
    import lawsonarea.engine as engine
    scalars = []
    axpy = engine.axpy
    monkeypatch.setattr(engine, "axpy",
                        lambda acc, s, p: scalars.append(s) or axpy(acc, s, p))
    run(5, CFG, table=signed40_pi4_L7)
    assert scalars and all(scalars), scalars.count(0)


def test_order_recursion_runs_on_integers(monkeypatch, signed40_pi4_L7):
    """Every polynomial of a run(5) state, and every r^(k), stores integers,
    and an order of the recursion makes no ``mpc`` multiplication."""
    from mpmath.ctx_mp_python import _mpc
    state = run(4, CFG, table=signed40_pi4_L7)
    products = []
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(_mpc, name, lambda s, t, mul=getattr(_mpc, name):
                            products.append(t) or mul(s, t))
    advance(state, signed40_pi4_L7)
    assert products == []
    assert CTX.mpc(0, 1) * 2 == 2 * CTX.mpc(0, 1) and len(products) == 2   # counted
    monkeypatch.undo()
    polys = state.a + [state.x(2, k) for k in range(6)] + state.c + [
        frame[i, j] for frame in state.frames for i in range(2) for j in range(2)]
    assert state.order == 5 and len(polys) == 3 * 6 + 4 * 7
    assert all(type(v) is int for p in polys for v in p.re.values())
    assert all(type(v) is int for v in state.r)
