"""Order-by-order expansion of the potential coefficients and the area.

At the minimal angle (phi = pi/4, where the Sym rotation angle is constant)
the four parameter functions a, b, c (Laurent coefficients of the residue
matrix) and the scalar r admit a recursion in the expansion order n:

1. Assemble the lower-order part of the frame derivative P^(n+1) at z = 1
   from word integrals and Leibniz products of known derivatives.  The
   scalars y_i = r x_i commute, so a word's product derivatives depend only
   on its letter counts, and the constant matrices ``M_MATS`` anticommute,
   so M_w is a sign times the product of its letters in sorted order.  The
   word integrals therefore enter only as their signed sum per letter
   multiset, which ``omega.build_signed_table`` transports directly.  Each
   multiset's product derivatives, which depend only on solved orders, are
   kept on the state and extended by one derivative per order
   (``frame_lower``).
2. The reality condition p = star(p) on the trace coordinate
   p = P11 P21 - P12 P22 determines the positive-degree part of c^(n); the
   Sym-point condition p(i) = 0 pins its constant term.
3. b^(n) = (-1)^n c^(n) by the angle-reflection symmetry.
4. The normalization det(r A) = -1 gives lambda * K_lower = (lambda^2 - 1)
   a^(n) + 2 lambda r^(n): dividing by lambda^2 - 1 yields a^(n) as the
   quotient and r^(n) from the remainder.

Why the recursion is real.  On the real axis letters 1 and 3 carry
imaginary constants (the phase rule of ``omega``), so sigma_c = i^p x_c with
x_c real and p = (c1 + c3) mod 2 for the letter counts c.  M_1 = i diag(1, -1)
and M_3 = i [[0, 1], [-1, 0]] are i times real matrices and M_2 is real, so
M^(c) = M_1^c1 M_2^c2 M_3^c3 is i^(c1 + c3) times a real integer matrix,
T_c = i^p M^(c) is a real integer matrix, and sigma_c M^(c) = x_c T_c.  The
central a, b, c and r are real, so every frame derivative P^(m) at z = 1,
a sum of real derivative products times x_c T_c, is real, and so are p, K,
a^(n) and c^(n), which are read off them by real operations.  The only
complex number of the recursion is a value at the Sym point lambda = i
(``LaurentPoly.at_i``), a pair of integers.  ``frame_lower`` checks each
sigma_c's phase against (c1 + c3) mod 2 as it reads it, so a table of the
wrong phase raises ``EngineError``.  (A trace of every polynomial built
with a nonzero imaginary part, when ``LaurentPoly`` still held one, in runs
to orders 9 and 13 at 40 digits and order 7 at 45, found them only in the
sigma constant of the frame's head terms and its product, in the values at
i and in ``extract_c``'s arithmetic on them.)

Every polynomial of the recursion, from the frame sums to the area
coefficients, is a real ``laurent.LaurentPoly`` on fixed-point integers at
scale 2^P, and so is every r^(k); the rounding budget is in ``laurent``'s
docstring.  So are the numbers the recursion reads: x_c, the signed
table's own integers at the same scale ``cfg.fixed_bits``; the central
values and cos(phi), sin(phi) from the pole e^(i phi) of
``omega.punctures_fixed``; and 1/(2 pi (n + 1)) and 2 pi (n + 1) from
``precision.pi_fixed``.  Every residual check compares integers exactly
(``_exceeds``), the residuals are reported as exact ``Dyadic`` values, and
the alpha_k and derivative polynomials are printed from their integers
(``precision.to_decimal``); an ``mpf`` is made only when a library caller
asks for one.

Every order asserts the structural invariants (polynomial degree <= n + 1,
lambda-parity, reality, divisibility) and records their residuals; a
violation above tolerance raises :class:`EngineError` instead of silently
absorbing precision loss.  No small coefficient is dropped while a result is
computed: a^(n) and c^(n) pass one support rule (``_support``) that zeroes
coefficients below their constraint's tolerance, drops parity-forbidden
dust and rejects anything else outside degrees 0..n+1.  The negative
degrees of lambda * K_lower are dust up to eps(2) of max(its peak, 1) and
are projected away before the division.

The area of the closed surface is 8 pi (1 - r (cos(phi) b0 - sin(phi) c0));
Taylor coefficients alpha_k (Area = 8 pi (1 - sum alpha_k t^k)) follow from
the stored derivatives by one more Leibniz pass.  First-order data at
general phi is available in closed form, no recursion needed.
"""

from __future__ import annotations

import math

from .laurent import LaurentPoly, LaurentMatrix2, add_product, axpy, round_map, to_mpf
from .omega import SignedTable, cached_table, is_pi_over_4, parse_phi, punctures_fixed
from .precision import Dyadic, PrecisionConfig, pi_fixed, rescale, to_decimal

# Constant 2x2 matrices attached to the three forms (exact Gaussian integers).
M_MATS = (
    ((1j, 0), (0, -1j)),
    ((0, 1), (1, 0)),
    ((0, 1j), (-1j, 0)),
)
# The real T_c = i^p M^(c) of the module docstring, step by step: appending
# letter i to a multiset of phase p multiplies T by i^(p' - p) M_i, p' the
# child's phase.  _T_STEPS[0] holds the single letters' T_(i).
_T_STEPS = (
    (((-1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, -1), (1, 0))),     # i M_1, M_2, i M_3
    (((1, 0), (0, -1)), ((0, 1), (1, 0)), ((0, 1), (-1, 0))),     # -i M_1, M_2, -i M_3
)


class EngineError(ArithmeticError):
    """A structural invariant of the recursion failed beyond tolerance."""


def _exceeds(size_sq: int, scale_sq: int, digits_lost: int, cfg: PrecisionConfig) -> bool:
    """Whether a modulus exceeds a scale times eps(digits_lost), given both
    squared at one scale: exact on the integers."""
    return size_sq * cfg.eps_ratio(digits_lost) ** 2 > scale_sq


def _below(size_sq: int, scale_sq: int, digits_lost: int, cfg: PrecisionConfig) -> bool:
    """Whether a modulus lies below a scale times eps(digits_lost), as ``_exceeds``."""
    return size_sq * cfg.eps_ratio(digits_lost) ** 2 < scale_sq


def _modulus(size_sq: int, cfg: PrecisionConfig) -> Dyadic:
    """The square root of an integer at 2^2P, as a value at 2^-P to the
    working bits: a residual as it is reported."""
    extra = cfg.working_bits
    return Dyadic(math.isqrt(size_sq << 2 * extra), -cfg.fixed_bits - extra)


def _unit(cfg: PrecisionConfig, phi: str, bits: int) -> tuple[int, int]:
    """cos(phi) and sin(phi) at 2^bits, each rounded once from the pole
    e^(i phi) that the transport reads."""
    c, s = punctures_fixed(parse_phi(phi, cfg), cfg)[0]
    return rescale(c, cfg.pole_bits, bits), rescale(s, cfg.pole_bits, bits)


def _mat_mul(m1, m2):
    """Product of two constant 2x2 matrices."""
    return tuple(
        tuple(sum(m1[i][k] * m2[k][j] for k in range(2)) for j in range(2))
        for i in range(2))


def _sigma_x(table: SignedTable, key, phase: int) -> int:
    """x_c of sigma_c = i^p x_c at 2^P, as the table holds it, once its phase
    p is checked to be ``phase`` = (c1 + c3) mod 2."""
    p, x = table.values[key]
    if p != phase:
        raise EngineError(f"sigma of {key} carries i^{p}, not i^{phase}: "
                          "not a signed table along the real axis")
    return x


class DerivativeState:
    """Derivatives of (a, b, c, r) and the frame, complete through ``order``.

    ``frames[m]`` is P^(m) at z = 1, m = 0..order+1, and ``r[k]`` is r^(k) as
    an integer at the polynomials' scale 2^P.  The two private maps are
    built from solved orders only, so never stale: ``_ys`` maps (i, k) to
    y_i^(k), and ``_products`` maps each letter multiset (a non-decreasing
    word) to its real constant matrix T_c = i^p M_(w_1) ... M_(w_l) (module
    docstring) and the list of t-derivatives of its product of y, as
    {degree: int} maps at scale 2^P.
    """

    __slots__ = ("cfg", "phi_label", "order", "a", "b", "c", "r", "frames",
                 "diagnostics", "_ys", "_products")

    def __init__(self, *, cfg: PrecisionConfig, phi_label: str, order: int, a: list,
                 b: list, c: list, r: list, frames: list):
        self.cfg = cfg
        self.phi_label = phi_label
        self.order = order
        self.a, self.b, self.c, self.r = a, b, c, r
        self.frames = frames
        self.diagnostics = []
        self._ys = {}
        self._products = {}

    def x(self, i: int, k: int) -> LaurentPoly:
        return (self.a, self.b, self.c)[i - 1][k]

    def y(self, i: int, k: int, ells=None) -> LaurentPoly:
        """k-th derivative of r * x_i by the Leibniz rule over the stored
        lists: the terms C(k, ell) r^(k-ell) x_i^(ell) for ell in ``ells``,
        all of 0..k by default."""
        total: dict = {}
        for ell in range(k + 1) if ells is None else ells:
            rv = self.r[k - ell]
            if rv:
                axpy(total, math.comb(k, ell) * rv, self.x(i, ell).re)
        return LaurentPoly(self.cfg, re=round_map(total, self.cfg.fixed_bits))

    def solved_y(self, i: int, k: int) -> LaurentPoly:
        """y_i^(k) of a solved order k, built once per state."""
        if (i, k) not in self._ys:
            self._ys[i, k] = self.y(i, k)
        return self._ys[i, k]

    def derivatives_jsonable(self) -> list:
        """Derivative polynomials at the target digits, as ``alpha_t`` is printed."""
        digits, bits = self.cfg.target_digits, self.cfg.fixed_bits
        out = []
        for k in range(1, self.order + 1):
            out.append({
                "order": k,
                "a": self.a[k].to_jsonable(digits),
                "b": self.b[k].to_jsonable(digits),
                "c": self.c[k].to_jsonable(digits),
                "r": to_decimal(self.r[k], -bits, digits),
            })
        return out


def central_state(cfg: PrecisionConfig, phi: str = "pi/4") -> DerivativeState:
    """The order-0 state: a = (1/lambda - lambda)/2, b and c = -(sin phi,
    cos phi)(1/lambda + lambda)/2, r = 1, each coefficient rounded once to 2^P."""
    bits = cfg.fixed_bits
    half = 1 << (bits - 1)
    c_half, b_half = (-x for x in _unit(cfg, phi, bits - 1))     # at 2^(P-1): halved
    return DerivativeState(
        cfg=cfg, phi_label=str(phi).strip(), order=0,
        a=[LaurentPoly(cfg, re={-1: half, 1: -half})],
        b=[LaurentPoly(cfg, re={-1: b_half, 1: b_half})],
        c=[LaurentPoly(cfg, re={-1: c_half, 1: c_half})],
        r=[1 << bits], frames=[LaurentMatrix2.identity(cfg)])


# ---------------------------------------------------------------------------
# frame derivatives from word integrals
# ---------------------------------------------------------------------------

def frame_lower(n: int, state: DerivativeState, table: SignedTable) -> LaurentMatrix2:
    """Part of P^(n+1) determined by derivatives of order below n.

    Sum over words w of length l = 2..n+1 of (n+1)!/(n+1-l)! times the
    (n+1-l)-th t-derivative of the product y_{w_1} ... y_{w_l}, the constant
    matrix M_w = M_{w_1} ... M_{w_l}, and the word integral Omega(w) at 1;
    plus the single-letter cross terms with 1 <= l <= n-1 in the Leibniz
    expansion of y_i^(n).

    The y_i = r x_i are scalars in lambda, so they commute: the derivatives
    of y_{w_1} ... y_{w_l} depend only on how often each letter occurs in w.
    The ``M_MATS`` anticommute pairwise, so M_w is (-1)^inv(w) times the
    product of its letters in non-decreasing order, inv(w) counting the
    letter pairs of w out of order.  So the words enter only through the
    signed sum sigma_c of their integrals per letter multiset c, which
    ``table`` (an ``omega.SignedTable``) holds under the non-decreasing word
    of c.  The multisets are walked as the tree of non-decreasing words:
    each multiset's ordered matrix product and product derivatives come
    from those of its parent (the multiset without its last letter), and its
    sigma_c is multiplied in once: 80 multisets at order 5, 282 at order 9.

    Fixed point.  a, b, c and r are real, so every derivative of a product
    is a real {degree: int} map at the polynomials' scale 2^P: each y_i^(k)
    is read as it is stored, each Leibniz sum is exact at 2^-2P and rounded
    once (``laurent.round_map``), and x_c of sigma_c = i^p x_c is the
    table's integer as it is: the table must share the state's working
    precision, and with it the scale 2^P, and run to z = 1 at the state's
    phi, and sigma_c's phase p must be (c1 + c3) mod 2.  sigma_c M^(c) =
    x_c T_c with T_c real (module docstring), so the products x_c times a
    derivative are summed exactly at 2^-2P into one {degree: int} map per
    matrix T_c; each matrix entry adds those times its entry of T_c,
    0 or +-1, and each coefficient is rounded once.  The budget of these
    roundings is in ``laurent``'s docstring.

    Carried products.  D^m of a multiset's product needs y^(k) for k <= m
    only, and a multiset of l letters contributes D^(n+1-l) and feeds its
    children up to D^(n-l), so at order n every derivative read is of a
    solved order.  Each multiset's matrix T_c and list of maps live on
    the state (``DerivativeState._products``): the matrix is multiplied out
    once, when the multiset is first reached, and the list is extended only
    by the orders it lacks, so order n builds one new derivative per
    multiset of size <= n and the first one of the multisets of size n + 1.
    Nothing there depends on the table.  A product of l letters at
    derivative order m has support in [-l, m + l], so no rounding dust can
    cross the degree bound that ``frame_derivative`` checks.
    """
    cfg = state.cfg
    if not isinstance(table, SignedTable):
        raise TypeError("frame_lower reads signed sums per letter multiset "
                        f"(omega.build_signed_table), got {type(table).__name__}")
    if table.cfg.working_digits != cfg.working_digits:
        raise ValueError(f"the table holds {table.cfg.working_digits} working digits; "
                         f"the recursion runs at {cfg.working_digits}")
    if table.endpoint != "1" or parse_phi(table.phi_label, cfg) != parse_phi(state.phi_label, cfg):
        raise ValueError(f"the table runs to z = {table.endpoint} at phi = {table.phi_label}; "
                         f"the recursion reads z = 1 at phi = {state.phi_label}")
    if table.max_length < n + 1:
        raise ValueError(f"table depth {table.max_length} < required {n + 1}")
    if n == 0:
        return LaurentMatrix2(cfg)
    bits = cfg.fixed_bits
    products = state._products
    # matrix T_c -> {degree: int} of its coefficient at 2^-2P
    sums: dict = {}

    def add(tmat, weight, key, phase, deriv) -> None:
        x = _sigma_x(table, key, phase)
        if x:
            axpy(sums.setdefault(tmat, {}), weight * x, deriv)

    # single letters: D^k of y_i is y_i^(k) itself
    for i in (1, 2, 3):
        tmat, have = products.setdefault((i,), (_T_STEPS[0][i - 1], []))
        for k in range(len(have), n):
            have.append(state.solved_y(i, k).re)
        # single-letter cross terms (orders 1..n-1 of x against r)
        cross = state.y(i, n, range(1, n)).re
        if cross:
            add(tmat, n + 1, (i,), int(i != 2), cross)

    def descend(key, phase) -> None:
        tmat, derivs = products[key]
        size = len(key)
        if size >= 2 and derivs[n + 1 - size]:
            add(tmat, math.perm(n + 1, size), key, phase, derivs[n + 1 - size])
        # a multiset of size l >= 2 contributes derivative order n+1-l and
        # feeds its children orders up to n-l; single letters only feed.
        max_child = n - size
        if max_child < 0:
            return
        for i in range(key[-1], 4):
            child_key = key + (i,)
            if child_key not in products:
                products[child_key] = _mat_mul(tmat, _T_STEPS[phase][i - 1]), []
            child = products[child_key][1]
            ys = products[(i,)][1]
            for s in range(len(child), max_child + 1):
                total: dict = {}
                for j in range(s + 1):
                    if derivs[j] and ys[s - j]:
                        add_product(total, math.comb(s, j), derivs[j], ys[s - j])
                child.append(round_map(total, bits))
            descend(child_key, phase ^ (i != 2))

    for i in (1, 2, 3):
        descend((i,), int(i != 2))

    entries = [[{}, {}], [{}, {}]]
    for tmat, total in sums.items():
        for i in range(2):
            for j in range(2):
                if tmat[i][j]:          # every entry of a T_c is 0 or +-1
                    axpy(entries[i][j], tmat[i][j], total)
    return LaurentMatrix2(cfg, [[LaurentPoly(cfg, re=round_map(e, bits)) for e in row]
                                for row in entries])


def frame_derivative(n: int, state: DerivativeState, table: SignedTable,
                     lower: LaurentMatrix2 | None = None) -> LaurentMatrix2:
    """Full P^(n+1) once the order-n derivatives are in the state."""
    if state.order < n:
        raise ValueError(f"state complete to {state.order} < requested order {n}")
    cfg = state.cfg
    mat = frame_lower(n, state, table) if lower is None else lower
    for i in (1, 2, 3):
        # the Leibniz terms of y_i^(n) that hold an order-n unknown
        head = state.y(i, n, {0, n})
        if not head.is_zero:
            x = _sigma_x(table, (i,), int(i != 2))
            mat = mat.add_scaled_constant(head.scale(n + 1), _constant(cfg, x),
                                          _T_STEPS[0][i - 1])
    if mat.max_abs_degree() > n + 1:
        raise EngineError(f"frame derivative order {n + 1} has degree "
                          f"{mat.max_abs_degree()} > {n + 1}")
    return mat


def p_derivative(n: int, state: DerivativeState,
                 frame_low: LaurentMatrix2) -> LaurentPoly:
    """Lower-order part of the (n+1)-st derivative of p = P11 P21 - P12 P22."""
    p_low = frame_low[1, 0] - frame_low[0, 1]
    for k in range(1, n + 1):
        pk = state.frames[k]
        pm = state.frames[n + 1 - k]
        p_low = p_low + (pk[0, 0] * pm[1, 0] - pk[0, 1] * pm[1, 1]).scale(math.comb(n + 1, k))
    if not p_low.is_zero and max(abs(p_low.min_degree()), p_low.max_degree()) > n + 1:
        raise EngineError(f"p_lower^({n + 1}) exceeds degree bound {n + 1}")
    return p_low


# ---------------------------------------------------------------------------
# extraction of the order-n parameters
# ---------------------------------------------------------------------------

def _support(poly: LaurentPoly, n: int, scale_sq: int, label: str,
             cfg: PrecisionConfig) -> tuple:
    """Apply the order-n support rule to a real a^(n) or c^(n).

    ``scale_sq`` is the square of the constraint's scale, at 2^2P.  A
    coefficient below scale * eps(6), the residual tolerance of its defining
    constraint, is indistinguishable from zero and dropped.  Of the rest, a
    degree d with d + n even must vanish by parity: such dust up to
    max(|poly|, 1) * eps(6) is dropped and its peak reported as
    ``parity_residual``, anything larger raises.  Every other coefficient
    must lie in degrees 0..n+1.
    """
    bits = cfg.fixed_bits
    kept = {d: v for d, v in poly.re.items() if not _below(v * v, scale_sq, 6, cfg)}
    tol_sq = max([1 << 2 * bits, *(v * v for v in kept.values())])
    bad = 0
    out = {}
    for d, v in kept.items():
        if (d + n) % 2 == 0:
            if _exceeds(v * v, tol_sq, 6, cfg):
                raise EngineError(
                    f"{label}: parity-forbidden coefficient at degree {d} "
                    f"has size {Dyadic(abs(v), -bits).format(5)}")
            bad = max(bad, abs(v))
        elif 0 <= d <= n + 1:
            out[d] = v
        else:
            raise EngineError(f"{label} outside polynomial degree bound {n + 1}")
    return LaurentPoly(cfg, re=out), {"parity_residual": Dyadic(bad, -bits)}


def _constant(cfg: PrecisionConfig, value: int) -> LaurentPoly:
    """The constant polynomial of an integer at 2^P."""
    return LaurentPoly(cfg, re={0: value})


def extract_c(n: int, p_low: LaurentPoly, cfg: PrecisionConfig) -> tuple:
    """Order-n c from reality and Sym-point constraints on p^(n+1)."""
    bits = cfg.fixed_bits
    one_sq = 1 << 2 * bits
    two_pi = 2 * pi_fixed(bits) * (n + 1)
    factor = ((1 << 2 * bits) + two_pi // 2) // two_pi       # 1/(2 pi (n+1)) at 2^P
    over_two_pi = _constant(cfg, factor)
    c_plus = (p_low.project("minus").star() - p_low.project("plus")) * over_two_pi
    # the constant term makes c^(n)(i) = -factor p_low(i), each part of the
    # product rounded once; c_plus has positive degrees only
    (c_re, c_im), p_at_i = c_plus.at_i(), p_low.at_i()
    low_re, low_im = (round_map({0: v * factor}, bits)[0] for v in p_at_i)
    const, imag = -c_re - low_re, abs(c_im + low_im)
    c_n = c_plus + _constant(cfg, const)
    diag = {"imag_residual": Dyadic(imag, -bits)}
    if _exceeds(imag * imag, max(c_n.max_abs_sq(), const * const + imag * imag, one_sq),
                6, cfg):
        raise EngineError(f"c^({n}) has imaginary leakage {diag['imag_residual'].format(5)}")
    scale_sq = max(p_low.max_abs_sq() * factor * factor >> 2 * bits, one_sq)
    c_n, parity = _support(c_n, n, scale_sq, f"c^({n})", cfg)
    diag.update(parity)
    return c_n, diag


def extract_a_r(n: int, state: DerivativeState, c_n: LaurentPoly,
                b_n: LaurentPoly) -> tuple:
    """Order-n a and r from dividing the curvature constraint by lambda^2 - 1."""
    cfg = state.cfg
    bits = cfg.fixed_bits
    one_sq = 1 << 2 * bits
    ys = {(i, k): state.solved_y(i, k) for i in (1, 2, 3) for k in range(1, n)}
    k_low = (state.x(2, 0) * b_n).scale(-2) + (state.x(3, 0) * c_n).scale(-2)
    for k in range(1, n):
        rv = state.r[k]
        if rv:
            combo = (state.x(1, 0) * state.x(1, n - k)
                     - state.x(2, 0) * state.x(2, n - k)
                     - state.x(3, 0) * state.x(3, n - k))
            k_low = k_low + combo * _constant(cfg, 2 * math.comb(n, k) * rv)
    # the y products at k and n - k coincide, and so do their binomial weights
    for k in range(1, n // 2 + 1):
        combo = (ys[1, k] * ys[1, n - k]
                 - ys[2, k] * ys[2, n - k]
                 - ys[3, k] * ys[3, n - k])
        k_low = k_low + combo.scale(math.comb(n, k) * (1 if 2 * k == n else 2))
    # lambda * K_lower is a polynomial: its negative degrees are rounding
    # dust, at most eps(2) of max(its largest coefficient, 1)
    shifted = k_low.shift(1)
    scale_sq = max(shifted.max_abs_sq(), one_sq)
    dust = shifted.project("minus")
    if _exceeds(dust.max_abs_sq(), scale_sq, 2, cfg):
        raise EngineError(
            f"lambda * K_lower^({n}) kept negative degrees {dust.min_degree()}")
    quot, rem = shifted.project("geq0").divrem_l2m1()
    div_sq = rem.re.get(0, 0) ** 2
    div_residual = _modulus(div_sq, cfg)
    if _exceeds(div_sq, scale_sq, 8, cfg):
        raise EngineError(
            f"(lambda^2 - 1) division at order {n} left a constant remainder "
            f"{div_residual.format(5)}")
    r_n = rem.re.get(1, 0) >> 1         # half the remainder, rounded down
    if _below(r_n * r_n, scale_sq, 6, cfg):
        r_n = 0
    diag = {"div_residual": div_residual, "k_lower": k_low}
    if n % 2 == 1:
        diag["r_odd_residual"] = Dyadic(abs(r_n), -bits)
        if _exceeds(r_n * r_n, scale_sq, 6, cfg):
            raise EngineError(f"r^({n}) should vanish at odd order, got "
                              f"{Dyadic(r_n, -bits).format(5)}")
        r_n = 0
    a_n, parity = _support(quot, n, scale_sq, f"a^({n})", cfg)
    diag.update(parity)
    return a_n, r_n, diag


def advance(state: DerivativeState, table: SignedTable) -> DerivativeState:
    """Extend the state by one order (phi = pi/4 only)."""
    cfg = state.cfg
    bits = cfg.fixed_bits
    n = state.order + 1
    if not is_pi_over_4(state.phi_label, cfg):
        raise ValueError("the order recursion requires phi = pi/4; general phi "
                         "is limited to the first-order closed forms")
    f_low = frame_lower(n, state, table)
    p_low = p_derivative(n, state, f_low)
    c_n, diag_c = extract_c(n, p_low, cfg)
    b_n = c_n.scale((-1) ** n)
    state.c.append(c_n)
    state.b.append(b_n)
    a_n, r_n, diag_ar = extract_a_r(n, state, c_n, b_n)
    state.a.append(a_n)
    state.r.append(r_n)
    state.order = n

    # residual diagnostics on the assembled constraints
    r_poly = _constant(cfg, r_n)
    two_pi = _constant(cfg, 2 * pi_fixed(bits) * (n + 1))
    p_full = (c_n + state.x(3, 0) * r_poly) * two_pi + p_low
    star_sq = (p_full - p_full.star()).max_abs_sq()
    sym_re, sym_im = p_full.at_i()
    sym_sq = sym_re * sym_re + sym_im * sym_im
    k_assembled = r_poly.scale(-2) + a_n.shift(-1) - a_n.shift(1) + diag_ar.pop("k_lower")
    k_sq = k_assembled.max_abs_sq()
    scale_sq = max(p_full.max_abs_sq(), 1 << 2 * bits)
    diag = {"order": n, "star_residual": _modulus(star_sq, cfg),
            "sym_residual": _modulus(sym_sq, cfg),
            "normalization_residual": _modulus(k_sq, cfg)}
    for name, size_sq in (("star-reality", star_sq), ("Sym-point", sym_sq),
                          ("normalization", k_sq)):
        if _exceeds(size_sq, scale_sq, 6, cfg):
            raise EngineError(f"{name} residual {_modulus(size_sq, cfg).format(5)} "
                              f"at order {n}")
    diag.update(diag_c)
    diag.update(diag_ar)
    state.diagnostics.append(diag)

    state.frames.append(frame_derivative(n, state, table, lower=f_low))
    return state


def run(order: int, cfg: PrecisionConfig | None = None, phi: str = "pi/4",
        table: SignedTable | None = None, cache_dir=None) -> DerivativeState:
    """Run the recursion at phi = pi/4 up to the requested order.

    ``table`` is an ``omega.SignedTable`` of depth at least ``order + 1``;
    by default ``omega.cached_table`` builds it in process, or, given a
    ``cache_dir``, loads it from there or builds and stores it there.
    """
    cfg = cfg or PrecisionConfig()
    if order < 1:
        raise ValueError("order must be >= 1")
    if table is None:
        table = cached_table("1", phi, order + 1, cfg, cache_dir)
    state = central_state(cfg, phi)
    state.frames.append(frame_derivative(0, state, table))
    while state.order < order:
        advance(state, table)
    return state


# ---------------------------------------------------------------------------
# area / Willmore / mean curvature series
# ---------------------------------------------------------------------------

class ExpansionResult:
    """Taylor data of the area and Willmore energy at t = 0.

    ``alpha_fixed`` holds the real alpha_k, k = 1..order, as integers at the
    polynomials' scale 2^P; ``alphas`` renders them as ``mpf``, and so do
    ``willmore`` (the Willmore coefficients, equal to the alphas at pi/4)
    and ``mean_curvature`` (the H-series coefficients, zero at pi/4).  The
    residuals are exact ``Dyadic`` values.
    """

    __slots__ = ("cfg", "phi_label", "order", "alpha_fixed", "even_alpha_residual",
                 "diagnostics")

    def __init__(self, *, cfg: PrecisionConfig, phi_label: str, order: int,
                 alpha_fixed: list, even_alpha_residual: Dyadic, diagnostics: list):
        self.cfg = cfg
        self.phi_label = phi_label
        self.order = order
        self.alpha_fixed = alpha_fixed
        self.even_alpha_residual = even_alpha_residual
        self.diagnostics = diagnostics

    @property
    def alphas(self) -> list:
        return [to_mpf(a, self.cfg) for a in self.alpha_fixed]

    @property
    def willmore(self) -> list:
        # the family is minimal at pi/4: Willmore = area
        return self.alphas

    @property
    def mean_curvature(self) -> list:
        # ... and H = 0 identically
        return [self.cfg.context.mpf(0)] * self.order

    def alpha(self, k: int):
        return to_mpf(self.alpha_fixed[k - 1], self.cfg)

    def per_genus_coefficients(self) -> list:
        """Coefficients in powers of 1/(g+1) = 2t."""
        ctx = self.cfg.context
        return [a / ctx.mpf(2) ** (k + 1) for k, a in enumerate(self.alphas)]

    def alpha_texts(self, per_genus: bool = False, strip_zeros: bool = True) -> list:
        """alpha_k (or its per-genus coefficient) at the target digits, as
        ``mpmath.nstr`` prints the ``mpf`` of ``alphas`` (of
        ``per_genus_coefficients``, which the division rounds to the working
        bits)."""
        bits, digits = self.cfg.fixed_bits, self.cfg.target_digits
        out = []
        for k, a in enumerate(self.alpha_fixed, 1):
            value = Dyadic(a, -bits)
            if per_genus:
                value = value.rounded(self.cfg.working_bits)
                value = Dyadic(value.man, value.exp - k)
            out.append(value.format(digits, strip_zeros))
        return out

    def to_jsonable(self) -> dict:
        alpha_t = self.alpha_texts()
        return {
            "version": 1,
            "phi": self.phi_label,
            "precision": self.cfg.target_digits,
            "guard_digits": self.cfg.guard_digits,
            "order": self.order,
            "area_prefactor": "8*pi",
            "alpha_t": alpha_t,
            "alpha_per_genus": self.alpha_texts(per_genus=True),
            "willmore_t": list(alpha_t),
            "mean_curvature_t": [Dyadic(0).format(self.cfg.target_digits)] * self.order,
            "even_alpha_residual": self.even_alpha_residual.format(3),
            "order_diagnostics": [
                {k: (v if isinstance(v, (int, str)) else v.format(3)) for k, v in d.items()}
                for d in self.diagnostics],
        }


def area_series(state: DerivativeState, order: int | None = None) -> ExpansionResult:
    """alpha_1..alpha_N with Area = 8 pi (1 - sum alpha_k t^k).

    Each alpha_k is summed exactly on the integers of r, b, c and cos(phi),
    sin(phi) (rounded once from the pole e^(i phi)), and rounded once, by its
    division by k!.
    """
    cfg = state.cfg
    order = order or state.order
    if order > state.order:
        raise ValueError(f"state complete to order {state.order} < {order}")
    bits = cfg.fixed_bits
    cosp, sinp = _unit(cfg, state.phi_label, bits)
    alphas = []
    even_peak = 0
    for k in range(1, order + 1):
        total = 0           # at scale 2^3P
        for j in range(k + 1):
            rv = state.r[j]
            if rv:
                mixed = (cosp * state.b[k - j].re.get(0, 0)
                         - sinp * state.c[k - j].re.get(0, 0))
                total += math.comb(k, j) * rv * mixed
        unit = math.factorial(k) << (2 * bits)
        value = (2 * total + unit) // (2 * unit)
        if k % 2 == 0:
            even_peak = max(even_peak, abs(value))
        alphas.append(value)
    return ExpansionResult(
        cfg=cfg, phi_label=state.phi_label, order=order, alpha_fixed=alphas,
        even_alpha_residual=Dyadic(even_peak, -bits),
        diagnostics=list(state.diagnostics))


def expand(order: int, cfg: PrecisionConfig | None = None, phi: str = "pi/4",
           table: SignedTable | None = None, cache_dir=None) -> ExpansionResult:
    """Convenience: run the recursion and extract the area series."""
    state = run(order, cfg, phi, table, cache_dir)
    return area_series(state)


# ---------------------------------------------------------------------------
# first order at general phi (closed forms)
# ---------------------------------------------------------------------------

class FirstOrderData:
    """Closed-form first derivatives of all parameters at t = 0."""

    # the slopes ``cli`` prints by name, in its order
    FIELDS = ("a0", "a2", "b0", "b2", "c0", "c2", "r1", "theta1",
              "mean_curvature_slope", "willmore_slope", "area_slope")
    __slots__ = ("phi_label",) + FIELDS

    def __init__(self, *, phi_label: str, **values):
        self.phi_label = phi_label
        for name in self.FIELDS:
            setattr(self, name, values[name])

    def b_poly(self, cfg: PrecisionConfig) -> LaurentPoly:
        return LaurentPoly(cfg, {0: self.b0, 2: self.b2})

    def c_poly(self, cfg: PrecisionConfig) -> LaurentPoly:
        return LaurentPoly(cfg, {0: self.c0, 2: self.c2})


def first_order_general_phi(phi: str, cfg: PrecisionConfig | None = None) -> FirstOrderData:
    cfg = cfg or PrecisionConfig()
    ctx = cfg.context
    phiv = parse_phi(phi, cfg)
    sinp, cosp = ctx.sin(phiv), ctx.cos(phiv)
    sin2, cos2 = ctx.sin(2 * phiv), ctx.cos(2 * phiv)
    logtan = ctx.ln(ctx.tan(phiv))
    a0 = a2 = sin2 * logtan
    b2 = -2 * cosp * ctx.ln(cosp)
    c2 = 2 * sinp * ctx.ln(sinp)
    b0 = b2 * cos2 - c2 * sin2
    c0 = -b2 * sin2 - c2 * cos2
    theta1 = 2 * sin2 * logtan
    # H = cot(theta); theta(0) = pi/2, so H'(0) = -theta'(0)
    h_slope = -theta1
    w_slope = 8 * ctx.pi * (2 * cosp ** 2 * ctx.ln(cosp) + 2 * sinp ** 2 * ctx.ln(sinp))
    area_slope = -8 * ctx.pi * (cosp * b0 - sinp * c0)
    return FirstOrderData(
        phi_label=str(phi).strip(), a0=a0, a2=a2, b0=b0, b2=b2, c0=c0, c2=c2,
        r1=ctx.mpf(0), theta1=theta1, mean_curvature_slope=h_slope,
        willmore_slope=w_slope, area_slope=area_slope)


def q_first_order_check(phi: str, cfg: PrecisionConfig | None = None,
                        table: SignedTable | None = None):
    """Residual of q'(0) = 2 pi r b against the endpoint-i word integrals.

    The left side is assembled from the numeric table at z = i, the right
    side from the central values; only the weight-1 integral at i enters.
    On the path to i the sigma are complex, so the residual is summed in
    ``mpc`` arithmetic, coefficient by coefficient: q'(0) = sum_i x_i Omega(i)
    M_i, whose entries (1, 0) + (0, 1), times i, must equal 2 pi b.
    """
    cfg = cfg or PrecisionConfig()
    ctx = cfg.context
    if table is None:
        table = cached_table("i", phi, 1, cfg)
    state = central_state(cfg, phi)
    residual = {}
    for i in (1, 2, 3):
        m = M_MATS[i - 1]
        weight = 1j * (m[1][0] + m[0][1]) * table.value((i,))
        for d in state.x(i, 0).degrees():
            residual[d] = residual.get(d, 0) + weight * state.x(i, 0).coefficient(d)
    for d in state.x(2, 0).degrees():
        residual[d] -= 2 * ctx.pi * state.x(2, 0).coefficient(d)
    return max(abs(v) for v in residual.values())
