"""Order-by-order expansion of the potential coefficients and the area.

At the minimal angle (phi = pi/4, where the Sym rotation angle is constant)
the four parameter functions a, b, c (Laurent coefficients of the residue
matrix) and the scalar r admit a recursion in the expansion order n.  The
recursion runs at that angle only, so pi/4 is a constant here (``PHI``), not
an input: the state and the results carry no angle, and the one table check
(``frame_lower``) asks ``omega.is_pi_over_4``, the package's single rule for
pi/4, whether the table's angle equals it by value.  Only the order-1 closed
forms (``first_order_general_phi``) and the q-check (``q_first_order_check``)
take a phi.  The recursion, order by order:

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
   p = P11 P21 - P12 P22 determines the positive-degree part of c^(n).  At
   odd n the Sym-point condition p(i) = 0 pins its constant term; at even n
   it holds by itself and c^(n) has no constant term (below, "The two
   parities").
3. b^(n) = (-1)^n c^(n) by the angle-reflection symmetry.  The state
   stores c alone and reads b from it (``DerivativeState.x``).
4. The normalization det(r A) = -1 gives lambda * K_lower = (lambda^2 - 1)
   a^(n) + 2 lambda r^(n): at even n, dividing by lambda^2 - 1 yields a^(n)
   as the quotient and r^(n) from the remainder.  At odd n both are exactly
   0 (below, "The two parities") and are set, not solved.

Why the recursion is real.  On the real axis letters 1 and 3 carry
imaginary constants (the phase rule of ``omega``), so sigma_c = i^p x_c with
x_c real and p = (c1 + c3) mod 2 for the letter counts c.  M_1 = i diag(1, -1)
and M_3 = i [[0, 1], [-1, 0]] are i times real matrices and M_2 is real, so
M^(c) = M_1^c1 M_2^c2 M_3^c3 is i^(c1 + c3) times a real integer matrix,
T_c = i^p M^(c) is a real integer matrix, and sigma_c M^(c) = x_c T_c.  The
central a, b, c and r are real, so every frame derivative P^(m) at z = 1,
a sum of real derivative products times x_c T_c, is real, and so are p, K,
a^(n) and c^(n), which are read off them by real operations.  The
recursion solves with no complex number: the values at the Sym point
lambda = i that pin c^(n)'s constant at odd n are real by parity, and only
``advance``'s Sym-point residual reads both parts of p(i)
(``LaurentPoly.at_i``, a pair of integers).  ``frame_lower`` checks each
sigma_c's phase against (c1 + c3) mod 2 as it reads it, so a table of the
wrong phase raises ``EngineError``.

The 2<->3 mirror.  At pi/4, cos(phi) = sin(phi) = u, so the central b and
c, -(sin phi, cos phi)(1/lambda + lambda)/2, are one polynomial: ``_unit``
rounds u once from the real part of the pole e^(i pi/4), and b0 = c0 holds
by construction, not because two roundings agree.  With step 3, b^(m) =
(-1)^m c^(m) at every m, that is b(t) = c(-t).  r and a are even in t
("The two parities"), so y_2^(k) = sum_l C(k, l) r^(k-l) b^(l), in
which only even k - l enter and (-1)^l = (-1)^k, is (-1)^k y_3^(k) as an
exact sum at 2^-2P, and since ``laurent.round_map`` is odd (round(-x) =
-round(x)) the rounded integers agree too: y_2(t) = y_3(-t) exactly.  The
state builds y_1 and y_3 alone and reads y_2 as the sign flip
(``DerivativeState.y``), and ``extract_a_r`` and ``frame_derivative`` read
letter 2 from letter 3.

The products.  y_1 is even in t, so the product of y over a letter
multiset c = (c1, c2, c3) and over its mirror m = (c1, c3, c2) are one
function at t and -t: D^s of m's product is (-1)^s times c's.  The state
keeps the products of the multisets with c2 <= c3 only, and
``frame_lower`` adds x_c T_c D^s and (-1)^s x_m T_m D^s from one list.  A
self-mirror multiset (c2 = c3) has a product even in t, so its odd
derivatives are exactly 0; they are stored as empty maps and never
computed.  Each kept multiset has one kept parent: drop a 3 if c2 < c3, a
2 if c2 = c3 > 0, a 1 if it holds only 1s.  So its children are +3
always, +2 iff c3 = c2 + 1 and +1 iff c2 = c3 = 0, and a letter-2 factor
is read as the signed y_3.  The table stays whole: sigma has no such
symmetry.

T_c from the letter counts.  With Z = diag(1, -1), X = [[0, 1], [1, 0]]
and J = [[0, 1], [-1, 0]], M_1 = i Z, M_2 = X and M_3 = i J, and Z^2 = X^2
= 1, J^2 = -1.  So M^(c) = i^q (-1)^floor(c3/2) Z^(c1 mod 2) X^(c2 mod 2)
J^(c3 mod 2), q = c1 + c3, and with p = q mod 2, i^(p + q) =
(-1)^(floor(q/2) + p): T_c = (-1)^(floor(q/2) + q mod 2 + floor(c3/2))
Z^(c1 mod 2) X^(c2 mod 2) J^(c3 mod 2) (``_t_matrix``).

Why the even alpha_k vanish.  The area series sums, for alpha_k,
C(k, j) r^(j) u (b^(k-j) - c^(k-j)) at degree 0 over j; at even k only even
j enter, where b^(k-j) = c^(k-j), so every even alpha_k is exactly 0.  No
runtime check of the mirror is made: it would test only this construction.

Every polynomial of the recursion, from the frame sums to the area
coefficients, is a real ``laurent.LaurentPoly`` on fixed-point integers at
scale 2^P, and so is every r^(k); the rounding budget is in ``laurent``'s
docstring.  So are the numbers the recursion reads: x_c, the signed
table's own integers at the same scale ``cfg.fixed_bits``; the central
values and cos(pi/4) = sin(pi/4) from the pole e^(i pi/4) of
``omega.punctures_fixed``; and 1/(2 pi (n + 1)) and 2 pi (n + 1) from
``precision.pi_fixed``.  Every residual check compares integers exactly
(``_exceeds``), the residuals are reported as exact ``Dyadic`` values, and
the alpha_k and derivative polynomials are printed from their integers
(``precision.to_decimal``); an ``mpf`` is made only when a library caller
asks for one.

The two parities.  In t: r^(j) and a^(j) vanish at every odd j, by
induction on the order.  At odd n every b/c and y_2/y_3 pair of K_lower
cancels by the mirror, and every other term holds an odd-order r, a or
y_1 = r a, so K_lower = 0 and with it a^(n) = r^(n) = 0: ``advance`` sets
them and solves the normalization at even n only.  In lambda: x_i^(k) has
only degrees of parity k + 1 (the central a, b, c have degrees +-1), and so
has y_i^(k), whose r^(k-l) vanish unless l = k mod 2; a product of l of them
at derivative order s has parity s + l, so P^(m), a sum of such terms with
s + l = m, has parity m mod 2, and so have the frame products of p^(m).
Sums, products, ``star`` and ``laurent.round_map`` create no degree, so
these parities are exact, not up to dust, and so are the degree bounds:
p_lower^(n+1) has degrees of parity n + 1 in -(n+1)..n+1, and at even n
lambda * K_lower has odd degrees in -1..n+3.  One rule (``_check_degrees``)
checks both where they are formed, at any size.  The rest then holds by
construction: c^(n), folded from p_lower, has degrees of parity n + 1 in
0..n+1; lambda * K_lower less its dust at -1 is an odd polynomial, so its
(lambda^2 - 1) division leaves a remainder at degree 1 only and a quotient
a^(n) of odd degrees in 1..n+1.  So the Sym-point condition is a condition
at odd n only: there p^(n+1) has even degrees and every value at lambda = i
is real, one real equation for c^(n)'s constant term.  At even n p^(n+1)
has odd degrees only and, once reality makes it star-symmetric, its
coefficients at d and -d are equal while i^(-d) = -i^d, so p(i) = 0
identically and c^(n) takes no constant term.

Every order asserts the structural invariants: the frame derivative's
degree <= n + 1, the degrees and lambda-parity of p_lower and lambda *
K_lower exactly (above), and the reality, Sym-point and normalization
residuals, which are recorded; a violation raises :class:`EngineError`
instead of silently absorbing precision loss.  No small coefficient is
dropped while a result is computed: a^(n) alone passes one noise cut
(``_support``) that zeroes coefficients below its constraint's tolerance;
at every order run so far it drops only a^(2)'s division dust.
The one negative degree of lambda * K_lower, -1, is dust up to eps(2) of
max(its peak, 1) and is dropped before the division.

The area of the closed surface is 8 pi (1 - r (cos(phi) b0 - sin(phi) c0)),
b0 and c0 here the degree-0 coefficients; Taylor coefficients alpha_k
(Area = 8 pi (1 - sum alpha_k t^k)) follow from the stored derivatives by
one more Leibniz pass.  At pi/4 the family is minimal, so the Willmore
coefficients equal the alpha_k and the mean curvature vanishes
identically.
"""

from __future__ import annotations

import math

from .laurent import LaurentPoly, LaurentMatrix2, add_product, axpy, round_map, to_mpf
# cached_table is not called here; perfbench/selftest.py reads engine.cached_table
from .omega import (SignedTable, build_signed_table, cached_table,  # noqa: F401
                    is_pi_over_4, parse_phi, punctures_fixed)
from .precision import Dyadic, PrecisionConfig, pi_fixed, rescale, to_decimal

# The angle of the order recursion.
PHI = "pi/4"

# Constant 2x2 matrices attached to the three forms (exact Gaussian integers).
M_MATS = (
    ((1j, 0), (0, -1j)),
    ((0, 1), (1, 0)),
    ((0, 1j), (-1j, 0)),
)
# Z^(c1 mod 2) X^(c2 mod 2) J^(c3 mod 2) by the parities of the letter counts
# (module docstring): ZX = J, ZJ = X, XJ = -Z and ZXJ = -1.
_PARITY_MATS = {
    (0, 0, 0): ((1, 0), (0, 1)), (1, 0, 0): ((1, 0), (0, -1)),
    (0, 1, 0): ((0, 1), (1, 0)), (0, 0, 1): ((0, 1), (-1, 0)),
    (1, 1, 0): ((0, 1), (-1, 0)), (1, 0, 1): ((0, 1), (1, 0)),
    (0, 1, 1): ((-1, 0), (0, 1)), (1, 1, 1): ((-1, 0), (0, -1)),
}


class EngineError(ArithmeticError):
    """A structural invariant of the recursion failed beyond tolerance."""


def _exceeds(size_sq: int, scale_sq: int, digits_lost: int, cfg: PrecisionConfig) -> bool:
    """Whether a modulus exceeds a scale times eps(digits_lost), given both
    squared at one scale: exact on the integers."""
    return size_sq * cfg.eps_ratio(digits_lost) ** 2 > scale_sq


def _below(size_sq: int, scale_sq: int, digits_lost: int, cfg: PrecisionConfig) -> bool:
    """Whether a modulus lies below a scale times eps(digits_lost), as ``_exceeds``."""
    return size_sq * cfg.eps_ratio(digits_lost) ** 2 < scale_sq


def _check_degrees(poly: LaurentPoly, parity: int, low: int, high: int, label: str,
                   cfg: PrecisionConfig) -> None:
    """Raise :class:`EngineError` on any coefficient of ``poly``, at any size,
    at a degree d of another parity than ``parity`` or outside low..high: the
    recursion's lambda-parity and degree bounds are exact (module docstring,
    "The two parities"), so nothing there is rounding dust."""
    for d, v in poly.re.items():
        if (d - parity) % 2:
            fault = "parity-forbidden coefficient"
        elif not low <= d <= high:
            fault = f"coefficient outside degrees {low}..{high}"
        else:
            continue
        raise EngineError(f"{label}: {fault} at degree {d} of size "
                          f"{Dyadic(abs(v), -cfg.fixed_bits).format(5)}")


def _modulus(size_sq: int, cfg: PrecisionConfig) -> Dyadic:
    """The square root of an integer at 2^2P, as a value at 2^-P to the
    working bits: a residual as it is reported."""
    extra = cfg.working_bits
    return Dyadic(math.isqrt(size_sq << 2 * extra), -cfg.fixed_bits - extra)


def _unit(cfg: PrecisionConfig, bits: int) -> int:
    """cos(pi/4) = sin(pi/4) at 2^bits: the real part of the pole e^(i pi/4)
    that the transport reads, rounded once.  One value serves both, so
    b0 = c0 by construction (module docstring)."""
    return rescale(punctures_fixed(parse_phi(PHI, cfg), cfg)[0][0], cfg.pole_bits, bits)


def _t_matrix(c1: int, c2: int, c3: int) -> tuple:
    """The real T_c = i^p M^(c) of the letter counts c (module docstring)."""
    q = c1 + c3
    mat = _PARITY_MATS[c1 % 2, c2 % 2, c3 % 2]
    if (q // 2 + q % 2 + c3 // 2) % 2:
        return tuple(tuple(-v for v in row) for row in mat)
    return mat


def _word(c1: int, c2: int, c3: int) -> tuple:
    """The non-decreasing word of the letter counts c: a table key."""
    return (1,) * c1 + (2,) * c2 + (3,) * c3


def _flip(poly: LaurentPoly, k: int) -> LaurentPoly:
    """(-1)^k poly: a k-th t-derivative read through the 2<->3 mirror."""
    return -poly if k % 2 else poly


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

    ``a[k]`` and ``c[k]`` are a^(k) and c^(k); b is not stored, since
    b^(k) = (-1)^k c^(k) (``x``).  ``frames[m]`` is P^(m) at z = 1,
    m = 0..order+1, and ``r[k]`` is r^(k) as an integer at the polynomials'
    scale 2^P.  The two private maps are built from solved orders only, so
    never stale: ``_ys`` maps (i, k) to y_i^(k) for i = 1, 3, and
    ``_products`` maps each letter multiset with c2 <= c3 (a non-decreasing
    word) to the list of t-derivatives of its product of y, as
    {degree: int} maps at scale 2^P; a self-mirror multiset's odd ones are
    empty (module docstring, "The products").
    """

    __slots__ = ("cfg", "order", "a", "c", "r", "frames", "diagnostics", "_ys", "_products")

    def __init__(self, *, cfg: PrecisionConfig, order: int, a: list, c: list, r: list,
                 frames: list):
        self.cfg = cfg
        self.order = order
        self.a, self.c, self.r = a, c, r
        self.frames = frames
        self.diagnostics = []
        self._ys = {}
        self._products = {}

    def x(self, i: int, k: int) -> LaurentPoly:
        """x_i^(k) of (x_1, x_2, x_3) = (a, b, c), b^(k) read as (-1)^k c^(k)."""
        if i == 1:
            return self.a[k]
        return _flip(self.c[k], k) if i == 2 else self.c[k]

    def y(self, i: int, k: int, ells=None) -> LaurentPoly:
        """k-th derivative of r * x_i by the Leibniz rule over the stored
        lists: the terms C(k, ell) r^(k-ell) x_i^(ell) for ell in ``ells``,
        all of 0..k by default.  y_2^(k) is read as (-1)^k y_3^(k), which it
        equals exactly (module docstring)."""
        if i == 2:
            return _flip(self.y(3, k, ells), k)
        total: dict = {}
        for ell in range(k + 1) if ells is None else ells:
            rv = self.r[k - ell]
            if rv:
                axpy(total, math.comb(k, ell) * rv, self.x(i, ell).re)
        return LaurentPoly(self.cfg, re=round_map(total, self.cfg.fixed_bits))

    def solved_y(self, i: int, k: int) -> LaurentPoly:
        """y_i^(k) of a solved order k, built once per state for i = 1, 3;
        y_2^(k) is read from y_3^(k)."""
        if i == 2:
            return _flip(self.solved_y(3, k), k)
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
                "b": self.x(2, k).to_jsonable(digits),
                "c": self.c[k].to_jsonable(digits),
                "r": to_decimal(self.r[k], -bits, digits),
            })
        return out


def central_state(cfg: PrecisionConfig) -> DerivativeState:
    """The order-0 state at pi/4: a = (1/lambda - lambda)/2, c =
    -cos(phi)(1/lambda + lambda)/2, and so b = -sin(phi)(1/lambda + lambda)/2
    = c, r = 1, each coefficient rounded once to 2^P."""
    bits = cfg.fixed_bits
    half = 1 << (bits - 1)
    c_half = -_unit(cfg, bits - 1)      # at 2^(P-1): halved
    return DerivativeState(
        cfg=cfg, order=0,
        a=[LaurentPoly(cfg, re={-1: half, 1: -half})],
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
    of c.  Of each 2<->3 mirror pair (module docstring) only the multiset
    with c2 <= c3 is walked, on the tree of its one kept parent: its product
    derivatives come from the parent's, and its sigma_c and its mirror's are
    multiplied in once each: 47 of the 80 multisets at order 5, 158 of the
    282 at order 9.

    Fixed point.  a, b, c and r are real, so every derivative of a product
    is a real {degree: int} map at the polynomials' scale 2^P: each y_i^(k)
    is read as it is stored, each Leibniz sum is exact at 2^-2P and rounded
    once (``laurent.round_map``), and x_c of sigma_c = i^p x_c is the
    table's integer as it is: the table must share the state's working
    precision, and with it the scale 2^P, and run to z = 1 at pi/4
    (``omega.is_pi_over_4``), and sigma_c's phase p must be (c1 + c3) mod
    2.  sigma_c M^(c) = x_c T_c with T_c real, read off the letter counts
    (``_t_matrix``), so the products x_c times a derivative are summed
    exactly at 2^-2P into one {degree: int} map per matrix T_c; each matrix
    entry adds those times its entry of T_c, 0 or +-1, and each coefficient
    is rounded once.  The budget of these roundings is in ``laurent``'s
    docstring.

    Carried products.  D^m of a multiset's product needs y^(k) for k <= m
    only, and a multiset of l letters contributes D^(n+1-l) and feeds its
    children up to D^(n-l), so at order n every derivative read is of a
    solved order.  Each kept multiset's list of maps lives on the state
    (``DerivativeState._products``) and is extended only by the orders it
    lacks, so order n builds one new derivative per kept multiset of size
    <= n and the first one of those of size n + 1, the odd ones of a
    self-mirror multiset excepted.  Nothing there depends on the table.  A
    product of l letters at derivative order m has support in [-l, m + l],
    so no rounding dust can cross the degree bound that
    ``frame_derivative`` checks.
    """
    cfg = state.cfg
    if not isinstance(table, SignedTable):
        raise TypeError("frame_lower reads signed sums per letter multiset "
                        f"(omega.build_signed_table), got {type(table).__name__}")
    if table.cfg.working_digits != cfg.working_digits:
        raise ValueError(f"the table holds {table.cfg.working_digits} working digits; "
                         f"the recursion runs at {cfg.working_digits}")
    if table.ends != ((0, 0), (1 << cfg.pole_bits, 0)) or not is_pi_over_4(table.phi_label, cfg):
        raise ValueError(f"the table is of another path than [0, 1] or of phi = "
                         f"{table.phi_label}; the recursion reads z = 1 at phi = {PHI}")
    if table.max_length < n + 1:
        raise ValueError(f"table depth {table.max_length} < required {n + 1}")
    if n == 0:
        return LaurentMatrix2(cfg)
    bits = cfg.fixed_bits
    products = state._products
    # matrix T_c -> {degree: int} of its coefficient at 2^-2P
    sums: dict = {}

    def add_one(c1, c2, c3, weight, deriv) -> None:
        x = _sigma_x(table, _word(c1, c2, c3), (c1 + c3) % 2)
        if x:
            axpy(sums.setdefault(_t_matrix(c1, c2, c3), {}), weight * x, deriv)

    def add(c1, c2, c3, weight, deriv, s) -> None:
        """weight x_c T_c D^s for the multiset c and, unless c2 = c3, for its
        mirror (c1, c3, c2), whose D^s is (-1)^s times c's."""
        add_one(c1, c2, c3, weight, deriv)
        if c2 != c3:
            add_one(c1, c3, c2, -weight if s % 2 else weight, deriv)

    # single letters: D^k of y_i is y_i^(k) itself, and y_2 is read from y_3
    ys = {}
    for i in (1, 3):
        ys[i] = products.setdefault((i,), [])
        for k in range(len(ys[i]), n):
            ys[i].append(state.solved_y(i, k).re)
        # single-letter cross terms (orders 1..n-1 of x against r)
        cross = state.y(i, n, range(1, n)).re
        if cross:
            add(int(i == 1), 0, int(i == 3), n + 1, cross, n)

    def descend(c1, c2, c3) -> None:
        derivs = products[_word(c1, c2, c3)]
        size = c1 + c2 + c3
        if size >= 2 and derivs[n + 1 - size]:
            add(c1, c2, c3, math.perm(n + 1, size), derivs[n + 1 - size], n + 1 - size)
        # a multiset of size l >= 2 contributes derivative order n+1-l and
        # feeds its children orders up to n-l; single letters only feed.
        max_child = n - size
        if max_child < 0:
            return
        children = [(c1, c2, c3 + 1, 3)]
        if c3 == c2 + 1:
            children.append((c1, c2 + 1, c3, 2))
        if c2 == c3 == 0:
            children.append((c1 + 1, c2, c3, 1))
        for d1, d2, d3, letter in children:
            child = products.setdefault(_word(d1, d2, d3), [])
            factor = ys[1 if letter == 1 else 3]
            for s in range(len(child), max_child + 1):
                total: dict = {}
                if d2 != d3 or s % 2 == 0:      # a self-mirror product is even in t
                    for j in range(s + 1):
                        if derivs[j] and factor[s - j]:
                            w = math.comb(s, j)
                            # a letter-2 factor: y_2^(s-j) = (-1)^(s-j) y_3^(s-j)
                            add_product(total, -w if letter == 2 and (s - j) % 2 else w,
                                        derivs[j], factor[s - j])
                child.append(round_map(total, bits))
            descend(d1, d2, d3)

    descend(1, 0, 0)
    descend(0, 0, 1)

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
                                          _t_matrix(int(i == 1), int(i == 2), int(i == 3)))
    if mat.max_abs_degree() > n + 1:
        raise EngineError(f"frame derivative order {n + 1} has degree "
                          f"{mat.max_abs_degree()} > {n + 1}")
    return mat


def p_derivative(n: int, state: DerivativeState,
                 frame_low: LaurentMatrix2) -> LaurentPoly:
    """Lower-order part of the (n+1)-st derivative of p = P11 P21 - P12 P22.

    Its lambda-parity n + 1 and its degree bound n + 1 are exact (module
    docstring, "The two parities"): any coefficient outside them raises."""
    p_low = frame_low[1, 0] - frame_low[0, 1]
    for k in range(1, n + 1):
        pk = state.frames[k]
        pm = state.frames[n + 1 - k]
        p_low = p_low + (pk[0, 0] * pm[1, 0] - pk[0, 1] * pm[1, 1]).scale(math.comb(n + 1, k))
    _check_degrees(p_low, n + 1, -(n + 1), n + 1, f"p_lower^({n + 1})", state.cfg)
    return p_low


# ---------------------------------------------------------------------------
# extraction of the order-n parameters
# ---------------------------------------------------------------------------

def _support(poly: LaurentPoly, scale_sq: int, cfg: PrecisionConfig) -> LaurentPoly:
    """The noise cut of a real a^(n): drop each coefficient below
    scale * eps(6), the residual tolerance of its defining constraint.

    ``scale_sq`` is the square of the constraint's scale, at 2^2P.  Degrees
    and parity need no check here: a^(n) inherits them from lambda *
    K_lower, which is checked where it is formed (module docstring, "The
    two parities")."""
    return LaurentPoly(cfg, re={d: v for d, v in poly.re.items()
                                if not _below(v * v, scale_sq, 6, cfg)})


def _constant(cfg: PrecisionConfig, value: int) -> LaurentPoly:
    """The constant polynomial of an integer at 2^P."""
    return LaurentPoly(cfg, re={0: value})


def extract_c(n: int, p_low: LaurentPoly, cfg: PrecisionConfig) -> LaurentPoly:
    """Order-n c from the reality and Sym-point constraints on p^(n+1).

    Reality gives the positive degrees.  At odd n the Sym-point condition
    pins the constant term from the real parts at lambda = i, the only parts
    there; at even n it holds by itself (module docstring, "The two
    parities"), and nothing is evaluated at i."""
    bits = cfg.fixed_bits
    two_pi = 2 * pi_fixed(bits) * (n + 1)
    factor = ((1 << 2 * bits) + two_pi // 2) // two_pi       # 1/(2 pi (n+1)) at 2^P
    c_n = (p_low.project("minus").star() - p_low.project("plus")) * _constant(cfg, factor)
    if n % 2:
        # c^(n)(i) = -factor p_low(i), each part of the product rounded once
        low = round_map({0: p_low.at_i()[0] * factor}, bits)[0]
        c_n = c_n + _constant(cfg, -c_n.at_i()[0] - low)
    return c_n


def extract_a_r(n: int, state: DerivativeState, c_n: LaurentPoly) -> tuple:
    """Order-n a and r, n even, from dividing the curvature constraint by
    lambda^2 - 1, and K_lower.  At odd n both are exactly 0 (module
    docstring, "The two parities"): there is nothing to solve."""
    if n % 2:
        raise ValueError(f"a^({n}) and r^({n}) vanish at odd order; only even "
                         "orders are extracted")
    cfg = state.cfg
    ys = {(i, k): state.solved_y(i, k) for i in (1, 3) for k in range(1, n)}
    # letter 2 is letter 3 at -t (module docstring): at even n the b and y_2
    # terms double the c and y_3 ones, and are not formed
    c0 = state.c[0]
    k_low = (c0 * c_n).scale(-4)
    for k in range(1, n):
        rv = state.r[k]
        if rv:
            combo = state.a[0] * state.a[n - k] - (c0 * state.c[n - k]).scale(2)
            k_low = k_low + combo * _constant(cfg, 2 * math.comb(n, k) * rv)
    # the y products at k and n - k coincide, and so do their binomial weights
    for k in range(1, n // 2 + 1):
        combo = ys[1, k] * ys[1, n - k] - (ys[3, k] * ys[3, n - k]).scale(2)
        k_low = k_low + combo.scale(math.comb(n, k) * (1 if 2 * k == n else 2))
    shifted = k_low.shift(1)
    _check_degrees(shifted, 1, -1, n + 3, f"lambda * K_lower^({n})", cfg)
    # lambda * K_lower is a polynomial: its one negative degree, -1, is
    # rounding dust, at most eps(2) of max(its largest coefficient, 1)
    scale_sq = max(shifted.max_abs_sq(), 1 << 2 * cfg.fixed_bits)
    dust = shifted.re.get(-1, 0)
    if _exceeds(dust * dust, scale_sq, 2, cfg):
        raise EngineError(f"lambda * K_lower^({n}): negative degrees are not dust: "
                          f"{Dyadic(abs(dust), -cfg.fixed_bits).format(5)} at degree -1")
    # an odd polynomial: the remainder lies at degree 1 alone
    quot, rem = shifted.project("plus").divrem_l2m1()
    r_n = rem.re.get(1, 0) >> 1         # half the remainder, rounded down
    if _below(r_n * r_n, scale_sq, 6, cfg):
        r_n = 0
    return _support(quot, scale_sq, cfg), r_n, k_low


def advance(state: DerivativeState, table: SignedTable) -> DerivativeState:
    """Extend the state by one order."""
    cfg = state.cfg
    bits = cfg.fixed_bits
    n = state.order + 1
    f_low = frame_lower(n, state, table)
    p_low = p_derivative(n, state, f_low)
    c_n = extract_c(n, p_low, cfg)
    state.c.append(c_n)
    if n % 2:       # a and r are even in t (module docstring)
        a_n, r_n = LaurentPoly(cfg), 0
    else:
        a_n, r_n, k_low = extract_a_r(n, state, c_n)
    state.a.append(a_n)
    state.r.append(r_n)
    state.order = n

    # residual diagnostics on the assembled constraints
    r_poly = _constant(cfg, r_n)
    two_pi = _constant(cfg, 2 * pi_fixed(bits) * (n + 1))
    p_full = (c_n + state.x(3, 0) * r_poly) * two_pi + p_low
    sym_re, sym_im = p_full.at_i()
    residuals = {"star_residual": (p_full - p_full.star()).max_abs_sq(),
                 "sym_residual": sym_re * sym_re + sym_im * sym_im}
    if n % 2 == 0:      # at odd n a^(n), r^(n) and K_lower are all exactly 0
        k_assembled = r_poly.scale(-2) + a_n.shift(-1) - a_n.shift(1) + k_low
        residuals["normalization_residual"] = k_assembled.max_abs_sq()
    scale_sq = max(p_full.max_abs_sq(), 1 << 2 * bits)
    diag = {"order": n}
    for name, size_sq in residuals.items():
        diag[name] = _modulus(size_sq, cfg)
        if _exceeds(size_sq, scale_sq, 6, cfg):
            raise EngineError(f"{name} {diag[name].format(5)} at order {n}")
    state.diagnostics.append(diag)

    state.frames.append(frame_derivative(n, state, table, lower=f_low))
    return state


def run(order: int, cfg: PrecisionConfig | None = None,
        table: SignedTable | None = None) -> DerivativeState:
    """Run the recursion at phi = pi/4 up to the requested order.

    ``table`` is an ``omega.SignedTable`` of depth at least ``order + 1``;
    by default ``omega.build_signed_table`` builds it in process.
    """
    cfg = cfg or PrecisionConfig()
    if order < 1:
        raise ValueError("order must be >= 1")
    if table is None:
        table = build_signed_table("1", PHI, order + 1, cfg)
    state = central_state(cfg)
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
    polynomials' scale 2^P, each even one exactly 0 (module docstring);
    ``alphas`` and ``alpha`` render them as ``mpf``.  The residuals of
    ``diagnostics`` are exact ``Dyadic`` values.
    """

    __slots__ = ("cfg", "order", "alpha_fixed", "diagnostics")

    def __init__(self, *, cfg: PrecisionConfig, order: int, alpha_fixed: list,
                 diagnostics: list):
        self.cfg = cfg
        self.order = order
        self.alpha_fixed = alpha_fixed
        self.diagnostics = diagnostics

    @property
    def alphas(self) -> list:
        return [to_mpf(a, self.cfg) for a in self.alpha_fixed]

    def alpha(self, k: int):
        """alpha_k as an ``mpf``, k = 1..order."""
        if not 1 <= k <= self.order:
            raise ValueError(f"alpha_{k} is outside orders 1..{self.order}")
        return to_mpf(self.alpha_fixed[k - 1], self.cfg)

    def _per_genus(self) -> list:
        """alpha_k / 2^k, the coefficients in powers of 1/(g+1) = 2t, each
        rounded once to the working bits."""
        out = []
        for k, a in enumerate(self.alpha_fixed, 1):
            value = Dyadic(a, -self.cfg.fixed_bits).rounded(self.cfg.working_bits)
            out.append(Dyadic(value.man, value.exp - k))
        return out

    def per_genus_coefficients(self) -> list:
        """Coefficients in powers of 1/(g+1) = 2t, as ``mpf``: the values
        that ``alpha_texts(per_genus=True)`` prints."""
        ctx = self.cfg.context
        return [ctx.mpf(v) for v in self._per_genus()]

    def alpha_texts(self, per_genus: bool = False, strip_zeros: bool = True) -> list:
        """alpha_k (or its per-genus coefficient) at the target digits, as
        ``mpmath.nstr`` prints the ``mpf`` of ``alphas`` (of
        ``per_genus_coefficients``)."""
        values = (self._per_genus() if per_genus
                  else [Dyadic(a, -self.cfg.fixed_bits) for a in self.alpha_fixed])
        return [v.format(self.cfg.target_digits, strip_zeros) for v in values]

    def to_jsonable(self) -> dict:
        alpha_t = self.alpha_texts()
        return {
            "version": 1,
            "phi": PHI,
            "precision": self.cfg.target_digits,
            "guard_digits": self.cfg.guard_digits,
            "order": self.order,
            "area_prefactor": "8*pi",
            "alpha_t": alpha_t,
            "alpha_per_genus": self.alpha_texts(per_genus=True),
            # the family is minimal at pi/4: Willmore = area, and H = 0
            "willmore_t": list(alpha_t),
            "mean_curvature_t": [Dyadic(0).format(self.cfg.target_digits)] * self.order,
            "order_diagnostics": [
                {k: (v if isinstance(v, (int, str)) else v.format(3)) for k, v in d.items()}
                for d in self.diagnostics],
        }


def area_series(state: DerivativeState, order: int | None = None) -> ExpansionResult:
    """alpha_1..alpha_N with Area = 8 pi (1 - sum alpha_k t^k).

    Each alpha_k is summed exactly on the integers of r, b, c and
    u = cos(pi/4) = sin(pi/4) (rounded once from the pole e^(i pi/4)), and
    rounded once, by its division by k!; an even one is exactly 0 (module
    docstring).  ``order`` defaults to the state's.
    """
    cfg = state.cfg
    order = state.order if order is None else order
    if not 1 <= order <= state.order:
        raise ValueError(f"order {order} is outside the state's orders 1..{state.order}")
    bits = cfg.fixed_bits
    u = _unit(cfg, bits)
    alphas = []
    for k in range(1, order + 1):
        total = 0           # at scale 2^2P, and u * total at 2^3P
        for j in range(k + 1):
            rv = state.r[j]
            if rv:
                # b^(m) - c^(m) = ((-1)^m - 1) c^(m)
                mixed = -2 * state.c[k - j].re.get(0, 0) if (k - j) % 2 else 0
                total += math.comb(k, j) * rv * mixed
        unit = math.factorial(k) << (2 * bits)
        alphas.append((2 * u * total + unit) // (2 * unit))
    return ExpansionResult(cfg=cfg, order=order, alpha_fixed=alphas,
                           diagnostics=list(state.diagnostics))


def expand(order: int, cfg: PrecisionConfig | None = None,
           table: SignedTable | None = None) -> ExpansionResult:
    """Convenience: run the recursion and extract the area series."""
    state = run(order, cfg, table)
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
    side from the central values at phi, a = (1/lambda - lambda)/2 and b,
    c = -(sin phi, cos phi)(1/lambda + lambda)/2, formed in ``mpf``; only the
    weight-1 integral at i enters.  On the path to i the sigma are complex,
    so the residual is summed in ``mpc`` arithmetic, coefficient by
    coefficient: q'(0) = sum_i x_i Omega(i) M_i, whose entries (1, 0) +
    (0, 1), times i, must equal 2 pi b.
    """
    cfg = cfg or PrecisionConfig()
    ctx = cfg.context
    if table is None:
        table = build_signed_table("i", phi, 1, cfg)
    phiv = parse_phi(phi, cfg)
    half, b_half, c_half = ctx.mpf(1) / 2, -ctx.sin(phiv) / 2, -ctx.cos(phiv) / 2
    central = ({-1: half, 1: -half}, {-1: b_half, 1: b_half}, {-1: c_half, 1: c_half})
    residual = {d: -2 * ctx.pi * v for d, v in central[1].items()}
    for i in (1, 2, 3):
        m = M_MATS[i - 1]
        weight = 1j * (m[1][0] + m[0][1]) * table.value((i,))
        for d, v in central[i - 1].items():
            residual[d] += weight * v
    return max(abs(v) for v in residual.values())
