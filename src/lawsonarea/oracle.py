"""Independent checks of the transport: Chen composition and a nested
Gauss-Legendre quadrature of short word integrals.

Nothing here is on the path of ``lawsonarea expand``, and nothing here uses
the transport kernel: from ``omega`` this module takes only phi parsing, the
poles (``punctures_fixed``), the table classes and the endpoints, so the
quadrature shares no arithmetic with the tables it checks.

Chen composition.  ``chen_compose`` glues the word tables of two
consecutive paths, Omega(w; path1 path2) = sum over the splits w = u v of
Omega(u; path1) Omega(v; path2) (K.-T. Chen, "Iterated path integrals",
Bull. AMS 83, 1977), on the tables' integers; ``constant_path`` is its
unit.  The transport itself never calls either: they serve the tests and
the demos.

Quadrature oracle.  ``_gauss_legendre`` and ``_first_level`` run on
integers of their own at scale 2^P, P = working bits plus the extra bits
of ``_quadrature_bits``, and share nothing with the transport kernel.  The
rule and the levels stay integers, and each word is one exact sum or dot
of them, rounded once to ``mpc``.  The budgets count the kernels' own
roundings, in units of 2^-P.

* Nodes.  Mapped to x in [-1, 1], the path [0, end] sees a pole p at
  w = 2p/end - 1, and the forms are analytic inside the Bernstein ellipse
  E_rho of the nearest pole, rho = |w + (w^2 - 1)^(1/2)| > 1.  An inner level
  on [0, t], t on the path, sees every pole at a larger rho, so one count
  serves all three levels.  The n-point rule integrates a g that is
  analytic in E_rho', |g| <= M there, to within (64/15) M rho'^(-2n) /
  (rho'^2 - 1) (L. N. Trefethen, "Is Gauss quadrature better than
  Clenshaw-Curtis?", SIAM Rev. 50, 2008, Thm 4.5).  Take rho' =
  rho e^(-1/(2n)), so that rho'^(-2n) = e rho^(-2n).  Confocal ellipses are
  closest on the major axis, so E_rho' keeps (rho - 1/rho)/(4n) from every
  pole on E_rho, and a form, four terms 1/(x - w), is at most
  M = 16 n/(rho - 1/rho) there.  So the error of a level on a form stays
  below 2^-P once 2 n ln rho >= P ln 2 + m, m = ln((64/15) e M/(rho'^2 - 1)),
  and ``_quadrature_size`` takes the least such n: it starts from the n of
  m = 0 and P = working bits and raises n until it meets its own P and m,
  which both grow with n.  m is 6.7 (3.4 nodes) at pi/6 and 30 target
  digits and 8.3 (5.5 nodes) at phi = 0.3 and 60.  The words of length 2
  and 3 integrate a form times inner integrals, sums of logarithms that
  grow like ln n on E_rho'; P keeps at least 15 bits above the 2^-4 of a
  working unit that the rounding takes (below), which covers them.
  Measured at 30 target digits and pi/6, the worst of the 12 words of
  length <= 2 falls by rho^8 = 2^11.3 per 4 nodes and reaches its floor, 0.4
  units of 10^-40 against a table 30 digits up, at n = 50; the derived n
  is 60 there, 55 at pi/5 and 50 at pi/4.
* Rule.  A step of the Legendre recurrence j P_j = (2j - 1) x P_{j-1} -
  (j - 1) P_{j-2} rounds at most 3 units (one shift, scaled by less than 2,
  and one ``//``).  At x = cos(theta) a unit error at step i reaches P_n
  scaled by i |P_n Q_{i-1} - Q_n P_{i-1}| <= (4 / (pi sin(theta))) (i/n)^(1/2),
  since both Legendre functions are at most (2 / (pi j sin(theta)))^(1/2) in
  modulus, so P_n carries at most 2.5 n / sin(theta) units.  At the
  outermost root sin(theta) > 2.38/(n + 1/2) (it tends to j_0,1 = 2.405;
  checked for n = 10 to 320), which gives at most 1.05 n (n + 1/2) units.  A
  node moves by that error divided by |P_n'| > 1.  A weight 2 (1 - x^2) /
  (n (x P_n - P_{n-1}))^2 has no division by the small x^2 - 1.  Its
  relative error is twice that of P_{n-1}, which is above 1.25/(n + 1/2) at
  every root of P_n (it tends to j_0,1 J_1(j_0,1) = 1.248; checked likewise),
  plus 1/(1 - x^2) < (n + 1/2)^2/5.6 units from rounding 1 - x^2: under
  2 n^3 units in all for n >= 7, which is 2^20 at n = 80 and 2^23.7 at
  n = 188, the count at 100 target digits and phi = 0.3.
* First level.  The poles p1 and p2 are the integers of ``punctures_fixed``
  at ``cfg.pole_bits``, working bits + 32, rounded down once, to 2^-P;
  ``_quadrature_size`` refuses a P above that, which only delta < 4.2e-4
  would reach (below).  Every node z and every inner node t h_l has a real
  z^2, in [0, 1] on the path to 1 and in [-1, 0] on the path to i, and
  p1^2 = e^(2i phi), so |z^2 - p1^2|^2 = z^4 -+ 2 z^2 cos(2 phi) + 1.  On
  the path away from phi's near pole (to 1 with phi >= pi/4, where
  cos(2 phi) <= 0, and to i with phi <= pi/4) that is at least 1; on the
  other it is at least sin(2 phi)^2 >= min(sin(phi), cos(phi))^2.  So every
  node keeps |z^2 - p^2| >= delta from both pole pairs, delta = 1 on the
  far path and min(sin(phi), cos(phi)) on the near one, and as z^2 is
  real, p2 = -conj p1 gives u2 = conj u1 (Schwarz reflection).  Only u1 = 1/(z^2 - p1^2) is computed, by one ``//`` of
  2^(3P) by the exact norm of z^2 - p1^2, which carries about 6 units from
  rounding z^2 and p1^2; so u1 and its conjugate are off by at most
  6/delta^2 + 4 units (p2 is exactly -conj p1 on the integers).  As floor
  is not symmetric under negation, the conjugates are within one unit of
  entries computed from conj(p1^2), and within 3 (measured, phi = 0.3) of
  ones from p2^2.  The grid u1(top^2 h_l^2 h_m^2) is symmetric in the outer
  node l and the inner node m, so it is filled for l <= m only, n (n + 1)/2
  divisions (1 830 at n = 60; both pairs took twice as many), entry (m, l)
  taking z^2 rounded as (top^2 h_l^2) h_m^2.  The sums A1 = sum_l w_l u1
  and Im sum_l w_l h_l u1 are exact with sum w_l = 1 and rounded once; p2's
  are conjugates, so A2 = conj A1 and B is 2i times the second.  The inner
  integrals 2 t^2 B and 2 t (p1 A1 -+ p2 A2) and the weighted forms carry at
  most 4 (6/delta^2 + 5) + 8 = 24/delta^2 + 28 units: 52 on the far path,
  below 2^9 on the near one for delta >= 0.29 (phi in [0.3, 1.27]).  At the
  five angles pi/6 to pi/3 the 2 n^3 of the rule dominates, and P is the
  same with either delta; near pi/2 on the path to 1 the far path's delta
  keeps P at 21 extra bits at phi = 1.5707 and 30 digits, where cos(phi)
  would ask for 36, more than the poles carry.

``_quadrature_bits`` thus takes P = working bits + 4 +
ceil(log2(2 n^3 + 24/delta^2 + 28)), which keeps both kernels' own rounding
below 2^-4 of a unit of the working precision at every n: 24 extra bits
at n = 80, 28 at n = 188.  Measured at 40 and 260 working digits, at the n
those precisions derive (60 and 71 at (1, pi/6) and (i, 1.2) at 40 digits,
323 and 379 at 260), with no extra bits the rule lost 3.0 to 5.2 bits (8.3
to 38 units of the working precision) and the first levels up to 1 220
units against the kernel with 120 extra bits; with the derived 23 to 31
extra bits the rule is within 1e-6 units, and the levels within 2.4e-5
units, of a kernel 30 digits up on the same poles.  Against a kernel 30
digits up on its own poles, at the node count of the lower precision, the
first level at (i, 1.2) and (1, pi/6) is within 1.8e-5 and 2.4e-5 units
at 30 target digits and 6.0e-7 and 4.4e-7 at 250; with the poles rounded
to the working precision it was 3.3 and 0.29 units off at 30 digits, and
3.4 and 0.21 at 250.
"""

from __future__ import annotations

import math
from itertools import product
from operator import add, mul

from .omega import _ENDPOINTS, OmegaTable, SignedTable, parse_phi, punctures_fixed
from .precision import POLE_EXTRA_BITS, PrecisionConfig, from_fixed_pair, pi_fixed, to_fixed_pair


# ---------------------------------------------------------------------------
# Chen composition
# ---------------------------------------------------------------------------

def _all_words(max_length: int) -> list:
    """Every word of length 0..max_length, shortest first, each length in lexicographic order."""
    return [w for n in range(max_length + 1) for w in product((1, 2, 3), repeat=n)]


def constant_path(cfg: PrecisionConfig, phi_label: str, point,
                  max_length: int) -> OmegaTable:
    """Word table of the constant path at ``point``, an (re, im) integer pair
    at ``cfg.pole_bits``: 1 on the empty word, else 0."""
    return OmegaTable(cfg, phi_label, (point, point), max_length,
                      {w: (0, 0 if w else 1 << cfg.fixed_bits) for w in _all_words(max_length)})


def chen_compose(left: OmegaTable, right: OmegaTable) -> OmegaTable:
    """Word table over the concatenated path: per word, the sum of its prefix x
    suffix products, exact at 2^-2P and floored once to 2^-P.  The two
    angles must be equal by value (``parse_phi``), the left path must end on
    the right one's start, integer for integer, and each sum must be real or
    imaginary.  Only word tables compose: a signed sum does not split into
    prefix and suffix sums, and a ``SignedTable`` raises ``TypeError``."""
    if isinstance(left, SignedTable) or isinstance(right, SignedTable):
        raise TypeError("chen_compose composes word tables, not signed tables")
    cfg = left.cfg
    if cfg.working_digits != right.cfg.working_digits:
        raise ValueError("precision mismatch between composed tables")
    if parse_phi(left.phi_label, cfg) != parse_phi(right.phi_label, cfg):
        raise ValueError("phi mismatch between composed tables")
    if left.ends[1] != right.ends[0]:
        raise ValueError("paths do not compose: left endpoint differs from right start")
    depth = min(left.max_length, right.max_length)
    lv, rv, bits = left.values, right.values, cfg.fixed_bits
    values = {}
    for word in _all_words(depth):
        parts = [0, 0]      # the real and the imaginary part at 2^-2P
        for k in range(len(word) + 1):
            (p, x), (q, y) = lv[word[:k]], rv[word[k:]]
            parts[(p + q) % 2] += -x * y if (p + q) > 1 else x * y
        if parts[0] and parts[1]:
            raise ValueError(f"the composed value of {word} is neither real nor imaginary")
        values[word] = (1, parts[1] >> bits) if parts[1] else (0, parts[0] >> bits)
    return OmegaTable(cfg, left.phi_label, (left.ends[0], right.ends[1]), depth, values)


# ---------------------------------------------------------------------------
# Gauss-Legendre oracle
# ---------------------------------------------------------------------------

# (nodes, working digits, P) -> the rule's nodes and weights as integers at 2^P
_gl_cache: dict[tuple[int, int, int], tuple] = {}
# (endpoint, phi value, working digits) -> first level of the quadrature
_quadrature_cache: dict[tuple, list] = {}
# The most nodes the oracle takes.  n grows like P/(2 ln rho), without bound
# as phi nears 0 or pi/2 (56 182 at phi = 1e-6 and 30 digits).  At 30 digits
# a first level of n nodes took 0.15 s at n = 200 and 0.38 s at 400, the
# second level of a length-3 word 12 s and 102 s.  Every in-tree call takes
# at most 126 nodes (60 digits); 400 covers the five benchmark angles through
# 100 target digits (at most 188) and (i, 1.2) at 260 working digits (379).
_MAX_NODES = 400
# The most nodes a word of length 3 takes.  Its first call at a key builds
# one second level per outer node, n levels of n (n + 1)/2 divisions, so its
# cost grows as n^3: at 30 digits and pi/4 it took 0.28 / 1.7 / 3.7 / 6.7 s
# of CPU at 50 / 100 / 128 / 150 nodes (102 s at 400).  Every in-tree
# length-3 call takes at most 50 nodes; 128 admits the three nearest-pole
# paths at 60 digits (at most 126).
_MAX_NODES_LENGTH3 = 128


def _quadrature_bits(n: int, delta: float, cfg: PrecisionConfig) -> int:
    """The quadrature kernels' scale P: working bits and the extra bits that
    keep the rule's own rounding (2 n^3 units) and a first level's
    (24/delta^2 + 28 units) below 2^-4 of a unit of the working precision."""
    return cfg.working_bits + 4 + math.ceil(math.log2(2 * n ** 3 + 24 / delta ** 2 + 28))


def _bernstein_rho(pole: complex, end: complex) -> float:
    """The parameter rho > 1 of the Bernstein ellipse of [0, end] through ``pole``:
    |w + (w^2 - 1)^(1/2)| with w = 2 pole/end - 1, on the root of modulus above 1."""
    w = 2 * pole / end - 1
    root = (w * w - 1) ** 0.5
    return max(abs(w + root), abs(w - root))


def _quadrature_size(endpoint: str, phi_value, cfg: PrecisionConfig) -> tuple[int, int]:
    """The oracle's node count n and its scale P on the path to ``endpoint``.

    n is the least count with n >= (P ln 2 + m)/(2 ln rho): rho is the
    nearest pole's Bernstein parameter, m = ln((64/15) e M/(rho'^2 - 1)) with
    rho' = rho e^(-1/(2n)) and M = 16 n/(rho - 1/rho), and P is
    ``_quadrature_bits(n, delta, cfg)``, with delta = 1 on the path away from
    phi's near pole (to 1 with phi >= pi/4, to i with phi <= pi/4) and
    min(sin phi, cos phi) on the other.  The module docstring derives both.
    A ``ValueError`` naming phi refuses an n above ``_MAX_NODES``, and a P
    above ``cfg.pole_bits``, finer than the poles it would round: the
    24/delta^2 term of ``_quadrature_bits`` gets there only as delta falls
    below 4.2e-4, phi that close to 0 on the path to 1 or to pi/2 on the
    path to i, where n already exceeds ``_MAX_NODES``.
    """
    phi = float(phi_value)
    end = 1 if endpoint == "1" else 1j
    q = cfg.pole_bits
    rho = min(_bernstein_rho(complex(re / (1 << q), im / (1 << q)), end)
              for re, im in punctures_fixed(phi_value, cfg))
    far = (endpoint == "1") == (phi_value.to_fixed(q + 2) >= pi_fixed(q))
    delta = 1 if far else min(math.sin(phi), math.cos(phi))
    n = math.ceil(cfg.working_bits * math.log(2) / (2 * math.log(rho)))
    while True:
        if n > _MAX_NODES:
            raise ValueError(f"the quadrature oracle at phi = {phi:.6g} needs more than "
                             f"{_MAX_NODES} nodes at {cfg.target_digits} digits: a pole "
                             "lies too close to the path")
        bits = _quadrature_bits(n, delta, cfg)
        inner = rho * math.exp(-1 / (2 * n))      # rho', with rho'^(-2n) = e rho^(-2n)
        bound = 64 / 15 * math.e * (16 * n / (rho - 1 / rho)) / (inner * inner - 1)
        need = math.ceil((bits * math.log(2) + math.log(bound)) / (2 * math.log(rho)))
        if need <= n:
            break
        n = need
    if bits > cfg.pole_bits:
        raise ValueError(f"the quadrature oracle at phi = {phi:.6g} needs "
                         f"{bits - cfg.working_bits} extra bits at {cfg.target_digits} "
                         f"digits, more than the {POLE_EXTRA_BITS} its poles carry: phi "
                         "lies too close to 0 or pi/2")
    return n, bits


def gauss_legendre_rule(n: int, cfg: PrecisionConfig):
    """Nodes and weights on [-1, 1] at working precision: ``_gauss_legendre``
    with each node and weight rounded once to ``mpf``."""
    ctx = cfg.context
    bits = _quadrature_bits(n, 1, cfg)
    nodes, weights = _gauss_legendre(n, cfg, bits)
    return [ctx.mpf((x, -bits)) for x in nodes], [ctx.mpf((w, -bits)) for w in weights]


def _gauss_legendre(n: int, cfg: PrecisionConfig, bits: int) -> tuple[list, list]:
    """Nodes and weights on [-1, 1] as integers at scale 2^bits, by Newton.

    The Legendre recurrence and Newton run on integers at scale 2^bits, as
    ``_quadrature_bits`` sizes it (budget in the module docstring).  Each root starts from cos(pi (4k - 1)/(4n + 2)), stops once
    its Newton step is below ``cfg.eps()`` and then takes one more, polishing
    step.  Nodes are ascending.
    """
    key = (n, cfg.working_digits, bits)
    if key in _gl_cache:
        return _gl_cache[key]
    ctx = cfg.context
    one = 1 << bits
    tol = to_fixed_pair(cfg.eps(), bits)[0]

    def legendre(x):
        # P_n(x) and n (x P_n(x) - P_{n-1}(x)) = (x^2 - 1) P_n'(x), at scale 2^P
        p0, p1 = one, x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * (x * p1 >> bits) - (j - 1) * p0) // j
        return p1, n * ((x * p1 >> bits) - p0)

    nodes, weights = [], []
    for k in range(1, n // 2 + n % 2 + 1):
        x = to_fixed_pair(ctx.cos(ctx.pi * (4 * k - 1) / (4 * n + 2)), bits)[0]
        converged = False
        for _ in range(int(cfg.working_digits).bit_length() + 6):
            p, q = legendre(x)
            step = p * ((x * x >> bits) - one) // q      # P_n / P_n'
            x -= step
            if converged:
                break
            converged = abs(step) < tol
        _, q = legendre(x)
        # 2 / ((1 - x^2) P_n'^2) = 2 (1 - x^2) / q^2
        nodes.append(x)
        weights.append((2 * (one - (x * x >> bits)) << 2 * bits) // (q * q))
    # for odd n the last root is the middle node 0, which appears once
    full_nodes = [-x for x in nodes[:n // 2]] + nodes[::-1]
    full_weights = weights[:n // 2] + weights[::-1]
    _gl_cache[key] = full_nodes, full_weights
    return _gl_cache[key]


def _inverse_gap(zz, sq, bits: int) -> tuple[int, int]:
    """1/(z^2 - p^2) from z^2 and p^2, (re, im) at scale 2^bits: one ``//``."""
    d_re, d_im = zz[0] - sq[0], zz[1] - sq[1]
    inv = (1 << 3 * bits) // (d_re * d_re + d_im * d_im)
    return d_re * inv >> bits, -d_im * inv >> bits


def _cmul(a, b, bits: int) -> tuple[int, int]:
    """Product of two (re, im) pairs at scale 2^bits."""
    return (a[0] * b[0] - a[1] * b[1]) >> bits, (a[0] * b[1] + a[1] * b[0]) >> bits


def _paired_forms(z, poles, bits: int) -> tuple:
    """The three surface forms at z from the pole pairs +-p1, +-p2, on integers.

    ``z`` and ``poles`` = (p1, p2) are (re, im) pairs at scale 2^bits, and so
    are the three results.  With u_k = 1/(z^2 - p_k^2): f1 = 2z(u1 - u2),
    f2 = 2(p1 u1 - p2 u2) and f3 = 2(p1 u1 + p2 u2), the ``FORM_COEFFS`` sums
    over the four poles (p1, p2, -p1, -p2).  Where z^2 is real (z on an axis,
    as at every quadrature node), p2 = -conj p1 gives u2 = conj u1.
    """
    zz = _cmul(z, z, bits)
    p1, p2 = poles
    u1 = _inverse_gap(zz, _cmul(p1, p1, bits), bits)
    u2 = (u1[0], -u1[1]) if zz[1] == 0 else _inverse_gap(zz, _cmul(p2, p2, bits), bits)
    a, b = _cmul(p1, u1, bits), _cmul(p2, u2, bits)
    f1 = _cmul(z, (u1[0] - u2[0], u1[1] - u2[1]), bits)
    return ((2 * f1[0], 2 * f1[1]), (2 * (a[0] - b[0]), 2 * (a[1] - b[1])),
            (2 * (a[0] + b[0]), 2 * (a[1] + b[1])))


def _cdot(x, y) -> tuple[int, int]:
    """sum_l x_l y_l of two lists of (re, im) pairs, exact, at the product of their scales."""
    return (sum(a * c - b * d for (a, b), (c, d) in zip(x, y)),
            sum(a * d + b * c for (a, b), (c, d) in zip(x, y)))


def _first_level(top, poles, rule, bits: int) -> tuple:
    """Gauss-Legendre nodes t of [0, top], weight times forms there, inner integrals.

    All on integers at scale 2^bits: ``top``, ``poles`` = (p1, p2), ``rule``
    mapped to [0, 1], the nodes and, per letter, the weighted forms and the
    inner integrals at the nodes, as (re, im) pairs.  The inner integrals
    from 0 to each t, by the same rule on [0, t], are 2 t^2 B and
    2 t (p1 A1 -+ p2 A2), with A_k = sum_l w_l u_k(t h_l) and
    B = sum_l w_l h_l (u1 - u2)(t h_l), each sum exact and rounded once.
    top^2 must be real: then u2 = conj u1 on the grid, so only p1's is built.
    """
    half_nodes, half_weights = rule
    top_sq, top_sq_im = _cmul(top, top, bits)
    if top_sq_im:
        raise ValueError("the mirror pole rule needs a real top^2 (top on an axis)")
    squares = [h * h >> bits for h in half_nodes]
    moments = [w * h >> bits for h, w in zip(half_nodes, half_weights)]
    # top^2 h_l^2 per node l: t^2 at the outer node and the inner grid's scale
    scaled = [top_sq * hh >> bits for hh in squares]
    p1, p2 = poles
    sq = _cmul(p1, p1, bits)
    exact = [[0] * len(squares) for _ in range(3)]     # A1 and Im sum_m w_m h_m u1, per l
    # u1(top^2 h_l^2 h_m^2) is symmetric in (l, m): each entry is computed
    # once, for m >= l, and added to row l and to row m
    for l, tt in enumerate(scaled):
        u_re, u_im = zip(*[_inverse_gap((tt * s >> bits, 0), sq, bits) for s in squares[l:]])
        for row, c, u in zip(exact, (half_weights, half_weights, moments), (u_re, u_im, u_im)):
            row[l] += sum(map(mul, c[l:], u))
            row[l + 1:] = map(add, row[l + 1:], [c[l] * x for x in u[1:]])
    points = [(top[0] * h >> bits, top[1] * h >> bits) for h in half_nodes]
    weighted, inner = [], []
    for t, w, tt, a_re, a_im, b_im in zip(points, half_weights, scaled, *exact):
        weight = (top[0] * w >> bits, top[1] * w >> bits)
        weighted.append([_cmul(weight, f, bits) for f in _paired_forms(t, poles, bits)])
        a_re, a_im = a_re >> bits, a_im >> bits
        # A2 = conj A1, B1 - B2 = 2i Im B1; each form's factor 2 is the shift by bits - 1
        c1, c2 = _cmul(p1, (a_re, a_im), bits), _cmul(p2, (a_re, -a_im), bits)
        inner.append([_cmul(factor, g, bits - 1)
                      for factor, g in (((tt, 0), (0, 2 * (b_im >> bits))),
                                        (t, (c1[0] - c2[0], c1[1] - c2[1])),
                                        (t, (c1[0] + c2[0], c1[1] + c2[1])))])
    return points, list(zip(*weighted)), list(zip(*inner))


def _prefix_pairs(points, poles, rule, bits: int) -> dict:
    """Per length-2 word, its integrals from 0 to each node t of ``points``,
    exact at scale 2^(2 bits), each from a second level on [0, t]
    (``_first_level``) that is dropped once its 9 dots are taken."""
    words = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    rows = []
    for t in points:
        _, weighted, inner = _first_level(t, poles, rule, bits)
        rows.append([_cdot(inner[a - 1], weighted[b - 1]) for a, b in words])
    return dict(zip(words, zip(*rows)))


def quadrature_oracle(word, endpoint: str, phi: str, cfg: PrecisionConfig):
    """Nested Gauss-Legendre evaluation of one word integral, |word| <= 3.

    Each level uses the n-point rule on [0, upper limit], with n and the
    kernels' scale 2^P worked out from the precision and the nearest pole
    (``_quadrature_size``; derivation and budget in the module docstring).
    The first level (``_first_level``: the outer nodes, weight times the
    three forms at each, and the three inner integrals from 0 to each node)
    is kept as integers at scale 2^P in ``_quadrature_cache``, keyed by
    (endpoint, phi value from ``parse_phi``, working digits).  The first word
    of length 3 at a key adds one level per outer node and keeps the 9
    length-2 integrals from 0 to each outer node (``_prefix_pairs``); a
    ``ValueError`` naming phi refuses it, before any level is built, where n
    exceeds ``_MAX_NODES_LENGTH3``, as that cost grows as n^3.  Every
    word is then one exact integer sum or dot, rounded once to ``mpc``.
    This is purely an independent cross-check of the transport tables and
    uses nothing of theirs.
    """
    word = tuple(word)
    if len(word) > 3:
        raise ValueError("quadrature oracle is limited to words of length <= 3")
    if endpoint not in _ENDPOINTS:
        raise ValueError(f"endpoint must be one of {_ENDPOINTS}")
    ctx = cfg.context
    phi_value = parse_phi(phi, cfg)
    if not word:
        return ctx.mpc(1)
    key = (endpoint, phi_value, cfg.working_digits)
    # [P, outer nodes, weighted forms, inner integrals, prefix pairs or None]
    cached = _quadrature_cache.get(key)
    if cached is None or (len(word) == 3 and cached[4] is None):
        nodes, bits = _quadrature_size(endpoint, phi_value, cfg)
        if len(word) == 3 and nodes > _MAX_NODES_LENGTH3:
            raise ValueError(f"the quadrature oracle at phi = {float(phi_value):.6g} needs "
                             f"{nodes} nodes at {cfg.target_digits} digits, more than the "
                             f"{_MAX_NODES_LENGTH3} a word of length 3 may take")
        xs, ws = _gauss_legendre(nodes, cfg, bits)
        # the rule mapped to [0, 1]: nodes (x + 1)/2, weights w/2
        rule = [(x + (1 << bits)) >> 1 for x in xs], [w >> 1 for w in ws]
        drop = cfg.pole_bits - bits
        poles = [(re >> drop, im >> drop) for re, im in punctures_fixed(phi_value, cfg)[:2]]
        if cached is None:
            end = (1 << bits, 0) if endpoint == "1" else (0, 1 << bits)
            cached = _quadrature_cache[key] = [bits, *_first_level(end, poles, rule, bits),
                                               None]
        if len(word) == 3:
            cached[4] = _prefix_pairs(cached[1], poles, rule, bits)
    bits, points, weighted, inner, pairs = cached
    # word[:-1] integrated from 0 to each outer node, at scale 2^((len(word) - 1) bits)
    head = ([(1, 0)] * len(points) if len(word) == 1 else
            inner[word[0] - 1] if len(word) == 2 else pairs[word[:2]])
    return from_fixed_pair(*_cdot(head, weighted[word[-1] - 1]), len(word) * bits, ctx)
