"""Iterated integrals of the surface 1-forms along straight paths from 0.

A word table (``build_table``) holds the values of every word integral up
to a chosen length, for one endpoint (1 or i) and one opening angle phi.
A signed table (``build_signed_table``) holds only the signed sum of the
word integrals per letter multiset, which is all the order recursion
reads; it is the one kind of table ``cached_table`` can keep on disk, in
a directory the caller names.  Both are built by power series transport:
the path is cut into segments short enough that every simple pole stays
at least three half-lengths away from the segment midpoint, and one
driver (``_transport``) walks the words or the multisets layer by layer,
one real recurrence per node on the forms' common denominator, and glues
the segments by initial value, on the kernel's integers.
The independent checks of these tables, a nested Gauss-Legendre
quadrature of short words and Chen composition of word tables, live in
``oracle``, which uses nothing of the transport kernel and which
``expand`` never imports.

Transport kernel.  The three forms, the ``FORM_COEFFS`` sums over the
poles (p1, p2, -p1, -p2) with p1 = e^(i phi) = c + i s and p2 = -conj p1,
share one denominator, as p1 p2 = -1 and p1^2 + p2^2 = 2 cos 2phi:

    f1 = 4i sin(2 phi) lambda / D,   f2 = 4 cos(phi) (lambda^2 - 1) / D,
    f3 = 4i sin(phi) (lambda^2 + 1) / D,   D = lambda^4 - 2 cos(2 phi) lambda^2 + 1

(D. V. and G. V. Chudnovsky, "Computer algebra in the service of
mathematical physics and number theory", 1990, and J. van der Hoeven,
"Fast evaluation of holonomic functions", Theoret. Comput. Sci. 210, 1999,
on such small-height recurrences).  Every segment lies on the axis u = 1 or
u = i, lambda = u x with x real, so there f_i dlambda = 4 k_i N_i(x) dx /
D_u(x) with D_u(x) = x^4 - 2 kappa_u x^2 + 1, kappa_1 = cos 2phi = -kappa_i:
N = (x, x^2 - 1, x^2 + 1) and k = (i 2cs, c, i s) on the real axis, and, as
dlambda = i dx, N = (x, x^2 + 1, x^2 - 1) and k = (-i 2cs, -i c, s) on the
imaginary one.  The transport runs the real forms 4 N_i/D_u: every series
is one list of Python integers at scale 2^P, P = ``cfg.fixed_bits``, and
every value one integer, and each key's value is multiplied by the product
of its letters' k_i once, at the end of the path (``_with_constants``).
kappa_u, c and s come from the pole p1 of ``punctures_fixed`` at
``cfg.pole_bits``.  Both kinds of table keep the values as the transport
leaves them, (phase, integer), and round one once to ``mpc`` when it is read
(``OmegaTable.value``).

* Segments.  On a segment with midpoint m and half-length h every series is
  expanded in v = (x - m)/h, so the segment is v in [-1, 1].
  ``_segment_split`` rounds each inner cut down to a short dyadic, so m =
  M/2^e and h = H/2^e with small integers (e = 10 or 11 and H below 2^9 on
  the benchmark paths), and 2^(4e) D_u(m + h v) = sum_k (A_k - 2 kappa_u B_k)
  v^k with the small integers A_k of (M + H v)^4 + 2^(4e) and B_k of
  2^(2e) (M + H v)^2 (``_segment_kernel``).  Every pole stays three
  half-lengths from the midpoint, so the roots v_k of d(v) = D_u(m + h v)
  have |v_k| >= 3.
* Forward step.  A node's three letter integrals come from its series S
  (``_forward_step``) through one recurrence, Q = H S/d (``_divide``):
  Q_j = (H 2^(4e) S_j - sum_{k=1..4} (A_k - 2 kappa_u B_k) Q_(j-k)) r with
  r = 1/(A_0 - 2 kappa_u B_0).  The A_k and B_k products are small, kappa_u
  meets the B part in one product and r the rest in another; at pi/4 kappa
  is a unit or less, so its product is cheap on its own.  The letters'
  integrands 4 h N_i(x) S/D are then (M + H v) Q 2^-(2e - 2) and
  ((M + H v)^2 -+ t 2^(2e)) Q 2^-(3e - 2), t = 1 on the real axis and -1 on
  the imaginary one: products with two or three small terms, the common
  factor 4 taken off each shift.  Integration divides by j + 1 with ``//``,
  and the values at v = -1 and v = +1 are plain sums of the even and odd
  coefficients (with E and O those sums, the integral's constant term is
  O - E, so that it vanishes at v = -1, and its value at the segment end is
  2 O).
* Phase rule.  Every series and value the transport forms is real.  A
  key's phase is its constant's: i to the number of its letters whose k_i
  is imaginary, letters 1 and 3 on the real axis and 1 and 2 on the
  imaginary one.
* Value functionals.  A letter integral's value at v = +1 is linear in the
  series it starts from (K.-T. Chen, "Iterated path integrals", Bull. AMS
  83, 1977): sum_m S_m W_i,m, an exact dot at scale 2^-2P (``_dot``).  W_i
  is the transposed step applied to V_() = (1, ..., 1), the value at v = +1
  (``_value_functionals``): the integration functional g_j = 2/(j + 1) at
  even j and 0 at odd j, then the numerator, G_m = sum_k n_ik g_(m+k), then
  the 1/d recurrence run backwards, H_m from H_T down, which is ``_divide``
  on the reversed list.

One driver.  ``_transport`` walks the nodes of size 1..L layer by layer,
holding one layer of series per segment.  ``child(key, letter)`` gives the
node that a letter leads to and the sign +-1 with which the parent's
letter integral enters it.  A node's series is the signed sum of its
parents' letter integrals plus its value at the segment start: each
letter integral vanishes at v = -1, so that value is the node's constant
term, and its value at v = +1 is the start value plus the signed sum of
the parents' end values.  The nodes of size L need only that end value,
so on the last layer each parent and letter costs one integer dot with
W_i in place of a forward step, summed exactly and shifted once per node
and segment.  The values stay real integers at scale 2^P from segment to
segment, and take their constants at the end.  ``oracle.chen_compose``
glues tables of consecutive paths on the same integers, for the tests and
the demos; the transport itself never calls it.

* Word tables.  ``_word_child`` appends the letter with sign +, so each
  word has one parent, its prefix, and the driver runs Chen's
  d Omega(w i) = Omega(w) f_i.  A depth-L table takes (3^(L-1) - 1)/2
  forward steps and 3^L dots per segment.  One word alone (``word_entry``)
  needs only its prefixes (``_prefix_child``): L - 1 forward steps and
  one dot.
* Signed tables.  With inv(w) the number of letter pairs of w out of
  order, sigma_c = sum over the words w with letter counts c of
  (-1)^inv(w) Omega(w).  Appending letter i to a word with counts c - e_i
  puts it out of order with the sum_{j>i} c_j larger letters, so along
  the path

      d sigma_c = sum_i (-1)^(sum_{j>i} c_j) f_i sigma_(c - e_i),  sigma_0 = 1,

  the holonomy of sum_i s_i omega_i M_i with commuting scalars s_i (Chen,
  loc. cit.).  ``_multiset_child`` gives the child multiset as a
  non-decreasing word with that sign, so a node has at most 3 parents and
  a depth-L table has C(L + 3, 3) - 1 nodes; it takes C(L + 1, 3) forward
  steps and 3 C(L + 1, 2) dots per segment.  With every sign +, the same
  recurrence gives prod_i Omega(i)^(c_i) / c_i!, the shuffle identity
  (R. Ree, Ann. Math. 68, 1958).  As every word of a multiset has the same
  letters, the constants commute with both sums.

Magnitude bound.  d(v) = d_0 prod_k (1 - v/v_k) with |v_k| >= 3, so the
coefficients of d_0/d(v) sum in modulus to at most (1 - 1/3)^-4 = 81/16.
If the parent coefficients satisfy |S_j| <= M, the integrand of letter i
has coefficients below (81/16) 4 h ||N_i(m + h v)||_1 M / |d_0|, which is
below 12.3 M on the benchmark paths (|d_0| = D_u(m) >= 0.32), and
coefficient j of the child below that over j; the child's constant term
is at most (1 + ln T) times it.  So the integers grow by a few bits per
letter and never by a factor that depends on j.  The forms over their
constants grow faster than the forms, by 1/|k_i| per letter; the values
they give are sigma over the product of the k_i.

Rounding budget, in units of 2^-P.  The poles are the integers of
``punctures_fixed`` at ``cfg.pole_bits``, 8 bits finer than 2^-P
(``precision`` module docstring), and the segment ends, short dyadics, are
exact there.  cos 2 phi = c^2 - s^2 is floored once at 2^-pole_bits, and
r and 2 kappa_u r once at 2^-s, s one bit above the length of the integer
(A_0 - 2 kappa_u B_0) 2^pole_bits, so r keeps pole_bits + 2 bits and moves
Q by at most 2^-pole_bits of itself.  Each Q_j is floored once, and the recurrence damps
an earlier error by the coefficients of d_0/d, so Q carries at most 81/16
units.  The numerators are exact, and their shifts by 2e - 2 and 3e - 2,
with e >= 10, pass Q's error on to the integrand divided by at least
2^e / (4 ((|m| + h)^2 + 1)): below 0.04 units.  The shift and the division
by j + 1 floor once together (floor(floor(x/a)/b) = floor(x/(ab))), so
coefficient j of the integral carries at most 1 + 0.04/(j + 1) units.  Its
constant term is an exact sum of those coefficients, so as a function on
[-1, 1] its error is sum_j e_j (v^(j+1) - (-1)^(j+1)), at most
F = 2 (T + 0.04 (1 + ln T)) units (2^8.1 at T = 133, 2^11 at T = 1000,
which is working digits up to about 460).  The signed sums of integers are
exact, so every other fresh rounding is a functional's or a shift's.  A
word has one parent and takes F fresh units per segment; a multiset, with
at most 3 parents, takes 3F.  W_i floors g at 2^-(P + sigma), every G_m is
exact, and the backward recurrence floors each entry once at
2^-(P + 2 sigma), so each entry of W_i carries at most one unit, its final
shift's (measured below one unit at (1, pi/6), (1, pi/4), (i, 1.2) and
(1, 0.3)).  On the last
layer that error reaches a node as sum_m S_p,m e_m, at most ||S_p||_1 =
sum_m |S_p,m| per parent, and the shift adds one unit; in units of the
node's own constant, which its parent's constant times |k_i| <= 1 bounds,
||S_p||_1 times the parent's |constant| stayed below 7.3 for every word
of size 7 and below 0.2 for every multiset of size 13 on the three paths
below.  So a multiset of the last layer takes at most 3 * 0.2 + 1 fresh
units per segment and a word at depth 8 at most 7.3 + 1, less than F.  It
has no children, so that error reaches the table unchanged, and the
parents' own errors pass through W_i like any input error.  An error of
node c' then reaches node c through the exact transport over the rest of
the path: for a multiset a signed sum over the words with letter counts
c - c', for a word the one word w[k:] with c' = w[:k].  With Lambda_i the
integral of |f_i| along the path, the iterated integrals of the |f_i| over
the words with counts m sum to prod_i Lambda_i^(m_i) / m_i! (the shuffle
identity again).  The forms over their constants have the integrals
Lambda_i/|k_i|, and the end multiplies by prod_i |k_i|^(c_i), so the
inherited error of c over all c' <= c and S segments is at most
S 3F prod_i |k_i|^(c'_i) E_(c_i)(Lambda_i) <= S 3F prod_i E_(c_i)(Lambda_i),
E_n(x) = sum_{m <= n} x^m / m! < e^x, as |k_i| <= 1; that of a word, whose
prefixes have distinct counts, is at most a third of it.  The constants
are exact: the product of a key's k_i is formed exactly at
2^-(2 |key| pole_bits), and the value takes it in one product and one
shift, one more unit.  On the path to 1 at pi/4, S = 2 and Lambda =
(pi/2, 1.76, pi), sum Lambda < 6.5, so the bound S 3F e^6.5 is below
2^20.1 units at T = 133 at every depth (2^18.5 for a word), and below 2^23
for T <= 1000.  The bound grows as phi nears 0 or pi/2.  At T = 133 it
stays below 2^24 up to depth 14 on the path to i at phi = 1.2 (S = 3,
Lambda = (2.4, pi, 3.35)), and up to depth 10 on the path to 1 at
phi = 0.3 (S = 4, Lambda = (2.54, 3.78, pi)).  There 24 extra bits keep the
kernel's own rounding below one unit of the working precision, hence
``precision.FIXED_EXTRA_BITS = 24``, the scale at which the order recursion
reads the signed table as well.  Measured with no extra bits at 50 working
digits (T = 133), against the same kernel with 120 extra bits, sigma lost
at most 9.0 bits at depth 10 and 14 on the path to 1 at pi/4, 9.6 bits at
depth 8 and 9.7 at depth 14 on the path to i at 1.2, and 9.9 bits at depth
8 on the path to 1 at 0.3 (the pole-pair kernel this replaced: 8.7, 8.8,
10.4, 10.5 and 10.4).  The keys of the last layer lost at most 8.4, 9.6 and
9.8 bits at depth 10, 8 and 8.  With 24 extra bits no sigma moved by more
than 2^-14.2 of a unit.
The words of a depth-8 table lost at most 8.5, 8.4 and 8.7 bits on the
same three paths with no extra bits (8.2, 9.3 and 9.7 before; 8.0, 7.8
and 8.1 on the last layer), and with 24 extra bits none moved by more than
2^-15.3 of a unit.  Measured at 30 target digits against tables 30 digits
up, every word of the depth-3 word tables at (1, pi/6), (i, 1.2) and
(1, 0.3) is within 3.5 / 3.6 / 7.3 units of the working precision, about
the half unit in the last place of its final rounding; with the poles
rounded to the working precision the forms amplified that rounding to
8.0 / 23.2 / 24.9 units.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import tempfile
from itertools import repeat
from operator import add, floordiv, mul, rshift, sub
from pathlib import Path

from .precision import Dyadic, PrecisionConfig, cis_fixed, from_fixed_pair, pi_fixed
from .words import Word, format_word, parse_word

try:  # CPython's own SHA-256; importing hashlib would map OpenSSL, ~4 MB of RSS
    from _sha2 import sha256          # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256    # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

_CACHE_VERSION = 7
_ENDPOINTS = ("1", "i")


# ---------------------------------------------------------------------------
# phi parsing
# ---------------------------------------------------------------------------

def parse_phi(text, cfg: PrecisionConfig) -> Dyadic:
    """Evaluate an exact phi description, rounded once to ``cfg.pole_bits``
    significant bits, to nearest.

    Accepts "pi", "pi/4", "3*pi/8" or a decimal string such as "0.3";
    never a number, so nothing is silently truncated to 53 bits.  A rational
    multiple of pi is rounded from the integer pi of ``precision.pi_fixed``
    with 64 guard bits, a decimal from its exact value.  The value carries
    the bits of the finest kernel scale (``precision`` module docstring); it
    is a ``Dyadic``, which mpmath takes as an ``mpf``.
    """
    if not isinstance(text, str):
        raise TypeError("phi must be given as an exact string (e.g. 'pi/4' or '0.3')")
    s = text.strip().replace(" ", "")
    bits = cfg.pole_bits
    pi = pi_fixed(bits + 64)
    if "pi" in s:
        num, den = _pi_fraction(s)
        inside = 0 < 2 * num < den
        value = Dyadic.ratio(num * pi, den << (bits + 64), bits) if inside else None
    else:
        num, den = _decimal_fraction(s)
        inside = num > 0 and num << (bits + 65) < pi * den
        value = Dyadic.ratio(num, den, bits) if inside else None
    if not inside:
        raise ValueError(f"phi = {s} must lie strictly between 0 and pi/2")
    return value


_DECIMAL = re.compile(r"([+-]?)(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?")


def _decimal_fraction(s: str) -> tuple[int, int]:
    """The exact n/d of a decimal literal such as "0.3", "-2.5" or "1e-6"."""
    match = _DECIMAL.fullmatch(s)
    if match is None or not (match[2] or match[3]):
        raise ValueError(f"phi {s!r} is neither a decimal nor of the form n*pi/d")
    sign, whole, frac, power = match[1], match[2], match[3] or "", int(match[4] or 0)
    num = int(sign + (whole + frac or "0"))
    power -= len(frac)
    return (num * 10 ** power, 1) if power >= 0 else (num, 10 ** -power)


def _pi_fraction(s: str) -> tuple[int, int]:
    """The rational n/d of a spaceless description "n*pi", "pi/d" or "n*pi/d";
    n may be a bare sign or left out."""
    num, _, den = s.partition("pi")
    num = num.rstrip("*")
    return parse_ratio(num + "1" if num in ("", "+", "-") else num, den.lstrip("/"),
                       f"phi {s!r}", "n*pi/d")


def parse_ratio(num: str, den: str, label: str, form: str) -> tuple[int, int]:
    """The integer literals num and den (den "" meaning 1) as n/d in lowest
    terms with d > 0; a ValueError names ``label`` and its ``form`` otherwise."""
    try:
        n, d = int(num), int(den or 1)
        if d < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"{label} is not of the form {form} with integers n and d > 0") \
            from None
    if d == 0:
        raise ValueError(f"{label} has a zero denominator")
    g = math.gcd(n, d)
    return n // g, d // g


def canonical_phi(text) -> str:
    """One spelling per phi description, for cache file names and headers.

    Rational multiples of pi become "n*pi/d" in lowest terms, with n and d
    left out when they are 1: "1*pi/4", " pi / 4 " and "2*pi/8" all give
    "pi/4".  Decimals are kept as written, without spaces.
    """
    s = str(text).strip().replace(" ", "")
    if "pi" not in s:
        return s
    num, den = _pi_fraction(s)
    label = "pi" if num == 1 else f"{num}*pi"
    return label if den == 1 else f"{label}/{den}"


def is_pi_over_4(text, cfg: PrecisionConfig) -> bool:
    """Whether the phi description (validated by ``parse_phi``) is pi/4: equal
    by value to ``parse_phi("pi/4")``, both rounded to ``cfg.pole_bits``.

    The package's one rule for pi/4, the angle of the order recursion: the
    CLI picks the recursion with it, and ``engine.frame_lower`` checks its
    table's angle with it.  "2*pi/8", " pi / 4 " and a decimal of pi/4 with
    enough digits all pass; a decimal that rounds to another value does not.
    """
    return parse_phi(text, cfg) == parse_phi("pi/4", cfg)


def phi_slug(text: str) -> str:
    """Filesystem-safe canonical form of a phi string."""
    return canonical_phi(text).replace("*", "x").replace("/", "_over_")


# Coefficient of 1/(z - p_k) in the three surface 1-forms (rows: form 1, 2, 3).
FORM_COEFFS = ((1, -1, 1, -1),
               (1, -1, -1, 1),
               (1, 1, -1, -1))


@functools.lru_cache(maxsize=None)
def punctures_fixed(phi: Dyadic, cfg: PrecisionConfig) -> tuple:
    """The four unit-circle branch points (p1, p2, -p1, -p2), p2 = -conj p1,
    as (re, im) integer pairs at scale 2^``cfg.pole_bits``: p1 = e^(i phi) from
    its series (``precision.cis_fixed``), for phi strictly between 0 and pi/2
    as ``parse_phi`` gives it.  Every route forms its pole quantities from
    these integers."""
    bits = cfg.pole_bits
    if not 0 < phi.to_fixed(bits + 1) < pi_fixed(bits):
        raise ValueError("phi must lie strictly between 0 and pi/2")
    c, s = cis_fixed(phi, bits)
    return (c, s), (-c, s), (-c, -s), (c, -s)


def punctures(phi: Dyadic, cfg: PrecisionConfig) -> tuple:
    """The four branch points of ``punctures_fixed`` as exact ``mpc`` values,
    for the polylogarithm oracle and the tests."""
    from mpmath.libmp import from_man_exp
    ctx, bits = cfg.context, cfg.pole_bits
    return tuple(ctx.make_mpc((from_man_exp(re, -bits), from_man_exp(im, -bits)))
                 for re, im in punctures_fixed(phi, cfg))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

class OmegaTable:
    """Word integrals of one path, phi and precision, as the transport leaves them.

    ``values`` maps each key to (phase, x), i^phase x 2^-P at P =
    ``cfg.fixed_bits``: every word of length <= ``max_length``, the empty word
    holding 1.  ``ends`` are the path's start and end as exact (re, im)
    integer pairs at ``cfg.pole_bits``.  ``value`` rounds one entry once to
    ``mpc`` when it is read.
    """

    __slots__ = ("cfg", "phi_label", "ends", "max_length", "values")

    def __init__(self, cfg: PrecisionConfig, phi_label: str, ends, max_length: int,
                 values: dict):
        self.cfg = cfg
        self.phi_label = canonical_phi(phi_label)
        self.ends = tuple(ends)
        self.max_length = int(max_length)
        self.values = dict(values)

    def value(self, key):
        """The entry of ``key`` as an ``mpc`` at the working precision, rounded
        once; a ``KeyError`` for a key the table does not hold."""
        return entry_value(self.values[tuple(key)], self.cfg)

    def words(self):
        return self.values.keys()


class SignedTable(OmegaTable):
    """Signed sums of word integrals per letter multiset, for one path, phi and precision.

    sigma_c = sum over the words w with letter counts c of (-1)^inv(w) Omega(w),
    inv(w) the number of letter pairs of w out of order, for every c with
    1 <= |c| <= ``max_length``.  Keys are non-decreasing words: (1, 1, 3) holds
    sigma_(2,0,1) and (i,) holds Omega(i); no key is empty.
    ``engine.frame_lower`` reads nothing else of the word integrals, and
    reads the integers of ``values`` as they are, at the scale of its
    polynomials.
    """


# ---------------------------------------------------------------------------
# transport along one segment
# ---------------------------------------------------------------------------

# A segment's half-length over the gap from its midpoint to the nearest pole:
# every pole lies at least three half-lengths away, so the series in v of
# ``_segment_kernel`` converge like 3^-j, which ``_series_terms`` assumes.
_SEGMENT_RATIO = 1.0 / 3.0


def _segment_split(end, poles) -> list[float]:
    """Greedy subdivision of [0, end]: half-length <= ``_SEGMENT_RATIO`` times
    the midpoint's pole gap.

    Each inner cut is rounded down to a multiple of 2^-k, a power of two
    between 2^-8 and 2^-7 times its segment's half-length, so that a
    segment's midpoint and half-length are short dyadics (``_segment_kernel``).
    That shortens the segment by less than 1 %, and as the gap is
    1-Lipschitz, the shorter half-length h' < h keeps h' <= gap/3 at the new
    midpoint: gap(s + h') >= gap(s + h) - (h - h') >= 2h + h' >= 3h'.
    """
    def gap(s: float) -> float:
        z = s * end
        return min(abs(z - complex(p)) for p in poles)

    cuts = [0.0]
    while cuts[-1] < 1.0:
        s = cuts[-1]
        h = gap(s) * _SEGMENT_RATIO
        for _ in range(8):
            h = gap(min(s + h, 1.0)) * _SEGMENT_RATIO
        h *= 0.98
        while h > 1e-6 and h > gap(s + h) * _SEGMENT_RATIO:
            h *= 0.9
        s_next = s + 2 * h
        cuts.append(1.0 if s_next >= 1.0 - 1e-12 else
                    s_next - math.fmod(s_next, math.ldexp(1.0, math.frexp(h)[1] - 8)))
    return cuts


def _series_terms(cfg: PrecisionConfig) -> int:
    return int((cfg.working_digits + 8) * math.log(10) / -math.log(_SEGMENT_RATIO)) + 12


def _segment_kernel(cfg: PrecisionConfig, poles, z0, z1) -> tuple:
    """The recurrence and the numerators of the segment [z0, z1].

    ``poles`` (p1 = e^(i phi) first), ``z0`` and ``z1`` are (re, im) integer
    pairs at ``cfg.pole_bits``, as ``_path`` gives them.  The segment lies on
    the axis u = 1 or u = i, its points lambda = u x, x = (M + H v)/2^e for v
    in [-1, 1], with integers M, H and e >= 10 in lowest terms.  Returns
    (imaginary, recurrence, numerators):

    * recurrence = (H 2^(4e), A_1..A_4, B_1, B_2, r, 2 kappa_u r, s) for
      ``_divide``: 2^(4e) D_u(x) = sum_k (A_k - 2 kappa_u B_k) v^k, A from
      (M + H v)^4 + 2^(4e), B from 2^(2e) (M + H v)^2, kappa_u = t cos 2 phi
      from p1 at ``cfg.pole_bits``, t = 1 on the real axis and -1 on the
      imaginary one, and r = 1/(A_0 - 2 kappa_u B_0), r and 2 kappa_u r
      floored at 2^-s (module docstring);
    * numerators = (M, H, e, t): letter 1 takes M + H v, letters 2 and 3
      (M + H v)^2 -+ t 2^(2e).

    Raises ``ValueError`` when the segment lies on neither axis or a pole
    lies closer than three half-lengths to its midpoint.
    """
    pole_bits = cfg.pole_bits
    (x0, y0), (x1, y1) = z0, z1
    for p_re, p_im in poles:
        # twice the half-length against twice the pole's offset from the midpoint
        if 9 * ((x1 - x0) ** 2 + (y1 - y0) ** 2) * 10 ** 18 > (
                (2 * p_re - x0 - x1) ** 2 + (2 * p_im - y0 - y1) ** 2) * (10 ** 9 + 1) ** 2:
            raise ValueError("segment too long for its pole gap; subdivision bug")
    imaginary = bool(y0 or y1)
    if imaginary and (x0 or x1):
        raise ValueError("the segment lies on neither the real nor the imaginary axis")
    m, h = (y0 + y1, y1 - y0) if imaginary else (x0 + x1, x1 - x0)
    # in lowest terms, but e >= 10: Q's rounding then reaches an integrand below 2^-4 units
    drop = min(((m | h) & -(m | h)).bit_length() - 1, pole_bits - 9)
    m, h, e, t = m >> drop, h >> drop, pole_bits + 1 - drop, -1 if imaginary else 1
    c, s = poles[0]
    two_kappa = 2 * t * ((c * c - s * s) >> pole_bits)
    a = [math.comb(4, k) * m ** (4 - k) * h ** k for k in range(5)]
    b = [math.comb(2, k) * m ** (2 - k) * h ** k << 2 * e for k in range(3)]
    d0 = (a[0] + (1 << 4 * e) << pole_bits) - two_kappa * b[0]
    shift = d0.bit_length() + 1
    return imaginary, (h << 4 * e, *a[1:], *b[1:], (1 << pole_bits + shift) // d0,
                       (two_kappa << shift) // d0, shift), (m, h, e, t)


def _divide(s, recurrence) -> list:
    """H S(v)/d(v), d(v) = D_u(x) of the segment, by the recurrence
    Q_j = (H 2^(4e) S_j - sum_{k=1..4} (A_k - 2 kappa_u B_k) Q_(j-k)) r on
    integers: the A_k and B_k products are small, and the B_k ones meet
    2 kappa_u r and the others r in one product each; each coefficient is
    floored once."""
    top, a1, a2, a3, a4, b1, b2, r, r_kappa, shift = recurrence
    q1 = q2 = q3 = q4 = 0
    out = []
    for x in s:
        q1, q2, q3, q4 = ((x * top - a1 * q1 - a2 * q2 - a3 * q3 - a4 * q4) * r
                          + (b1 * q1 + b2 * q2) * r_kappa) >> shift, q1, q2, q3
        out.append(q1)
    return out


def _forward_step(s, kernel):
    """The forward step of one node S: per letter 1, 2, 3, the antiderivative
    of S times the letter's form over its constant that vanishes at v = -1,
    and its value at v = +1.  Yields (series, value) on the scale of S.
    """
    _, recurrence, (m, h, e, t) = kernel
    q = _divide(s, recurrence)
    line = list(map(add, map(mul, q, repeat(m)), map(mul, [0] + q, repeat(h))))
    square = list(map(add, map(mul, line, repeat(m)), map(mul, [0] + line, repeat(h))))
    one = list(map(mul, q, repeat(t << 2 * e)))
    for part, shift in zip((line, map(sub, square, one), map(add, square, one)),
                           (2 * e - 2, 3 * e - 2, 3 * e - 2)):
        # the integrand's coefficients of v^0..v^(T-1) divided by j + 1: those of v^1..v^T
        c = list(map(floordiv, map(rshift, part, repeat(shift)), range(1, len(s))))
        # c[j] multiplies v^(j+1), so the odd powers sit at even j
        odd, even = sum(c[0::2]), sum(c[1::2])
        yield [odd - even] + c, 2 * odd


def _value_functionals(kernel, bits: int, T: int) -> list:
    """Per letter 1, 2, 3: W_i, the value at v = +1 of a series' letter
    integral as a linear functional of the series, at scale 2^bits.

    W_i is the transpose of the forward step applied to V_() = (1, ..., 1),
    the value at v = +1 (K.-T. Chen, "Iterated path integrals", Bull. AMS
    83, 1977): integration and the constant term give g_j = 2/(j + 1) at
    even j < T and 0 at odd j, floored at scale 2^(bits + sigma); the
    numerator's transpose G_m = sum_k n_k g_(m+k) is exact; and
    W_i = H L^T G 2^-sigma, L the series of 1/d, is ``_divide`` run from the
    top down, then shifted by 2 sigma.
    """
    _, recurrence, (m, h, e, t) = kernel
    one = t << 2 * e
    functionals = []
    for numerator, sigma in (((m, h), 2 * e - 2), ((m * m - one, 2 * m * h, h * h), 3 * e - 2),
                             ((m * m + one, 2 * m * h, h * h), 3 * e - 2)):
        g = [0 if j % 2 else (2 << bits + sigma) // (j + 1) for j in range(T)]
        transposed = [sum(map(mul, numerator, g[i:i + 3])) for i in range(T)]
        functionals.append([w >> 2 * sigma for w in _divide(transposed[::-1], recurrence)[::-1]])
    return functionals


def _dot(s, w) -> int:
    """sum_m S_m W_m, exact, at the product of their scales."""
    return sum(map(mul, s, w))


def _path(endpoint: str, phi: str, max_length: int, cfg: PrecisionConfig):
    """The poles and the segments [z0, z1] of the path from 0 to the endpoint,
    each point an exact (re, im) integer pair at ``cfg.pole_bits``."""
    if endpoint not in _ENDPOINTS:
        raise ValueError(f"endpoint must be one of {_ENDPOINTS}, got {endpoint!r}")
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    poles = punctures_fixed(parse_phi(str(phi), cfg), cfg)
    bits = cfg.pole_bits
    axis = (1, 0) if endpoint == "1" else (0, 1)
    cuts = _segment_split(complex(*axis), [complex(re / (1 << bits), im / (1 << bits))
                                            for re, im in poles])
    # each cut is a float, so exact at 2^bits
    points = [(n << bits) // d for n, d in (cut.as_integer_ratio() for cut in cuts)]
    ends = [(x * axis[0], x * axis[1]) for x in points]
    return poles, list(zip(ends[:-1], ends[1:]))


def _path_ends(endpoint: str, bits: int) -> tuple:
    """The ends of the path from 0 to ``endpoint``, ``"1"`` or ``"i"``, as
    (re, im) integer pairs at scale 2^bits."""
    return (0, 0), ((1 << bits, 0) if endpoint == "1" else (0, 1 << bits))


def build_table(endpoint: str = "1", phi: str = "pi/4", max_length: int = 4,
                cfg: PrecisionConfig | None = None) -> OmegaTable:
    """Transport all word integrals from 0 to the endpoint (``"1"`` or ``"i"``)."""
    cfg = cfg or PrecisionConfig()
    poles, segments = _path(endpoint, phi, max_length, cfg)
    values = _transport(cfg, poles, segments, max_length, _word_child)
    values[()] = 0, 1 << cfg.fixed_bits
    return OmegaTable(cfg, str(phi), (segments[0][0], segments[-1][1]), max_length, values)


def word_entry(endpoint: str, phi: str, word, cfg: PrecisionConfig | None = None) -> tuple:
    """The entry (phase, x) of one non-empty word, as
    ``build_table(endpoint, phi, len(word), cfg)`` holds it: the transport
    follows only the word's prefixes, L - 1 forward steps and one dot per
    segment."""
    cfg = cfg or PrecisionConfig()
    word = tuple(word)
    poles, segments = _path(endpoint, phi, len(word), cfg)
    return _transport(cfg, poles, segments, len(word), _prefix_child(word))[word]


def entry_value(entry: tuple, cfg: PrecisionConfig):
    """A table entry (phase, x) as an ``mpc`` at the working precision,
    rounded once."""
    phase, x = entry
    pair = (0, x) if phase else (x, 0)
    return from_fixed_pair(*pair, cfg.fixed_bits, cfg.context)


def _prefix_child(word: Word):
    """A ``child`` of ``_transport`` that appends a letter, as ``_word_child``,
    with sign + where that gives a prefix of ``word`` and else 0, no node."""
    def child(key: Word, letter: int) -> tuple[Word, int]:
        node = key + (letter,)
        return node, int(word[:len(node)] == node)
    return child


def _word_child(key: Word, letter: int) -> tuple[Word, int]:
    """The word ``key`` with ``letter`` appended, with sign +."""
    return key + (letter,), 1


def _multiset_child(key: Word, letter: int) -> tuple[Word, int]:
    """The multiset ``key`` with ``letter`` added, as a non-decreasing word,
    and (-1)^inv: appending ``letter`` to a word with the letters of ``key``
    puts it out of order with every larger letter."""
    return tuple(sorted(key + (letter,))), -1 if sum(k > letter for k in key) % 2 else 1


def _transport(cfg: PrecisionConfig, poles, segments, depth: int, child) -> dict:
    """The value at the end of the path of every node 1 <= |key| <= depth.

    ``child(key, letter)`` gives the node that ``letter`` leads to from
    ``key`` and the sign +-1 it enters with, or 0 where it leads to no
    node: ``_word_child`` makes every word a node, with one parent,
    ``_prefix_child`` only the prefixes of one word, and ``_multiset_child``
    every letter multiset, whose value is sigma.  Layer by layer over the
    nodes: a node's series is the signed sum over its parents of the
    parent's letter integral (``_forward_step``), plus the node's value at
    the segment start, which the integrals leave in place at v = -1.  The
    nodes of size ``depth`` need only that value at v = +1, which is linear
    in the parent's series: one dot per parent and letter with the value
    functional W_i (``_value_functionals``).  The forms enter over their
    constants, so every series and value is one real integer list or
    integer at scale 2^P, from segment to segment; at the end of the path
    each value is multiplied by its key's constant (``_with_constants``).
    Returns {key: (phase, x)} at scale 2^P, P = ``cfg.fixed_bits``.
    """
    T, bits = _series_terms(cfg), cfg.fixed_bits
    kernels = [_segment_kernel(cfg, poles, z0, z1) for z0, z1 in segments]
    if len({kernel[0] for kernel in kernels}) > 1:
        raise ValueError("the path's segments lie on both axes")
    start: dict = {}      # key -> its value at the segment start at scale 2^P
    for kernel in kernels:
        layer = {(): [1 << bits] + [0] * T}
        end = {}
        for _ in range(depth - 1):
            children: dict = {}     # key -> (series, end value)
            for key, s in layer.items():
                for letter, (c, e) in zip((1, 2, 3), _forward_step(s, kernel)):
                    node, sign = child(key, letter)
                    if not sign:
                        continue
                    # a node starts as the constant of its value at the segment start
                    s0 = start.get(node, 0)
                    a, a_end = children.get(node) or ([s0] + [0] * T, s0)
                    op = add if sign > 0 else sub
                    children[node] = list(map(op, a, c)), op(a_end, e)
            layer = {node: series for node, (series, _) in children.items()}
            end.update((node, value) for node, (_, value) in children.items())
        functionals = _value_functionals(kernel, bits, T)
        last: dict = {}       # key of size depth -> its end value at scale 2^2P
        for key, s in layer.items():
            for letter, w in zip((1, 2, 3), functionals):
                node, sign = child(key, letter)
                if not sign:
                    continue
                x = last.get(node, start.get(node, 0) << bits)
                last[node] = x + _dot(s, w) if sign > 0 else x - _dot(s, w)
        end.update((node, x >> bits) for node, x in last.items())
        start = end
    return _with_constants(start, kernels[0][0], poles[0], cfg.pole_bits)


def _with_constants(values: dict, imaginary: bool, pole, pole_bits: int) -> dict:
    """{key: (phase, x)}: each value times its key's constant.

    Letter i's form is 4 k_i times its numerator over D_u, with |k_i| <= 1:
    k = (i 2cs, c, i s) on the real axis and (-i 2cs, -i c, s) on the
    imaginary one, c + i s the pole e^(i phi) at ``pole_bits``.  A key takes
    the product of its letters' k_i, exact at scale 2^(2 |key| pole_bits),
    in one product and one shift.
    """
    c, s = pole
    t = -1 if imaginary else 1
    letters = (None, (1, 2 * t * c * s), (int(imaginary), t * c << pole_bits),
               (1 - imaginary, s << pole_bits))
    out = {}
    for key, x in values.items():
        turns = sum(letters[letter][0] for letter in key)
        k = math.prod(letters[letter][1] for letter in key)
        out[key] = turns % 2, (-x if turns % 4 > 1 else x) * k >> 2 * pole_bits * len(key)
    return out


def build_signed_table(endpoint: str = "1", phi: str = "pi/4", depth: int = 4,
                       cfg: PrecisionConfig | None = None) -> SignedTable:
    """Transport sigma_c for every letter multiset c with 1 <= |c| <= depth
    from 0 to the endpoint (``"1"`` or ``"i"``); see the module docstring."""
    cfg = cfg or PrecisionConfig()
    poles, segments = _path(endpoint, phi, depth, cfg)
    return SignedTable(cfg, str(phi), (segments[0][0], segments[-1][1]), depth,
                       _transport(cfg, poles, segments, depth, _multiset_child))


# ---------------------------------------------------------------------------
# on-disk cache, used only when a directory is given
# ---------------------------------------------------------------------------

def _cache_path(cache_dir: Path, endpoint: str, phi_label: str, max_length: int,
                cfg: PrecisionConfig) -> Path:
    name = (f"omega_end{endpoint}_phi{phi_slug(phi_label)}"
            f"_L{max_length}_d{cfg.target_digits}_g{cfg.guard_digits}.json")
    return Path(cache_dir) / name


def _values_digest(values: dict) -> str:
    """SHA-256 of the serialised values, keys in sorted order.

    Fed one key at a time, so no second copy of the file is built in memory.
    """
    digest = sha256()
    for key in sorted(values):
        item = values[key]
        digest.update(f"{key}:{item['re']}:{item['im']};".encode())
    return digest.hexdigest()


def save_table(table: SignedTable, cache_dir: Path) -> Path:
    """Write a signed table to ``cache_dir``; word tables are not cached.

    Each sigma is stored as its integers at scale 2^``cfg.fixed_bits``, "re"
    and "im" in hexadecimal, the part of the other phase "0".
    """
    if not isinstance(table, SignedTable):
        raise TypeError(f"the cache holds signed tables only, got {type(table).__name__}")
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    cfg = table.cfg
    values = {}
    for w, (phase, v) in sorted(table.values.items()):
        re, im = (0, v) if phase else (v, 0)
        values[format_word(w)] = {"re": format(re, "x"), "im": format(im, "x")}
    endpoint = "i" if table.ends[1][1] else "1"
    payload = {
        "version": _CACHE_VERSION,
        "endpoint": endpoint,
        "phi": table.phi_label,
        "digits": cfg.target_digits,
        "guard_digits": cfg.guard_digits,
        "max_length": table.max_length,
        "sha256": _values_digest(values),
        "values": values,
    }
    path = _cache_path(cache_dir, endpoint, table.phi_label, table.max_length, cfg)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _cached_value(item: dict) -> tuple[int, int]:
    """(phase, x) of a stored sigma; a value with both parts nonzero is no sigma."""
    re, im = int(item["re"], 16), int(item["im"], 16)
    if re and im:
        raise ValueError("a sigma is real or imaginary")
    return (1, im) if im else (0, re)


def load_table(endpoint: str, phi: str, max_length: int, cfg: PrecisionConfig,
               cache_dir: Path) -> SignedTable | None:
    """The signed table in ``cache_dir`` for exactly this request, or None on a miss.

    A file counts only if its header (version, endpoint, phi label, digits,
    guard digits, depth) matches the request, its values hash to the stored
    SHA-256, and it holds every non-decreasing key of length 1..``max_length``
    and no other, each one real or imaginary.  Anything else, a missing key
    or unreadable JSON included, is a miss, which ``cached_table`` rebuilds
    and overwrites.
    """
    phi_label = canonical_phi(phi)
    path = _cache_path(cache_dir, endpoint, phi_label, max_length, cfg)
    expected = (_CACHE_VERSION, endpoint, phi_label, cfg.target_digits,
                cfg.guard_digits, max_length)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        header = tuple(payload[key] for key in ("version", "endpoint", "phi", "digits",
                                                "guard_digits", "max_length"))
        if header != expected or payload["sha256"] != _values_digest(payload["values"]):
            return None
        values = {parse_word(key): _cached_value(item)
                  for key, item in payload["values"].items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    # the letter multisets of size 1..L number C(L + 3, 3) - 1, so this count,
    # the length range and the order of every key leave room for exactly the full set
    if len(values) != math.comb(max_length + 3, 3) - 1 or not all(
            1 <= len(key) <= max_length and list(key) == sorted(key) for key in values):
        return None
    return SignedTable(cfg, phi_label, _path_ends(endpoint, cfg.pole_bits), max_length, values)


def cached_table(endpoint: str, phi: str, max_length: int,
                 cfg: PrecisionConfig | None = None,
                 cache_dir: Path | None = None) -> SignedTable:
    """The signed table from ``build_signed_table``, which writes nothing; with
    a ``cache_dir``, loaded from there, or built and stored there on a miss."""
    cfg = cfg or PrecisionConfig()
    if cache_dir is None:
        return build_signed_table(endpoint, phi, max_length, cfg)
    table = load_table(endpoint, phi, max_length, cfg, cache_dir)
    if table is not None:
        return table
    table = build_signed_table(endpoint, phi, max_length, cfg)
    save_table(table, cache_dir)
    return table


# ---------------------------------------------------------------------------
# names that moved to ``oracle``
# ---------------------------------------------------------------------------

# perfbench/child.py calls and spans these as omega attributes; each is
# imported from ``oracle`` on first use (PEP 562) and kept in this module's
# globals.  Nothing in the package reads them here.
_ORACLE_NAMES = ("chen_compose", "gauss_legendre_rule", "quadrature_oracle")


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle
    value = getattr(oracle, name)
    globals()[name] = value
    return value
