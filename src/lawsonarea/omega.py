"""Iterated integrals of the surface 1-forms along straight paths from 0.

A word table (``build_table``) holds the values of every word integral up
to a chosen length, for one endpoint (1 or i) and one opening angle phi.
A signed table (``build_signed_table``) holds only the signed sum of the
word integrals per letter multiset, which is all the order recursion
reads; it is the one kind of table the on-disk cache holds.  Both are
built by power series transport: the path is cut into segments short
enough that every simple pole stays at least three half-lengths away from
the segment midpoint, and one driver (``_transport``) walks the words or
the multisets layer by layer, one O(terms) per-letter recurrence per
node, and glues the segments by initial value, on the kernel's integers.
A nested Gauss-Legendre quadrature provides an independent check for
short words.

Transport kernel.  On a segment with midpoint m and half-length h every
series is expanded in v = (z - m)/h, so the segment is v in [-1, 1] and a
pole q (relative to m) enters only through r = h/q, |r| <= 1/3.  A series
is held as one list of Python integers scaled by 2^P, P = working bits +
``_EXTRA_BITS``, and a phase: the series is i^phase times the list, phase
0 or 1.  Only the values at the end of the path are converted to ``mpc``.

* Forward step.  A node's three letter integrals come from its series
  S (``_integrate``).  Multiplying a series by h/(h v - q) is the
  recurrence K_j = (K_{j-1} - S_j) r.  Every segment lies on the real or
  the imaginary axis, and reflection across its line swaps the four poles
  in two pairs with conjugate ratios r and conj r (``_segment_ratios``).
  For a real series S with product P(r), a pair gives the real
  P(r) + P(conj r) = 2 Re P(r) and the imaginary P(r) - P(conj r) =
  2i Im P(r).  An imaginary series i S runs its product with conj r, and
  then its pair sum is i 2 Re P(r) and its difference the real
  -2 Im P(r): so at either phase one product per pair (four integer
  multiplies and two shifts per coefficient) gives the sum as its real
  part at the series' phase and the difference as its imaginary part at
  the other phase.  Every form has residues +-1, so each letter integrand
  is the sum or the difference of the same part of the two pairs'
  products, taking a pair's sum where the form gives its poles the same
  residue and its difference where not (``_letter_integrands``).
  Integration divides by j + 1 with ``//``, and the values at v = -1 and
  v = +1 are plain sums of the even and odd coefficients (with E and O
  those sums, the integral's constant term is O - E, so that it vanishes
  at v = -1, and its value at the segment end is 2 O).
* Phase rule.  A letter whose form gives the two poles of a pair opposite
  residues flips the phase: letters 1 and 3 on the real axis, where the
  pairs are (p1, conj p1) and (p2, conj p2), and letters 1 and 2 on the
  imaginary axis, where they are (p1, -conj p1) and (-p1, conj p1).  A
  letter that took one pair's sum and the other pair's difference would
  have no single phase, and the letter plan of ``_segment_ratios`` raises
  ``ValueError`` for it.  The root series is 1, so every series, value
  functional and value of a word w is real or imaginary as w has an even
  or odd number of flipping letters, and gluing by initial value keeps
  that phase from segment to segment.
* Value functionals.  A letter integral's value at v = +1 is linear in the
  series it starts from (K.-T. Chen, "Iterated path integrals", Bull. AMS
  83, 1977): sum_m S_m W_i,m, a dot with no conjugation, negated when both
  phases are 1 (i i = -1), at scale 2^-2P (``_dot``).  W_i is the
  transpose of letter i's forward step applied to V_() = (1, ..., 1), the
  value at v = +1 (``_value_functionals``): g_j = (V_{j+1} + (-1)^j V_0)
  // (j + 1), which is 2^(P+1) // (j + 1) at even j and 0 at odd j,
  undoes integration and the constant term, H_m = (H_{m+1} - g_m) r from
  H_T = 0 downwards is the product recurrence run backwards, and
  W_i = sum_k eps_ik H^(k) with the ``FORM_COEFFS`` signs, by the same
  pair kernel, so W_i has the phase of letter i.

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
and segment.  The values stay integers at scale 2^P, each with its phase,
from segment to segment and are converted to ``mpc`` once, at the end; no
``chen_compose`` is involved.

* Word tables.  ``_word_child`` appends the letter with sign +, so each
  word has one parent, its prefix, and the driver runs Chen's
  d Omega(w i) = Omega(w) f_i.  A depth-L table takes (3^(L-1) - 1)/2
  forward steps and 3^L dots per segment.
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
  (R. Ree, Ann. Math. 68, 1958).

Magnitude bound.  If the parent coefficients satisfy |S_j| <= M, the
recurrence gives |K_j| <= (|K_{j-1}| + M)/3 <= M/2: the 1/3 decay keeps
every product coefficient below M/2, a pair's sum or difference below M,
the letter integrand below 2M and coefficient j of the child below 2M/j.
The child's constant term is at most 2M(1 + ln T), so the integers grow by
at most a few bits per letter and never by a factor that depends on j.  In
the functionals |g_j| <= 2/(j + 1) (in units of 2^P), the same 1/3
damping keeps |H| <= 1, and |W_i| <= 4.

Rounding budget, in units of 2^-P.  Each r is rounded once per segment,
and its partner takes conj(r), one unit from its own rounded ratio; both
move a pole far less than its own working-precision error.  Each shift
rounds once, and the recurrence damps an earlier rounding by |r| <= 1/3,
so each part of a real-input product (``_real_product`` doubles it, from
2 S_j) carries at most 1 + 1/3 + 1/9 + ... = 3/2 fresh units, and so does
a pair's sum or difference, which is one part of one product.  The letter
integrand carries at most 3, and coefficient j of the integral at most
3/j + 1 after the division.  Its constant term is an exact sum of those
coefficients, so as a function on [-1, 1] its error is sum_j e_j
(v^(j+1) - (-1)^(j+1)), at most 2 (T + 3 (1 + ln T)) units.  The signed
sums of integers are exact, so every other fresh rounding is a
functional's or a shift's.  A word has one parent and takes
F = 2 (T + 3 (1 + ln T)) fresh units per segment (2^8.3 at T = 133, 2^11
at T = 1000, which is working digits up to about 460); a multiset, with
at most 3 parents, takes 3F.  W_i rounds g once from the exact V_() and
each product step once, damped by 1/3, so a pair's sum or difference
carries at most (2 + 3)/2 = 5/2 units and each entry of W_i at most 5,
under 8 in modulus.  On the last layer that error e reaches a node as
sum_m S_p,m e_m, at most 8 ||S_p||_1 per parent with ||S_p||_1 =
sum_m |S_p,m|, and the shift adds one unit.  By Cauchy ||S_p||_1 <=
3 max_{|v| <= 3/2} |S_p(v)|; measured, it stays below 8.2 for every node
of size 7 of either table, and below 15 for every multiset of size <= 13
(5.3, 11.6 and 14.7), on the three paths below.  So a multiset of the last
layer takes at most 3 * 8 * 15 + 1 < 2^8.5 fresh units per segment, less
than 3F, and a word at depth 8 at most 8 * 8.2 + 1 < 2^6.1, less than F.
It has no children, so that error reaches the table unchanged, and the
parents' own errors pass through W_i like any input error.  An error of
node c' then reaches node c through the exact transport over the rest of
the path: for a multiset a signed sum over the words with letter counts
c - c', for a word the one word w[k:] with c' = w[:k].  With Lambda_i the
integral of |f_i| along the path, the iterated integrals of the |f_i|
over the words with counts m sum to prod_i Lambda_i^(m_i) / m_i! (the
shuffle identity again), so the inherited error of c over all c' <= c and
S segments is at most S 3F prod_i E_(c_i)(Lambda_i),
E_n(x) = sum_{m <= n} x^m / m! < e^x, and that of a word, whose prefixes
have distinct counts, at most a third of it.  On the path to 1 at pi/4,
S = 2 and Lambda = (pi/2, 1.76, pi), sum Lambda < 6.5, so the bound S 3F
e^6.5 is below 2^20.2 units at T = 133 at every depth (2^18.6 for a
word), and below 2^23 for T <= 1000.  The bound grows as phi nears 0 or
pi/2.  At T = 133 it stays below 2^24 up to depth 14 on the path to i at
phi = 1.2 (S = 3, Lambda = (2.4, pi, 3.35)), and up to depth 10 on the
path to 1 at phi = 0.3 (S = 4, Lambda = (2.54, 3.78, pi)).  There
``_EXTRA_BITS = 24`` keeps the kernel's own rounding below one unit of the
working precision.  Measured with no extra bits at 50 working digits
(T = 133), against the same kernel with 120 extra bits, sigma lost at most
8.7 bits at depth 10 and 8.8 at depth 14 on the path to 1 at pi/4, 9.8
bits at depth 8 and 10.5 at depth 14 on the path to i at 1.2, and 9.5
bits at depth 8 on the path to 1 at 0.3.  The keys of the last layer lost
up to 0.4 bits more than the others (8.5, 9.4 and 9.1 bits at depth 10,
8 and 8).  With 24 extra bits no sigma moved by more than 2^-12 of a unit
at depth 10 or 2^-9 at depth 14.  The words of a depth-8 table lost at
most 8.2, 9.3 and 9.7 bits on the same three paths with no extra bits
(8.0, 9.2 and 9.7 on the last layer), and with 24 extra bits none moved by
more than 2^-14.5 of a unit.  Every integer the one-list kernel forms is,
one for one, the non-zero part of what a kernel on (re, im) pairs of
lists forms on the same segment (that kernel's other part is exactly 0),
so these budgets and measurements hold for it unchanged.

Quadrature oracle.  ``gauss_legendre_rule`` and ``_first_level`` run on
integers of their own at scale 2^P, P = working bits +
``_QUADRATURE_EXTRA_BITS``, and share nothing with the transport kernel.
The rule's nodes and weights are rounded once to ``mpf``; the levels stay
integers, and each word is one exact sum or dot of them, rounded once to
``mpc``.  The budgets count the kernels' own roundings, in units of 2^-P.

* Rule.  A step of the Legendre recurrence j P_j = (2j - 1) x P_{j-1} -
  (j - 1) P_{j-2} rounds at most 3 units (one shift, scaled by less than 2,
  and one ``//``).  At x = cos(theta) a unit error at step i reaches P_n
  scaled by i |P_n Q_{i-1} - Q_n P_{i-1}| <= (4 / (pi sin(theta))) (i/n)^(1/2),
  since both Legendre functions are at most (2 / (pi j sin(theta)))^(1/2) in
  modulus, so P_n carries at most 2.5 n / sin(theta) units.  At the
  outermost root of n = 80, sin(theta) is about 2.4/n, which gives under
  2^13 units.  A node moves by that error divided by |P_n'| > 1.  A weight
  2 (1 - x^2) / (n (x P_n - P_{n-1}))^2 has no division by the small
  x^2 - 1.  Its relative error is twice that of P_{n-1}, which is above
  0.0156 at every root of P_80, plus 1/(1 - x^2) < 2^10.1 units from
  rounding 1 - x^2, so under 2^20 units in all.
* First level.  On the path to 1 or to i every node z and every inner node
  t h_l keeps |z^2 - p^2| >= delta = min(sin(phi), cos(phi)) from both pole
  pairs, and z^2 is real, so p2 = -conj p1 gives u2 = conj u1 (Schwarz
  reflection).  Only u1 = 1/(z^2 - p1^2) is computed, by one ``//`` of
  2^(3P) by the exact norm of z^2 - p1^2, which carries about 6 units from
  rounding z^2 and p1^2; so u1 and its conjugate are off by at most
  6/delta^2 + 4 units (p2 is exactly -conj p1 on the integers).  As floor
  is not symmetric under negation, the conjugates are within one unit of
  entries computed from conj(p1^2), and within 3 (measured, phi = 0.3) of
  ones from p2^2.  The grid u1(top^2 h_l^2 h_m^2) is symmetric in the outer
  node l and the inner node m, so it is filled for l <= m only, n (n + 1)/2
  divisions (3 240 at n = 80; both pairs took 6 480), entry (m, l) taking
  z^2 rounded as (top^2 h_l^2) h_m^2.  The sums A1 = sum_l w_l u1 and
  Im sum_l w_l h_l u1 are exact with sum w_l = 1 and rounded once; p2's
  are conjugates, so A2 = conj A1 and B is 2i times the second.  The
  inner integrals 2 t^2 B and 2 t (p1 A1 -+ p2 A2) and the weighted forms
  carry at most 4 (6/delta^2 + 5) + 8 units, below 2^9 for delta >= 0.29
  (phi in [0.3, 1.27]).

``_QUADRATURE_EXTRA_BITS = 24`` thus keeps both kernels' own rounding below
2^-4 of a unit of the working precision for n <= 80.  Measured at 40 and
260 working digits with no extra bits, the 80-point rule lost 3 bits (7.6
to 8.4 units of the working precision) and the first levels at pi/6 and
1.2 up to 275 units against the kernel with 120 extra bits; with 24, the
rule is within 0.5 units of a reference 30 digits up, the levels 1.1e-5.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, sub
from pathlib import Path

import mpmath

from .precision import PrecisionConfig, from_fixed_pair, to_fixed_pair
from .words import Word, format_word, parse_word

try:  # CPython's own SHA-256; importing hashlib would map OpenSSL, ~4 MB of RSS
    from _sha2 import sha256          # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256    # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

_CACHE_VERSION = 4
_EXTRA_BITS = 24     # derived in the rounding budget of the module docstring
_QUADRATURE_EXTRA_BITS = 24    # the quadrature oracle's own, derived likewise
_ENDPOINTS = ("1", "i")


# ---------------------------------------------------------------------------
# phi parsing
# ---------------------------------------------------------------------------

def parse_phi(text, cfg: PrecisionConfig):
    """Evaluate an exact phi description at working precision.

    Accepts "pi", "pi/4", "3*pi/8" or a decimal string such as "0.3";
    never a machine float, so nothing is silently truncated to 53 bits.
    """
    ctx = cfg.context
    if isinstance(text, (int, mpmath.mpf)) or type(text) is float:
        raise TypeError("phi must be given as an exact string (e.g. 'pi/4' or '0.3')")
    s = str(text).strip().replace(" ", "")
    if "pi" in s:
        frac = _pi_fraction(s)
        value = ctx.pi * frac.numerator / frac.denominator
    else:
        value = ctx.mpf(s)
    if not (0 < value < ctx.pi / 2):
        raise ValueError(f"phi = {s} must lie strictly between 0 and pi/2")
    return value


def _pi_fraction(s: str) -> Fraction:
    """The rational q of a spaceless description "q*pi", "pi/d" or "n*pi/d"."""
    num, _, den = s.partition("pi")
    num = num.rstrip("*")
    den = den.lstrip("/")
    return Fraction(int(num) if num and num != "+" else (-1 if num == "-" else 1),
                    int(den) if den else 1)


def canonical_phi(text) -> str:
    """One spelling per phi description, for cache file names and headers.

    Rational multiples of pi become "n*pi/d" in lowest terms, with n and d
    left out when they are 1: "1*pi/4", " pi / 4 " and "2*pi/8" all give
    "pi/4".  Decimals are kept as written, without spaces.
    """
    s = str(text).strip().replace(" ", "")
    if "pi" not in s:
        return s
    frac = _pi_fraction(s)
    label = "pi" if frac.numerator == 1 else f"{frac.numerator}*pi"
    return label if frac.denominator == 1 else f"{label}/{frac.denominator}"


def is_pi_over_4(text, cfg: PrecisionConfig) -> bool:
    """Whether the phi description (validated by ``parse_phi``) is pi/4."""
    return abs(parse_phi(text, cfg) - cfg.context.pi / 4) <= cfg.eps(2)


def phi_slug(text: str) -> str:
    """Filesystem-safe canonical form of a phi string."""
    return canonical_phi(text).replace("*", "x").replace("/", "_over_")


# Coefficient of 1/(z - p_k) in the three surface 1-forms (rows: form 1, 2, 3).
FORM_COEFFS = ((1, -1, 1, -1),
               (1, -1, -1, 1),
               (1, 1, -1, -1))


def punctures(phi, cfg: PrecisionConfig) -> tuple:
    """The four unit-circle branch points; phi strictly between 0 and pi/2."""
    ctx = cfg.context
    phiv = ctx.mpf(phi)
    if not (0 < phiv < ctx.pi / 2):
        raise ValueError("phi must lie strictly between 0 and pi/2")
    p1 = ctx.expjpi(phiv / ctx.pi)   # exp(i*phi) without a spurious mpf round-trip
    p2 = -ctx.conj(p1)
    return (p1, p2, -p1, -p2)


@dataclass(frozen=True)
class PunctureConfig:
    """The four simple poles e^{i phi}, -e^{-i phi} and their negatives."""

    phi_label: str
    cfg: PrecisionConfig
    phi: object = field(init=False, default=None)
    points: tuple = field(init=False, default=None)

    def __post_init__(self):
        phi = parse_phi(self.phi_label, self.cfg)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "points", punctures(phi, self.cfg))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

class OmegaTable:
    """Immutable word -> value map for one path, phi and precision."""

    __slots__ = ("cfg", "phi_label", "start", "end", "max_length", "values")

    def __init__(self, cfg: PrecisionConfig, phi_label: str, start, end,
                 max_length: int, values: dict):
        ctx = cfg.context
        self.cfg = cfg
        self.phi_label = canonical_phi(phi_label)
        self.start = ctx.mpc(start)
        self.end = ctx.mpc(end)
        self.max_length = int(max_length)
        self.values = dict(values)
        self.values[()] = ctx.mpc(1)

    def value(self, word) -> mpmath.mpc:
        word = tuple(word)
        if len(word) > self.max_length:
            raise KeyError(f"word {word} exceeds table depth {self.max_length}")
        return self.values[word]

    def words(self):
        return self.values.keys()

    @classmethod
    def constant_path(cls, cfg: PrecisionConfig, phi_label: str, point,
                      max_length: int) -> "OmegaTable":
        """Table of the constant path at ``point``: 1 on the empty word, else 0."""
        zero = cfg.context.mpc(0)
        values = {w: zero for w in _all_words(max_length) if w}
        return cls(cfg, phi_label, point, point, max_length, values)


class SignedTable:
    """Signed sums of word integrals per letter multiset, for one path, phi and precision.

    sigma_c = sum over the words w with letter counts c of (-1)^inv(w) Omega(w),
    inv(w) the number of letter pairs of w out of order, for every c with
    1 <= |c| <= ``max_length``.  Keys are non-decreasing words: (1, 1, 3) holds
    sigma_(2,0,1) and (i,) holds Omega(i).  ``engine.frame_lower`` reads
    nothing else of the word integrals.
    """

    __slots__ = ("cfg", "phi_label", "endpoint", "max_length", "values")

    def __init__(self, cfg: PrecisionConfig, phi_label: str, endpoint: str,
                 max_length: int, values: dict):
        self.cfg = cfg
        self.phi_label = canonical_phi(phi_label)
        self.endpoint = endpoint
        self.max_length = int(max_length)
        self.values = dict(values)

    def value(self, key) -> mpmath.mpc:
        key = tuple(key)
        if len(key) > self.max_length:
            raise KeyError(f"key {key} exceeds table depth {self.max_length}")
        return self.values[key]


def _all_words(max_length: int):
    out = [()]
    layer = [()]
    for _ in range(max_length):
        layer = [w + (letter,) for w in layer for letter in (1, 2, 3)]
        out.extend(layer)
    return out


def chen_compose(left: OmegaTable, right: OmegaTable) -> OmegaTable:
    """Table over the concatenated path: sum of prefix x suffix products."""
    cfg = left.cfg
    if cfg.working_digits != right.cfg.working_digits:
        raise ValueError("precision mismatch between composed tables")
    if left.phi_label != right.phi_label:
        raise ValueError("phi mismatch between composed tables")
    if abs(left.end - right.start) > cfg.eps(2) * 100:
        raise ValueError("paths do not compose: left endpoint differs from right start")
    depth = min(left.max_length, right.max_length)
    fdot, lv, rv = cfg.context.fdot, left.values, right.values
    # fdot multiplies exactly and rounds once per word
    values = {word: fdot([(lv[word[:k]], rv[word[k:]]) for k in range(len(word) + 1)])
              for word in _all_words(depth)}
    return OmegaTable(cfg, left.phi_label, left.start, right.end, depth, values)


# ---------------------------------------------------------------------------
# transport along one segment
# ---------------------------------------------------------------------------

def _segment_split(end, poles, ratio: float = 1.0 / 3.0) -> list[float]:
    """Greedy subdivision of [0, end]: half-length <= ratio * midpoint pole gap."""
    def gap(s: float) -> float:
        z = s * end
        return min(abs(z - complex(p)) for p in poles)

    cuts = [0.0]
    s = 0.0
    while s < 1.0:
        h = gap(s) * ratio
        for _ in range(8):
            h = gap(min(s + h, 1.0)) * ratio
        h *= 0.98
        while h > 1e-6 and h > gap(s + h) * ratio:
            h *= 0.9
        s_next = s + 2 * h
        if s_next >= 1.0 - 1e-12:
            cuts.append(1.0)
            break
        cuts.append(s_next)
        s = s_next
    return cuts


def _series_terms(cfg: PrecisionConfig, ratio: float = 1.0 / 3.0) -> int:
    return int((cfg.working_digits + 8) * math.log(10) / -math.log(ratio)) + 12


def _segment_ratios(cfg: PrecisionConfig, poles, z0, z1) -> tuple[list, list, int]:
    """The pole-pair ratios of the segment [z0, z1], its letter plan, and the scale 2^P.

    Returns (ratios, plan, P).  The poles fall in two pairs (k, k'): pole k'
    is the mirror image m + (h / conj h) conj(p_k - m) of pole k across the
    segment's line (m the midpoint, h the half-length).  ``ratios`` holds
    r = h/(p_k - m) of each pair's first pole k as a fixed-point pair; the
    ratio of pole k' is taken as conj(r) exactly.  ``plan`` holds per
    letter 1, 2, 3 its pair operation and its phase flip: flip 1 where the
    form gives the two poles of a pair opposite residues (the pair's
    difference, which turns a real series imaginary and an imaginary one
    real), 0 where the same (the sum), and ``add`` or ``sub`` as the second
    pair's first pole has the residue of pole 0, which is +1 in every form.
    P = working bits + ``_EXTRA_BITS``.  Raises ``ValueError`` when a pole
    lies closer than three half-lengths to the midpoint, has no mirror
    image among the poles, or a letter would take one pair's sum and the
    other pair's difference, which has no single phase.
    """
    ctx = cfg.context
    mid = (z0 + z1) / 2
    half = (z1 - z0) / 2
    rel = [p - mid for p in poles]
    margin = abs(half) * 3
    for q in rel:
        if margin > abs(q) * (1 + 1e-9):
            raise ValueError("segment too long for its pole gap; subdivision bug")
    turn = half / ctx.conj(half)
    bits = ctx.prec + _EXTRA_BITS
    rest = list(range(len(poles)))
    pairs, ratios = [], []
    while rest:
        k = rest.pop(0)
        image = turn * ctx.conj(rel[k])
        partner = next((j for j in rest if abs(rel[j] - image) <= cfg.eps(2)), None)
        if partner is None:
            raise ValueError("the segment's line is not a symmetry axis of the poles")
        rest.remove(partner)
        pairs.append((k, partner))
        with ctx.workprec(bits):
            ratios.append(to_fixed_pair(half / rel[k], bits))
    (a, a2), (b, b2) = pairs
    plan = []
    for eps in FORM_COEFFS:
        flip = int(eps[a] != eps[a2])
        if flip != (eps[b] != eps[b2]):
            raise ValueError("a letter takes one pole pair's sum and the other's difference")
        plan.append((add if eps[a] == eps[b] else sub, flip))
    return ratios, plan, bits


def _real_product(s, ratio, bits: int) -> tuple[list, list]:
    """Coefficients of 2 S(v) half/(half v - q) for a real series S:
    K_j = (K_{j-1} - 2 S_j) r, r = half/q."""
    r_re, r_im = ratio
    k_re = k_im = 0
    out_re, out_im = [], []
    for a in s:
        x = k_re - a - a
        k_re, k_im = (x * r_re - k_im * r_im) >> bits, (x * r_im + k_im * r_re) >> bits
        out_re.append(k_re)
        out_im.append(k_im)
    return out_re, out_im


def _letter_integrands(s, phase: int, ratios, plan, bits: int):
    """Per letter 1, 2, 3: (phase, coefficients) of i^phase S(v) times its form
    on the segment, for a real integer series S.

    With P(r) the product of S with pole ratio r, a pair (r, conj r) gives
    P(r) + P(conj r) = 2 Re P(r) and P(r) - P(conj r) = 2i Im P(r).  A real
    series (phase 0) runs ``_real_product``, which doubles, with r; an
    imaginary one (phase 1) with conj r, whose product 2 conj P(r) has the
    real part 2 Re P(r) of i's pair sum and the imaginary part -2 Im P(r) =
    i 2i Im P(r) of i's pair difference.  So either way a pair's sum is the
    real part of one product at the series' own phase and its difference
    the imaginary part at the other phase, and a letter (``plan``, from
    ``_segment_ratios``) adds or subtracts the same part of the two pairs'
    products.  One ``_real_product`` runs per pair.
    """
    first, second = (_real_product(s, (r_re, -r_im) if phase else (r_re, r_im), bits)
                     for r_re, r_im in ratios)
    for op, flip in plan:
        yield phase ^ flip, list(map(op, first[flip], second[flip]))


def _value_functionals(ratios, plan, bits: int, T: int):
    """Per letter 1, 2, 3: (phase, W_i), the value at v = +1 of a series'
    letter integral as a linear functional of the series.

    W_i is the transpose of one forward letter applied to V_() = (1, ..., 1),
    the value at v = +1: integration and the constant term give
    g_j = (V_{j+1} + (-1)^j V_0) // (j + 1), which is 2^(P+1) // (j + 1) at
    even j and 0 at odd j; the products, from the top down,
    H_m = (H_{m+1} - g_m) half/q from H_T = 0.
    """
    g = [(2 << bits) // (j + 1) if j % 2 == 0 else 0 for j in range(T)]
    return [(phase, part[::-1] + [0])
            for phase, part in _letter_integrands(g[::-1], 0, ratios, plan, bits)]


def _dot(s, v) -> tuple[int, int]:
    """sum_m S_m V_m of two (phase, integers) series, with no conjugation:
    (phase, integer) at the product of their scales, where i i = -1."""
    (s_phase, s_ints), (v_phase, v_ints) = s, v
    total = sum(map(mul, s_ints, v_ints))
    return s_phase ^ v_phase, -total if s_phase & v_phase else total


def _integrate(s, phase: int, ratios, plan, bits: int):
    """The forward step of one node i^phase S: per letter 1, 2, 3, the
    antiderivative of the series times the letter's form that vanishes at
    v = -1, and its value at v = +1.

    Yields (phase, series, value) on the scale of S.
    """
    for new_phase, part in _letter_integrands(s, phase, ratios, plan, bits):
        # coefficients of v^1..v^T; the top coefficient of the integrand is dropped
        c = [x // n for n, x in zip(range(1, len(part)), part)]
        # c[j] multiplies v^(j+1), so the odd powers sit at even j
        odd, even = sum(c[0::2]), sum(c[1::2])
        yield new_phase, [odd - even] + c, 2 * odd


def _phase_value(phase: int, x: int, scale: int, ctx) -> mpmath.mpc:
    """The ``mpc`` i^phase x 2^-scale, rounded once."""
    return from_fixed_pair(0, x, scale, ctx) if phase else from_fixed_pair(x, 0, scale, ctx)


def _transport_table(cfg: PrecisionConfig, phi_label: str, poles, segments,
                     max_length: int) -> OmegaTable:
    """All word integrals along consecutive straight segments [z0, z1]."""
    values = _transport(cfg, poles, segments, max_length, _word_child)
    return OmegaTable(cfg, phi_label, segments[0][0], segments[-1][1], max_length, values)


def _path(endpoint: str, phi: str, max_length: int, cfg: PrecisionConfig):
    """The poles and the segments [z0, z1] of the path from 0 to the endpoint."""
    ctx = cfg.context
    if endpoint not in _ENDPOINTS:
        raise ValueError(f"endpoint must be one of {_ENDPOINTS}, got {endpoint!r}")
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    pc = PunctureConfig(str(phi).strip(), cfg)
    end = ctx.mpc(1) if endpoint == "1" else ctx.mpc(0, 1)
    cuts = _segment_split(complex(end), [complex(p) for p in pc.points])
    segments = [(ctx.mpf(sa) * end, ctx.mpf(sb) * end if sb != 1.0 else end)
                for sa, sb in zip(cuts[:-1], cuts[1:])]
    return pc, segments


def build_table(endpoint: str = "1", phi: str = "pi/4", max_length: int = 4,
                cfg: PrecisionConfig | None = None) -> OmegaTable:
    """Transport all word integrals from 0 to the endpoint (``"1"`` or ``"i"``)."""
    cfg = cfg or PrecisionConfig()
    pc, segments = _path(endpoint, phi, max_length, cfg)
    return _transport_table(cfg, pc.phi_label, pc.points, segments, max_length)


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
    ``key`` and the sign +-1 it enters with: ``_word_child`` makes every
    word a node, with one parent, and ``_multiset_child`` every letter
    multiset, whose value is sigma.  Layer by layer over the nodes: a
    node's series is the signed sum over its parents of the parent's letter
    integral (``_integrate``), plus the node's value at the segment start,
    which the integrals leave in place at v = -1.  The nodes of size
    ``depth`` need only that value at v = +1, which is linear in the
    parent's series: one dot per parent and letter with the value
    functional W_i (``_value_functionals``).  Every series and value is one
    integer list or integer at scale 2^P with its phase, i^phase; the phase
    of a node is fixed by its letters (``_segment_ratios``' plan), so all
    its parents' terms and its start value share it.  The values stay
    integers from segment to segment and are converted once, at the end.
    """
    ctx = cfg.context
    T = _series_terms(cfg)
    start: dict = {}      # key -> (phase, its value at the segment start at scale 2^P)
    for z0, z1 in segments:
        ratios, plan, bits = _segment_ratios(cfg, poles, z0, z1)
        layer = {(): (0, [1 << bits] + [0] * T)}
        end = {}
        for _ in range(depth - 1):
            children: dict = {}     # key -> (phase, series, end value)
            for key, (phase, s) in layer.items():
                for letter, (c_phase, c, e) in zip(
                        (1, 2, 3), _integrate(s, phase, ratios, plan, bits)):
                    node, sign = child(key, letter)
                    if node not in children:
                        # the node starts as the constant of its value at the segment start
                        s0 = start.get(node, (c_phase, 0))[1]
                        children[node] = c_phase, [s0] + [0] * T, s0
                    op = add if sign > 0 else sub
                    _, a, a_end = children[node]
                    children[node] = c_phase, list(map(op, a, c)), op(a_end, e)
            layer = {node: acc[:2] for node, acc in children.items()}
            end.update((node, (acc[0], acc[2])) for node, acc in children.items())
        functionals = _value_functionals(ratios, plan, bits, T)
        last: dict = {}       # key of size depth -> (phase, its end value at scale 2^2P)
        for key, s in layer.items():
            for letter, w in zip((1, 2, 3), functionals):
                node, sign = child(key, letter)
                phase, e = _dot(s, w)
                if node not in last:
                    last[node] = phase, start.get(node, (phase, 0))[1] << bits
                op = add if sign > 0 else sub
                last[node] = phase, op(last[node][1], e)
        end.update((node, (phase, x >> bits)) for node, (phase, x) in last.items())
        start = end
    return {key: _phase_value(phase, x, bits, ctx) for key, (phase, x) in start.items()}


def build_signed_table(endpoint: str = "1", phi: str = "pi/4", depth: int = 4,
                       cfg: PrecisionConfig | None = None) -> SignedTable:
    """Transport sigma_c for every letter multiset c with 1 <= |c| <= depth
    from 0 to the endpoint (``"1"`` or ``"i"``); see the module docstring."""
    cfg = cfg or PrecisionConfig()
    pc, segments = _path(endpoint, phi, depth, cfg)
    return SignedTable(cfg, pc.phi_label, endpoint, depth,
                       _transport(cfg, pc.points, segments, depth, _multiset_child))


# ---------------------------------------------------------------------------
# Gauss-Legendre oracle
# ---------------------------------------------------------------------------

_gl_cache: dict[tuple[int, int], tuple] = {}
# (endpoint, phi value, working digits, nodes) -> first level of the quadrature
_quadrature_cache: dict[tuple, list] = {}


def gauss_legendre_rule(n: int, cfg: PrecisionConfig):
    """Nodes and weights on [-1, 1] at working precision, by Newton on integers.

    The Legendre recurrence and Newton run on integers at scale 2^P,
    P = working bits + ``_QUADRATURE_EXTRA_BITS`` (budget in the module
    docstring).  Each root starts from cos(pi (4k - 1)/(4n + 2)), stops once
    its Newton step is below ``cfg.eps()`` and then takes one more, polishing
    step.  Nodes are ascending, and each node and weight is rounded once to
    ``mpf``.
    """
    key = (n, cfg.working_digits)
    if key in _gl_cache:
        return _gl_cache[key]
    ctx = cfg.context
    bits = ctx.prec + _QUADRATURE_EXTRA_BITS
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
    _gl_cache[key] = ([ctx.mpf((x, -bits)) for x in full_nodes],
                      [ctx.mpf((w, -bits)) for w in full_weights])
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


def quadrature_oracle(word, endpoint: str, phi: str, cfg: PrecisionConfig,
                      nodes: int = 80) -> mpmath.mpc:
    """Nested Gauss-Legendre evaluation of one word integral, |word| <= 3.

    Each level uses the ``nodes``-point rule on [0, upper limit].  The first
    level (``_first_level``: the outer nodes, weight times the three forms at
    each, and the three inner integrals from 0 to each node) is kept as
    integers at scale 2^P, P = working bits + ``_QUADRATURE_EXTRA_BITS``, in
    ``_quadrature_cache``, keyed by (endpoint, phi value from ``parse_phi``,
    working digits, nodes).  The first word of length 3 at a key adds one
    level per outer node and keeps the 9 length-2 integrals from 0 to each
    outer node (``_prefix_pairs``).  Every word is then one exact integer sum
    or dot, rounded once to ``mpc``; the budget is in the module docstring.
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
    key = (endpoint, phi_value, cfg.working_digits, nodes)
    bits = ctx.prec + _QUADRATURE_EXTRA_BITS
    # [outer nodes, weighted forms, inner integrals, prefix pairs or None]
    cached = _quadrature_cache.get(key)
    if cached is None or (len(word) == 3 and cached[3] is None):
        xs, ws = gauss_legendre_rule(nodes, cfg)
        # the rule mapped to [0, 1]: nodes (x + 1)/2, weights w/2
        rule = ([(to_fixed_pair(x, bits)[0] + (1 << bits)) >> 1 for x in xs],
                [to_fixed_pair(w, bits)[0] >> 1 for w in ws])
        poles = [to_fixed_pair(p, bits) for p in punctures(phi_value, cfg)[:2]]
        if cached is None:
            end = (1 << bits, 0) if endpoint == "1" else (0, 1 << bits)
            cached = _quadrature_cache[key] = [*_first_level(end, poles, rule, bits), None]
        if len(word) == 3:
            cached[3] = _prefix_pairs(cached[0], poles, rule, bits)
    _, weighted, inner, pairs = cached
    # word[:-1] integrated from 0 to each outer node, at scale 2^((len(word) - 1) bits)
    head = ([(1, 0)] * nodes if len(word) == 1 else
            inner[word[0] - 1] if len(word) == 2 else pairs[word[:2]])
    return from_fixed_pair(*_cdot(head, weighted[word[-1] - 1]), len(word) * bits, ctx)


# ---------------------------------------------------------------------------
# on-disk cache
# ---------------------------------------------------------------------------

def default_cache_dir() -> Path:
    env = os.environ.get("LAWSONAREA_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "lawsonarea"


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


def save_table(table: SignedTable, cache_dir: Path | None = None) -> Path:
    """Write a signed table to the cache; word tables are not cached."""
    if not isinstance(table, SignedTable):
        raise TypeError(f"the cache holds signed tables only, got {type(table).__name__}")
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    cfg = table.cfg
    ctx = cfg.context
    digits = cfg.working_digits + 15
    values = {
        format_word(w): {"re": mpmath.nstr(ctx.re(v), digits),
                         "im": mpmath.nstr(ctx.im(v), digits)}
        for w, v in sorted(table.values.items())
    }
    payload = {
        "version": _CACHE_VERSION,
        "endpoint": table.endpoint,
        "phi": table.phi_label,
        "digits": cfg.target_digits,
        "guard_digits": cfg.guard_digits,
        "max_length": table.max_length,
        "sha256": _values_digest(values),
        "values": values,
    }
    path = _cache_path(cache_dir, table.endpoint, table.phi_label, table.max_length, cfg)
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


def load_table(endpoint: str, phi: str, max_length: int, cfg: PrecisionConfig,
               cache_dir: Path | None = None) -> SignedTable | None:
    """The cached signed table for exactly this request, or None on a miss.

    A file counts only if its header (version, endpoint, phi label, digits,
    guard digits, depth) matches the request, its values hash to the stored
    SHA-256, and it holds every non-decreasing key of length 1..``max_length``
    and no other.  Anything else, a missing key or unreadable JSON included,
    is a miss, which ``cached_table`` rebuilds and overwrites.
    """
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    phi_label = canonical_phi(phi)
    path = _cache_path(cache_dir, endpoint, phi_label, max_length, cfg)
    ctx = cfg.context
    expected = (_CACHE_VERSION, endpoint, phi_label, cfg.target_digits,
                cfg.guard_digits, max_length)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        header = tuple(payload[key] for key in ("version", "endpoint", "phi", "digits",
                                                "guard_digits", "max_length"))
        if header != expected or payload["sha256"] != _values_digest(payload["values"]):
            return None
        values = {parse_word(key): ctx.mpc(ctx.mpf(item["re"]), ctx.mpf(item["im"]))
                  for key, item in payload["values"].items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    # the letter multisets of size 1..L number C(L + 3, 3) - 1, so this count,
    # the length range and the order of every key leave room for exactly the full set
    if len(values) != math.comb(max_length + 3, 3) - 1 or not all(
            1 <= len(key) <= max_length and list(key) == sorted(key) for key in values):
        return None
    return SignedTable(cfg, phi_label, endpoint, max_length, values)


def cached_table(endpoint: str, phi: str, max_length: int,
                 cfg: PrecisionConfig | None = None,
                 cache_dir: Path | None = None) -> SignedTable:
    """Load a signed table from the cache or build and store it."""
    cfg = cfg or PrecisionConfig()
    table = load_table(endpoint, phi, max_length, cfg, cache_dir)
    if table is not None:
        return table
    table = build_signed_table(endpoint, phi, max_length, cfg)
    save_table(table, cache_dir)
    return table


def list_cache(cache_dir: Path | None = None) -> list[Path]:
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    if not cache_dir.exists():
        return []
    return sorted(cache_dir.glob("omega_*.json"))


def clear_cache(cache_dir: Path | None = None) -> int:
    paths = list_cache(cache_dir)
    for p in paths:
        p.unlink()
    return len(paths)
