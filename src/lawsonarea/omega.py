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
A nested Gauss-Legendre quadrature provides an independent check for
short words.

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
segment, and take their constants at the end.  ``chen_compose`` glues
tables of consecutive paths on the same integers, for the tests and the
demos; the transport itself never calls it.

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

import functools
import json
import math
import os
import re
import tempfile
from itertools import product, repeat
from operator import add, floordiv, mul, rshift, sub
from pathlib import Path

from .precision import (POLE_EXTRA_BITS, Dyadic, PrecisionConfig, cis_fixed, from_fixed_pair,
                        pi_fixed, to_fixed_pair)
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

    @classmethod
    def constant_path(cls, cfg: PrecisionConfig, phi_label: str, point,
                      max_length: int) -> "OmegaTable":
        """Table of the constant path at ``point``, an (re, im) integer pair at
        ``cfg.pole_bits``: 1 on the empty word, else 0."""
        return cls(cfg, phi_label, (point, point), max_length,
                   {w: (0, 0 if w else 1 << cfg.fixed_bits) for w in _all_words(max_length)})


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


def _all_words(max_length: int) -> list:
    """Every word of length 0..max_length, shortest first, each length in lexicographic order."""
    return [w for n in range(max_length + 1) for w in product((1, 2, 3), repeat=n)]


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
