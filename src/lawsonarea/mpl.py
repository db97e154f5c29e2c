"""Numerical multiple polylogarithms and alternating multiple zeta values.

The nested-sum definition used throughout (note the summation convention:
the *last* index sits on the largest summation variable; the opposite
convention also exists in the literature, so callers must not mix sources
blindly):

    Li_{n_1,...,n_d}(z_1,...,z_d) = sum over 0 < k_1 < ... < k_d of
        z_1^k_1 ... z_d^k_d / (k_1^n_1 ... k_d^n_d),

convergent on |z_i ... z_d| <= 1 (all i) provided (n_d, z_d) != (1, 1).

Evaluation strategy
-------------------
Every value comes from one kernel.  The nested sum is the iterated integral
over [0, 1] with pole letters a_i = (z_i...z_d)^-1; ``li`` splits the path
at x0 (composition of iterated integrals plus reversal of the second half
under t -> 1-t) and evaluates each half as a power series at 0 whose terms
decay geometrically, like rho^j for the term ratio rho < 1 of
``_split_value``.  A zero argument zeroes every term, so such a spec is an
exact 0 without a series.  The kernel refuses a spec only when its own
rounding would exceed the budget below.  The direct nested sum
(``series_partial_sum``) and its extrapolation are kept as test oracles.
The nested sum has real coefficients, so Li(conj z) = conj Li(z) (Schwarz
reflection): ``li`` evaluates a spec whose first non-real argument lies
below the real axis as the conjugate of its mirror spec, so of each
conjugate pair of specs only the one above the axis is summed.  All-real
specs, such as the alternating MZVs of ``zeta_signed``, are summed as they
are.

Split kernel.  The first half is expanded in v = q/x0 and the second in
v = q/x1, x1 = 1 - x0, so a pole a of either half enters only through one
ratio r = x/a, rounded once, with |r| at most the term ratio, and a
series' value at the end of its half is the plain sum of its T + 1
coefficients.  Coefficients are complex numbers held as pairs of Python
integers scaled by 2^P, P = ``cfg.pole_bits``, the poles' scale.  A letter
with pole a maps coefficients F to G by G_{j+1} = (j G_j - F_j) r / (j + 1);
carrying H_j = j G_j this is the geometric product H_{j+1} = (H_j - F_j) r
(four multiplies, two shifts) and G_j = H_j // j, and the pole at 0 gives
G_j = F_j // j.  The prefix and the suffix series are each extended once
per letter, so a weight-w value costs O(w T) coefficient operations.  The
w + 1 products of prefix and suffix values are exact at scale 2^-2P, and
their sum is rounded once, to an ``mpc`` of P bits.

Magnitude: |G_{j+1}| <= (j |G_j| + |F_j|) |r| / (j + 1) gives
max |G| <= |r| max |F|, so no letter makes the integers longer than those
of the unit series.

Rounding budget, in units of 2^-P.  Each shift rounds down once, and the
recurrence damps an earlier rounding by |r|, so H_j carries at most
j sqrt(2) fresh units, which ``// j`` turns into sqrt(2), plus sqrt(2) for the
floor of the division itself: under 3 fresh units per coefficient and
letter.  An error inherited from F is damped like F itself,
max |dG| <= |r| max |dF|, so after w letters a coefficient carries at most
3w units and a half's value, a sum of T + 1 coefficients, at most
3w (T + 1); all roundings are floors, so these do not cancel.  Prefix and
suffix values are iterated integrals whose letters each contribute at most
-ln(1 - |r|), so they stay below about 1/(1 - rho), and the w + 1 products
carry at most 2 (w + 1) 3w (T + 1) / (1 - rho) units.  ``_split_value``
refuses (``DivergentSeriesError``) a spec for which this bound exceeds
2^(``POLE_EXTRA_BITS`` - 3.8) = 2^28.2 units, so on every value it returns
the kernel's own rounding stays below 2^-3.8 of a unit of the working
precision.  With 32 extra bits that admits weight 12 at
rho = 0.95 up to 358 working digits (T = 16 445), and Li_{2,1}(0.35, 0.995)
at 40 digits (rho = 0.990, T = 13 370, 2^26.5 units), but not
Li_{2,1}(0.35, 0.998) there (rho = 0.996, T = 33 403).
Measured with no extra bits on Li_{2,1} at term ratio 0.94, the kernel lost
11.3 bits at 40 digits (T = 2 168) and 13.4 bits at 250 digits
(T = 9 961); with 16 or more extra bits it lost none.  On
Li_{2,1}(0.35, 0.98), rho = 0.961, no extra bits left the value 2^11.1
units of the working precision off at 40 digits (T = 3 354) and 2^13.4
units at 250 digits (T = 15 441); on Li_{2,1}(0.35, 0.995), rho = 0.990,
2^13.2 units at 40 digits.  With 16 or 32 extra bits alike these fell only
to 2^2.0, 2^2.0 and 2^6.2 units while the poles and their images 1 - a were
rounded to the working precision, a rounding that the conditioning near the
boundary amplifies.  So every pole quantity is formed at 2^-P and rounded
once there: the arguments that ``convert_word`` builds from the punctures
(``omega.punctures``, the integers of ``omega.punctures_fixed`` at
``cfg.pole_bits`` = P, converted exactly), the tail
products, the letters a_i = 1/(z_i...z_d), the images 1 - a and the ratios
x0/a and x1/(1 - a).  ``li`` rounds the kernel's exact sum once, to 2^-P,
not to the working precision, so a signed sum of its values
(``SignedMplSum.value``) is exact until its own single rounding.  Against
the kernel 60 digits up on the same binary arguments the three values
above are now 2^-20.8, 2^-18.6 and 2^-18.8 units of the working precision
off, and 0.10, 0.07 and 0.65 units once rounded to it.

``convert_word`` turns an iterated-integral word over the surface forms
into the 4^n signed depth-n polylogarithm terms with puncture-ratio
arguments; it is a test oracle (the production path evaluates those words
by series transport instead, see :mod:`lawsonarea.omega`).  The arguments
depend only on the pole assignment and the letters only set the signs, so
the 4^n (assignment, spec) pairs are built once per (phi, n, config) and
the 9 words of length 2 at one angle share the same 16 spec objects;
``li`` keeps each value in a process-wide cache keyed by (``MplSpec``,
``PrecisionConfig``).  Conjugation permutes the four punctures
(conj p1 = -p2, conj p2 = -p1), so the 16 specs form 8 mirror pairs, and
the 12 words of length <= 2 at one angle take 10 split evaluations, not 20.

Letters.  A nested sum's index and argument form one letter Z_{n,z}
(``MplLetter``, built checked by ``letter``), and its word has weight
sum n (``word_weight``).  The product of two such sums is the stuffle
(quasi-shuffle) product of their words, ``stuffle``: a shuffle plus a term
that merges two letters into Z_{n+m,zw} (M. E. Hoffman, "Quasi-shuffle
products", J. Algebraic Combin. 11, 2000), which ``verify``'s identity
suite checks against ``li``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from collections.abc import Sequence

import mpmath
from mpmath.libmp import mpf_neg

from .omega import FORM_COEFFS, punctures
from .precision import (POLE_EXTRA_BITS, FrozenValue, PrecisionConfig, from_fixed_pair,
                        to_fixed_pair)
from .words import Word

class DivergentSeriesError(ValueError):
    """The requested polylogarithm lies outside the convergence region."""


class MplSpec(FrozenValue):
    """Index string and arguments of one multiple polylogarithm; ``li``'s memo key."""

    __slots__ = ("indices", "args")

    def __init__(self, indices: tuple[int, ...], args: tuple):
        if len(indices) != len(args):
            raise ValueError("indices and arguments must have equal depth")
        for n in indices:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"indices must be positive integers, got {n!r}")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "args", args)

    @property
    def depth(self) -> int:
        return len(self.indices)


def mpl_spec(indices: Sequence[int], args: Sequence, cfg: PrecisionConfig) -> MplSpec:
    ctx = cfg.context
    return MplSpec(tuple(int(n) for n in indices), tuple(ctx.mpc(z) for z in args))


def _conj(z, ctx):
    """conj z exactly; ``ctx.conj`` rounds to the context's precision."""
    re, im = z._mpc_
    return ctx.make_mpc((re, mpf_neg(im)))


def _tail_products(spec: MplSpec, cfg: PrecisionConfig) -> list:
    """Products z_i * z_{i+1} * ... * z_d for i = 1..d (index 0-based list),
    at the split kernel's scale."""
    ctx = cfg.context
    prods = [ctx.mpc(1)] * spec.depth
    acc = ctx.mpc(1)
    with ctx.workprec(cfg.pole_bits):
        for i in range(spec.depth - 1, -1, -1):
            acc = acc * spec.args[i]
            prods[i] = acc
    return prods


def _validate(spec: MplSpec, cfg: PrecisionConfig) -> list:
    tol = cfg.eps(4) * 1000
    prods = _tail_products(spec, cfg)
    for i, p in enumerate(prods):
        if abs(p) > 1 + tol:
            raise DivergentSeriesError(
                f"|z_{i + 1} ... z_d| = {float(abs(p)):.6f} > 1: outside convergence region")
    if spec.depth and spec.indices[-1] == 1 and abs(spec.args[-1] - 1) < tol:
        raise DivergentSeriesError("Li with (n_d, z_d) = (1, 1) diverges")
    return prods


# ---------------------------------------------------------------------------
# direct nested summation (test oracles, independent of ``li``)
# ---------------------------------------------------------------------------

def series_partial_sum(spec: MplSpec, cfg: PrecisionConfig, cutoff: int):
    """Nested-series partial sum with the outermost index k_d <= cutoff.

    Exact within rounding; a reference the tests compare ``li`` against,
    and the raw material of the extrapolation oracle below.
    """
    ctx = cfg.context
    if spec.depth == 0:
        return ctx.mpc(1)
    prefix = [ctx.mpc(1)] * (cutoff + 1)   # running C_{m-1}(k)
    for m in range(spec.depth):
        z = spec.args[m]
        n = spec.indices[m]
        out = [ctx.mpc(0)] * (cutoff + 1)
        zpow = ctx.mpc(1)
        acc = ctx.mpc(0)
        for k in range(1, cutoff + 1):
            zpow = zpow * z
            acc = acc + zpow / ctx.mpf(k) ** n * prefix[k - 1]
            out[k] = acc
        prefix = out
    return prefix[cutoff]


def series_extrapolated(spec: MplSpec, cfg: PrecisionConfig,
                        cutoff: int = 400, passes: int = 12):
    """Tail-extrapolated direct series: a slow but independent oracle.

    Tail products of modulus below 0.7 converge fast enough to sum directly
    (``series_partial_sum``, cut off where the geometric tail falls below
    the working precision), without calling ``li``.  For a unit-circle
    last argument z_d != 1 the partial-sum tail oscillates like
    z_d^K / K^{n_d}; repeated weighted differencing
    (S(K+1) - z_d S(K)) / (1 - z_d) gains roughly one power of K per pass.
    For z_d = 1 (then n_d >= 2) a power-law Richardson ladder is used.
    Intended for cross-checks at modest precision, depth 1 or 2.
    """
    ctx = cfg.context
    prods = _validate(spec, cfg)
    if spec.depth == 0:
        return ctx.mpc(1)
    maxmod = max(abs(p) for p in prods)
    if maxmod < 0.7:
        cutoff = int((cfg.working_digits + 6) * math.log(10) / -ctx.ln(maxmod)) + 10
        return series_partial_sum(spec, cfg, cutoff)
    zd = spec.args[-1]
    if abs(zd - 1) > ctx.mpf("1e-6"):
        window = passes + 1
        sums = []
        acc = series_partial_sum(spec, cfg, cutoff)
        sums.append(acc)
        # extend one term at a time past the cutoff
        for k in range(cutoff + 1, cutoff + window):
            extra = _single_term(spec, cfg, k)
            acc = acc + extra
            sums.append(acc)
        for _ in range(passes):
            sums = [(sums[i + 1] - zd * sums[i]) / (1 - zd) for i in range(len(sums) - 1)]
        return sums[0]
    # monotone tail ~ K^{1 - n_d}: Richardson on a doubling ladder
    p = spec.indices[-1] - 1
    ladder = [series_partial_sum(spec, cfg, cutoff * 2 ** j) for j in range(4)]
    for m in range(3):
        w = ctx.mpf(2) ** (p + m)
        ladder = [(w * ladder[j + 1] - ladder[j]) / (w - 1) for j in range(len(ladder) - 1)]
    return ladder[0]


def _single_term(spec: MplSpec, cfg: PrecisionConfig, k_last: int):
    """Term of the nested sum with the outermost index fixed at k_last."""
    ctx = cfg.context
    inner = MplSpec(spec.indices[:-1], spec.args[:-1])
    weight = spec.args[-1] ** k_last / ctx.mpf(k_last) ** spec.indices[-1]
    if inner.depth == 0:
        return weight
    return weight * series_partial_sum(inner, cfg, k_last - 1)


# ---------------------------------------------------------------------------
# split evaluation via the iterated-integral representation
# ---------------------------------------------------------------------------

def _integral_word(spec: MplSpec, prods, cfg: PrecisionConfig) -> list:
    """Pole letters of the integral representation: a_i = 1/prods[i], at the
    split kernel's scale, then n_i - 1 zeros."""
    word = []
    with cfg.context.workprec(cfg.pole_bits):
        for i in range(spec.depth):
            word.append(1 / prods[i])
            word.extend([0] * (spec.indices[i] - 1))
    return word


def _integrate(series: tuple, ratio, bits: int) -> tuple:
    """Series of int_0^v (series) ds/(s - 1/ratio) in v; ``ratio`` None means ds/s.

    ``series`` and the result are (re, im) lists of the v^0..v^T coefficients
    at scale 2^bits, and ``ratio`` is r = x/a at that scale.  With H_j = j G_j
    the recurrence G_{j+1} = (j G_j - F_j) r / (j + 1) is the geometric product
    H_{j+1} = (H_j - F_j) r, one shift per part, and G_j = H_j // j.  The pole
    at 0 gives G_j = F_j // j, valid because F_0 = 0 for any nonempty word.
    """
    f_re, f_im = series
    if ratio is None:
        if f_re[0] or f_im[0]:
            raise ValueError("a word may not start with the pole at 0")
        return ([0] + [c // j for j, c in enumerate(f_re[1:], 1)],
                [0] + [c // j for j, c in enumerate(f_im[1:], 1)])
    r_re, r_im = ratio
    h_re = h_im = 0
    g_re, g_im = [0], [0]
    for j, a, b in zip(range(1, len(f_re)), f_re, f_im):
        x, y = h_re - a, h_im - b
        h_re = (x * r_re - y * r_im) >> bits
        h_im = (x * r_im + y * r_re) >> bits
        g_re.append(h_re // j)
        g_im.append(h_im // j)
    return g_re, g_im


def _split_value(word: list, cfg: PrecisionConfig):
    """Iterated integral of the word along [0, 1], split at an interior point.

    Composition: sum over split points j of (prefix integral on [0, x0])
    times the suffix integral on [x0, 1]; the latter is pulled back by
    t -> 1 - t, which reverses the order, maps pole a to 1 - a and
    contributes (-1)^(suffix length).  The split x0 equalizes the two
    halves' geometric term ratios, x0/r1 = (1 - x0)/r2, where r1 is the
    pole distance from 0 and r2 from 1; the common ratio 1/(r1 + r2) stays
    below 1 because r1 >= 1 on the convergence region (within the tolerance
    of ``_validate`` it can round to 1, and the word is refused).  The
    integer kernel and its rounding budget, beyond which it refuses the
    word, are in the module docstring; the value is rounded once, to the
    kernel's scale 2^-P.
    """
    ctx = cfg.context
    k = len(word)
    if k == 0:
        return ctx.mpc(1)
    bits = cfg.pole_bits
    radius_first = min(abs(a) for a in word if a != 0)
    with ctx.workprec(bits):
        images = [1 - a for a in word]
    nonzero_images = [abs(b) for b in images if abs(b) > cfg.eps(4)]
    radius_second = min(nonzero_images + [mpmath.mpf(1)])
    ratio = float(1 / (radius_first + radius_second))
    if ratio >= 1:
        raise DivergentSeriesError(f"argument on the divergent boundary (term ratio {ratio})")
    terms = int((cfg.working_digits + 8) * math.log(10) / -math.log(ratio)) + 16
    if 6 * (k + 1) * k * (terms + 1) / (1 - ratio) > 2 ** (POLE_EXTRA_BITS - 3.8):
        raise DivergentSeriesError(
            f"argument too close to the divergent boundary (term ratio {ratio:.4f}, "
            f"{terms} terms): the rounding would exceed the kernel's budget")

    x0 = ctx.mpf(float(radius_first / (radius_first + radius_second)))
    x1 = 1 - x0
    one = 1 << bits
    with ctx.workprec(bits):
        # each half in v = q/x, where pole a enters only as r = x/a
        first = [None if a == 0 else to_fixed_pair(x0 / a, bits) for a in word]
        second = [None if abs(b) <= cfg.eps(4) else to_fixed_pair(x1 / b, bits)
                  for b in images]
    unit = ([one] + [0] * terms, [0] * (terms + 1))

    # suffix values: (-1)^(k-j) * integral over [x0, 1] of word[j:], at v = 1
    suffix_vals = [None] * k + [(one, 0)]
    series = unit
    for j in range(k - 1, -1, -1):
        series = _integrate(series, second[j], bits)
        sign = (-1) ** (k - j)
        suffix_vals[j] = (sign * sum(series[0]), sign * sum(series[1]))

    # exact products of prefix and suffix values, at scale 2^(2 bits)
    total_re, total_im = (part << bits for part in suffix_vals[0])
    series = unit
    for j in range(1, k + 1):
        series = _integrate(series, first[j - 1], bits)
        p_re, p_im = sum(series[0]), sum(series[1])
        s_re, s_im = suffix_vals[j]
        total_re += p_re * s_re - p_im * s_im
        total_im += p_re * s_im + p_im * s_re
    with ctx.workprec(bits):
        return from_fixed_pair(total_re, total_im, 2 * bits, ctx)


@functools.lru_cache(maxsize=None)
def li(spec: MplSpec, cfg: PrecisionConfig):
    """Value of the convergent nested sum, to the config's target precision.

    The value is rounded once, to the split kernel's scale 2^-P, 32 bits
    finer than the working precision (module docstring); arithmetic on it at
    the working precision rounds it as usual.

    After the mirror step below and ``_validate``, a spec with a zero
    argument is an exact 0 and every other spec runs on the split kernel,
    ``_split_value``; a spec outside that kernel's rounding budget (module
    docstring) raises ``DivergentSeriesError`` rather than losing digits.
    Memoised per (``MplSpec``, ``PrecisionConfig``), both immutable and equal by value:
    the terms of ``convert_word`` depend only on the pole assignment, so the
    words at one angle share their polylogarithms.  Errors are not cached.
    The nested sum has real coefficients, so Li(conj z) = conj Li(z)
    (Schwarz reflection): a spec whose first non-real argument has a
    negative imaginary part is the conjugate of ``li`` of its mirror spec,
    all arguments conjugated exactly, which the cache then shares with the
    mirror.
    """
    ctx = cfg.context
    for z in spec.args:
        if z.imag:
            if z.imag < 0:
                mirror = MplSpec(spec.indices, tuple(_conj(a, ctx) for a in spec.args))
                return _conj(li(mirror, cfg), ctx)
            break
    prods = _validate(spec, cfg)
    if not all(prods):
        return ctx.mpc(0)   # a zero argument zeroes every term
    value = _split_value(_integral_word(spec, prods, cfg), cfg)
    with ctx.workprec(cfg.pole_bits):
        return (-1) ** spec.depth * value


# ---------------------------------------------------------------------------
# iterated-integral words -> polylogarithms (oracle for the transport tables)
# ---------------------------------------------------------------------------

class SignedMplSum:
    """Integer-signed combination of polylogarithm terms: (coefficient, ``MplSpec``) pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, MplSpec], ...]):
        self.terms = terms

    def value(self, cfg: PrecisionConfig):
        """The signed sum, accumulated exactly and rounded once."""
        ctx = cfg.context
        return ctx.mpc(ctx.fdot((coeff, li(spec, cfg)) for coeff, spec in self.terms))

    def __len__(self) -> int:
        return len(self.terms)


def convert_word(word: Word, phi, cfg: PrecisionConfig) -> SignedMplSum:
    """Expand a length-n form word into its 4^n signed depth-n MPL terms.

    Arguments are consecutive puncture ratios p_{j_2}/p_{j_1}, ...,
    1/p_{j_n}; the overall sign (-1)^n is folded into the coefficients.
    Exponential in the word length: use for |word| <= 3 cross-checks only.
    """
    n = len(word)
    if n < 1:
        raise ValueError("convert_word requires a nonempty word")
    return SignedMplSum(tuple(
        (math.prod((FORM_COEFFS[letter - 1][j] for letter, j in zip(word, assignment)),
                   start=(-1) ** n), spec)
        for assignment, spec in _assignment_specs(phi, n, cfg)))


@functools.lru_cache(maxsize=None)
def _assignment_specs(phi, n: int, cfg: PrecisionConfig) -> tuple:
    """The 4^n (pole assignment, ``MplSpec``) pairs of the length-n words at
    phi: the arguments depend only on the assignment, so they are built once
    per (phi, n, config) and the words' terms share the spec objects."""
    ps = punctures(phi, cfg)
    ones = (1,) * n
    with cfg.context.workprec(cfg.pole_bits):
        return tuple((assignment,
                      MplSpec(ones, tuple(ps[b] / ps[a]
                                          for a, b in zip(assignment, assignment[1:]))
                              + (1 / ps[assignment[-1]],)))
                     for assignment in itertools.product(range(4), repeat=n))


# ---------------------------------------------------------------------------
# letters of the nested sums and their stuffle product
# ---------------------------------------------------------------------------

class MplLetter(namedtuple("MplLetter", "n z")):
    """One letter Z_{n,z} of the nested-sum alphabet: weight n, argument z.

    z is an mpmath complex (hashable); products happen during stuffle.
    """

    __slots__ = ()

    def merged(self, other: "MplLetter") -> "MplLetter":
        return MplLetter(self.n + other.n, self.z * other.z)


def letter(n: int, z) -> MplLetter:
    if n < 1:
        raise ValueError(f"letter weight must be a positive integer, got {n}")
    if z == 0:
        raise ValueError("letter argument must be nonzero")
    return MplLetter(n, z)


LetterWord = tuple[MplLetter, ...]


def stuffle(w1: Sequence[MplLetter], w2: Sequence[MplLetter]) -> dict[LetterWord, int]:
    """Stuffle (quasi-shuffle) product of two letter sequences.

    Recursion: interleave like a shuffle, plus a third term that stuffs the
    two leading letters into a single merged letter.
    """
    w1 = tuple(w1)
    w2 = tuple(w2)
    if not w1:
        return {w2: 1}
    if not w2:
        return {w1: 1}
    out: dict[LetterWord, int] = {}

    def _acc(prefix: MplLetter, combo: dict[LetterWord, int]) -> None:
        for word, mult in combo.items():
            key = (prefix,) + word
            out[key] = out.get(key, 0) + mult

    _acc(w1[0], stuffle(w1[1:], w2))
    _acc(w2[0], stuffle(w1, w2[1:]))
    _acc(w1[0].merged(w2[0]), stuffle(w1[1:], w2[1:]))
    return out


def word_weight(word: Sequence[MplLetter]) -> int:
    return sum(l.n for l in word)


# ---------------------------------------------------------------------------
# alternating multiple zeta values
# ---------------------------------------------------------------------------

def zeta_signed(indices: Sequence[int], signs: Sequence[int], cfg: PrecisionConfig):
    """Alternating multiple zeta value: the nested sum with sign twists.

    ``zeta_signed((1, 1, 3), (1, 1, -1))`` is the depth-3 value whose last
    index carries the sign -1 (often written with a bar over the 3).
    """
    if len(indices) != len(signs):
        raise ValueError("indices and signs must have equal length")
    for s in signs:
        if s not in (1, -1):
            raise ValueError(f"signs must be +1 or -1, got {s!r}")
    if indices and indices[-1] == 1 and signs[-1] == 1:
        raise DivergentSeriesError("trailing index 1 with sign +1 diverges")
    ctx = cfg.context
    spec = MplSpec(tuple(int(n) for n in indices),
                   tuple(ctx.mpc(s) for s in signs))
    return li(spec, cfg)
