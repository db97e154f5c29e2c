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
Arguments well inside the polydisk are summed directly (the nested sum is
geometric and a prefix-sum recursion makes the cost linear in the cutoff).
On or near the unit circle the series crawls, so we switch to the iterated
integral representation over [0, 1] with pole letters a_i = (z_i...z_d)^-1,
split the path at 1/2 (composition of iterated integrals plus reversal of
the second half under t -> 1-t), and evaluate each half as a power series
at 0 whose terms decay at least like 2^-j.  Each letter extends the series
through an O(T) recurrence, so a weight-w value costs O(w^2 T) coefficient
operations.

``convert_word`` turns an iterated-integral word over the surface forms
into the 4^n signed depth-n polylogarithm terms with puncture-ratio
arguments; it is a test oracle (the production path evaluates those words
by series transport instead, see :mod:`lawsonarea.omega`).  The arguments
depend only on the pole assignment and the letters only set the signs, so
the 9 words of length 2 at one angle share the same 16 specs; ``li`` keeps
each value in a process-wide cache keyed by (``MplSpec``, ``PrecisionConfig``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import mpmath

from .precision import PrecisionConfig
from .words import Word

# Coefficient of 1/(z - p_k) in the three surface 1-forms (rows: form 1, 2, 3).
FORM_COEFFS = ((1, -1, 1, -1),
               (1, -1, -1, 1),
               (1, 1, -1, -1))

_DIRECT_SERIES_LIMIT = 0.70   # largest partial-product modulus for direct summation
_SPLIT_RATIO_LIMIT = 0.95     # refuse split evaluation beyond this term ratio


class DivergentSeriesError(ValueError):
    """The requested polylogarithm lies outside the convergence region."""


@dataclass(frozen=True)
class MplSpec:
    """Index string and arguments of one multiple polylogarithm."""

    indices: tuple[int, ...]
    args: tuple

    def __post_init__(self):
        if len(self.indices) != len(self.args):
            raise ValueError("indices and arguments must have equal depth")
        for n in self.indices:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"indices must be positive integers, got {n!r}")

    @property
    def depth(self) -> int:
        return len(self.indices)

    @property
    def weight(self) -> int:
        return sum(self.indices)


def mpl_spec(indices: Sequence[int], args: Sequence, cfg: PrecisionConfig) -> MplSpec:
    ctx = cfg.context
    return MplSpec(tuple(int(n) for n in indices), tuple(ctx.mpc(z) for z in args))


def _tail_products(spec: MplSpec, cfg: PrecisionConfig) -> list:
    """Products z_i * z_{i+1} * ... * z_d for i = 1..d (index 0-based list)."""
    ctx = cfg.context
    prods = [ctx.mpc(1)] * spec.depth
    acc = ctx.mpc(1)
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
    if spec.depth:
        if spec.args[-1] == 0:
            raise DivergentSeriesError("last argument must be nonzero")
        if spec.indices[-1] == 1 and abs(spec.args[-1] - 1) < tol:
            raise DivergentSeriesError("Li with (n_d, z_d) = (1, 1) diverges")
    return prods


# ---------------------------------------------------------------------------
# direct nested summation (arguments inside the polydisk)
# ---------------------------------------------------------------------------

def series_partial_sum(spec: MplSpec, cfg: PrecisionConfig, cutoff: int):
    """Nested-series partial sum with the outermost index k_d <= cutoff.

    Exact within rounding; the workhorse for small arguments and the raw
    material of the extrapolation oracle below.
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

    For a unit-circle last argument z_d != 1 the partial-sum tail oscillates
    like z_d^K / K^{n_d}; repeated weighted differencing
    (S(K+1) - z_d S(K)) / (1 - z_d) gains roughly one power of K per pass.
    For z_d = 1 (then n_d >= 2) a power-law Richardson ladder is used.
    Intended for cross-checks at modest precision, depth 1 or 2.
    """
    ctx = cfg.context
    prods = _validate(spec, cfg)
    if spec.depth == 0:
        return ctx.mpc(1)
    if max(abs(p) for p in prods) < _DIRECT_SERIES_LIMIT:
        return li(spec, cfg)
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

def _integral_word(spec: MplSpec, prods) -> list:
    """Pole letters of the integral representation: a_i then n_i - 1 zeros."""
    word = []
    for i in range(spec.depth):
        word.append(1 / prods[i])
        word.extend([0] * (spec.indices[i] - 1))
    return word


def _extend_series(coeffs: list, pole, ctx) -> list:
    """Series of int_0^q (previous word) dt/(t - pole), pole 0 meaning dt/t.

    coeffs[j] is the q^j coefficient; output has the same length.  Uses
    g_{j+1} = (j g_j - f_j) / (pole (j+1)) for an off-path pole, and
    g_j = f_j / j for the pole at 0 (valid because f_0 = 0 for any
    nonempty prefix word).
    """
    T = len(coeffs) - 1
    out = [ctx.mpc(0)] * (T + 1)
    if pole == 0:
        if abs(coeffs[0]) != 0:
            raise ValueError("a word may not start with the pole at 0")
        for j in range(1, T + 1):
            out[j] = coeffs[j] / j
        return out
    for j in range(T):
        out[j + 1] = (j * out[j] - coeffs[j]) / (pole * (j + 1))
    return out


def _eval_series(coeffs: list, q, ctx):
    total = ctx.mpc(0)
    for c in reversed(coeffs):
        total = total * q + c
    return total


def _split_value(word: list, cfg: PrecisionConfig):
    """Iterated integral of the word along [0, 1], split at an interior point.

    Composition: sum over split points j of (prefix integral on [0, x0])
    times the suffix integral on [x0, 1]; the latter is pulled back by
    t -> 1 - t, which reverses the order, maps pole a to 1 - a and
    contributes (-1)^(suffix length).  The split x0 equalizes the two
    halves' geometric term ratios, x0/r1 = (1 - x0)/r2, where r1 is the
    pole distance from 0 and r2 from 1; the common ratio 1/(r1 + r2) stays
    below 1 because r1 >= 1 on the convergence region.
    """
    ctx = cfg.context
    k = len(word)
    if k == 0:
        return ctx.mpc(1)
    radius_first = min(abs(a) for a in word if a != 0)
    images = [1 - a for a in word]
    nonzero_images = [abs(b) for b in images if abs(b) > cfg.eps(4)]
    radius_second = min(nonzero_images + [mpmath.mpf(1)])
    ratio = float(1 / (radius_first + radius_second))
    if ratio > _SPLIT_RATIO_LIMIT:
        raise DivergentSeriesError(
            f"argument too close to the divergent boundary (term ratio {ratio:.3f})")
    terms = int((cfg.working_digits + 8) * math.log(10) / -math.log(ratio)) + 16

    x0 = ctx.mpf(float(radius_first / (radius_first + radius_second)))
    x1 = 1 - x0
    unit = [ctx.mpc(0)] * (terms + 1)
    unit[0] = ctx.mpc(1)

    # suffix values: S_val[j] = (-1)^(k-j) * integral over [x0, 1] of word[j:]
    suffix_vals = [None] * (k + 1)
    suffix_vals[k] = ctx.mpc(1)
    series = unit
    for j in range(k - 1, -1, -1):
        img = images[j]
        series = _extend_series(series, 0 if abs(img) <= cfg.eps(4) else img, ctx)
        suffix_vals[j] = (-1) ** (k - j) * _eval_series(series, x1, ctx)

    total = suffix_vals[0]          # j = 0: empty prefix
    series = unit
    for j in range(1, k + 1):
        series = _extend_series(series, word[j - 1], ctx)
        total = total + _eval_series(series, x0, ctx) * suffix_vals[j]
    return total


@functools.lru_cache(maxsize=None)
def li(spec: MplSpec, cfg: PrecisionConfig):
    """Value of the convergent nested sum, to the config's target precision.

    Memoised per (``MplSpec``, ``PrecisionConfig``), both frozen and hashable:
    the terms of ``convert_word`` depend only on the pole assignment, so the
    words at one angle share their polylogarithms.  Errors are not cached.
    """
    ctx = cfg.context
    prods = _validate(spec, cfg)
    if spec.depth == 0:
        return ctx.mpc(1)
    maxmod = max(abs(p) for p in prods)
    if maxmod <= _DIRECT_SERIES_LIMIT:
        cutoff = int((cfg.working_digits + 6) * math.log(10) / -ctx.ln(maxmod)) + 10
        return series_partial_sum(spec, cfg, cutoff)
    word = _integral_word(spec, prods)
    try:
        return (-1) ** spec.depth * _split_value(word, cfg)
    except DivergentSeriesError:
        # poles crowding the far path end but arguments strictly inside the
        # polydisk: the plain series still converges geometrically, if slowly
        if maxmod < ctx.mpf("0.999"):
            cutoff = int((cfg.working_digits + 6) * math.log(10) / -ctx.ln(maxmod)) + 10
            return series_partial_sum(spec, cfg, cutoff)
        raise


# ---------------------------------------------------------------------------
# iterated-integral words -> polylogarithms (oracle for the transport tables)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedMplSum:
    """Integer-signed combination of polylogarithm terms."""

    terms: tuple[tuple[int, MplSpec], ...]

    def value(self, cfg: PrecisionConfig):
        ctx = cfg.context
        total = ctx.mpc(0)
        for coeff, spec in self.terms:
            total = total + coeff * li(spec, cfg)
        return total

    def __len__(self) -> int:
        return len(self.terms)


def punctures(phi, cfg: PrecisionConfig) -> tuple:
    """The four unit-circle branch points; phi strictly between 0 and pi/2."""
    ctx = cfg.context
    phiv = ctx.mpf(phi)
    if not (0 < phiv < ctx.pi / 2):
        raise ValueError("phi must lie strictly between 0 and pi/2")
    p1 = ctx.expjpi(phiv / ctx.pi)   # exp(i*phi) without a spurious mpf round-trip
    p2 = -ctx.conj(p1)
    return (p1, p2, -p1, -p2)


def convert_word(word: Word, phi, cfg: PrecisionConfig) -> SignedMplSum:
    """Expand a length-n form word into its 4^n signed depth-n MPL terms.

    Arguments are consecutive puncture ratios p_{j_2}/p_{j_1}, ...,
    1/p_{j_n}; the overall sign (-1)^n is folded into the coefficients.
    Exponential in the word length: use for |word| <= 3 cross-checks only.
    """
    n = len(word)
    if n < 1:
        raise ValueError("convert_word requires a nonempty word")
    ps = punctures(phi, cfg)
    sign_all = (-1) ** n
    terms = []
    ones = (1,) * n
    for assignment in _tuples(4, n):
        coeff = sign_all
        for letter, j in zip(word, assignment):
            coeff *= FORM_COEFFS[letter - 1][j]
        args = []
        for m in range(n - 1):
            args.append(ps[assignment[m + 1]] / ps[assignment[m]])
        args.append(1 / ps[assignment[n - 1]])
        terms.append((coeff, MplSpec(ones, tuple(args))))
    return SignedMplSum(tuple(terms))


def _tuples(base: int, length: int):
    if length == 0:
        yield ()
        return
    for rest in _tuples(base, length - 1):
        for j in range(base):
            yield rest + (j,)


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
