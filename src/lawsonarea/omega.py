"""Iterated integrals of the surface 1-forms along straight paths from 0.

A table holds the values of every word integral up to a chosen length, for
one endpoint (1 or i) and one opening angle phi.  Tables are built by power
series transport: the path is cut into segments short enough that every
simple pole stays at least three half-lengths away from the segment
midpoint, all word series for one segment are generated together by an
O(terms) per-letter recurrence, and segments are glued with the composition
rule for iterated integrals (prefix on the first path, suffix on the
second).  A nested Gauss-Legendre quadrature provides an independent check
for short words.

Transport kernel.  On a segment with midpoint m and half-length h every
word series is expanded in v = (z - m)/h, so the segment is v in [-1, 1]
and a pole q (relative to m) enters only through r = h/q, |r| <= 1/3.
Series coefficients are complex numbers held as pairs of Python integers
scaled by 2^P, P = working bits + ``_EXTRA_BITS``.  Multiplying a series by
h/(h v - q) is the recurrence K_j = (K_{j-1} - S_j) r: four integer
multiplies and two shifts per coefficient.  Every form has residues +-1, so
the letter integrands are integer sums; integration divides by j + 1 with
``//``; and the values at v = -1 and v = +1 are plain sums of the even and
odd coefficients (with E and O those sums, the child's constant term is
O - E and its value at the segment end is 2 O).  Only the word values are
converted to ``mpc``.

Magnitude bound.  If the parent coefficients satisfy |S_j| <= M, the
recurrence gives |K_j| <= (|K_{j-1}| + M)/3 <= M/2: the 1/3 decay keeps
every product coefficient below M/2, the four-pole integrand below 2M and
coefficient j of the child below 2M/j.  The child's constant term is at
most 2M(1 + ln T), so the integers grow by at most a few bits per letter
and never by a factor that depends on j.

Rounding budget, in units of 2^-P.  Each r is rounded once per segment,
which moves the pole far less than its own working-precision error.  Each
shift rounds once, and the recurrence damps an earlier rounding by
|r| <= 1/3, so a product coefficient carries at most 1 + 1/3 + 1/9 + ...
= 3/2 fresh units, the four-pole integrand at most 6, and coefficient j of
the child at most 6/j + 1 after the division.  The endpoint sums add up T coefficients, so
each letter adds at most T + 6(1 + ln T) fresh units to a word value, and a
word of length L at most L (T + 6(1 + ln T)).  (Errors inherited from the
prefix pass through the exact transport like any input error; measured,
they are not amplified.)  For L <= 16 and T <= 1000, that is working digits
up to about 460, the total is below 2^14 units: 14 extra bits keep the
kernel's own rounding below one unit of the working precision, and 10 more
keep it below 2^-10 of that unit, hence ``_EXTRA_BITS = 24``.  Measured
with no extra bits at 50 working digits (T = 133) the loss was 6.2 bits at
L = 4 and 6.5 bits at L = 8, well inside the bound.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath.libmp import to_fixed

from .mpl import FORM_COEFFS, punctures
from .precision import PrecisionConfig
from .words import Word, format_word, parse_word

try:  # CPython's own SHA-256; importing hashlib would map OpenSSL, ~4 MB of RSS
    from _sha2 import sha256          # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256    # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

_CACHE_VERSION = 3
_EXTRA_BITS = 24     # derived in the rounding budget of the module docstring
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
        num, _, den = s.partition("pi")
        num = num.rstrip("*")
        den = den.lstrip("/")
        frac = Fraction(int(num) if num and num != "+" else (-1 if num == "-" else 1),
                        int(den) if den else 1)
        value = ctx.pi * frac.numerator / frac.denominator
    else:
        value = ctx.mpf(s)
    if not (0 < value < ctx.pi / 2):
        raise ValueError(f"phi = {s} must lie strictly between 0 and pi/2")
    return value


def is_pi_over_4(text, cfg: PrecisionConfig) -> bool:
    """Whether the phi description (validated by ``parse_phi``) is pi/4."""
    return abs(parse_phi(text, cfg) - cfg.context.pi / 4) <= cfg.eps(2)


def phi_slug(text: str) -> str:
    """Filesystem-safe canonical form of a phi string."""
    return str(text).strip().replace(" ", "").replace("*", "x").replace("/", "_over_")


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
        self.phi_label = str(phi_label)
        self.start = ctx.mpc(start)
        self.end = ctx.mpc(end)
        self.max_length = int(max_length)
        self.values = dict(values)
        self.values[()] = ctx.mpc(1)

    def endpoint_name(self) -> str:
        ctx = self.cfg.context
        for name, z in (("1", ctx.mpc(1)), ("i", ctx.mpc(0, 1))):
            if abs(self.end - z) < self.cfg.eps(2) and abs(self.start) < self.cfg.eps(2):
                return name
        raise ValueError("table is not anchored at a standard endpoint")

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
    values = {}
    for word in _all_words(depth):
        total = cfg.context.mpc(0)
        for k in range(len(word) + 1):
            total += left.values[word[:k]] * right.values[word[k:]]
        values[word] = total
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
    import math
    return int((cfg.working_digits + 8) * math.log(10) / -math.log(ratio)) + 12


def _segment_table(cfg: PrecisionConfig, phi_label: str, poles, z0, z1,
                   max_length: int) -> OmegaTable:
    """All word integrals along the straight segment [z0, z1].

    Series are in v = (z - mid)/half, so the segment is v in [-1, 1]; see the
    module docstring for the fixed-point representation and its error budget.
    """
    ctx = cfg.context
    mid = (z0 + z1) / 2
    half = (z1 - z0) / 2
    rel = [p - mid for p in poles]
    margin = abs(half) * 3
    for q in rel:
        if margin > abs(q) * (1 + 1e-9):
            raise ValueError("segment too long for its pole gap; subdivision bug")
    T = _series_terms(cfg)
    bits = ctx.prec + _EXTRA_BITS
    with ctx.workprec(bits):
        ratios = [(to_fixed(r.real._mpf_, bits), to_fixed(r.imag._mpf_, bits))
                  for r in (half / q for q in rel)]
    divisors = range(1, T + 1)
    values: dict[Word, mpmath.mpc] = {}

    def geometric_product(s_re, s_im, ratio):
        # coefficients of S(v) * half/(half*v - q): K_j = (K_{j-1} - S_j) * half/q
        r_re, r_im = ratio
        k_re = k_im = 0
        out_re, out_im = [], []
        for a, b in zip(s_re, s_im):
            x, y = k_re - a, k_im - b
            k_re = (x * r_re - y * r_im) >> bits
            k_im = (x * r_im + y * r_re) >> bits
            out_re.append(k_re)
            out_im.append(k_im)
        return out_re, out_im

    def integrate(a, b, c, d):
        # coefficients of v^1..v^T of the antiderivative of a + b - c - d
        return [(w + x - y - z) // n for n, w, x, y, z in zip(divisors, a, b, c, d)]

    def descend(word, s_re, s_im):
        per_pole = [geometric_product(s_re, s_im, r) for r in ratios]
        for letter, eps in zip((1, 2, 3), FORM_COEFFS):
            # each form has residue +1 at two poles and -1 at the other two
            (p1, p2), (m1, m2) = ([k for e, k in zip(eps, per_pole) if e == sign]
                                  for sign in (1, -1))
            c_re = integrate(p1[0], p2[0], m1[0], m2[0])
            c_im = integrate(p1[1], p2[1], m1[1], m2[1])
            # c_re[j] multiplies v^(j+1), so the odd powers sit at even j
            odd_re, odd_im = sum(c_re[0::2]), sum(c_im[0::2])
            even_re, even_im = sum(c_re[1::2]), sum(c_im[1::2])
            new_word = word + (letter,)
            values[new_word] = ctx.mpc(ctx.mpf((2 * odd_re, -bits)),
                                       ctx.mpf((2 * odd_im, -bits)))
            if len(new_word) < max_length:
                # the constant term makes the child series vanish at v = -1
                descend(new_word, [odd_re - even_re] + c_re, [odd_im - even_im] + c_im)

    descend((), [1 << bits] + [0] * T, [0] * (T + 1))
    return OmegaTable(cfg, phi_label, z0, z1, max_length, values)


def build_table(endpoint: str = "1", phi: str = "pi/4", max_length: int = 4,
                cfg: PrecisionConfig | None = None) -> OmegaTable:
    """Transport all word integrals from 0 to the endpoint (``"1"`` or ``"i"``)."""
    cfg = cfg or PrecisionConfig()
    ctx = cfg.context
    if endpoint not in _ENDPOINTS:
        raise ValueError(f"endpoint must be one of {_ENDPOINTS}, got {endpoint!r}")
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    pc = PunctureConfig(str(phi).strip(), cfg)
    end = ctx.mpc(1) if endpoint == "1" else ctx.mpc(0, 1)
    cuts = _segment_split(complex(end), [complex(p) for p in pc.points])
    table = None
    for sa, sb in zip(cuts[:-1], cuts[1:]):
        z0 = ctx.mpf(sa) * end
        z1 = ctx.mpf(sb) * end if sb != 1.0 else end
        seg = _segment_table(cfg, pc.phi_label, pc.points, z0, z1, max_length)
        table = seg if table is None else chen_compose(table, seg)
    return table


# ---------------------------------------------------------------------------
# Gauss-Legendre oracle
# ---------------------------------------------------------------------------

_gl_cache: dict[tuple[int, int], tuple] = {}


def gauss_legendre_rule(n: int, cfg: PrecisionConfig):
    """Nodes and weights on [-1, 1] at working precision (Newton refinement)."""
    key = (n, cfg.working_digits)
    if key in _gl_cache:
        return _gl_cache[key]
    ctx = cfg.context
    nodes, weights = [], []
    for k in range(1, n // 2 + n % 2 + 1):
        x = ctx.cos(ctx.pi * (4 * k - 1) / (4 * n + 2))
        for _ in range(int(cfg.working_digits).bit_length() + 6):
            p0, p1 = ctx.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1)
            x = x - p1 / dp
        p0, p1 = ctx.mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1)
        w = 2 / ((1 - x * x) * dp * dp)
        nodes.append(x)
        weights.append(w)
    full_nodes = [-x for x in nodes]
    full_weights = list(weights)
    if n % 2 == 1:
        full_nodes = full_nodes[:-1]
        full_weights = full_weights[:-1]
    full_nodes = full_nodes + [x for x in reversed(nodes)]
    full_weights = full_weights + [w for w in reversed(weights)]
    _gl_cache[key] = (full_nodes, full_weights)
    return _gl_cache[key]


def quadrature_oracle(word, endpoint: str, phi: str, cfg: PrecisionConfig,
                      nodes: int = 80) -> mpmath.mpc:
    """Nested Gauss-Legendre evaluation of one word integral, |word| <= 3.

    Cost grows like nodes^len(word); this exists purely as an independent
    cross-check of the transport tables.
    """
    word = tuple(word)
    if len(word) > 3:
        raise ValueError("quadrature oracle is limited to words of length <= 3")
    cfg_q = cfg
    ctx = cfg_q.context
    pc = PunctureConfig(str(phi).strip(), cfg_q)
    end = ctx.mpc(1) if endpoint == "1" else ctx.mpc(0, 1)
    if endpoint not in _ENDPOINTS:
        raise ValueError(f"endpoint must be one of {_ENDPOINTS}")
    xs, ws = gauss_legendre_rule(nodes, cfg_q)

    def form(letter, z):
        eps = FORM_COEFFS[letter - 1]
        return sum(e / (z - p) for e, p in zip(eps, pc.points))

    def nested(letters, z_top):
        # integral from 0 to z_top of nested(letters[:-1], t) * form(letters[-1], t) dt
        if not letters:
            return ctx.mpc(1)
        scale = z_top / 2
        total = ctx.mpc(0)
        for x, w in zip(xs, ws):
            t = scale * (x + 1)
            total += w * nested(letters[:-1], t) * form(letters[-1], t)
        return total * scale

    return nested(word, end)


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
    """SHA-256 of the serialised word values, words in sorted order.

    Fed one word at a time, so no second copy of the file is built in memory.
    """
    digest = sha256()
    for key in sorted(values):
        item = values[key]
        digest.update(f"{key}:{item['re']}:{item['im']};".encode())
    return digest.hexdigest()


def save_table(table: OmegaTable, cache_dir: Path | None = None) -> Path:
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
        "endpoint": table.endpoint_name(),
        "phi": table.phi_label,
        "digits": cfg.target_digits,
        "guard_digits": cfg.guard_digits,
        "max_length": table.max_length,
        "sha256": _values_digest(values),
        "values": values,
    }
    path = _cache_path(cache_dir, table.endpoint_name(), table.phi_label,
                       table.max_length, cfg)
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
               cache_dir: Path | None = None) -> OmegaTable | None:
    """The cached table for exactly this request, or None on a miss.

    A file counts only if its header (version, endpoint, phi label, digits,
    guard digits, depth) matches the request, its values hash to the stored
    SHA-256, and it holds every non-empty word up to ``max_length`` and no
    other.  Anything else, a missing key or unreadable JSON included, is a
    miss, which ``cached_table`` rebuilds and overwrites.
    """
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    phi_label = str(phi).strip()
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
    # distinct words of length 1..L number (3^(L+1) - 3)/2, so this count and
    # the length cap leave room for exactly the full set
    lengths = [len(w) for w in values if w]
    if len(lengths) != (3 ** (max_length + 1) - 3) // 2 or max(lengths) > max_length:
        return None
    end = ctx.mpc(1) if endpoint == "1" else ctx.mpc(0, 1)
    return OmegaTable(cfg, phi_label, 0, end, max_length, values)


def cached_table(endpoint: str, phi: str, max_length: int,
                 cfg: PrecisionConfig | None = None,
                 cache_dir: Path | None = None) -> OmegaTable:
    """Load a table from the cache or build and store it."""
    cfg = cfg or PrecisionConfig()
    table = load_table(endpoint, phi, max_length, cfg, cache_dir)
    if table is not None:
        return table
    table = build_table(endpoint, phi, max_length, cfg)
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
