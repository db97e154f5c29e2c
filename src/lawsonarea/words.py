"""Word combinatorics: shuffle and stuffle products with exact integer weights.

Words over the form alphabet {1, 2, 3} index the iterated integrals; the
shuffle product turns a product of two integral values into an integer
combination of longer words.  Sequences of ``MplLetter`` index nested
polylogarithm sums; their product follows the stuffle recursion, which has an
extra term merging two letters into one position.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache

Word = tuple[int, ...]
LinComb = dict[Word, int]

FORM_LETTERS = (1, 2, 3)


def parse_word(text: str) -> Word:
    """Parse "2,1,3" (or "" for the empty word) into a letter tuple."""
    text = text.strip()
    if not text:
        return ()
    try:
        letters = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed word {text!r}; expected comma-separated letters")
    for letter in letters:
        if letter not in FORM_LETTERS:
            raise ValueError(f"word letter {letter} outside alphabet {FORM_LETTERS}")
    return letters


def format_word(word: Word) -> str:
    return ",".join(str(letter) for letter in word)


@lru_cache(maxsize=None)
def _shuffle_cached(w1: Word, w2: Word) -> tuple[tuple[Word, int], ...]:
    if not w1:
        return ((w2, 1),)
    if not w2:
        return ((w1, 1),)
    out: dict[Word, int] = {}
    for word, mult in _shuffle_cached(w1[1:], w2):
        key = (w1[0],) + word
        out[key] = out.get(key, 0) + mult
    for word, mult in _shuffle_cached(w1, w2[1:]):
        key = (w2[0],) + word
        out[key] = out.get(key, 0) + mult
    return tuple(sorted(out.items()))


def shuffle(w1: Sequence[int], w2: Sequence[int]) -> LinComb:
    """All order-preserving interleavings of w1 and w2 with multiplicities."""
    return dict(_shuffle_cached(tuple(w1), tuple(w2)))


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
