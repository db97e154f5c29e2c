"""Words over the form alphabet {1, 2, 3}: parsing, formatting and the
shuffle product.

Words index the iterated integrals; the shuffle product turns a product of
two integral values into an integer combination of longer words, with
exact integer weights.  The letters of nested polylogarithm sums and their
stuffle product live in ``mpl``.
"""

from __future__ import annotations

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
