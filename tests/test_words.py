import random
from math import comb

import pytest

from lawsonarea.mpl import letter, stuffle, word_weight
from lawsonarea.precision import PrecisionConfig
from lawsonarea.words import format_word, parse_word, shuffle

CFG = PrecisionConfig(30)
CTX = CFG.context


def test_shuffle_paper_example():
    combo = shuffle((2, 1), (3, 1))
    assert combo == {(2, 1, 3, 1): 1, (2, 3, 1, 1): 2, (3, 1, 2, 1): 1,
                     (3, 2, 1, 1): 2}


def test_shuffle_unit_and_pair():
    assert shuffle((), (1, 3)) == {(1, 3): 1}
    assert shuffle((1,), (2,)) == {(1, 2): 1, (2, 1): 1}


def test_shuffle_total_multiplicity():
    rng = random.Random(0)
    for _ in range(20):
        w1 = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 4)))
        w2 = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 4)))
        combo = shuffle(w1, w2)
        assert sum(combo.values()) == comb(len(w1) + len(w2), len(w1))
        assert all(len(w) == len(w1) + len(w2) for w in combo)


def _add_into(acc, combo, mult=1):
    for word, m in combo.items():
        acc[word] = acc.get(word, 0) + m * mult
        if acc[word] == 0:
            del acc[word]
    return acc


def test_shuffle_commutative_associative():
    rng = random.Random(1)
    for _ in range(10):
        words = [tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 3)))
                 for _ in range(3)]
        w1, w2, w3 = words
        assert shuffle(w1, w2) == shuffle(w2, w1)
        left = {}
        for word, mult in shuffle(w1, w2).items():
            _add_into(left, shuffle(word, w3), mult)
        right = {}
        for word, mult in shuffle(w2, w3).items():
            _add_into(right, shuffle(w1, word), mult)
        assert left == right


def test_stuffle_depth21_structure():
    z1, z2, z3 = (CTX.mpc("0.3"), CTX.mpc("0.4"), CTX.mpc(0, "0.5"))
    za, zb, zc = letter(2, z1), letter(3, z2), letter(4, z3)
    combo = stuffle((za, zb), (zc,))
    assert len(combo) == 5
    assert combo[(za, zb, zc)] == 1
    assert combo[(za, zc, zb)] == 1
    assert combo[(zc, za, zb)] == 1
    assert combo[(za, letter(7, z2 * z3))] == 1
    assert combo[(letter(6, z1 * z3), zb)] == 1


def test_stuffle_unit():
    w = (letter(2, CTX.mpc("0.5")),)
    assert stuffle(w, ()) == {w: 1}
    assert stuffle((), w) == {w: 1}


def test_stuffle_log_letters():
    z = letter(1, CTX.mpc(-1))
    combo = stuffle((z,), (z,))
    assert combo == {(z, z): 2, (letter(2, CTX.mpc(1)),): 1}


def test_stuffle_commutative_weight_depth():
    rng = random.Random(2)
    for _ in range(10):
        w1 = tuple(letter(rng.randint(1, 3), CTX.mpc(rng.uniform(0.1, 0.9)))
                   for _ in range(rng.randint(1, 2)))
        w2 = tuple(letter(rng.randint(1, 3), CTX.mpc(rng.uniform(0.1, 0.9)))
                   for _ in range(rng.randint(1, 2)))
        combo = stuffle(w1, w2)
        assert combo == stuffle(w2, w1)
        total_weight = word_weight(w1) + word_weight(w2)
        for word in combo:
            assert len(word) <= len(w1) + len(w2)
            assert word_weight(word) == total_weight


def test_word_text_syntax():
    assert parse_word("2,2,3") == (2, 2, 3)
    assert parse_word("") == ()
    assert format_word((1, 3)) == "1,3"
    with pytest.raises(ValueError):
        parse_word("2,5")
    with pytest.raises(ValueError):
        parse_word("2,,3")


def test_letter_validation():
    with pytest.raises(ValueError):
        letter(0, CTX.mpc(1))
    with pytest.raises(ValueError):
        letter(2, 0)
