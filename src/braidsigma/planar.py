"""Committed words for the planar generating set a..f of P_4.

The planar generators live at a different basepoint than the standard
one, so some of them are conjugates of standard pair generators.  The
word list shipped in data/planar_words.txt takes the standard pair
generators for a, b, c, d and f, and for e the standard generator on
{2, 4} conjugated by sigma_2^2.  It is justified by the nine planar
relations, which the test suite and ``braidsigma verify`` check against
it.
"""

from __future__ import annotations

from importlib import resources

from .words import BraidWord, parse_artin_word

DATA_FILE = "planar_words.txt"


def load_planar_words() -> dict[str, BraidWord]:
    text = resources.files("braidsigma.data").joinpath(DATA_FILE).read_text()
    words = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, _, rest = line.partition(" ")
        words[label] = parse_artin_word(rest, 4)
    missing = set("abcdef") - set(words)
    if missing:
        raise ValueError(f"planar word list missing labels {sorted(missing)}")
    return words
