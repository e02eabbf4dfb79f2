"""Shared oracles for the GLADE core tests."""


def xml_like_oracle(text: str) -> bool:
    """The paper's Figure 1 language: A -> (a..z + <a>A</a>)*."""

    def parse(i: int):
        while i < len(text):
            char = text[i]
            if char.isalpha() and char.islower() and char not in "<>/":
                i += 1
            elif text.startswith("<a>", i):
                inner = parse(i + 3)
                if inner is None or not text.startswith("</a>", inner):
                    return None
                i = inner + 4
            else:
                return i
        return i

    return parse(0) == len(text)


XML_ALPHABET = "abcdefghijklmnopqrstuvwxyz<>/"


class SingleLetterRuns:
    """The language of nonempty runs of one letter from the first ``n``
    letters (``aa``, ``bbb``, ...), learned from one two-letter seed per
    letter. Each seed yields one star, so phase 2 plans a merge pair for
    every two stars, and a run's length grows with ``n``."""

    def __init__(self, n: int):
        self.alphabet = "abcdefghijklmnopqrstuvwxyz"[:n]
        self.seeds = [letter * 2 for letter in self.alphabet]

    def __call__(self, text: str) -> bool:
        return bool(text) and len(set(text)) == 1 and text[0] in self.alphabet
