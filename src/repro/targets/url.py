"""The URL target language (§8.2, first row of Figure 5).

The paper uses "a regular expression for matching URLs" from a Stack
Overflow answer [55]:

    https?://(www\\.)?[-a-zA-Z0-9@:%._+~#=]{2,256}\\.[a-z]{2,6}
    ([-a-zA-Z0-9@:%_+.~#?&/=]*)

We reproduce it (restricted to lowercase, as our alphabet is lowercase
ASCII): a scheme with optional ``s``, an optional ``www.`` prefix, a
host blob of at least two characters from a permissive class, a dot, a
2-6 character TLD, and an optional path of another permissive class.
The language is regular; membership is decided by the regex's own
engine matcher (``Regex.matches``) and the sampling grammar is derived
structurally from the same AST — the two views cannot drift apart.
"""

from __future__ import annotations

from repro.languages import regex as rx
from repro.languages.to_grammar import regex_to_grammar
from repro.targets.base import TargetLanguage

_LOWER = "abcdefghijklmnopqrstuvwxyz"
_DIGITS = "0123456789"
_HOST_CHARS = "-" + _LOWER + _DIGITS + "@:%._+~#="
_PATH_CHARS = "-" + _LOWER + _DIGITS + "@:%_+.~#?&/="
_TLD_CHARS = _LOWER

ALPHABET = "".join(sorted(set(_HOST_CHARS + _PATH_CHARS + "w/")))


def _repeat_at_least(cls: rx.Regex, minimum: int) -> rx.Regex:
    """cls{minimum,} as  cls^minimum cls*."""
    parts = [cls] * minimum + [rx.star(cls)]
    return rx.concat(*parts)


def _repeat_range(cls: rx.Regex, low: int, high: int) -> rx.Regex:
    """cls{low,high} as  cls^low (ε + cls)^(high-low)."""
    optional = rx.alt(rx.EPSILON, cls)
    parts = [cls] * low + [optional] * (high - low)
    return rx.concat(*parts)


def build_url_regex() -> rx.Regex:
    host_class = rx.CharClass(frozenset(_HOST_CHARS))
    path_class = rx.CharClass(frozenset(_PATH_CHARS))
    tld_class = rx.CharClass(frozenset(_TLD_CHARS))
    return rx.concat(
        rx.Lit("http"),
        rx.alt(rx.EPSILON, rx.Lit("s")),
        rx.Lit("://"),
        rx.alt(rx.EPSILON, rx.Lit("www.")),
        _repeat_at_least(host_class, 2),
        rx.Lit("."),
        _repeat_range(tld_class, 2, 6),
        rx.star(path_class),
    )


_URL_REGEX = build_url_regex()


def url_oracle(text: str) -> bool:
    """Recognize the URL language (exact regex membership)."""
    return _URL_REGEX.matches(text)


def make_target() -> TargetLanguage:
    return TargetLanguage(
        name="url",
        description="URL matcher (regular; Stack Overflow regex, §8.2)",
        oracle=url_oracle,
        grammar=regex_to_grammar(_URL_REGEX, start_name="URL"),
        alphabet=ALPHABET,
        max_sample_depth=30,
    )
