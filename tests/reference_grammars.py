"""Grammar combinators only the tests need."""

from __future__ import annotations

from typing import List, Sequence

from repro.languages.cfg import Grammar, Nonterminal, Production, Symbol


def grammar_union(
    grammars: Sequence[Grammar], start_name: str = "S"
) -> Grammar:
    """Combine grammars with a fresh start ``S -> S_1 | ... | S_n``.

    Nonterminals are prefixed with their component index to avoid
    collisions.
    """
    if not grammars:
        raise ValueError("grammar_union requires at least one grammar")
    start = Nonterminal(start_name)
    productions: List[Production] = []
    for index, grammar in enumerate(grammars):
        prefix = "g{}_".format(index)

        def rename(symbol: Symbol, prefix=prefix) -> Symbol:
            if isinstance(symbol, Nonterminal):
                return Nonterminal(prefix + symbol.name)
            return symbol

        for prod in grammar.productions:
            productions.append(
                Production(
                    head=rename(prod.head),
                    body=tuple(rename(s) for s in prod.body),
                )
            )
        productions.append(
            Production(head=start, body=(rename(grammar.start),))
        )
    return Grammar(start, productions)
