"""Query fuzzing: a malformed query raises a ``repro.errors`` type.

The facade's contract is "catch ``KSpotError`` and you have caught
everything". This test mutates the tokens of real workload queries —
the e11 mix (MINT and TJA), the FILA top-25 and a WHERE-filtered room
ranking — and submits each mutant through :meth:`Deployment.submit`.
A mutant may compile or be rejected; it may never escape as a raw
``IndexError``, ``KeyError``, ``TypeError`` or the like.
"""

from __future__ import annotations

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Deployment
from repro.errors import KSpotError
from repro.query.plan import Algorithm
from repro.scenarios import grid_rooms_scenario

#: (query text, routing override) — the texts the benchmarks submit.
BASES = (
    ("SELECT TOP 2 roomid, AVG(sound) FROM sensors "
     "GROUP BY roomid EPOCH DURATION 1 min", None),
    ("SELECT TOP 3 epoch, AVG(sound) FROM sensors "
     "GROUP BY epoch WITH HISTORY 10 s EPOCH DURATION 1 s", None),
    ("SELECT TOP 25 nodeid, MAX(sound) FROM sensors EPOCH DURATION 1 s",
     Algorithm.FILA),
    ("SELECT TOP 1 roomid, AVG(sound) FROM sensors "
     "WHERE sound > 50 AND nodeid <= 4 GROUP BY roomid "
     "EPOCH DURATION 1 min", None),
)

#: Replacement and insertion material: every token class the lexer
#: knows, plus identifiers and literals the schema does not.
VOCAB = (
    "SELECT", "TOP", "FROM", "WHERE", "GROUP", "BY", "HAVING", "EPOCH",
    "DURATION", "SAMPLE", "PERIOD", "WITH", "HISTORY", "LIFETIME", "AS",
    "AND", "OR", "NOT", "AVG", "AVERAGE", "MIN", "MAX", "SUM", "COUNT",
    "sound", "temperature", "roomid", "nodeid", "epoch", "sensors",
    "banana", "0", "-1", "3", "1.5", "1e9", "'C'", "'", "s", "min", "h",
    "days", ",", "(", ")", "*", ";", "=", "<", ">", "<=", ">=", "!=",
    "<>", "",
)

OPS = ("delete", "delete_span", "insert", "replace", "swap", "duplicate")

_TOKEN = re.compile(r"'[^']*'|<=|>=|!=|<>|\w+|[^\s\w]")


def tokens_of(text: str) -> list[str]:
    """Split a query into the lexemes the mutations act on."""
    return _TOKEN.findall(text)


def mutate(tokens: list[str], mutations) -> list[str]:
    """Apply ``(op, position, amount, word)`` edits in order."""
    tokens = list(tokens)
    for op, position, amount, word in mutations:
        if not tokens:
            tokens.append(word)
            continue
        at = position % len(tokens)
        if op == "delete":
            del tokens[at]
        elif op == "delete_span":
            del tokens[at:at + amount % 6 + 1]
        elif op == "insert":
            tokens.insert(at, word)
        elif op == "replace":
            tokens[at] = word
        elif op == "swap" and at + 1 < len(tokens):
            tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
        elif op == "duplicate":
            tokens.insert(at, tokens[at])
    return tokens


mutation = st.tuples(st.sampled_from(OPS), st.integers(0, 40),
                     st.integers(0, 40), st.sampled_from(VOCAB))


@settings(max_examples=300, deadline=None)
@given(base=st.integers(0, len(BASES) - 1),
       mutations=st.lists(mutation, min_size=1, max_size=4))
# Dropping the aggregate and the TOP clause leaves a query with nothing
# to evaluate: "SELECT roomid FROM sensors GROUP BY roomid ..." and
# "SELECT nodeid FROM sensors ..." must be rejected, not crash.
@example(base=0, mutations=[("delete_span", 4, 4, ""),
                            ("delete_span", 1, 1, "")])
@example(base=2, mutations=[("delete_span", 4, 4, ""),
                            ("delete_span", 1, 1, "")])
def test_mutated_queries_raise_only_repro_errors(base, mutations):
    text, algorithm = BASES[base]
    query = " ".join(mutate(tokens_of(text), mutations))
    deployment = Deployment.from_scenario(
        grid_rooms_scenario(side=3, rooms_per_axis=2, seed=base))
    try:
        deployment.submit(query, algorithm=algorithm)
    except KSpotError:
        pass


def test_pinned_mutants_are_the_aggregate_less_queries():
    """The two pinned examples above are the queries they claim."""
    assert " ".join(mutate(tokens_of(BASES[0][0]), [
        ("delete_span", 4, 4, ""), ("delete_span", 1, 1, "")])) == (
        "SELECT roomid FROM sensors GROUP BY roomid EPOCH DURATION 1 min")
    assert " ".join(mutate(tokens_of(BASES[2][0]), [
        ("delete_span", 4, 4, ""), ("delete_span", 1, 1, "")])) == (
        "SELECT nodeid FROM sensors EPOCH DURATION 1 s")
