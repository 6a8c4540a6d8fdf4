"""Semantic validation of parsed queries against a deployment schema.

The KSpot client's "local query parser" rejects queries that reference
attributes the deployed boards cannot sense or group keys the
Configuration Panel never defined. Validation happens at the sink,
*before* dissemination — a mote never sees an invalid query.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from .ast_nodes import (
    BoolOp,
    Comparison,
    NotOp,
    Predicate,
    Query,
)

#: Pseudo-attributes every deployment exposes: the node identity and
#: the epoch timestamp (the vertical-fragmentation group key of §III-B).
BUILTIN_ATTRIBUTES = ("nodeid", "epoch")


@dataclass(frozen=True)
class Schema:
    """What a deployment can answer queries about.

    Attributes:
        sensed: Attributes the sensor boards sample (``sound``, …).
        group_keys: Cluster attributes from the Configuration Panel
            (``roomid``, ``cluster``, …) mapping nodes to regions.
        source: The single relation name (TinyDB exposes ``sensors``).
    """

    sensed: frozenset[str]
    group_keys: frozenset[str] = frozenset({"roomid"})
    source: str = "sensors"

    @classmethod
    def for_deployment(cls, sensed: "str | tuple[str, ...] | frozenset[str]",
                       group_keys: "tuple[str, ...] | frozenset[str]" = ("roomid",),
                       ) -> "Schema":
        """Convenience constructor accepting loose argument types."""
        if isinstance(sensed, str):
            sensed = (sensed,)
        return cls(sensed=frozenset(sensed), group_keys=frozenset(group_keys))

    def is_known(self, name: str) -> bool:
        """True when ``name`` is sensed, a group key, or built-in."""
        return (name in self.sensed or name in self.group_keys
                or name in BUILTIN_ATTRIBUTES)


def _check_predicate(predicate: Predicate, schema: Schema) -> None:
    if isinstance(predicate, Comparison):
        name = predicate.left.name
        if not schema.is_known(name):
            raise ValidationError(f"WHERE references unknown attribute {name!r}")
        return
    if isinstance(predicate, NotOp):
        _check_predicate(predicate.operand, schema)
        return
    if isinstance(predicate, BoolOp):
        for operand in predicate.operands:
            _check_predicate(operand, schema)
        return
    raise ValidationError(f"unsupported predicate node {predicate!r}")


def validate(query: Query, schema: Schema) -> None:
    """Raise :class:`ValidationError` unless ``query`` fits ``schema``.

    The checks mirror TinyDB's catalog validation plus the top-k rules
    KSpot adds (a ranking query needs exactly one ranking aggregate).
    """
    if query.source.lower() != schema.source:
        raise ValidationError(
            f"unknown relation {query.source!r}; the only relation is "
            f"{schema.source!r}"
        )
    if not query.select:
        raise ValidationError("empty select list")

    aggregates = query.aggregates
    for aggregate in aggregates:
        if aggregate.func == "COUNT" and aggregate.argument == "*":
            continue
        if aggregate.argument not in schema.sensed:
            raise ValidationError(
                f"{aggregate.func}({aggregate.argument}): "
                f"{aggregate.argument!r} is not a sensed attribute"
            )

    group_by = query.group_by
    if group_by is not None and not schema.is_known(group_by):
        raise ValidationError(f"GROUP BY references unknown attribute {group_by!r}")

    for column in query.plain_columns:
        if column.name == "*":
            if query.is_top_k:
                raise ValidationError("SELECT * cannot be ranked; name columns")
            continue
        if group_by is not None:
            if column.name != group_by:
                raise ValidationError(
                    f"column {column.name!r} must appear in GROUP BY or an "
                    f"aggregate"
                )
        elif not schema.is_known(column.name):
            raise ValidationError(f"unknown column {column.name!r}")

    if query.is_top_k:
        if len(aggregates) == 0 and group_by is not None:
            raise ValidationError(
                "a grouped TOP-K query needs an aggregate to rank by"
            )
        if len(aggregates) > 1:
            raise ValidationError(
                "TOP-K ranks by exactly one aggregate; "
                f"got {len(aggregates)}"
            )
        if len(aggregates) == 0:
            sensed_selected = [c.name for c in query.plain_columns
                               if c.name in schema.sensed]
            if len(sensed_selected) != 1:
                raise ValidationError(
                    "an ungrouped TOP-K query must select exactly one "
                    "sensed attribute to rank nodes by"
                )

    if not aggregates and not any(c.name in schema.sensed
                                  for c in query.plain_columns):
        raise ValidationError(
            "a query needs an aggregate or a sensed attribute to "
            "evaluate; select one (e.g. AVG(sound))"
        )

    if group_by == "epoch":
        if query.history is None:
            raise ValidationError(
                "GROUP BY epoch ranks time instances and requires "
                "WITH HISTORY {interval}"
            )
        if not query.is_top_k:
            raise ValidationError(
                "GROUP BY epoch is only supported for TOP-K queries"
            )

    if query.where is not None:
        _check_predicate(query.where, schema)

    if query.epoch is not None and query.epoch.seconds <= 0:
        raise ValidationError("EPOCH DURATION must be positive")
    if query.history is not None and query.history.seconds <= 0:
        raise ValidationError("WITH HISTORY interval must be positive")
    if query.lifetime is not None and query.lifetime.seconds <= 0:
        raise ValidationError("LIFETIME must be positive")
