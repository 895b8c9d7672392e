"""A named, string-keyed registry with decorator-style registration.

The pluggable-component tables are instances of :class:`Registry`: the
surrogate table in :mod:`repro.bo.optimizer` and the evaluator and
search-method tables in :mod:`repro.campaign.registry`.  This module
imports nothing else from ``repro``, so any layer can define a table
without an import cycle.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["Registry"]


class Registry:
    """A named string-keyed registry with decorator-style registration."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}

    def register(self, name: str, value: Any = None):
        """Register ``value`` under ``name``; usable as a decorator."""
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.kind} name must be a non-empty string")

        def _add(obj: Any) -> Any:
            if name in self._entries and self._entries[name] is not obj:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            self._entries[name] = obj
            return obj

        return _add if value is None else _add(value)

    def get(self, name: str) -> Any:
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, entries={self.names()})"
