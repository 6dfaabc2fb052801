"""One typed reader for the JSON input dialects.

Every dialect parser reads keys and JSON value kinds through a ``Reader``
bound to the dialect's own exception type, so a malformed input ends in
that error (exit 1 with an envelope at the command line), never in a raw
``KeyError``, ``ValueError`` or ``TypeError``.  A boolean is neither a
number nor an integer, and an integer kind rejects ``2.5`` and ``2.0``.
"""

from __future__ import annotations

from typing import Mapping

_JSON_KINDS = {
    "object": Mapping,
    "list": list,
    "string": str,
    "number": (int, float),
    "integer": int,
}


class Reader:
    """Typed reads that raise ``error`` with the path of the bad value."""

    def __init__(self, error: type[Exception]) -> None:
        self.error = error

    def typed(self, where: str, value, kind: str):
        """Return ``value`` if it has the JSON ``kind``."""
        if isinstance(value, _JSON_KINDS[kind]) and not isinstance(value, bool):
            return value
        raise self.error(f"{where}: expected {kind}, got {type(value).__name__}")

    def key(self, where: str, raw: Mapping, key: str, kind: str, default=None):
        """Read ``raw[key]`` as a ``kind``; required unless a ``default`` is given."""
        if key not in raw:
            if default is None:
                raise self.error(f"{where}: missing key {key!r}")
            return default
        return self.typed(f"{where}.{key}", raw[key], kind)

    def numbers(self, where: str, raw: Mapping, key: str, default=None) -> dict[str, float]:
        """Read ``raw[key]`` as an object of numbers, made floats; required
        unless a ``default`` is given."""
        values = self.key(where, raw, key, "object", default)
        return {k: float(self.typed(f"{where}.{key}.{k}", v, "number")) for k, v in values.items()}
