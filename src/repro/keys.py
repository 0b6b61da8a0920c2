"""Content keys: the one canonical encoder and the one digest.

Every content-addressed identity -- run and sim-cell keys, blob refs,
campaign fingerprints, fault-plan and query keys, skeleton refs -- is
:func:`digest` of text built with :func:`canonical_json`.  DESIGN.md's
"Content keys" table lists each one with its width and where it lives.
"""

from __future__ import annotations

import hashlib
import json


def canonical_json(value: object) -> str:
    """Deterministic JSON text of ``value`` (sorted keys).

    Raises ``TypeError`` for a value JSON cannot encode and
    ``ValueError`` for a non-finite float.
    """
    return json.dumps(value, sort_keys=True, allow_nan=False)


def digest(text: str, width: int = 64) -> str:
    """sha256 hex digest of ``text`` (UTF-8), cut to ``width`` chars.

    ``width`` is fixed per key kind, never a user option: changing it
    changes every persisted key of that kind.
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:width]
