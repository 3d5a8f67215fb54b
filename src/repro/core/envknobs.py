"""Shared parsing for the ``REPRO_*`` environment knobs.

Every runtime knob in the repo reads the environment through these three
helpers so the tolerances are uniform: values are whitespace-stripped,
empty/unset always means "use the default", and malformed values raise a
``ValueError`` naming the variable instead of being silently coerced.

Adopters: ``REPRO_TRIALS`` / ``REPRO_WORKERS`` / ``REPRO_SERVE_CAP``
(:func:`int_knob`, via ``experiments/common.py`` and the serving layer),
``REPRO_HOTPATH`` / ``REPRO_SUITE_CONCURRENT`` / ``REPRO_OVERLAP``
(:func:`bool_knob`), ``REPRO_SERVE`` / ``REPRO_DETECTOR``
(:func:`choice_knob`), ``REPRO_LEASE_SECONDS`` /
``REPRO_FLUSH_SECONDS`` / ``REPRO_FLEET_POLL`` (:func:`float_knob`, via
the fleet layer).  The knob table with defaults and precedence rules
lives in docs/performance.md and the serving-specific knobs in
docs/serving.md.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

#: Spellings every boolean knob accepts as "off".
FALSE_VALUES = frozenset({"0", "off", "false", "no"})


def raw_knob(name: str) -> str:
    """The knob's raw value, whitespace-stripped ('' when unset)."""
    return os.environ.get(name, "").strip()


def int_knob(name: str, default: int, minimum: int = 1) -> int:
    """Read an integer knob, tolerating stray whitespace.

    Empty / unset values fall back to ``default``; non-integers and
    values below ``minimum`` raise ``ValueError`` naming the variable.

    >>> import os; os.environ["DOCTEST_KNOB_N"] = " 3 "
    >>> int_knob("DOCTEST_KNOB_N", default=1)
    3
    >>> del os.environ["DOCTEST_KNOB_N"]
    >>> int_knob("DOCTEST_KNOB_N", default=7)
    7
    """
    raw = raw_knob(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def float_knob(name: str, default: float, minimum: float = 0.0) -> float:
    """Read a float knob, tolerating stray whitespace.

    Empty / unset values fall back to ``default``; non-numbers and
    values below ``minimum`` raise ``ValueError`` naming the variable.

    >>> import os; os.environ["DOCTEST_KNOB_F"] = " 2.5 "
    >>> float_knob("DOCTEST_KNOB_F", default=1.0)
    2.5
    >>> del os.environ["DOCTEST_KNOB_F"]
    >>> float_knob("DOCTEST_KNOB_F", default=0.25)
    0.25
    """
    raw = raw_knob(name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def bool_knob(name: str, default: bool) -> bool:
    """Read a boolean knob: unset means ``default``, :data:`FALSE_VALUES`
    mean off (case-insensitive), anything else means on."""
    raw = raw_knob(name).lower()
    if not raw:
        return default
    return raw not in FALSE_VALUES


def choice_knob(name: str, default: str, choices: Sequence[str]) -> str:
    """Read an enumerated knob; unknown values raise naming the choices.

    The comparison is case-insensitive and the canonical (lower-case)
    spelling is returned, so callers can compare with ``==`` safely.
    """
    raw = raw_knob(name).lower()
    if not raw:
        return default
    if raw not in choices:
        raise ValueError(
            f"{name} must be one of {tuple(choices)}, got {raw!r}"
        )
    return raw
