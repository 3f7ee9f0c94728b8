"""Tolerant environment-variable parsing shared across the runtime.

The mode knobs (``REPRO_TIER``, ``REPRO_SERVICE``, ``REPRO_POLICY``,
``REPRO_OPT``, ``REPRO_COMPILE_WORKERS``) are read at call sites deep
in the compile path, where a malformed value must never abort a kernel
build.  These helpers warn once per lookup and fall back to the
documented default instead of raising.
"""

from __future__ import annotations

import os
import warnings
from typing import Sequence

__all__ = ["env_choice", "env_int"]


def env_int(name: str, default: int, minimum: int | None = None) -> int:
    """``int(os.environ[name])`` with a warn-and-default fallback."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={raw!r}; using default {default}",
            RuntimeWarning, stacklevel=2)
        return default
    if minimum is not None and value < minimum:
        return minimum
    return value


def env_choice(name: str, choices: Sequence[str], default: str) -> str:
    """``os.environ[name]``, lower-cased, if it is one of ``choices``;
    otherwise warn (for a set but unknown value) and return
    ``default``."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    mode = raw.strip().lower()
    if mode not in choices:
        warnings.warn(
            f"ignoring unknown {name}={raw!r}; using {default!r}",
            RuntimeWarning, stacklevel=2)
        return default
    return mode
