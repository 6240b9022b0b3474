"""Experiment configuration: flat key-value or JSON files plus CLI overrides.

A config file is either a JSON object or lines of `key = value` (also
`key: value`), with `#` comments.  Numbers parse as int/float, comma lists
as grids, and the literal `auto` keeps automatic step-count selection.
Command-line flags carry the same keys, parse the same way, and win over
file values.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_file", "auto_steps"]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def auto_steps(n: int, eta: float, d: int, ell0: int) -> int:
    """Default step count: eta * T matched to n / d^ell0."""
    return max(1, round(n / (eta * d**ell0)))


def _parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("auto",):
        return "auto"
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(text: str):
    text = text.strip()
    if "," in text:
        return [_parse_scalar(p) for p in text.split(",") if p.strip() != ""]
    return _parse_scalar(text)


def parse_config_file(path) -> dict:
    """Read a flat key-value or JSON config file into a plain dict."""
    with open(path) as fh:
        content = fh.read()
    stripped = content.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(content)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: JSON config must be an object")
        return {str(k).replace("-", "_"): v for k, v in data.items()}
    out: dict = {}
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, val = line.partition(sep)
                break
        else:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().replace("-", "_")
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = _parse_value(val)
    return out


def _number(name: str, val, integer: bool = False):
    """A finite number val as a float, or as an int with integer (integral floats pass)."""
    if isinstance(val, numbers.Real) and not isinstance(val, bool):
        if integer and isinstance(val, numbers.Integral):
            return int(val)
        try:
            x = float(val)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x) and (not integer or x.is_integer()):
            return int(val) if integer else x
    raise ConfigError(f"{name} must be {'an integer' if integer else 'a finite number'}, "
                      f"got {val!r}")


# key: (integer, least, least excluded) for every numeric key but n, m and T;
# a least of None bounds nothing, and an excluded least is 0 ("positive")
_BOUNDS = {
    "d": (True, 2, False), "ell0": (True, 0, False), "L": (True, 0, False),
    "eta": (False, 0, True), "sigma0": (False, 0, False), "epsilon0": (False, 0, True),
    "num_seeds": (True, 1, False), "num_mc_samples": (True, 2, False),
    "base_seed": (True, None, False), "threads": (True, 1, False),
}


def _bounded(name: str, val, integer: bool, least, excluded: bool):
    """_number(name, val, integer), rejected below least, or at it when excluded."""
    x = _number(name, val, integer)
    if least is not None and (x < least or excluded and x == least):
        raise ConfigError(f"{name} must be {'positive' if excluded else f'>= {least}'}, got {x}")
    return x


@dataclass
class ExperimentConfig:
    """Everything a harness run needs; unset values fall back to defaults."""

    d: int = 0
    ell0: int = 0
    L: int | None = None
    n: object = None  # int or strictly increasing list of ints
    m: object = None  # int or strictly increasing list of ints
    eta: float = 0.5
    T: object = "auto"
    sigma0: float = 0.0
    epsilon0: float | None = None
    coeffs: list | None = None
    num_seeds: int = 10
    num_mc_samples: int = 20000
    base_seed: int = 0
    channels: str = "oracle"  # or "select"
    threads: int = 1
    out: str | None = None
    format: str = "json"

    @classmethod
    def field_names(cls) -> list:
        return [f.name for f in fields(cls)]

    @property
    def flags(self) -> list:
        """Settings that are accepted but defeat the experiment; echoed with the config."""
        # selection can never recover the target degree
        return ["L_below_target_degree"] if self.L < self.ell0 else []

    @classmethod
    def from_sources(cls, file_values: dict | None = None, overrides: dict | None = None):
        values: dict = {}
        for src in (file_values or {}, overrides or {}):
            for key, val in src.items():
                # flags is derived, but an echoed config carries it
                if val is None or key == "flags":
                    continue
                if key not in cls.field_names():
                    raise ConfigError(f"unknown config key {key!r}")
                values[key] = val
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for name, bound in _BOUNDS.items():
            if getattr(self, name) is not None:
                setattr(self, name, _bounded(name, getattr(self, name), *bound))
        if self.L is None:
            self.L = self.ell0
        if self.coeffs is None:
            self.coeffs = [1.0] * (self.ell0 + 1)
        if not isinstance(self.coeffs, list):
            self.coeffs = [self.coeffs]
        self.coeffs = [_number("coeffs", c) for c in self.coeffs]
        if len(self.coeffs) != self.ell0 + 1:
            raise ConfigError(
                f"coeffs must have ell0 + 1 = {self.ell0 + 1} entries, got {len(self.coeffs)}"
            )
        if self.coeffs[-1] == 0.0:
            raise ConfigError("top-degree coefficient must be nonzero")
        for name in ("n", "m"):
            val = getattr(self, name)
            if val is None:
                continue
            if isinstance(val, list):
                if not val:
                    raise ConfigError(f"{name} grid is empty")
                ivals = [_number(name, v, True) for v in val]
                if any(b <= a for a, b in zip(ivals, ivals[1:])):
                    raise ConfigError(f"{name} grid must be strictly increasing: {ivals}")
                if any(v < 1 for v in ivals):
                    raise ConfigError(f"{name} grid entries must be >= 1")
                setattr(self, name, ivals)
            else:
                setattr(self, name, _bounded(name, val, True, 1, False))
        if self.T != "auto":
            self.T = _number("T", self.T, True)
            if self.T < 1:
                raise ConfigError(f"T must be >= 1 or 'auto', got {self.T}")
        if self.channels not in ("oracle", "select"):
            raise ConfigError(f"channels must be 'oracle' or 'select', got {self.channels!r}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string, got {self.out!r}")

    def scalar(self, name: str) -> int:
        val = getattr(self, name)
        if val is None:
            raise ConfigError(f"config needs {name}")
        if isinstance(val, list):
            raise ConfigError(f"{name} must be a single value here, got a grid {val}")
        return int(val)

    def grid(self, name: str, min_points: int = 1) -> list:
        val = getattr(self, name)
        if val is None:
            raise ConfigError(f"config needs a {name} grid")
        vals = val if isinstance(val, list) else [int(val)]
        if len(vals) < min_points:
            raise ConfigError(f"{name} grid needs at least {min_points} points, got {vals}")
        return vals

    def steps_for(self, n: int) -> int:
        if self.T == "auto":
            return auto_steps(n, self.eta, self.d, self.ell0)
        return int(self.T)

    def echo(self) -> dict:
        """Canonical dict of every field that affects results (plus the derived flags).

        Presentation-only fields (where the report goes) stay out so reruns
        into different files still produce identical report bytes.
        """
        out = {}
        for name in self.field_names():
            if name in ("out", "format"):
                continue
            out[name] = getattr(self, name)
        out["flags"] = self.flags
        return out
