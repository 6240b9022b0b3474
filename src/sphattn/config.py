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
        for name in ("d", "ell0", "L", "num_seeds", "num_mc_samples", "base_seed", "threads",
                     "eta", "sigma0", "epsilon0"):
            if getattr(self, name) is not None:
                integer = name not in ("eta", "sigma0", "epsilon0")
                setattr(self, name, _number(name, getattr(self, name), integer))
        if self.d < 2:
            raise ConfigError(f"d must be >= 2, got {self.d}")
        if self.ell0 < 0:
            raise ConfigError(f"ell0 must be >= 0, got {self.ell0}")
        if self.L is None:
            self.L = self.ell0
        if self.L < 0:
            raise ConfigError(f"L must be >= 0, got {self.L}")
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
                val = _number(name, val, True)
                if val < 1:
                    raise ConfigError(f"{name} must be >= 1, got {val}")
                setattr(self, name, val)
        if self.eta <= 0:
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if self.T != "auto":
            self.T = _number("T", self.T, True)
            if self.T < 1:
                raise ConfigError(f"T must be >= 1 or 'auto', got {self.T}")
        if self.sigma0 < 0:
            raise ConfigError(f"sigma0 must be >= 0, got {self.sigma0}")
        if self.epsilon0 is not None and self.epsilon0 <= 0:
            raise ConfigError(f"epsilon0 must be positive, got {self.epsilon0}")
        if self.num_seeds < 1:
            raise ConfigError(f"num_seeds must be >= 1, got {self.num_seeds}")
        if self.num_mc_samples < 2:
            raise ConfigError(f"num_mc_samples must be >= 2, got {self.num_mc_samples}")
        if self.channels not in ("oracle", "select"):
            raise ConfigError(f"channels must be 'oracle' or 'select', got {self.channels!r}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")

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
