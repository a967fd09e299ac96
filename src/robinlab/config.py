"""Experiment configuration: a flat ``key = value`` text format.

One assignment per line, full-line ``#`` comments, list values in square
brackets: ``grid = [1.1, 1.2, 1.3]``. No nesting, no sections, no quoting;
the goal is a format that diffs cleanly and parses without a dependency.
Unknown keys and duplicate keys are rejected. This module reads the text
only; the values are checked where they are held: the resolution keys by
inequalities.Resolution, the rest by inequalities.ExperimentConfig, the one
experiment spec, which `sweep` and `robinlab check` build as well.

Recognized keys (R = required):

    checks (R)    list of check names from inequalities.CHECKS
    family (R)    shape family from inequalities.FAMILIES
    grid (R)      family parameter values, nonempty
    q             exponent values, each in [1, 2]          [1.0]
    beta          boundary weights, each > 0               [1.0]
    c_factor      obstacle levels as fractions of inf u    [0.0]
    k             perturbation frequency (perturbed)       2
    n_r, n_theta  mesh resolution, >= 8 and >= 32          48, 96
    K             boundary polygon size, even, >= 64       512
    M             radial grid steps, >= 64                 4096
    n_angles      asymmetry sampling, >= 32                4096
    name          config label                             file stem
    output_dir    artifact directory                       out/<name>

Every check gauges its tolerance by recomputing both sides with n_r,
n_theta and M halved (see inequalities.Resolution).

The q = 2 endpoint parses (it is the linear eigenvalue case) but no sweep
check accepts it; requesting it is reported as a configuration error at
dispatch, before any solve. There is no eps key: the eps-regularized
boundary term is a radial-solver concern and no batch check consumes it.
"""

from __future__ import annotations

from importlib import resources

from .errors import ConfigError
from .inequalities import ExperimentConfig, Resolution

_LIST_FLOAT = ("grid", "q", "beta", "c_factor")
_LIST_STR = ("checks",)
_INT = ("k", "n_r", "n_theta", "K", "M", "n_angles")
_STR = ("family", "name", "output_dir")
_KNOWN = set(_LIST_FLOAT + _LIST_STR + _INT + _STR)
_REQUIRED = ("checks", "family", "grid")
_RESOLUTION = ("n_r", "n_theta", "M", "n_angles")
# config keys whose ExperimentConfig field has another name
_FIELDS = {"q": "q_values", "beta": "beta_values", "c_factor": "c_factors", "K": "domain_K"}


def _parse_value(key: str, raw: str, lineno: int):
    def bad(why):
        return ConfigError(f'config field "{key}" (line {lineno}): {why}')

    if key in _LIST_FLOAT or key in _LIST_STR:
        if not (raw.startswith("[") and raw.endswith("]")):
            raise bad("expected a bracketed list")
        body = raw[1:-1].strip()
        items = [t.strip() for t in body.split(",")] if body else []
        if key in _LIST_STR:
            return tuple(items)
        try:
            return tuple(float(t) for t in items)
        except ValueError:
            raise bad(f"non-numeric entry in {raw}") from None
    if key in _INT:
        try:
            return int(raw)
        except ValueError:
            raise bad(f"expected an integer, got {raw!r}") from None
    return raw


def parse_config(text: str, name: str = "config") -> ExperimentConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KNOWN:
            raise ConfigError(f'config field "{key}" (line {lineno}): unknown key')
        if key in values:
            raise ConfigError(f'config field "{key}" (line {lineno}): duplicate key')
        values[key] = _parse_value(key, raw, lineno)
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f'config field "{key}": missing required key')
    # only the keys the file sets are passed on: the dataclasses hold the defaults
    try:
        res = Resolution(**{key: values.pop(key) for key in _RESOLUTION if key in values})
    except ValueError as ex:
        raise ConfigError(f"config resolution fields: {ex}") from ex
    values.setdefault("name", name)
    return ExperimentConfig(resolution=res, **{_FIELDS.get(k, k): v for k, v in values.items()})


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise ConfigError(f"cannot read config {path}: {ex}") from ex
    import os

    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_config(text, name=stem)


def builtin_config_names() -> list:
    names = []
    for entry in resources.files("robinlab.configs").iterdir():
        if entry.name.endswith(".cfg"):
            names.append(entry.name[: -len(".cfg")])
    return sorted(names)


def builtin_config_text(name: str) -> str:
    ref = resources.files("robinlab.configs") / f"{name}.cfg"
    if not ref.is_file():
        raise ConfigError(
            f"no built-in config {name!r}; available: {builtin_config_names()}"
        )
    return ref.read_text(encoding="utf-8")


def load_builtin(name: str) -> ExperimentConfig:
    return parse_config(builtin_config_text(name), name=name)


def config_description(name: str) -> str:
    """First comment line of a built-in config, for listings."""
    for line in builtin_config_text(name).splitlines():
        line = line.strip()
        if line.startswith("#"):
            return line.lstrip("# ").strip()
        if line:
            break
    return ""
