"""Configuration documents: parsing, validation, presets, canonical form.

Configs are JSON.  Unknown keys are rejected, defaults are materialized
on parse, and serialization is canonical (sorted keys), so an emit ->
parse -> emit round trip is byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .layout import BasisLayout
from .operators import SdeModel
from .spectral import Tolerances
from .trig import FlowField, TrigField, identity_frame


class ConfigError(ValueError):
    """Invalid or inconsistent configuration document."""


_TOP_KEYS = {
    "dimension", "truncation", "theta", "alpha", "flow", "noise",
    "tolerances", "seed", "t_grid", "output", "sweep",
}
_FLOW_KEYS = {"preset", "params", "modes"}
_TOL_KEYS = {"tol_zero", "tol_pair", "tol_converge"}
_SWEEP_KEYS = {"theta", "parameter", "values"}

# each flow preset: the dimension it requires (None: any) and the params
# its flow builder reads
_PRESET_TABLE = {
    "diffusion": (None, ()),
    "drift": (None, ("c",)),
    "langevin-cos": (1, ()),
    "langevin-double": (1, ("a",)),
    "shear-2d": (2, ()),
    "abc": (3, ("A", "B", "C")),
    "random": (None, ("seed", "bandwidth", "amplitude")),
    "custom": (None, ()),
}
PRESETS = tuple(_PRESET_TABLE)

# Largest Fourier basis a config may ask for: the biggest block at the
# refined truncation N + 2 that the convergence guard assembles, and the
# mode count of a random field.  3 * 21**3 is the degree-1 block of 3-D
# N = 8, refined to N = 10.
_MAX_BASIS_SIZE = 3 * 21 ** 3


@dataclass
class ModelConfig:
    """Validated model description with all defaults applied."""

    dimension: int
    truncation: int
    theta: float
    flow: dict
    alpha: float
    noise: object
    tolerances: Tolerances
    seed: int
    t_grid: list
    output: str
    sweep: dict

    def to_dict(self):
        out = asdict(self)
        if self.sweep is None:
            del out["sweep"]
        return out

    def to_json(self):
        return canonical_json(self.to_dict())


def _plain(o):
    """``o`` with numpy scalars as Python ones and every non-finite float
    as None, so that it is written as RFC 8259 JSON (null)."""
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v) for v in o]
    if isinstance(o, (float, np.floating)):
        return float(o) if math.isfinite(o) else None
    if isinstance(o, (np.bool_, np.integer)):
        return o.item()
    return o


def canonical_json(obj):
    return json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _is_int(value, low=-math.inf):
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _is_number(value, low=-math.inf, high=math.inf):
    """A finite int or float, not a bool, in [low, high]."""
    try:
        return not isinstance(value, bool) and math.isfinite(value) and low <= value <= high
    except (TypeError, OverflowError):
        return False


def _check_modes(modes, dimension, what):
    """Validate the Fourier mode entries of a flow or noise field."""
    _require(isinstance(modes, list), f"{what} modes must be a list")
    for m in modes:
        _require(isinstance(m, dict) and set(m) == {"axis", "wavevector", "re", "im"},
                 f"{what} mode entries need axis/wavevector/re/im, got {m!r}")
        kappa = m["wavevector"]
        _require(
            _is_int(m["axis"], 1) and m["axis"] <= dimension
            and isinstance(kappa, list) and len(kappa) == dimension
            and all(map(_is_int, kappa)) and _is_number(m["re"])
            and _is_number(m["im"]) and (any(kappa) or m["im"] == 0),
            f"{what} mode {m!r} needs an axis in 1..{dimension}, {dimension} "
            "integer wavevector entries and finite re/im, im = 0 at wavevector 0",
        )


def _check_params(preset, params, dimension):
    """Validate the preset parameters that build_flow reads, and refuse
    any other."""
    _require(isinstance(params, dict), "flow params must be an object")
    reads = _PRESET_TABLE[preset][1]
    unread = sorted(set(params) - set(reads))
    _require(not unread,
             f"preset {preset!r} does not read params {unread}; it reads "
             f"{list(reads) or 'none'}")
    valid = {
        "seed": lambda v: _is_int(v, 0), "bandwidth": lambda v: _is_int(v, 1),
        "c": lambda v: isinstance(v, list) and len(v) == dimension
        and all(map(_is_number, v)),
    }
    for key in reads:
        _require(key not in params or valid.get(key, _is_number)(params[key]),
                 f"invalid {preset} parameter {key} = {params.get(key)!r}")
    if preset == "random" and "bandwidth" in params:
        modes = (2 * params["bandwidth"] + 1) ** dimension
        _require(modes <= _MAX_BASIS_SIZE,
                 f"random bandwidth {params['bandwidth']} gives {modes} modes "
                 f"in {dimension}-D, limit is {_MAX_BASIS_SIZE}")


def parse_config(text):
    """Parse and validate a JSON config document.

    Every value a builder or command reads is checked here, once, so a
    config that parses never fails later for being malformed.
    """
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past Python's digit limit, or nesting
        # past the recursion limit
        raise ConfigError(f"not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config root must be an object")
    unknown = set(raw) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    for key in ("dimension", "truncation", "theta", "flow"):
        _require(key in raw, f"missing required key {key!r}")
    dimension = raw["dimension"]
    _require(_is_int(dimension, 1) and dimension <= 3,
             f"dimension must be 1, 2 or 3, got {dimension!r}")
    truncation = raw["truncation"]
    _require(_is_int(truncation, 1),
             f"truncation must be a positive integer, got {truncation!r}")
    refined = BasisLayout(dimension, truncation).refined()
    largest = max(refined.size(k) for k in range(dimension + 1))
    _require(largest <= _MAX_BASIS_SIZE,
             f"truncation {truncation} gives a {largest}-dim block at the refined "
             f"truncation {refined.truncation}, limit is {_MAX_BASIS_SIZE}")
    theta = raw["theta"]
    _require(_is_number(theta, 0), f"theta must be nonnegative, got {theta!r}")
    alpha = raw.get("alpha", 0.5)
    _require(_is_number(alpha, 0, 1), f"alpha must lie in [0, 1], got {alpha!r}")

    flow = raw["flow"]
    _require(isinstance(flow, dict), "flow must be an object")
    unknown = set(flow) - _FLOW_KEYS
    _require(not unknown, f"unknown flow keys: {sorted(unknown)}")
    preset = flow.get("preset")
    _require(preset in PRESETS, f"unknown flow preset {preset!r}")
    want = _PRESET_TABLE[preset][0]
    _require(
        want is None or want == dimension,
        f"preset {preset!r} requires dimension {want}, config says {dimension}",
    )
    params = flow.get("params", {})
    _check_params(preset, params, dimension)
    if preset == "custom":
        _require("modes" in flow, "custom flow needs a 'modes' list")
        _check_modes(flow["modes"], dimension, "flow")
    flow = {
        "preset": preset,
        "params": dict(params),
        **({"modes": flow["modes"]} if preset == "custom" else {}),
    }

    noise = raw.get("noise", "identity")
    if noise != "identity":
        _require(isinstance(noise, list) and noise, "noise must be 'identity' or a nonempty list")
        for nf in noise:
            _check_modes(nf, dimension, "noise")

    tols = raw.get("tolerances", {})
    _require(isinstance(tols, dict), "tolerances must be an object")
    unknown = set(tols) - _TOL_KEYS
    _require(not unknown, f"unknown tolerance keys: {sorted(unknown)}")
    defaults = Tolerances()
    tols = {key: tols.get(key, getattr(defaults, key)) for key in sorted(_TOL_KEYS)}
    _require(all(_is_number(v) and v > 0 for v in tols.values()),
             "tolerances must be positive numbers")

    seed = raw.get("seed", 0)
    _require(_is_int(seed, 0), "seed must be a nonnegative integer")
    t_grid = raw.get("t_grid", [0.1, 1.0, 10.0])
    _require(isinstance(t_grid, list) and t_grid
             and all(_is_number(t) and t > 0 for t in t_grid),
             "t_grid must be a nonempty list of positive numbers")
    output = raw.get("output", ".")
    _require(isinstance(output, str), "output must be a string")

    sweep = raw.get("sweep")
    if sweep is not None:
        _require(isinstance(sweep, dict), "sweep must be an object")
        unknown = set(sweep) - _SWEEP_KEYS
        _require(not unknown, f"unknown sweep keys: {sorted(unknown)}")
        _require("theta" in sweep and "values" in sweep and "parameter" in sweep,
                 "sweep needs theta, parameter and values")
        thetas, values = sweep["theta"], sweep["values"]
        _require(isinstance(thetas, list) and all(_is_number(t, 0) for t in thetas),
                 "sweep theta must be a list of nonnegative numbers")
        _require(isinstance(sweep["parameter"], str) and isinstance(values, list),
                 "sweep parameter must be a string and values a list")
        n_cells = len(thetas) * len(values)
        _require(0 < n_cells <= 1024, f"sweep has {n_cells} cells, limit is 1024")
        for value in values:
            _check_params(preset, {**params, sweep["parameter"]: value}, dimension)

    return ModelConfig(
        dimension=dimension,
        truncation=truncation,
        theta=float(theta),
        alpha=float(alpha),
        flow=flow,
        noise=noise,
        tolerances=Tolerances(**{key: float(v) for key, v in tols.items()}),
        seed=seed,
        t_grid=[float(t) for t in t_grid],
        output=output,
        sweep=sweep,
    )


def _modes_to_field(dimension, modes, axis):
    coeffs = {}
    for m in modes:
        if m["axis"] != axis:
            continue
        kappa = tuple(int(k) for k in m["wavevector"])
        c = complex(m["re"], m["im"])
        coeffs[kappa] = coeffs.get(kappa, 0.0) + c
        neg = tuple(-k for k in kappa)
        if neg != kappa:
            coeffs[neg] = coeffs.get(neg, 0.0) + np.conj(c)
    return TrigField(dimension, coeffs)


def abc_field(A, B, C):
    """The ABC flow (A sin z + C cos y, B sin x + A cos z, C sin y + B cos x)."""
    return FlowField([
        TrigField.sin(3, 2, A) + TrigField.cos(3, 1, C),
        TrigField.sin(3, 0, B) + TrigField.cos(3, 2, A),
        TrigField.sin(3, 1, C) + TrigField.cos(3, 0, B),
    ])


def build_flow(config):
    """Materialize the drift FlowField from a validated config; a
    Langevin preset's drift is -grad of its :func:`build_potential`."""
    D = config.dimension
    preset = config.flow["preset"]
    params = config.flow["params"]
    potential = build_potential(config)
    if potential is not None:
        return FlowField.gradient(-potential)
    if preset == "diffusion":
        return FlowField.zero(D)
    if preset == "drift":
        c = params.get("c", [1.0] * D)
        return FlowField.constant([float(v) for v in c])
    if preset == "shear-2d":
        return FlowField([TrigField.sin(2, 1), TrigField.zero(2)])
    if preset == "abc":
        return abc_field(
            float(params.get("A", 1.0)),
            float(params.get("B", 1.0)),
            float(params.get("C", 1.0)),
        )
    if preset == "random":
        rng = np.random.default_rng(int(params.get("seed", config.seed)))
        bandwidth = int(params.get("bandwidth", 1))
        amplitude = float(params.get("amplitude", 0.5))
        return FlowField(
            [TrigField.random(D, bandwidth, rng, amplitude) for _ in range(D)]
        )
    if preset == "custom":
        return FlowField(
            [_modes_to_field(D, config.flow["modes"], i + 1) for i in range(D)]
        )
    raise ConfigError(f"unknown preset {preset!r}")


def build_potential(config):
    """The scalar potential U for Langevin presets, None otherwise."""
    if config.flow["preset"] == "langevin-cos":
        return TrigField.cos(1, 0)
    if config.flow["preset"] == "langevin-double":
        a = float(config.flow["params"].get("a", 0.3))
        return TrigField.cos(1, 0) + TrigField.cos(1, 0, a, 2)
    return None


def build_noise(config):
    if config.noise == "identity":
        return identity_frame(config.dimension)
    fields = []
    for nf in config.noise:
        fields.append(
            FlowField(
                [_modes_to_field(config.dimension, nf, i + 1)
                 for i in range(config.dimension)]
            )
        )
    return fields


def build_model(config, truncation=None):
    """SdeModel for a config, optionally at another truncation."""
    layout = BasisLayout(config.dimension, truncation or config.truncation)
    return SdeModel(
        layout, build_flow(config), build_noise(config), config.theta,
        config.alpha,
    )
