"""Configuration documents and inline shorthand.

Every object the command line consumes has a JSON document form:

* generator: {"family": "power"|"power_scaled"|"alpha_exp"|"log_sqrt"|
              "tabulated_density", "params": {...},
              "quad": {"tol": float, "mesh_ratio": float}}
* space:     {"kind": "atomic", "masses": [...]} or
             {"kind": "interval", "L": float, "N": int}
* function:  {"values": [...]} or
             {"generator": "constant"|"identity"|"indicator"|"random",
              "params": {...}}
* functional: {"coefficients": [...]}
* check suite: {"phi": <generator doc>, "space": <space doc>,
                "checks": [names], "samples": int, "seed": int,
                "tolerances": {"slack": float}}

Inline shorthand maps one-to-one onto the documents, e.g.
power:p=0.5 / interval:L=1,N=1000 / atoms:0.5,0.25 / equal:100 /
identity / constant:3 / indicator:0..50 / random:low=0,high=1,seed=7 /
values:1,2,3. Parse failures raise DocumentError with the offending field.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .calculus import NStarFunction
from .errors import DocumentError
from .families import FAMILY_NAMES, build_family
from .measure import MeasurableFn, MeasureSpace
from .numerics import DEFAULT_QUAD, QuadConfig
from .suite import CHECK_NAMES

__all__ = [
    "parse_quad_doc",
    "parse_phi_doc",
    "parse_space_doc",
    "parse_fn_doc",
    "parse_functional_doc",
    "parse_suite_doc",
    "phi_from_text",
    "space_from_text",
    "fn_from_text",
    "load_json",
    "format_float",
    "json_ready",
]


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise DocumentError(f"{context}: missing required field {key!r}")
    return doc[key]


def _number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{context}: expected a number, got {value!r}")
    # written so that NaN fails too; an integer past the float range fails here, not in float()
    if not abs(value) <= sys.float_info.max:
        raise DocumentError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{context}: expected an integer, got {value!r}")
    return value


def _number_list(value, context: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise DocumentError(f"{context}: expected a non-empty list of numbers")
    return [_number(v, f"{context}[{i}]") for i, v in enumerate(value)]


def parse_quad_doc(doc: dict | None, context: str = "quad") -> QuadConfig:
    if doc is None:
        return DEFAULT_QUAD
    if not isinstance(doc, dict):
        raise DocumentError(f"{context}: expected an object")
    known = {"tol", "mesh_ratio"}
    extra = set(doc) - known
    if extra:
        raise DocumentError(f"{context}: unknown fields {sorted(extra)}")
    kwargs = {}
    if "tol" in doc:
        tol = _number(doc["tol"], f"{context}.tol")
        if not 0 < tol < 1:
            raise DocumentError(f"{context}.tol: must lie in (0, 1)")
        kwargs["tol"] = tol
    if "mesh_ratio" in doc:
        ratio = _number(doc["mesh_ratio"], f"{context}.mesh_ratio")
        if not 0 < ratio < 1:
            raise DocumentError(f"{context}.mesh_ratio: must lie in (0, 1)")
        kwargs["mesh_ratio"] = ratio
    return dataclasses.replace(DEFAULT_QUAD, **kwargs)


def parse_phi_doc(doc: dict, context: str = "phi") -> NStarFunction:
    if not isinstance(doc, dict):
        raise DocumentError(f"{context}: expected an object")
    family = _require(doc, "family", context)
    if family not in FAMILY_NAMES:
        raise DocumentError(
            f"{context}.family: unknown family {family!r}; expected one of {', '.join(FAMILY_NAMES)}"
        )
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise DocumentError(f"{context}.params: expected an object")
    quad = parse_quad_doc(doc.get("quad"), f"{context}.quad")
    return build_family(family, params, quad)


def parse_space_doc(doc: dict, context: str = "space") -> MeasureSpace:
    if not isinstance(doc, dict):
        raise DocumentError(f"{context}: expected an object")
    kind = _require(doc, "kind", context)
    if kind == "atomic":
        masses = _number_list(_require(doc, "masses", context), f"{context}.masses")
        if any(m <= 0 for m in masses):
            raise DocumentError(f"{context}.masses: all masses must be positive")
        return MeasureSpace.atomic(masses)
    if kind == "interval":
        length = _number(_require(doc, "L", context), f"{context}.L")
        cells = _integer(_require(doc, "N", context), f"{context}.N")
        if length <= 0:
            raise DocumentError(f"{context}.L: must be positive")
        if cells < 1:
            raise DocumentError(f"{context}.N: must be a positive integer")
        return MeasureSpace.interval(length, cells)
    raise DocumentError(f"{context}.kind: expected 'atomic' or 'interval', got {kind!r}")


def parse_fn_doc(doc: dict, space: MeasureSpace, context: str = "fn") -> MeasurableFn:
    if not isinstance(doc, dict):
        raise DocumentError(f"{context}: expected an object")
    if "values" in doc:
        values = _number_list(doc["values"], f"{context}.values")
        if len(values) != space.size:
            raise DocumentError(
                f"{context}.values: {len(values)} values for a space of size {space.size}"
            )
        return MeasurableFn(np.asarray(values), space)
    generator = _require(doc, "generator", context)
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise DocumentError(f"{context}.params: expected an object")
    if generator == "constant":
        return MeasurableFn.constant(space, _number(params.get("value", 1.0), f"{context}.params.value"))
    if generator == "identity":
        if space.is_atomic:
            raise DocumentError(f"{context}: the identity generator needs an interval space")
        return MeasurableFn.identity(space)
    if generator == "indicator":
        lo = _integer(params.get("lo", 0), f"{context}.params.lo")
        hi = params.get("hi")
        hi = space.size if hi is None else _integer(hi, f"{context}.params.hi")
        if not 0 <= lo <= hi <= space.size:
            raise DocumentError(f"{context}.params: indicator range out of bounds")
        return MeasurableFn.indicator(space, lo, hi)
    if generator == "random":
        if "seed" not in params:
            raise DocumentError(f"{context}.params.seed: required for the random generator")
        seed = _integer(params["seed"], f"{context}.params.seed")
        low = _number(params.get("low", 0.0), f"{context}.params.low")
        high = _number(params.get("high", 1.0), f"{context}.params.high")
        # numpy's uniform also needs the width high - low to be a finite float
        if not 0 <= high - low < np.inf:
            raise DocumentError(f"{context}.params: random needs low <= high and a finite high - low")
        return MeasurableFn.random(space, seed, low, high)
    raise DocumentError(
        f"{context}.generator: expected constant/identity/indicator/random, got {generator!r}"
    )


def parse_functional_doc(doc: dict, space: MeasureSpace, phi: NStarFunction, context: str = "functional"):
    from .dual import AtomicFunctional

    if not isinstance(doc, dict):
        raise DocumentError(f"{context}: expected an object")
    coeff = _number_list(_require(doc, "coefficients", context), f"{context}.coefficients")
    if len(coeff) != space.size:
        raise DocumentError(
            f"{context}.coefficients: {len(coeff)} values for a space of size {space.size}"
        )
    return AtomicFunctional(np.asarray(coeff), space, phi)


def parse_demo_doc(doc: dict, context: str = "demo"):
    """Demo configuration: theta, iterations, epsilon, kernel (function doc), seed."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{context}: expected an object")
    known = {"theta", "iterations", "epsilon", "kernel", "seed"}
    extra = set(doc) - known
    if extra:
        raise DocumentError(f"{context}: unknown fields {sorted(extra)}")
    theta = _number(doc.get("theta", 0.5), f"{context}.theta")
    iterations = _integer(doc.get("iterations", 20), f"{context}.iterations")
    epsilon = _number(doc.get("epsilon", 1.0), f"{context}.epsilon")
    seed = _integer(doc.get("seed", 0), f"{context}.seed")
    kernel_doc = doc.get("kernel")
    if kernel_doc is not None and not isinstance(kernel_doc, dict):
        raise DocumentError(f"{context}.kernel: expected a function document")
    return theta, iterations, epsilon, kernel_doc, seed


def parse_suite_doc(doc: dict, context: str = "suite"):
    if not isinstance(doc, dict):
        raise DocumentError(f"{context}: expected an object")
    phi = parse_phi_doc(_require(doc, "phi", context), f"{context}.phi")
    space = parse_space_doc(_require(doc, "space", context), f"{context}.space")
    checks = doc.get("checks", list(CHECK_NAMES))
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise DocumentError(f"{context}.checks: expected a list of check names")
    bad = [c for c in checks if c not in CHECK_NAMES]
    if bad:
        raise DocumentError(f"{context}.checks: unknown names {bad}")
    samples = _integer(doc.get("samples", 50), f"{context}.samples")
    seed = _integer(doc.get("seed", 0), f"{context}.seed")
    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise DocumentError(f"{context}.tolerances: expected an object")
    tol = _number(tolerances.get("slack", 1e-9), f"{context}.tolerances.slack")
    return phi, space, checks, samples, seed, tol


# ---------------------------------------------------------------------------
# inline shorthand
# ---------------------------------------------------------------------------


def _split_kv(body: str, context: str) -> dict:
    params: dict = {}
    if not body:
        return params
    for item in body.split(","):
        if "=" not in item:
            raise DocumentError(f"{context}: expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value: float | int = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise DocumentError(f"{context}: {key}={raw!r} is not a number") from None
        params[key.strip()] = value
    return params


def phi_shorthand_to_doc(text: str) -> dict:
    name, _, body = text.partition(":")
    doc: dict = {"family": name}
    if body:
        doc["params"] = _split_kv(body, f"--phi {text!r}")
    return doc


def space_shorthand_to_doc(text: str) -> dict:
    name, _, body = text.partition(":")
    if name == "interval":
        params = _split_kv(body, f"--space {text!r}")
        return {"kind": "interval", "L": params.get("L", 1.0), "N": params.get("N", 1000)}
    if name == "atoms":
        try:
            masses = [float(v) for v in body.split(",") if v]
        except ValueError:
            raise DocumentError(f"--space {text!r}: masses must be numbers") from None
        return {"kind": "atomic", "masses": masses}
    if name == "equal":
        count_text, _, rest = body.partition(",")
        try:
            count = int(count_text)
        except ValueError:
            raise DocumentError(f"--space {text!r}: equal:COUNT needs an integer") from None
        params = _split_kv(rest, f"--space {text!r}") if rest else {}
        mass = float(params.get("mass", 1.0))
        return {"kind": "atomic", "masses": [mass] * count}
    raise DocumentError(f"--space {text!r}: expected interval:/atoms:/equal: shorthand")


def fn_shorthand_to_doc(text: str) -> dict:
    name, _, body = text.partition(":")
    if name == "identity":
        return {"generator": "identity"}
    if name == "constant":
        try:
            value = float(body or 1.0)
        except ValueError:
            raise DocumentError(f"--fn {text!r}: constant:VALUE needs a number") from None
        return {"generator": "constant", "params": {"value": value}}
    if name == "indicator":
        if not body:
            return {"generator": "indicator"}
        lo_text, sep, hi_text = body.partition("..")
        if not sep:
            raise DocumentError(f"--fn {text!r}: indicator needs lo..hi")
        try:
            bounds = {"lo": int(lo_text), "hi": int(hi_text)}
        except ValueError:
            raise DocumentError(f"--fn {text!r}: indicator lo..hi needs integers") from None
        return {"generator": "indicator", "params": bounds}
    if name == "random":
        params = _split_kv(body, f"--fn {text!r}")
        return {"generator": "random", "params": params}
    if name == "values":
        try:
            values = [float(v) for v in body.split(",") if v]
        except ValueError:
            raise DocumentError(f"--fn {text!r}: values must be numbers") from None
        return {"values": values}
    raise DocumentError(
        f"--fn {text!r}: expected identity/constant/indicator/random/values shorthand"
    )


def load_json(path: str, context: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DocumentError(f"{context}: cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{context}: {path!r} line {exc.lineno} col {exc.colno}: {exc.msg}") from exc


def _doc_or_shorthand(text: str, to_doc, context: str) -> dict:
    if text.startswith("@"):
        return load_json(text[1:], context)
    if text.endswith(".json") and Path(text).exists():
        return load_json(text, context)
    return to_doc(text)


def phi_from_text(text: str, quad: QuadConfig | None = None) -> NStarFunction:
    doc = _doc_or_shorthand(text, phi_shorthand_to_doc, "--phi")
    if quad is not None and "quad" not in doc:
        doc = {**doc, "quad": {"tol": quad.tol, "mesh_ratio": quad.mesh_ratio}}
    return parse_phi_doc(doc, "--phi")


def space_from_text(text: str) -> MeasureSpace:
    return parse_space_doc(_doc_or_shorthand(text, space_shorthand_to_doc, "--space"), "--space")


def fn_from_text(text: str, space: MeasureSpace) -> MeasurableFn:
    return parse_fn_doc(_doc_or_shorthand(text, fn_shorthand_to_doc, "--fn"), space, "--fn")


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Machine-readable numeric formatting: 12 significant digits."""
    return f"{x:.12g}"


def json_ready(obj):
    """Round floats to 12 significant digits recursively for stable output.

    NaN and +-inf become None (JSON null), so the output is strict JSON.
    """
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(format_float(float(obj))) if np.isfinite(obj) else None
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    return obj
