"""Configuration documents and inline shorthand.

Every object the command line consumes has a JSON document form:

* generator: {"family": name, "params": {...}}, params per family as in
              families.FAMILY_PARAMS, which the family table derives
              (power {"p"}, tabulated_density {"t": [...], "p": [...]}, ...)
* space:     {"kind": "atomic", "masses": [...]} or
             {"kind": "interval", "L": float, "N": int}
* function:  {"values": [...]} or
             {"generator": "constant"|"identity"|"indicator"|"random",
              "params": {...}}, params per generator as in _FN_PARAMS
* functional: {"coefficients": [...]}
* check suite: {"phi": <generator doc>, "space": <space doc>,
                "checks": [names], "samples": int, "seed": int >= 0,
                "tolerances": {"slack": float >= 0}}
* demo dualzero: {"theta": float, "iterations": int,
                  "kernel": <function doc>}

Inline shorthand maps one-to-one onto the documents, e.g.
power:p=0.5 / interval:L=1,N=1000 / atoms:0.5,0.25 / equal:100,mass=2 /
identity / constant:3 / indicator:0..50 / random:low=0,high=1,seed=7 /
values:1,2,3 / 1,-2,0.5 (functional). A shorthand number reads as an
integer where it is one, else as a float, and every list item must be a
number (atoms:1,,2 is rejected).

This module owns what a library constructor cannot check: JSON types,
known and required fields, and shorthand syntax, each raising
DocumentError naming the field or flag. Value rules belong to the
constructors (positive masses and cell widths, a cell count of at least
1, one value or coefficient per atom or cell, an indicator range inside
the space, identity on intervals only, a family's parameter range);
_construct turns their DomainError or SpaceMismatchError into a
DocumentError that names the context.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .calculus import NStarFunction
from .errors import DocumentError, DomainError, SpaceMismatchError
from .families import FAMILY_NAMES, FAMILY_PARAMS, build_family
from .measure import MeasurableFn, MeasureSpace
from .space import SLACK_TOL
from .suite import CHECK_NAMES, DEFAULT_SAMPLES, DEFAULT_SEED

__all__ = [
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


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(f"{context}: expected an object")
    return value


def _known_fields(doc: dict, known, context: str) -> None:
    """Reject any field of doc outside known, naming it."""
    extra = set(doc) - set(known)
    if extra:
        raise DocumentError(f"{context}: unknown fields {sorted(extra)}; expected only {sorted(known)}")


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise DocumentError(f"{context}: missing required field {key!r}")
    return doc[key]


def _construct(context: str, constructor, *args):
    """constructor(*args); its argument errors become a DocumentError naming context."""
    try:
        return constructor(*args)
    except (DomainError, SpaceMismatchError) as exc:
        raise DocumentError(f"{context}: {exc}") from exc


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


def _seed(value, context: str) -> int:
    seed = _integer(value, context)
    if seed < 0:
        raise DocumentError(f"{context}: a seed must not be negative")
    return seed


def _number_list(value, context: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise DocumentError(f"{context}: expected a non-empty list of numbers")
    return [_number(v, f"{context}[{i}]") for i, v in enumerate(value)]


def parse_phi_doc(doc: dict, context: str = "phi") -> NStarFunction:
    family = _require(_object(doc, context), "family", context)
    if family not in FAMILY_NAMES:
        raise DocumentError(
            f"{context}.family: unknown family {family!r}; expected one of {', '.join(FAMILY_NAMES)}"
        )
    _known_fields(doc, ("family", "params"), context)
    params = _object(doc.get("params", {}), f"{context}.params")
    _known_fields(params, FAMILY_PARAMS[family], f"{context}.params")
    number = _number_list if family == "tabulated_density" else _number
    params = {k: number(v, f"{context}.params.{k}") for k, v in params.items()}
    return _construct(f"{context}.params", build_family, family, params)


def parse_space_doc(doc: dict, context: str = "space") -> MeasureSpace:
    kind = _require(_object(doc, context), "kind", context)
    if kind == "atomic":
        _known_fields(doc, ("kind", "masses"), context)
        masses = _number_list(_require(doc, "masses", context), f"{context}.masses")
        return _construct(f"{context}.masses", MeasureSpace.atomic, masses)
    if kind == "interval":
        _known_fields(doc, ("kind", "L", "N"), context)
        length = _number(_require(doc, "L", context), f"{context}.L")
        cells = _integer(_require(doc, "N", context), f"{context}.N")
        return _construct(context, MeasureSpace.interval, length, cells)
    raise DocumentError(f"{context}.kind: expected 'atomic' or 'interval', got {kind!r}")


# the parameters each function generator takes; each generator is the MeasurableFn constructor of its name
_FN_PARAMS = {
    "constant": ("value",),
    "identity": (),
    "indicator": ("lo", "hi"),
    "random": ("seed", "low", "high"),
}


def parse_fn_doc(doc: dict, space: MeasureSpace, context: str = "fn") -> MeasurableFn:
    if "values" in _object(doc, context):
        _known_fields(doc, ("values",), context)
        values = _number_list(doc["values"], f"{context}.values")
        return _construct(f"{context}.values", MeasurableFn, values, space)
    generator = _require(doc, "generator", context)
    if not isinstance(generator, str) or generator not in _FN_PARAMS:
        raise DocumentError(
            f"{context}.generator: expected constant/identity/indicator/random, got {generator!r}"
        )
    _known_fields(doc, ("generator", "params"), context)
    params = _object(doc.get("params", {}), f"{context}.params")
    _known_fields(params, _FN_PARAMS[generator], f"{context}.params")
    if generator == "constant":
        args: tuple = (_number(params.get("value", 1.0), f"{context}.params.value"),)
    elif generator == "indicator":
        hi = params.get("hi")
        args = (
            _integer(params.get("lo", 0), f"{context}.params.lo"),
            None if hi is None else _integer(hi, f"{context}.params.hi"),
        )
    elif generator == "random":
        seed = _seed(_require(params, "seed", f"{context}.params"), f"{context}.params.seed")
        low = _number(params.get("low", 0.0), f"{context}.params.low")
        high = _number(params.get("high", 1.0), f"{context}.params.high")
        # numpy's uniform also needs the width high - low to be a finite float
        if not 0 <= high - low < np.inf:
            raise DocumentError(f"{context}.params: random needs low <= high and a finite high - low")
        args = (seed, low, high)
    else:
        args = ()
    return _construct(f"{context} {generator}", getattr(MeasurableFn, generator), space, *args)


def parse_functional_doc(doc: dict, space: MeasureSpace, phi: NStarFunction, context: str = "functional"):
    from .dual import AtomicFunctional

    _known_fields(_object(doc, context), ("coefficients",), context)
    coeff = _number_list(_require(doc, "coefficients", context), f"{context}.coefficients")
    return _construct(f"{context}.coefficients", AtomicFunctional, coeff, space, phi)


def parse_demo_doc(doc: dict, context: str = "demo"):
    """demo dualzero configuration: theta, iterations, and the kernel's function document, unparsed."""
    _known_fields(_object(doc, context), ("theta", "iterations", "kernel"), context)
    theta = _number(doc.get("theta", 0.5), f"{context}.theta")
    iterations = _integer(doc.get("iterations", 20), f"{context}.iterations")
    return theta, iterations, doc.get("kernel")


def parse_suite_doc(doc: dict, context: str = "suite"):
    _known_fields(_object(doc, context), ("phi", "space", "checks", "samples", "seed", "tolerances"), context)
    phi = parse_phi_doc(_require(doc, "phi", context), f"{context}.phi")
    space = parse_space_doc(_require(doc, "space", context), f"{context}.space")
    checks = doc.get("checks", list(CHECK_NAMES))
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise DocumentError(f"{context}.checks: expected a list of check names")
    bad = [c for c in checks if c not in CHECK_NAMES]
    if bad:
        raise DocumentError(f"{context}.checks: unknown names {bad}")
    samples = _integer(doc.get("samples", DEFAULT_SAMPLES), f"{context}.samples")
    seed = _seed(doc.get("seed", DEFAULT_SEED), f"{context}.seed")
    tolerances = _object(doc.get("tolerances", {}), f"{context}.tolerances")
    _known_fields(tolerances, ("slack",), f"{context}.tolerances")
    tol = _number(tolerances.get("slack", SLACK_TOL), f"{context}.tolerances.slack")
    if tol < 0:
        raise DocumentError(f"{context}.tolerances.slack: must not be negative")
    return phi, space, checks, samples, seed, tol


# ---------------------------------------------------------------------------
# inline shorthand
# ---------------------------------------------------------------------------


def _shorthand_number(text: str, context: str) -> int | float:
    """An integer where text reads as one, else a float; the document parser checks the value."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise DocumentError(f"{context}: expected a number, got {text!r}") from None


def _shorthand_numbers(body: str, context: str) -> list:
    """Comma-separated numbers; an empty item is rejected and named."""
    items = body.split(",")
    return [_shorthand_number(item, f"{context} item {i + 1}") for i, item in enumerate(items)]


def _split_kv(body: str, context: str) -> dict:
    params: dict = {}
    if not body:
        return params
    for item in body.split(","):
        if "=" not in item:
            raise DocumentError(f"{context}: expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        params[key] = _shorthand_number(raw, f"{context} {key}")
    return params


def phi_shorthand_to_doc(text: str) -> dict:
    name, _, body = text.partition(":")
    doc: dict = {"family": name}
    if body:
        doc["params"] = _split_kv(body, f"--phi {text!r}")
    return doc


def space_shorthand_to_doc(text: str) -> dict:
    """interval: and equal: pass their keys on, so parse_space_doc names an unknown one."""
    name, _, body = text.partition(":")
    context = f"--space {text!r}"
    if name == "interval":
        return {"kind": "interval", "L": 1.0, "N": 1000, **_split_kv(body, context)}
    if name == "atoms":
        return {"kind": "atomic", "masses": _shorthand_numbers(body, context)}
    if name == "equal":
        count_text, _, rest = body.partition(",")
        try:
            count = int(count_text)
        except ValueError:
            raise DocumentError(f"{context}: equal:COUNT needs an integer") from None
        params = _split_kv(rest, context)
        return {"kind": "atomic", "masses": [params.pop("mass", 1.0)] * count, **params}
    raise DocumentError(f"{context}: expected interval:/atoms:/equal: shorthand")


def fn_shorthand_to_doc(text: str) -> dict:
    name, _, body = text.partition(":")
    context = f"--fn {text!r}"
    if name == "identity":
        return {"generator": "identity"}
    if name == "constant":
        if not body:
            return {"generator": "constant"}
        return {"generator": "constant", "params": {"value": _shorthand_number(body, context)}}
    if name == "indicator":
        if not body:
            return {"generator": "indicator"}
        lo_text, sep, hi_text = body.partition("..")
        if not sep:
            raise DocumentError(f"{context}: indicator needs lo..hi")
        bounds = {"lo": _shorthand_number(lo_text, context), "hi": _shorthand_number(hi_text, context)}
        return {"generator": "indicator", "params": bounds}
    if name == "random":
        return {"generator": "random", "params": _split_kv(body, context)}
    if name == "values":
        return {"values": _shorthand_numbers(body, context)}
    raise DocumentError(f"{context}: expected identity/constant/indicator/random/values shorthand")


def functional_shorthand_to_doc(text: str) -> dict:
    return {"coefficients": _shorthand_numbers(text, "--functional")}


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


def phi_from_text(text: str) -> NStarFunction:
    return parse_phi_doc(_doc_or_shorthand(text, phi_shorthand_to_doc, "--phi"), "--phi")


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
