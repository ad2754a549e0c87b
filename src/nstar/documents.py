"""Documents and inline shorthand for the objects the command line reads.

Every object the command line consumes has a JSON document form; every
other setting is a plain flag:

* generator: {"family": name, "params": {...}}, a family and its params
              as in _GENERATORS (power {"p"}, tabulated_density
              {"t": [...], "p": [...]}, log_sqrt {}, ...)
* space:     {"kind": "atomic", "masses": [...]} or
             {"kind": "interval", "L": float, "N": int}, as in _SPACES
* function:  {"values": [...]} or
             {"generator": "constant"|"identity"|"indicator"|"random",
              "params": {...}}, params as in _FUNCTIONS
* functional: {"coefficients": [...]}

_fields reads every document by a spec {field: (reader, default)}; a name
field picks the constructor and the spec of the others from a table.

Inline shorthand maps one-to-one onto the documents, e.g.
power:p=0.5 / interval:L=1,N=1000 / atoms:0.5,0.25 / equal:100,mass=2 /
identity / constant:3 / indicator:0..50 / random:low=0,high=1,seed=7 /
values:1,2,3 / 1,-2,0.5 (functional). A shorthand number reads as an
integer where it is one, else as a float, and every list item must be a
number (atoms:1,,2 is rejected).

This module owns what a library constructor cannot check: JSON types,
known and required fields, and shorthand syntax, each raising a
DomainError naming the field or flag. Value rules belong to the
constructors (positive masses and cell widths, a cell count of at least
1, one value per atom or cell, an indicator range inside the space,
identity on intervals only, an ordered random range, a family's
parameter range); _construct prefixes their DomainError with the
context. An atomic functional's errors pass unprefixed: each concerns
the space it is paired with (an atomic space, one coefficient per atom),
not the functional document alone.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .calculus import NStarFunction
from .dual import AtomicFunctional
from .errors import DomainError
from .families import (
    alpha_exp_family,
    log_sqrt_family,
    power_family,
    scaled_power_family,
    tabulated_density_family,
)
from .measure import MeasurableFn, MeasureSpace

__all__ = [
    "parse_phi_doc",
    "parse_space_doc",
    "parse_fn_doc",
    "parse_functional_doc",
    "phi_from_text",
    "space_from_text",
    "fn_from_text",
    "functional_from_text",
    "load_json",
    "format_float",
    "json_ready",
]


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise DomainError(f"{context}: expected an object")
    return value


_REQUIRED = object()  # the default of a field that a document must give


def _fields(doc, spec: dict, context: str) -> dict:
    """doc's fields by spec {field: (reader, default)}, in spec order: reader(value, context) reads a given
    field, a missing one takes its default unless that is _REQUIRED, and one outside spec is rejected."""
    extra = set(_object(doc, context)) - set(spec)
    if extra:
        raise DomainError(f"{context}: unknown fields {sorted(extra)}; expected only {sorted(spec)}")
    read = {}
    for field, (reader, default) in spec.items():
        if field in doc:
            read[field] = reader(doc[field], f"{context}.{field}")
        elif default is _REQUIRED:
            raise DomainError(f"{context}: missing required field {field!r}")
        else:
            read[field] = default
    return read


def _construct(context: str, constructor, *args):
    """constructor(*args); an argument error it raises is raised again with context as its prefix."""
    try:
        return constructor(*args)
    except DomainError as exc:
        raise DomainError(f"{context}: {exc}") from exc


def _number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{context}: expected a number, got {value!r}")
    # written so that NaN fails too; an integer past the float range fails here, not in float()
    if not abs(value) <= sys.float_info.max:
        raise DomainError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{context}: expected an integer, got {value!r}")
    return value


def _seed(value, context: str) -> int:
    seed = _integer(value, context)
    if seed < 0:
        raise DomainError(f"{context}: a seed must not be negative")
    return seed


def _number_list(value, context: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise DomainError(f"{context}: expected a non-empty list of numbers")
    return [_number(v, f"{context}[{i}]") for i, v in enumerate(value)]


def _entry(table: dict, name, context: str):
    """The (constructor, spec) that a document's name field picks from table."""
    if not isinstance(name, str) or name not in table:
        raise DomainError(f"{context}: expected one of {', '.join(table)}, got {name!r}")
    return table[name]


# name -> (constructor, spec): the constructor takes the fields spec reads, in
# spec order, from "params" (a function's constructor taking the space first)
# or, for a space, beside "kind". The measure constructors are looked up at
# each call, so a wrapper later bound over them still sees every call.
_GENERATORS = {
    "power": (power_family, {"p": (_number, _REQUIRED)}),
    "power_scaled": (scaled_power_family, {"p": (_number, _REQUIRED)}),
    "alpha_exp": (alpha_exp_family, {"alpha": (_number, _REQUIRED)}),
    "log_sqrt": (log_sqrt_family, {}),
    "tabulated_density": (tabulated_density_family, {"t": (_number_list, _REQUIRED), "p": (_number_list, _REQUIRED)}),
}
_SPACES = {
    "atomic": (lambda *a: MeasureSpace.atomic(*a), {"masses": (_number_list, _REQUIRED)}),
    "interval": (lambda *a: MeasureSpace.interval(*a), {"L": (_number, _REQUIRED), "N": (_integer, _REQUIRED)}),
}
_FUNCTIONS = {
    "constant": (lambda *a: MeasurableFn.constant(*a), {"value": (_number, 1.0)}),
    "identity": (lambda *a: MeasurableFn.identity(*a), {}),
    "indicator": (lambda *a: MeasurableFn.indicator(*a), {"lo": (_integer, 0), "hi": (_integer, None)}),
    "random": (
        lambda *a: MeasurableFn.random(*a),
        {"seed": (_seed, _REQUIRED), "low": (_number, 0.0), "high": (_number, 1.0)},
    ),
}


def _build(table: dict, key: str, doc, context: str, *args):
    """What a {key: name, "params": {...}} document names: table[name]'s constructor on args and the params."""
    read = _fields(doc, {key: (partial(_entry, table), _REQUIRED), "params": (_object, {})}, context)
    constructor, spec = read[key]
    params = _fields(read["params"], spec, f"{context}.params")
    return _construct(f"{context} {doc[key]}", constructor, *args, *params.values())


def parse_phi_doc(doc: dict, context: str = "phi") -> NStarFunction:
    return _build(_GENERATORS, "family", doc, context)


def parse_space_doc(doc: dict, context: str = "space") -> MeasureSpace:
    fields = dict(_object(doc, context))
    if "kind" not in fields:
        raise DomainError(f"{context}: missing required field 'kind'")
    constructor, spec = _entry(_SPACES, fields.pop("kind"), f"{context}.kind")
    return _construct(context, constructor, *_fields(fields, spec, context).values())


def parse_fn_doc(doc: dict, space: MeasureSpace, context: str = "fn") -> MeasurableFn:
    if "values" in _object(doc, context):
        values = _fields(doc, {"values": (_number_list, _REQUIRED)}, context)["values"]
        return _construct(f"{context}.values", MeasurableFn, values, space)
    return _build(_FUNCTIONS, "generator", doc, context, space)


def parse_functional_doc(doc: dict, space: MeasureSpace, phi: NStarFunction, context: str = "functional"):
    coeff = _fields(doc, {"coefficients": (_number_list, _REQUIRED)}, context)["coefficients"]
    return AtomicFunctional(coeff, space, phi)


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
            raise DomainError(f"{context}: expected a number, got {text!r}") from None


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
            raise DomainError(f"{context}: expected key=value, got {item!r}")
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
        params = _split_kv(rest, context)
        try:
            masses = [params.pop("mass", 1.0)] * int(count_text)
        except ValueError:
            raise DomainError(f"{context}: equal:COUNT needs an integer") from None
        except (OverflowError, MemoryError):
            raise DomainError(f"{context}: atom count too large to allocate") from None
        return {"kind": "atomic", "masses": masses, **params}
    raise DomainError(f"{context}: expected interval:/atoms:/equal: shorthand")


def fn_shorthand_to_doc(text: str, flag: str) -> dict:
    """values:, constant:VALUE and indicator:LO..HI have their own syntax; other names take key=value params."""
    name, _, body = text.partition(":")
    context = f"{flag} {text!r}"
    if name == "values":
        return {"values": _shorthand_numbers(body, context)}
    doc: dict = {"generator": name}
    if body and name == "constant":
        doc["params"] = {"value": _shorthand_number(body, context)}
    elif body and name == "indicator":
        lo_text, sep, hi_text = body.partition("..")
        if not sep:
            raise DomainError(f"{context}: indicator needs lo..hi")
        doc["params"] = {"lo": _shorthand_number(lo_text, context), "hi": _shorthand_number(hi_text, context)}
    elif body:
        doc["params"] = _split_kv(body, context)
    return doc


def functional_shorthand_to_doc(text: str) -> dict:
    return {"coefficients": _shorthand_numbers(text, "--functional")}


def load_json(path: str, context: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"{context}: cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{context}: {path!r} line {exc.lineno} col {exc.colno}: {exc.msg}") from exc


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


def fn_from_text(text: str, space: MeasureSpace, flag: str) -> MeasurableFn:
    """The function that flag's text names on space; flag names it in every error."""
    return parse_fn_doc(_doc_or_shorthand(text, partial(fn_shorthand_to_doc, flag=flag), flag), space, flag)


def functional_from_text(text: str, space: MeasureSpace, phi: NStarFunction) -> AtomicFunctional:
    doc = _doc_or_shorthand(text, functional_shorthand_to_doc, "--functional")
    return parse_functional_doc(doc, space, phi, "--functional")


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
