"""Scenario JSON parsing, validation and serialization.

Schema (version "1"):

    {
      "schema_version": "1",
      "dimension": 2,
      "function": {"type": "meromorphic",
                   "zeros": [{"point": [x, y], "multiplicity": 1}, ...],
                   "poles": [...],
                   "unit_factor": [re, im],
                   "exponent": [[re, im], ...]}
                | {"type": "delta_subharmonic",
                   "u": {"harmonic": {"poly": [[re, im], ...]}
                                   | {"affine": {"constant": c, "gradient": [...]}},
                         "charge": [<measure components>]},
                   "v": {...}},
      "measure": {"components": [
          {"type": "atom",    "point": [...], "weight": w},
          {"type": "segment", "endpoints": [[...], [...]], "weight": w},
          {"type": "arc",     "center": [...], "radius": rho,
                              "angles": [a0, a1], "weight": w},
          {"type": "ball",    "center": [...], "radius": rho, "weight": w}]},
      "radii": {"r": 2.0, "R": 4.0, "r0": 0.0},
      "tolerances": {"mean": 1e-8},
      "seed": 42,
      "scenario_id": "golden"
    }

A d=2 "affine" part is read as the polynomial c + (g0 - i g1) z, the one
harmonic kind of d=2, and written back as "poly".  Unknown keys are ignored,
among them the "dini" and "sup" tolerances of older files: the Dini integral
is closed-form and takes none, and the sup on a sphere keeps its own
refinement gap.  Failures raise ScenarioError, whose .code names the rule.
This module reads JSON types and numbers only, each number by _number (a
finite JSON int or float, not a bool or a string, else the code of the part
it sits in: RADII_ORDER for r, R and r0, MEASURE_SPEC, FUNCTION_SPEC,
TOLERANCES).  Every rule on the values read is the constructor's that takes
them, which raises its own code; any other ValueError of a component or a
model reads as MEASURE_SPEC or FUNCTION_SPEC.
"""

from __future__ import annotations

import json
import sys
from typing import Union

from .lab import Scenario, ScenarioError, Tolerances
from .measures import Atom, BorelMeasure, UniformArc, UniformBall, UniformSegment
from .potentials import (
    AffineHarmonic,
    DeltaSubharmonicFn,
    HarmonicPolynomial,
    MeromorphicFn,
    SubharmonicFn,
)

__all__ = ["ScenarioError", "parse_scenario", "serialize_scenario"]

SCHEMA_VERSION = "1"


def _typed(value, kind: type, code: str, what: str):
    """value if it is a JSON object (kind dict) or array (list), else a ScenarioError."""
    if not isinstance(value, kind):
        raise ScenarioError(code, f"{what} must be a JSON "
                                  f"{'object' if kind is dict else 'array'}: {value!r}")
    return value


def _number(value, code: str, what: str) -> float:
    """value as a float if it is a finite JSON number, not a bool; else a
    ScenarioError with code.  An int beyond the largest float is not finite."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):  # False for NaN too
        raise ScenarioError(code, f"{what} must be a finite number, got {value!r}")
    return float(value)


def _point(value, code: str, what: str) -> tuple:
    return tuple(_number(c, code, what) for c in _typed(value, list, code, what))


def _component_from_json(obj: dict):
    kind = _typed(obj, dict, "MEASURE_SPEC", "a measure component").get("type")
    weight = _number(obj.get("weight"), "MEASURE_SPEC", f"the weight of {obj!r}")
    try:
        if kind == "atom":
            comp = Atom(_point(obj["point"], "MEASURE_SPEC", "point"), weight)
        elif kind == "segment":
            a, b = (_point(p, "MEASURE_SPEC", "endpoint") for p in obj["endpoints"])
            comp = UniformSegment(a, b, weight)
        elif kind == "arc":
            a0, a1 = (_number(a, "MEASURE_SPEC", "angle") for a in obj["angles"])
            comp = UniformArc(_point(obj["center"], "MEASURE_SPEC", "center"),
                              _number(obj["radius"], "MEASURE_SPEC", "radius"), a0, a1, weight)
        elif kind == "ball":
            comp = UniformBall(_point(obj["center"], "MEASURE_SPEC", "center"),
                               _number(obj["radius"], "MEASURE_SPEC", "radius"), weight)
        else:
            raise ScenarioError("MEASURE_SPEC", f"unknown component type {kind!r}")
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError("MEASURE_SPEC", f"bad {kind} component: {exc}")
    return comp


def _component_to_json(comp) -> dict:
    if isinstance(comp, Atom):
        return {"type": "atom", "point": list(comp.point), "weight": comp.weight}
    if isinstance(comp, UniformSegment):
        return {"type": "segment", "endpoints": [list(comp.start), list(comp.end)],
                "weight": comp.weight}
    if isinstance(comp, UniformArc):
        return {"type": "arc", "center": list(comp.center), "radius": comp.radius,
                "angles": [comp.angle_start, comp.angle_end], "weight": comp.weight}
    if isinstance(comp, UniformBall):
        return {"type": "ball", "center": list(comp.center), "radius": comp.radius,
                "weight": comp.weight}
    raise ScenarioError("MEASURE_SPEC", f"unknown component {type(comp).__name__}")


def _complex_from(v) -> complex:
    """A number or a pair [re, im] of a function's part, as a complex."""
    if isinstance(v, list):
        re, im = (_number(x, "FUNCTION_SPEC", "a complex part") for x in v)
        return complex(re, im)
    return complex(_number(v, "FUNCTION_SPEC", "a complex number"))


def _complex_to(c: complex) -> list:
    return [c.real, c.imag]


def _harmonic_from_json(obj, dim: int):
    if obj is None:
        return None
    if "poly" in _typed(obj, dict, "FUNCTION_SPEC", "a harmonic part"):
        poly = _typed(obj["poly"], list, "FUNCTION_SPEC", "poly")
        return HarmonicPolynomial(tuple(_complex_from(c) for c in poly))
    if "affine" in obj:
        aff = obj["affine"]
        constant = _number(aff["constant"], "FUNCTION_SPEC", "constant")
        gradient = _point(aff["gradient"], "FUNCTION_SPEC", "gradient")
        if dim == 2:  # c + g0 x + g1 y = Re(c + (g0 - i g1) z)
            g0, g1 = gradient
            return HarmonicPolynomial((constant, complex(g0, -g1)))
        return AffineHarmonic(constant, gradient)
    raise ScenarioError("FUNCTION_SPEC", f"unknown harmonic part {obj!r}")


def _harmonic_to_json(h):
    if h is None:
        return None
    if isinstance(h, HarmonicPolynomial):
        return {"poly": [_complex_to(c) for c in h.coeffs]}
    return {"affine": {"constant": h.constant, "gradient": list(h.gradient)}}


def _subharmonic_from_json(obj: dict, dim: int) -> SubharmonicFn:
    charge = _typed(obj, dict, "FUNCTION_SPEC", "u and v").get("charge", [])
    comps = tuple(map(_component_from_json, _typed(charge, list, "FUNCTION_SPEC", "charge")))
    return SubharmonicFn(_harmonic_from_json(obj.get("harmonic"), dim), BorelMeasure(comps, dim))


def _function_from_json(obj: dict, dim: int):
    """-> (DeltaSubharmonicFn, MeromorphicFn | None)"""
    kind = _typed(obj, dict, "FUNCTION_SPEC", "function").get("type")
    try:
        if kind == "meromorphic":
            zeros = tuple((_complex_from(z["point"]), z.get("multiplicity", 1))
                          for z in obj.get("zeros", []))
            poles = tuple((_complex_from(p["point"]), p.get("multiplicity", 1))
                          for p in obj.get("poles", []))
            f = MeromorphicFn(zeros, poles, _complex_from(obj.get("unit_factor", 1.0)),
                              tuple(_complex_from(c) for c in obj.get("exponent", [])))
            return f.to_delta_subharmonic(), f
        if kind == "delta_subharmonic":
            u = _subharmonic_from_json(obj["u"], dim)
            return DeltaSubharmonicFn(u, _subharmonic_from_json(obj["v"], dim)), None
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ScenarioError("FUNCTION_SPEC", str(exc))
    raise ScenarioError("FUNCTION_SPEC", f"unknown function type {kind!r}")


def parse_scenario(data: Union[bytes, str, dict]) -> Scenario:
    """Validated Scenario from UTF-8 JSON (bytes/str) or a decoded dict."""
    if isinstance(data, (bytes, str)):
        try:
            obj = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ScenarioError("JSON_SYNTAX", str(exc)) from exc
    else:
        obj = data
    version = _typed(obj, dict, "SCHEMA_VERSION", "a scenario").get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError("SCHEMA_VERSION", f"unknown schema_version {version!r}")
    dim = obj.get("dimension")
    radii = _typed(obj.get("radii") or {}, dict, "RADII_ORDER", "radii")
    r, R = (_number(radii.get(k), "RADII_ORDER", f"radii.{k}") for k in ("r", "R"))
    r0 = None if radii.get("r0") is None else _number(radii["r0"], "RADII_ORDER", "radii.r0")
    measure_obj = _typed(obj.get("measure") or {}, dict, "MEASURE_SPEC", "measure")
    components = _typed(measure_obj.get("components", []), list, "MEASURE_SPEC", "components")
    mu = BorelMeasure(tuple(map(_component_from_json, components)), dim)
    U, f = _function_from_json(obj.get("function") or {}, dim)
    tol_obj = _typed(obj.get("tolerances") or {}, dict, "TOLERANCES", "tolerances")
    mean = _number(tol_obj.get("mean", Tolerances.mean), "TOLERANCES", "tolerances.mean")
    return Scenario(str(obj.get("scenario_id", "scenario")), U, mu, r, R, f=f, r0=r0,
                    tolerances=Tolerances(mean=mean), seed=obj.get("seed"))


def serialize_scenario(s: Scenario) -> dict:
    """JSON-ready dict; parse_scenario(serialize_scenario(s)) == s."""
    if s.f is not None:
        function = {
            "type": "meromorphic",
            "zeros": [{"point": _complex_to(a), "multiplicity": m}
                      for a, m in s.f.zeros],
            "poles": [{"point": _complex_to(b), "multiplicity": n}
                      for b, n in s.f.poles],
            "unit_factor": _complex_to(s.f.unit_factor),
            "exponent": [_complex_to(c) for c in s.f.exponent],
        }
    else:
        function = {
            "type": "delta_subharmonic",
            "u": {"harmonic": _harmonic_to_json(s.U.u.harmonic),
                  "charge": [_component_to_json(c) for c in s.U.u.riesz.components]},
            "v": {"harmonic": _harmonic_to_json(s.U.v.harmonic),
                  "charge": [_component_to_json(c) for c in s.U.v.riesz.components]},
        }
    radii = {"r": s.r, "R": s.R}
    if s.r0 is not None:
        radii["r0"] = s.r0
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario_id": s.scenario_id,
        "dimension": s.U.dim,
        "function": function,
        "measure": {"components": [_component_to_json(c) for c in s.mu.components]},
        "radii": radii,
        "tolerances": {"mean": s.tolerances.mean},
        "seed": s.seed,
    }
