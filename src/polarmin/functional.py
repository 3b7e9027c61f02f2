"""Objective, constraints and Euler-equation machinery.

The energy integrand is (|grad v|^2 - F(|x|, v)) / (1 + |v|)^{2 theta} with
zero-mean and unit-Lp-norm constraints.  Internally the kinetic term is
evaluated in the substituted variable Psi(v), whose squared gradient equals
the original integrand's kinetic part in the continuum; with F = 0 the
discrete objective is therefore exactly the Dirichlet energy of Psi(v).
`evaluate` is the one statement of the objective and its gradient: the
descent, `eval_objective` and `euler_residual` all go through it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .grids import Field, PolarGrid, RadialDomain, _pow2_scale, grad_sq

__all__ = [
    "FSpec",
    "zero_f",
    "power_law",
    "ProblemParams",
    "Multipliers",
    "signed_power",
    "psi",
    "phi",
    "phi_prime",
    "Point",
    "evaluate",
    "eval_objective",
    "lp_norm",
    "g_term",
    "euler_residual",
    "multipliers_from_identities",
    "config_to_dict",
    "config_from_dict",
    "config_to_json",
    "config_from_json",
]

@dataclass(frozen=True)
class FSpec:
    """Lower-order term F.  'zero' means F = 0; 'power_law' means
    F(r, t) = -c0 |t|^alpha."""

    kind: Literal["zero", "power_law"]
    c0: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "power_law"):
            raise ValueError(f"unknown F kind {self.kind!r}")
        if not (math.isfinite(self.c0) and math.isfinite(self.alpha)):
            raise ValueError("F coefficient c0 and exponent alpha must be finite")
        if self.kind == "zero":
            if self.c0 != 0.0 or self.alpha != 0.0:
                raise ValueError("F = 0 takes no coefficient c0 or exponent alpha")
        else:
            if self.c0 < 0:
                raise ValueError("power-law coefficient c0 must be >= 0")
            if self.alpha <= 1.0:
                raise ValueError(
                    "power-law exponent must exceed 1 (the t-derivative is "
                    "not continuous at 0 otherwise)"
                )


def zero_f() -> FSpec:
    return FSpec("zero")


def power_law(c0: float, alpha: float) -> FSpec:
    return FSpec("power_law", c0=c0, alpha=alpha)


@dataclass(frozen=True)
class ProblemParams:
    """Exponents and lower-order term of the energy.

    theta in [0, 1/2) controls the damping of the kinetic term (theta = 0
    is the classical coercive limit, admitted so the Neumann spectrum can
    oracle the solver).  p > 1 is the norm-constraint exponent.  With the
    power-law F, 1 < alpha <= p; since 2 theta < 1 < alpha, the paper's
    p < 2 sign condition t (1 + |t|) F_t - 2 theta |t| F <= 0 then holds
    for every t.
    """

    theta: float
    p: float
    f_spec: FSpec = FSpec("zero")

    def __post_init__(self):
        if not 0.0 <= self.theta < 0.5:
            raise ValueError("theta must satisfy 0 <= 2*theta < 1")
        if not 1.0 < self.p < math.inf:
            raise ValueError("p must be finite and exceed 1")
        if self.f_spec.kind == "power_law" and self.f_spec.alpha > self.p:
            raise ValueError("power-law exponent must be <= p")


@dataclass(frozen=True)
class Multipliers:
    """Duals of the mean constraint (c) and the norm constraint (d)."""

    c: float
    d: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.d)):
            raise ValueError("multipliers must be finite")


def psi(xi, theta: float):
    """Odd increasing substitution sgn(xi)/(1-theta) [(1+|xi|)^{1-theta} - 1];
    the identity at theta = 0, and |psi(xi)| <= |xi|."""
    return np.sign(xi) * np.expm1((1.0 - theta) * np.log1p(np.abs(xi))) / (1.0 - theta)


def phi(eta, theta: float):
    """Inverse of psi: sgn(eta) ([1 + (1-theta)|eta|]^{1/(1-theta)} - 1)."""
    return np.sign(eta) * np.expm1(np.log1p((1.0 - theta) * np.abs(eta)) / (1.0 - theta))


def phi_prime(eta, theta: float):
    """Derivative of phi; equals (1 + |phi(eta)|)^theta."""
    # np.power, not **: ** on a numpy scalar may round unlike the array loop
    return np.power(1.0 + (1.0 - theta) * np.abs(eta), theta / (1.0 - theta))


def lp_norm(v: Field, p: float) -> float:
    if not 1.0 < p < math.inf:
        raise ValueError("p must be finite and exceed 1")
    scale = _pow2_scale(v.values)
    return scale * float(np.sum(v.grid.w * np.abs(v.values / scale) ** p)) ** (1.0 / p)


def _f_over_weight(params: ProblemParams, v: np.ndarray) -> np.ndarray:
    """Pointwise F(r, v) / (1 + |v|)^{2 theta} (r-independent family); only
    `evaluate` calls it, and only when F != 0."""
    f = params.f_spec
    av = np.abs(v)
    return -f.c0 * av**f.alpha / (1.0 + av) ** (2.0 * params.theta)


def g_term(t, params: ProblemParams):
    """Derivative in t of F(t) / (2 (1 + |t|)^{2 theta}); zero when F = 0,
    odd in t for the even power-law family."""
    f = params.f_spec
    if f.kind == "zero":
        return np.zeros(np.shape(t))[()]  # [()] makes a 0-d result a scalar
    theta = params.theta
    at = np.abs(t)
    return (
        -0.5
        * f.c0
        * np.sign(t)
        * np.power(at, f.alpha - 1.0)  # np.power: see phi_prime
        * np.power(1.0 + at, -2.0 * theta - 1.0)
        * (f.alpha * (1.0 + at) - 2.0 * theta * at)
    )


@dataclass(frozen=True)
class Point:
    """The objective at the substituted node values U = psi(u) of the field
    u; phi'(U) and the gradient in U are computed on first read."""

    params: ProblemParams
    grid: PolarGrid
    U: np.ndarray
    u: np.ndarray
    value: float
    dirichlet_grad: np.ndarray  # 2 AU

    @cached_property
    def dphi(self) -> np.ndarray:
        return phi_prime(self.U, self.params.theta)

    @cached_property
    def grad(self) -> np.ndarray:
        """2 AU - 2 w g(u) phi'(U), the exact gradient of the value."""
        if self.params.f_spec.kind == "zero":
            return self.dirichlet_grad
        g = g_term(self.u, self.params)
        return self.dirichlet_grad - 2.0 * self.grid.w * g * self.dphi


def evaluate(params: ProblemParams, grid: PolarGrid, U: np.ndarray, u: np.ndarray) -> Point:
    """Objective U.AU minus the quadrature of F(r, u)/(1+|u|)^{2 theta}, at
    the substituted values U = psi(u) of the field u."""
    grad = grid.stiffness(U)
    value = 0.5 * float(np.sum(U * grad))  # not a BLAS dot: the same at any thread count
    if params.f_spec.kind != "zero":
        value -= float(np.sum(grid.w * _f_over_weight(params, u)))
    return Point(params, grid, U, u, value, grad)


def eval_objective(params: ProblemParams, v: Field) -> float:
    """Energy of v: the objective of `evaluate` at v."""
    return evaluate(params, v.grid, psi(v.values, params.theta), v.values).value


def euler_residual(params: ProblemParams, u: Field, mult: Multipliers) -> Field:
    """Pointwise residual of the stationarity equation in U = psi(u):
    (A U)/w + (c + d |u|^{p-2} u - g(u)) phi'(U), the gradient of half
    the objective plus the dual-weighted constraint gradients, per unit
    weight."""
    grid = u.grid
    pt = evaluate(params, grid, psi(u.values, params.theta), u.values)
    pointwise = mult.c + mult.d * signed_power(pt.u, params.p)
    return Field(grid, 0.5 * pt.grad / grid.w + pointwise * pt.dphi)


def signed_power(u: np.ndarray, p: float) -> np.ndarray:
    """|u|^{p-2} u as sgn(u) |u|^{p-1}, which is finite at 0 for every p > 1."""
    return np.sign(u) * np.abs(u) ** (p - 1.0)


def multipliers_from_identities(params: ProblemParams, u: Field) -> Multipliers:
    """Recover the constraint duals from the integral identities obtained by
    testing the stationarity equation with 1 (for c) and with u (for d)."""
    theta = params.theta
    grid = u.grid
    uv = u.values
    au = np.abs(uv)
    gs = grad_sq(u).values
    g = g_term(uv, params)
    denom = (1.0 + au) ** (2.0 * theta + 1.0)
    d = float(
        np.sum(grid.w * uv * g) - np.sum(grid.w * gs * (1.0 + (1.0 - theta) * au) / denom)
    )
    area = grid.domain.area
    c = (
        float(np.sum(grid.w * g))
        + theta * float(np.sum(grid.w * gs * np.sign(uv) / denom))
        - d * float(np.sum(grid.w * signed_power(uv, params.p)))
    ) / area
    return Multipliers(c=c, d=d)


# --- JSON configuration -----------------------------------------------------

_F_KEYS = {"kind", "c0", "alpha"}
_DOMAIN_KEYS = {"kind", "r_inner", "r_outer"}
_TOP_KEYS = {"theta", "p", "q", "F", "domain"}


def config_to_dict(params: ProblemParams, domain: RadialDomain) -> dict:
    return {
        "theta": params.theta,
        "p": params.p,
        "F": asdict(params.f_spec),
        "domain": asdict(domain),
    }


def _number(doc: dict, key: str, default: float | None = None) -> float:
    """doc[key] as a float; an absent key takes the default, if there is one."""
    if key not in doc:
        if default is None:
            raise ValueError(f"missing configuration value {key!r}")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"configuration value {key!r} must be a number, not {value!r}")
    return float(value)


def config_from_dict(doc: dict) -> tuple[ProblemParams, RadialDomain]:
    if not isinstance(doc, dict):
        raise ValueError("configuration must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown configuration fields: {sorted(unknown)}")
    missing = {"theta", "p", "domain"} - set(doc)
    if missing:
        raise ValueError(f"missing configuration fields: {sorted(missing)}")
    fdoc = doc.get("F", {"kind": "zero"})
    if not isinstance(fdoc, dict) or set(fdoc) - _F_KEYS or "kind" not in fdoc:
        raise ValueError("malformed F specification")
    f = FSpec(fdoc["kind"], c0=_number(fdoc, "c0", 0.0), alpha=_number(fdoc, "alpha", 0.0))
    ddoc = doc["domain"]
    if not isinstance(ddoc, dict) or set(ddoc) - _DOMAIN_KEYS or "kind" not in ddoc:
        raise ValueError("malformed domain specification")
    # a disk defaults to the unit disk; an annulus states both radii
    r_in, r_out = (0.0, 1.0) if ddoc["kind"] == "disk" else (None, None)
    dom = RadialDomain(
        ddoc["kind"], _number(ddoc, "r_inner", r_in), _number(ddoc, "r_outer", r_out)
    )
    params = ProblemParams(theta=_number(doc, "theta"), p=_number(doc, "p"), f_spec=f)
    # a configuration may state the Sobolev exponent q of the continuum
    # formulation; no computation reads it, so it is range-checked and dropped
    if doc.get("q") is not None:
        q, qlo = _number(doc, "q"), 2.0 * (1.0 - params.theta)
        qhi = 2.0 if params.theta > 0 else 2.0 + 1e-12
        if not (qlo - 1e-12 <= q <= qhi):
            raise ValueError(f"q must lie in [2(1-theta), 2) = [{qlo}, 2)")
    return params, dom


def config_to_json(params: ProblemParams, domain: RadialDomain) -> str:
    return json.dumps(config_to_dict(params, domain), sort_keys=True, indent=2)


def config_from_json(text: str) -> tuple[ProblemParams, RadialDomain]:
    return config_from_dict(json.loads(text))
