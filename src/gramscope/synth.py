"""Synthetic experiments, data tables, and the schema of every record.

``sample_ensemble`` draws states uniformly (Haar) from the pure states, or
full-rank mixed ones, and measurements by Haar-rotating a computational-basis
projective measurement, all states as one stack and all measurements as
another; an ``Ensemble`` holds them as checked stacks. Data tables hold outcome
probabilities (asymptotic) or frequencies (finite shot count);
``estimator.born_table`` builds them. A record's annotations
are its schema: ``check_types`` is the one rule of what a field may hold,
``from_json`` reads a record, nested ones too, and ``dump_json`` writes one.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .hermitian import hermiticity_residual


@dataclass(frozen=True)
class Ensemble:
    """W states and V projective K-outcome measurements on C^d, as read-only complex
    copies: stacks ``states`` (W, d, d) and ``povms`` (V, K, d, d), an empty input the
    empty stack. Checked when built, rule by rule on whole stacks: states Hermitian, PSD,
    trace 1; effects Hermitian, PSD; POVMs summing to I, each within ``ENSEMBLE_TOL``; and
    POVMs projective, tr(E_k E_q) = delta_kq tr(E_k) within 1e-9. Errors name the first
    bad state, effect or POVM."""

    dim: Annotated[int, (">=", 1)]
    states: np.ndarray = ()
    povms: np.ndarray = ()

    def __post_init__(self):
        check_types(self)
        d = self.dim
        for name, ndim in (("states", 3), ("povms", 4)):
            try:
                stack = np.array(getattr(self, name), dtype=complex)
            except (TypeError, ValueError):  # ragged, or an entry that is no number
                stack = None
            if stack is not None and stack.shape == (0,):
                stack = stack.reshape((0,) * (ndim - 2) + (d, d))
            if stack is None or stack.ndim != ndim or stack.shape[-2:] != (d, d):
                raise ValueError(_misshapen(self.states, self.povms, d))
            stack.flags.writeable = False
            object.__setattr__(self, name, stack)
        states, povms = self.states, self.povms
        lam, tr = np.linalg.eigvalsh(states).min(axis=-1), np.trace(states, axis1=1, axis2=2).real
        own = np.eye(povms.shape[1]) * np.trace(povms, axis1=2, axis2=3).real[..., None]
        overlap = np.einsum("vkij,vqji->vkq", povms, povms).real - own
        total = np.abs(povms.sum(axis=1) - np.eye(d)).max(axis=(1, 2))
        for ok, message in (  # a NaN entry breaks every rule it enters
            (hermiticity_residual(states) <= ENSEMBLE_TOL, "state {} is not Hermitian"),
            (lam >= -ENSEMBLE_TOL, lambda w: f"state {w} is not PSD (lambda_min={lam[w]:.3e})"),
            (np.abs(tr - 1.0) <= ENSEMBLE_TOL, lambda w: f"state {w} has trace {tr[w]}"),
            (hermiticity_residual(povms) <= ENSEMBLE_TOL, "effect ({},{}) is not Hermitian"),
            (np.linalg.eigvalsh(povms).min(axis=-1) >= -ENSEMBLE_TOL, "effect ({},{}) is not PSD"),
            (np.abs(overlap) <= 1e-9, "POVM {} effects ({},{}) are not orthogonal projectors"),
            (total <= ENSEMBLE_TOL, "POVM {} does not sum to the identity"),
        ):
            if not ok.all():
                at = np.argwhere(~ok)[0]
                raise ValueError(message(*at) if callable(message) else message.format(*at))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_measurements(self) -> int:
        return len(self.povms)

    @property
    def n_outcomes(self) -> int:
        return self.povms.shape[1]


def _misshapen(states, povms, d: int) -> str:
    """The error naming the first misshapen state, POVM or effect of input that did not stack."""
    for w, rho in enumerate(states):
        if np.shape(rho) != (d, d):
            return f"state {w} has shape {np.shape(rho)}, expected ({d}, {d})"
    for v, povm in enumerate(povms):
        if len(povm) != len(povms[0]):
            return f"POVM {v} has {len(povm)} effects, expected {len(povms[0])}"
        for k, eff in enumerate(povm):
            if np.shape(eff) != (d, d):
                return f"effect ({v},{k}) has shape {np.shape(eff)}, expected ({d}, {d})"
    return f"states and povms must be complex stacks of shape (W, {d}, {d}) and (V, K, {d}, {d})"


#: Largest |sum - 1| of the outcome frequencies of one (state, measurement).
ROW_SUM_TOL = 1e-9
#: Largest violation of a state or POVM invariant that an ``Ensemble`` accepts,
#: but for the projectors' overlaps, which it holds to 1e-9.
ENSEMBLE_TOL = 1e-10


@dataclass(frozen=True)
class DataTable:
    """W x (V*K) table of outcome probabilities or frequencies.

    ``shots`` is None for asymptotic (Born-rule) tables. Column (v, k) sits
    at index v*K + k. A table checks itself when it is built: the counts
    and ``shots`` are integers >= 1, and ``values`` (stored as a float
    array) has shape (W, V*K), finite entries in [0, 1], and each (state,
    measurement) block sums to 1 within ``ROW_SUM_TOL``. Any input but a
    float array is first checked cell by cell by the type rule's ``float``
    line, which names the cell (``values[0][3]``). ``values`` is a
    read-only copy, so a table stays as it was checked and the caller's
    array stays writable.
    """

    values: np.ndarray
    n_states: Annotated[int, (">=", 1)]
    n_measurements: Annotated[int, (">=", 1)]
    n_outcomes: Annotated[int, (">=", 1)]
    shots: Annotated[int, (">=", 1)] | None = None

    def __post_init__(self):
        check_types(self)
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.dtype.kind == "f"):
            for at, cell in np.ndenumerate(np.asarray(vals, dtype=object)):
                _check(float, cell, "values" + "".join(f"[{i}]" for i in at))
        vals = np.array(vals, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.n_states, self.n_measurements * self.n_outcomes):
            raise ValueError(f"table shape {vals.shape} inconsistent with metadata")
        if not np.isfinite(vals).all():
            raise ValueError("table entries must be finite numbers")
        if vals.min() < -1e-12 or vals.max() > 1 + 1e-12:
            raise ValueError("table entries outside [0, 1]")
        sums = vals.reshape(self.n_states, self.n_measurements, self.n_outcomes).sum(axis=2)
        if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
            raise ValueError("per-measurement outcome frequencies do not sum to 1")


def projective_multiplicities(
    d: int, n_outcomes: int | None, degeneracies: list[int] | None = None
) -> list[int]:
    """Outcome multiplicities of a projective K-outcome measurement, one
    pattern shared by every measurement: ``degeneracies`` as given, or
    [1] * d (non-degenerate) without one. Raises ValueError unless it is a
    list of K positive integers summing to d; ``n_outcomes`` None takes K
    as the pattern's length.
    """
    mults = [1] * d if degeneracies is None else degeneracies
    _check(list[int], mults, "degeneracies")
    k_ = len(mults) if n_outcomes is None else n_outcomes
    if len(mults) != k_ or sum(mults) != d or any(m < 1 for m in mults):
        raise ValueError(
            f"degeneracy pattern {mults} inconsistent with K={k_}, d={d}: "
            "it needs K positive multiplicities summing to d"
        )
    return list(mults)


def sample_ensemble(
    d: int,
    n_states: int,
    n_measurements: int,
    rng: np.random.Generator,
    mixed: bool = False,
    degeneracies: list[int] | None = None,
) -> Ensemble:
    """W random states and V Haar-rotated projective measurements on C^d,
    drawn from ``rng`` as two stacks: the states' Gaussians first, then the
    measurements'. The draws are those of W calls with (W, V) = (1, 0)
    followed by V calls with (0, 1).

    A pure state is |psi><psi| of a normalized complex Gaussian psi (Haar);
    a mixed one is A A^dag / tr(A A^dag) of a complex Ginibre A (full rank).
    A measurement's effects are U |k><k| U^dag, with U the QR factor of a
    complex Ginibre matrix whose R diagonal is phase-fixed, so that U is
    exactly Haar (Mezzadri 2007). A degeneracy pattern (checked by
    ``projective_multiplicities``) groups consecutive columns of U into
    higher-rank projectors.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    edges = np.cumsum([0] + projective_multiplicities(d, None, degeneracies))
    a = rng.standard_normal((n_states, 2, d, d) if mixed else (n_states, 2, d))
    a = a[:, 0] + 1j * a[:, 1]
    if mixed:
        rho = a @ a.conj().transpose(0, 2, 1)
        states = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    else:  # one dot per state, as numpy.linalg.norm takes it: a row-wise norm moves last bits
        psi = a / np.sqrt([v.real @ v.real + v.imag @ v.imag for v in a])[:, None]
        states = psi[:, :, None] * psi.conj()[:, None, :]
    z = rng.standard_normal((n_measurements, 2, d, d))
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))
    ph = np.diagonal(r, axis1=1, axis2=2)
    u = q * (ph / np.abs(ph))[:, None, :]
    blocks = [u[:, :, lo:hi] for lo, hi in zip(edges, edges[1:])]
    povms = np.stack([b @ b.conj().transpose(0, 2, 1) for b in blocks], axis=1)
    # a list, so that no measurements give the empty stack of ``Ensemble()``
    return Ensemble(dim=d, states=states, povms=list(povms))


def born_probabilities(rho: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Born probabilities tr(rho E) of a stack of states times a stack of
    effects in one contraction: (W, 1, 1, d, d) and (V, K, d, d) give (W, V, K)."""
    return np.trace(rho @ effects, axis1=-2, axis2=-1).real


#: The resolved annotations of a dataclass, read once per class: plain
#: types, or with ``include_extras=True`` their bounds too.
field_types = functools.cache(typing.get_type_hints)

#: The comparisons a bound in an annotation may make.
LIMITS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def check_types(obj) -> None:
    """The one type rule: raise ValueError naming the first field of the
    dataclass ``obj`` not meeting its annotation. ``int`` takes an integer,
    ``float`` a finite real (neither a bool), ``bool`` a bool, ``str`` a
    string, a record an instance of it, ``list[X]`` a list of X (a bad item
    named by index: ``templates[1]``), ``X | None`` None too,
    ``Annotated[X, (op, limit), ...]`` an X held to each limit, with ``op``
    one of ``LIMITS`` (``d must be >= 1, got 0``); others anything."""
    for name, kind in field_types(type(obj), include_extras=True).items():
        _check(kind, getattr(obj, name), name)


def _check(kind, value, place: str) -> None:
    if typing.get_origin(kind) is Annotated:
        _check(kind.__origin__, value, place)
        for op, limit in kind.__metadata__:
            if not LIMITS[op](value, limit):
                raise ValueError(f"{place} must be {op} {limit}, got {value!r}")
    elif kind is int:
        if type(value) is bool or not isinstance(value, numbers.Integral):
            raise ValueError(f"{place} must be an integer, got {value!r}")
    elif kind is float:
        if type(value) is bool or not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise ValueError(f"{place} must be a finite real number, got {value!r}")
    elif kind in (bool, str) or is_dataclass(kind):
        if not isinstance(value, kind):
            what = {bool: "true or false", str: "a string"}.get(kind, f"a {kind.__name__}")
            raise ValueError(f"{place} must be {what}, got {value!r}")
    elif type(None) in typing.get_args(kind) and value is not None:  # X | None
        _check(typing.get_args(kind)[0], value, place)
    elif typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ValueError(f"{place} must be a list, got {value!r}")
        for i, item in enumerate(value):
            _check(typing.get_args(kind)[0], item, f"{place}[{i}]")


def from_json(cls, obj: dict):
    """Build the dataclass ``cls`` from a JSON dict; its ``field_types`` are
    the schema, and a key that is not a field, or a field with no default
    and no key, raises ValueError naming it. A JSON object given for a
    record, alone or in a list, is built by this same function; an error in
    it names its place (``templates[0].solver: ...``).
    Any other value goes to ``cls`` as it is, for ``check_types`` to judge."""
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {obj!r}")
    if extra := obj.keys() - field_types(cls):
        raise ValueError(f"unknown {cls.__name__} key(s): {sorted(extra)}")
    required = [f.name for f in fields(cls) if f.default is MISSING is f.default_factory]
    if missing := [name for name in required if name not in obj]:
        raise ValueError(f"missing {cls.__name__} key(s): {missing}")
    return cls(**{name: _nested(field_types(cls)[name], v, name) for name, v in obj.items()})


class _Placed(ValueError):
    """An error in a nested record, prefixed by its place."""


def _nested(kind, value, place: str):
    if typing.get_origin(kind) is list and isinstance(value, list):
        return [_nested(typing.get_args(kind)[0], v, f"{place}[{i}]") for i, v in enumerate(value)]
    try:
        return from_json(kind, value) if is_dataclass(kind) and isinstance(value, dict) else value
    except ValueError as exc:
        raise _Placed(f"{place}{'.' if isinstance(exc, _Placed) else ': '}{exc}") from exc


def _encode(obj):
    """``json.dump``'s hook for what JSON has no type for: a dataclass is
    written as its fields, an array as nested lists (a complex entry as
    its [re, im] pair) and a numpy scalar as the Python number it holds."""
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack([obj.real, obj.imag], axis=-1)
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def dump_json(obj, path) -> None:
    """Write ``obj`` as one line of JSON with sorted keys, so identical
    content is byte-identical; a record is written by ``_encode``. An
    object JSON cannot hold raises TypeError before ``path`` is opened.
    No indent: one makes ``json.dumps`` leave its C encoder for Python's."""
    text = json.dumps(obj, sort_keys=True, default=_encode)
    Path(path).write_text(text + "\n")
