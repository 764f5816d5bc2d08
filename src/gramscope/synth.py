"""Synthetic experiments, data tables, and the schema of every record.

States are drawn uniformly (Haar) from the pure states; measurements are
obtained by Haar-rotating a computational-basis projective measurement.
Data tables hold outcome probabilities (asymptotic) or frequencies (finite
shot count); ``estimator.born_table`` builds them. A record's annotations
are its schema: ``check_types`` is the one rule of what a field may hold,
``from_json`` reads a record, nested ones too, and ``dump_json`` writes one.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .hermitian import hermiticity_residual


@dataclass(frozen=True)
class Ensemble:
    """Ground truth of a synthetic experiment: W states and V POVMs of K outcomes."""

    dim: int
    states: list = field(default_factory=list)
    povms: list = field(default_factory=list)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_measurements(self) -> int:
        return len(self.povms)

    @property
    def n_outcomes(self) -> int:
        return len(self.povms[0]) if self.povms else 0


#: Largest |sum - 1| of the outcome frequencies of one (state, measurement).
ROW_SUM_TOL = 1e-9
#: Largest violation of a state or POVM invariant that ``validate_ensemble`` accepts.
ENSEMBLE_TOL = 1e-10


@dataclass(frozen=True)
class DataTable:
    """W x (V*K) table of outcome probabilities or frequencies.

    ``shots`` is None for asymptotic (Born-rule) tables. Column (v, k) sits
    at index v*K + k. A table checks itself when it is built: the counts
    and ``shots`` are integers >= 1, and ``values`` (stored as a float
    array; a None cell reads as NaN) has shape (W, V*K), finite entries in
    [0, 1], and each (state, measurement) block sums to 1 within
    ``ROW_SUM_TOL``. ``values`` is a read-only copy, so a table stays as it
    was checked and the caller's array stays writable.
    """

    values: np.ndarray
    n_states: int
    n_measurements: int
    n_outcomes: int
    shots: int | None = None

    def __post_init__(self):
        check_types(self)
        for name in ("n_states", "n_measurements", "n_outcomes", "shots"):
            count = getattr(self, name)
            if count is not None and count < 1:
                raise ValueError(f"{name} must be >= 1, got {count}")
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.dtype.kind == "f"):
            for cell in np.asarray(vals, dtype=object).flat:
                if cell is not None and (
                    isinstance(cell, bool) or not isinstance(cell, numbers.Real)
                ):
                    raise ValueError(f"values must be numbers, got {cell!r}")
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


def validate_ensemble(ens: Ensemble) -> None:
    """Check state/POVM invariants, each POVM a projective measurement
    (tr(E_k E_q) = delta_kq tr(E_k), any degeneracy pattern); raise
    ValueError on the first violation."""
    d = ens.dim
    for w, rho in enumerate(ens.states):
        if rho.shape != (d, d):
            raise ValueError(f"state {w} has shape {rho.shape}, expected ({d}, {d})")
        if hermiticity_residual(rho) > ENSEMBLE_TOL:
            raise ValueError(f"state {w} is not Hermitian")
        lam = np.linalg.eigvalsh(rho)
        if lam.min() < -ENSEMBLE_TOL:
            raise ValueError(f"state {w} is not PSD (lambda_min={lam.min():.3e})")
        if abs(np.trace(rho).real - 1.0) > ENSEMBLE_TOL:
            raise ValueError(f"state {w} has trace {np.trace(rho).real}")
    for v, povm in enumerate(ens.povms):
        total = np.zeros((d, d), dtype=complex)
        for k, eff in enumerate(povm):
            if hermiticity_residual(eff) > ENSEMBLE_TOL:
                raise ValueError(f"effect ({v},{k}) is not Hermitian")
            if np.linalg.eigvalsh(eff).min() < -ENSEMBLE_TOL:
                raise ValueError(f"effect ({v},{k}) is not PSD")
            total += eff
            for q, eq in enumerate(povm):
                overlap = np.trace(eff @ eq).real
                if abs(overlap - (np.trace(eff).real if k == q else 0.0)) > 1e-9:
                    raise ValueError(f"POVM {v} effects ({k},{q}) are not orthogonal projectors")
        if np.max(np.abs(total - np.eye(d))) > ENSEMBLE_TOL:
            raise ValueError(f"POVM {v} does not sum to the identity")


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary via QR of a complex Ginibre matrix.

    The R diagonal is phase-fixed so the distribution is exactly Haar.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def sample_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state |psi><psi| from a normalized complex Gaussian."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def sample_mixed_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix rho = A A^dag / tr(A A^dag)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


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
    if not isinstance(mults, list) or any(
        isinstance(m, bool) or not isinstance(m, numbers.Integral) for m in mults
    ):
        raise ValueError(f"degeneracy pattern {mults!r} must be a list of integer multiplicities")
    k_ = len(mults) if n_outcomes is None else n_outcomes
    if len(mults) != k_ or sum(mults) != d or any(m < 1 for m in mults):
        raise ValueError(
            f"degeneracy pattern {mults} inconsistent with K={k_}, d={d}: "
            "it needs K positive multiplicities summing to d"
        )
    return list(mults)


def sample_projective_measurement(
    d: int,
    rng: np.random.Generator,
    degeneracies: list[int] | None = None,
) -> list[np.ndarray]:
    """Haar-rotated projective measurement.

    With no ``degeneracies`` the effects are the d rank-1 projectors
    U |k><k| U^dag. A degeneracy pattern (checked by
    ``projective_multiplicities``) groups consecutive basis vectors into
    higher-rank projectors.
    """
    mults = projective_multiplicities(d, None, degeneracies)
    u = haar_unitary(d, rng)
    effects = []
    start = 0
    for mult in mults:
        block = u[:, start : start + mult]
        effects.append(block @ block.conj().T)
        start += mult
    return effects


def sample_ensemble(
    d: int,
    n_states: int,
    n_measurements: int,
    rng: np.random.Generator,
    mixed: bool = False,
    degeneracies: list[int] | None = None,
) -> Ensemble:
    """Sample a full ensemble of Haar states and Haar-rotated projective POVMs."""
    states = [
        sample_mixed_state(d, rng) if mixed else sample_pure_state(d, rng)
        for _ in range(n_states)
    ]
    povms = [sample_projective_measurement(d, rng, degeneracies) for _ in range(n_measurements)]
    return Ensemble(dim=d, states=states, povms=povms)


def born_probabilities(rho: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Born probabilities tr(rho E) of one state for each effect E of a
    stack of shape (..., d, d), one contraction for the whole stack."""
    return np.trace(rho @ effects, axis1=-2, axis2=-1).real


#: The resolved annotations of a dataclass, read once per class.
field_types = functools.cache(typing.get_type_hints)


def check_types(obj) -> None:
    """The one type rule: raise ValueError naming the first field of the
    dataclass ``obj`` not meeting its annotation. ``int`` takes an integer,
    ``float`` a finite real (neither a bool), ``bool`` a bool, ``str`` a
    string, a record an instance of it, ``list[X]`` a list of X (a bad item
    named by index: ``templates[1]``), ``X | None`` None too; others anything."""
    for name, kind in field_types(type(obj)).items():
        _check(kind, getattr(obj, name), name)


def _check(kind, value, place: str) -> None:
    if kind is int:
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
    the schema, and a key that is not a field raises ValueError naming it. A
    JSON object given for a record, alone or in a list, is built by this same
    function; an error in it names its place (``templates[0].solver: ...``).
    Any other value goes to ``cls`` as it is, for ``check_types`` to judge."""
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {obj!r}")
    if extra := obj.keys() - field_types(cls):
        raise ValueError(f"unknown {cls.__name__} key(s): {sorted(extra)}")
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
    """Write ``obj`` as JSON with a stable layout, so identical content is
    byte-identical; a record is written by ``_encode``. An object JSON
    cannot hold raises TypeError before ``path`` is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_encode)
    Path(path).write_text(text + "\n")
