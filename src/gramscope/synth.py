"""Synthetic experiments: random ensembles, Born probabilities, and the
serializers of ensembles and data tables.

States are drawn uniformly (Haar) from the pure states; measurements are
obtained by Haar-rotating a computational-basis projective measurement.
Data tables hold outcome probabilities (asymptotic) or outcome
frequencies (finite shot count); ``estimator.born_table`` builds them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .hermitian import hermiticity_residual


@dataclass(frozen=True)
class Ensemble:
    """Ground truth of a synthetic experiment: W states and V POVMs of K outcomes.

    ``projective_nondegenerate`` marks ensembles whose measurements are
    rank-1 orthogonal projector POVMs (then K = dim).
    """

    dim: int
    states: list = field(default_factory=list)
    povms: list = field(default_factory=list)
    projective_nondegenerate: bool = False

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_measurements(self) -> int:
        return len(self.povms)

    @property
    def n_outcomes(self) -> int:
        return len(self.povms[0]) if self.povms else 0


@dataclass(frozen=True)
class DataTable:
    """W x (V*K) table of outcome probabilities or frequencies.

    ``shots`` is None for asymptotic (Born-rule) tables. Column (v, k) sits
    at index v*K + k.
    """

    values: np.ndarray
    n_states: int
    n_measurements: int
    n_outcomes: int
    shots: int | None = None


def validate_ensemble(ens: Ensemble, tol: float = 1e-10) -> None:
    """Check state/POVM invariants; raise ValueError on the first violation."""
    d = ens.dim
    for w, rho in enumerate(ens.states):
        if rho.shape != (d, d):
            raise ValueError(f"state {w} has shape {rho.shape}, expected ({d}, {d})")
        if hermiticity_residual(rho) > tol:
            raise ValueError(f"state {w} is not Hermitian")
        lam = np.linalg.eigvalsh(rho)
        if lam.min() < -tol:
            raise ValueError(f"state {w} is not PSD (lambda_min={lam.min():.3e})")
        if abs(np.trace(rho).real - 1.0) > tol:
            raise ValueError(f"state {w} has trace {np.trace(rho).real}")
    for v, povm in enumerate(ens.povms):
        total = np.zeros((d, d), dtype=complex)
        for k, eff in enumerate(povm):
            if hermiticity_residual(eff) > tol:
                raise ValueError(f"effect ({v},{k}) is not Hermitian")
            if np.linalg.eigvalsh(eff).min() < -tol:
                raise ValueError(f"effect ({v},{k}) is not PSD")
            total += eff
        if np.max(np.abs(total - np.eye(d))) > tol:
            raise ValueError(f"POVM {v} does not sum to the identity")
    if ens.projective_nondegenerate:
        for v, povm in enumerate(ens.povms):
            if len(povm) != d:
                raise ValueError(f"projective non-degenerate POVM {v} must have {d} outcomes")
            for k, ek in enumerate(povm):
                for q, eq in enumerate(povm):
                    overlap = np.trace(ek @ eq).real
                    if abs(overlap - (1.0 if k == q else 0.0)) > 1e-9:
                        raise ValueError(f"POVM {v} effects ({k},{q}) are not orthogonal projectors")


def validate_table(table: DataTable, tol: float = 1e-9) -> None:
    """Check range and per-measurement row-sum invariants of a data table."""
    vals = table.values
    if vals.shape != (table.n_states, table.n_measurements * table.n_outcomes):
        raise ValueError(f"table shape {vals.shape} inconsistent with metadata")
    if vals.min() < -1e-12 or vals.max() > 1 + 1e-12:
        raise ValueError("table entries outside [0, 1]")
    blocks = vals.reshape(table.n_states, table.n_measurements, table.n_outcomes)
    sums = blocks.sum(axis=2)
    if np.max(np.abs(sums - 1.0)) > tol:
        raise ValueError("per-measurement outcome frequencies do not sum to 1")


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


def sample_projective_measurement(
    d: int,
    rng: np.random.Generator,
    degeneracies: list[int] | None = None,
) -> list[np.ndarray]:
    """Haar-rotated projective measurement.

    With no ``degeneracies`` the effects are the d rank-1 projectors
    U |k><k| U^dag. A degeneracy pattern (multiplicities summing to d)
    groups consecutive basis vectors into higher-rank projectors.
    """
    if degeneracies is not None:
        if any(m < 1 for m in degeneracies) or sum(degeneracies) != d:
            raise ValueError(f"degeneracies {degeneracies} must be positive and sum to {d}")
    else:
        degeneracies = [1] * d
    u = haar_unitary(d, rng)
    effects = []
    start = 0
    for mult in degeneracies:
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
    return Ensemble(
        dim=d,
        states=states,
        povms=povms,
        projective_nondegenerate=degeneracies is None,
    )


def born_probabilities(rho: np.ndarray, povm: list[np.ndarray]) -> np.ndarray:
    """Outcome probabilities tr(rho E_k) for one state and one measurement."""
    return np.array([np.trace(rho @ e).real for e in povm])


# ---------------------------------------------------------------------------
# Serialization: complex scalars as [re, im] pairs, matrices row-major.

def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def ensemble_to_json(ens: Ensemble) -> dict:
    return {
        "dim": ens.dim,
        "projective_nondegenerate": ens.projective_nondegenerate,
        "states": [_matrix_to_json(rho) for rho in ens.states],
        "povms": [[_matrix_to_json(e) for e in povm] for povm in ens.povms],
    }


def table_to_json(table: DataTable) -> dict:
    return {
        "n_states": table.n_states,
        "n_measurements": table.n_measurements,
        "n_outcomes": table.n_outcomes,
        "shots": table.shots,
        "values": [[float(x) for x in row] for row in table.values],
    }


def check_types(obj) -> None:
    """Raise ValueError naming the first field of the dataclass ``obj``
    whose value does not match its annotation: ``int`` fields hold
    integers (not bools), ``float`` fields finite real numbers (not bools)
    and ``bool`` fields bools; ``X | None`` also admits None. Other
    annotations are not checked."""
    for f in fields(obj):
        kind, _, rest = f.type.partition(" | ")
        value = getattr(obj, f.name)
        if value is None and rest == "None":
            continue
        if kind == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if kind == "float" and (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
        ):
            raise ValueError(f"{f.name} must be a finite real number, got {value!r}")
        if kind == "bool" and not isinstance(value, bool):
            raise ValueError(f"{f.name} must be true or false, got {value!r}")


def from_json(cls, obj: dict, **nested):
    """Build the dataclass ``cls`` from a JSON dict. A key that is not a
    field of ``cls`` raises ValueError naming it; ``nested`` maps a field
    name to the function that builds its value from its JSON."""
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {obj!r}")
    extra = set(obj) - {f.name for f in fields(cls)}
    if extra:
        raise ValueError(f"unknown {cls.__name__} key(s): {sorted(extra)}")
    kwargs = dict(obj)
    for name, build in nested.items():
        if name in kwargs:
            kwargs[name] = build(kwargs[name])
    return cls(**kwargs)


def table_from_json(obj: dict) -> DataTable:
    """Inverse of ``table_to_json``; an unknown key or a count that is not
    an integer (a float or a bool) raises ValueError naming its key."""
    table = from_json(DataTable, obj, values=lambda v: np.array(v, dtype=float))
    check_types(table)
    return table


def table_to_csv(table: DataTable) -> str:
    """Long-format CSV with header row "w, v, k, f"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["w", "v", "k", "f"])
    k_ = table.n_outcomes
    for w in range(table.n_states):
        for v in range(table.n_measurements):
            for k in range(k_):
                writer.writerow([w, v, k, repr(float(table.values[w, v * k_ + k]))])
    return buf.getvalue()


def dump_json(obj: dict, path) -> None:
    """Write JSON with a stable layout so identical content is byte-identical."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
