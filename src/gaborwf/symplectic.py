"""Quadratic Hamiltonians on phase space: Hamilton maps, singular spaces,
Poisson-bracket test, flow matrices, and set-valued propagation of conic
direction sets.

A quadratic form ``q(X) = <X, Q X>`` with complex symmetric ``Q`` and
``Re Q >= 0`` generates the evolution; its Hamilton map is ``F = J Q`` with
``J = [[0, I], [-I, 0]]``.  The singular space

    S = intersect_{j=0..2d-1} Ker[Re F (Im F)^j]   (real vectors)

is the locus where the evolution does not smooth; direction sets propagate by
``(e^{2 t Im F}(W \\cap S)) \\cap S`` and exactly by ``e^{2 t Im F}`` when
``Re Q = 0``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

BRACKET_TOL = 1e-12  # relative to |Q|^2
SPACE_TOL = 1e-8  # distance from S under which a unit generator lies in S


def standard_symplectic_matrix(d: int) -> np.ndarray:
    """J = [[0, I], [-I, 0]] acting on (x, xi) blocks."""
    eye, zero = np.eye(d), np.zeros((d, d))
    return np.block([[zero, eye], [-eye, zero]])


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Complex symmetric 2d x 2d matrix with positive semidefinite real part."""

    dim: int
    Q: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=np.complex128)
        if Q.shape != (2 * self.dim, 2 * self.dim):
            raise ValueError(f"Q must be {2 * self.dim} x {2 * self.dim}")
        # NaN fails no comparison below and would surface as a failed SVD
        bad = np.argwhere(~np.isfinite(Q))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"Q[{i}, {j}] must be finite, got {Q[i, j]}")
        if np.linalg.norm(Q - Q.T) > 1e-12 * max(1.0, np.linalg.norm(Q)):
            raise ValueError("Q must be symmetric")
        eig = np.linalg.eigvalsh((Q.real + Q.real.T) / 2)
        if eig.min() < -1e-12 * max(1.0, abs(eig).max()):
            raise ValueError("Re Q must be positive semidefinite")
        Qc = np.ascontiguousarray(Q)
        Qc.flags.writeable = False
        object.__setattr__(self, "Q", Qc)

    @classmethod
    def from_matrix(cls, Q) -> "QuadraticHamiltonian":
        Q = np.asarray(Q, dtype=np.complex128)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] % 2:
            raise ValueError("Q must be square with even size")
        return cls(Q.shape[0] // 2, Q)

    @classmethod
    def from_json(cls, payload: str | dict) -> "QuadraticHamiltonian":
        """Parse ``{"dim": d, "re": [[...]], "im": [[...]]}``."""
        obj = json.loads(payload) if isinstance(payload, str) else payload
        if not isinstance(obj, dict):
            raise ValueError(f"a Hamiltonian must be a JSON object, got {type(obj).__name__}")
        dim = obj["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
        return cls(dim, re + 1j * im)


@dataclass(frozen=True)
class SingularSpace:
    """Orthonormal real basis of S; an empty basis means S = {0}."""

    basis: np.ndarray  # shape (2d, k), columns orthonormal

    @property
    def subspace_dim(self) -> int:
        return self.basis.shape[1]

    def distance(self, v: np.ndarray) -> float:
        """Euclidean distance from v to S."""
        v = np.asarray(v, dtype=float)
        return float(np.linalg.norm(v - self.basis @ (self.basis.T @ v)))


def hamilton_map(q: QuadraticHamiltonian) -> np.ndarray:
    """The Hamilton map ``F = J Q``; callers use ``F.real`` and ``F.imag``."""
    return standard_symplectic_matrix(q.dim) @ q.Q


def _real_kernel(rows: list[np.ndarray], tol: float, size: int) -> np.ndarray:
    """Orthonormal basis of the common real kernel of complex matrices.

    Real and imaginary parts are stacked so the kernel is taken over real
    vectors; SVD with a relative threshold gives the numerical null space.
    A NaN or infinite ``tol`` would keep every or no direction.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    stacked = np.vstack([np.vstack([m.real, m.imag]) for m in rows])
    if np.linalg.norm(stacked) == 0:
        return np.eye(size)
    _, s, vt = np.linalg.svd(stacked)
    cutoff = tol * s.max()
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T.copy()


def singular_space(q: QuadraticHamiltonian, tol: float = 1e-10) -> SingularSpace:
    """Common kernel of ``Re F (Im F)^j``, j = 0..2d-1, over real phase space."""
    F = hamilton_map(q)
    d2 = 2 * q.dim
    rows = []
    power = np.eye(d2, dtype=np.complex128)
    for _ in range(d2):
        rows.append(F.real @ power)
        power = F.imag @ power
    return SingularSpace(_real_kernel(rows, tol, d2))


def ker_re_f(q: QuadraticHamiltonian, tol: float = 1e-10) -> SingularSpace:
    """Null space of Re F alone.

    Coincides with the singular space when the Poisson bracket of the symbol
    with its conjugate vanishes; callers should check
    ``poisson_bracket_vanishes`` first (a mismatch is not an error here).
    """
    F = hamilton_map(q)
    return SingularSpace(_real_kernel([F.real.astype(np.complex128)], tol, 2 * q.dim))


def poisson_bracket_form(q: QuadraticHamiltonian) -> np.ndarray:
    """Symmetric matrix B of the quadratic form ``X -> {q, qbar}(X)``.

    With ``grad q(X) = 2 Q X`` and ``{f, g} = <J grad f, grad g>`` the form is
    ``4 X^T conj(Q) J Q X``; B is its symmetrization.  Validated against a
    finite-difference gradient oracle in the test suite.
    """
    J = standard_symplectic_matrix(q.dim)
    M = 4.0 * np.conj(q.Q) @ J @ q.Q
    return (M + M.T) / 2


def poisson_bracket_vanishes(q: QuadraticHamiltonian) -> bool:
    B = poisson_bracket_form(q)
    scale = max(1.0, float(np.linalg.norm(q.Q)) ** 2)
    return bool(np.linalg.norm(B) <= BRACKET_TOL * scale)


def flow_matrix(q: QuadraticHamiltonian, t: float) -> np.ndarray:
    """``e^{2 t Im F}``, the linear phase-space flow transporting directions.

    For ``Q = i I`` this is the exact rotation
    ``[[cos 2t I, sin 2t I], [-sin 2t I, cos 2t I]]``; general Q goes through
    the scaling-and-squaring matrix exponential.
    """
    eye = np.eye(q.dim)
    if np.allclose(q.Q, 1j * np.eye(2 * q.dim), atol=1e-14):
        c, s = np.cos(2 * t), np.sin(2 * t)
        return np.block([[c * eye, s * eye], [-s * eye, c * eye]])
    # scipy costs a third of a second to import; only a general Q needs it
    from scipy.linalg import expm

    return expm(2.0 * t * hamilton_map(q).imag)


def is_symplectic(M: np.ndarray, tol: float = 1e-10) -> bool:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        return False
    J = standard_symplectic_matrix(M.shape[0] // 2)
    return bool(np.linalg.norm(M.T @ J @ M - J) <= tol)


def propagate_wf_set(q: QuadraticHamiltonian, t: float, dirs: np.ndarray | list) -> np.ndarray:
    """Forecast ``(e^{2 t Im F}(W cap S)) cap S`` on unit generators.

    Generators farther than ``SPACE_TOL`` from S are dropped, survivors are
    moved by the flow, renormalized, and filtered against S again.  When
    ``Re Q = 0`` the singular space is everything and the map is exactly the
    flow.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    if dirs.shape[1] != 2 * q.dim:
        raise ValueError(f"directions must have dim {2 * q.dim}")
    if np.any(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) > 1e-9):
        raise ValueError("directions must be unit vectors")
    space = singular_space(q)

    def in_space(rows):
        return rows[np.array([space.distance(v) <= SPACE_TOL for v in rows], dtype=bool)]

    # a matmul per row: ``rows @ flow.T`` rounds differently from ``flow @ v``
    moved = np.matmul(flow_matrix(q, t), in_space(dirs)[..., None])[..., 0]
    moved /= np.linalg.norm(moved, axis=1)[:, None]
    return in_space(moved)
