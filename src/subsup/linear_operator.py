"""The linear solution operator T and its order/continuity certificates.

T maps a dual vector psi to the unique u with (L + M diag(a)) u = psi,
computed by preconditioned conjugate-gradient minimization of the energy

    I(u) = 1/2 u'Lu + 1/2 u'M diag(a) u - u'psi.

The system matrix is SPD whenever min a > 0, which LinearProblem
enforces.  The preconditioner follows the domain, and each case uses
the structure that domain has:

- periodic grid: L is circulant, so the FFT inverts L + mean(m a) I
  exactly (one CG step when a is constant, a mesh-independent count
  otherwise);
- subdivided icosphere: the meshes are nested, so one symmetric
  geometric-multigrid V-cycle down to icosphere 2 (a mesh-independent
  count; icospheres up to 2 subdivisions are solved exactly);
- any other surface (OFF meshes): the Jacobi diagonal, the reference
  path.

check_comparison and lipschitz_certificate expose the comparison
principle and the 1/C Lipschitz bound as checkable operations; both are
exercised heavily by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import Field, mesh_quality

# Multigrid on icospheres: levels down to this many vertices (icosphere
# 2) get smoothed, the coarsest one is solved exactly.  Two damped
# Jacobi sweeps before and after the coarse correction make the V-cycle
# symmetric, and omega = 0.8 keeps omega * max eig(D^-1 A) below 2 on
# every level, which makes it positive definite too.
COARSEST_VERTICES = 162
SMOOTHING_SWEEPS = 2
SMOOTHING_WEIGHT = 0.8


class ConvergenceError(RuntimeError):
    """CG hit its iteration cap; carries the partial SolveReport."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(eq=False)
class DualVector:
    """A functional: entry i is its value on the nodal hat at vertex i."""

    domain: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.domain.vertex_count,):
            raise ValueError("dual vector length does not match domain")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("dual vector contains non-finite entries")


@dataclass
class SolveReport:
    iterations: int
    final_residual_norm: float
    energy_history: list

    def to_json_dict(self):
        return {
            "iterations": self.iterations,
            "final_residual_norm": self.final_residual_norm,
            "energy_history": list(self.energy_history),
        }


class LinearProblem:
    """Domain plus coefficient a > 0; owns A = L + M diag(a)."""

    def __init__(self, domain, a):
        self.domain = domain
        self.a = domain.field(a)
        amin = float(self.a.values.min())
        if amin <= 0.0:
            raise ValueError(f"a must be positive everywhere (min a = {amin:g})")
        self.coercivity_constant = min(1.0, amin)
        self._system = None
        self._h1 = None
        self._preconditioner = None

    @property
    def system_matrix(self):
        if self._system is None:
            self._system = (
                self.domain.stiffness + sp.diags(self.domain.mass * self.a.values)
            ).tocsr()
        return self._system

    @property
    def preconditioner(self):
        """r -> P^{-1} r for the CG loop in solve_T, built on first use.

        Grids: P = L + mean(m a) I, diagonalized by the FFT.  It equals A
        when a is constant and is spectrally equivalent to A otherwise
        (condition number at most max a / min a, whatever the mesh size).
        Icospheres: P^{-1} is one multigrid V-cycle over the domain's
        refinement chain, symmetric and positive definite, with an
        iteration count that does not grow with the subdivisions; up to
        icosphere 2 it is an exact (sparse LU) solve with A.  Other surfaces
        have no such structure and use P = diag(A) (Jacobi).
        """
        if self._preconditioner is None:
            if self.domain.grid_cells is not None:
                self._preconditioner = _fft_preconditioner(self.domain, self.a.values)
            elif self.domain.refinement is not None:
                self._preconditioner = _multigrid_preconditioner(
                    self.system_matrix, self.domain.refinement
                )
            else:
                diag = self.system_matrix.diagonal()
                self._preconditioner = lambda r: r / diag
        return self._preconditioner

    @property
    def h1_matrix(self):
        """L + M, the discrete H1 inner product."""
        if self._h1 is None:
            self._h1 = (self.domain.stiffness + sp.diags(self.domain.mass)).tocsr()
        return self._h1


def _fft_preconditioner(domain, a):
    # L is circulant on a periodic grid: L r is the circular convolution of
    # r with L's first column, so the FFT of that column gives L's
    # eigenvalues and the stencil stays defined only by the assembly.
    cells = domain.grid_cells
    axes = tuple(range(len(cells)))
    kernel = domain.stiffness[:, [0]].toarray().reshape(cells)
    shift = float(np.mean(domain.mass * a))
    eigenvalues = np.fft.rfftn(kernel, axes=axes).real + shift

    def apply(r):
        spectrum = np.fft.rfftn(r.reshape(cells), axes=axes) / eigenvalues
        return np.fft.irfftn(spectrum, s=cells, axes=axes).ravel()

    return apply


def _prolongation(coarse_count, parents):
    """Linear interpolation from a mesh to its subdivision.

    Coarse vertices keep their value; a midpoint takes the mean of the
    two ends of the edge it splits.
    """
    new = np.arange(coarse_count, coarse_count + len(parents))
    rows = np.concatenate([np.arange(coarse_count), new, new])
    cols = np.concatenate([np.arange(coarse_count), parents[:, 0], parents[:, 1]])
    data = np.concatenate([np.ones(coarse_count), np.full(2 * len(parents), 0.5)])
    shape = (coarse_count + len(parents), coarse_count)
    return sp.csr_matrix((data, (rows, cols)), shape=shape)


def _multigrid_preconditioner(A, refinement):
    from scipy.sparse.linalg import splu

    # Galerkin coarse operators P'AP: each stays SPD, and the V-cycle
    # needs nothing of the geometry beyond the refinement chain
    levels = []
    for coarse_count, parents in reversed(refinement):
        if A.shape[0] <= COARSEST_VERTICES:
            break
        P = _prolongation(coarse_count, parents)
        R = P.T.tocsr()
        levels.append((A, SMOOTHING_WEIGHT / A.diagonal(), P, R))
        A = (R @ A @ P).tocsr()
    # a sparse LU factor solved one vector at a time: a dense inverse (or
    # SuperLU with an identity right-hand side) goes through threaded BLAS-3,
    # which with two OpenBLAS threads on a 2-CPU host stalled for 0.07-0.28 s
    # in about a quarter of fresh processes
    coarse_solve = splu(A.tocsc()).solve

    def cycle(level, r):
        if level == len(levels):
            return coarse_solve(r)
        A, weight, P, R = levels[level]
        x = weight * r  # the first sweep, from x = 0
        for _ in range(SMOOTHING_SWEEPS - 1):
            x += weight * (r - A @ x)
        x += P @ cycle(level + 1, R @ (r - A @ x))
        for _ in range(SMOOTHING_SWEEPS):
            x += weight * (r - A @ x)
        return x

    return lambda r: cycle(0, r)


def _require_same_domain(domain, other):
    if other.domain is not domain:
        raise ValueError("domain mismatch")


def embed_function(field):
    """A function acts on test functions through the mass matrix: M f."""
    return DualVector(field.domain, field.domain.mass * field.values)


def h1_norm(domain, values):
    """sqrt(v' (L + M) v)."""
    v = np.asarray(values, dtype=float)
    return float(np.sqrt(max(v @ (domain.stiffness @ v) + v @ (domain.mass * v), 0.0)))


def solve_T(problem, psi, tol=1e-10, x0=None):
    """Solve A u = psi by preconditioned conjugate gradients.

    The preconditioner is problem.preconditioner: an FFT solve on periodic
    grids (exact for constant a, so one iteration from any start), a
    multigrid V-cycle on subdivided icospheres (a few iterations at any
    subdivision, one up to icosphere 2), and Jacobi on other surfaces.
    Stops when ||A u - psi||_2 <= tol * ||psi||_2 (absolute when
    psi = 0).  The recorded energy history is non-increasing by
    construction: each step subtracts the exact CG decrement
    alpha * (r'z) / 2 >= 0, and P is SPD on all three paths.
    """
    _require_same_domain(problem.domain, psi)
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be a finite number > 0")
    A = problem.system_matrix
    b = psi.values
    n = b.size
    if x0 is None:
        x = np.zeros(n)
        Ax = np.zeros(n)
    else:
        _require_same_domain(problem.domain, x0)
        x = x0.values.copy()
        Ax = A @ x
    precondition = problem.preconditioner

    bnorm = np.linalg.norm(b)
    stop = tol * bnorm if bnorm > 0.0 else tol
    cap = 10 * n

    r = b - Ax
    energy = 0.5 * (x @ Ax) - x @ b
    history = [float(energy)]
    iterations = 0
    resid = np.linalg.norm(r)

    while True:
        # inner CG sweep on the recurrence residual
        if resid > stop:
            z = precondition(r)
            rz = r @ z
            p = z
            while resid > stop:
                if iterations >= cap:
                    report = SolveReport(iterations, float(resid), history)
                    raise ConvergenceError(
                        f"no convergence in {cap} iterations "
                        f"(residual {resid:.3e}, target {stop:.3e}); "
                        "a may be near-singular or badly conditioned",
                        report,
                    )
                Ap = A @ p
                pAp = p @ Ap
                if pAp <= 0.0:
                    report = SolveReport(iterations, float(resid), history)
                    raise ConvergenceError(
                        "conjugate-gradient breakdown: system matrix not positive "
                        "definite",
                        report,
                    )
                alpha = rz / pAp
                x += alpha * p
                r -= alpha * Ap
                energy -= 0.5 * alpha * rz
                history.append(float(energy))
                iterations += 1
                z = precondition(r)
                rz_new = r @ z
                beta = rz_new / rz
                rz = rz_new
                p = z + beta * p
                resid = np.linalg.norm(r)
        # the recurrence residual can drift from the true one; re-check
        r = b - A @ x
        resid = np.linalg.norm(r)
        if resid <= stop:
            break
        if iterations >= cap:
            report = SolveReport(iterations, float(resid), history)
            raise ConvergenceError(
                f"no convergence in {cap} iterations (residual {resid:.3e})",
                report,
            )

    report = SolveReport(iterations, float(resid), history)
    return Field(problem.domain, x), report


def check_comparison(problem, psi1, psi2, tol=1e-10):
    """Ordered right-hand sides give ordered solutions.

    Requires psi1 <= psi2 entrywise (anything else is an input error, not
    a False) and an M-matrix compatible domain.
    """
    _require_same_domain(problem.domain, psi1)
    _require_same_domain(problem.domain, psi2)
    if np.any(psi1.values > psi2.values):
        raise ValueError("psi1 <= psi2 entrywise is required")
    if not mesh_quality(problem.domain).is_m_matrix_compatible:
        raise ValueError(
            "domain is not M-matrix compatible; comparison is not trusted here"
        )
    u1, _ = solve_T(problem, psi1, tol=tol)
    u2, _ = solve_T(problem, psi2, tol=tol)
    slack = 1e-9 * float(np.abs(u2.values).max())
    return bool(np.all(u1.values <= u2.values + slack))


def lipschitz_certificate(problem, psi1, psi2, tol=1e-12):
    """Return (lhs, rhs) of ||u1 - u2||_H1 <= (1/C) ||psi1 - psi2||_*.

    The dual norm ||r||_*^2 = r' (L+M)^{-1} r is computed densely, so the
    domain is capped at 2000 vertices.
    """
    n = problem.domain.vertex_count
    if n > 2000:
        raise ValueError(f"domain too large for dense dual norm ({n} > 2000 vertices)")
    _require_same_domain(problem.domain, psi1)
    _require_same_domain(problem.domain, psi2)
    from scipy.linalg import cho_factor, cho_solve

    u1, _ = solve_T(problem, psi1, tol=tol)
    u2, _ = solve_T(problem, psi2, tol=tol)
    d = u1.values - u2.values
    lhs = h1_norm(problem.domain, d)
    r = psi1.values - psi2.values
    w = cho_solve(cho_factor(problem.h1_matrix.toarray()), r)
    rhs = float(np.sqrt(max(r @ w, 0.0))) / problem.coercivity_constant
    return lhs, rhs
