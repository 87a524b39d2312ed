"""The linear solution operator T.

T maps a dual vector psi (a Field whose entry i is its value on the
nodal hat at vertex i) to the unique u with (L + M diag(a)) u = psi,
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
  count; icospheres up to 2 subdivisions are solved exactly), each
  coarser level assembled by the same cotangent rule as the mesh and
  applied through the same slot layout, so no solve imports scipy;
- any other surface (OFF meshes): the Jacobi diagonal, the reference
  path.

The comparison principle, the H1 Lipschitz bound of T and the
coercivity of A are facts of the existence proof: the tests assert them,
and no run-time check relies on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _assemble_surface, _coarse_mesh

# Multigrid on icospheres: every level above this many vertices
# (icosphere 2) gets smoothed, and the level at or below it, the
# coarsest, is solved with a dense inverse.  Each level is the icosphere
# of its subdivision, assembled anew, with a taken at its vertices.  Two
# damped Jacobi sweeps before and after the coarse correction make the
# V-cycle symmetric, and omega = 0.8 keeps omega * max eig(D^-1 A) below
# 2 on every level, which makes it positive definite too.
COARSEST_VERTICES = 162
SMOOTHING_SWEEPS = 2
SMOOTHING_WEIGHT = 0.8

# solve_T gives up once this many CG sweeps in a row end without a new
# lowest true residual.  Below the rounding floor the re-checked
# residual is noise around a level; one sweep that misses can be chance.
STALL_SWEEPS = 2


def _dot(x, y):
    """x'y by einsum, which calls no BLAS: a threaded ddot splits the sum
    by thread count, and its last bits with it."""
    return np.einsum("i,i->", x, y)


def _norm(x):
    return np.sqrt(_dot(x, x))


class ConvergenceError(RuntimeError):
    """CG hit its iteration cap or stalled; carries the partial SolveReport."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(eq=False)
class SolveReport:
    """CG iterations, final true residual, energies, and A x (None on failure)."""

    iterations: int
    final_residual_norm: float
    energy_history: list
    Ax: np.ndarray | None = None


class LinearProblem:
    """Domain plus coefficient a > 0; owns A = L + M diag(a).

    A is applied through the domain's L (a geometry.SlotLayout) with
    ``diagonal``, the diagonal of L plus m a.
    """

    def __init__(self, domain, a):
        self.domain = domain
        self.a = domain.field(a)
        amin = float(self.a.values.min())
        if amin <= 0.0:
            raise ValueError(f"a must be positive everywhere (min a = {amin:g})")
        self.diagonal = domain.L.diagonal + domain.mass * self.a.values
        self._preconditioner = None

    @property
    def system_matrix(self):
        """A as a scipy CSR matrix, built on each access.

        No solve uses it.  It stays for perfbench's problem-size record
        (n, nnz and CSR bytes) and as the tests' reference A.
        """
        import scipy.sparse as sp

        diagonal = sp.diags(self.domain.mass * self.a.values)
        return (self.domain.stiffness + diagonal).tocsr()

    @property
    def preconditioner(self):
        """r -> P^{-1} r for the CG loop in solve_T, built on first use.

        Grids: P = L + mean(m a) I, diagonalized by the FFT.  It equals A
        when a is constant and is spectrally equivalent to A otherwise
        (condition number at most max a / min a, whatever the mesh size).
        Icospheres: P^{-1} is one multigrid V-cycle over the domain's
        refinement chain, symmetric and positive definite, with an
        iteration count that does not grow with the subdivisions; its
        coarse levels are the coarser icospheres, assembled from the
        domain's own vertices and faces, and up to icosphere 2 it is a
        dense inverse of A.  Other surfaces have no such structure and
        use P = diag(A) (Jacobi).
        """
        if self._preconditioner is None:
            if self.domain.grid_cells is not None:
                self._preconditioner = _fft_preconditioner(self.domain, self.a.values)
            elif self.domain.refinement is not None:
                self._preconditioner = _multigrid_preconditioner(self)
            else:
                diagonal = self.diagonal
                self._preconditioner = lambda r: r / diagonal
        return self._preconditioner


def _fft_preconditioner(domain, a):
    # L is circulant on a periodic grid: L r is the circular convolution of
    # r with L's first column, so the FFT of that column gives L's
    # eigenvalues and the stencil stays defined only by the assembly.
    cells = domain.grid_cells
    axes = tuple(range(len(cells)))
    first = np.zeros(domain.vertex_count)
    first[0] = 1.0
    kernel = domain.L.product(first, domain.L.diagonal).reshape(cells)
    shift = float(np.mean(domain.mass * a))
    eigenvalues = np.fft.rfftn(kernel, axes=axes).real + shift

    def apply(r):
        spectrum = np.fft.rfftn(r.reshape(cells), axes=axes) / eigenvalues
        return np.fft.irfftn(spectrum, s=cells, axes=axes).ravel()

    return apply


def _spd_inverse(a):
    """Inverse of a symmetric positive definite matrix.

    In-place Gauss-Jordan elimination, without pivoting since the pivots
    of an SPD matrix are positive, in elementwise numpy arithmetic: no
    LAPACK or BLAS-3 call, which with two OpenBLAS threads on a 2-CPU
    host stalled for 0.07-0.28 s in some fresh processes (np.linalg.inv
    and a SuperLU solve with an identity right-hand side both did).
    """
    a = np.array(a, dtype=float)
    for k in range(a.shape[0]):
        pivot = a[k, k]
        factor = a[:, k].copy()
        factor[k] = 0.0
        # column k becomes the k-th column of the inverse as the rows update
        a[:, k] = 0.0
        a[k, k] = 1.0
        a[k] /= pivot
        a -= np.multiply.outer(factor, a[k])
    return a


def _prolong(y, ends):
    """P y: coarse vertices keep their value, a midpoint takes the mean
    of the two ends of the edge it splits; ends is the (2, n_new)
    transpose of a refinement step's parents."""
    first, second = y.take(ends)
    return np.concatenate([y, 0.5 * (first + second)])


def _restrict(r, ends):
    """P' r, the adjoint of _prolong: each midpoint hands half of its
    entry to either end of its edge."""
    coarse_count = r.size - ends.shape[1]
    half = 0.5 * r[coarse_count:]
    return r[:coarse_count] + np.bincount(
        ends.ravel(), weights=np.concatenate([half, half]), minlength=coarse_count
    )


def _multigrid_preconditioner(problem):
    # each coarse level is the coarser icosphere assembled anew, with a
    # injected; coarse and fine L then act through the same slot layout.
    # The finest level smooths with A's own diagonal, and each coarser
    # level forms its own once
    domain, a = problem.domain, problem.a.values
    coordinates, faces = domain.coordinates, domain.faces
    L, diagonal = domain.L, problem.diagonal
    levels = []
    for coarse_count, parents in reversed(domain.refinement):
        if a.size <= COARSEST_VERTICES:
            break
        ends = np.ascontiguousarray(parents.T)
        levels.append((L, diagonal, SMOOTHING_WEIGHT / diagonal, ends))
        coordinates, faces = _coarse_mesh(coordinates, faces, coarse_count)
        L, mass, _ = _assemble_surface(coordinates, faces)
        a = a[:coarse_count]
        diagonal = L.diagonal + mass * a
    # applied by einsum, which calls no BLAS (a threaded gemv could stall
    # like the factorization above)
    coarse_inverse = _spd_inverse(L.dense(diagonal))

    def coarse_solve(r):
        return np.einsum("ij,j->i", coarse_inverse, r)

    def cycle(level, r):
        if level == len(levels):
            return coarse_solve(r)
        L, diagonal, weight, ends = levels[level]
        x = weight * r  # the first sweep, from x = 0
        for _ in range(SMOOTHING_SWEEPS - 1):
            x += weight * (r - L.product(x, diagonal))
        coarse = cycle(level + 1, _restrict(r - L.product(x, diagonal), ends))
        x += _prolong(coarse, ends)
        for _ in range(SMOOTHING_SWEEPS):
            x += weight * (r - L.product(x, diagonal))
        return x

    return lambda r: cycle(0, r)


def solve_T(problem, psi, tol=1e-10, x0=None, Ax0=None, shift=None):
    """Solve A u = psi, psi a Field on problem.domain, by preconditioned
    conjugate gradients.

    The preconditioner is problem.preconditioner: an FFT solve on periodic
    grids (exact for constant a, so one iteration from any start), a
    multigrid V-cycle on subdivided icospheres (a few iterations at any
    subdivision, one up to icosphere 2), and Jacobi on other surfaces.
    Stops when ||A u - psi||_2 <= tol * ||psi||_2 (absolute when
    psi = 0).  The recorded energy history is non-increasing by
    construction: each step subtracts the exact CG decrement
    alpha * (r'z) / 2 >= 0, and P is SPD on all three paths.

    Returns (u, report) with u a float array of length N.  u is finite:
    the solve returns only once the true residual passes
    ||A u - psi||_2 <= tol * ||psi||_2, a finite bound that no
    non-finite u meets.  Raises ValueError if ||psi||_2 overflows, as
    that bound would then pass any start.

    x0 is a warm start, an array of length N, copied once, and zero if
    None; Ax0, if given, must be A @ x0, which is then not formed
    again.  One CG loop runs: whenever the recurrence residual passes
    the test, the starting one included, the true residual b - A u is
    formed and tested, and a failed re-check starts a new sweep from
    it.  The report's Ax is A @ u for the returned u, formed by the
    final true-residual re-check, so a caller needs no matvec of its own
    for the residual or the next warm start.  Raises ConvergenceError at the iteration cap of
    10 n, and once STALL_SWEEPS true-residual re-checks in a row are no
    lower than the lowest before them (the starting residual included):
    tol is then below the floor that rounding leaves, and more sweeps
    would only redraw the noise around it until the cap.

    With a shift (a length-N array), the system is instead
    (A - diag(shift)) u = psi, and Ax0 and the report's Ax are products
    with that matrix; the preconditioner stays the one built for A.  A
    shift that leaves the matrix not positive definite may end in the
    pAp <= 0 breakdown, a ConvergenceError.  A non-finite x0 leaves a
    NaN residual or p'Ap, and ends in ConvergenceError within a sweep.
    """
    if psi.domain is not problem.domain:
        raise ValueError("domain mismatch")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be a finite number > 0")
    diagonal = problem.diagonal if shift is None else problem.diagonal - shift
    product = problem.domain.L.product
    b = psi.values
    n = b.size
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
    Ax = product(x, diagonal) if Ax0 is None else Ax0
    precondition = problem.preconditioner

    with np.errstate(over="ignore"):
        bnorm = _norm(b)
    if not bnorm < np.inf:
        raise ValueError(
            f"the right-hand side's 2-norm overflows (largest entry "
            f"{np.abs(b).max():g}), so no residual test can be made"
        )
    stop = tol * bnorm if bnorm > 0.0 else tol
    cap = 10 * n

    r = b - Ax
    energy = 0.5 * _dot(x, Ax) - _dot(x, b)
    history = [float(energy)]
    iterations = 0
    resid = _norm(r)
    lowest, stalled = resid, 0  # the lowest true residual, sweeps since
    p = None  # no search direction: the next iteration starts a sweep

    def fail(message):
        raise ConvergenceError(message, SolveReport(iterations, float(resid), history))

    while True:
        if not resid > stop:  # a NaN residual too, which stalls out here
            # the recurrence residual can drift from the true one; re-check,
            # and start a new sweep from the true residual if it fails.  The
            # old residual and search direction go first, so that they do not
            # add to the product's peak memory
            del r
            p = None
            Ax = product(x, diagonal)
            r = b - Ax
            resid = _norm(r)
            if resid <= stop:
                return x, SolveReport(iterations, float(resid), history, Ax)
            stalled = 0 if resid < lowest else stalled + 1
            lowest = min(lowest, resid)
            if stalled == STALL_SWEEPS:
                fail(
                    f"linear tolerance not attainable: true residual {resid:.3e} "
                    f"after {iterations} iterations, and none of the last "
                    f"{STALL_SWEEPS} sweeps went below {lowest:.3e} "
                    f"(target {stop:.3e})"
                )
            continue
        if iterations >= cap:
            fail(
                f"no convergence in {cap} iterations "
                f"(residual {resid:.3e}, target {stop:.3e}); "
                "a may be near-singular or badly conditioned"
            )
        z = precondition(r)
        rz_new = _dot(r, z)
        if p is None:
            p = z
        else:  # in place, each N-vector freed at its last use
            p *= rz_new / rz
            p += z
        del z
        rz = rz_new
        Ap = product(p, diagonal)
        pAp = _dot(p, Ap)
        if not pAp > 0.0:  # nan too, from a non-finite start
            fail(
                f"conjugate-gradient breakdown (p'Ap = {pAp:.3g}): system "
                "matrix not positive definite, or a non-finite start"
            )
        alpha = rz / pAp
        x += alpha * p
        Ap *= alpha
        r -= Ap
        del Ap
        energy -= 0.5 * alpha * rz
        history.append(float(energy))
        iterations += 1
        resid = _norm(r)

