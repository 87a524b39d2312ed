"""Bracket verification and the two-sided monotone iteration.

A verified bracket is a pair of fields 0 <= lower <= upper with the
defect signs of a lower and an upper solution.  From its two ends the
driver runs u_{k+1} = T(S(u_k)); on an M-matrix compatible domain with
valid sign hypotheses the lower sequence climbs, the upper one
descends, and both stay ordered, so the limits are the minimal and
maximal fixed points inside the bracket.  The iteration advances both
sequences in lockstep and checks each new link of that chain as it is
made, within a small relative slack; the first bend beyond it (from
floating point or a broken precondition) aborts the run loudly.

The sequences contract linearly, so every few steps each side also
tries a damped Aitken restart: an extrapolated point that aims short of
the limit.  Being a lower solution is not enough for the point to stay
below the minimal solution: it may have jumped past it, to the lower
solutions of a larger one.  So a point replaces the current iterate
only if two certificates hold.  The bracket rule that verified the
input bracket verifies it as a lower (upper) solution, at the run's tol
or tighter; and T(S(.)) provably contracts between the current iterate
and the point (see _contraction_rate), which leaves no solution in the
bracket below a lower point or above an upper one.  So the lower
sequence stays below every solution in the bracket and the upper one
above, as without restarts, and the limits are still the minimal and
maximal solutions.  The iteration keeps the current pair and one
previous iterate per side, no longer history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Field, mesh_quality
from .linear_operator import solve_T
from .nonlinearity import apply_S, check_alpha2
from .serialize import write_csv, write_json

DEFAULT_TOL = 1e-9
DEFAULT_MAX_STEPS = 500
ORDERING_SLACK = 1e-9  # relative to max|upper|, the scale of the default tol
# Aitken restarts: tried at step RESTART_FIRST_STEP and then at least
# RESTART_GAP steps apart.  A gap of 2 or more means every side has two
# plain steps since its last restart, which the ratio estimate needs.
# RESTART_DAMPING < 1 aims short of the extrapolated limit.
RESTART_FIRST_STEP = 3
RESTART_GAP = 2
RESTART_DAMPING = 0.95


class BracketError(ValueError):
    """Bracket verification failed; ``failures`` is bracket_failures' pair."""

    def __init__(self, message, failures):
        super().__init__(message)
        self.failures = failures


class OrderingError(RuntimeError):
    """The monotone chain broke beyond slack; diagnostic in args."""


@dataclass(eq=False)
class Bracket:
    """A verified (lower, upper) pair; make_bracket is its only producer."""

    lower: Field
    upper: Field


@dataclass
class StepRecord:
    step: int
    max_change: float
    min_u: float
    max_u: float
    defect_norm: float


@dataclass
class IterationTrace:
    """Per-step records of both sequences.

    A trace only exists for an intact chain: a bend beyond slack raises
    OrderingError at the step where it happens.  restarts counts the
    accepted Aitken restarts of (lower, upper); a restart adds no row.
    """

    lower_steps: list
    upper_steps: list
    steps: int
    converged: bool
    restarts: tuple

    def rows(self):
        """Interleaved per-step rows for the CSV export."""
        out = []
        for k in range(max(len(self.lower_steps), len(self.upper_steps))):
            for seq, records in (("lower", self.lower_steps), ("upper", self.upper_steps)):
                if k < len(records):
                    r = records[k]
                    out.append(
                        (r.step, seq, r.max_change, r.min_u, r.max_u, r.defect_norm)
                    )
        return out

    def write_csv(self, path):
        write_csv(
            path,
            ["step", "seq", "max_change", "min_u", "max_u", "defect_norm"],
            self.rows(),
        )


@dataclass(eq=False)
class SolutionPair:
    u_star: Field
    u_upper_star: Field
    residual_lower: float
    residual_upper: float
    coincide: bool

    def to_json_dict(self):
        return {
            "u_star": self.u_star.values.tolist(),
            "u_upper_star": self.u_upper_star.values.tolist(),
            "residual_lower": float(self.residual_lower),
            "residual_upper": float(self.residual_upper),
            "coincide": bool(self.coincide),
        }

    def write_json(self, path):
        write_json(path, self.to_json_dict())

    def write_csv(self, path):
        rows = zip(
            range(self.u_star.values.size),
            self.u_star.values.tolist(),
            self.u_upper_star.values.tolist(),
        )
        write_csv(path, ["vertex", "u_star", "u_upper_star"], rows)


def _image(problem, v):
    """(A v, S(v)) for a Field v, A = L + M diag(a) with L v in edge form."""
    av = problem.domain.stiffness_action(v.values)
    av += problem.domain.mass * problem.a.values * v.values
    return av, apply_S(problem, v)


def defect(problem, v):
    """Weak-form residual (L + M diag(a)) v - S(v), entrywise.

    Nonpositive everywhere means v is a lower solution, nonnegative an
    upper one; testing against nodal hats suffices since every
    nonnegative test function is a nonnegative combination of them.
    L v takes the edge form of DiscreteDomain.stiffness_action, exactly 0
    on constants, so its roundoff does not swamp M a v on small meshes.
    """
    av, psi = _image(problem, problem.domain.field(v))
    return Field(problem.domain, av - psi.values)


@dataclass
class BracketFailure:
    kind: str  # "negative", "zero", "unordered" or "defect"
    message: str
    vertex: int | None = None
    defect: float | None = None


def bracket_failures(problem, lower, upper, tol, images=(None, None)):
    """The first failure at each end of a candidate bracket, or None.

    The one bracket rule; returns (lower failure, upper failure).  An end
    given as None is not checked; "zero" and "unordered" need both ends.
    images holds each end's (A v, S(v)) pair, or None to form it here.
    Each end stops at the first check that fails, in this order:

    - "negative": some entry is below 0 (names the most negative one);
    - "zero": the lower end is identically 0;
    - "unordered": lower > upper somewhere (names the largest excess);
    - "defect": the worst defect of the wrong sign exceeds
      tol * max |M a v|, v being that end (relative: no absolute
      floor, so the verdict does not depend on the mesh scale).
    """
    lo, up = (
        None if v is None else problem.domain.field(v).values for v in (lower, upper)
    )
    image_lo, image_up = images
    return (
        None if lo is None else _end_failure(problem, "lower", lo, up, tol, image_lo),
        None if up is None else _end_failure(problem, "upper", up, None, tol, image_up),
    )


def _end_failure(problem, side, v, upper, tol, image):
    if v.min() < 0.0:
        bad = int(np.argmin(v))
        message = f"{side} solution negative at vertex {bad}"
        return BracketFailure("negative", message, bad)
    if upper is not None and v.max() <= 0.0:
        return BracketFailure("zero", "lower solution is identically zero")
    if upper is not None and np.any(v > upper):
        bad = int(np.argmax(v - upper))
        return BracketFailure("unordered", f"lower > upper at vertex {bad}", bad)
    if image is None:
        d = defect(problem, v).values
    else:
        av, psi = image
        d = av - psi.values
    scale = float(np.abs(problem.domain.mass * problem.a.values * v).max())
    allow = tol * scale
    # a lower end needs d <= allow, an upper end d >= -allow
    sign, word, op = (1, "positive", ">") if side == "lower" else (-1, "negative", "<")
    bad = int(np.argmax(sign * d))
    if sign * d[bad] <= allow:
        return None
    message = (
        f"{side} defect {word} at vertex {bad}: {d[bad]:.6e} {op} {sign * allow:.6e}"
    )
    return BracketFailure("defect", message, bad, float(d[bad]))


def _holds(failure, side):
    if failure is not None and failure.kind == "negative":
        raise ValueError(f"candidate {side} solution must be nonnegative")
    return failure is None


def verify_lower(problem, v, tol):
    """True iff every defect entry <= tol * scale; v must be >= 0."""
    return _holds(bracket_failures(problem, v, None, tol)[0], "lower")


def verify_upper(problem, v, tol):
    """True iff every defect entry >= -tol * scale; v must be >= 0."""
    return _holds(bracket_failures(problem, None, v, tol)[1], "upper")


def make_bracket(problem, lower, upper, verification_tol=DEFAULT_TOL):
    """Verify and package a (lower, upper) pair; raises BracketError."""
    lower = problem.domain.field(lower)
    upper = problem.domain.field(upper)
    failures = bracket_failures(problem, lower, upper, verification_tol)
    for failure in failures:
        if failure is not None:
            raise BracketError(failure.message, failures)
    return Bracket(lower=lower, upper=upper)


def positivity_check(domain, u):
    """min u > 0; only meaningful (and only allowed) on connected domains."""
    if not domain.is_connected():
        raise ValueError("positivity check requires a connected domain")
    u = domain.field(u)
    return bool(u.values.min() > 0.0)


def _aitken(steps, current, previous):
    """u_k + theta rho/(1 - rho) (u_k - u_{k-1}), or None unless 0 < rho < 1.

    rho is the ratio of the last two max_change values, theta the
    RESTART_DAMPING; the point aims short of the limit of a sequence
    that contracts at rate rho.
    """
    rho = steps[-1].max_change / steps[-2].max_change
    if not 0.0 < rho < 1.0:
        return None
    return current + RESTART_DAMPING * rho / (1.0 - rho) * (current - previous)


def _contraction_rate(problem, v, u, av):
    """Lambda = max_i m_i D_i v_i / (A v)_i, or inf unless v > 0 and A v > 0.

    D_i bounds the slope of f_i F + h_i H between u_i and v_i, and A is
    L + M diag(a).  Lambda < 1 certifies a verified restart point v of
    the lower side, whose current iterate u lies below every solution w
    in the bracket, to lie below every such w too.  With z = min(w, v)
    and delta = v - z >= 0: where delta_i > 0, z_i = w_i = T(S(w))_i >=
    T(S(z))_i while v_i <= T(S(v))_i, so delta <= T(S(v) - S(z)) <=
    T(M D delta).  If delta <= t v then M D delta <= t Lambda A v, and T
    (inverse-positive) gives delta <= t Lambda v; with Lambda < 1 the
    least such t is 0.  The upper side is the mirror image, with
    z = max(w, v).  v passes the bracket rule only within its allowance,
    which the bound carries over amplified by 1 / (1 - Lambda).  av is
    A v as the bracket rule formed it, with L v in edge form.
    """
    domain = problem.domain
    lo = np.maximum(np.minimum(u, v), 0.0)  # S clamps at 0
    hi = np.maximum(np.maximum(u, v), 0.0)
    if v.min() <= 0.0 or av.min() <= 0.0:
        return np.inf
    with np.errstate(invalid="ignore"):  # 0 * inf where f or h is 0
        slope = problem.f.values * problem.F.max_slope(lo, hi)
        slope = slope + problem.h.values * problem.H.max_slope(lo, hi)
        rate = np.max(domain.mass * slope * v / av)
    return float(rate) if np.isfinite(rate) else np.inf


def _verified_restarts(problem, records, u, previous, converged, tol):
    """(side, point, S(point)) for each running side whose Aitken point is verified.

    The points of both sides go through bracket_failures at tol in one
    call; a side restarts only if its point passes as a lower (upper)
    solution, the restarted pair stays ordered, and the contraction rate
    between its current iterate and the point is below 1.  Each point's
    A v and S(v) are formed once, for the rule, the rate and the restart.
    """
    candidates = [
        None if done else _aitken(steps, v, before)
        for done, steps, v, before in zip(converged, records, u, previous)
    ]
    if all(c is None for c in candidates):
        return []
    images = [
        None if c is None else _image(problem, Field(problem.domain, c))
        for c in candidates
    ]
    failures = bracket_failures(problem, *candidates, tol, images=images)
    passed = [c if f is None else None for c, f in zip(candidates, failures)]
    lower, upper = (v if p is None else p for p, v in zip(passed, u))
    # the rule orders the two ends only when both are candidates
    if np.any(lower > upper):
        return []
    return [
        (i, p, images[i][1])
        for i, p in enumerate(passed)
        if p is not None and _contraction_rate(problem, p, u[i], images[i][0]) < 1.0
    ]


def iterate_monotone(problem, bracket, tol=DEFAULT_TOL, max_steps=DEFAULT_MAX_STEPS):
    """Run both monotone sequences in lockstep and certify the chain.

    The bracket is trusted: make_bracket, its only producer, verified
    it.  Each step advances every side that has not converged, one
    T(S(.)) each with T solved to tol / 100, and checks within
    ORDERING_SLACK that the lower side did not go down, the upper side
    did not go up, and lower <= upper.  A converged side stays frozen at
    its last iterate.

    From step RESTART_FIRST_STEP on, and RESTART_GAP steps apart, each
    running side may restart from its damped Aitken point if
    bracket_failures verifies that point, the pair stays ordered, and
    _contraction_rate certifies that no solution in the bracket lies on
    the far side of it; a rejected point changes nothing, and no restart
    happens at the last step.  The point is verified at tol, or at
    ORDERING_SLACK * min(m a) / max(m a) if that is smaller, so that the
    step after a restart cannot move back beyond the slack.  The per-step
    checks run after a restart as before, and the limits are checked
    against the input bracket (the sandwich).

    Returns (SolutionPair, IterationTrace).  Non-convergence within
    max_steps is reported through the trace's converged flag, not an
    exception; the first bend of the chain beyond slack raises
    OrderingError.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be a finite number > 0")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    domain = problem.domain
    linear = problem.linear
    if not mesh_quality(domain).is_m_matrix_compatible:
        raise ValueError(
            "domain is not M-matrix compatible; the chain ordering is not "
            "guaranteed, refusing to iterate"
        )
    a2 = check_alpha2(problem)
    if not a2.passed:
        raise ValueError(f"sign hypotheses fail: {a2.clause}")
    # max|upper| > 0: the lower end is not identically 0 and lower <= upper
    slack = ORDERING_SLACK * float(np.abs(bracket.upper.values).max())
    # A verified restart point v may keep a defect of the wrong sign up to
    # t max|M a v|, and the next step moves back by A^-1 of it, at most
    # t max|M a v| / min(m a) since ||A^-1||_inf <= 1/min(m a) on an
    # M-matrix domain.  t <= ORDERING_SLACK min(m a) / max(m a) keeps that
    # within slack; the run's tol alone would not once it exceeds the slack.
    ma = domain.mass * problem.a.values
    restart_tol = min(tol, ORDERING_SLACK * float(ma.min() / ma.max()))

    def require(amount, description):
        if amount > slack:
            raise OrderingError(
                f"chain ordering violated beyond slack {slack:.3e}: "
                f"{description} (amount {amount:.3e}); this signals a "
                "non-M-matrix domain or an unverified bracket"
            )

    u = [bracket.lower.values.copy(), bracket.upper.values.copy()]
    previous = [None, None]
    # A u from solve_T's last re-check; None where u was not solved for
    action = [None, None]
    psi = [apply_S(problem, Field(domain, v)) for v in u]
    records = ([], [])
    converged = [False, False]
    restarts = [0, 0]
    last_try = 0
    for k in range(1, max_steps + 1):
        # lower must climb, upper must descend
        for i, (name, sign) in enumerate((("lower", 1.0), ("upper", -1.0))):
            if converged[i]:
                continue
            x, report = solve_T(
                linear, psi[i], tol=tol / 100.0, x0=Field(domain, u[i]), Ax0=action[i]
            )
            gap = float((sign * (u[i] - x.values)).max())
            require(gap, f"{name} sequence not monotone at step {k}")
            change = float(np.abs(x.values - u[i]).max())
            previous[i], u[i], action[i] = u[i], x.values, report.Ax
            psi[i] = apply_S(problem, x)
            resid = float(np.abs(action[i] - psi[i].values).max())
            records[i].append(
                StepRecord(k, change, float(u[i].min()), float(u[i].max()), resid)
            )
            converged[i] = change <= tol
        require(float((u[0] - u[1]).max()), f"lower above upper at step {k}")
        if all(converged):
            break
        # never at the last step: its recorded iterate is the one returned
        if RESTART_FIRST_STEP <= k < max_steps and k - last_try >= RESTART_GAP:
            last_try = k
            points = _verified_restarts(
                problem, records, u, previous, converged, restart_tol
            )
            for i, v, image in points:
                # the next warm start forms A v through the CSR matrix
                u[i], psi[i], action[i] = v, image, None
                restarts[i] += 1

    u_star, u_upper_star = u
    sandwich = max(
        float((bracket.lower.values - u_star).max()),
        float((u_star - u_upper_star).max()),
        float((u_upper_star - bracket.upper.values).max()),
    )
    if sandwich > slack:
        raise OrderingError(
            f"sandwich violated by {sandwich:.3e} (slack {slack:.3e})"
        )

    pair = SolutionPair(
        u_star=Field(domain, u_star),
        u_upper_star=Field(domain, u_upper_star),
        residual_lower=records[0][-1].defect_norm,
        residual_upper=records[1][-1].defect_norm,
        coincide=bool(np.abs(u_upper_star - u_star).max() <= 10.0 * tol),
    )
    trace = IterationTrace(
        lower_steps=records[0],
        upper_steps=records[1],
        steps=k,
        converged=all(converged),
        restarts=tuple(restarts),
    )
    return pair, trace
