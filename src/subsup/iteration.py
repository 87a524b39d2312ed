"""Bracket verification and the two-sided monotone iteration.

A verified bracket is a pair of fields 0 <= lower <= upper with the
defect signs of a lower and an upper solution.  From its two ends the
driver runs u_{k+1} = T(S(u_k)); on an M-matrix compatible domain with
valid sign hypotheses the lower sequence climbs, the upper one
descends, and both stay ordered, so the limits are the minimal and
maximal fixed points inside the bracket.  The iteration advances both
sequences in lockstep and checks each new link of that chain as it is
made, within a small relative slack; the first bend beyond it (from
floating point or a broken precondition) aborts the run loudly.  No
iterate history is kept, only the current pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Field, mesh_quality
from .linear_operator import solve_T
from .nonlinearity import apply_S, check_alpha2
from .serialize import write_csv, write_json

ORDERING_SLACK = 1e-9  # relative, same scale as the default stopping tol


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

    ordering_violations is always 0: a bend of the chain beyond slack
    raises OrderingError at the step where it happens, so a trace only
    exists for an intact chain.  The field stays for summary.json.
    """

    lower_steps: list
    upper_steps: list
    ordering_violations: int
    steps: int
    converged: bool

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


def defect(problem, v):
    """Weak-form residual (L + M diag(a)) v - S(v), entrywise.

    Nonpositive everywhere means v is a lower solution, nonnegative an
    upper one; testing against nodal hats suffices since every
    nonnegative test function is a nonnegative combination of them.
    """
    v = problem.domain.field(v)
    lhs = problem.linear.system_matrix @ v.values
    return Field(problem.domain, lhs - apply_S(problem, v).values)


@dataclass
class BracketFailure:
    kind: str  # "negative", "zero", "unordered" or "defect"
    message: str
    vertex: int | None = None
    defect: float | None = None


def bracket_failures(problem, lower, upper, tol):
    """The first failure at each end of a candidate bracket, or None.

    The one bracket rule; returns (lower failure, upper failure).  An end
    given as None is not checked; "zero" and "unordered" need both ends.
    Each end stops at the first check that fails, in this order:

    - "negative": some entry is below 0 (names the most negative one);
    - "zero": the lower end is identically 0;
    - "unordered": lower > upper somewhere (names the largest excess);
    - "defect": the worst defect of the wrong sign exceeds
      tol * (max |M a v| + eps), v being that end.
    """
    lo, up = (
        None if v is None else problem.domain.field(v).values for v in (lower, upper)
    )
    return (
        None if lo is None else _end_failure(problem, "lower", lo, up, tol),
        None if up is None else _end_failure(problem, "upper", up, None, tol),
    )


def _end_failure(problem, side, v, upper, tol):
    if v.min() < 0.0:
        bad = int(np.argmin(v))
        message = f"{side} solution negative at vertex {bad}"
        return BracketFailure("negative", message, bad)
    if upper is not None and v.max() <= 0.0:
        return BracketFailure("zero", "lower solution is identically zero")
    if upper is not None and np.any(v > upper):
        bad = int(np.argmax(v - upper))
        return BracketFailure("unordered", f"lower > upper at vertex {bad}", bad)
    d = defect(problem, v).values
    scale = float(np.abs(problem.domain.mass * problem.a.values * v).max())
    allow = tol * (scale + np.finfo(float).eps)
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


def make_bracket(problem, lower, upper, verification_tol=1e-9):
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


def iterate_monotone(problem, bracket, tol=1e-9, max_steps=500, linear_tol=None):
    """Run both monotone sequences in lockstep and certify the chain.

    The bracket is trusted: make_bracket, its only producer, verified
    it.  Each step advances every side that has not converged, one
    T(S(.)) each, and checks within ORDERING_SLACK that the lower side
    did not go down, the upper side did not go up, and lower <= upper.
    A converged side stays frozen at its last iterate.  Returns
    (SolutionPair, IterationTrace).  Non-convergence within max_steps is
    reported through the trace's converged flag, not an exception; the
    first bend of the chain beyond slack raises OrderingError.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be a finite number > 0")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if linear_tol is None:
        linear_tol = tol / 100.0
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
    slack = ORDERING_SLACK * max(float(np.abs(bracket.upper.values).max()), 1.0)

    def require(amount, description):
        if amount > slack:
            raise OrderingError(
                f"chain ordering violated beyond slack {slack:.3e}: "
                f"{description} (amount {amount:.3e}); this signals a "
                "non-M-matrix domain or an unverified bracket"
            )

    u = [bracket.lower.values.copy(), bracket.upper.values.copy()]
    psi = [apply_S(problem, Field(domain, v)) for v in u]
    records = ([], [])
    converged = [False, False]
    for k in range(1, max_steps + 1):
        # lower must climb, upper must descend
        for i, (name, sign) in enumerate((("lower", 1.0), ("upper", -1.0))):
            if converged[i]:
                continue
            x, _ = solve_T(linear, psi[i], tol=linear_tol, x0=Field(domain, u[i]))
            gap = float((sign * (u[i] - x.values)).max())
            require(gap, f"{name} sequence not monotone at step {k}")
            change = float(np.abs(x.values - u[i]).max())
            u[i] = x.values
            psi[i] = apply_S(problem, x)
            resid = float(np.abs(linear.system_matrix @ u[i] - psi[i].values).max())
            records[i].append(
                StepRecord(k, change, float(u[i].min()), float(u[i].max()), resid)
            )
            converged[i] = change <= tol
        require(float((u[0] - u[1]).max()), f"lower above upper at step {k}")
        if all(converged):
            break

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
        ordering_violations=0,
        steps=k,
        converged=all(converged),
    )
    return pair, trace
