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

Every step of a side solves one system (see _solve_sides): with J =
A - M diag(D), the side with iterate x solves J v = S(x) - M D x.
D = 0 is the plain step v = T(S(x)), which step 1 takes.  At later
steps D is the entrywise least slope of f F + h H over the current
pair, and v a restart point; as the pair narrows D tends to the
derivative of S at the limit, so the point becomes a Newton step.  This
is the monotone Newton-type iteration of Ortega and Rheinboldt (Iterative
Solution of Nonlinear Equations in Several Variables, 1970, section
13.3) and C. V. Pao (Nonlinear Parabolic and Elliptic Equations, 1992).
Being a lower solution is not enough for the point to stay below the
minimal solution: it may have jumped past it, to the lower solutions of
a larger one.  So a point becomes the side's step only if one
certificate holds (see _certified): T(S(.)) provably contracts between
the current iterate and the point, at a rate Lambda < 1 (see
_contraction_rate), and the point's wrong-sign defect stays within the
bracket rule's allowance at the run's tol or tighter even amplified by
1 / (1 - Lambda), as that bound carries it past the extreme solution.
That makes the point a lower (upper) solution at that tol, and, with
the pair still ordered, leaves no solution in the bracket below a
lower point or above an upper one, whatever produced the point.  So
neither J nor the accuracy of the shifted solve needs a certificate of
its own, and that solve runs only as far as the pair's width calls for
(an inexact Newton step: Dembo, Eisenstat and Steihaug, SIAM J. Numer.
Anal. 19, 1982).  The lower sequence stays below every solution in the
bracket and the upper one above, as without restarts, and the limits
are still the minimal and maximal solutions.  A point within tol of
its iterate is not tried, and its side takes the plain step, so every
kept point moves its side by more than tol.  Two rules stop the run.
Both sides stop on a verified enclosure (see _enclosure): a pair at
most tol wide whose points are a lower and an upper solution, so that
every solution in the bracket lies between them.  Otherwise a side
stops on a step that moves it by at most tol, always a plain one; that
rule ends the runs whose bracket holds several solutions, where the
pair never narrows.  The iteration keeps only the current pair, no
history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Field, mesh_quality
from .linear_operator import ConvergenceError, _dot, _norm, solve_T
from .nonlinearity import apply_S, check_alpha2

DEFAULT_TOL = 1e-9
DEFAULT_MAX_STEPS = 500
ORDERING_SLACK = 1e-9  # relative to max|upper|, the scale of the default tol
SIDES = ("lower", "upper")  # side i of the pair, in that order everywhere


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
    OrderingError at the step where it happens.  A step's record is its
    plain step's (D = 0, as at step 1) or, after a restart, the kept
    point's, whose defect_norm is max|A v - S(v)| from the point's
    certificate image.  restarts counts the kept points of (lower,
    upper), and refusals the points tried and not kept: points that
    moved their side by more than tol and were refused by the
    certificate, the backward check or the ordering, and failed shifted
    CG solves.  A point within tol of its iterate is neither, and neither
    is an upper point from the shared start that is discarded (see
    _kept_points): the attempt from the iterate after it is what counts.
    cg_iterations counts the CG iterations of each side's solves, with
    D = 0 or not, a discarded attempt's included.  enclosure_width is
    max(U - u) of the verified enclosure the run stopped on (see
    _enclosure), or None where it stopped on none.
    """

    lower_steps: list
    upper_steps: list
    steps: int
    converged: bool
    restarts: tuple
    refusals: tuple
    cg_iterations: tuple
    enclosure_width: float | None

    # the names of each row's fields, in order
    COLUMNS = ("step", "seq", "max_change", "min_u", "max_u", "defect_norm")

    def rows(self):
        """Per-step rows, by step, lower before upper."""
        sides = zip(SIDES, (self.lower_steps, self.upper_steps))
        rows = [
            (r.step, seq, r.max_change, r.min_u, r.max_u, r.defect_norm)
            for seq, records in sides
            for r in records
        ]
        return sorted(rows, key=lambda row: row[0])  # stable: lower first


@dataclass(eq=False)
class SolutionPair:
    """The limits; coincide says the run stopped on a verified enclosure."""

    u_star: Field
    u_upper_star: Field
    residual_lower: float
    residual_upper: float
    coincide: bool


def _image(problem, v, psi=None):
    """(A v, S(v)) for an array v, A = L + M diag(a) with L v in edge form.

    S(v) is psi where the caller already has it.
    """
    av = problem.domain.L.edge_product(v)
    mav = problem.domain.mass * problem.a.values
    mav *= v
    av += mav
    return av, apply_S(problem, v) if psi is None else psi


def defect(problem, v, psi=None):
    """Weak-form residual (L + M diag(a)) v - S(v), entrywise.

    Nonpositive everywhere means v is a lower solution, nonnegative an
    upper one; testing against nodal hats suffices since every
    nonnegative test function is a nonnegative combination of them.
    L v takes the edge form of SlotLayout.edge_product, exactly 0 on
    constants, so its roundoff does not swamp M a v on small meshes.
    psi, where given, is S(v), which is then not formed again.
    """
    av, psi = _image(problem, problem.domain.field(v).values, psi)
    return Field(problem.domain, av - psi.values)


# how a failed bracket end reads, by its BracketFailure.kind
FAILURE_TEXT = {
    "negative": "negative entry at vertex {vertex}",
    "zero": "identically zero",
    "unordered": "lower exceeds upper at vertex {vertex}",
    "defect": "defect {defect:.6e} of the wrong sign at vertex {vertex}",
}


@dataclass
class BracketFailure:
    kind: str  # "negative", "zero", "unordered" or "defect"
    vertex: int | None = None
    defect: float | None = None

    def __str__(self):
        return FAILURE_TEXT[self.kind].format_map(vars(self))


def bracket_failures(problem, lower, upper, tol):
    """The first failure at each end of a candidate bracket, or None.

    The one bracket rule: make_bracket runs it on input brackets, and
    _enclosure its _end_failure on the iteration's points; returns
    (lower failure, upper failure).  An end given as None is
    not checked; "zero" and "unordered" need both ends.  Each end stops
    at the first check that fails, in this order:

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
    return (
        None if lo is None else _end_failure(problem, "lower", lo, up, tol),
        None if up is None else _end_failure(problem, "upper", up, None, tol),
    )


def _end_failure(problem, side, v, upper, tol, psi=None):
    """bracket_failures' verdict on one end v; psi is S(v) where known."""
    if v.min() < 0.0:
        return BracketFailure("negative", int(np.argmin(v)))
    if upper is not None and v.max() <= 0.0:
        return BracketFailure("zero")
    if upper is not None and np.any(v > upper):
        return BracketFailure("unordered", int(np.argmax(v - upper)))
    sign = 1 if side == "lower" else -1
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            d = defect(problem, v, psi).values
    except ValueError:  # no check can be made: the input is at fault
        raise ValueError(
            f"'bracket.{side}' overflows: S({side}) = f F({side}) + h H({side}) "
            f"or A {side} is non-finite (largest {side} entry {v.max():g})"
        ) from None
    bad, excess, scale = _worst_defect(problem, sign, v, d)
    if excess <= tol * scale:
        return None
    return BracketFailure("defect", bad, sign * excess)


def _worst_defect(problem, sign, v, d):
    """(i, sign d_i, max|M a v|) for the defect d of v with the largest sign d_i.

    sign is 1 for a lower end, whose defect must be <= 0, and -1 for an
    upper end; d is overwritten with sign * d.
    """
    d *= sign
    bad = int(np.argmax(d))
    scale = float(np.abs(problem.domain.mass * problem.a.values * v).max())
    return bad, float(d[bad]), scale


def make_bracket(problem, lower, upper, verification_tol=DEFAULT_TOL):
    """Verify and package a (lower, upper) pair; raises BracketError."""
    lower = problem.domain.field(lower)
    upper = problem.domain.field(upper)
    failures = bracket_failures(problem, lower, upper, verification_tol)
    for side, failure in zip(SIDES, failures):
        if failure is not None:
            raise BracketError(f"{side} solution check: {failure}", failures)
    return Bracket(lower=lower, upper=upper)


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
    z = max(w, v).  v is a lower (upper) solution only within an
    allowance, which the bound carries over amplified by 1 / (1 - Lambda);
    _certified bounds the amplified defect.  av is A v with L v in edge
    form.
    """
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    np.maximum(lo, 0.0, out=lo)  # S clamps at 0
    np.maximum(hi, 0.0, out=hi)
    if v.min() <= 0.0 or av.min() <= 0.0:
        return np.inf
    with np.errstate(invalid="ignore"):  # 0 * inf where f or h is 0
        slope = problem.f.values * problem.F.max_slope(lo, hi)
        h_slope = problem.H.max_slope(lo, hi)
        del lo, hi
        h_slope *= problem.h.values
        slope += h_slope
        rate = np.max(problem.domain.mass * slope * v / av)
    return float(rate) if np.isfinite(rate) else np.inf


def _least_slope(problem, lower, upper):
    """D: the least slope of f F + h H over [max(lower, 0), max(upper, 0)].

    Entrywise; a non-finite entry (H = t^q with q < 1 at 0, or 0 * inf
    where f or h is 0) becomes 0, which leaves that vertex unshifted.
    """
    lo = np.maximum(lower, 0.0)
    hi = np.maximum(upper, 0.0)
    with np.errstate(invalid="ignore"):
        slope = problem.f.values * problem.F.min_slope(lo, hi)
        slope += problem.h.values * problem.H.min_slope(lo, hi)
    slope[~np.isfinite(slope)] = 0.0
    return slope


def _solve_sides(problem, u, psi, action, sides, shift, tol, cg):
    """({side: (v, SolveReport)}, shared): one step's solves for sides.

    shift is m D, and side i solves J v = S(u_i) - M D u_i with
    J = A - M diag(D), from u_i, whose A u_i is action[i]; shift None is
    the plain step, J = A and v = T(S(u_i)).  The lower side solves
    first.  Where both do, the upper one starts from rho v_l instead, v_l
    the lower side's solution and rho = b_u.b_l / b_l.b_l for the two
    right-hand sides, where _shared_start prefers it; shared says whether
    it did.  A plain step solves to tol or raises ConvergenceError; a
    shifted solve that fails, as CG may on a J that is not positive
    definite, gives v = None.  Each side's CG iterations are added to cg.
    """
    solved, shared, lower = {}, False, None
    for i in sides:
        x0, jx0, b = u[i], action[i], psi[i]
        if shift is not None:
            jx0 = shift * x0  # M D x, then J x in its buffer
            b = Field(problem.domain, b.values - jx0)
            np.subtract(action[i], jx0, out=jx0)
        if lower:  # the upper side, with the lower side's [v_l, J v_l, b_l]
            if shift is None:  # a fresh A x, which _shared_start writes into
                jx0 = problem.domain.L.product(x0, problem.linear.diagonal)
            rho = _projection(b.values, lower.pop())
            x0, jx0 = _shared_start(rho, lower, (x0, jx0), b.values)
            shared = x0 is not u[i]
            lower.clear()  # a shifted step's J v_l dies here
        try:
            v, report = solve_T(problem.linear, b, tol=tol, x0=x0, Ax0=jx0, shift=shift)
        except ConvergenceError as exc:
            if shift is None:
                raise
            v, report = None, exc.report
        del x0, jx0  # a shared start's two vectors die here
        cg[i] += report.iterations
        if i == 0 and v is not None:
            lower = [v, report.Ax, b.values]
            if shift is not None:  # J v_l serves only the upper side's start
                report.Ax = None
        solved[i] = v, report
    return solved, shared


def _certified(problem, sign, v, u, image, tol):
    """Whether the restart point v may replace the iterate u of its side.

    sign is 1 for the lower side and -1 for the upper one; image is v's
    (A v, S(v)).  The one certificate of a restart point: the contraction
    rate Lambda between u and v is below 1, and v's worst defect of the
    wrong sign, which the rate's bound carries past the extreme solution
    amplified by 1 / (1 - Lambda), stays within tol * max|M a v| even so.
    It implies the bracket rule at tol: Lambda < 1 needs v > 0 and
    A v > 0, and Lambda >= 0 (m > 0, f and h >= 0 by alpha2, slopes
    >= 0), so the allowance (1 - Lambda) * tol * max|M a v| is at most
    the rule's.
    """
    av, psi = image
    rate = _contraction_rate(problem, v, u, av)
    if not rate < 1.0:
        return False
    _, excess, scale = _worst_defect(problem, sign, v, av - psi.values)
    return excess <= (1.0 - rate) * tol * scale


def _verdict(problem, i, v, u, restart_tol, slack):
    """(v, (A v, S(v))) if the point v of side i may replace its iterate u.

    None if v is None (a failed solve), if _certified refuses v at
    restart_tol, or if v moves its side back by more than slack.
    """
    if v is None:
        return None
    sign = 1 - 2 * i
    image = _image(problem, v)
    if (
        _certified(problem, sign, v, u, image, restart_tol)
        and float((sign * (u - v)).max()) <= slack
    ):
        return v, image
    return None


def _ordered(u, kept):
    """Whether the pair the kept points leave is ordered, lower <= upper."""
    lower, upper = (kept[i][0] if kept.get(i) else u[i] for i in (0, 1))
    return not np.any(lower > upper)


def _kept_points(problem, u, psi, action, sides, tol, linear_tol, restart_tol, slack, cg):
    """{side: (v, (A v, S(v))) if kept, else None} for the points tried.

    Each side in sides gets its point from _solve_sides, with D taken
    over the current pair u and CG run to max(linear_tol, min(1e-2, w^2)),
    w = max(upper - lower): the solve gets as accurate as the pair is
    narrow, and a looser point can only be refused, never trusted.  Both
    sides solve with the same J, and near the limit the lower side's
    point lies about w^2 from the upper side's where the upper iterate
    lies about w away: the projection start for systems that share a
    matrix (Chan and Wan, SIAM J. Sci. Comput. 18, 1997).  A point
    within tol of its iterate is not tried: it gets no image and no
    certificate, and its side takes the plain step.  A failed solve is
    tried and not kept.  Any other point is kept if _verdict accepts it,
    from its (A v, S(v)), formed once; the kept points stand only if the
    pair they leave stays ordered.  An upper point from the shared start
    that is tried and not kept is discarded, and the upper side solves
    again from its iterate, so the outcome, a refusal included, is that
    attempt's; cg counts both.
    """
    width = float((u[1] - u[0]).max())
    eta = max(linear_tol, min(1e-2, width * width))

    def tried(i, v):  # a failed solve is; a point within tol of u[i] is not
        return v is None or float(np.abs(v - u[i]).max()) > tol

    kept, todo = {}, sides
    while todo:  # twice at most: a discarded shared point is solved again
        # m D dies with the solves, before the verdicts; a second round
        # forms it again from the same pair, to the same bits
        shift = problem.domain.mass * _least_slope(problem, *u)
        solved, shared = _solve_sides(problem, u, psi, action, todo, shift, eta, cg)
        del shift
        points = {i: v for i, (v, _) in solved.items() if tried(i, v)}
        del solved  # the reports' J v
        for i, v in points.items():
            kept[i] = _verdict(problem, i, v, u[i], restart_tol, slack)
        todo = []
        if shared and 1 in points and not (kept[1] and _ordered(u, kept)):
            del points, v, kept[1]  # the shared attempt, the last v, is discarded
            todo = [1]
    return kept if _ordered(u, kept) else dict.fromkeys(kept)


def _enclosure(problem, u, psi, verified, tol, restart_tol):
    """max(U - u) if the pair u is a verified enclosure within tol, else None.

    The chain keeps every solution in the bracket between the two sides.
    The pair must be at most tol wide, and each of its points a verified
    lower (upper) solution, whatever rounding and inexact solves did, so
    that a solution lies between them.  verified[i] is side i's verdict
    on its point u[i]: True for a kept point, one by _certified, and None
    for a plain step's point not yet judged.  Such a point must pass the
    bracket rule at restart_tol, from its S(v), psi[i]; the rule runs
    only on a pair that narrow, lower side first, and its verdict is
    stored in verified[i], where it stands until the side moves.
    """
    width = float((u[1] - u[0]).max())
    if width > tol:
        return None
    for i in (0, 1):
        if verified[i] is None:  # a BracketFailure is truthy, a pass None
            verified[i] = not _end_failure(problem, SIDES[i], u[i], None, restart_tol, psi[i])
        if not verified[i]:
            return None
    return width


def _projection(b, b_l):
    """rho = b.b_l / b_l.b_l, the multiple of b_l nearest to b; nan or inf
    where b_l is 0 or the products overflow."""
    with np.errstate(all="ignore"):
        return _dot(b, b_l) / _dot(b_l, b_l)


def _shared_start(rho, shared, own, b):
    """(x0, J x0) for the upper side's solve of J x = b.

    shared is the lower side's (x_l, J x_l) on the same J, solving
    J x_l = b_l, and rho = b.b_l / b_l.b_l (see _projection); own is
    the side's own start (x, J x).  The start is rho x_l, with
    J x0 = rho J x_l, where that start's residual is below the own one's,
    ||b - rho J x_l|| < ||b - J x||, and own otherwise; a non-finite rho
    leaves a non-finite residual, which is never below.  rho x_l is
    written into the buffer of J x, which the caller then drops.
    """
    x_l, jx_l = shared
    x, jx = own
    with np.errstate(all="ignore"):
        jx0 = rho * jx_l
        if not _norm(b - jx0) < _norm(b - jx):
            return own
    return np.multiply(rho, x_l, out=jx), jx0


def iterate_monotone(problem, bracket, tol=DEFAULT_TOL, max_steps=DEFAULT_MAX_STEPS):
    """Run both monotone sequences in lockstep and certify the chain.

    The bracket is trusted: make_bracket, its only producer, verified
    it.  Each step advances every side that has not converged by one
    linear solve, and checks within ORDERING_SLACK that the lower side
    did not go down, the upper side did not go up, and lower <= upper.
    A converged side stays frozen at its last iterate.

    _solve_sides makes every solve, on J = A - M diag(D) with A's
    preconditioner, the lower side first and warm started from the
    iterate's own A x and S(x).  Where both sides solve one J, the upper
    side starts from rho v_l, v_l the lower side's solution and rho =
    b_u.b_l / b_l.b_l for the two right-hand sides, wherever that start
    leaves a smaller residual than its iterate (see _shared_start).
    solve_T's stop rule and true-residual re-check are the same from
    either start, so the start moves only the CG count and the last bits
    of the iterate.  Step 1 is the unshifted case, D = 0, for both sides:
    the plain step T(S(.)), with T solved to tol / 100; with S(upper)
    parallel to S(lower), as with constant f, h and bracket ends, the
    upper start already solves its equation.  At every step after the
    first, the running sides first solve for their shifted points
    (see _kept_points); a shared point that is not kept is discarded,
    and the upper side solves again from its iterate.  A point within
    tol of the iterate is not tried.  Any other point becomes the side's
    step if _certified finds it a lower (upper) solution that no
    solution in the bracket lies beyond, it moves its side back by at
    most the slack, and the pair stays ordered.  The point is certified
    at tol, or at ORDERING_SLACK * min(m a) / max(m a) if that is
    smaller, so that the plain step after it cannot move back beyond the
    slack.  Otherwise the side takes the plain step, alone: a later
    plain step shares no start.
    Two rules stop the iteration.  Both sides stop on the first step
    that leaves a verified enclosure (see _enclosure): the pair is at
    most tol wide, and each point is a kept one, verified by its
    certificate, or passes the bracket rule at the certificate's tol;
    every solution in the bracket then lies between the two.  Otherwise
    a side stops on a step that moves it by at most tol, which a kept
    point never does; this ends a run whose bracket holds several
    solutions, where the pair never narrows.  pair.coincide says the run
    stopped on an enclosure, and trace.enclosure_width is its width, or
    None.  The limits are checked against the input bracket (the
    sandwich).

    max_steps only ends the loop: a step does the same work whatever the
    budget, so a run cut at N steps is the first N steps of a longer one.
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
    del ma  # each N-vector held through the loop raises the peak memory

    def require(amount, description):
        if amount > slack:
            raise OrderingError(
                f"chain ordering violated beyond slack {slack:.3e}: "
                f"{description} (amount {amount:.3e}); this signals a "
                "non-M-matrix domain or an unverified bracket"
            )

    linear_tol = tol / 100.0
    u = [bracket.lower.values.copy(), bracket.upper.values.copy()]
    # A u from solve_T's last re-check or a kept point's image; None
    # where u was not solved for
    action = [None, None]
    psi = [apply_S(problem, v) for v in u]
    records = ([], [])
    converged = [False, False]
    restarts = [0, 0]
    refusals = [0, 0]
    cg = [0, 0]
    verified = [None, None]  # each point's verdict, see _enclosure
    for k in range(1, max_steps + 1):
        sides = [i for i in (0, 1) if not converged[i]]
        tried, plain = {}, {}
        if k > 1:
            tried = _kept_points(
                problem, u, psi, action, sides, tol, linear_tol, restart_tol, slack, cg
            )
            for i, point in tried.items():
                refusals[i] += point is None
        for i in sides:
            if tried.get(i) is not None:
                v, (av, s) = tried[i]
                restarts[i] += 1
                verified[i] = True
            else:
                if i not in plain:  # both sides at step 1, later one side alone
                    plain, _ = _solve_sides(
                        problem, u, psi, action, sides if k == 1 else [i], None,
                        linear_tol, cg,
                    )
                v, report = plain.pop(i)
                # lower must climb, upper must descend
                gap = float(((1 - 2 * i) * (u[i] - v)).max())
                require(gap, f"{SIDES[i]} sequence not monotone at step {k}")
                av, s = report.Ax, apply_S(problem, v)
                del report  # its Ax would outlive the kept point that replaces it
                verified[i] = None
            change = float(np.abs(v - u[i]).max())
            u[i], action[i], psi[i] = v, av, s
            converged[i] = change <= tol
            resid = float(np.abs(action[i] - psi[i].values).max())
            records[i].append(
                StepRecord(k, change, float(u[i].min()), float(u[i].max()), resid)
            )
        require(float((u[0] - u[1]).max()), f"lower above upper at step {k}")
        width = _enclosure(problem, u, psi, verified, tol, restart_tol)
        if width is not None or all(converged):
            break

    u_star, u_upper_star = u
    # the middle link, u_star <= u_upper_star, is the last step's require
    sandwich = max(
        float((bracket.lower.values - u_star).max()),
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
        coincide=width is not None,
    )
    trace = IterationTrace(
        lower_steps=records[0],
        upper_steps=records[1],
        steps=k,
        converged=width is not None or all(converged),
        restarts=tuple(restarts),
        refusals=tuple(refusals),
        cg_iterations=tuple(cg),
        enclosure_width=width,
    )
    return pair, trace
