"""Circular-arc and biarc primitives over a chord.

Every curve here lives in a local chord frame: the chord is the segment
[-c, c] of the x axis and each curve is the graph of a function y(x)
over it.  Angles are tangent directions measured from the chord;
curvature is signed, positive when the curve turns left as x increases.

Along a circle piece of curvature k through the chord end (x_e, 0),
with tangent angle theta_e there, the sine of the tangent angle is
linear in x:

    sin(theta(x)) = sin(theta_e) + k (x - x_e).

Integrating dy/dx = tan(theta) gives the height in a form that does not
cancel, for k = 0 (a segment) as well:

    y = t / (cos(theta_e) + sqrt(cos(theta_e)^2 - k t)),
    t = u (2 sin(theta_e) + k u),   u = x - x_e.

Every boundary curve is two such pieces, the first from (-c, 0) up to
the join abscissa, the second from (c, 0).  The one-parameter arc family
through both chord endpoints,

    A(x; c, phi) = (c^2 - x^2) sin(phi)
                   / (c cos(phi) + sqrt(c^2 - x^2 sin(phi)^2)),

with start tangent angle phi, end tangent angle -phi and constant
curvature k = -sin(phi)/c, is the pair (phi, k) and (-phi, k) split at
mid-chord.  A biarc joins two circular arcs with a common tangent at an
interior join point; the pair of boundary curvatures (a at x=-c, b at
x=+c) must satisfy the tangency condition

    (a c + sin(alpha)) (b c - sin(beta)) + sin(omega)^2 = 0,

omega = (alpha + beta)/2.  Solutions form a one-parameter family with
p in [0, inf]:

    a(p) = -(sin(alpha) + sin(omega)/p) / c,
    b(p) = (sin(beta) + p sin(omega)) / c,

so p = -sin(omega)/(a c + sin(alpha)) = (b c - sin(beta))/sin(omega).
Equal sines of both pieces at the join place it at

    x_j = c (p^2 - 1) / (p^2 + 2 p cos((alpha - beta)/2) + 1).

p = 0 degenerates to the single arc A(x; c, -beta), p = inf to
A(x; c, alpha), and omega = 0 collapses the family to A(x; c, alpha)
for every p.

family(c, alpha, beta, p) builds members for arrays of chords at once;
the biarc_from_* factories check and wrap it.  A lens arc A(x; c, phi)
is the member (alpha, beta, a, b, p) = (phi, -phi, -sin(phi)/c,
-sin(phi)/c, inf), omega = 0, joined at mid-chord; arcs(c, phi) builds
it without family().  curves() turns members into Arc and Biarc objects
and members(), its inverse, turns objects back, so every boundary is
one record, member fields plus an arc mask, read by family_pieces().

instances(cls, *columns) is the one bulk constructor of the frozen
dataclasses here and in regions, which calls it when a region's chords
are first read: one object per row, each field written a column at a
time through the slot descriptors.  It runs no __post_init__, so callers
pass checked columns, and its objects equal the constructor's.

One rule gives p from a start curvature.  Traversed backwards (turned
by pi), a chord swaps alpha and beta and its member has start curvature
-b and parameter 1/p, so the end rule is the start rule on
(beta, alpha, -b), with p -> 1/p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .errors import DomainError, InfeasibleCurvatureError

TWO_PI = 2.0 * math.pi

# Tolerances below are dimensionless (angles, or curvature*length).
DEGENERATE_TOL = 1e-12   # biarc collapses to its single-arc limit
ANGLE_SLACK = 1e-12      # slack when validating |angle| <= pi/2
ABSCISSA_SLACK = 1e-12   # relative slack when validating |x| <= c


def wrap_angle(theta):
    """Wrap an angle (scalar or array) to (-pi, pi]."""
    w = np.mod(np.asarray(theta, dtype=float) + math.pi, TWO_PI) - math.pi
    w = np.where(w == -math.pi, math.pi, w)
    return float(w) if np.ndim(theta) == 0 else w


@dataclass(frozen=True, slots=True)
class ChordFrame:
    """Local frame of a chord: origin at the midpoint, x axis along it."""

    origin: tuple[float, float]
    direction: float
    half_length: float

    @property
    def axes(self):
        """Rotation into the frame: columns chord direction t, normal n."""
        co, si = math.cos(self.direction), math.sin(self.direction)
        return np.array([[co, -si], [si, co]])

    # perfbench/micro.py times to_local; the package rotates columns
    def to_local(self, points):
        """Map global points (2,) or (n, 2) to chord coordinates."""
        return (np.asarray(points, dtype=float) - self.origin) @ self.axes

    # to_local's inverse, kept with it until perfbench/ stops timing it
    def to_global(self, points):
        """Map chord coordinates back to the global plane."""
        return np.asarray(points, dtype=float) @ self.axes.T + self.origin


@dataclass(frozen=True, slots=True)
class Arc:
    """Circular arc through (-c, 0) and (c, 0) with start tangent angle phi."""

    c: float
    phi: float

    def __post_init__(self):
        if not self.c > 0.0:
            raise DomainError("arc needs a positive half-chord, got %r" % (self.c,))
        if abs(self.phi) > 0.5 * math.pi + ANGLE_SLACK:
            raise DomainError(
                "arc tangent angle %g exceeds pi/2; such an arc is not a graph "
                "over its chord" % self.phi)


@dataclass(frozen=True, slots=True)
class Biarc:
    """Two tangent circular arcs from (-c, 0) to (c, 0).

    alpha, beta are the boundary tangent angles, a and b the (finite)
    boundary curvatures, p the family parameter, join the point where the
    pieces meet.  family() holds many as arrays; the biarc_from_* factories
    return a plain Arc whenever the requested member degenerates.
    """

    c: float
    alpha: float
    beta: float
    a: float
    b: float
    p: float
    join: tuple[float, float]


@functools.cache
def _setters(cls):
    """The slot descriptors' __set__ of cls's fields, in field order."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


def instances(cls, *columns):
    """One cls per row of the columns, a column per field in field order.

    cls is a frozen slots dataclass; each field is written a column at a
    time through its slot, which a frozen class's __setattr__ would
    refuse, and no __post_init__ runs, so the columns must hold values
    the constructor would accept.  The objects compare, hash and print
    like the constructor's and are just as frozen.
    """
    objs = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for set_field, column in zip(_setters(cls), columns):
        list(map(set_field, objs, column))
    return objs


def height(cols, x):
    """Height over x of the curves with family_pieces() cols, |x| <= c."""
    c, xj, s1, c1, k1, s2, c2, k2 = cols
    first = x <= xj
    u = np.where(first, x + c, x - c)
    s = np.where(first, s1, s2)
    co = np.where(first, c1, c2)
    k = np.where(first, k1, k2)
    t = u * (2.0 * s + k * u)
    den = co + np.sqrt(np.maximum(co * co - k * t, 0.0))
    # den vanishes only at a vertical end tangent, where t = 0 as well
    return np.divide(t, den, out=np.zeros_like(t), where=den > 0.0)


def gap_maxima(lo, up):
    """Largest gap up - lo per row of two piece tables, in closed form.

    Inside a pair of pieces the gap is stationary where the tangent sines
    agree; both sines are linear in x, so each pair has one root.  The
    gap is largest at a join or at one of the four roots (clipped into
    the chord); evaluating it elsewhere only adds a smaller candidate.
    """
    c = lo[0]
    xs = [lo[1], up[1]]
    for s_lo, k_lo, end_lo in ((lo[2], lo[4], -c), (lo[5], lo[7], c)):
        for s_up, k_up, end_up in ((up[2], up[4], -c), (up[5], up[7], c)):
            # s_up + k_up (x - end_up) = s_lo + k_lo (x - end_lo)
            num = s_lo - s_up + k_up * end_up - k_lo * end_lo
            dk = k_up - k_lo
            xs.append(np.divide(num, dk, out=np.zeros_like(num),
                                where=dk != 0.0))
    x = np.clip(np.hstack(xs), -c, c)
    return np.max(height(up, x) - height(lo, x), axis=1)


def curve_eval(curve, x):
    """Height of an Arc or a Biarc over abscissa x (scalar or array)."""
    c = curve.c
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > c * (1.0 + ABSCISSA_SLACK)):
        raise DomainError("abscissa outside [-c, c] for c=%g" % c)
    if isinstance(curve, Arc):   # its arcs() member
        phi, k = curve.phi, -math.sin(curve.phi) / c
        curve = Biarc(c, phi, -phi, k, k, math.inf, (0.0, math.nan))
    # family_pieces() in scalars: on floats NumPy's per-call cost dominates
    cols = (c, curve.join[0], math.sin(curve.alpha), math.cos(curve.alpha),
            curve.a, math.sin(curve.beta), math.cos(curve.beta), curve.b)
    y = height(cols, np.clip(xa, -c, c))
    return float(y) if np.ndim(x) == 0 else y


# perfbench/micro.py times these names; kept for it alone
arc_eval = biarc_eval = curve_eval


def family(c, alpha, beta, p):
    """Members of the biarc family, one per element of the broadcast inputs:
    a Biarc whose fields are arrays, and the mask of the degenerate members,
    each held as its arc's two pieces.  Inputs are unchecked."""
    c, alpha, beta, p = np.broadcast_arrays(c, alpha, beta, p)
    flat = np.abs(0.5 * (alpha + beta)) < DEGENERATE_TOL
    arc = flat | (p == 0.0) | np.isinf(p)
    # an arc A(x; c, phi) is the member with omega = 0, joined at p = 1
    phi = np.where(~flat & (p == 0.0), -beta, alpha)
    alpha, beta = np.where(arc, phi, alpha), np.where(arc, -phi, beta)
    q = np.where(arc, 1.0, p)
    so = np.sin(0.5 * (alpha + beta))
    a = -(np.sin(alpha) + so / q) / c
    b = (np.sin(beta) + q * so) / c
    # x_j of the module docstring, numerator and denominator divided by p
    xj = c * (q - 1.0 / q) / (q + 1.0 / q + 2.0 * np.cos(0.5 * (alpha - beta)))
    yj = height(family_pieces(Biarc(c, alpha, beta, a, b, p, (xj, None))), xj)
    return Biarc(c, alpha, beta, a, b, p, (xj, yj)), arc


def arcs(c, phi):
    """The arcs A(x; c, phi) as family() members, one per element of phi,
    c broadcasting against it.  The join is at mid-chord, its height NaN:
    no reader of an arc needs it.  -sin(phi)/c keeps phi's sign of zero."""
    phi = np.asarray(phi, dtype=float)
    c = np.broadcast_to(c, phi.shape)
    k = -np.sin(phi) / c
    return Biarc(c, phi, -phi, k, k, np.full(phi.shape, math.inf),
                 (np.zeros(phi.shape), np.full(phi.shape, math.nan)))


def family_pieces(members):
    """The two circle pieces of family() members as columns of their
    shape: c, join abscissa x_j, then sin, cos of the end angle and the
    curvature of the piece through (-c, 0), covering x <= x_j, then of
    the piece through (c, 0)."""
    return (members.c, members.join[0],
            np.sin(members.alpha), np.cos(members.alpha), members.a,
            np.sin(members.beta), np.cos(members.beta), members.b)


def member_fields(members):
    """c, alpha, beta, a, b, p and the join's x and y of members."""
    return (members.c, members.alpha, members.beta, members.a, members.b,
            members.p, *members.join)


def curves(members, arc):
    """family() members as Arc and Biarc objects, in row order: the arc
    mask's rows as Arc(c, alpha), the rest as Biarc.  Like family(), it
    checks nothing: the members' angles must lie within pi/2 and c > 0."""
    arc = np.ravel(arc)
    c, alpha, *rest = (np.ravel(v) for v in member_fields(members))
    out = np.empty(arc.size, object)
    # through fromiter: assigning a list would probe every object in it
    out[arc] = np.fromiter(instances(Arc, c[arc].tolist(),
                                     alpha[arc].tolist()), object)
    *head, xj, yj = (v[~arc].tolist() for v in (c, alpha, *rest))
    out[~arc] = np.fromiter(instances(Biarc, *head, list(zip(xj, yj))),
                            object)
    return out.tolist()


def members(curves):
    """Arc and Biarc objects as family() members shaped (n,) and their
    arc mask, the inverse of curves(); an Arc is its arcs() member."""
    rows = np.array([
        (cv.c, cv.phi) + (math.nan,) * 6 if isinstance(cv, Arc)
        else member_fields(cv) for cv in curves], dtype=float).reshape(-1, 8).T
    arc = np.isnan(rows[2])   # a Biarc's beta is a number
    fields = [np.where(arc, u, v)
              for u, v in zip(member_fields(arcs(*rows[:2])), rows)]
    return Biarc(*fields[:6], tuple(fields[6:])), arc


def start_parameter(c, alpha, beta, a):
    """p of the member with start curvature a, per element; NaN where no
    member has it.  a = -sign(omega) inf tags the p = 0 member."""
    omega = 0.5 * (alpha + beta)
    t = a * c + np.sin(alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = -np.sin(omega) / t
    p = np.where(np.minimum(abs(t), abs(omega)) < DEGENERATE_TOL, math.inf, p)
    # an infinite a of the wrong sign gives p = -0.0
    return np.where(np.signbit(p), math.nan, p)


def end_parameter(c, alpha, beta, b):
    """p of the member with end curvature b: the start rule, reversed."""
    with np.errstate(divide="ignore"):
        return 1.0 / start_parameter(c, beta, alpha, -b)


def _member(c, alpha, beta, p, request=None):
    """One checked member; a NaN p means no member has `request`."""
    lim = 0.5 * math.pi + ANGLE_SLACK   # written so that NaN fails it
    if not (c > 0.0 and abs(alpha) <= lim and abs(beta) <= lim):
        raise DomainError("biarc needs c > 0 and |alpha|, |beta| <= pi/2, "
                          "got c=%r, alpha=%r, beta=%r" % (c, alpha, beta))
    if request and math.isnan(p):
        raise InfeasibleCurvatureError("no biarc with %s for alpha=%g, beta=%g"
                                       % (request, alpha, beta))
    if math.isnan(p) or p < 0.0:
        raise DomainError("family parameter must lie in [0, inf], got %r" % (p,))
    return curves(*family(c, alpha, beta, p))[0]


# kept for perfbench/micro.py and the tests; the package uses family()
def biarc_from_p(c, alpha, beta, p):
    """Member of the biarc family for parameter p in [0, inf].

    Returns an Arc for the degenerate members: p = 0 gives A(x; c, -beta),
    p = inf gives A(x; c, alpha), and omega = 0 gives A(x; c, alpha)
    whatever p is.
    """
    return _member(c, alpha, beta, p)


# kept for perfbench/micro.py and the tests; the package uses family()
def biarc_from_a(c, alpha, beta, a):
    """Biarc with prescribed start curvature a; a = -sign(alpha + beta) inf
    selects the p = 0 member, a = -sin(alpha)/c the p = inf member."""
    return _member(c, alpha, beta, float(start_parameter(c, alpha, beta, a)),
                   "start curvature a=%g (needs a*c <= -sin(alpha))" % a)


# kept for perfbench/micro.py and the tests; the package uses family()
def biarc_from_b(c, alpha, beta, b):
    """Biarc with prescribed end curvature b (math.inf allowed as a tag)."""
    return _member(c, alpha, beta, float(end_parameter(c, alpha, beta, b)),
                   "end curvature b=%g (needs b*c >= sin(beta))" % b)
