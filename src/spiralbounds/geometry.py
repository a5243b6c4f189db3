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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
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

    def to_local(self, points):
        """Map global points (2,) or (n, 2) to chord coordinates."""
        return (np.asarray(points, dtype=float) - self.origin) @ self.axes

    def to_global(self, points):
        """Map chord coordinates back to the global plane."""
        return np.asarray(points, dtype=float) @ self.axes.T + self.origin


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Biarc:
    """Two tangent circular arcs from (-c, 0) to (c, 0).

    alpha, beta are the boundary tangent angles, a and b the (finite)
    boundary curvatures, p the family parameter, join the point where the
    pieces meet.  Instances are built by the biarc_from_* factories, which
    return a plain Arc whenever the requested member degenerates.
    """

    c: float
    alpha: float
    beta: float
    a: float
    b: float
    p: float
    join: tuple[float, float]


def pieces(curve):
    """Parameters of the two circle pieces of an Arc or a Biarc.

    Returns (c, x_join, then sin, cos of the end angle and curvature of
    the piece through (-c, 0), then the same for the piece through
    (c, 0)); the first piece covers x <= x_join.
    """
    c = curve.c
    if isinstance(curve, Arc):
        s, co = math.sin(curve.phi), math.cos(curve.phi)
        return (c, 0.0, s, co, -s / c, -s, co, -s / c)
    return (c, curve.join[0], math.sin(curve.alpha), math.cos(curve.alpha),
            curve.a, math.sin(curve.beta), math.cos(curve.beta), curve.b)


def piece_table(curves):
    """pieces() of many curves as columns shaped (n, 1), which broadcast
    against an (n, m) grid of abscissae, one row per curve."""
    return np.array([pieces(curve) for curve in curves]).T[..., None]


def height(cols, x):
    """Height over x of the curves whose pieces() are `cols`, |x| <= c."""
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
    y = height(pieces(curve), np.clip(xa, -c, c))
    return float(y) if np.ndim(x) == 0 else y


arc_eval = biarc_eval = curve_eval


def _check_biarc_args(c, alpha, beta):
    if not c > 0.0:
        raise DomainError("biarc needs a positive half-chord, got %r" % (c,))
    for name, ang in (("alpha", alpha), ("beta", beta)):
        if abs(ang) > 0.5 * math.pi + ANGLE_SLACK:
            raise DomainError("biarc boundary angle %s=%g exceeds pi/2" % (name, ang))


def biarc_from_p(c, alpha, beta, p):
    """Member of the biarc family for parameter p in [0, inf].

    Returns an Arc for the degenerate members: p = 0 gives A(x; c, -beta),
    p = inf gives A(x; c, alpha), and omega = 0 gives A(x; c, alpha)
    whatever p is.
    """
    _check_biarc_args(c, alpha, beta)
    if math.isnan(p) or p < 0.0:
        raise DomainError("family parameter must lie in [0, inf], got %r" % (p,))
    omega = 0.5 * (alpha + beta)
    if abs(omega) < DEGENERATE_TOL:
        return Arc(c, alpha)
    if p == 0.0:
        return Arc(c, -beta)
    if math.isinf(p):
        return Arc(c, alpha)
    so = math.sin(omega)
    a = -(math.sin(alpha) + so / p) / c
    b = (math.sin(beta) + p * so) / c
    # x_j of the module docstring, numerator and denominator divided by p
    xj = c * (p - 1.0 / p) / (p + 1.0 / p
                              + 2.0 * math.cos(0.5 * (alpha - beta)))
    spec = Biarc(c=c, alpha=alpha, beta=beta, a=a, b=b, p=p, join=(xj, 0.0))
    return replace(spec, join=(xj, curve_eval(spec, xj)))


def biarc_from_a(c, alpha, beta, a):
    """Biarc with prescribed start curvature a (math.inf allowed as a tag).

    a = -inf (for alpha + beta > 0; +inf for the mirrored case) selects the
    p = 0 member; a = -sin(alpha)/c makes the first piece fill the whole
    chord, the p = inf member.
    """
    _check_biarc_args(c, alpha, beta)
    omega = 0.5 * (alpha + beta)
    if abs(omega) < DEGENERATE_TOL:
        return Arc(c, alpha)
    if math.isinf(a):
        if (omega > 0.0) == (a < 0.0):
            return Arc(c, -beta)
        raise InfeasibleCurvatureError(
            "start curvature %r incompatible with alpha+beta=%g" % (a, 2 * omega))
    t = a * c + math.sin(alpha)
    if abs(t) < DEGENERATE_TOL:
        return Arc(c, alpha)
    p = -math.sin(omega) / t
    if p < 0.0:
        raise InfeasibleCurvatureError(
            "no biarc with start curvature a=%g for alpha=%g, beta=%g "
            "(needs a*c <= -sin(alpha) when alpha+beta > 0)" % (a, alpha, beta))
    return biarc_from_p(c, alpha, beta, p)


def biarc_from_b(c, alpha, beta, b):
    """Biarc with prescribed end curvature b (math.inf allowed as a tag)."""
    _check_biarc_args(c, alpha, beta)
    omega = 0.5 * (alpha + beta)
    if abs(omega) < DEGENERATE_TOL:
        return Arc(c, alpha)
    if math.isinf(b):
        if (omega > 0.0) == (b > 0.0):
            return Arc(c, alpha)
        raise InfeasibleCurvatureError(
            "end curvature %r incompatible with alpha+beta=%g" % (b, 2 * omega))
    t = b * c - math.sin(beta)
    if abs(t) < DEGENERATE_TOL:
        # A regular-looking request that is secretly the p = 0 member.
        return Arc(c, -beta)
    p = t / math.sin(omega)
    if p < 0.0:
        raise InfeasibleCurvatureError(
            "no biarc with end curvature b=%g for alpha=%g, beta=%g "
            "(needs b*c >= sin(beta) when alpha+beta > 0)" % (b, alpha, beta))
    return biarc_from_p(c, alpha, beta, p)


def mirror_curve(curve):
    """Reflect a boundary curve across the chord (y -> -y)."""
    if isinstance(curve, Arc):
        return Arc(curve.c, -curve.phi)
    return Biarc(c=curve.c, alpha=-curve.alpha, beta=-curve.beta,
                 a=-curve.a, b=-curve.b, p=curve.p,
                 join=(curve.join[0], -curve.join[1]))
