"""Hamiltonian flow diagnostics and oscillatory phase-space integrals.

The Hamiltonian flow of the symbol is integrated with the adaptive
Dormand-Prince 5(4) pair (Dormand and Prince, J. Comput. Appl. Math. 6,
1980), a batch of n starts as one stacked system at tolerance
FLOW_TOL/sqrt(n), with steps that land exactly on each requested snapshot
time; energy conservation along trajectories is the accuracy witness.
Displacement bounds flow every sample in one batch and compare the flow map
against the gradient at the starting point: away from the near-critical set
the displacement is pinched between |t grad p|/2 and C1 |t grad p|, and the
first-order Taylor error is quadratic in t.

Oscillatory integrals (2 pi h)^(-d) int exp(i t p/h) b dv are computed by
panel-per-wavelength tensor Gauss-Legendre quadrature with a panel-halving
error estimate; their decay in h off the critical set is the quantitative
form of non-stationary phase.  The tensor rule is split into its x nodes X
(rows) and its xi nodes Xi (columns).  The phase is factored once per call
from the term table a(X) xi^mu of `SymbolModel.terms_at`: terms free of xi
give a row factor u = w_X exp(i t p_X/h), terms whose coefficient is
constant on X a column factor v = w_Xi exp(i t p_Xi/h), and any other term
multiplies the amplitude matrix b(X x Xi) by its own exponential.  A
coefficient is constant on X when the term table gives it as a number (one
that cannot depend on x), or as an array whose entries are all equal; a
number is mirrored on every x axis.  The
integral is then the sum over chunks of X rows of
u_rows . (b(rows x Xi) v), each chunk about CHUNK_POINTS nodes, evaluated on
a small thread pool, one thread per available core up to four.  The
amplitude is called as b(*coords, out=buf) on the broadcast grid of the
chunk's x columns (rows, 1) and the xi columns (1, m), so no point array is
built; the chunks are dealt round-robin to the workers, and each worker
evaluates its chunks in order into one (rows, m) buffer.  The chunk
boundaries are fixed and the partial sums are added in chunk order, so the
result does not depend on the number of cores.

Each axis on which the integrand is even, bit for bit, is folded: only its
upper half of nodes is summed, with doubled weights.  An axis is folded when
(i) its rule mirrors itself (the panel edges are c + r (2k - P)/P, so on a
box symmetric about 0 nodes and weights are exact mirrors), (ii) the phase
does: every term coefficient for an x axis, the column phase and every mixed
monomial for a xi axis, and (iii) the amplitude declares the axis in its
``even_axes`` attribute.  An amplitude without the attribute is integrated
whole.  The swap (x, xi) -> (xi, x) is folded as well when the amplitude
declares ``swap_even``, no term is mixed, and after the mirror folds the x
rule equals the xi rule and the row phase the column phase, bit for bit:
the amplitude matrix is then symmetric and u = v, so a chunk of rows
[lo, hi) evaluates the columns from lo on only, weights the strict lower
triangle of its leading square 0 and its diagonal 1/2, and counts its sum
twice; the rule is then cut into at least 16 chunks.  NODE_BUDGET applies
to the unfolded rule: a rule above it raises NodeBudgetExceeded before any
node is evaluated, and the decay check leaves that h out of its fit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._fitting import MIN_POINTS, ExponentFit, fit_loglog
from .symbols import (
    SymbolModel,
    _cutoff_band,
    _finite,
    _poly_eval,
    _product_rule,
    _tensor_grid,
)

__all__ = [
    "FlowTrajectory",
    "OscillatoryResult",
    "DisplacementReport",
    "DecayReport",
    "IntegrationFault",
    "NodeBudgetExceeded",
    "integrate_flow",
    "check_displacement_bounds",
    "oscillatory_integral",
    "nonstationary_decay_check",
    "ring_amplitude",
    "bump_amplitude",
]

FLOW_TOL = 1e-11
NODE_BUDGET = 24 * 10**7
CHUNK_POINTS = 2**18
# quadrature threads; the cap bounds the chunks in flight
try:
    _WORKERS = min(len(os.sched_getaffinity(0)), 4)
except AttributeError:  # no sched_getaffinity on this platform
    _WORKERS = min(os.cpu_count() or 1, 4)
NODES_PER_PANEL = 8
# panels per axis of the coarse oscillatory rule at least, the count at t = 0
MIN_PANELS = 2

# Dormand-Prince 5(4): row i < 6 of _DP_A gives stage i from stages 0 .. i-1,
# row 6 the 5th-order step, whose slope is stage 6 and the next step's
# stage 0 (first same as last); _DP_E weights the seven stages into the
# difference of the embedded 4th-order and the 5th-order steps
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200,
                  -22 / 525, 1 / 40])
# step-size control of an error estimate of order 4: h ~ err^(-1/5)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


class NodeBudgetExceeded(RuntimeError):
    """A tensor rule has more than NODE_BUDGET nodes; carries the count."""


class IntegrationFault(RuntimeError):
    def __init__(self, message: str, last_state=None, last_time=None):
        super().__init__(message)
        self.last_state = last_state
        self.last_time = last_time


def symplectic_gradient(model: SymbolModel, v: np.ndarray) -> np.ndarray:
    """J grad p at phase points v, with J the standard symplectic matrix:
    dx/dt = dp/dxi, dxi/dt = -dp/dx."""
    d = model.dimension
    g = model.gradient(np.atleast_2d(v))
    out = np.empty_like(g)
    out[:, :d] = g[:, d:]
    out[:, d:] = -g[:, :d]
    return out


@dataclass
class FlowTrajectory:
    start: np.ndarray
    times: np.ndarray
    states: np.ndarray
    energy_drift: float
    integrator_steps: int

    def state_at(self, t: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-12:
            raise KeyError(f"time {t} not stored on this trajectory")
        return self.states[i]


def _rms(x) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def _dp_step(rhs, y, k, h):
    """One Dormand-Prince step of size h from y, whose slope k[0] is given:
    fills k[1:] with the stages and returns (y_new, error estimate)."""
    for i in range(1, 7):
        y_new = y + h * (_DP_A[i, :i] @ k[:i])
        k[i] = rhs(y_new)
    return y_new, h * (_DP_E @ k)


def _initial_step(rhs, y, f0, span, tol) -> float:
    """First step size (Hairer, Norsett and Wanner, Solving Ordinary
    Differential Equations I, sec. II.4), from the slope f0 at y, the slope
    after a trial Euler step, and the length and sign of the span."""
    scale = tol * (1.0 + np.abs(y))
    d0, d1 = _rms(y / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(span))
    d2 = _rms((rhs(y + math.copysign(h0, span) * f0) - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, 1e-3 * h0)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return math.copysign(min(100.0 * h0, h1, abs(span)), span)


def _dormand_prince(rhs, y0, stops, tol):
    """The autonomous system y' = rhs(y) from y0 at t = 0 through the times
    ``stops`` (nonzero, of one sign, ordered away from 0).

    A step is accepted when the RMS over the components of its error
    estimate, each scaled by tol (1 + max(|y|, |y_new|)), is below 1; the
    next step is the current one times 0.9 err^(-1/5), clamped to
    [0.2, 10] (not above 1 after a rejection).  A step that would pass a
    stop is shortened to end exactly on it; the step after it is the larger
    of the one proposed before the shortening and the controller's.
    Raises IntegrationFault, with the last accepted state and time, when
    the step falls below ten spacings of the floating-point numbers at t.

    Returns (states at the stops (len(stops), size), the times at which
    every accepted step ended, the number of rhs evaluations).
    """
    k = np.empty((7, y0.size))
    k[0] = rhs(y0)
    h = _initial_step(rhs, y0, k[0], stops[-1], tol)
    evaluations = 2
    y, t, ends, states = y0, 0.0, [], []
    for stop in stops:
        while t != stop:
            min_step = 10.0 * abs(np.nextafter(t, stop) - t)
            rejected = False
            while True:
                if abs(h) < min_step:
                    raise IntegrationFault(
                        f"step {abs(h):.3g} is below ten spacings of the "
                        f"floating-point numbers at t = {t:.17g}",
                        last_state=y, last_time=t,
                    )
                landing = abs(h) >= abs(stop - t)
                step = stop - t if landing else h
                y_new, err = _dp_step(rhs, y, k, step)
                evaluations += 6
                scale = tol * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
                norm = _rms(err / scale)
                if norm < 1.0:
                    break
                # a non-finite estimate shrinks the step by the most
                factor = _SAFETY * norm**-0.2 if math.isfinite(norm) else 0.0
                h = step * max(_MIN_FACTOR, factor)
                rejected = True
            factor = _MAX_FACTOR if norm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * norm**-0.2)
            if rejected:
                factor = min(1.0, factor)
            if landing:
                # a shortened step would shrink the next one: keep at
                # least the proposal it was cut from
                h = math.copysign(max(abs(h), abs(step) * factor), h)
                t = stop
            else:
                h *= factor
                t += step
            y = y_new
            k[0] = k[6]
            ends.append(t)
        states.append(y)
    return np.array(states), ends, evaluations


def integrate_flow(
    model: SymbolModel,
    v0,
    t_end: float,
    times=None,
) -> FlowTrajectory:
    """Hamiltonian trajectories from v0 up to t_end (either sign).

    ``v0`` is one start (2d,) or a batch (n, 2d), integrated by
    Dormand-Prince 5(4) as one stacked system at rtol = atol =
    FLOW_TOL/sqrt(n): the error norm is the RMS over all components, so each
    trajectory's own norm stays within FLOW_TOL.  ``times`` selects the
    stored snapshots (default: endpoints only), on which the steps land
    exactly; each has the shape of v0, and t = 0 is always stored as exactly
    v0.  ``integrator_steps`` counts right-hand-side evaluations.  A
    non-finite slope, at a start or at any stage, raises EvaluationFault
    at its phase point.
    """
    v0 = np.asarray(v0, dtype=float)
    starts = np.atleast_2d(v0)
    n, dim = starts.shape
    tol = FLOW_TOL / math.sqrt(n)

    def rhs(y):
        # a non-finite slope would make every error estimate NaN, and the
        # step controller would reject every step: fault at the point
        points = y.reshape(n, dim)
        return _finite(symplectic_gradient(model, points), points,
                       "gradient").ravel()

    if times is None:
        times = [0.0, t_end]
    times = np.asarray(sorted(set(float(t) for t in times) | {0.0}))
    if np.abs(times).max() > abs(t_end) + 1e-15:
        raise ValueError("requested times escape [-|t_end|, |t_end|]")

    states = np.empty((len(times), n, dim))
    states[times == 0.0] = starts
    steps = 0
    # snapshot slots in the direction of integration, away from t = 0
    for slots in (np.flatnonzero(times < 0)[::-1], np.flatnonzero(times > 0)):
        if len(slots) == 0:
            continue
        try:
            flowed, _, evaluations = _dormand_prince(
                rhs, starts.ravel(), times[slots], tol)
        except IntegrationFault as fault:
            raise IntegrationFault(
                f"flow integration of {n} start(s) stalled: {fault}",
                last_state=fault.last_state.reshape(v0.shape),
                last_time=fault.last_time,
            ) from fault
        states[slots] = flowed.reshape(-1, n, dim)
        steps += evaluations

    energies = model.value(states.reshape(-1, dim)).reshape(len(times), n)
    drift = float(np.abs(energies - model.value(starts)).max())
    return FlowTrajectory(
        start=v0,
        times=times,
        states=states.reshape((len(times),) + v0.shape),
        energy_drift=drift,
        integrator_steps=steps,
    )


@dataclass(frozen=True)
class DisplacementReport:
    n_samples: int
    t0: float
    violations: tuple
    c1: float
    c2: float
    empirical_t0: float

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def check_displacement_bounds(
    model: SymbolModel,
    n_samples: int,
    t_grid,
    cbar: float,
    delta0: float,
    h: float,
    seed: int = 0,
) -> DisplacementReport:
    """Lower/upper displacement bounds along the flow, off the critical set.

    Samples v with |grad a0(v)| > cbar h^delta0 (rejection on the box; a
    draw of 4 n_samples candidates that accepts none raises ValueError, and
    so do cbar <= 0 and n_samples < 1; a candidate whose gradient is not
    finite raises EvaluationFault there) and flows them all in one batch.  For each v and t:
    (i) |flow_t(v) - v| >= |t grad p(v)|/2 is asserted; the
    constants in (ii) |flow_t(v) - v| <= C1 |t grad p(v)| and (iii)
    |flow_t(v) - v - t J grad p(v)| <= C2 t^2 |grad p(v)| are fitted as the
    worst observed ratios.  If (i) fails anywhere, the report carries the
    largest t0 for which it holds on all samples.
    """
    if cbar <= 0 or n_samples < 1:
        raise ValueError(f"need cbar > 0 and n_samples >= 1, got {cbar}, "
                         f"{n_samples}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    thresh = cbar * h**delta0
    samples = []
    while len(samples) < n_samples:
        cand = model.sample_box(4 * n_samples, rng)
        # |grad p| > thresh is false for NaN: such a candidate would be
        # dropped without a word
        gn = np.linalg.norm(_finite(model.gradient(cand), cand, "gradient"),
                            axis=1)
        kept = cand[gn > thresh]
        if len(kept) == 0:
            raise ValueError(
                f"no point of {len(cand)} box samples has |grad p| above "
                f"the threshold cbar h^delta0 = {thresh:.6g}; the largest "
                f"sampled |grad p| is {gn.max():.6g}"
            )
        samples.extend(kept[: n_samples - len(samples)])
    samples = np.asarray(samples)
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    t0 = float(np.abs(t_grid).max())

    traj = integrate_flow(model, samples, t0, times=t_grid)
    live = traj.times != 0.0
    ts, flowed = traj.times[live], traj.states[live]  # flowed: (t, sample, 2d)
    # (sample, t) arrays; |grad p| > thresh > 0 on every sample
    gnorm = np.linalg.norm(model.gradient(samples), axis=1)[:, None]
    jg = symplectic_gradient(model, samples)
    disp = np.linalg.norm(flowed - samples, axis=2).T
    scale = np.abs(ts) * gnorm
    lower = 0.5 * scale
    taylor = np.linalg.norm(flowed - samples - ts[:, None, None] * jg, axis=2).T
    c1 = float(np.max(disp / scale, initial=0.0))
    c2 = float(np.max(taylor / (ts * ts * gnorm), initial=0.0))
    # row-major: sample-major, then t ascending
    violations = [
        (tuple(samples[i]), float(ts[k]), float(disp[i, k]), float(lower[i, k]))
        for i, k in np.argwhere(disp < lower)
    ]
    empirical_t0 = t0
    if violations:
        worst_ok_t = min(abs(t) for _, t, _, _ in violations)
        empirical_t0 = max(
            (abs(t) for t in t_grid if abs(t) < worst_ok_t), default=0.0
        )
    return DisplacementReport(
        n_samples=len(samples),
        t0=t0,
        violations=tuple(violations),
        c1=c1,
        c2=c2,
        empirical_t0=empirical_t0,
    )


# -- oscillatory integrals -------------------------------------------------------


@dataclass(frozen=True)
class OscillatoryResult:
    t: float
    h: float
    value: complex
    quadrature_error: float


def _panel_rule(lo: float, hi: float, panels: int):
    z, w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    # edges c + r (2k - P)/P, not linspace: on a box symmetric about 0 the
    # edges, and with leggauss's symmetric z and w the nodes and weights,
    # mirror each other bit for bit
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    edges = c + r * (2.0 * np.arange(panels + 1) - panels) / panels
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (mid[:, None] + half * z[None, :]).ravel()
    wts = np.tile(half * w, panels)
    return pts, wts


def _mirrored(a, shape, axis) -> bool:
    """Whether the tensor-grid values ``a`` equal their mirror on ``axis``,
    bit for bit.  A number is the same at every node, so it is mirrored."""
    if np.ndim(a) == 0:
        return True
    a = a.reshape(shape)
    return np.array_equal(a, np.flip(a, axis))


def _upper_half(a, shape, axes):
    """The values of the tensor-grid array ``a`` at the upper half of the
    nodes of each of ``axes``, flattened in the same order."""
    index = tuple(slice(n // 2, None) if k in axes else slice(None)
                  for k, n in enumerate(shape))
    return a.reshape(shape)[index].ravel()


def _tensor_quadrature(model, amplitude, t, h, box, panels):
    rules = [_panel_rule(lo, hi, panels) for lo, hi in box]
    total = math.prod(len(pts) for pts, _ in rules)
    if total > NODE_BUDGET:
        raise NodeBudgetExceeded(total)
    d = model.dimension
    x_shape = [len(pts) for pts, _ in rules[:d]]
    xi_shape = [len(pts) for pts, _ in rules[d:]]
    x_pts = _tensor_grid([pts for pts, _ in rules[:d]])
    xi_pts = _tensor_grid([pts for pts, _ in rules[d:]])
    s = t / h

    # p = sum a(x) xi^mu splits into a row phase (mu = 0), a column phase
    # (a is a number, or an array equal on every x node) and mixed terms
    # a(x) (x) xi^mu
    terms = model.terms_at(x_pts)
    row, col, mixed = np.zeros(len(x_pts)), np.zeros(len(xi_pts)), []
    for mu, a in terms:
        first = np.ravel(a)[0]
        if not any(mu):
            row += a
        elif np.all(a == first):
            col += first * _poly_eval({mu: 1.0}, xi_pts)
        else:
            mixed.append((a, _poly_eval({mu: 1.0}, xi_pts)))

    # fold each axis on which rule, phase and amplitude are mirror-symmetric
    # bit for bit: the integrand is even there, so its upper half with
    # doubled weights sums to the same integral
    def rule_even(k):
        pts, wts = rules[k]
        return (len(pts) % 2 == 0 and np.array_equal(pts, -pts[::-1])
                and np.array_equal(wts, wts[::-1]))

    declared = getattr(amplitude, "even_axes", ())
    even = [k for k in range(2 * d) if k in declared and rule_even(k)]
    x_fold = [k for k in even if k < d
              and all(_mirrored(a, x_shape, k) for _, a in terms)]
    xi_fold = [k - d for k in even if k >= d
               and _mirrored(col, xi_shape, k - d)
               and all(_mirrored(mono, xi_shape, k - d) for _, mono in mixed)]
    for k in x_fold + [d + j for j in xi_fold]:
        pts, wts = rules[k]
        rules[k] = (pts[len(pts) // 2:], 2.0 * wts[len(pts) // 2:])
    x_pts, x_wts = _product_rule(rules[:d])
    xi_pts, xi_wts = _product_rule(rules[d:])
    row = _upper_half(row, x_shape, x_fold)
    col = _upper_half(col, xi_shape, xi_fold)
    mixed = [(_upper_half(a, x_shape, x_fold),
              _upper_half(mono, xi_shape, xi_fold)) for a, mono in mixed]
    # fold the swap (x, xi) -> (xi, x) when the amplitude declares it and
    # rule and phase are the same on rows and columns bit for bit: the
    # amplitude matrix is then symmetric and u = v, so its upper triangle,
    # diagonal halved, sums to half the integral
    swap = (getattr(amplitude, "swap_even", False) and not mixed
            and np.array_equal(x_pts, xi_pts)
            and np.array_equal(x_wts, xi_wts) and np.array_equal(row, col))
    u = x_wts * np.exp(1j * s * row)
    v = xi_wts * np.exp(1j * s * col)
    # a real amplitude matrix times v as one real product with (Re v, Im v)
    v_pair = np.stack([v.real, v.imag], axis=1)
    m = len(xi_pts)
    chunk = min(max(1, CHUNK_POINTS // m), len(x_pts))
    if swap:
        # over k chunks the triangle leaves (k + 1)/2k of the nodes to
        # evaluate: at least 16 chunks, at most 17/32
        chunk = min(chunk, -(-len(x_pts) // 16))
        # weights 0 below, 1/2 on and 1 above the diagonal of a chunk's
        # leading square; halving and doubling are exact
        upper = np.triu(np.ones((chunk, chunk)), 1) + 0.5 * np.eye(chunk)
    scale = 2.0 if swap else 1.0
    starts = range(0, len(x_pts), chunk)
    workers = min(_WORKERS, len(starts))
    xi_cols = [xi_pts[None, :, k] for k in range(d)]

    def partial_sums(first):
        # chunks first, first + workers, ... in order, each x nodes
        # [lo, lo + chunk) times every xi node (from xi node lo on, under the
        # swap fold), into one reused buffer
        buf = np.empty(chunk * m)
        sums = []
        for lo in starts[first::workers]:
            rows = slice(lo, lo + chunk)
            x_cols = [x_pts[rows, k, None] for k in range(d)]
            n, c0 = len(x_cols[0]), lo if swap else 0
            out = buf[: n * (m - c0)].reshape(n, m - c0)
            amp = amplitude(*x_cols, *(c[:, c0:] for c in xi_cols), out=out)
            if mixed:
                phase = sum(np.multiply.outer(a[rows], mono) for a, mono in mixed)
                sums.append(u[rows] @ ((amp * np.exp(1j * s * phase)) @ v))
                continue
            if swap:
                amp[:, :n] *= upper[:n, :n]
            re, im = (amp @ v_pair[c0:]).T
            sums.append(scale * (u[rows] @ (re + 1j * im)))
        return sums

    # fixed chunk boundaries and an in-order sum: the result does not depend
    # on the worker count; numpy's loops release the GIL, so threads overlap
    with ThreadPoolExecutor(max_workers=workers) as pool:
        dealt = list(pool.map(partial_sums, range(workers)))
    acc = 0.0 + 0.0j
    for i in range(len(starts)):
        acc += dealt[i % workers][i // workers]
    return acc


def oscillatory_integral(
    model: SymbolModel,
    amplitude: Callable[..., np.ndarray],
    t: float,
    h: float,
    support_box=None,
) -> OscillatoryResult:
    """(2 pi h)^(-d) integral of exp(i t p(v)/h) amplitude(v) over phase
    space, by tensor Gauss-Legendre with >= 12 nodes per oscillation and a
    panel-halving error estimate.

    ``amplitude(*coords, out=None)`` takes the 2d coordinates of v as
    broadcastable arrays (here x columns of shape (rows, 1), xi columns of
    shape (1, m)) and returns b on their broadcast grid; given ``out``, it
    writes b there and returns it.  Each quadrature worker passes one
    (rows, m) buffer, reused for all of its chunks.  An optional attribute
    ``amplitude.even_axes`` lists coordinates (0 .. 2d-1) on which b is even
    about 0 bit for bit; each of them whose rule and phase are mirrored too
    is folded to its upper half with doubled weights.  An optional true
    ``amplitude.swap_even`` declares b(x, xi) == b(xi, x) bit for bit;
    when the x and xi rules and the row and column phases are equal too and
    no term is mixed, only the upper triangle of the amplitude matrix is
    evaluated.  A wrong declaration gives a wrong value, so declare only
    what holds exactly.

    The panels per axis are sized from |grad p| at 512 probes, and are at
    least MIN_PANELS, the count at t = 0; a probe where the gradient is
    not finite raises EvaluationFault there.  The rule of twice
    as many panels gives the value and is computed first: when it has more
    than NODE_BUDGET nodes, counted unfolded, NodeBudgetExceeded propagates
    before any quadrature is done."""
    d = model.dimension
    if 2 * d > 4:
        raise NotImplementedError("quadrature supports 2d <= 4 only")
    if support_box is None:
        support_box = [(-model.box_x, model.box_x)] * d + [
            (-model.box_xi, model.box_xi)
        ] * d
    support_box = [tuple(map(float, b)) for b in support_box]

    # oscillation count per axis from sampled gradient magnitudes
    rng = np.random.default_rng(0)
    probes = np.stack(
        [rng.uniform(lo, hi, size=512) for lo, hi in support_box], axis=-1
    )
    grad = _finite(model.gradient(probes), probes, "gradient")
    gmax = np.abs(grad).max(axis=0)
    widths = np.array([hi - lo for lo, hi in support_box])
    osc = np.abs(t) / h * gmax * widths / (2.0 * math.pi)
    panels = int(
        max(MIN_PANELS, math.ceil(float(osc.max()) * 12.0 / NODES_PER_PANEL) + 1)
    )

    prefac = (2.0 * math.pi * h) ** (-d)
    fine = _tensor_quadrature(model, amplitude, t, h, support_box, 2 * panels)
    coarse = _tensor_quadrature(model, amplitude, t, h, support_box, panels)
    return OscillatoryResult(
        t=float(t),
        h=float(h),
        value=prefac * fine,
        quadrature_error=prefac * abs(fine - coarse),
    )


def _radius(coords, center, out):
    """|v - center| on the broadcast grid of ``coords``, into ``out`` (a new
    array when None).  The squares are added in axis order, as
    np.linalg.norm(pts - center, axis=1) adds them, so the radius is
    bit-identical to it; partial sums stay small until one spans the whole
    grid, and from there on they are written into ``out``."""
    if len(coords) != len(center):
        raise ValueError(
            f"amplitude centred in {len(center)} dimensions got "
            f"{len(coords)} coordinate arrays"
        )
    shape = np.broadcast_shapes(*(np.shape(x) for x in coords))
    if out is None:
        out = np.empty(shape)
    r2 = 0.0
    for x, c in zip(coords, center):
        sq = np.square(np.subtract(x, c))
        full = np.broadcast_shapes(np.shape(r2), sq.shape) == shape
        r2 = np.add(r2, sq, out=out if full else None)
    return np.sqrt(r2, out=out)


def _declare_symmetries(amp, center):
    """Set a radial amplitude's ``even_axes``: the coordinates where
    ``center`` is exactly 0, since _radius squares x - 0 = x and
    (-x)^2 == x^2 exactly.  Set ``swap_even`` in a 2-D phase space whose
    centre coordinates are equal: there _radius adds two squares, and that
    sum commutes exactly (with four terms the swap reorders it)."""
    amp.even_axes = tuple(k for k, c in enumerate(center) if c == 0.0)
    amp.swap_even = bool(len(center) == 2 and center[0] == center[1])
    return amp


def ring_amplitude(center, r_inner: float, r_outer: float):
    """Smooth bump of |v - center| supported in the open ring
    (r_inner, r_outer), identically 1 on the middle half.

    The amplitude is called as ``amp(*coords, out=None)`` with one
    broadcastable array per coordinate of ``center``.  Its ``even_axes`` are
    the coordinates where ``center`` is exactly 0: on the mirror of such a
    coordinate it returns the same values bit for bit.  It is ``swap_even``
    when ``center`` has two equal coordinates: b(x, xi) == b(xi, x) bit for
    bit."""
    center = np.asarray(center, dtype=float)
    w = 0.25 * (r_outer - r_inner)

    def amp(*coords, out=None):
        r = _radius(coords, center, out)
        up = _cutoff_band(r, r_inner, r_inner + w)
        down = _cutoff_band(r, r_outer - w, r_outer)
        # 1 inside the ring, 0 outside; then (1 - rising cutoff) * falling
        np.copyto(r, (r > r_inner) & (r < r_outer))
        np.put(r, up[0], 1.0 - up[1])
        np.put(r, down[0], np.take(r, down[0]) * down[1])
        return r

    return _declare_symmetries(amp, center)


def bump_amplitude(center, radius: float):
    """Smooth bump of |v - center|, 1 inside radius/2, 0 outside radius.

    Called as ``amp(*coords, out=None)``, and declares ``even_axes`` and
    ``swap_even``, like ring_amplitude."""
    center = np.asarray(center, dtype=float)

    def amp(*coords, out=None):
        r = _radius(coords, center, out)
        band = _cutoff_band(r, radius / 2.0, radius)
        np.copyto(r, r <= radius / 2.0)
        np.put(r, *band)
        return r

    return _declare_symmetries(amp, center)


@dataclass(frozen=True)
class DecayReport:
    mu: float
    delta0: float
    kappa: float
    n_max: int
    h_grid: tuple
    magnitudes: tuple
    fit: ExponentFit | None
    required: dict
    satisfied: dict
    excluded: tuple

    @property
    def all_orders_ok(self) -> bool:
        return all(self.satisfied.values())


def nonstationary_decay_check(
    model: SymbolModel,
    amplitude_factory: Callable[[float], Callable],
    mu: float,
    n_max: int,
    h_grid,
    delta0: float,
    support_box=None,
) -> DecayReport:
    """Decay of |J_t^h| at t = h^(1-mu) against the integration-by-parts
    rates: the fitted slope must reach n*kappa for every order n <= n_max,
    kappa = min(mu - delta0 - 1/2, (1-mu)/2).

    ``amplitude_factory(h)`` supplies the (possibly h-dependent) amplitude;
    build it off the near-critical set for decay, or across a critical point
    for the control experiment that must refuse the bound.  An h whose rule
    exceeds NODE_BUDGET, whose value is 0, or whose quadrature error exceeds
    5% of the value is excluded from the fit.  When fewer than MIN_POINTS
    h remain, the report's ``fit`` is None and no order is satisfied.
    """
    if not (delta0 + 0.5 < mu < 1.0):
        raise ValueError("need delta0 + 1/2 < mu < 1")
    kappa = min(mu - delta0 - 0.5, (1.0 - mu) / 2.0)
    h_grid = sorted(float(h) for h in h_grid)
    mags, used, excluded = [], [], []
    for h in h_grid:
        t = h ** (1.0 - mu)
        try:
            res = oscillatory_integral(
                model, amplitude_factory(h), t, h, support_box=support_box
            )
        except NodeBudgetExceeded:
            excluded.append(h)
            continue
        # a zero value has no logarithm: the fit could not use it
        if res.value == 0 or res.quadrature_error > 0.05 * abs(res.value):
            excluded.append(h)
            continue
        mags.append(abs(res.value))
        used.append(h)
    fit = fit_loglog(used, mags) if len(used) >= MIN_POINTS else None
    required = {n: n * kappa for n in range(1, n_max + 1)}
    satisfied = {n: fit is not None and fit.slope >= required[n]
                 for n in required}
    return DecayReport(
        mu=mu,
        delta0=delta0,
        kappa=kappa,
        n_max=n_max,
        h_grid=tuple(used),
        magnitudes=tuple(mags),
        fit=fit,
        required=required,
        satisfied=satisfied,
        excluded=tuple(excluded),
    )
