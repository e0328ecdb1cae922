"""Worst-case search over algorithm-consistent, interpolation-feasible data.

The search space is the discrete data of N steps: points x^k and one
gradient block W with g1^k = W[k] and g2^k = W[k+1], so the link
g1^{k+1} = g2^k holds by construction.  Function values are eliminated
exactly: the interpolation inequalities are difference constraints
f^i - f^j >= c_ij, so the minimal feasible decrease f^0 - f^N equals the
longest-path weight from 0 to N in the constraint graph (max-plus
Floyd-Warshall; a positive cycle means the (x, g) data is infeasible for
the class).  The search therefore maximizes

    ratio(x, g) = (1/2) min_k ||g1^k - g2^k||^2 / D(x, g),

with D the minimal feasible F(x^0) - F(x^N), by multi-start Nelder-Mead on a
penalized objective.  Witness f-values are recovered from the longest-path
potentials, making every reported witness exactly feasible.

The local search (minimize) is scipy's adaptive Nelder-Mead, step for step,
so it gives scipy's points; the package therefore needs no scipy at run
time.  The search has one shape: minimize runs an (m, nz) stack of starts
in lockstep, and the objective always takes a (k, nz) stack, evaluated in
one broadcast pass.

The starts' searches are independent, and run in chunks of at most
per_chunk evaluations.  Every chunk's cap is fixed before the search, as if
each earlier chunk spent its cap in full, so probe scores every start's
opening point in one ratio call, runs round j (chunk j of every start) in
one minimize call, and scores every closing point in one more ratio call.
Every start takes the steps it takes on its own, so the result is the one
running them start by start with those caps gives, bit for bit.
Evaluations a chunk leaves unspent, when Nelder-Mead converges early, go to
the polish of the best point, a search from a one-row stack.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .curvature import DcParams, require_valid
from .interpolation import (bound_coefficients, check_interpolation,
                            pair_lower_bound, pair_matrix_cm)
from .regimes import (DenominatorZero, asymptotic_constants, equality_gammas,
                      one_step_certificate)

FEAS_TOL = 1e-7
# a best ratio above the certified bound by more than this is a violation
CERT_ALLOWANCE = 1e-6
_CYCLE_TOL = 1e-11
_D_FLOOR = 1e-13
# the Nelder-Mead stopping tolerances: x spread and f spread of the simplex
_XATOL = 1e-13
_FATOL = 1e-15


class InfeasibleConstruction(RuntimeError):
    """No interpolation-feasible f-values exist for the equality system."""


class NelderMeadResult(NamedTuple):
    x: np.ndarray       # the best vertex, sim[0]
    nfev: int
    sim: np.ndarray     # the final simplex, sorted by value
    fsim: np.ndarray


def minimize(fun, x0: np.ndarray, maxfev) -> list:
    """Adaptive Nelder-Mead from each row of the (m, n) stack x0, row i with
    at most maxfev[i] evaluations; returns the m NelderMeadResults.

    Each row's search is scipy's ``minimize(fun, x0[i], method="Nelder-Mead",
    options={"adaptive": True, "maxfev": maxfev[i], "xatol": 1e-13,
    "fatol": 1e-15})`` step for step: the same initial simplex, parameters
    (Gao & Han 2012), sorts, steps and stopping test, and evaluations
    refused where scipy's count refuses them, so the same x, evaluation
    count and final simplex come out.  fun maps a (k, n) stack of points to
    the list of their k values.  The searches run in lockstep rounds: a
    round passes the one-row requests of the live searches (each step's
    point, and an initial simplex or shrink the cap cuts to one row) to fun
    as one stack, and every larger stack in a call of its own.
    """
    runs = list(map(_nelder_mead, np.asarray(x0, dtype=float), maxfev))
    results = [None] * len(runs)
    answers = [(i, None) for i in range(len(runs))]     # (run index, values)
    while answers:
        requests = []   # (run index, stack to evaluate)
        for i, values in answers:
            try:
                requests.append((i, runs[i].send(values)))
            except StopIteration as stop:
                results[i] = stop.value
        rows = [(i, Z) for i, Z in requests if len(Z) == 1]
        answers = [(i, fun(Z)) for i, Z in requests if len(Z) > 1]
        if rows:
            values = fun(np.concatenate([Z for _, Z in rows]))
            answers += [(i, [v]) for (i, _), v in zip(rows, values)]
    return results


def _nelder_mead(x0: np.ndarray, maxfev: int):
    """minimize's search from the vector x0, as a generator: it yields each
    stack of points to evaluate (a step's point as a one-row stack) and is
    sent the list of their values, and it returns the NelderMeadResult."""
    N = len(x0)
    dim = float(N)
    # scipy's reflection coefficient rho is 1 here, and multiplying by it is
    # exact, so it is left out of the step formulas below
    chi = 1 + 2/dim
    psi = 0.75 - 1/(2*dim)
    sigma = 1 - 1/dim

    sim = np.tile(x0, (N + 1, 1))
    sim[np.arange(1, N + 1), np.arange(N)] = np.where(x0 != 0, (1 + 0.05)*x0,
                                                      0.00025)
    fsim = np.full((N + 1,), np.inf, dtype=float)
    nfev = min(N + 1, maxfev)
    if nfev:
        fsim[:nfev] = yield sim[:nfev]
    for _ in range(2):      # scipy sorts twice before the first step
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    while nfev < maxfev:
        # fsim is sorted, so fsim[-1] - fsim[0] is max |fsim[0] - fsim[1:]|
        if (fsim[-1] - fsim[0] <= _FATOL and
                np.abs(sim[1:] - sim[0]).max() <= _XATOL):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = 2 * xbar - sim[-1]
        nfev += 1
        fxr, = yield xr[None]
        doshrink = False
        if nfev == maxfev and (fxr < fsim[0] or not fxr < fsim[-2]):
            pass    # the expansion or contraction this step needs is refused
        elif fxr < fsim[0]:
            xe = (1 + chi) * xbar - chi * sim[-1]
            nfev += 1
            fxe, = yield xe[None]
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = (1 + psi) * xbar - psi * sim[-1]
            nfev += 1
            fxc, = yield xc[None]
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                doshrink = True
        else:   # inside contraction
            xcc = (1 - psi) * xbar + psi * sim[-1]
            nfev += 1
            fxcc, = yield xcc[None]
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                doshrink = True
        if doshrink:
            # scipy shrinks row k + 1 before it refuses to evaluate it
            k = min(N, maxfev - nfev)
            rows = slice(1, min(N, k + 1) + 1)
            sim[rows] = sim[0] + sigma * (sim[rows] - sim[0])
            if k:
                fsim[1:k + 1] = yield sim[1:k + 1]
                nfev += k
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)
    return NelderMeadResult(sim[0], nfev, sim, fsim)


@dataclass(frozen=True)
class PepVariables:
    x: np.ndarray       # (N+1, d)
    W: np.ndarray       # (N+2, d): g1 = W[:-1], g2 = W[1:]
    f1: np.ndarray      # (N+1,)
    f2: np.ndarray      # (N+1,)

    @property
    def g1(self) -> np.ndarray:
        return self.W[:-1]

    @property
    def g2(self) -> np.ndarray:
        return self.W[1:]

    def decrease(self) -> float:
        F = self.f1 - self.f2
        return float(F[0] - F[-1])


def _feasibility(w: PepVariables, params: DcParams) -> tuple:
    """The InterpReports of w's (x, g1, f1) rows against params.f1 and of
    its (x, g2, f2) rows against params.f2, within FEAS_TOL."""
    return tuple(check_interpolation(list(zip(w.x, g, f)), cls, FEAS_TOL)
                 for g, f, cls in ((w.g1, w.f1, params.f1),
                                   (w.g2, w.f2, params.f2)))


@dataclass(frozen=True)
class ProbeResult:
    """gap = certified_bound - best_ratio.  A witness is feasible only within
    FEAS_TOL, so gap may be negative by up to CERT_ALLOWANCE; beyond that,
    certificate_violation is set.  budget_exhausted means evals >= budget."""
    best_ratio: float
    certified_bound: float
    gap: float
    witness: Optional[PepVariables]
    feasibility: Optional[tuple]   # (InterpReport for f1, for f2)
    budget_exhausted: bool
    certificate_violation: bool
    evals: int
    best_start: Optional[tuple]    # (index, kind) of the start that won
    elapsed_s: float


# ---------------------------------------------------------------------------
# extremal one-step witnesses from the equality conditions

def _assemble_one_step(params: DcParams, gamma: float, gamma_plus: float) -> PepVariables:
    # x0 = 1, x1 = 0, g2^0 = 0 (so g1^1 = 0), G = gamma, G+ = gamma_plus
    x = np.array([[1.0], [0.0]])
    W = np.array([[gamma], [0.0], [-gamma_plus]])
    dx = np.array([1.0])
    r1 = pair_lower_bound(params.f1, dx, np.array([gamma]))
    r2 = pair_lower_bound(params.f2, dx, np.array([gamma_plus]))
    f1 = np.array([r1, 0.0])
    f2 = np.array([-r2, 0.0])
    return PepVariables(x, W, f1, f2)


def extremal_instance(regime_index: int, params: DcParams) -> PepVariables:
    """One-step data hitting the decrease bound with equality.

    The per-regime equality conditions (regimes.equality_gammas) fix G and G+
    as multiples of the step dx = 1; the two binding pairwise inequalities
    then pin the f-values.
    """
    cert = one_step_certificate(params)
    last_bad = None
    try:
        candidates = equality_gammas(regime_index, params)
    except ZeroDivisionError:   # a row that divides by a mu zero off its regime
        candidates, last_bad = [], "zero denominator"
    for gamma, gamma_plus in candidates:
        if not (math.isfinite(gamma) and math.isfinite(gamma_plus)):
            last_bad = "gamma=%r, gamma_plus=%r" % (gamma, gamma_plus)
            continue
        w = _assemble_one_step(params, gamma, gamma_plus)
        rep1, rep2 = _feasibility(w, params)
        bound = cert.decrease_bound(gamma ** 2, gamma_plus ** 2)
        slack = w.decrease() - bound
        scale = max(1.0, abs(bound))
        if rep1.feasible and rep2.feasible and abs(slack) <= FEAS_TOL * scale:
            return w
        last_bad = ("f1" if not rep1.feasible else
                    "f2" if not rep2.feasible else "slack=%g" % slack)
    raise InfeasibleConstruction(
        "no equality witness for regime %d at %s (last failure: %s)"
        % (regime_index, params.to_json_dict(), last_bad))


# ---------------------------------------------------------------------------
# the search itself

def _pack(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The search vector: the rows of x, then the rows of W."""
    return np.concatenate([x.ravel(), W.ravel()])


def _unpack(z: np.ndarray, N: int, d: int) -> tuple:
    n = N + 1
    return z[:n * d].reshape(n, d), z[n * d:].reshape(n + 1, d)


class _Objective:
    """Ratio and merit of each row of a stack (m, nz) of search vectors (see
    _pack), and the witness of one vector.  The two classes' pair matrices
    and longest paths of every vector are one (..., 2, n, n) broadcast pass,
    from bound coefficients built once, in buffers kept per stack shape."""

    def __init__(self, params: DcParams, N: int, d: int):
        self.N = N
        self.d = d
        self.evals = 0
        self._coef = bound_coefficients((params.f1, params.f2))
        # z[(r + k) d + c] is entry c of x^k for r = 0, of g1^k = W[k] for
        # r = N + 1 and of g2^k = W[k + 1] for r = N + 2: x, g1, g2 (3, d, n)
        self._index = ((np.array([0, N + 1, N + 2])[:, None, None]
                        + np.arange(N + 1)) * d + np.arange(d)[:, None])
        self._buffers = {}

    def _buffer(self, lead: tuple) -> tuple:
        """For a stack of shape lead: dist, tmp, views of dist (the two
        entries D adds, the diagonals) and the Floyd-Warshall (column, row)
        views."""
        buf = self._buffers.get(lead)
        if buf is None:
            n = self.N + 1
            dist = np.empty(lead + (2, n, n))
            steps = [(dist[..., :, k:k + 1], dist[..., k:k + 1, :])
                     for k in range(n)]
            buf = self._buffers[lead] = (
                dist, np.empty_like(dist), dist[..., 0, 0, -1],
                dist[..., 1, -1, 0], np.einsum("...ii->...i", dist), steps)
        return buf

    def _longest_paths(self, z: np.ndarray) -> tuple:
        """G (..., 2, d, n) of z, and max-plus Floyd-Warshall on both
        classes' pair matrices in the reused buffer: dist and its views (see
        _buffer), valid until the next evaluation of that shape."""
        P = z.take(self._index, -1)    # C-ordered, unlike z[..., index]
        G = P[..., 1:, :, :]
        buf = self._buffer(z.shape[:-1])
        dist, tmp, *_, steps = buf
        pair_matrix_cm(P[..., :1, :, :], G, self._coef, out=dist)
        for col, row in steps:
            np.maximum(dist, np.add(col, row, out=tmp), out=dist)
        return G, buf

    def parts(self, z: np.ndarray) -> tuple:
        """(num, D, cyc), each of shape z.shape[:-1]: half the least squared
        gradient gap, the minimal feasible decrease and the largest cycle
        (NaN if either class has a NaN one)."""
        G, (_, _, f1_decrease, f2_increase, diag, _) = self._longest_paths(z)
        gap = G[..., 0, :, :] - G[..., 1, :, :]
        num = 0.5 * np.minimum.reduce(np.add.reduce(gap * gap, -2), -1)
        return (num, f1_decrease + f2_increase,
                np.maximum.reduce(diag, (-2, -1)))

    def _rows(self, Z: np.ndarray):
        """(num, D, cyc) of each row of the stack Z, as len(Z) evaluations."""
        self.evals += len(Z)
        return zip(*np.array(self.parts(Z)).tolist())

    def ratio(self, Z: np.ndarray) -> list:
        """The ratio of each row of a stack (m, nz), as a list; infeasible
        data (a positive cycle) or no decrease scores below 0."""
        return [-1e3 * (1.0 + cyc) if cyc > _CYCLE_TOL else
                -1.0 if D < _D_FLOOR else num / D
                for num, D, cyc in self._rows(Z)]

    def merit(self, Z: np.ndarray) -> list:
        """Negated continuous merit of each row of a stack (m, nz), as a
        list, for the local search: the hard feasibility wall is replaced by
        a linear penalty so the simplex can slide along it."""
        return [-((num / D if D >= _D_FLOOR else D - _D_FLOOR)
                  - 1e3 * max(cyc, 0.0))
                for num, D, cyc in self._rows(Z)]

    def witness(self, z: np.ndarray) -> Optional[PepVariables]:
        num, D, cyc = map(float, self.parts(z))
        if cyc > _CYCLE_TOL or D < _D_FLOOR:
            return None
        z = (1.0 / math.sqrt(D)) * z   # ratio is invariant; normalize D to 1
        dist = self._longest_paths(z)[1][0]
        # potentials: f1^j = -dist1(0, j), f2^j = -dist2(N, j); new arrays
        return PepVariables(*_unpack(z, self.N, self.d),
                            -dist[0, 0, :], -dist[1, -1, :])


def _chain_start(gamma: float, N: int, d: int) -> np.ndarray:
    """Repeat the one-step equality pattern: constant gradient gap gamma."""
    ks = np.arange(N + 1, dtype=float)
    x = np.zeros((N + 1, d))
    x[:, 0] = N - ks
    W = np.zeros((N + 2, d))
    W[0, 0] = gamma
    W[1:, 0] = -ks * gamma
    return _pack(x, W)


def _stretch(w: PepVariables, N: int, d: int) -> np.ndarray:
    """Warm start from a witness: x and g2 interpolated onto N steps, g1^0
    kept, zero-padded to dimension d (the identity at the witness's N, d)."""
    t_old = np.linspace(0.0, 1.0, w.x.shape[0])
    t_new = np.linspace(0.0, 1.0, N + 1)
    pad = ((0, 0), (0, d - w.x.shape[1]))
    x, g2 = (np.pad(np.column_stack([np.interp(t_new, t_old, col) for col in a.T]),
                    pad) for a in (w.x, w.g2))
    return _pack(x, np.vstack([np.pad(w.W[:1], pad), g2]))


def probe(params: DcParams, N: int = 1, d: int = 1, budget: int = 200000,
          seed: int = 0, starts: int = 32, warm: bool = True,
          init: Optional[np.ndarray] = None) -> ProbeResult:
    """Multi-start local maximization of the worst-case ratio.

    warm=False runs cold (random starts only).  init adds one caller-supplied
    start vector.  Deterministic for fixed (seed, budget, starts).
    """
    t_start = time.perf_counter()
    require_valid(params)
    if N < 1 or N > 10 or d < 1 or d > 3:
        raise ValueError("desk scale only: 1 <= N <= 10, 1 <= d <= 3")
    if budget < 0 or starts < 0:
        raise ValueError("budget and starts must be >= 0, got budget=%r, "
                         "starts=%r" % (budget, starts))
    cert = one_step_certificate(params)
    certified = 1.0 / (cert.p * N)
    obj = _Objective(params, N, d)
    rng = np.random.default_rng(seed)
    nz = (2 * N + 3) * d

    inits = []     # (start vector, kind)
    if init is not None:
        z = np.asarray(init, dtype=float)
        if z.shape != (nz,):
            raise ValueError("init must be a vector of (2N + 3) d = %d entries, "
                             "got shape %r" % (nz, z.shape))
        inits.append((z, "init"))
    if warm:
        gamma = equality_gammas(cert.index, params)[0][0]
        if math.isfinite(gamma):    # not so when the L it involves is inf
            inits.append((_chain_start(gamma, N, d), "chain"))
        try:
            inits.append((_stretch(extremal_instance(cert.index, params), N, d),
                          "extremal"))
        except InfeasibleConstruction:
            pass
    while len(inits) < starts:
        z = rng.normal(size=nz)
        inits.append((10.0 ** rng.uniform(-1, 1) * z, "random"))

    restarts = 4
    per_chunk = max(0, budget // (max(1, len(inits)) * restarts))
    # Every cap is fixed here, as if each earlier chunk spent its cap in
    # full: start k opens with a ratio evaluation, runs its chunks and closes
    # with another, and a later start is entered only while that planned
    # spend is below the budget.
    caps, planned = [], 0
    while len(caps) < len(inits) and (not caps or planned < budget):
        caps.append([])
        planned += 1
        for _ in range(restarts):
            caps[-1].append(min(per_chunk, max(0, budget - planned)))
            planned += caps[-1][-1]
        planned += 1

    # Round j runs chunk j of every start with a nonzero cap (a start-major
    # prefix) in one lockstep minimize call.
    zs = np.reshape([z for z, _ in inits[:len(caps)]], (-1, nz))
    first = obj.ratio(zs)
    for j in range(restarts):
        live = sum(1 for row in caps if row[j])
        if live:
            zs[:live] = [r.x for r in minimize(obj.merit, zs[:live],
                                               [row[j] for row in caps[:live]])]
    # best is folded start-major, so a tie keeps the earlier start
    best = (-math.inf, -1, None)     # (ratio, start index, z)
    for idx, ((z0, _), r0, z, r) in enumerate(zip(inits, first, zs,
                                                  obj.ratio(zs))):
        best = max(best, (r0, idx, z0), key=lambda b: b[0])
        best = max(best, (r, idx, z), key=lambda b: b[0])
    # polish the champion with whatever budget remains
    while best[2] is not None and obj.evals < budget and per_chunk > 0:
        z = minimize(obj.merit, best[2][None],
                     [min(per_chunk, budget - obj.evals)])[0].x
        r, = obj.ratio(z[None])
        if r <= best[0]:
            break
        best = (r, best[1], z)

    ratio = max(best[0], 0.0)
    witness = obj.witness(best[2]) if best[2] is not None else None
    feas = None
    if witness is not None:
        feas = _feasibility(witness, params)
        if not (feas[0].feasible and feas[1].feasible):
            witness, feas, ratio = None, None, 0.0
    violation = ratio > certified + CERT_ALLOWANCE
    best_start = None if best[2] is None else (best[1], inits[best[1]][1])
    return ProbeResult(ratio, certified, certified - ratio, witness, feas,
                       obj.evals >= budget, violation, obj.evals, best_start,
                       time.perf_counter() - t_start)


def ratio_trend(params: DcParams, Ns, d: int = 1, budget: int = 200000,
                seed: int = 0, starts: int = 16) -> dict:
    """Probe a sequence of horizons, warm-starting each from the last.

    Fits 1/ratio = a N + b by least squares, one point per distinct horizon
    that found a witness (a and b are NaN when fewer than two did), and
    reports (a, b) together with the asymptotic constants, as trend evidence
    only.
    """
    results = {}
    prev = None
    for N in Ns:
        init = None if prev is None else _stretch(prev, N, d)
        r = probe(params, N, d, budget, seed, starts, warm=True, init=init)
        results[N] = r
        if r.witness is not None:
            prev = r.witness
    xs = np.array([N for N in results if results[N].best_ratio > 0.0], dtype=float)
    ys = np.array([1.0 / results[N].best_ratio for N in xs.astype(int)])
    a, b = (np.polyfit(xs, ys, 1) if xs.size >= 2 else (math.nan, math.nan))
    out = {"results": results, "a_fit": float(a), "b_fit": float(b)}
    try:
        out["asymptotic"] = asymptotic_constants(params)
    except DenominatorZero:
        out["asymptotic"] = None
    return out
