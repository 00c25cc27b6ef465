"""Transition kernels of the walk along a frozen (L, M) path.

The production route builds P(t0, t1) as a fixed-order product of
per-substep exponentials exp(tau G), each with the generator frozen at
the substep midpoint.  One exponential is a nonnegative scaling and
squaring whose diagonal is closed by the off-diagonal row sums (the
Grassmann-Taksar-Heyman idea): no subtraction ever cancels, so every
entry keeps full relative accuracy and the rows sum to 1 to roundoff,
however large lambda_dom * tau is.  It runs on the README window.

The oracle route evaluates the jump-count series: the k-jump term of the
time-ordered expansion, summed up to k_max, with an a-priori remainder
bound (||V|| (t1-t0))^{k_max+1}/(k_max+1)! * exp(||V|| (t1-t0)) in the
weighted operator norm.

For a constant generator the jump-count terms are evaluated exactly by
resolving the uniformization expansion by jump count, i.e. the recursion
G_{m,j} = G_{m-1,j} W0 + G_{m-1,j-1} U over Poisson-weighted words in the
diagonal part W0 = I + H0/Lam and the off-diagonal part U = V/Lam.  All
quantities are nonnegative, so even very small far-off-diagonal entries
keep full relative accuracy (a closed-form convolution of exponentials
suffers catastrophic cancellation there).  It runs that many Poisson
terms, so it is a narrow-window oracle: beyond lambda_dom * tau =
DYSON_LIMIT it raises UniformizationOverflow.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO, List, Sequence, Tuple

import numpy as np

from .errors import (
    DominatingRateOverflow,
    NonConstantPath,
    RateOverflow,
    UniformizationOverflow,
)
from .lattice import LatticeMeasure, Window, log_plus_weights
from .model import ModelParams, rate_arrays

# lambda_dom * tau above which e^{-lambda_dom tau} underflows; the scale
# against which the benchmark tracer reports each substep's stiffness
UNIFORMIZATION_LIMIT = 700.0
# lambda_dom * tau above which dyson_series refuses: it runs about that
# many Poisson terms (about 3 s at k_max = 6 on 21 sites at the limit)
DYSON_LIMIT = 1e5
PMF_TAIL = 1e-15


@dataclass(frozen=True)
class FrozenPath:
    """Piecewise-linear (L, M) as functions of time."""

    times: np.ndarray
    L_values: np.ndarray
    M_values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        L = np.asarray(self.L_values, dtype=float)
        M = np.asarray(self.M_values, dtype=float)
        if not (len(t) == len(L) == len(M)) or len(t) == 0:
            raise ValueError("times, L_values, M_values must have equal nonzero length")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        if not (np.isfinite(t).all() and np.isfinite(L).all() and np.isfinite(M).all()):
            raise ValueError("path times and values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "L_values", L)
        object.__setattr__(self, "M_values", M)

    @classmethod
    def constant(cls, L: float, M: float) -> "FrozenPath":
        return cls(np.array([0.0]), np.array([L]), np.array([M]))

    @classmethod
    def from_log(cls, log) -> "FrozenPath":
        ts = log.times
        return cls(
            ts,
            np.array([s.state.L for s in log.samples]),
            np.array([s.state.M for s in log.samples]),
        )

    def at(self, t: float) -> Tuple[float, float]:
        """(L(t), M(t)): linear between knots, the end values outside."""
        return (
            float(np.interp(t, self.times, self.L_values)),
            float(np.interp(t, self.times, self.M_values)),
        )

    def envelope(self, t0: float, t1: float) -> Tuple[float, float]:
        """(max L, min M) over [t0, t1] (piecewise-linear => knots suffice)."""
        inner = self.times[(self.times > t0) & (self.times < t1)]
        knots = np.concatenate(([t0, t1], inner))
        return (
            float(np.interp(knots, self.times, self.L_values).max()),
            float(np.interp(knots, self.times, self.M_values).min()),
        )


@dataclass(frozen=True)
class Generator:
    """Tridiagonal truncated generator: diag plus upward/downward rates."""

    window: Window
    diag: np.ndarray
    lower: np.ndarray  # mu at sites[1:]   (jump n -> n-1)
    upper: np.ndarray  # lambda at sites[:-1] (jump n -> n+1)

    def as_matrix(self) -> np.ndarray:
        Q = np.diag(self.diag)
        Q += np.diag(self.upper, 1)
        Q += np.diag(self.lower, -1)
        return Q

    @property
    def max_rate(self) -> float:
        return float(np.abs(self.diag).max())


@dataclass(frozen=True)
class Kernel:
    """Row-stochastic transition matrix P(t0, t1) on the window."""

    window: Window
    t0: float
    t1: float
    rows: np.ndarray = field(repr=False)

    def max_row_sum_error(self) -> float:
        return float(np.abs(self.rows.sum(axis=1) - 1.0).max())

    def min_entry(self) -> float:
        return float(self.rows.min())

    def apply(self, p0: LatticeMeasure) -> np.ndarray:
        if p0.window != self.window:
            raise ValueError("measure window does not match kernel window")
        return p0.values @ self.rows


def generator_at(
    params: ModelParams, path: FrozenPath, t: float, window: Window
) -> Generator:
    L, M = path.at(t)
    lam, mu = rate_arrays(params, L, M, window)
    return Generator(
        window=window,
        diag=-(lam + mu),
        lower=mu[1:],
        upper=lam[:-1],
    )


def v_induced_norm(gen: Generator, alpha: float) -> float:
    """Induced norm of the off-diagonal part on weighted-l1 measures:
    max_j (w_{j+1} lambda_j + w_{j-1} mu_j) / w_j, by column scan."""
    log_w = log_plus_weights(gen.window, alpha)
    up = np.zeros(gen.window.size)
    down = np.zeros(gen.window.size)
    lu = np.log(gen.upper, out=np.full_like(gen.upper, -np.inf), where=gen.upper > 0)
    lm = np.log(gen.lower, out=np.full_like(gen.lower, -np.inf), where=gen.lower > 0)
    up[:-1] = np.exp(lu + log_w[1:] - log_w[:-1])
    down[1:] = np.exp(lm + log_w[:-1] - log_w[1:])
    return float((up + down).max())


def v_norm_bound(
    params: ModelParams, sup_beta: float, L: float, M: float, alpha: float
) -> float:
    """A-priori bound sup_beta * e^{1/2+|alpha|} * (e^{-M} + e^{L});
    derived at c = 1."""
    return sup_beta * math.exp(0.5 + abs(alpha)) * (math.exp(-M) + math.exp(L))


def _poisson_pmf(lam: float) -> np.ndarray:
    """Poisson(lam) pmf for k = 0..K with tail mass below PMF_TAIL.

    Built multiplicatively outward from the mode so that large lam never
    over/underflows.
    """
    if lam <= 0.0:
        return np.array([1.0])
    mode = int(lam)
    log_mode = mode * math.log(lam) - lam - math.lgamma(mode + 1)
    hi = mode
    val = math.exp(log_mode)
    upper = [val]
    while val > PMF_TAIL * 1e-3 or hi < lam:
        hi += 1
        val *= lam / hi
        upper.append(val)
        if hi > lam + 20 and val < PMF_TAIL * 1e-3:
            break
    lower = []
    val = math.exp(log_mode)
    lo = mode
    while lo > 0:
        val *= lo / lam
        lo -= 1
        lower.append(val)
        if val < PMF_TAIL * 1e-3 and lo < lam - 20:
            break
    pmf = np.zeros(hi + 1)
    pmf[mode:] = upper
    pmf[lo:mode] = lower[::-1]
    return pmf


# Substep exponentials are squared from a base step h with h * max rate
# <= 2^-10: hG has row norm <= 2^-9, so the degree-7 Taylor remainder is
# below 2^-72 / 8! (about 5e-27).
_BASE_STEP_LOG2 = 10
_TAYLOR_DEGREE = 7


def _transition_matrix(lam: np.ndarray, mu: np.ndarray, tau: float) -> np.ndarray:
    """exp(tau G) of the tridiagonal generator with up-rates lam and
    down-rates mu (lam[-1] = mu[0] = 0, so the rows of G sum to 0).

    With s = max(0, ceil(log2(tau * max(lam + mu) * 2^10))) and
    h = tau / 2^s, the base matrix is the degree-7 Taylor polynomial of
    hG with its off-diagonals clipped at 0 and its diagonal closed as
    1 - (off-diagonal row sum).  It is squared s times.  After each
    squaring, a row whose diagonal exceeds 1/2 gets its diagonal closed
    again; any other row is divided by its sum.  Every entry is a sum of
    nonnegative products, so small entries keep full relative accuracy.
    """
    n = len(lam)
    eye = np.eye(n)
    span = float((lam + mu).max()) * tau
    if span == 0.0:
        return eye
    if not math.isfinite(span):
        raise RateOverflow(f"dominating rate * substep = {span:g} is not finite")
    s = max(0, math.ceil(math.log2(span) + _BASE_STEP_LOG2))
    h = math.ldexp(tau, -s)
    A = np.diag(-h * (lam + mu)) + np.diag(h * lam[:-1], 1) + np.diag(h * mu[1:], -1)
    P = eye
    for k in range(_TAYLOR_DEGREE, 0, -1):
        P = eye + (A @ P) / k
    # squarings ping-pong between two buffers; diags[i] views bufs[i]'s
    # diagonal
    bufs = (P, np.empty_like(P))
    diags = tuple(b.reshape(-1)[:: n + 1] for b in bufs)
    diags[0][:] = 0.0
    np.maximum(P, 0.0, out=P)
    off = P.sum(axis=1)
    np.subtract(1.0, off, out=diags[0])
    d = np.empty(n)
    for i in range(s):
        src, P, dP = bufs[i % 2], bufs[1 - i % 2], diags[1 - i % 2]
        np.matmul(src, src, out=P)
        d[:] = dP
        dP[:] = 0.0
        P.sum(axis=1, out=off)
        if d.min() > 0.5:
            np.subtract(1.0, off, out=dP)
        else:
            closed = d > 0.5
            dP[:] = np.where(closed, 1.0 - off, d)
            P /= np.where(closed, 1.0, off + d)[:, None]
    return P


def propagate(
    params: ModelParams,
    path: FrozenPath,
    t0: float,
    t1: float,
    window: Window,
    substeps: int = 1,
) -> Kernel:
    """P(t0, t1) as a fixed-order product of per-substep exponentials,
    each with the generator frozen at the substep midpoint.  All substeps
    have one length tau, and a substep whose frozen (L, M) equal the
    previous substep's reuses its matrix, so on a constant path one
    exponential serves every substep."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    P = np.eye(window.size)
    if t1 == t0:
        return Kernel(window=window, t0=t0, t1=t1, rows=P)
    edges = np.linspace(t0, t1, substeps + 1).tolist()
    # one substep length for all: differences of the linspace edges
    # wobble in the last bit and would defeat the reuse
    tau = (t1 - t0) / substeps
    frozen = None
    for a, b in zip(edges[:-1], edges[1:]):
        L, M = path.at(0.5 * (a + b))
        if frozen != (L, M):
            frozen = (L, M)
            step = _transition_matrix(*rate_arrays(params, L, M, window), tau)
        P = P @ step
    return Kernel(window=window, t0=t0, t1=t1, rows=P)


def _constant_generator(params, path, t0, t1, window):
    knots = [t0, t1] + [float(t) for t in path.times if t0 < t < t1]
    Ls, Ms = zip(*(path.at(t) for t in knots))
    if max(Ls) - min(Ls) > 1e-12 or max(Ms) - min(Ms) > 1e-12:
        raise NonConstantPath(
            "dyson_series needs a constant (L, M) path on [t0, t1]; "
            "substep through propagate instead"
        )
    return generator_at(params, path, t0, window)


def dyson_series(
    params: ModelParams,
    path: FrozenPath,
    t0: float,
    t1: float,
    window: Window,
    k_maxes: Sequence[int],
) -> List[Tuple[Kernel, float]]:
    """For each k_max in k_maxes, in order: the partial sum of the
    jump-count series up to k_max jumps, plus the remainder bound in the
    alpha-weighted operator norm.  The jump-count recursion runs once, up
    to max(k_maxes); term j never reads a higher term, so each partial
    sum equals the one a recursion stopped at its own k_max gives."""
    if not k_maxes or min(k_maxes) < 0:
        raise ValueError("k_maxes must be a nonempty list of ints >= 0")
    gen = _constant_generator(params, path, t0, t1, window)
    tau = t1 - t0
    n = window.size
    if tau == 0.0:
        return [(Kernel(window=window, t0=t0, t1=t1, rows=np.eye(n)), 0.0) for _ in k_maxes]

    lam_dom = gen.max_rate * (1.0 + 1e-12) + 1e-300
    if lam_dom * tau > DYSON_LIMIT:
        raise UniformizationOverflow(
            f"dyson_series: dominating rate * span = {lam_dom * tau:g} > "
            f"{DYSON_LIMIT:g}; use a narrower window or a shorter span"
        )
    w0 = 1.0 + gen.diag / lam_dom  # diagonal of W0, in [0, 1]
    U = np.zeros((n, n))
    U += np.diag(gen.upper, 1)
    U += np.diag(gen.lower, -1)
    U /= lam_dom

    # G[j] and R[j] stacked: one batched update per Poisson term
    pmf = _poisson_pmf(lam_dom * tau)
    G = np.zeros((max(k_maxes) + 1, n, n))
    G[0] = np.eye(n)
    R = np.zeros_like(G)
    R[0] = pmf[0] * np.eye(n)
    for m in range(1, len(pmf)):
        G[1:] = G[1:] * w0 + G[:-1] @ U
        G[0] *= w0
        if pmf[m] > 0.0:
            R += pmf[m] * G

    x = v_induced_norm(gen, params.alpha) * tau
    out = []
    for k in k_maxes:
        log_rem = (k + 1) * math.log(x) - math.lgamma(k + 2) + x if x > 0 else -math.inf
        remainder = math.exp(log_rem) if log_rem > -700 else 0.0
        out.append((Kernel(window=window, t0=t0, t1=t1, rows=sum(R[1:k + 1], R[0])), remainder))
    return out


def kernel_weighted_distance(a: Kernel, b: Kernel, alpha: float) -> float:
    """Induced weighted-l1 distance max_j sum_k w_k |a_jk - b_jk| / w_j."""
    if a.window != b.window:
        raise ValueError("kernels live on different windows")
    log_w = log_plus_weights(a.window, alpha)
    diff = np.abs(a.rows - b.rows)
    # row j scanned with weights w_k / w_j; done in log space per row
    out = 0.0
    for j in range(a.window.size):
        nz = diff[j] > 0.0
        if not nz.any():
            continue
        terms = np.exp(np.log(diff[j][nz]) + log_w[nz] - log_w[j])
        out = max(out, float(terms.sum()))
    return out


# ---------------------------------------------------------------------------
# path sampler (thinning against a per-site dominating rate)

# Paths are advanced this many at a time.  Every draw is addressed by
# (seed, path, interval, proposal), so the chunk size changes no output;
# it only caps the size of the per-round arrays.
PATH_CHUNK = 4096


def _unit(words: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from the top 53 bits, as Generator.random."""
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def sample_paths(
    params: ModelParams,
    path: FrozenPath,
    p0: LatticeMeasure,
    sample_times: Sequence[float],
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Simulate paths of the walk along the frozen (L, M) path.

    Returns an (n_paths, len(sample_times)) integer array of positions.
    Each path jumps by thinning against the dominating rate of its
    *current* site over the current inter-sample interval.  The rates
    depend on (L, M) only through e^{cL} and e^{-cM}, so the rate table
    at the interval's (max L, min M) envelope dominates every rate on the
    interval: it is built once per interval with rate_arrays and shared by
    all paths.  Its lambda + mu is the per-site bound, and a proposal at
    time t takes lambda * e^{c(L(t) - max L)} and mu * e^{c(min M - M(t))},
    both factors <= 1.  Like every rate table, the envelope's must fit
    the window (else RateOverflow).  A path that sits on a site whose
    bound is not samplable raises DominatingRateOverflow.

    Paths advance together in rounds, one proposal per active path per
    round.  Path i's start draw is the Philox block at counter (i, 0, 0, 0)
    and its r-th proposal on interval k = 1, 2, ... the block at
    (i, k, r, 0), under one key per seed; word 0 gives the waiting time,
    word 1 the up/down test.  So path i depends only on (seed, i), not on
    n_paths or on other paths.
    """
    ts = np.asarray(sample_times, dtype=float)
    if len(ts) < 1 or not np.isfinite(ts).all() or not np.all(np.diff(ts) > 0):
        raise ValueError("sample_times must be nonempty, finite, strictly increasing")
    if n_paths < 0:
        raise ValueError(f"n_paths must be >= 0, got {n_paths}")
    window = p0.window
    n_min = window.n_min
    c = params.c
    intervals = []
    for t0, t1 in zip(ts[:-1].tolist(), ts[1:].tolist()):
        L_max, M_min = path.envelope(t0, t1)
        lam, mu = rate_arrays(params, L_max, M_min, window)
        intervals.append((t0, t1, L_max, M_min, lam, mu, lam + mu))
    # the CDF that rng.choice(sites, p=probs) builds; one uniform against
    # it picks a site
    probs = np.clip(p0.values, 0.0, None)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]

    bitgen = np.random.Philox(key=np.random.SeedSequence(seed).generate_state(2, np.uint64))
    state = bitgen.state

    def blocks(first: int, count: int, k: int, r: int) -> np.ndarray:
        """(count, 4) words: the blocks of paths first .. first+count-1."""
        state["state"]["counter"] = np.array([first, k, r, 0], dtype=np.uint64)
        state["buffer_pos"] = 4
        bitgen.state = state
        return bitgen.random_raw(4 * count).reshape(count, 4)

    out = np.empty((n_paths, len(ts)), dtype=int)
    for i0 in range(0, n_paths, PATH_CHUNK):
        n = min(PATH_CHUNK, n_paths - i0)
        pos = n_min + cdf.searchsorted(_unit(blocks(i0, n, 0, 0)[:, 0]), side="right")
        out[i0:i0 + n, 0] = pos
        for k, (t0, t1, L_max, M_min, lam, mu, bounds) in enumerate(intervals, 1):
            idx = np.arange(n)  # active paths, ascending
            t = np.full(n, t0)
            r = 0
            while idx.size:
                j = pos[idx] - n_min
                R = bounds[j]
                bad = ~(R <= 1e12)
                if bad.any():
                    b = np.flatnonzero(bad)[0]
                    raise DominatingRateOverflow(
                        f"dominating rate {R[b]:g} at site {n_min + j[b]} not samplable"
                    )
                live = R > 0.0
                if not live.all():
                    idx, t, j, R = idx[live], t[live], j[live], R[live]
                    if not idx.size:
                        break
                words = blocks(i0 + int(idx[0]), int(idx[-1] - idx[0]) + 1, k, r)
                rows = idx - idx[0]
                t = t - np.log1p(-_unit(words[rows, 0])) / R
                live = t < t1
                idx, t, j, R, rows = idx[live], t[live], j[live], R[live], rows[live]
                u = _unit(words[rows, 1]) * R
                up = lam[j] * np.exp(c * (np.interp(t, path.times, path.L_values) - L_max))
                down = mu[j] * np.exp(c * (M_min - np.interp(t, path.times, path.M_values)))
                pos[idx] += (u < up).astype(int) - ((u >= up) & (u < up + down))
                r += 1
            out[i0:i0 + n, k] = pos
    return out


def write_kernel_csv(kernel: Kernel, fh: IO[str]) -> None:
    w = csv.writer(fh)
    w.writerow(["row", "col", "value"])
    sites = kernel.window.sites()
    for i, ni in enumerate(sites):
        for j, nj in enumerate(sites):
            w.writerow([int(ni), int(nj), repr(float(kernel.rows[i, j]))])


def write_paths_csv(paths: np.ndarray, sample_times: Sequence[float], fh: IO[str]) -> None:
    """One row per (path, sample time), as csv.writer writes them: no field
    needs quoting, and rows end in CRLF.  Written PATH_CHUNK paths at a
    time, so the text in memory stays small."""
    ts = [repr(float(t)) for t in sample_times]
    fh.write("path_id,t,n\r\n")
    for i0 in range(0, len(paths), PATH_CHUNK):
        fh.write("".join(
            f"{i},{t},{n}\r\n"
            for i, row in enumerate(paths[i0:i0 + PATH_CHUNK].tolist(), i0)
            for t, n in zip(ts, row)
        ))
