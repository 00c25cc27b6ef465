"""Transition kernels of the walk along a frozen (L, M) path.

The production route builds P(t0, t1) as a fixed-order product of
per-substep exponentials exp(tau G), each with the generator frozen at
the substep midpoint.  One exponential is a nonnegative scaling and
squaring, every row divided by its sum: no subtraction ever cancels, so
every entry keeps full relative accuracy and the rows sum to 1 to
roundoff, however large lambda_dom * tau is.  It runs on the README
window.

The oracle route evaluates the jump-count series: the k-jump term of the
time-ordered expansion, summed up to k_max, with an a-priori remainder
bound (||V|| (t1-t0))^{k_max+1}/(k_max+1)! * exp(||V|| (t1-t0)) in the
weighted operator norm.

For a constant generator D + V (D its diagonal) the jump-count terms
T_k(tau) are the blocks (0, k) of exp(tau Q), Q the layered generator
with D on the diagonal blocks and V above them, so they double like an
exponential: T_k(2a) = sum_i T_i(a) T_{k-i}(a).  On a base step h with
lambda_dom * h <= 2^-10 they come from the uniformization words in
W0 = I + D/Lam and U = V/Lam resolved by jump count; T_0(a) = exp(a D)
is taken directly at every level.  Every product is of nonnegative
matrices, so even very small far-off-diagonal entries keep full
relative accuracy, and the cost grows like log2(lambda_dom * tau).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DominatingRateOverflow, NumericalError, RateOverflow
from .lattice import LatticeMeasure, Window, log_plus_weights
from .model import ModelParams, rate_arrays

# lambda_dom * tau above which e^{-lambda_dom tau} underflows; the scale
# against which the benchmark tracer reports each substep's stiffness
UNIFORMIZATION_LIMIT = 700.0
# the cap on floats in one array of dyson_series' K + 1 jump-count terms
# (80 MB; three are held at once) and in the exponentials propagate
# keeps in its store, one call's or one a caller shares across calls;
# and the cap of propagate and dyson_series on the multiply-adds of their
# n x n matmuls (7-25 s at the 4-14 GMAC/s one 2-core host reached on
# 17-51 sites)
_MAX_FLOATS = 1e7
_MAX_MADDS = 1e11


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
    """The truncated generator G(L, M) as the (lambda, mu) pair rate_arrays
    returns: lam[-1] = mu[0] = 0, so the diagonal -(lam + mu) makes every
    row of G sum to 0."""

    window: Window
    lam: np.ndarray
    mu: np.ndarray

    def as_matrix(self) -> np.ndarray:
        lam, mu = self.lam, self.mu
        return np.diag(-(lam + mu)) + np.diag(lam[:-1], 1) + np.diag(mu[1:], -1)

    @property
    def max_rate(self) -> float:
        return float((self.lam + self.mu).max())


@dataclass(frozen=True)
class Kernel:
    """Row-stochastic transition matrix P(t0, t1) on the window."""

    window: Window
    rows: np.ndarray = field(repr=False)

    def max_row_sum_error(self) -> float:
        return float(np.abs(self.rows.sum(axis=1) - 1.0).max())

    def min_entry(self) -> float:
        return float(self.rows.min())


def generator_at(
    params: ModelParams, path: FrozenPath, t: float, window: Window
) -> Generator:
    return Generator(window, *rate_arrays(params, *path.at(t), window))


def _weighted_row_norm(A: np.ndarray, window: Window, alpha: float) -> float:
    """max_j sum_k w_k |A_jk| / w_j: the norm that A induces on
    weighted-l1 measures acted on from the left.  The ratios w_k / w_j
    span hundreds of orders of magnitude, so each term is formed in log
    space.  A weight past the float range (alpha * |n| overflows) would
    make its ratios nan: it raises NumericalError."""
    with np.errstate(over="ignore", invalid="ignore"):
        log_w = log_plus_weights(window, alpha)
    if not np.isfinite(log_w).all():
        raise NumericalError(f"weights past the float range at alpha = {alpha:g}")
    with np.errstate(divide="ignore"):
        terms = np.exp(np.log(np.abs(A)) + log_w - log_w[:, None])
    return float(terms.sum(axis=1).max())


def v_induced_norm(gen: Generator, alpha: float) -> float:
    """Induced norm of the off-diagonal part V on weighted-l1 measures:
    max_j (w_{j+1} lambda_j + w_{j-1} mu_j) / w_j."""
    return _weighted_row_norm(gen.as_matrix() + np.diag(gen.lam + gen.mu), gen.window, alpha)


def v_norm_bound(
    params: ModelParams, sup_beta: float, L: float, M: float, alpha: float
) -> float:
    """A-priori bound sup_beta * e^{1/2+|alpha|} * (e^{-M} + e^{L});
    derived at c = 1."""
    return sup_beta * math.exp(0.5 + abs(alpha)) * (math.exp(-M) + math.exp(L))


# Substep exponentials and Dyson terms are squared or doubled from a base
# step h with h * max rate <= 2^-10: hG has row norm <= 2^-9, so the
# degree-7 Taylor remainder is below 2^-72 / 8! (about 5e-27).
_BASE_STEP_LOG2 = 10
_TAYLOR_DEGREE = 7


def _base_step(span: float, tau: float) -> Tuple[int, float]:
    """(s, h = tau / 2^s), the fewest s >= 0 squarings or doublings with
    span * 2^-s <= 2^-10, span a dominating rate times tau."""
    if not math.isfinite(span):
        raise RateOverflow(f"dominating rate * time = {span:g} is not finite")
    s = max(0, math.ceil(math.log2(span) + _BASE_STEP_LOG2)) if span else 0
    return s, math.ldexp(tau, -s)


def _transition_matrix(gen: Generator, tau: float) -> np.ndarray:
    """exp(tau G) of the tridiagonal generator gen.

    The base matrix is the degree-7 Taylor polynomial of hG, h = tau / 2^s
    from _base_step, with its negative entries clipped at 0; it is squared
    s times.  The base and every square have each row divided by its sum.
    No step subtracts, so every entry is a sum of nonnegative products and
    keeps full relative accuracy, up to an error that grows with s.
    """
    eye = np.eye(gen.window.size)
    s, h = _base_step(gen.max_rate * tau, tau)
    A = h * gen.as_matrix()
    P = eye
    for k in range(_TAYLOR_DEGREE, 0, -1):
        P = eye + (A @ P) / k
    np.maximum(P, 0.0, out=P)
    P /= P.sum(axis=1, keepdims=True)
    for _ in range(s):
        P = P @ P
        P /= P.sum(axis=1, keepdims=True)
    return P


def propagate(
    params: ModelParams,
    path: FrozenPath,
    t0: float,
    t1: float,
    window: Window,
    substeps: int = 1,
    exps: Optional[Dict[Tuple[float, float, float], np.ndarray]] = None,
) -> Kernel:
    """P(t0, t1) as a fixed-order product of per-substep exponentials,
    each with the generator frozen at the substep midpoint.  All substeps
    have one length tau.

    exps is a store of substep exponentials for calls on one params and
    window: it maps (L, M, tau), the floats path.at returns at a midpoint
    and the substep length, to exp(tau G(L, M)).  None gives a fresh one
    for this call only; a caller that passes its own shares it across
    calls.  A substep whose key equals the previous substep's multiplies
    by the same matrix again, so on a constant path one exponential serves
    every substep.  Any other substep takes its matrix from the store, or
    builds it and stores it while the store then holds at most _MAX_FLOATS
    floats; past that it is built and not kept.  A stored matrix is the
    one its own exponential would be, so the kernel is the same to the
    bit whatever the store holds.

    Work estimated above _MAX_MADDS raises ValueError before any
    exponential is built.  The estimate is made from the first substep's
    generator whether or not the store holds it (a first key the store
    misses builds its exponential from that generator), and counts one
    exponential per run of equal keys, so it bounds the work from above."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    P = np.eye(window.size)
    if t1 == t0:
        return Kernel(window=window, rows=P)
    edges = np.linspace(t0, t1, substeps + 1).tolist()
    # one substep length for all: differences of the linspace edges
    # wobble in the last bit and would defeat the reuse
    tau = (t1 - t0) / substeps
    keys = [(*path.at(0.5 * (a + b)), tau) for a, b in zip(edges[:-1], edges[1:])]
    runs = 1 + sum(a != b for a, b in zip(keys, keys[1:]))
    first = Generator(window, *rate_arrays(params, *keys[0][:2], window))
    _check_propagate_work(first, tau, substeps, runs)
    if exps is None:
        exps = {}
    previous = None
    for key in keys:
        if key != previous:
            step = exps.get(key)
            if step is None:
                gen = (first if key == keys[0]
                       else Generator(window, *rate_arrays(params, *key[:2], window)))
                step = _transition_matrix(gen, tau)
                if (len(exps) + 1) * step.size <= _MAX_FLOATS:
                    exps[key] = step
            previous = key
        P = P @ step
    return Kernel(window=window, rows=P)


def _check_propagate_work(gen: Generator, tau: float, substeps: int, runs: int):
    """Raise ValueError when propagate's matmuls, from its first substep's
    generator gen, are estimated above _MAX_MADDS: (7 + s) n^3 multiply-adds
    per exponential, s its squarings, one exponential per run of equal
    substep keys, and n^3 per product.  A run builds at most one
    exponential and none when the store holds it, so this is an upper
    bound."""
    n = gen.window.size
    s, _ = _base_step(gen.max_rate * tau, tau)
    madds = (runs * (_TAYLOR_DEGREE + s) + substeps) * n**3
    if madds > _MAX_MADDS:
        raise ValueError(
            f"propagate on {n} sites needs about {madds:.3g} multiply-adds for "
            f"{runs} exponential(s) of {s} squarings and {substeps} products, "
            f"above {_MAX_MADDS:g}"
        )


def dyson_series(
    params: ModelParams,
    L: float,
    M: float,
    t0: float,
    t1: float,
    window: Window,
    k_maxes: Sequence[int],
) -> List[Tuple[Kernel, float]]:
    """For each k_max in k_maxes, in order: the partial sum up to k_max
    jumps of the jump-count series of the generator frozen at (L, M), plus
    the remainder bound in the alpha-weighted operator norm.

    The terms T_1 .. T_K, K = max(k_maxes), are built once over a base
    step h = tau / 2^s with lambda_dom * h <= 2^-10, from K + 8 Poisson
    terms (a word with j jumps and i > 7 more letters weighs at most
    x_h^i / i! <= 2^-80 / 8! of its j-letter word, x_h = lambda_dom * h).
    They are doubled s times by T_k(2a) = sum_i T_i(a) T_{k-i}(a), with
    T_0(a) = exp(a D) taken directly, so its error does not double with
    every level.  Term k never reads a higher term and s depends only on
    lambda_dom * tau, so each partial sum equals the one a call for its
    own k_max alone gives.  A K whose term arrays or matmuls pass
    _MAX_FLOATS or _MAX_MADDS raises ValueError before any
    of them is made."""
    if not k_maxes or min(k_maxes) < 0:
        raise ValueError("k_maxes must be a nonempty list of ints >= 0")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    gen = Generator(window, *rate_arrays(params, L, M, window))
    tau = t1 - t0
    n = window.size
    if tau == 0.0:
        return [(Kernel(window=window, rows=np.eye(n)), 0.0) for _ in k_maxes]

    D = -(gen.lam + gen.mu)
    lam_dom = gen.max_rate * (1.0 + 1e-12) + 1e-300
    s, h = _base_step(lam_dom * tau, tau)
    K = max(k_maxes)
    if (K + 1) * n * n > _MAX_FLOATS:
        raise ValueError(
            f"k_max = {K} on {n} sites needs {(K + 1) * n * n:.3g} floats per term "
            f"array, above {_MAX_FLOATS:g}"
        )
    # the base stage takes (K + 7) K matmuls, each of s doublings K (K - 1) / 2
    matmuls = (K + 7) * K + s * K * (K - 1) // 2
    if matmuls * n**3 > _MAX_MADDS:
        raise ValueError(
            f"k_max = {K} on {n} sites needs {matmuls} matmuls of {n} x {n} "
            f"({matmuls * n**3:.3g} multiply-adds), above {_MAX_MADDS:g}"
        )
    w0 = 1.0 + D / lam_dom  # diagonal of W0, in [0, 1]
    U = (gen.as_matrix() - np.diag(D)) / lam_dom

    # G[j]: the m-letter words with j letters U; T[j - 1]: T_j(h)
    x_h = lam_dom * h
    weight = math.exp(-x_h)
    G = np.zeros((K + 1, n, n))
    G[0] = np.eye(n)
    T = np.zeros((K, n, n))
    for m in range(1, K + 8):
        G[1:] = G[1:] * w0 + G[:-1] @ U
        G[0] *= w0
        weight *= x_h / m
        T += weight * G[1:]
    for level in range(s):
        e = np.exp(math.ldexp(h, level) * D)  # T_0 over this level's step
        doubled = e[:, None] * T + T * e
        for k in range(2, K + 1):
            doubled[k - 1] += np.matmul(T[:k - 1], T[k - 2::-1]).sum(axis=0)
        T = doubled

    x = v_induced_norm(gen, params.alpha) * tau
    out = []
    for k in k_maxes:
        log_rem = (k + 1) * math.log(x) - math.lgamma(k + 2) + x if x > 0 else -math.inf
        # a bound past the float range is inf: it bounds nothing
        remainder = 0.0 if log_rem <= -700 else math.exp(log_rem) if log_rem < 709 else math.inf
        rows = sum(T[:k], np.diag(np.exp(tau * D)))
        out.append((Kernel(window=window, rows=rows), remainder))
    return out


def kernel_weighted_distance(a: Kernel, b: Kernel, alpha: float) -> float:
    """Induced weighted-l1 distance max_j sum_k w_k |a_jk - b_jk| / w_j."""
    if a.window != b.window:
        raise ValueError("kernels live on different windows")
    return _weighted_row_norm(a.rows - b.rows, a.window, alpha)


# ---------------------------------------------------------------------------
# path sampler (thinning against a per-site dominating rate)

# Paths are advanced this many at a time.  Every draw is addressed by
# (seed, path, interval, proposal), so the chunk size changes no output;
# it only caps the size of the per-round arrays.
PATH_CHUNK = 4096
# the most proposals a path may expect on its current site before the
# interval ends, bound * (t1 - t): the samplable bound 1e12 over a unit
# interval, so no interval of length <= 1 is refused, while 1e12 rounds of
# about 10 us each would take months
_PROPOSAL_CAP = 1e12


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
    bound is not samplable raises DominatingRateOverflow, and one that
    expects more than _PROPOSAL_CAP proposals there before the interval
    ends, bound * (t1 - t), raises ValueError.

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
    # the CDF that rng.choice(sites, p=...) builds on p0 clipped and
    # renormalized; one uniform against it picks a site
    cdf = LatticeMeasure.normalized(window, p0.values).values.cumsum()
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
                work = R * (t1 - t)
                if work.max() > _PROPOSAL_CAP:
                    b = int(work.argmax())
                    raise ValueError(
                        f"path {i0 + idx[b]} at site {n_min + j[b]} expects {work[b]:.3g} "
                        f"thinning proposals before t = {t1:g}, above {_PROPOSAL_CAP:g}"
                    )
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
    needs quoting, and rows end in CRLF.  Each row is its path id and one
    ",t,n\r\n" tail, built once per (sample time, site) into an object
    array per sample time, the sites spanning the array's least to
    greatest.  A block of PATH_CHUNK paths gathers its tails column by
    column, indexing sample time k's array with the block's k-th site
    column, and interleaves them with the ids by strided slice assignment
    into one list, which one join writes: no Python step per row, and the
    text in memory stays one block's."""
    fh.write("path_id,t,n\r\n")
    if not paths.size:
        return
    lo = int(paths.min())
    sites = range(lo, int(paths.max()) + 1)
    tails = [np.array([f",{float(t)!r},{n}\r\n" for n in sites], dtype=object)
             for t in sample_times]
    stride = 2 * len(tails)
    for i0 in range(0, len(paths), PATH_CHUNK):
        block = paths[i0:i0 + PATH_CHUNK] - lo
        ids = list(map(str, range(i0, i0 + len(block))))
        parts = [""] * (stride * len(block))
        for k, tail in enumerate(tails):
            parts[2 * k::stride] = ids
            parts[2 * k + 1::stride] = tail[block[:, k]].tolist()
        fh.write("".join(parts))
