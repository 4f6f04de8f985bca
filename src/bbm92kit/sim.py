"""Event-level Monte Carlo of the sift-and-discard protocol.

Each event draws independent uniform basis choices for the two parties and a
Born-rule outcome for the configured source.  Events where the bases match
and both parties detect photons enter the tally; double clicks on either side
are counted and discarded, the rest split into correct and error bits.

Randomness contract: every event consumes exactly four uniform draws from a
counter-based generator keyed by the seed, so chunked or per-event parallel
generation reproduces the serial stream bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import rates
from .attack import attack_density
from .errors import InfeasibleError
from .fock import Basis, Bit, PolarizedFockState, basis_state
from .povm import capped_joint_dim, outcome_projectors

_DRAWS_PER_EVENT = 4
# Born probabilities at or below this are rounding noise on exact zeros: the cells that are
# zero in exact arithmetic (ideal pair's error and double-click cells, Werner double-click
# cells for v = 0, 0.01, ..., 1) compute to at most 1.1e-16 in magnitude.
_PROB_FLOOR = 1e-12
# Indexed search (Chen & Asau 1974; Devroye 1986, III.2.4): [0, 1) splits into 2**12
# buckets, and a draw's bucket floor(u * 2**12) is exact, because draws are multiples of
# 2**-53 and the scale is a power of two.
_GUIDE_BITS = 12
_GUIDE_SIZE = 1 << _GUIDE_BITS


class Outcome(Enum):
    """What one party's detector pair reported for one event."""

    BIT0 = 0
    BIT1 = 1
    DOUBLE = 2
    NO_DETECTION = 3


@dataclass(frozen=True)
class SiftedTally:
    """Counts over events with matching bases where both parties detected."""

    n: int
    n_dbl: int
    n_err: int
    n_cor: int
    n_events: int = 0
    n_mismatched: int = 0
    n_undetected: int = 0

    def __post_init__(self) -> None:
        if self.n_dbl + self.n_err + self.n_cor != self.n:
            raise ValueError("double + error + correct counts must equal n")

    @property
    def delta_hat(self) -> float:
        return self.n_dbl / self.n if self.n else 0.0

    @property
    def eps_hat(self) -> float:
        return self.n_err / self.n if self.n else 0.0

    @property
    def delta_se(self) -> float:
        p = self.delta_hat
        return math.sqrt(p * (1.0 - p) / self.n) if self.n else 0.0

    @property
    def eps_se(self) -> float:
        p = self.eps_hat
        return math.sqrt(p * (1.0 - p) / self.n) if self.n else 0.0


@dataclass(frozen=True, eq=False)
class SourceBranch:
    """One mixture component: a photon-number pair and its joint density."""

    weight: float
    n_a: int
    n_b: int
    rho: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"branch weight must be in (0, 1], got {self.weight!r}")
        if self.n_a < 0 or self.n_b < 0:
            raise ValueError("photon numbers must be >= 0")
        dim = capped_joint_dim(self.n_a, self.n_b)
        rho = np.array(self.rho, dtype=float)
        if rho.shape != (dim, dim):
            raise ValueError(f"density must be {dim}x{dim}, got {rho.shape}")
        if float(np.max(np.abs(rho - rho.T))) > 1e-10:
            raise ValueError("density matrix must be symmetric")
        rho = 0.5 * (rho + rho.T)
        trace = float(np.trace(rho))
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"density trace must be 1, got {trace!r}")
        if float(np.linalg.eigvalsh(rho).min()) < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


def _phi_plus_density() -> np.ndarray:
    phi = np.zeros(4)
    for bit in (Bit.ZERO, Bit.ONE):
        amp = basis_state(1, Basis.Z, bit).amplitudes
        phi += np.kron(amp, amp)
    phi /= np.sqrt(2.0)
    return np.outer(phi, phi)


@dataclass(frozen=True, eq=False)
class SourceModel:
    """Mixture of photon-number branches feeding the two apparatuses."""

    branches: tuple[SourceBranch, ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("source needs at least one branch")
        total = sum(b.weight for b in self.branches)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"branch weights must sum to 1, got {total!r}")

    @classmethod
    def ideal_pair(cls) -> "SourceModel":
        """Perfectly correlated single-photon pair: no errors, no double clicks."""
        return cls((SourceBranch(1.0, 1, 1, _phi_plus_density()),))

    @classmethod
    def werner(cls, visibility: float) -> "SourceModel":
        """Entangled pair mixed with white noise: error rate (1-v)/2, no double clicks."""
        if not 0.0 <= visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {visibility!r}")
        rho = visibility * _phi_plus_density() + (1.0 - visibility) * np.eye(4) / 4.0
        return cls((SourceBranch(1.0, 1, 1, rho),))

    @classmethod
    def eve_attack(cls, chi: PolarizedFockState, xi: float) -> "SourceModel":
        """Ideal pairs diluted with the explicit attack in a fraction xi of events."""
        if not 0.0 <= xi <= 1.0:
            raise ValueError(f"multiphoton fraction must be in [0, 1], got {xi!r}")
        branches = []
        if xi < 1.0:
            branches.append(SourceBranch(1.0 - xi, 1, 1, _phi_plus_density()))
        if xi > 0.0:
            branches.append(SourceBranch(xi, 1, 2, attack_density(chi)))
        return cls(tuple(branches))

    @classmethod
    def custom(cls, branches) -> "SourceModel":
        """Arbitrary mixture of (weight, n_a, n_b, density) blocks; n=0 means vacuum."""
        return cls(tuple(SourceBranch(*b) for b in branches))

    @cached_property
    def _kernel(self) -> "_Kernel":
        """Outcome table of this source, built on first use and kept with it."""
        return _build_kernel(self)


_BASES = (Basis.Z, Basis.X)


def _party_projectors(n: int, w: Basis) -> tuple[np.ndarray, tuple[int, ...]]:
    """One party's stacked outcome projectors and their outcome codes; n = 0 is vacuum."""
    if n == 0:
        return np.eye(1)[None], (Outcome.NO_DETECTION.value,)
    codes = (Outcome.BIT0.value, Outcome.BIT1.value, Outcome.DOUBLE.value)
    return outcome_projectors(n, w), codes


def event_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform draws for events [start, start+count): shape (count, 4).

    Counter-based: one Philox counter block yields exactly the four doubles of
    one event, so any chunking of the event range reproduces the same
    per-event draws.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be >= 0")
    bitgen = np.random.Philox(key=seed, counter=[start, 0, 0, 0])
    return np.random.Generator(bitgen).random((count, _DRAWS_PER_EVENT))


@dataclass(frozen=True)
class _Kernel:
    """Every (branch, basis pair) outcome distribution of a source in one table.

    Group g = 4 * branch + 2 * [Alice measures X] + [Bob measures X]; slot
    g * width + s stands for outcome s of group g, whose Born probability is
    ``probs[g, s]`` (zero-padded past the group's outcomes).  Column g of
    ``cut`` holds the group's cumulative probabilities but the last, padded
    with 2.0, so the count of its entries <= u is
    min(searchsorted(cum, u, "right"), len(cum) - 1), the outcome drawn by u:
    the padding is never <= u < 1.  Row i of ``indicators`` marks the slots
    counted by tally i, in the order n, dbl, err, cor, mismatch, undetected.

    ``guide[g, k]`` is that outcome for every u in bucket [k, k + 1) / 2**12,
    or -1 where a cut point of group g lies strictly inside the bucket.
    ``branch_guide[k]`` is likewise 4 * branch for bucket k of the branch
    draw, from the cut points ``branch_cum[:-1]``, or -1.
    """

    branch_cum: np.ndarray
    probs: np.ndarray
    cut: np.ndarray
    indicators: np.ndarray
    guide: np.ndarray
    branch_guide: np.ndarray


def _guide(cuts: np.ndarray) -> np.ndarray:
    """Count of the sorted ``cuts`` <= each bucket's left edge, -1 where a cut splits it."""
    counts = np.searchsorted(cuts, np.arange(_GUIDE_SIZE) / _GUIDE_SIZE, side="right")
    scaled = cuts * _GUIDE_SIZE  # exact: a power-of-two scale
    inside = (scaled < _GUIDE_SIZE) & (scaled != np.floor(scaled))
    counts[scaled[inside].astype(np.intp)] = -1
    return counts


def _group(rho: np.ndarray, side_a, side_b, same: bool) -> tuple[np.ndarray, tuple]:
    """Born probabilities and tally indicator rows of one (branch, basis pair) group."""
    (proj_a, codes_a), (proj_b, codes_b) = side_a, side_b
    (ka, da), (kb, db) = proj_a.shape[:2], proj_b.shape[:2]
    # every kron(pa, pb) at once: each entry is the one product pa[i, j] * pb[k, l]
    krons = (proj_a[:, None, :, None, :, None] * proj_b[None, :, None, :, None, :]).reshape(
        ka * kb, da * db, da * db
    )
    # one trace per cell: a batched einsum rounds some cells differently
    probs = np.array([float(np.trace(rho @ k)) for k in krons])
    a = np.repeat(codes_a, kb)
    b = np.tile(codes_b, ka)
    total = float(probs.sum())
    # The cells sum to tr(rho sum_ab P_a (x) P_b) = tr(rho), held within 1e-10 of 1 by
    # SourceBranch.  Each of the <= 9 cell traces rounds by at most gamma_128 sum_ij |rho_ij|
    # <= 128 * 2**-53 * 64 < 1e-12 (d <= 64, and a PSD unit-trace rho has sum_ij |rho_ij| <= d),
    # and the projectors sum to the identity within a few ulps per entry, so
    # |total - 1| < 1.1e-10 < 1e-9.  The sum is taken before the floor below, which raises it
    # by up to 1e-12 per cell and by the size of each negative cell that the branch's
    # eigenvalue tolerance admits.
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities sum to {total!r}")
    probs = np.where(probs > _PROB_FLOOR, probs, 0.0)
    probs /= probs.sum()
    detected = (a != Outcome.NO_DETECTION.value) & (b != Outcome.NO_DETECTION.value)
    dbl = detected & ((a == Outcome.DOUBLE.value) | (b == Outcome.DOUBLE.value))
    err = detected & ~dbl & (a != b)
    kept = same & detected
    mismatch = np.full(len(a), not same)
    return probs, (kept, kept & dbl, kept & err, kept & ~dbl & ~err, mismatch, ~detected)


def _build_kernel(source: SourceModel) -> _Kernel:
    groups = []
    for branch in source.branches:
        sides_a = [_party_projectors(branch.n_a, w) for w in _BASES]
        sides_b = [_party_projectors(branch.n_b, w) for w in _BASES]
        groups += [
            _group(branch.rho, side_a, side_b, ia == ib)
            for ia, side_a in enumerate(sides_a)
            for ib, side_b in enumerate(sides_b)
        ]
    width = max(len(probs) for probs, _ in groups)
    table = np.zeros((len(groups), width))
    cut = np.full((width - 1, len(groups)), 2.0)
    indicators = np.zeros((6, len(groups), width), dtype=np.int64)
    for g, (probs, rows) in enumerate(groups):
        size = len(probs)
        table[g, :size] = probs
        cut[: size - 1, g] = np.cumsum(probs)[:-1]
        indicators[:, g, :size] = rows
    guide = np.array([_guide(column) for column in cut.T], dtype=np.int8)
    branch_cum = np.cumsum([b.weight for b in source.branches])
    branch = _guide(branch_cum[:-1])
    branch_guide = np.where(branch < 0, -1, 4 * branch).astype(np.int32)
    return _Kernel(branch_cum, table, cut, indicators.reshape(6, -1), guide, branch_guide)


def run_protocol(
    source: SourceModel, num_events: int, seed: int, chunk: int = 1 << 16
) -> SiftedTally:
    """Simulate ``num_events`` rounds and tally the same-basis detected events.

    Each event's branch and bases pick its group and its outcome draw picks a
    slot of the source's flat kernel table; one bincount per chunk counts the
    slots, and the tallies are the slot counts summed over their indicators.
    The outcome is one gather from the kernel's guide at group * 2**12 +
    floor(2**12 * u); only draws in a bucket a cut point splits go on to
    compare with the group's cut points.  The branch is looked up the same
    way, with a search as its fallback, and only for mixtures.  The default
    chunk of 2**16 events keeps its 2 MB of draws in cache across the passes.
    """
    if num_events < 1:
        raise ValueError(f"num_events must be >= 1, got {num_events}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    kernel = source._kernel
    width = len(kernel.cut) + 1
    guide = kernel.guide.ravel()
    key_type = np.int32 if guide.size <= np.iinfo(np.int32).max else np.intp
    totals = np.zeros(kernel.indicators.shape[1], dtype=np.int64)
    for start in range(0, num_events, chunk):
        u = event_uniforms(seed, start, min(chunk, num_events - start))
        group = (u[:, 0] >= 0.5).view(np.int8) << 1
        group |= (u[:, 1] >= 0.5).view(np.int8)
        if len(kernel.branch_cum) > 1:
            base = kernel.branch_guide.take((u[:, 2] * _GUIDE_SIZE).astype(key_type))
            split = np.flatnonzero(base < 0)
            if split.size:
                branch = np.searchsorted(kernel.branch_cum[:-1], u[split, 2], side="right")
                base[split] = 4 * branch
            group = base + group
        key = (u[:, 3] * _GUIDE_SIZE).astype(key_type)
        key += np.left_shift(group, _GUIDE_BITS, dtype=key_type)
        outcome = guide.take(key)
        split = np.flatnonzero(outcome < 0)
        if split.size:
            in_group, draw = group[split], u[split, 3]
            found = np.zeros(split.size, dtype=np.int8)
            for cut_j in kernel.cut:
                found += cut_j[in_group] <= draw
            outcome[split] = found
        group *= width
        group += outcome
        totals += np.bincount(group, minlength=len(totals))
    n, dbl, err, cor, mismatch, undetected = (int(c) for c in kernel.indicators @ totals)
    return SiftedTally(
        n=n,
        n_dbl=dbl,
        n_err=err,
        n_cor=cor,
        n_events=num_events,
        n_mismatched=mismatch,
        n_undetected=undetected,
    )


def analytic_fractions(source: SourceModel) -> tuple[float, float]:
    """Exact double-click and error fractions among same-basis detected events.

    Sums the Born probabilities of the kernel's own table over the slots its
    n, dbl and err indicators count, so the tallies and this cross-check read
    one table.
    """
    kernel = source._kernel
    n_row, dbl_row, err_row = kernel.indicators[:3].reshape(3, *kernel.probs.shape) != 0
    detect_mass = 0.0
    dbl_mass = 0.0
    err_mass = 0.0
    for bi, branch in enumerate(source.branches):
        for g in (4 * bi, 4 * bi + 3):  # Z/Z, then X/X
            probs = kernel.probs[g]
            scale = 0.5 * branch.weight
            detect_mass += scale * float(probs[n_row[g]].sum())
            dbl_mass += scale * float(probs[dbl_row[g]].sum())
            err_mass += scale * float(probs[err_row[g]].sum())
    if detect_mass <= 0.0:
        raise ValueError("source never produces a same-basis detected event")
    return dbl_mass / detect_mass, err_mass / detect_mass


@dataclass(frozen=True)
class SimulationReport:
    """Sampled and analytic key-rate figures for one simulated run."""

    seed: int
    f_ec: float
    num_events: int
    tally: SiftedTally
    delta_hat: float
    eps_hat: float
    delta_se: float
    eps_se: float
    sampled: rates.KeyRateResult | None
    analytic_delta: float
    analytic_eps: float
    analytic: rates.KeyRateResult | None
    r_key_gap: float | None
    conjectured_rate_sampled: float | None


def _try_key_rate(delta: float, eps: float, f: float):
    """Key rate at the fractions, or None where no key rate is certified.

    Fractions outside the observed-fraction domain, such as delta = 1 when
    every sifted event is a double click, certify no key either.
    """
    if not rates.in_stats_domain(delta, eps):
        return None
    try:
        return rates.key_rate(rates.ObservedStats(delta, eps), f)
    except InfeasibleError:
        return None


def _try_conjectured(delta: float, eps: float) -> float | None:
    """Conjectured random-assignment rate, or None outside its domain.

    Its domain is the observed-fraction domain with eps + delta/2 <= 1/2,
    within the rates layer's tolerance.
    """
    if not rates.in_stats_domain(delta, eps) or eps + 0.5 * delta > 0.5 + rates._DOMAIN_TOL:
        return None
    return rates.conjectured_random_assignment_rate(rates.ObservedStats(delta, eps))


def end_to_end(
    source: SourceModel, num_events: int, f: float = 1.0, seed: int = 0
) -> SimulationReport:
    """Run the protocol, apply the rate formulas to the sampled fractions.

    The report pairs the sampled key fraction with the analytic one from the
    source's exact fractions; infeasible sampled statistics are reported as
    such rather than raising.  The conjectured random-assignment rate of the
    sampled fractions is carried in its own labeled field, never merged with
    proved rates.
    """
    rates._check_f(f)
    tally = run_protocol(source, num_events, seed)
    a_delta, a_eps = analytic_fractions(source)
    sampled = _try_key_rate(tally.delta_hat, tally.eps_hat, f)
    analytic = _try_key_rate(a_delta, a_eps, f)
    gap = None
    if sampled is not None and analytic is not None:
        gap = sampled.r_key - analytic.r_key
    return SimulationReport(
        seed=seed,
        f_ec=f,
        num_events=num_events,
        tally=tally,
        delta_hat=tally.delta_hat,
        eps_hat=tally.eps_hat,
        delta_se=tally.delta_se,
        eps_se=tally.eps_se,
        sampled=sampled,
        analytic_delta=a_delta,
        analytic_eps=a_eps,
        analytic=analytic,
        r_key_gap=gap,
        conjectured_rate_sampled=_try_conjectured(tally.delta_hat, tally.eps_hat),
    )
