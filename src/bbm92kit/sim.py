"""Event-level Monte Carlo of the sift-and-discard protocol.

Each event draws independent uniform basis choices for the two parties and a
Born-rule outcome for the configured source.  Events where the bases match
and both parties detect photons enter the tally; double clicks on either side
are counted and discarded, the rest split into correct and error bits.

Randomness contract: every event consumes exactly four 64-bit words from a
counter-based generator keyed by the seed, so chunked or per-event parallel
generation reproduces the serial stream bit-for-bit.  Word w stands for the
uniform draw u = (w >> 11) * 2**-53, the double ``Generator.random`` makes of it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from operator import attrgetter

import numpy as np

from . import rates
from .attack import _phi_plus, attack_density
from .fock import _check_count
from .povm import _outcome_krons, _tally_rows, capped_joint_dim

_DRAWS_PER_EVENT = 4
# Events per pass of `run_protocol`: the 1 MB of words of 2**15 events and the buffers stay in
# a 2 MB per-core L2.  The one strided pass, which copies the words' high 16 bits to four rows,
# costs 1.7-2.3 ns per event at 2**15 against 2.7-4.2 ns at 2**16, measured side by side.
_CHUNK_EVENTS = 1 << 15
# Born probabilities at or below this are rounding noise on exact zeros: the cells that are
# zero in exact arithmetic (ideal pair's error and double-click cells, Werner double-click
# cells for v = 0, 0.01, ..., 1) compute to at most 1.1e-16 in magnitude.
_PROB_FLOOR = 1e-12
# Indexed search (Chen & Asau 1974; Devroye 1986, III.2.4): [0, 1) splits into 2**12
# buckets, and the bucket floor(u * 2**12) of the draw u = (w >> 11) * 2**-53 is the top
# 12 bits of its word w, read from the word's high 16 bits.
_GUIDE_BITS = 12
_GUIDE_SIZE = 1 << _GUIDE_BITS
# Index of a uint64's high uint16 among its four uint16 parts in memory, and the shift
# from those 16 bits to the top _GUIDE_BITS.
_HIGH_UINT16 = 3 if sys.byteorder == "little" else 0
_BUCKET_SHIFT = 16 - _GUIDE_BITS
# A draw's key is group * 2**12 + bucket, with group 4 * branch + 2 * [Alice measures X] +
# [Bob measures X], so the branch starts at key bit _GUIDE_BITS + 2.
_BRANCH_SHIFT = _GUIDE_BITS + 2
# Scale from a cut point c to the w >> 11 domain: c <= u iff ceil(c * 2**53) <= w >> 11.
# The 2.0 padding becomes 2**54, above every draw.
_WORD_SCALE = 2.0**53


@dataclass(frozen=True)
class SiftedTally:
    """Counts over events with matching bases where both parties detected.

    A tally with no such event (n = 0) has no estimate: its fractions and
    their standard errors are NaN, which no rate formula certifies.
    """

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
        return self.n_dbl / self.n if self.n else math.nan

    @property
    def eps_hat(self) -> float:
        return self.n_err / self.n if self.n else math.nan

    @property
    def delta_se(self) -> float:
        p = self.delta_hat
        return math.sqrt(p * (1.0 - p) / self.n) if self.n else math.nan

    @property
    def eps_se(self) -> float:
        p = self.eps_hat
        return math.sqrt(p * (1.0 - p) / self.n) if self.n else math.nan


@dataclass(frozen=True, eq=False)
class SourceBranch:
    """One mixture component: a photon-number pair and its joint density."""

    weight: float
    n_a: int
    n_b: int
    rho: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"branch weight must be in (0, 1], got {float(self.weight)!r}")
        dim = capped_joint_dim(self.n_a, self.n_b)
        rho = np.array(self.rho, dtype=float)
        if rho.shape != (dim, dim):
            raise ValueError(f"density must be {dim}x{dim}, got {rho.shape}")
        bad = ~np.isfinite(rho)  # NaN would pass every check below, and inf warn in them
        if bad.any():
            raise ValueError(f"density entries must be finite, got {float(rho[bad][0])!r}")
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


@cache
def _phi_plus_density() -> np.ndarray:
    """Read-only 4x4 density of the single-photon pair (|00> + |11>)/sqrt(2)."""
    phi = _phi_plus().ravel()  # outer(amp, amp).ravel() is kron(amp, amp), entry for entry
    rho = np.outer(phi, phi)
    rho.setflags(write=False)
    return rho


@dataclass(frozen=True, eq=False)
class SourceModel:
    """Mixture of photon-number branches feeding the two apparatuses."""

    branches: tuple[SourceBranch, ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("source needs at least one branch")
        total = sum(b.weight for b in self.branches)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"branch weights must sum to 1, got {float(total)!r}")

    @classmethod
    def ideal_pair(cls) -> "SourceModel":
        """Perfectly correlated single-photon pair: no errors, no double clicks."""
        return cls((SourceBranch(1.0, 1, 1, _phi_plus_density()),))

    @classmethod
    def werner(cls, visibility: float) -> "SourceModel":
        """Entangled pair mixed with white noise: error rate (1-v)/2, no double clicks."""
        if not 0.0 <= visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {float(visibility)!r}")
        rho = visibility * _phi_plus_density() + (1.0 - visibility) * np.eye(4) / 4.0
        return cls((SourceBranch(1.0, 1, 1, rho),))

    @classmethod
    def eve_attack(cls, chi: np.ndarray, xi: float) -> "SourceModel":
        """Ideal pairs diluted with the explicit attack in a fraction xi of events."""
        if not 0.0 <= xi <= 1.0:
            raise ValueError(f"multiphoton fraction must be in [0, 1], got {float(xi)!r}")
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


def _check_seed(seed: int, name: str = "seed") -> None:
    # the gate checks the type only: the Philox key is 128 bits, a range with its own message
    _check_count(seed, name, -math.inf)
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"{name} must be in [0, 2**128), got {seed}")


def event_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Raw Philox words for events [start, start+count): uint64, shape (count, 4).

    Word w stands for the uniform draw u = (w >> 11) * 2**-53 in [0, 1), bit
    for bit the double ``Generator.random`` makes of it.  Counter-based: one
    Philox counter block yields exactly the four words of one event, so any
    chunking of the event range reproduces the same per-event draws.  The
    counter is 256 bits wide, so the events end at 2**256.
    """
    _check_seed(seed)
    _check_count(start, "start", 0)
    _check_count(count, "count", 0)
    start, count = int(start), int(count)
    # the counter holds [0, 2**256); past its end it would wrap round and replay event 0 on
    if start >= 1 << 256 or start + count > 1 << 256:
        raise ValueError(
            "start must be < 2**256 and start + count <= 2**256, "
            f"got start {start} and count {count}"
        )
    # an int, which numpy carries exactly across the counter's four 64-bit words; a list
    # of Python ints would become float64 from 2**63 on
    bitgen = np.random.Philox(key=seed, counter=start)
    return bitgen.random_raw(count * _DRAWS_PER_EVENT).reshape(count, _DRAWS_PER_EVENT)


def _high_uint16(words: np.ndarray) -> np.ndarray:
    """The high 16 bits of each word of (count, 4) uint64 words, as a uint16 view."""
    return words.view(np.uint16)[:, _HIGH_UINT16::4]


@dataclass(frozen=True)
class _Kernel:
    """Every (branch, basis pair) outcome distribution of a source in one table.

    Group g = 4 * branch + 2 * [Alice measures X] + [Bob measures X]; slot
    g * width + s stands for outcome s of group g, whose Born probability is
    ``probs[g, s]`` (zero-padded past the group's outcomes).  Row i of
    ``indicators`` marks the slots counted by tally i, in the order n, dbl, err, cor,
    mismatch, undetected.  Row g of ``word_cut`` holds the group's cumulative probabilities c
    but the last as ceil(c * 2**53), padded with 2**54, and ``slots`` is their `_slot_table`.
    The branch draw is one group whose outcomes are the branches: ``branch_word_cut`` and
    ``branch_slots`` hold the cumulative weights but the last the same way.
    """

    probs: np.ndarray
    indicators: np.ndarray
    slots: np.ndarray
    word_cut: np.ndarray
    branch_slots: np.ndarray
    branch_word_cut: np.ndarray


def _slot_table(cuts: np.ndarray) -> np.ndarray:
    """Slot of each bucket of each row of sorted ``cuts``, or -1 where a cut point splits it.

    Row r of width cut points has width + 1 outcomes; slot r * (width + 1) + s
    stands for its outcome s, drawn by every u in bucket [k, k + 1) / 2**12
    (the draws whose word has top 12 bits k) that no cut point splits.
    """
    rows, width = cuts.shape
    scaled = cuts * _GUIDE_SIZE  # exact: a power-of-two scale
    # c <= k / 2**12 exactly when ceil(c * 2**12) <= k, so a row's outcome steps up by one at
    # bucket ceil(c * 2**12) of each cut (cuts at or past 1, the 2.0 padding among them,
    # never), and slot r * (width + 1) + j fills the run of buckets from step j to step j + 1
    steps = np.minimum(np.ceil(scaled), _GUIDE_SIZE).astype(np.intp)
    runs = np.diff(steps, axis=1, prepend=0, append=_GUIDE_SIZE)
    # the smallest signed type that holds every slot and -1
    slots = np.arange(rows * (width + 1), dtype=np.min_scalar_type(-rows * (width + 1)))
    slots = np.repeat(slots, runs.ravel()).reshape(rows, _GUIDE_SIZE)
    inside = (scaled < _GUIDE_SIZE) & (scaled != np.floor(scaled))
    slots[np.nonzero(inside)[0], scaled[inside].astype(np.intp)] = -1
    return slots


def _search(slots, word_cut, key, words, out=None) -> np.ndarray:
    """Slot drawn by each of ``words`` at its ``key`` = group * 2**12 + bucket.

    One gather from the `_slot_table` ``slots``; only the draws in a split bucket go on to
    count the cut points c of their group's row of ``word_cut``, ceil(c * 2**53), that are
    <= w >> 11, which holds exactly when c <= u.
    """
    out = slots.take(key, out=out)
    split = np.flatnonzero(out < 0)
    if split.size:
        group, draw = key[split] >> _GUIDE_BITS, words[split] >> 11
        count = np.sum(word_cut[group] <= draw[:, None], axis=1)
        out[split] = (word_cut.shape[1] + 1) * group + count
    return out


def _branch_tables(rho: np.ndarray, n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Born probabilities (4, cells) and tally indicator rows (6, 4, cells) of one branch.

    Rows (basis pairs) and cells (outcome pairs) are those of `povm._outcome_krons`, and
    the indicator rows are the outcome-role masks `povm._tally_rows`; rho plays no part in them.
    """
    # One stacked pass: the matmul is one gemm per cell and the trace sums each cell's own
    # diagonal, so every cell equals the per-cell float(np.trace(rho @ kron(pa, pb))) bit for
    # bit, as the tests check for every photon-number pair under the caps.  (A single einsum
    # orders the sums differently and moves some cells by an ulp.)
    probs = np.trace(rho @ _outcome_krons(n_a, n_b), axis1=-2, axis2=-1)
    total = probs.sum(axis=1)
    # Each row sums to tr(rho sum_ab P_a (x) P_b) = tr(rho), held within 1e-10 of 1 by
    # SourceBranch.  Each of the <= 9 cell traces rounds by at most gamma_128 sum_ij |rho_ij|
    # <= 128 * 2**-53 * 64 < 1e-12 (d <= 64, and a PSD unit-trace rho has sum_ij |rho_ij| <= d),
    # and the projectors sum to the identity within a few ulps per entry, so
    # |total - 1| < 1.1e-10 < 1e-9.  The sum is taken before the floor below, which raises it
    # by up to 1e-12 per cell and by the size of each negative cell that the branch's
    # eigenvalue tolerance admits.
    bad = np.flatnonzero(np.abs(total - 1.0) > 1e-9)
    if bad.size:
        raise ValueError(f"outcome probabilities sum to {float(total[bad[0]])!r}")
    probs = np.where(probs > _PROB_FLOOR, probs, 0.0)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, _tally_rows(n_a, n_b)


def _build_kernel(source: SourceModel) -> _Kernel:
    tables = [_branch_tables(b.rho, b.n_a, b.n_b) for b in source.branches]
    width = max(probs.shape[1] for probs, _ in tables)
    groups = 4 * len(tables)
    table = np.zeros((groups, width))
    cut = np.full((groups, width - 1), 2.0)
    indicators = np.zeros((6, groups, width), dtype=np.int64)
    for g, (probs, rows) in zip(range(0, groups, 4), tables):
        size = probs.shape[1]
        table[g : g + 4, :size] = probs
        cut[g : g + 4, : size - 1] = np.cumsum(probs, axis=1)[:, :-1]
        indicators[:, g : g + 4, :size] = rows
    fields = [table, indicators.reshape(6, -1)]
    for cuts in cut, np.cumsum([b.weight for b in source.branches])[None, :-1]:
        # exact: a power-of-two scale of values <= 2, and integers <= 2**54 convert exactly
        fields += [_slot_table(cuts), np.ceil(cuts * _WORD_SCALE).astype(np.uint64)]
    return _Kernel(*fields)


def run_protocol(source: SourceModel, num_events: int, seed: int) -> SiftedTally:
    """Simulate ``num_events`` rounds and tally the same-basis detected events.

    Each event's branch and bases pick its group and its outcome draw picks a
    slot of the source's flat kernel table; one bincount per chunk counts the
    slots, and the tallies are the slot counts summed over their indicators.
    The kernel reads the raw words of ``event_uniforms`` and never forms the
    draws u = (w >> 11) * 2**-53: a basis is X when its word's top bit is set
    (u >= 1/2), and `_search` finds the slot at the key group * 2**12 +
    floor(2**12 * u), built from the words' high 16 bits, which one strided
    pass copies to four rows: uint16 up to four branches (2**16 entries),
    int32 beyond.  The branch comes from the same search, over one group
    whose outcomes are the branches, and only for mixtures.  Events run in
    chunks of _CHUNK_EVENTS = 2**15, through buffers made once per call.
    """
    _check_count(num_events, "num_events", 1)
    kernel = source._kernel
    key_type = np.uint16 if kernel.slots.size <= 1 << 16 else np.int32
    size = min(num_events, _CHUNK_EVENTS)
    high, key = np.empty((4, size), np.uint16), np.empty(size, key_type)
    slot = np.empty(size, kernel.slots.dtype)
    totals = np.zeros(kernel.indicators.shape[1], dtype=np.int64)
    for start in range(0, num_events, _CHUNK_EVENTS):
        words = event_uniforms(seed, start, min(_CHUNK_EVENTS, num_events - start))
        h, k, s = high[:, : len(words)], key[: len(words)], slot[: len(words)]
        np.copyto(h, _high_uint16(words).T)  # one strided pass; the rest run on rows
        np.right_shift(h[3], _BUCKET_SHIFT, out=k)
        # Alice's and Bob's top bits are the group's bits 1 and 0, the key's bits 13 and 12
        for column, bit in (0, _GUIDE_BITS + 1), (1, _GUIDE_BITS):
            np.right_shift(h[column], 15 - bit, out=h[column])
            np.bitwise_and(h[column], 1 << bit, out=h[column])
            np.bitwise_or(k, h[column], out=k)
        if kernel.branch_word_cut.size:
            np.right_shift(h[2], _BUCKET_SHIFT, out=h[2])
            branch = _search(kernel.branch_slots, kernel.branch_word_cut, h[2], words[:, 2])
            # the group offsets fit the key: below 2**16 when it is uint16
            k |= branch.astype(key_type) << _BRANCH_SHIFT
        _search(kernel.slots, kernel.word_cut, k, words[:, 3], s)
        totals += np.bincount(s, minlength=len(totals))
    n, dbl, err, cor, mismatch, undetected = (int(c) for c in kernel.indicators @ totals)
    return SiftedTally(n, dbl, err, cor, num_events, mismatch, undetected)


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
    for g, probs in enumerate(kernel.probs):
        scale = 0.5 * source.branches[g // 4].weight
        detect_mass += scale * float(probs[n_row[g]].sum())
        dbl_mass += scale * float(probs[dbl_row[g]].sum())
        err_mass += scale * float(probs[err_row[g]].sum())
    if detect_mass <= 0.0:
        raise ValueError("source never produces a same-basis detected event")
    return dbl_mass / detect_mass, err_mass / detect_mass


@dataclass(frozen=True)
class SimulationReport:
    """Sampled and analytic key-rate figures for one simulated run.

    ``region``, ``r_key`` and ``r_key_analytic`` are the `simulate` columns
    of those names; a key fraction is None where none is certified.  The
    event count, sampled fractions, their standard errors and the key-rate
    gap are read from the tally and the two rates; none is stored twice.
    """

    seed: int
    f_ec: float
    tally: SiftedTally
    region: str
    r_key: float | None
    analytic_delta: float
    analytic_eps: float
    r_key_analytic: float | None
    conjectured_rate_sampled: float | None

    num_events = property(attrgetter("tally.n_events"))
    delta_hat = property(attrgetter("tally.delta_hat"))
    eps_hat = property(attrgetter("tally.eps_hat"))
    delta_se = property(attrgetter("tally.delta_se"))
    eps_se = property(attrgetter("tally.eps_se"))

    @property
    def r_key_gap(self) -> float | None:
        """Sampled minus analytic key fraction, or None unless both are certified."""
        if self.r_key is None or self.r_key_analytic is None:
            return None
        return self.r_key - self.r_key_analytic


def end_to_end(
    source: SourceModel, num_events: int, f: float = 1.0, seed: int = 0
) -> SimulationReport:
    """Run the protocol, apply the rate formulas to the sampled fractions.

    The report pairs the sampled key fraction with the analytic one from the
    source's exact fractions; infeasible sampled statistics are reported as
    such rather than raising.  The conjectured random-assignment rate of the
    sampled fractions is carried in its own labeled field, never merged with
    proved rates; like every rate of the report it is the `rates.rate_table`
    cell of its row, None where that row certifies no key fraction.  The
    sampled and the analytic fractions are rated in one call, one row each.
    """
    rates._check_f(f)
    tally = run_protocol(source, num_events, seed)
    a_delta, a_eps = analytic_fractions(source)
    (region, r_key, conjectured), (_, r_key_analytic, _) = rates._key_rate_rows(
        [tally.delta_hat, a_delta], [tally.eps_hat, a_eps], f
    )
    return SimulationReport(
        seed=seed,
        f_ec=f,
        tally=tally,
        region=region,
        r_key=r_key,
        analytic_delta=a_delta,
        analytic_eps=a_eps,
        r_key_analytic=r_key_analytic,
        conjectured_rate_sampled=conjectured,
    )
