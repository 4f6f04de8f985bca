import gc
import weakref
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbm92kit import (
    DIM_CAP,
    MAX_PHOTONS,
    Basis,
    Bit,
    Outcome,
    SiftedTally,
    SourceModel,
    attack_density,
    basis_state,
    boundary_state,
    end_to_end,
    event_uniforms,
    key_rate,
    ObservedStats,
    outcome_projectors,
    rates,
    run_attack,
    run_protocol,
    selfcheck,
    sim,
)


def make_attack_source(xi=0.5):
    chi = boundary_state(1.0, 0.0)
    return SourceModel.eve_attack(chi, xi), run_attack(chi)


def _random_density(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim))
    rho = m @ m.T
    return rho / np.trace(rho)


def _random_mixture(seed: int) -> SourceModel:
    """Vacuum blocks (0,1), (1,0), (0,0) and random blocks of up to three photons a side."""
    rng = np.random.default_rng(seed)
    pairs = [(0, 1), (1, 0), (0, 0), (3, 3)]
    pairs += [tuple(int(n) for n in rng.integers(1, 4, size=2)) for _ in range(4)]
    weights = rng.dirichlet(np.ones(len(pairs)))
    return SourceModel.custom(
        [
            (w, n_a, n_b, _random_density(rng, (n_a + 1) * (n_b + 1)))
            for w, (n_a, n_b) in zip(weights, pairs)
        ]
    )


class _RefGroup(NamedTuple):
    codes_a: np.ndarray
    codes_b: np.ndarray
    probs: np.ndarray
    cum: np.ndarray


_BIT_CODES = (Outcome.BIT0.value, Outcome.BIT1.value, Outcome.DOUBLE.value)


_BUCKET = 2**-12  # width of one guide bucket


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniform draws (w >> 11) * 2**-53 that raw Philox words stand for."""
    return (words >> 11) * 2.0**-53


def _reference_tables(source: SourceModel) -> tuple[np.ndarray, list[_RefGroup]]:
    """Branch CDF and per-(branch, basis pair) outcome tables, built from the projectors.

    Group g = 4 * branch + 2 * [Alice measures X] + [Bob measures X].  Each cell
    is tr(rho (P_a x P_b)), zeroed at or below 1e-12 and normalised, the same
    arithmetic the kernel must do, but by its own code.
    """

    def party(n, basis):
        if n == 0:
            return [(np.eye(1), Outcome.NO_DETECTION.value)]
        return list(zip(outcome_projectors(n, basis), _BIT_CODES))

    groups = []
    for branch in source.branches:
        for basis_a in (Basis.Z, Basis.X):
            for basis_b in (Basis.Z, Basis.X):
                cells = [
                    (float(np.trace(branch.rho @ np.kron(pa, pb))), a, b)
                    for pa, a in party(branch.n_a, basis_a)
                    for pb, b in party(branch.n_b, basis_b)
                ]
                probs = np.array([p if p > 1e-12 else 0.0 for p, _, _ in cells])
                probs /= probs.sum()
                codes_a = np.array([a for _, a, _ in cells])
                codes_b = np.array([b for _, _, b in cells])
                groups.append(_RefGroup(codes_a, codes_b, probs, np.cumsum(probs)))
    return np.cumsum([b.weight for b in source.branches]), groups


def _reference_cells(
    u: np.ndarray, branch_cum: np.ndarray, groups: list[_RefGroup]
) -> tuple[np.ndarray, np.ndarray]:
    """Each event's group and outcome cell, by the per-group mask loop run_protocol replaced.

    Alice and Bob measure X when u_0, u_1 >= 1/2; the branch is the first entry
    of ``branch_cum`` above u_2 and the cell the first of its group's ``cum``
    above u_3, each capped at the last.
    """
    branch = np.minimum(np.searchsorted(branch_cum, u[:, 2], side="right"), len(branch_cum) - 1)
    group = 4 * branch + 2 * (u[:, 0] >= 0.5) + (u[:, 1] >= 0.5)
    cell = np.zeros(len(u), dtype=np.intp)
    for g, table in enumerate(groups):
        mask = group == g
        cell[mask] = np.minimum(
            np.searchsorted(table.cum, u[mask, 3], side="right"), len(table.cum) - 1
        )
    return group, cell


def _reference_run_protocol(
    source: SourceModel, num_events: int, seed: int, chunk: int = 1 << 20
) -> SiftedTally:
    """The per-(branch, basis pair) mask loop run_protocol replaced, kept as its reference."""
    if num_events < 1:
        raise ValueError(f"num_events must be >= 1, got {num_events}")
    branch_cum, groups = _reference_tables(source)
    counts = {"n": 0, "dbl": 0, "err": 0, "cor": 0, "mismatch": 0, "undetected": 0}
    for start in range(0, num_events, chunk):
        count = min(chunk, num_events - start)
        group, cell = _reference_cells(
            _uniforms(event_uniforms(seed, start, count)), branch_cum, groups
        )
        out_a = np.empty(count, dtype=np.int8)
        out_b = np.empty(count, dtype=np.int8)
        for g, table in enumerate(groups):
            mask = group == g
            out_a[mask] = table.codes_a[cell[mask]]
            out_b[mask] = table.codes_b[cell[mask]]
        same = (group >> 1) % 2 == group % 2
        detected = (out_a != Outcome.NO_DETECTION.value) & (
            out_b != Outcome.NO_DETECTION.value
        )
        reg = same & detected
        dbl = reg & ((out_a == Outcome.DOUBLE.value) | (out_b == Outcome.DOUBLE.value))
        err = reg & ~dbl & (out_a != out_b)
        counts["n"] += int(reg.sum())
        counts["dbl"] += int(dbl.sum())
        counts["err"] += int(err.sum())
        counts["cor"] += int((reg & ~dbl & (out_a == out_b)).sum())
        counts["mismatch"] += int((~same).sum())
        counts["undetected"] += int((~detected).sum())
    return SiftedTally(
        n=counts["n"],
        n_dbl=counts["dbl"],
        n_err=counts["err"],
        n_cor=counts["cor"],
        n_events=num_events,
        n_mismatched=counts["mismatch"],
        n_undetected=counts["undetected"],
    )


class TestRandomnessContract:
    def test_chunking_reproduces_serial_stream(self):
        full = event_uniforms(42, 0, 64)
        assert full.dtype == np.uint64 and full.shape == (64, 4)
        assert np.array_equal(full[5:13], event_uniforms(42, 5, 8))
        assert np.array_equal(full[63:], event_uniforms(42, 63, 1))
        assert event_uniforms(42, 7, 0).shape == (0, 4)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(event_uniforms(1, 0, 4), event_uniforms(2, 0, 4))

    @pytest.mark.parametrize("seed", [np.uint64(7), np.int32(7)])
    def test_numpy_integer_seed_is_its_value(self, seed):
        assert np.array_equal(event_uniforms(seed, 0, 4), event_uniforms(7, 0, 4))

    @pytest.mark.parametrize("seed, start", [(0, 0), (42, 5), (7, 2**40)])
    def test_words_map_to_generator_uniforms(self, seed, start):
        # (w >> 11) * 2**-53 is the double Generator.random makes of each word
        bitgen = np.random.Philox(key=seed, counter=[start, 0, 0, 0])
        want = np.random.Generator(bitgen).random((1000, 4))
        assert np.array_equal(_uniforms(event_uniforms(seed, start, 1000)), want)

    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "past-128-bits"])
    def test_rejects_seed_outside_the_key_range(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*128\), got {seed}$"):
            event_uniforms(seed, 0, 1)
        with pytest.raises(ValueError, match="^seed must be in"):
            run_protocol(SourceModel.ideal_pair(), 10, seed=seed)
        assert event_uniforms(2**128 - 1, 0, 1).shape == (1, 4)

    @pytest.mark.parametrize("start", [2**63, 2**64 - 1, 2**128 - 1, 2**255])
    def test_counter_carries_across_its_words(self, start):
        # start is the exact integer counter: the event after it is start + 1, with no
        # replay at 2**63 (where a float64 counter stopped) and a carry into the next word
        assert np.array_equal(event_uniforms(9, start, 2)[1:], event_uniforms(9, start + 1, 1))
        assert not np.array_equal(event_uniforms(9, start, 1), event_uniforms(9, start + 1, 1))

    def test_last_counter_is_an_event(self):
        assert event_uniforms(9, 2**256 - 1, 1).shape == (1, 4)
        assert event_uniforms(9, 2**256 - 1, 0).shape == (0, 4)

    def test_high_uint16_is_top_16_bits(self):
        words = event_uniforms(5, 0, 1 << 16)
        assert np.array_equal(sim._high_uint16(words), words >> 48)


def _run_chunked(source: SourceModel, num_events: int, seed: int, chunk: int) -> SiftedTally:
    """run_protocol with its chunk size set to ``chunk`` events."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_CHUNK_EVENTS", chunk)
        return run_protocol(source, num_events, seed)


class TestRunProtocol:
    def test_sift_never_keeps_bad_events(self):
        # every kernel slot feeding the correct or error tally is a same-basis
        # outcome where both parties report a bit
        source = _random_mixture(11)
        kernel = source._kernel
        _, groups = _reference_tables(source)
        width = kernel.probs.shape[1]
        n_row, _, err_row, cor_row = kernel.indicators[:4]
        bits = (Outcome.BIT0.value, Outcome.BIT1.value)
        checked = 0
        for g, table in enumerate(groups):
            wa, wb = (g >> 1) % 2, g % 2
            for s, (a, b) in enumerate(zip(table.codes_a, table.codes_b)):
                slot = g * width + s
                if err_row[slot] or cor_row[slot]:
                    assert wa == wb and a in bits and b in bits
                    assert n_row[slot] == 1
                    checked += 1
                if Outcome.DOUBLE.value in (a, b) or Outcome.NO_DETECTION.value in (a, b):
                    assert not err_row[slot] and not cor_row[slot]
            # padding slots of narrower groups are never counted
            assert not kernel.indicators[:, g * width + len(table.cum) : (g + 1) * width].any()
        assert checked > 0


def _random_custom_source(seed: int, n_a: int, n_b: int) -> SourceModel:
    rng = np.random.default_rng(seed)
    return SourceModel.custom([(1.0, n_a, n_b, _random_density(rng, (n_a + 1) * (n_b + 1)))])


REFERENCE_SOURCES = {
    "ideal": SourceModel.ideal_pair,
    "werner": lambda: SourceModel.werner(0.9),
    "attack": lambda: make_attack_source(0.5)[0],
    "mixture0": lambda: _random_mixture(0),
    "mixture1": lambda: _random_mixture(1),
}
# one seeded random density for every photon-number pair under the caps, vacuum sides included
TABLE_SOURCES = REFERENCE_SOURCES | {
    f"pair-{n_a}-{n_b}": partial(_random_custom_source, 64 * n_a + n_b, n_a, n_b)
    for n_a in range(MAX_PHOTONS + 1)
    for n_b in range(min(DIM_CAP // (n_a + 1), MAX_PHOTONS + 1))
}


def _reference_guide(cuts: np.ndarray) -> np.ndarray:
    """Count of the sorted ``cuts`` <= each bucket's left edge, -1 where one lies inside it."""
    edges = np.arange(2**12) * _BUCKET
    at_left = np.searchsorted(cuts, edges, side="right")
    below_right = np.searchsorted(cuts, edges + _BUCKET, side="left")
    return np.where(below_right > at_left, -1, at_left)


def _word_cut(cuts: np.ndarray) -> np.ndarray:
    """Cut points c as the integers ceil(c * 2**53) that w >> 11 reaches exactly when c <= u."""
    return np.ceil(cuts * 2.0**53).astype(np.uint64)


def _reference_indicators(table: _RefGroup, same: bool) -> np.ndarray:
    """Tally rows n, dbl, err, cor, mismatch, undetected of one group's cells, from their codes."""
    a, b = table.codes_a, table.codes_b
    detected = (a != Outcome.NO_DETECTION.value) & (b != Outcome.NO_DETECTION.value)
    dbl = detected & ((a == Outcome.DOUBLE.value) | (b == Outcome.DOUBLE.value))
    kept = detected & same
    cor, err = kept & ~dbl & (a == b), kept & ~dbl & (a != b)
    return np.array([kept, kept & dbl, err, cor, np.full(a.shape, not same), ~detected])


class TestKernelMatchesReference:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("name", list(REFERENCE_SOURCES))
    def test_tallies_equal_reference_loop(self, name, seed):
        source = REFERENCE_SOURCES[name]()
        for num_events, chunks in ((300, [1]), (3000, [7]), (20000, [4096, 20000])):
            for chunk in chunks:
                assert _run_chunked(source, num_events, seed, chunk) == (
                    _reference_run_protocol(source, num_events, seed, chunk)
                )
        assert run_protocol(source, 20000, seed) == _reference_run_protocol(source, 20000, seed)

    @pytest.mark.parametrize("name", list(TABLE_SOURCES))
    def test_tables_equal_reference(self, name):
        # the kernel's Born probabilities, cut points, indicators and slot tables are
        # the per-cell reference's to the bit, so a change of table arithmetic is
        # named here before any golden digest moves
        source = TABLE_SOURCES[name]()
        kernel = source._kernel
        branch_cum, groups = _reference_tables(source)
        assert np.array_equal(kernel.branch_word_cut, _word_cut(branch_cum[None, :-1]))
        assert np.array_equal(kernel.branch_slots, _reference_guide(branch_cum[:-1])[None])
        width = max(len(table.probs) for table in groups)
        assert kernel.probs.shape == (len(groups), width)
        assert kernel.word_cut.shape == (len(groups), width - 1)
        assert kernel.slots.shape == (len(groups), 2**12)
        indicators = kernel.indicators.reshape(6, len(groups), width)
        # the per-pair tally rows are cached, read-only, and those a fresh build gives
        for b in source.branches:
            rows = sim._tally_rows(b.n_a, b.n_b)
            assert not rows.flags.writeable
            assert np.array_equal(rows, sim._tally_rows.__wrapped__(b.n_a, b.n_b))
        for g, table in enumerate(groups):
            size = len(table.probs)
            assert np.array_equal(kernel.probs[g, :size], table.probs)
            assert not kernel.probs[g, size:].any()
            assert np.array_equal(kernel.word_cut[g, : size - 1], _word_cut(table.cum[:-1]))
            assert np.all(kernel.word_cut[g, size - 1 :] == 2**54)
            same = g % 4 in (0, 3)
            assert np.array_equal(indicators[:, g, :size], _reference_indicators(table, same))
            assert not indicators[:, g, size:].any()
            guide = _reference_guide(table.cum[:-1])
            assert np.array_equal(kernel.slots[g], np.where(guide < 0, -1, g * width + guide))


@st.composite
def small_sources(draw):
    """Mixtures of one to three blocks of up to two photons a side, vacuum included."""
    count = draw(st.integers(1, 3))
    pairs = [(draw(st.integers(0, 2)), draw(st.integers(0, 2))) for _ in range(count)]
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(count)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = sum(raw)
    return SourceModel.custom(
        [
            (w / total, n_a, n_b, _random_density(rng, (n_a + 1) * (n_b + 1)))
            for w, (n_a, n_b) in zip(raw, pairs)
        ]
    )


@settings(max_examples=40)
@given(small_sources(), st.integers(1, 600), st.integers(0, 2**32 - 1), st.integers(1, 700))
def test_chunked_run_equals_single_pass_for_any_chunk(source, num_events, seed, chunk):
    assert _run_chunked(source, num_events, seed, chunk) == run_protocol(source, num_events, seed)


def test_guide_marks_split_buckets():
    # cut points on an edge leave their buckets whole; one or several strictly
    # inside a bucket mark it; the 2.0 padding and a cut at 1 mark nothing.
    # Row 1 is all padding; row 2 is a branch draw's cuts 0.3 and 0.6, padded.
    cuts = np.array(
        [
            [2**-20, 2**-19, 0.25, 0.25 + 2**-20, 0.5, 1.0, 2.0],
            [2.0] * 7,
            [0.3, 0.6] + [2.0] * 5,
        ]
    )
    slots = sim._slot_table(cuts)
    # row r's slots are r * 8 + its outcome, for 7 cut points and 8 outcomes
    guide = np.where(slots < 0, -1, slots - 8 * np.arange(3)[:, None])
    assert guide.shape == (3, 2**12)
    assert guide[0, 0] == -1
    assert guide[0, 1] == 2
    assert guide[0, 1023] == 2 and guide[0, 1024] == -1 and guide[0, 1025] == 4
    assert guide[0, 2048] == 5 and guide[0, -1] == 5
    assert np.count_nonzero(guide[0] < 0) == 2
    assert not guide[1].any()
    split = [int(0.3 * 2**12), int(0.6 * 2**12)]
    assert np.array_equal(np.flatnonzero(guide[2] < 0), split)
    assert guide[2, split[0] - 1] == 0 and guide[2, split[0] + 1] == 1 and guide[2, -1] == 2
    for row, want in zip(cuts, guide):
        assert np.array_equal(_reference_guide(row), want)


def _edge_probabilities(numerators: list[float]) -> np.ndarray:
    """Probabilities numerator * 2**-20, the last taking what the others leave."""
    p = np.array(numerators, dtype=float) * 2.0**-20
    return np.append(p, 1.0 - p.sum())


_edge_numerators = st.one_of(
    st.integers(1, 64).map(lambda k: 256 * k),  # on a bucket edge
    st.integers(1, 255),  # inside bucket 0, where several cut points pile up
    st.integers(1, 2**14),  # anywhere in the first 2**6 buckets
    st.floats(1.0, 2.0**14),  # there too, off the 2**-53 grid of the draws
)


@st.composite
def edge_sources(draw):
    """Mixtures of diagonal single-photon pairs and dense blocks, cut points at bucket edges.

    A diagonal density with entries k * 2**-20 puts the Z/Z cut points, and
    the weights put the branch cut points, on bucket edges, strictly inside
    buckets, several in one bucket, or between two neighbouring draws (k not
    an integer); the dense blocks add cut points anywhere.
    """
    count = draw(st.integers(1, 3))
    weights = _edge_probabilities([draw(_edge_numerators) for _ in range(count - 1)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for w in weights:
        if draw(st.booleans()):
            diag = _edge_probabilities([draw(_edge_numerators) for _ in range(3)])
            blocks.append((w, 1, 1, np.diag(rng.permutation(diag))))
        else:
            n_a, n_b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
            blocks.append((w, n_a, n_b, _random_density(rng, (n_a + 1) * (n_b + 1))))
    return SourceModel.custom(blocks)


def _assert_kernel_law(source: SourceModel) -> None:
    """The source's outcome and branch draws follow criterion 8's exact law, draw for draw."""
    off, spot, dev = selfcheck._kernel_law([source], np.random.default_rng(5))
    assert (off, spot) == (0, 0) and dev <= selfcheck._LAW_BOUND


@settings(max_examples=60, deadline=None)
@given(edge_sources(), st.integers(1, 400), st.integers(0, 2**31), st.integers(1, 450))
def test_guide_lookup_matches_reference(source, num_events, seed, chunk):
    assert _run_chunked(source, num_events, seed, chunk) == _reference_run_protocol(
        source, num_events, seed, chunk
    )
    _assert_kernel_law(source)


@pytest.mark.parametrize("name", list(REFERENCE_SOURCES))
def test_kernel_law(name):
    # with test_tallies_equal_reference_loop, this ties the reference loop to the Born rule
    _assert_kernel_law(REFERENCE_SOURCES[name]())


class TestCustomSources:
    @pytest.mark.parametrize("big", range(16))
    def test_negative_cells_within_tolerance_build(self, big):
        # Eigenvalues of -0.95e-10 pass SourceBranch; flooring the negative Born
        # cells they leave raises the cells' sum by up to 1.4e-9.
        d = np.full(16, -0.95e-10)
        d[big] = 1.0 + 15 * 0.95e-10
        source = SourceModel.custom([(1.0, 3, 3, np.diag(d))])
        probs = source._kernel.probs
        assert np.all(probs >= 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        assert run_protocol(source, 1000, seed=1).n_events == 1000

    def test_phi_plus_density_equals_the_kron_construction(self):
        # the one cached, read-only density is the kron-and-outer construction bit for bit
        phi = np.zeros(4)
        for bit in (Bit.ZERO, Bit.ONE):
            amp = basis_state(1, Basis.Z, bit)
            phi += np.kron(amp, amp)
        phi /= np.sqrt(2.0)
        rho = sim._phi_plus_density()
        assert rho is sim._phi_plus_density() and not rho.flags.writeable
        assert np.array_equal(rho, np.outer(phi, phi))
        assert np.array_equal(SourceModel.ideal_pair().branches[0].rho, rho)
        for v in np.linspace(0.0, 1.0, 101):
            want = v * np.outer(phi, phi) + (1.0 - v) * np.eye(4) / 4.0
            assert np.array_equal(SourceModel.werner(v).branches[0].rho, 0.5 * (want + want.T))


class TestEndToEnd:
    def test_key_rate_errors_propagate(self, monkeypatch):
        def broken(delta, eps, f):
            raise ValueError("programming error")

        monkeypatch.setattr(rates, "_key_rate_rows", broken)
        with pytest.raises(ValueError, match="programming error"):
            end_to_end(SourceModel.werner(0.95), 2000, seed=1)

    def test_conjectured_rate_is_none_outside_its_domain(self):
        # no rate of a row is given where none is certified: past the
        # observed-fraction domain (delta = 1 when every sifted event
        # double-clicks) and outside regions (a)-(c), where
        # eps + delta/2 = 0.455 is still inside the formula's own domain
        for delta, eps in [(1.0, 0.0), (0.45, 0.23)]:
            assert rates._key_rate_rows([delta], [eps], 1.0) == [("infeasible", None, None)]

    def test_conjectured_rate_errors_propagate(self, monkeypatch):
        def broken(d, e):
            raise ValueError("programming error")

        monkeypatch.setattr(rates, "_conjectured_rate", broken)
        with pytest.raises(ValueError, match="programming error"):
            end_to_end(SourceModel.werner(0.95), 2000, seed=1)


def _vacuum_mixture() -> SourceModel:
    """Noisy pairs, attack blocks and vacuum: fractions in region (c)."""
    noisy, vacuum = SourceModel.werner(0.85).branches[0].rho, np.eye(2) / 2.0
    attack = attack_density(boundary_state(0.6, 0.8))
    return SourceModel.custom([(0.6, 1, 1, noisy), (0.3, 1, 2, attack), (0.1, 0, 1, vacuum)])


def _pair_or_bob_alone() -> SourceModel:
    """Phi+ pairs, and three times in ten a photon for Bob alone, none for Alice."""
    rho = SourceModel.ideal_pair().branches[0].rho
    return SourceModel.custom([(0.7, 1, 1, rho), (0.3, 0, 1, np.eye(2) / 2.0)])


def _all_double_click() -> SourceModel:
    """Alice double-clicks in Z and Bob in X, so every sifted event is discarded."""
    z, x = (np.linalg.eigh(outcome_projectors(2, b)[2])[1][:, -1] for b in (Basis.Z, Basis.X))
    psi = np.kron(z, x)
    return SourceModel.custom([(1.0, 2, 2, np.outer(psi, psi))])


def _table_rows(report) -> list:
    """rate_table's region, R and conjectured rate, None for NaN, of the report's sampled and
    then its analytic fractions; None for fractions outside the observed-fraction domain."""
    rows = []
    for d, e in (report.delta_hat, report.eps_hat), (report.analytic_delta, report.analytic_eps):
        if rates.in_stats_domain(d, e):
            table = rates.rate_table([d], [e], report.f_ec)
            cells = table.r_key[0], table.r_conjectured_random_assignment[0]
            rows.append([table.region[0], *(None if np.isnan(x) else x for x in cells)])
        else:
            rows.append(None)
    return rows


def _in_region(region, report) -> list[bool]:
    """Whether the report's sampled and analytic fractions are observed fractions in region."""
    return [row is not None and row[0] == region for row in _table_rows(report)]


# One row per simulated run: a source factory, the event count, the seed, f, and the
# conditions on the SimulationReport that end_to_end returns, all of which must hold.
SIMULATED_RUNS = {
    "deterministic-given-seed": (
        lambda: SourceModel.werner(0.8), 50000, 6, 1.0,
        lambda r: [r.tally != run_protocol(SourceModel.werner(0.8), 50000, seed=7)],
    ),
    "werner-error-rate": (
        lambda: SourceModel.werner(0.9), 10**6, 8, 1.0,
        lambda r: [r.tally.n_dbl == 0, abs(r.eps_hat - 0.05) <= 4.0 * r.eps_se],
    ),
    "basis-mismatch-fraction": (
        SourceModel.ideal_pair, 10**5, 13, 1.0,
        lambda r, n=10**5: [abs(r.tally.n_mismatched / n - 0.5) <= 5.0 * np.sqrt(0.25 / n)],
    ),
    "fully-depolarized-agreement-is-half": (
        lambda: SourceModel.werner(0.0), 20000, 4, 1.0,
        lambda r: [r.tally.n_dbl == 0, abs(r.eps_hat - 0.5) <= 5 * 0.5 / np.sqrt(r.tally.n)],
    ),
    # one branch never delivers a photon to Alice
    "vacuum-component-is-excluded-from-tally": (
        _pair_or_bob_alone, 50000, 14, 1.0,
        lambda r: [
            r.tally.n_undetected > 0,
            abs(r.tally.n_undetected - 0.3 * 50000) <= 5 * np.sqrt(50000 * 0.3 * 0.7),
            r.analytic_delta == 0.0 and r.analytic_eps == 0.0,
            r.tally.n_err == 0,
        ],
    ),
    "custom-two-photon-density": (
        partial(_random_custom_source, 15, 2, 2), 200000, 16, 1.0,
        lambda r: [
            abs(r.delta_hat - r.analytic_delta) <= 5.0 * max(r.delta_se, 1e-6),
            abs(r.eps_hat - r.analytic_eps) <= 5.0 * max(r.eps_se, 1e-6),
        ],
    ),
    "ideal-pair-full-rate": (
        SourceModel.ideal_pair, 20000, 17, 1.0,
        lambda r: [
            r.delta_hat == 0.0 and r.eps_hat == 0.0 and r.region == "a",
            (r.r_key, r.r_key_analytic, r.conjectured_rate_sampled) == (1.0, 1.0, 1.0),
        ],
    ),
    "werner-matches-analytic-rate": (
        lambda: SourceModel.werner(0.9), 10**6, 18, 1.0,
        lambda r, want=key_rate(ObservedStats(0.0, 0.05), f=1.0): [
            abs(r.analytic_delta) <= 1e-12 and abs(r.analytic_eps - 0.05) <= 1e-12,
            abs(r.r_key_analytic - want) <= 1e-12 and abs(r.r_key - want) <= 0.02,
            abs(r.r_key_gap - (r.r_key - r.r_key_analytic)) <= 1e-15,
        ],
    ),
    "attack-mixture-against-analytic": (
        lambda: make_attack_source(0.4)[0], 10**6, 19, 1.0,
        lambda r, p=run_attack(boundary_state(1.0, 0.0)): [
            abs(r.analytic_delta - 0.4 * p.delta_m) <= 1e-12,
            abs(r.analytic_eps - 0.4 * p.eps_m) <= 1e-12,
            abs(r.delta_hat - r.analytic_delta) <= 5.0 * r.delta_se,
            abs(r.eps_hat - r.analytic_eps) <= 5.0 * r.eps_se,
        ],
    ),
    # all multiphoton, double-click heavy (delta_m = 1/2): far outside the feasible domain
    "infeasible-sampled-stats-reported-not-raised": (
        lambda: SourceModel.eve_attack(boundary_state(1.0, -1.0), 1.0), 20000, 20, 1.0,
        lambda r: [
            r.region == "infeasible", r.r_key is r.r_key_analytic is r.r_key_gap is None,
        ],
    ),
    # delta_hat = 1, outside the observed-fraction domain
    "all-double-click-source-is-infeasible": (
        _all_double_click, 5000, 3, 1.0,
        lambda r: [
            r.tally.n > 0 and r.tally.n_dbl == r.tally.n and r.delta_hat == 1.0,
            r.region == "infeasible" and r.r_key is r.r_key_analytic is None,
        ],
    ),
    "seed-is-echoed-and-deterministic": (lambda: SourceModel.werner(0.95), 30000, 21, 1.1, None),
    # seed 1 sifts no event of one: no estimate and no rate, though the analytic one holds
    "no-sifted-event": (
        SourceModel.ideal_pair, 1, 1, 1.0,
        lambda r: [
            r.tally.n == 0 and np.isnan([r.delta_hat, r.eps_hat, r.delta_se, r.eps_se]).all(),
            r.region == "infeasible" and r.r_key is r.r_key_gap is None,
            r.conjectured_rate_sampled is None and r.r_key_analytic == 1.0,
        ],
    ),
    # sampled and analytic fractions in one region at 20000 events, seed 7
    **{
        f"{name}-f={f}": (source, 20000, 7, f, lambda r, region=region: _in_region(region, r))
        for name, source, region in [
            ("ideal", SourceModel.ideal_pair, "a"),
            ("werner", lambda: SourceModel.werner(0.8), "c"),
            ("attack-region-a", lambda: make_attack_source(0.4)[0], "a"),
            ("attack-region-b", lambda: make_attack_source(0.9)[0], "b"),
            ("mixed-region-c", _vacuum_mixture, "c"),
            ("mixed-infeasible", lambda: _random_mixture(0), "infeasible"),
        ]
        for f in (1.0, 1.1)
    },
    # analytic fractions of three sources, each run at 1000 events and seed 1 like any row
    "attack-source-matches-run_attack": (
        lambda: make_attack_source(1.0)[0], 1000, 1, 1.0,
        lambda r, p=run_attack(boundary_state(1.0, 0.0)): [
            abs(r.analytic_delta - p.delta_m) <= 1e-12, abs(r.analytic_eps - p.eps_m) <= 1e-12
        ],
    ),
    # a Werner pair never double-clicks, so its delta_m is exactly 0
    "werner-value": (
        lambda: SourceModel.werner(0.8), 1000, 1, 1.0,
        lambda r: [r.analytic_delta == 0.0, abs(r.analytic_eps - 0.1) <= 1e-12],
    ),
    "attack-density-feeds-simulation": (
        lambda: SourceModel.custom([(1.0, 1, 2, attack_density(boundary_state(0.6, 0.8)))]),
        1000, 1, 1.0,
        lambda r, p=run_attack(boundary_state(0.6, 0.8)): [
            abs(r.analytic_delta - p.delta_m) <= 1e-12, abs(r.analytic_eps - p.eps_m) <= 1e-12
        ],
    ),
}


@pytest.mark.parametrize(
    "source, events, seed, f, conditions", SIMULATED_RUNS.values(), ids=SIMULATED_RUNS
)
def test_simulated_run(source, events, seed, f, conditions):
    report = end_to_end(source(), events, f=f, seed=seed)
    assert end_to_end(source(), events, f=f, seed=seed) == report
    assert (report.seed, report.num_events, report.f_ec) == (seed, events, f)
    # Where the fractions are observed fractions, the report's rates are rate_table's cells
    # bit for bit (None for NaN); elsewhere the report is infeasible with no rate.
    sampled, analytic = _table_rows(report)
    got = [report.region, report.r_key, report.conjectured_rate_sampled]
    assert got == (sampled or ["infeasible", None, None])
    assert report.r_key_analytic == (analytic[1] if analytic else None)
    held = conditions(report) if conditions else []
    failed = [i for i, ok in enumerate(held) if not ok]
    assert not failed, f"conditions {failed} do not hold"


class TestSourceLifetime:
    def test_source_is_freed_after_a_run(self):
        source = SourceModel.werner(0.9)
        run_protocol(source, 1000, seed=1)
        ref = weakref.ref(source)
        del source
        gc.collect()
        assert ref() is None

    def test_tables_built_once_per_source(self):
        source = SourceModel.werner(0.9)
        first = run_protocol(source, 5000, seed=2)
        kernel = source._kernel
        assert run_protocol(source, 5000, seed=2) == first
        assert source._kernel is kernel
