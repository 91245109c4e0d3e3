"""Closed-form model spectra against frozen values and brute-force oracles."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specgeom import cli, models
from specgeom.errors import (
    EmptyRequestError,
    IndexRangeError,
    InvalidModelError,
)
from specgeom.models import (
    VALUE_GROUP_RTOL,
    Lattice,
    ModelExtrinsic,
    Spectrum,
    SpinStructure,
    all_spin_structures,
    clifford_torus_lattice,
    field_dimension,
    product_torus_extrinsic,
    sphere_dirac_spectrum,
    sphere_extrinsic,
    sphere_laplace_spectrum,
    sphere_volume,
    torus_dirac_lowest,
    torus_dirac_spectrum,
    torus_laplace_spectrum,
)

# frozen shell tables, hand-evaluated from the closed forms
SPHERE_DIRAC_N2 = ((1.0, 4), (4.0, 8), (9.0, 12), (16.0, 16))
SPHERE_DIRAC_N3 = ((2.25, 4), (6.25, 12), (12.25, 24))
SPHERE_LAPLACE_N2 = ((0.0, 1), (2.0, 3), (6.0, 5), (12.0, 7))
SPHERE_LAPLACE_N3 = ((0.0, 1), (3.0, 4), (8.0, 9))


class TestSphereSpectra:
    def test_dirac_s2_shells(self):
        spec = sphere_dirac_spectrum(2, 1.0, 30)
        assert spec.entries[:4] == SPHERE_DIRAC_N2
        assert spec.zero_dim == 0

    def test_kernel_is_the_multiplicity_of_a_leading_zero(self):
        assert Spectrum("laplace", ((0.0, 3), (1.0, 2))).zero_dim == 3
        assert Spectrum("dirac_squared", ((0.5, 2), (1.0, 2))).zero_dim == 0

    def test_counts_computed_once(self):
        spec = sphere_dirac_spectrum(2, 1.0, 30)
        assert spec.cumulative is spec.cumulative
        assert spec.total_count == spec.cumulative[-1]
        assert "cumulative" in vars(spec) and "total_count" in vars(spec)
        assert spec == sphere_dirac_spectrum(2, 1.0, 30)

    def test_dirac_s3_shells(self):
        spec = sphere_dirac_spectrum(3, 1.0, 30)
        assert spec.entries[:3] == SPHERE_DIRAC_N3

    def test_dirac_radius_scaling(self):
        base = sphere_dirac_spectrum(2, 1.0, 20)
        scaled = sphere_dirac_spectrum(2, 2.0, 20)
        for (v1, m1), (v2, m2) in zip(base.entries, scaled.entries):
            assert m1 == m2
            assert v2 == pytest.approx(v1 / 4.0, rel=1e-15)

    def test_laplace_s2_shells(self):
        spec = sphere_laplace_spectrum(2, 1.0, 16)
        assert spec.entries[:4] == SPHERE_LAPLACE_N2
        assert spec.zero_dim == 1

    def test_laplace_s3_shells(self):
        spec = sphere_laplace_spectrum(3, 1.0, 14)
        assert spec.entries[:3] == SPHERE_LAPLACE_N3

    def test_values_truncates_exactly(self):
        spec = sphere_dirac_spectrum(2, 1.0, 6)
        vals = spec.values(6)
        assert len(vals) == 6
        assert list(vals) == [1.0, 1.0, 1.0, 1.0, 4.0, 4.0]
        # whole shells are materialized, so the total may exceed the request
        assert spec.total_count >= 6

    def test_values_of_a_shell_too_large_for_an_array(self):
        """The first Dirac shell of S^1000 holds 2^501 values; the first
        four are read without building the shell."""
        spec = sphere_dirac_spectrum(1000, 1.0, 4)
        assert spec.entries == ((250000.0, 2 ** 501),)
        assert list(spec.values(4)) == [250000.0] * 4

    def test_gamma_indexing(self):
        spec = sphere_laplace_spectrum(2, 1.0, 10)
        assert spec.gamma(1) == 0.0
        assert spec.gamma(2) == 2.0
        assert spec.gamma(4) == 2.0
        assert spec.gamma(5) == 6.0
        assert spec.gamma_bar(1) == 2.0  # kernel skipped

    def test_gamma_out_of_range(self):
        spec = sphere_laplace_spectrum(2, 1.0, 4)
        with pytest.raises(IndexRangeError):
            spec.gamma(spec.total_count + 1)
        with pytest.raises(IndexRangeError):
            spec.gamma(0)

    def test_empty_request(self):
        with pytest.raises(EmptyRequestError):
            sphere_laplace_spectrum(2, 1.0, 0)
        spec = sphere_laplace_spectrum(2, 1.0, 4)
        with pytest.raises(EmptyRequestError):
            spec.values(0)

    def test_bad_sphere_args(self):
        with pytest.raises(InvalidModelError):
            sphere_dirac_spectrum(0, 1.0, 4)
        with pytest.raises(InvalidModelError):
            sphere_dirac_spectrum(2, -1.0, 4)

    def test_sphere_volume(self):
        assert sphere_volume(2, 1.0) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert sphere_volume(3, 1.0) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
        assert sphere_volume(2, 3.0) == pytest.approx(36.0 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("n, radius", [(400, 1.0), (1000, 1.0), (3, 1e110), (300, 0.01)])
    def test_sphere_volume_outside_float_range(self, n, radius):
        """A volume that overflows or underflows to 0 is an invalid model."""
        with pytest.raises(InvalidModelError) as info:
            sphere_volume(n, radius)
        assert info.value.detail == {"n": n, "radius": radius}
        assert sphere_extrinsic(n, radius).n == n  # the constants stay in range


def brute_force_torus_values(basis, shift, count):
    """Independent flat-torus oracle: enumerate dual-lattice points in a box.

    Walks integer coordinates in an L-infinity box big enough to contain
    every value below the count-th smallest, with no shared code with the
    shell generator.
    """
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    dual = 2.0 * math.pi * np.linalg.inv(basis).T
    shift = np.asarray(shift, dtype=float)
    radius = 1
    while True:
        rng = range(-radius, radius + 1)
        grids = np.meshgrid(*([list(rng)] * n), indexing="ij")
        coords = np.stack([g.ravel() for g in grids], axis=1) + shift
        norms_sq = np.sum((coords @ dual.T) ** 2, axis=1)
        norms_sq.sort()
        if len(norms_sq) >= count:
            # box must be provably large enough: the count-th value must be
            # reachable inside the box's inscribed dual ball
            smallest_dual = min(
                np.linalg.norm(dual @ e)
                for e in np.eye(n)
            )
            if norms_sq[count - 1] <= (radius * smallest_dual) ** 2:
                return norms_sq[:count]
        radius += 1


def joint_entries(lat, spins, count):
    """Each spin structure's Dirac spectrum entries from one enumeration of
    the dual lattice that all of them share, as the sweep enumerates it."""
    rank = models.spinor_rank(lat.dim)
    [(_, found)] = models._shifted_dual_norms(lat.stack, [s.shift for s in spins],
                                              -(-count // rank))
    return [models._entries_from_shells(
        ((v, m * rank) for v, m in models._shells(rows[0, :below[0]], lat.dual_spacing**2)),
        count) for rows, below in found]


class TestTorusSpectra:
    def test_square_torus_halfhalf_spin(self):
        lat = Lattice(2.0 * math.pi * np.eye(2))
        spin = SpinStructure((0.5, 0.5))
        spec = torus_dirac_spectrum(lat, spin, 12)
        assert spec.entries[0] == (0.5, 8)
        assert spec.zero_dim == 0

    def test_trivial_spin_kernel(self):
        lat = Lattice(2.0 * math.pi * np.eye(2))
        spec = torus_dirac_spectrum(lat, SpinStructure((0.0, 0.0)), 12)
        assert spec.zero_dim == 2
        assert spec.entries[0] == (0.0, 2)

    @pytest.mark.parametrize("shift", [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)])
    def test_dirac_matches_brute_force(self, shift):
        basis = np.array([[5.0, 1.0], [0.5, 4.0]])
        lat = Lattice(basis)
        spec = torus_dirac_spectrum(lat, SpinStructure(shift), 40)
        got = spec.values(40)
        # each dual point carries rank-2 spinor multiplicity
        raw = brute_force_torus_values(basis, shift, 20)
        want = np.repeat(raw, 2)[:40]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_laplace_matches_brute_force(self):
        basis = np.array([[6.0, 2.0], [1.0, 7.0]])
        spec = torus_laplace_spectrum(Lattice(basis), 30)
        got = spec.values(30)
        want = brute_force_torus_values(basis, (0.0, 0.0), 30)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert spec.zero_dim == 1

    @pytest.mark.parametrize("basis", [
        [[1.0, 0.5], [0.0, 1.0]],
        math.sqrt(2.0) * math.pi * np.eye(2),
        [[1.0, 0.3, 0.1], [0.0, 1.2, 0.2], [0.0, 0.0, 0.9]],
    ], ids=["oblique", "clifford", "3d"])
    def test_a_power_of_two_scale_scales_every_entry(self, basis):
        """A lattice scaled by 2^k gives every entry scaled by 4^-k, bit for
        bit, for |k| <= 200: the shells do not depend on the unit of length.
        At the scale 2^60 a shell's values once fell below an absolute floor
        and collapsed into one kernel shell."""
        unit = Lattice(np.array(basis))
        spins = all_spin_structures(unit.dim)
        ks = range(-200, 201)
        lats = [unit] + [Lattice(np.ldexp(unit.basis, k)) for k in ks]
        built = [[torus_laplace_spectrum(lat, 16).entries]
                 + [torus_dirac_spectrum(lat, spin, 16).entries for spin in spins]
                 for lat in lats]
        for k, got in zip(ks, built[1:]):
            assert got == [tuple((v * 4.0**-k, m) for v, m in spec) for spec in built[0]], k

    def test_clifford_lattice(self):
        lat = clifford_torus_lattice()
        assert lat.covolume == pytest.approx(2.0 * math.pi**2, rel=1e-14)
        spec = torus_laplace_spectrum(lat, 16)
        vals = [v for v, _ in spec.entries[:4]]
        np.testing.assert_allclose(vals, [0.0, 2.0, 4.0, 8.0], atol=1e-12)

    def test_spin_structure_enumeration(self):
        spins = all_spin_structures(2)
        assert len(spins) == 4
        assert [s.label() for s in spins] == ["0,0", "0,1/2", "1/2,0", "1/2,1/2"]
        assert spins[0].is_trivial and not spins[3].is_trivial

    def test_spin_structure_validation(self):
        with pytest.raises(InvalidModelError):
            SpinStructure((0.25, 0.0))

    def test_singular_lattice_rejected(self):
        with pytest.raises(InvalidModelError):
            Lattice(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_dual_basis_pairing(self):
        basis = np.array([[3.0, 1.0], [0.0, 2.0]])
        lat = Lattice(basis)
        pairing = basis.T @ lat.dual_basis / (2.0 * math.pi)
        np.testing.assert_allclose(pairing, np.eye(2), atol=1e-14)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    )
    def test_unimodular_invariance(self, entries):
        """Laplace spectra depend only on the lattice, not its basis."""
        u = np.array(entries, dtype=float).reshape(2, 2)
        if abs(round(np.linalg.det(u))) != 1:
            return
        basis = np.array([[5.0, 1.5], [0.0, 4.0]])
        a = torus_laplace_spectrum(Lattice(basis), 12).values(12)
        b = torus_laplace_spectrum(Lattice(basis @ u), 12).values(12)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.floats(min_value=0.25, max_value=4.0, allow_nan=False))
    def test_homothety_scaling(self, t):
        """Scaling the lattice by t scales every eigenvalue by 1/t**2."""
        basis = np.array([[4.0, 1.0], [1.0, 5.0]])
        a = torus_laplace_spectrum(Lattice(basis), 10).values(10)
        b = torus_laplace_spectrum(Lattice(t * basis), 10).values(10)
        np.testing.assert_allclose(b, a / t**2, rtol=1e-9, atol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=5, max_value=40),
    )
    def test_values_nondecreasing(self, spin_index, count):
        lat = Lattice(np.array([[7.0, 2.0], [0.5, 3.0]]))
        spin = all_spin_structures(2)[spin_index]
        vals = torus_dirac_spectrum(lat, spin, count).values(count)
        assert np.all(np.diff(vals) >= -1e-15)

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_a_smaller_build_is_a_prefix(self, data):
        """The enumeration asks for the dual vectors that ``count`` values
        need, not ``count`` of them; every shell it keeps is still whole, so
        the first c values do not depend on the size built."""
        dim = data.draw(st.sampled_from([2, 3]), label="dim")
        coord = st.floats(min_value=-1.0, max_value=1.0)
        basis = np.array(data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                            min_size=dim, max_size=dim), label="off"))
        basis += np.diag(data.draw(st.lists(st.floats(min_value=1.0, max_value=3.0),
                                            min_size=dim, max_size=dim), label="diag"))
        assume(np.linalg.cond(basis) < 30.0)
        lat = Lattice(basis)
        spin = data.draw(st.sampled_from(all_spin_structures(dim) + [None]), label="spin")
        small = data.draw(st.integers(min_value=1, max_value=40), label="c")
        large = data.draw(st.integers(min_value=small + 1, max_value=160), label="C")

        def build(count):
            if spin is None:
                return torus_laplace_spectrum(lat, count)
            return torus_dirac_spectrum(lat, spin, count)

        np.testing.assert_array_equal(build(small).values(small),
                                      build(large).values(large)[:small])

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_one_enumeration_for_all_spins_matches_one_per_spin(self, data):
        """The shared radius and box keep every shift's kept shells whole,
        so each spectrum of a joint build, for any spin structures in any
        order, is exactly its own build."""
        dim = data.draw(st.sampled_from([2, 3]), label="dim")
        coord = st.floats(min_value=-1.0, max_value=1.0)
        basis = np.array(data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                            min_size=dim, max_size=dim), label="off"))
        basis += np.diag(data.draw(st.lists(st.floats(min_value=0.3, max_value=3.0),
                                            min_size=dim, max_size=dim), label="diag"))
        assume(np.linalg.cond(basis) < 30.0)
        lat = Lattice(basis)
        spins = data.draw(st.lists(st.sampled_from(all_spin_structures(dim)), min_size=1,
                                   max_size=2**dim, unique=True), label="spins")
        count = data.draw(st.integers(min_value=1, max_value=64), label="count")
        assert joint_entries(lat, spins, count) == [
            torus_dirac_spectrum(lat, spin, count).entries for spin in spins]

    def test_no_spins_give_no_spectra(self):
        """One value per spin structure: an empty list gives empty columns."""
        lat = Lattice(np.array([[1.0, 0.3], [0.0, 1.2]]))
        assert joint_entries(lat, [], 4) == []
        assert [a.shape for a in torus_dirac_lowest(lat.stack, [])] == [(1, 0), (1, 0)]

    @pytest.mark.parametrize("count, vectors", [(1, 1), (2, 1), (3, 2), (7, 4), (8, 4)])
    def test_enumeration_asks_for_whole_dual_vectors(self, monkeypatch, count, vectors):
        """A dual vector of the 2-torus carries 2 Dirac values, so count
        values need ceil(count / 2) of them; the Laplacian needs count."""
        asked = []
        real = models._shifted_dual_norms

        def spy(lats, shifts, k):
            asked.append(k)
            return real(lats, shifts, k)

        monkeypatch.setattr(models, "_shifted_dual_norms", spy)
        lat = Lattice(np.array([[1.0, 0.5], [0.0, 1.0]]))
        torus_dirac_spectrum(lat, SpinStructure((0.0, 0.5)), count)
        torus_laplace_spectrum(lat, count)
        assert asked == [vectors, count]

    @pytest.mark.parametrize("basis", [
        math.sqrt(2.0) * math.pi * np.eye(2),
        [[1.0, 0.5], [0.0, 1.0]],
        [[1.0, 0.3, 0.1], [0.0, 1.2, 0.2], [0.0, 0.0, 0.9]],
    ], ids=["clifford", "oblique", "3d"])
    @pytest.mark.parametrize("count", [1, 7, 64])
    def test_growing_the_dual_radius_keeps_the_spectrum(self, monkeypatch, basis, count):
        """A first radius far too small makes the enumeration grow it; the
        shells come out as they do from the default first radius.  The
        radius grows exactly when, for some shift enumerated, fewer than the
        requested dual vectors, ceil(count / values per vector), lie inside
        it: the half-integer shift can put 2^n of them at |G* delta|, inside
        the first radius.  All spin structures share one radius, which adds
        the longest shift."""
        lat = Lattice(np.array(basis))
        vectors = -(-count // 2 ** (lat.dim // 2))  # each carries 2^[n/2] Dirac values
        spins = all_spin_structures(lat.dim)
        builders = [  # (build, the shifts it enumerates, dual vectors it asks for)
            (lambda: [torus_laplace_spectrum(lat, count).entries], [spins[0].shift], count),
            (lambda: joint_entries(lat, spins, count), [s.shift for s in spins], vectors),
        ] + [(lambda s=s: [torus_dirac_spectrum(lat, s, count).entries], [s.shift], vectors)
             for s in (spins[0], spins[-1])]
        default = [build() for build, _, _ in builders]
        assert default[1][0] == default[2][0] and default[1][-1] == default[3][0]
        monkeypatch.setattr(models, "FIRST_RADIUS_FACTOR", 0.05)
        forced = [any(vectors_inside_first_radius(lat, shift, k, shifts) < k for shift in shifts)
                  for _, shifts, k in builders]
        boxes = 0
        real_indices = np.indices

        def counting_indices(*args, **kwargs):  # one enumeration box per radius
            nonlocal boxes
            boxes += 1
            return real_indices(*args, **kwargs)

        monkeypatch.setattr(np, "indices", counting_indices)
        for (build, _, _), entries, grows in zip(builders, default, forced):
            boxes = 0
            assert build() == entries
            assert (boxes > 1) == grows


def sweep_lattice(ratio, area=4.0 * math.pi**2):
    """The sweep's diagonal lattice of aspect ratio ``ratio`` and ``area``."""
    r1 = math.sqrt(area / (4.0 * math.pi**2 * ratio))
    return Lattice(np.diag([2.0 * math.pi * r1, 2.0 * math.pi * r1 * ratio]))


@st.composite
def lattice_stacks(draw):
    """1 to 40 diagonal or oblique 2-D lattices with aspect ratios 1e-3 to
    1e3 and scales 1e-2 to 1e2."""
    lats = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        ratio = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
        shear = draw(st.just(0.0) | st.floats(min_value=-1.0, max_value=1.0))
        scale = 10.0 ** draw(st.floats(min_value=-2.0, max_value=2.0))
        lats.append(Lattice(scale * np.array([[1.0, shear], [0.0, ratio]])))
    return lats


def stack_of(lats):
    """The ``LatticeStack`` of the sequence ``lats``."""
    return models.lattice_stack(np.stack([lat.basis for lat in lats]))


class TestLatticeStacks:
    @settings(deadline=None, max_examples=40)
    @given(lattice_stacks(), st.data())
    def test_each_lattice_of_a_stack_gets_its_own_spectra(self, lats, data):
        """Consecutive lattices share an enumeration box, and each keeps its
        own radius: every lattice of a stack, for any spin structures and
        chunk budget, gets exactly the kernel and lowest nonzero value of
        its own stack of one, also when a first radius far too small makes
        some lattices grow theirs and come out in a later chunk."""
        spins = data.draw(st.lists(st.sampled_from(all_spin_structures(2)), max_size=4,
                                   unique=True), label="spins")
        budget = data.draw(st.sampled_from([1, 600, models.CHUNK_POINTS, 10**6]), label="budget")
        factor = data.draw(st.sampled_from([0.05, models.FIRST_RADIUS_FACTOR]), label="factor")
        with mock.patch.object(models, "FIRST_RADIUS_FACTOR", factor):
            alone = [torus_dirac_lowest(lat.stack, spins) for lat in lats]
            with mock.patch.object(models, "CHUNK_POINTS", budget):
                stacked = torus_dirac_lowest(stack_of(lats), spins)
        for got, want in zip(stacked, zip(*alone)):
            assert got.tolist() == np.concatenate(want).tolist()

    def test_a_long_sweep_holds_one_chunk_at_a_time(self):
        """The lowest values of a stack are read chunk by chunk: over the
        aspect ratios 0.001 to 990.001, whose boxes differ about 100 times,
        the enumeration, which holds all shifts of a chunk at once, peaks
        no higher than the largest lattice's enumeration alone plus one
        shift's share of a chunk's arrays."""
        lats = [sweep_lattice(ratio) for ratio in cli._parse_grid("0.001:1000:10")]
        spins = all_spin_structures(2)

        def peak(stack):
            tracemalloc.start()
            try:
                torus_dirac_lowest(stack, spins)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        largest = max(peak(lat.stack) for lat in lats)
        assert peak(stack_of(lats)) <= largest + models.CHUNK_POINTS * (2 + 1) * 8

    def test_a_lattice_past_the_chunk_budget_takes_one_shift_at_a_time(self):
        """A lattice whose own box passes ``CHUNK_POINTS`` runs alone, and
        its four spin shifts are enumerated one at a time: they peak less
        than twice as high as its longest shift alone, where one product of
        all four would hold every shift's points at once (about 2.9 times)."""
        stack = sweep_lattice(0.001).stack
        spins = all_spin_structures(2)

        def peak(spins):
            tracemalloc.start()
            try:
                torus_dirac_lowest(stack, spins)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        longest = peak([SpinStructure((0.5, 0.5))])
        assert longest > 3 * models.CHUNK_POINTS * (2 + 1) * 8
        assert peak(spins) < 2 * longest


def vectors_inside_first_radius(lat, shift, vectors, shifts):
    """Dual vectors shifted by ``shift`` strictly inside the first radius of
    an enumeration of ``shifts`` that asks for ``vectors``, counted over a
    box that holds them all."""
    longest = max(np.linalg.norm(lat.dual_basis @ np.asarray(s)) for s in shifts)
    radius = (models.FIRST_RADIUS_FACTOR * vectors ** (1.0 / lat.dim) * lat.dual_spacing
              + longest)
    grid = np.stack(np.meshgrid(*[np.arange(-8, 9)] * lat.dim), axis=-1).reshape(-1, lat.dim)
    return int(np.sum(np.linalg.norm((grid + shift) @ lat.dual_basis.T, axis=1) < radius))


def reference_group_values(norms, scale=1.0):
    """The original per-value grouping loop as the oracle, its floors taken
    relative to the lattice's ``scale``."""
    shells = []
    for v in norms:
        v = float(v)
        if shells and v - shells[-1][0] <= VALUE_GROUP_RTOL * max(abs(v), 1e-30 * scale):
            shells[-1] = (shells[-1][0], shells[-1][1] + 1)
        else:
            # snap near-zero enumeration roundoff to an exact kernel value
            shells.append((0.0 if abs(v) < 1e-30 * scale else v, 1))
    return shells


def grouped(norms, scale=1.0):
    return list(models._shells(np.asarray(norms, dtype=float), scale))


@st.composite
def shell_arrays(draw):
    """Sorted nonnegative arrays of exact zeros, values below 1e-30, and
    chains whose neighbours lie 0.3-1.5 tolerances apart, so that a chain
    can drift past its first value's tolerance."""
    values = [0.0] * draw(st.integers(min_value=0, max_value=3))
    values += draw(st.lists(
        st.floats(min_value=0.0, max_value=1e-30, exclude_max=True), max_size=4))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        v = draw(st.floats(min_value=0.0, max_value=1e6))
        values.append(v)
        for step in draw(st.lists(st.floats(min_value=0.3, max_value=1.5), max_size=12)):
            v += step * VALUE_GROUP_RTOL * max(v, 1e-30)
            values.append(v)
    return np.sort(np.array(values, dtype=float))


class TestShellGrouping:
    @settings(deadline=None, max_examples=300)
    @given(shell_arrays(), st.integers(min_value=1, max_value=80),
           st.integers(min_value=-200, max_value=200))
    def test_matches_reference_loop(self, norms, count, k):
        """The shells match the oracle loop, and so does their cut at any
        count the values cover, where the lazy grouping stops early.  Values
        and scale multiplied by 4^k give the same shells multiplied by 4^k."""
        assert grouped(norms) == reference_group_values(norms)
        assert grouped(norms * 4.0**k, 4.0**k) == [
            (v * 4.0**k, m) for v, m in reference_group_values(norms)]
        if norms.size:
            count = min(count, norms.size)
            assert (models._entries_from_shells(models._shells(norms, 1.0), count)
                    == models._entries_from_shells(reference_group_values(norms), count))

    def test_kernel_snap_and_empty_input(self):
        assert grouped([0.0, 0.0, 5e-31, 2.0, 2.0]) == reference_group_values(
            [0.0, 0.0, 5e-31, 2.0, 2.0])
        # the floors are relative: values that are roundoff next to a unit
        # lattice's are shells of a lattice whose scale is 1e-40
        assert grouped([2e-40, 9e-40, 1.0]) == [(0.0, 2), (1.0, 1)]
        assert grouped([2e-40, 9e-40, 1.0], 1e-40) == [(2e-40, 1), (9e-40, 1), (1.0, 1)]
        assert grouped([]) == []

    def test_near_square_chain_is_resplit(self):
        """diag(1, 1 + 5.4e-10): neighbouring shells lie within tolerance of
        each other but not of their shell's first value, so a chain of close
        neighbours splits where it drifts past that first value."""
        lat = Lattice(np.diag([1.0, 1.0000000005384615]))
        [(_, [(rows, below)])] = models._shifted_dual_norms(
            models.lattice_stack(lat.basis[None]), np.zeros((1, 2)), 256)
        norms = rows[0, :below[0]]
        assert grouped(norms, lat.dual_spacing**2) == reference_group_values(
            norms, lat.dual_spacing**2)
        spec = torus_laplace_spectrum(lat, 256)
        want = models._entries_from_shells(
            reference_group_values(norms, lat.dual_spacing**2), 256)
        assert spec.entries == want


class TestModelExtrinsic:
    def test_sphere_constants(self):
        extr = sphere_extrinsic(2, 1.0)
        assert extr.H_sq == 1.0
        assert extr.B_sq == 2.0
        assert extr.S == 2.0

    def test_sphere_radius_scaling(self):
        extr = sphere_extrinsic(3, 2.0)
        assert extr.H_sq == 0.25
        assert extr.S == pytest.approx(6.0 / 4.0, rel=1e-15)

    def test_gauss_identity_enforced(self):
        with pytest.raises(InvalidModelError):
            ModelExtrinsic(2, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("n, radius", [(2, 1.0), (3, 0.7), (7, 3.0)])
    def test_kappa_is_a_quarter_of_the_scalar_curvature(self, n, radius):
        """The sphere source's kappa is S/4 for spinors, bit for bit the
        closed form n(n-1)/(4r^2), and 0 for functions."""
        cfg = {"model": "sphere", "dim": n, "radius": radius}
        dirac = cli._model_source({**cfg, "operator": "dirac"}).fallbacks
        assert dirac["kappa"] == n * (n - 1) / (4.0 * radius**2)
        assert dirac["kappa"] == dirac["s_inf"] / 4.0
        assert cli._model_source({**cfg, "operator": "laplace"}).fallbacks["kappa"] == 0.0

    def test_clifford_model(self):
        """The clifford-torus model takes its constants from its radii."""
        src = cli._model_source({"model": "clifford-torus", "operator": "laplace"})
        fallbacks = src.fallbacks
        assert fallbacks["h_sq"] == pytest.approx(1.0, rel=1e-14)
        assert fallbacks["b_sq_sup"] == pytest.approx(4.0, rel=1e-14)
        assert fallbacks["s_inf"] == 0.0
        assert fallbacks["volume"] == pytest.approx(2.0 * math.pi**2, rel=1e-15)

    def test_product_torus_matches_clifford(self):
        r = 1.0 / math.sqrt(2.0)
        lat, extr = product_torus_extrinsic(r, r)
        assert extr.H_sq == pytest.approx(1.0, rel=1e-14)
        assert extr.B_sq == pytest.approx(4.0, rel=1e-14)
        assert lat.covolume == pytest.approx(2.0 * math.pi**2, rel=1e-13)

    def test_product_torus_general(self):
        lat, extr = product_torus_extrinsic(1.0, 2.0)
        assert extr.H_sq == pytest.approx((1.0 + 0.25) / 4.0, rel=1e-14)
        assert lat.covolume == pytest.approx(8.0 * math.pi**2, rel=1e-13)

    def test_product_torus_any_dimension(self):
        lat, extr = product_torus_extrinsic(1.0, 2.0, 0.5)
        curv_sum = 1.0 + 0.25 + 4.0
        assert (lat.dim, extr.n, extr.S) == (3, 3, 0.0)
        assert extr.H_sq == pytest.approx(curv_sum / 9.0, rel=1e-15)
        assert extr.B_sq == pytest.approx(curv_sum, rel=1e-15)
        assert lat.covolume == pytest.approx(8.0 * math.pi**3, rel=1e-13)


# The standard embedding of FP^m sends the line through a unit vector z of
# F^(m+1) to the rank-one Hermitian projector z z*.  Every field is written
# over C here: a real or complex entry is a 1x1 block, a quaternion
# a + bi + cj + dk the 2x2 block [[a + bi, c + di], [-c + di, a - bi]], so
# that the real trace of a quaternion matrix is Re tr / 2 of its blocks.


def block_size(field_id):
    return 2 if field_id == "Q" else 1


def random_unit(rng, field_id, m):
    """A unit vector of F^(m+1) as a complex (b(m+1), b) block column."""
    if field_id == "R":
        z = rng.standard_normal((m + 1, 1)).astype(complex)
    elif field_id == "C":
        z = rng.standard_normal((m + 1, 1)) + 1j * rng.standard_normal((m + 1, 1))
    else:
        a, b, c, d = rng.standard_normal((4, m + 1))
        z = np.empty((2 * (m + 1), 2), dtype=complex)
        z[0::2, 0], z[0::2, 1] = a + 1j * b, c + 1j * d
        z[1::2, 0], z[1::2, 1] = -c + 1j * d, a - 1j * b
    return z / math.sqrt(float(np.sum(np.abs(z) ** 2)) / block_size(field_id))


def hermitian_inner(p, q, field_id):
    """<P, Q> = (1/2) Re tr(PQ), the trace taken over F."""
    return 0.5 * float(np.trace(p @ q).real) / block_size(field_id)


def sphere_check_terms(capsys, ineq, field_id, n, *flags):
    code = cli.main(["check", "--ineq", ineq, "--model", "sphere", "--dim", str(n),
                     "--field", field_id, "--operator", "laplace", *flags])
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    # a round sphere need not satisfy a bound for projective targets
    assert code == (0 if report["satisfied"] else 1)
    return report["terms"]


class TestProjectiveEmbedding:
    def test_field_dimension(self):
        assert [field_dimension(f) for f in ("R", "C", "Q")] == [1, 2, 4]
        with pytest.raises(InvalidModelError):
            field_dimension("H")

    @pytest.mark.parametrize("field_id,m", [("R", 2), ("C", 1), ("C", 2), ("C", 3), ("Q", 1)])
    def test_embedding_point_properties(self, field_id, m, capsys):
        """Each embedding point is a Hermitian idempotent of trace one at
        squared distance m/(2(m+1)) from the center I/(m+1).  The reciprocal
        2(m+1)/m is the ambient term 2(n + d_F)/n that ``check`` prints for
        n = d_F m, and the minimal projective form prints n^2/4 times it."""
        n = field_dimension(field_id) * m
        ambient = sphere_check_terms(capsys, "reilly3", field_id, n)["ambient_term"]
        minimal = sphere_check_terms(capsys, "projective", field_id, n, "--minimal")
        assert minimal["ambient"] == pytest.approx(n**2 / 4.0 * ambient, rel=1e-15)

        center = np.eye(block_size(field_id) * (m + 1)) / (m + 1)
        rng = np.random.default_rng(11)
        for _ in range(250):
            z = random_unit(rng, field_id, m)
            p = z @ z.conj().T
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert np.max(np.abs(p - p.conj().T)) < 1e-12
            assert hermitian_inner(p, center, field_id) == pytest.approx(
                0.5 / (m + 1), abs=1e-13)
            assert hermitian_inner(p, p, field_id) == pytest.approx(0.5, abs=1e-13)
            dist_sq = hermitian_inner(p - center, p - center, field_id)
            assert 1.0 / dist_sq == pytest.approx(ambient, rel=1e-12)
