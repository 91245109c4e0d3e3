"""Closed-form model spectra against frozen values and brute-force oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    SpinStructure,
    all_spin_structures,
    clifford_torus_lattice,
    field_dimension,
    product_torus_extrinsic,
    sphere_dirac_spectrum,
    sphere_extrinsic,
    sphere_laplace_spectrum,
    sphere_volume,
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


def reference_group_values(norms):
    """The original per-value grouping loop, kept verbatim as the oracle."""
    shells = []
    for v in norms:
        v = float(v)
        if shells and v - shells[-1][0] <= VALUE_GROUP_RTOL * max(abs(v), 1e-30):
            shells[-1] = (shells[-1][0], shells[-1][1] + 1)
        else:
            # snap near-zero enumeration roundoff to an exact kernel value
            shells.append((0.0 if abs(v) < 1e-30 else v, 1))
    return shells


def grouped(norms):
    values, mults = models._group_values(np.asarray(norms, dtype=float))
    return list(zip(values.tolist(), mults.tolist()))


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
    @given(shell_arrays())
    def test_matches_reference_loop(self, norms):
        assert grouped(norms) == reference_group_values(norms)

    def test_kernel_snap_and_empty_input(self):
        assert grouped([0.0, 0.0, 5e-31, 2.0, 2.0]) == reference_group_values(
            [0.0, 0.0, 5e-31, 2.0, 2.0])
        assert grouped([2e-40, 9e-40, 1.0]) == [(0.0, 2), (1.0, 1)]
        assert grouped([]) == []

    def test_near_square_chain_is_resplit(self, monkeypatch):
        """diag(1, 1 + 5.4e-10): neighbouring shells lie within tolerance of
        each other but not of their shell's first value."""
        calls = []
        real = models._first_value_breaks

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(models, "_first_value_breaks", spy)
        lat = Lattice(np.diag([1.0, 1.0000000005384615]))
        norms = models._shifted_dual_norms(lat, np.zeros(2), 256)
        assert grouped(norms) == reference_group_values(norms)
        assert calls
        spec = torus_laplace_spectrum(lat, 256)
        want = models._entries_from_shells(reference_group_values(norms), 256)
        assert spec.entries == want

    def test_benchmark_grid_needs_no_resplit(self, monkeypatch, capsys):
        """Over the sweep's 351 ratios x 4 spin structures every candidate
        shell from neighbour gaps is already a shell."""
        calls, groupings = [], []
        real = models._group_values
        monkeypatch.setattr(models, "_first_value_breaks",
                            lambda *args: calls.append(args) or [])
        monkeypatch.setattr(models, "_group_values",
                            lambda norms: groupings.append(norms) or real(norms))
        assert cli.main(["sweep", "--ratio-grid", "0.5:4.0:0.01", "--count", "256"]) == 0
        capsys.readouterr()
        assert len(groupings) == 351 * 4
        assert calls == []


class TestModelExtrinsic:
    def test_sphere_constants(self):
        extr = sphere_extrinsic(2, 1.0)
        assert extr.H_sq == 1.0
        assert extr.B_sq == 2.0
        assert extr.S == 2.0
        assert extr.curvature_term_kappa == 0.5
        assert extr.volume == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_sphere_radius_scaling(self):
        extr = sphere_extrinsic(3, 2.0)
        assert extr.H_sq == 0.25
        assert extr.S == pytest.approx(6.0 / 4.0, rel=1e-15)

    def test_gauss_identity_enforced(self):
        with pytest.raises(InvalidModelError):
            ModelExtrinsic(2, 1.0, 1.0, 0.0, 1.0, 0.0)

    def test_clifford_model(self):
        """The clifford-torus model takes its constants from its radii."""
        src = cli._model_source({"model": "clifford-torus", "operator": "laplace"})
        fallbacks = src["fallbacks"]
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
        assert extr.volume == pytest.approx(8.0 * math.pi**2, rel=1e-13)


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
