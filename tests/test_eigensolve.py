"""Sparse eigensolver against closed forms, a dense oracle, and its own contract."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import specgeom.eigensolve as eigensolve
from specgeom.eigensolve import (
    dense_eigenbasis,
    solve_smallest,
)
from specgeom.cli import main
from specgeom.errors import IndexRangeError, SolverConvergenceError, UsageError
from specgeom.mesh import SparseOperatorPair, assemble_operators, mesh_from_arrays
from specgeom.meshgen import icosphere, torus_of_revolution, write_off
from specgeom.models import sphere_laplace_spectrum


def pair(stiffness, mass):
    return SparseOperatorPair(
        stiffness=sp.csr_matrix(stiffness),
        mass=sp.csr_matrix(mass),
        clamp_count=0,
    )


def random_pencil(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    stiffness = a @ a.T
    mass = np.diag(rng.uniform(0.5, 2.0, n))
    return pair(stiffness, mass)


class TestSmallPencils:
    def test_diagonal_example(self):
        ops = pair(np.diag([0.0, 1.0, 4.0]), np.eye(3))
        basis = solve_smallest(ops, 2, seed=0)
        np.testing.assert_allclose(basis.values, [0.0, 1.0], atol=1e-12)
        assert abs(abs(basis.vectors[0, 0]) - 1.0) < 1e-10
        assert abs(abs(basis.vectors[1, 1]) - 1.0) < 1e-10
        assert basis.zero_dim == 1

    def test_k_validation(self):
        ops = pair(np.eye(4), np.eye(4))
        with pytest.raises(UsageError):
            solve_smallest(ops, 0)
        with pytest.raises(UsageError):
            solve_smallest(ops, 4)  # k must stay below the matrix size

    def test_tol_validation(self):
        ops = pair(np.eye(4), np.eye(4))
        with pytest.raises(UsageError):
            solve_smallest(ops, 2, tol=1.0)
        with pytest.raises(UsageError):
            solve_smallest(ops, 2, tol=0.0)
        with pytest.raises(UsageError):
            solve_smallest(ops, 2, tol=1e-13)

    def test_mass_scaling(self):
        """M -> cM divides the values by c and the vectors by sqrt(c)."""
        ops = random_pencil(3, 40)
        c = 3.7
        scaled = pair(ops.stiffness.toarray(), c * ops.mass.toarray())
        b1 = solve_smallest(ops, 5, seed=0)
        b2 = solve_smallest(scaled, 5, seed=0)
        np.testing.assert_allclose(b2.values, b1.values / c, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            np.abs(b2.vectors), np.abs(b1.vectors) / np.sqrt(c), atol=1e-9
        )

    @settings(deadline=None, max_examples=15)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=8, max_value=40),
        st.integers(min_value=1, max_value=6),
    )
    def test_matches_dense_oracle(self, seed, n, k):
        ops = random_pencil(seed, n)
        sparse_basis = solve_smallest(ops, k, seed=1)
        dense = dense_eigenbasis(ops, k)
        np.testing.assert_allclose(
            sparse_basis.values, dense.values, rtol=1e-8, atol=1e-10
        )

    def test_contract_residuals_reported(self):
        ops = random_pencil(7, 30)
        basis = solve_smallest(ops, 4, tol=1e-10, seed=0)
        stiffness, mass = ops.stiffness, ops.mass
        for i in range(4):
            v = basis.vectors[:, i]
            resid = np.linalg.norm(stiffness @ v - basis.values[i] * (mass @ v))
            scale = max(1.0, np.linalg.norm(stiffness @ v))
            assert resid <= 1e-10 * scale
            assert basis.residuals[i] <= 1e-10 * scale
        assert basis.mass_gram_error <= 1e-8


class TestMeshSpectra:
    def test_icosphere_against_closed_form(self, ico_ops):
        basis = solve_smallest(ico_ops(3), 14, seed=0)
        exact = sphere_laplace_spectrum(2, 1.0, 14).values(14)
        rel = np.abs(basis.values[1:] - exact[1:]) / exact[1:]
        assert np.max(rel) < 0.02
        assert abs(basis.values[0]) < 1e-10
        assert basis.zero_dim == 1

    def test_bitwise_determinism(self, ico_ops):
        ops = ico_ops(3)
        b1 = solve_smallest(ops, 14, seed=0)
        b2 = solve_smallest(ops, 14, seed=0)
        assert np.array_equal(b1.values, b2.values)
        assert np.array_equal(b1.vectors, b2.vectors)

    def test_dense_sparse_equivalence(self, ico_ops):
        """ARPACK stops at the caller's tol; values still match the dense
        oracle for every k, and eigenspaces match wherever k closes a
        spherical-harmonic shell (1, 4, 9, 16, 25), including cuts at a
        multiplicity-cluster boundary."""
        ops = ico_ops(2)  # 162 vertices
        dense = dense_eigenbasis(ops, 30)
        mass_diag = ops.mass_diag
        for k in range(1, 31):
            basis = solve_smallest(ops, k, seed=0)
            np.testing.assert_allclose(
                basis.values, dense.values[:k], rtol=0, atol=1e-9, err_msg="k=%d" % k
            )
            if k in (1, 4, 9, 16, 25):
                p_sparse = basis.vectors @ (basis.vectors.T * mass_diag)
                p_dense = dense.vectors[:, :k] @ (dense.vectors[:, :k].T * mass_diag)
                assert np.max(np.abs(p_sparse - p_dense)) < 1e-7, k

    def test_sign_convention(self, ico_ops):
        basis = solve_smallest(ico_ops(2), 6, seed=0)
        for col in range(basis.vectors.shape[1]):
            v = basis.vectors[:, col]
            lead = np.flatnonzero(np.abs(v) > 1e-6 * np.max(np.abs(v)))[0]
            assert v[lead] > 0.0

    def test_two_components_give_two_zero_modes(self, two_sphere_mesh):
        ops = assemble_operators(two_sphere_mesh)
        basis = solve_smallest(ops, 6, seed=0)
        assert basis.zero_dim == 2
        # the kernel is spanned by the component indicator functions
        n_half = two_sphere_mesh.n_vertices // 2
        mass_diag = ops.mass_diag
        kernel = basis.vectors[:, :2]
        for lo, hi in ((0, n_half), (n_half, 2 * n_half)):
            ind = np.zeros(two_sphere_mesh.n_vertices)
            ind[lo:hi] = 1.0
            coef = kernel.T @ (mass_diag * ind)
            resid = ind - kernel @ coef
            rel = np.sqrt(resid @ (mass_diag * resid)) / np.sqrt(
                ind @ (mass_diag * ind)
            )
            assert rel < 1e-8

    def test_degenerate_cluster_residuals(self, two_sphere_mesh):
        """Requesting a count that cuts inside the doubled lambda = 2 cluster
        still meets the residual bound pair by pair."""
        ops = assemble_operators(two_sphere_mesh)
        basis = solve_smallest(ops, 6, seed=0)
        stiffness, mass = ops.stiffness, ops.mass
        for i in range(6):
            v = basis.vectors[:, i]
            resid = np.linalg.norm(stiffness @ v - basis.values[i] * (mass @ v))
            assert resid <= 1e-9 * max(1.0, np.linalg.norm(stiffness @ v))

    @pytest.mark.parametrize("k", [0, 163])
    def test_dense_k_is_checked_before_the_dense_solve(self, ico_ops, monkeypatch, k):
        """A bad k is a usage error raised before the O(n^3) solve."""
        calls = []
        monkeypatch.setattr(eigensolve.dla, "eigh", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(UsageError) as info:
            dense_eigenbasis(ico_ops(2), k)  # 162 vertices
        assert (str(info.value), info.value.detail) == (
            "k must satisfy 1 <= k <= 162, got %d" % k, {"k": k})
        assert calls == []

    def test_dense_size_refusal(self):
        n = 3001
        ops = pair(sp.identity(n).tocsr(), sp.identity(n).tocsr())
        with pytest.raises(UsageError):
            dense_eigenbasis(ops)


class TestReadInterface:
    """A computed basis reads like a model spectrum."""

    @pytest.mark.parametrize("kernel", [1, 2])
    def test_gamma_gamma_bar_zero_dim_total_count(
        self, ico_ops, two_sphere_mesh, kernel
    ):
        ops = ico_ops(3) if kernel == 1 else assemble_operators(two_sphere_mesh)
        basis = solve_smallest(ops, 8, seed=0)
        assert basis.total_count == 8
        assert basis.zero_dim == kernel
        assert [basis.gamma(j) for j in range(1, 9)] == list(basis.values)
        assert all(abs(basis.gamma(j)) < 1e-10 for j in range(1, kernel + 1))
        assert basis.gamma_bar(1) == basis.gamma(kernel + 1) > 1.0
        for bad in (lambda: basis.gamma(0), lambda: basis.gamma(9),
                    lambda: basis.gamma_bar(0), lambda: basis.gamma_bar(9 - kernel)):
            with pytest.raises(IndexRangeError):
                bad()

    @pytest.mark.parametrize("kernel, dense", [(1, False), (2, False), (1, True)])
    def test_zero_dim_when_only_kernel_values_are_kept(
        self, ico_ops, two_sphere_mesh, kernel, dense
    ):
        """The zero-mode scale comes from every value solved (the sparse
        pad, the whole dense spectrum), so a basis of kernel values alone
        counts them all."""
        ops = ico_ops(1) if kernel == 1 else assemble_operators(two_sphere_mesh)
        if dense:
            basis = dense_eigenbasis(ops, k=kernel)
        else:
            basis = solve_smallest(ops, kernel, seed=0)
        assert basis.size == basis.zero_dim == kernel

    def test_past_the_end_error_matches_model_spectrum(self, ico_ops):
        basis = solve_smallest(ico_ops(3), 9, seed=0)
        exact = sphere_laplace_spectrum(2, 1.0, 9)
        assert basis.total_count == exact.total_count == 9
        errors = []
        for spectrum in (basis, exact):
            with pytest.raises(IndexRangeError) as exc:
                spectrum.gamma(10)
            errors.append((str(exc.value), exc.value.detail))
        assert errors[0] == errors[1] == (
            "index 10 outside resolved spectrum of length 9",
            {"index": 10, "length": 9},
        )


class TestFinalizeChecks:
    """_finalize no longer re-orthonormalizes; its checks still catch pairs
    that are not M-orthonormal or not eigenpairs."""

    def test_gram_check(self, ico_ops):
        ops = ico_ops(1)
        values, vectors = eigensolve.dla.eigh(
            ops.stiffness.toarray(), ops.mass.toarray()
        )
        vectors[:, 3] *= 1.0 + 1e-6
        with pytest.raises(SolverConvergenceError) as exc:
            eigensolve._finalize(values[:5], vectors[:, :5], ops, tol=1e-8)
        assert exc.value.detail["gram_error"] > eigensolve.GRAM_TOL

    def test_residual_check(self, ico_ops):
        ops = ico_ops(1)
        values, vectors = eigensolve.dla.eigh(
            ops.stiffness.toarray(), ops.mass.toarray()
        )
        values[2] += 1e-6
        with pytest.raises(SolverConvergenceError) as exc:
            eigensolve._finalize(values[:5], vectors[:, :5], ops, tol=1e-8)
        assert exc.value.detail["gram_error"] <= eigensolve.GRAM_TOL
        assert exc.value.detail["worst_residual"] > exc.value.detail["bound"]


class CountingFactorization:
    """Counts factorizations made through ``eigensolve.splu`` (inertia
    counts included) and the solves made with each."""

    def __init__(self, monkeypatch):
        self.factorizations = 0
        self.solves = 0
        real_splu = eigensolve.splu

        def counting_splu(matrix, *args, **kwargs):
            self.factorizations += 1
            lu = real_splu(matrix, *args, **kwargs)
            counter = self

            class Counted:
                def solve(self, rhs, *solve_args):
                    counter.solves += 1
                    return lu.solve(rhs, *solve_args)

                def __getattr__(self, name):  # the inertia count reads U and perm_r
                    return getattr(lu, name)

            return Counted()

        monkeypatch.setattr(eigensolve, "splu", counting_splu)


def assert_residual_contract(ops, basis, tol):
    lv = ops.stiffness @ basis.vectors
    mv = ops.mass_diag[:, None] * basis.vectors
    resid = np.linalg.norm(lv - mv * basis.values, axis=0)
    assert np.all(resid <= tol * np.maximum(1.0, np.linalg.norm(lv, axis=0)))
    assert basis.mass_gram_error <= 1e-8


class TestFactorization:
    @pytest.mark.parametrize("level, k", [(2, 1), (2, 9), (3, 14)])
    def test_one_factorization_per_solve(self, ico_ops, monkeypatch, level, k):
        counter = CountingFactorization(monkeypatch)
        basis = solve_smallest(ico_ops(level), k, seed=0)
        assert counter.factorizations == 1
        assert counter.solves > 0  # ARPACK's shift-invert solves use it
        assert basis.size == k

    def test_polish_reuses_the_factorization(self, ico_ops, monkeypatch):
        """Vectors returned 1e-6 off the eigenspace force polish sweeps; they
        run on the same LU and still meet the residual bound."""
        counter = CountingFactorization(monkeypatch)
        real_eigsh = eigensolve.eigsh
        solves_in_eigsh = []

        def perturbed_eigsh(*args, **kwargs):
            values, vectors = real_eigsh(*args, **kwargs)
            solves_in_eigsh.append(counter.solves)
            noise = np.random.default_rng(0).standard_normal(vectors.shape)
            return values, vectors + 1e-6 * np.max(np.abs(vectors)) * noise

        monkeypatch.setattr(eigensolve, "eigsh", perturbed_eigsh)
        ops = ico_ops(2)
        tol = 1e-9
        basis = solve_smallest(ops, 9, tol=tol, seed=0)
        assert counter.factorizations == 1
        assert counter.solves > solves_in_eigsh[0]  # polish sweeps ran
        assert_residual_contract(ops, basis, tol)


def two_disjoint_icospheres():
    """Two L3 icospheres, the second shifted by 3 along x."""
    verts, faces = icosphere(3)
    return np.vstack([verts, verts + [3.0, 0.0, 0.0]]), np.vstack([faces, faces + len(verts)])


class TestExhaustedPolish:
    """With no polish sweep allowed, the solver still re-extracts once after
    the loop and then applies the residual check to what it has."""

    def test_connected_mesh_needs_no_sweep(self, ico_ops, monkeypatch):
        default = solve_smallest(ico_ops(3), 8, seed=0)
        monkeypatch.setattr(eigensolve, "MAX_POLISH_STEPS", 0)
        bare = solve_smallest(ico_ops(3), 8, seed=0)
        assert np.array_equal(bare.values, default.values)
        assert np.array_equal(bare.vectors, default.vectors)

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_disjoint_spheres_fail_the_residual_check(self, monkeypatch, k):
        """Two components take one or two sweeps; without them the kept
        pairs miss the bound by about an order of magnitude."""
        ops = assemble_operators(mesh_from_arrays(*two_disjoint_icospheres()))
        monkeypatch.setattr(eigensolve, "MAX_POLISH_STEPS", 0)
        with pytest.raises(SolverConvergenceError) as info:
            solve_smallest(ops, k, seed=0)
        detail = info.value.detail
        assert detail["bound"] == 1e-9
        assert 1e-9 < detail["worst_residual"] < 1e-6

    def test_main_exits_3_with_one_json_error(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "two.off"
        write_off(path, *two_disjoint_icospheres())
        monkeypatch.setattr(eigensolve, "MAX_POLISH_STEPS", 0)
        code = main(["spectrum", "--mesh", str(path), "--count", "4"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        doc = json.loads(err)
        assert doc["kind"] == "solver-convergence"
        assert doc["detail"]["worst_residual"] > doc["detail"]["bound"] == 1e-9


def rotated_pencil(values, seed=0):
    """A dense-pattern pencil (L, M) with eigenvalues ``values``:
    L = R Q diag(values) Q^T R with M = R^2 diagonal and Q orthogonal."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    root = np.diag(np.sqrt(rng.uniform(0.5, 2.0, len(values))))
    stiffness = root @ q @ np.diag(values) @ q.T @ root
    return pair(0.5 * (stiffness + stiffness.T), root @ root)


class TestInertia:
    """Sylvester's count of the eigenvalues below a shift, from the signs of
    a symmetric-mode SuperLU factorization's pivots."""

    VALUES = [0.0, 1.0, 2.0, 2.0, 3.0]
    GAPS = {-0.5: 0, 0.5: 1, 1.5: 2, 2.5: 4, 3.5: 5}

    @pytest.mark.parametrize("rotated", [False, True])
    def test_shift_in_a_gap_counts_the_values_below(self, rotated):
        ops = rotated_pencil(self.VALUES) if rotated else pair(np.diag(self.VALUES), np.eye(5))
        assert {s: eigensolve.inertia(ops, s) for s in self.GAPS} == self.GAPS

    @pytest.mark.parametrize("rotated", [False, True])
    def test_shift_on_the_double_eigenvalue_is_rejected(self, rotated):
        """L - 2M is singular: its count is refused, not read as 2 or 4."""
        ops = rotated_pencil(self.VALUES) if rotated else pair(np.diag(self.VALUES), np.eye(5))
        assert eigensolve.inertia(ops, 2.0) is None

    def test_matches_the_dense_count_on_a_mesh(self, ico_ops):
        ops = ico_ops(2)
        values = dense_eigenbasis(ops).values
        gaps = np.flatnonzero(np.diff(values) > 1e-6)[:40]
        for i in gaps:
            assert eigensolve.inertia(ops, 0.5 * (values[i] + values[i + 1])) == i + 1


def padded(k):
    """The request size of a one-window solve of k values."""
    return k + max(8, k // 4)


ONE_WINDOW_K = max(k for k in range(1, eigensolve.WINDOW) if padded(k) <= eigensolve.WINDOW)


@pytest.fixture(scope="module")
def sliced_torus():
    """A 40x20 torus of revolution (800 vertices) and its dense spectrum."""
    verts, faces = torus_of_revolution(1.0, 0.4, 40, 20)
    ops = assemble_operators(mesh_from_arrays(verts, faces))
    return ops, dense_eigenbasis(ops).values


class ShortWindows:
    """Wraps ``eigensolve.eigsh`` to drop the pair nearest the middle of a
    window's values on the calls ``drop(call_number, sigma)`` selects."""

    def __init__(self, monkeypatch, drop):
        self.sigmas = []
        real_eigsh = eigensolve.eigsh

        def short_eigsh(*args, **kwargs):
            values, vectors = real_eigsh(*args, **kwargs)
            self.sigmas.append(kwargs["sigma"])
            if drop(len(self.sigmas), kwargs["sigma"]):
                keep = np.arange(len(values)) != np.argsort(values)[len(values) // 2]
                return values[keep], vectors[:, keep]
            return values, vectors

        monkeypatch.setattr(eigensolve, "eigsh", short_eigsh)


class TestSlicedSolve:
    """A padded request above ``WINDOW`` values is solved in windows, each
    certified by the inertia counts at its edges."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_dense_oracle_across_the_window_size(self, sliced_torus, seed):
        ops, dense = sliced_torus
        window = eigensolve.WINDOW
        for k in (window - 1, window, window + 1, 2 * window):
            basis = solve_smallest(ops, k, seed=seed)
            np.testing.assert_allclose(basis.values, dense[:k], rtol=0, atol=1e-9,
                                       err_msg="k=%d" % k)
            assert basis.zero_dim == 1
            assert_residual_contract(ops, basis, 1e-9)

    def test_reruns_are_bit_identical(self, sliced_torus):
        ops, _ = sliced_torus
        b1 = solve_smallest(ops, 2 * eigensolve.WINDOW, seed=0)
        b2 = solve_smallest(ops, 2 * eigensolve.WINDOW, seed=0)
        assert np.array_equal(b1.values, b2.values)
        assert np.array_equal(b1.vectors, b2.vectors)

    def test_slicing_starts_past_one_window(self, sliced_torus, monkeypatch):
        """Up to ``WINDOW`` padded values the solve is one window: one
        factorization and no inertia count.  One value more and the edges
        are counted."""
        ops, dense = sliced_torus
        counter = CountingFactorization(monkeypatch)
        solve_smallest(ops, ONE_WINDOW_K, seed=0)
        assert counter.factorizations == 1
        basis = solve_smallest(ops, ONE_WINDOW_K + 1, seed=0)
        assert counter.factorizations > 2
        np.testing.assert_allclose(basis.values, dense[:ONE_WINDOW_K + 1], rtol=0, atol=1e-9)

    def test_a_dropped_pair_is_found_by_a_wider_solve(self, sliced_torus, monkeypatch):
        """Window 2's first solve loses a pair inside its edges; its count
        says so, and the wider re-solve returns the dense values."""
        ops, dense = sliced_torus
        short = ShortWindows(monkeypatch, lambda call, sigma: call == 2)
        k = eigensolve.WINDOW + 30
        basis = solve_smallest(ops, k, seed=0)
        assert len(short.sigmas) == 3 and short.sigmas[1] == short.sigmas[2] > 0
        np.testing.assert_allclose(basis.values, dense[:k], rtol=0, atol=1e-9)

    def test_polish_refactors_each_window(self, sliced_torus, monkeypatch):
        """A sliced solve drops its factorizations before the Ritz step.
        When vectors 1e-6 off their eigenspaces need a polish sweep, each
        window is factored again at its own shift, and the pairs meet the
        bound."""
        ops, dense = sliced_torus
        real_eigsh, real_splu = eigensolve.eigsh, eigensolve.splu
        eigsh_calls, factored = [], []

        def perturbed_eigsh(*args, **kwargs):
            values, vectors = real_eigsh(*args, **kwargs)
            eigsh_calls.append(kwargs["sigma"])
            noise = np.random.default_rng(0).standard_normal(vectors.shape)
            return values, vectors + 1e-6 * np.max(np.abs(vectors)) * noise

        def recording_splu(matrix, *args, **kwargs):
            if not kwargs:  # an inertia count passes its options
                factored.append(len(eigsh_calls))
            return real_splu(matrix, *args, **kwargs)

        monkeypatch.setattr(eigensolve, "eigsh", perturbed_eigsh)
        monkeypatch.setattr(eigensolve, "splu", recording_splu)
        k = eigensolve.WINDOW + 30
        basis = solve_smallest(ops, k, seed=0)
        # window 1, window 2 after window 1's solve, both again to polish
        assert factored == [0, 1, 2, 2]
        np.testing.assert_allclose(basis.values, dense[:k], rtol=0, atol=1e-9)
        assert_residual_contract(ops, basis, 1e-9)

    @pytest.mark.parametrize("window", [1, 2])
    def test_a_window_that_stays_short_exits_3(self, sliced_torus, monkeypatch, window):
        """Every solve of one window loses a pair: after ``MAX_WIDEN`` wider
        re-solves the solver raises with the count and what it kept, and
        never returns the short window."""
        ops, _ = sliced_torus
        ShortWindows(monkeypatch, lambda call, sigma: (sigma > 0) == (window == 2))
        with pytest.raises(SolverConvergenceError) as info:
            solve_smallest(ops, eigensolve.WINDOW + 30, seed=0)
        detail = info.value.detail
        assert detail["kept"] == detail["inertia"] - 1 > 0
