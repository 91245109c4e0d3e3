"""Sparse eigensolver against closed forms, a dense oracle, and its own contract."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, splu
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
from specgeom.meshgen import icosphere, random_sphere, torus_of_revolution, write_off
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

    def test_a_basis_owns_exactly_its_pairs(self, ico_ops, sliced_torus):
        """The returned vectors are k columns of their own, on the
        one-window, sliced and dense paths, not a view that keeps the padded
        basis or the whole dense matrix alive."""
        k = eigensolve.WINDOW + 30
        for basis, size in [(solve_smallest(ico_ops(2), 12, seed=0), 12),
                            (solve_smallest(sliced_torus[0], k, seed=0), k),
                            (dense_eigenbasis(ico_ops(2), 10), 10)]:
            assert basis.vectors.base is None
            assert basis.vectors.shape[1] == size

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
    """_finalize checks pairs as they arrive: it catches pairs that are not
    M-orthonormal or not eigenpairs."""

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

    def test_residual_error_names_the_worst_pair_and_its_own_bound(self, ico_ops):
        """Pair 40 of an L2 icosphere misses its bound, 1e-9 ||L v|| = 9.19e-9;
        the detail gave the worst residual beside the smallest bound, 1e-9."""
        ops = ico_ops(2)
        values, vectors = eigensolve.dla.eigh(
            ops.stiffness.toarray(), ops.mass.toarray()
        )
        values = values[:40]
        values[39] *= 1.0 + 2e-9
        with pytest.raises(SolverConvergenceError) as exc:
            eigensolve._finalize(values, vectors[:, :40], ops, tol=1e-9)
        detail = exc.value.detail
        lv_norm = np.linalg.norm(ops.stiffness @ vectors[:, 39])
        assert detail["index"] == 40
        assert detail["bound"] == pytest.approx(1e-9 * lv_norm, rel=1e-12)
        assert detail["bound"] < detail["worst_residual"] < 3 * detail["bound"]


class CountingFactorization:
    """Counts factorizations made through ``eigensolve.splu`` (inertia
    counts included), the solves made with each and, of those, the block
    solves of the polish loop.  Every factorization must keep the pair's
    ordering (``permc_spec="NATURAL"``), as ``eigensolve._factor`` asks."""

    def __init__(self, monkeypatch):
        self.factorizations = 0
        self.solves = 0
        self.block_solves = 0
        real_splu = eigensolve.splu

        def counting_splu(matrix, *args, **kwargs):
            assert kwargs["permc_spec"] == "NATURAL"
            self.factorizations += 1
            lu = real_splu(matrix, *args, **kwargs)
            counter = self

            class Counted:
                def solve(self, rhs, *solve_args):
                    counter.solves += 1
                    counter.block_solves += rhs.ndim == 2
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

    def test_polish_refactors_the_window_shift(self, ico_ops, monkeypatch):
        """Vectors returned 1e-6 off the eigenspace force polish sweeps.  The
        window's factorization is released before the Ritz step, so the
        sweeps factor its shift again, and the pairs still meet the bound."""
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
        assert counter.factorizations == 2
        assert counter.solves > solves_in_eigsh[0]
        assert counter.block_solves > 0  # polish sweeps ran
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


class TestSolverExits:
    """A solve that cannot meet its contract exits 3 with one
    solver-convergence object on stderr and prints nothing."""

    @staticmethod
    def exits_3(capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        doc = json.loads(err)
        assert doc["kind"] == "solver-convergence"
        return doc

    def test_a_singular_shift_invert_factor(self, tmp_path, capsys):
        """Scaled by 2^-11, this random sphere's L + eps M is exactly
        singular to SuperLU at the kernel shift -eps: its RuntimeError
        exited 4 as an internal error."""
        verts, faces = random_sphere(447, 924743817)
        path = tmp_path / "shrunk.off"
        write_off(path, verts * 2.0**-11, faces)
        doc = self.exits_3(capsys, ["spectrum", "--mesh", str(path), "--count", "15"])
        assert doc["message"].startswith("shift-invert factorization at shift -")
        assert list(doc["detail"]) == ["shift"] and doc["detail"]["shift"] < 0.0

    def test_lanczos_without_convergence(self, tmp_path, capsys, monkeypatch):
        """ARPACK's no-convergence error names what it did converge."""
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("stalled", np.zeros(1), np.zeros((162, 1)))

        path = tmp_path / "ico2.off"
        write_off(path, *icosphere(2))
        monkeypatch.setattr(eigensolve, "eigsh", stalled)
        doc = self.exits_3(capsys, ["spectrum", "--mesh", str(path), "--count", "4"])
        assert doc["detail"] == {"converged": 1, "requested": 12}

    def test_no_gap_with_a_clean_inertia_count(self, tmp_path, capsys, monkeypatch):
        """A sliced solve whose every inertia count is refused finds no
        window edge, after its wider re-solves too."""
        path = tmp_path / "ico3.off"
        write_off(path, *icosphere(3))
        monkeypatch.setattr(eigensolve, "inertia", lambda ops, sigma: None)
        doc = self.exits_3(capsys, ["spectrum", "--mesh", str(path), "--count", "150"])
        assert doc["message"] == "no eigenvalue gap above -inf gave a clean inertia count"
        assert doc["detail"]["lo"] == "-inf"


def rotated_icosphere(level, seed=3):
    verts, faces = icosphere(level)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return verts @ q.T, faces


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

    @pytest.mark.parametrize("verts, faces", [
        rotated_icosphere(3),
        torus_of_revolution(1.0, 0.4, 40, 20),
    ], ids=["rotated-L3", "torus-40x20"])
    def test_matches_the_dense_count_at_every_gap(self, verts, faces):
        """Every gap among the first 60 values, counted on the factorization
        in the mesh's nested-dissection order."""
        ops = assemble_operators(mesh_from_arrays(verts, faces))
        values = dense_eigenbasis(ops).values
        gaps = np.flatnonzero(np.diff(values[:60]) > 1e-6)
        assert len(gaps) > 10
        for i in gaps:
            assert eigensolve.inertia(ops, 0.5 * (values[i] + values[i + 1])) == i + 1


class TestFactor:
    """``_factor`` factors the pencil in the pair's ordering and solves in
    vertex order."""

    def test_solves_in_vertex_order(self, ico_ops):
        ops = ico_ops(3)
        assert not np.array_equal(ops.ordering, np.arange(len(ops.ordering)))
        shifted = (ops.stiffness - 7.5 * ops.mass).tocsc()
        factors = eigensolve._factor(ops, 7.5)
        rhs = np.random.default_rng(0).standard_normal((shifted.shape[0], 3))
        for b in (rhs[:, 0], rhs):
            x = factors.solve(b)
            assert x.shape == b.shape
            np.testing.assert_allclose(shifted @ x, b, rtol=0, atol=1e-10)

    def test_fill_below_superlu_default(self, ico_ops):
        """L + U of an L4 factorization stay below SuperLU's COLAMD order."""
        ops = ico_ops(4)
        eps = 1e-8 * ops.stiffness.diagonal().sum() / ops.stiffness.nnz
        ordered = eigensolve._factor(ops, -eps).lu
        default = splu((ops.stiffness + eps * ops.mass).tocsc())
        assert ordered.L.nnz + ordered.U.nnz < default.L.nnz + default.U.nnz


class TestSecondStart:
    """From one start vector ARPACK finds the later copies of a multiple
    eigenvalue only through rounding; the one-window solve's second-start
    block recovers a copy it missed."""

    def test_a_dropped_copy_comes_back(self, ico_ops, monkeypatch):
        ops = ico_ops(2)
        dense = dense_eigenbasis(ops).values
        short = ShortWindows(monkeypatch, lambda call, sigma: True)
        basis = solve_smallest(ops, 20, seed=0)
        assert short.sigmas == [short.sigmas[0]] and short.sigmas[0] < 0
        np.testing.assert_allclose(basis.values, dense[:20], rtol=0, atol=1e-9)
        assert_residual_contract(ops, basis, 1e-9)

    def test_without_it_the_copy_stays_lost(self, ico_ops, monkeypatch):
        ops = ico_ops(2)
        dense = dense_eigenbasis(ops).values
        ShortWindows(monkeypatch, lambda call, sigma: True)
        monkeypatch.setattr(eigensolve, "_krylov",
                            lambda ops, lu, vectors, start, steps: vectors[:, :0])
        basis = solve_smallest(ops, 20, seed=0)
        assert np.max(np.abs(basis.values - dense[:20])) > 1.0

    def test_matches_the_dense_oracle_on_l3(self, ico_ops):
        """k = 1..60 on an L3 icosphere, where ARPACK alone loses a copy at
        k = 27 and k = 60."""
        ops = ico_ops(3)
        dense = dense_eigenbasis(ops, 60).values
        for k in range(1, 61):
            basis = solve_smallest(ops, k, seed=0)
            np.testing.assert_allclose(basis.values, dense[:k], rtol=0, atol=1e-9,
                                       err_msg="k=%d" % k)


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
            if "diag_pivot_thresh" not in kwargs:  # an inertia count pivots on the diagonal
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


class TestRitzStep:
    """Every window's factorization is released before the first Ritz step,
    and each Ritz pass computes its pairs' residual norms once: the last
    pass's norms are the ones checked against the contract."""

    @pytest.fixture(params=["one-window", "sliced", "polished"])
    def case(self, request, ico_ops):
        """(ops, k): an L3 icosphere, the 40x20 torus past one window, and
        two disjoint L3 icospheres, which take polish sweeps."""
        if request.param == "one-window":
            return ico_ops(3), 8
        if request.param == "sliced":
            return request.getfixturevalue("sliced_torus")[0], eigensolve.WINDOW + 1
        return assemble_operators(mesh_from_arrays(*two_disjoint_icospheres())), 8

    def test_no_factorization_is_alive_at_the_ritz_step(self, case, monkeypatch):
        """Before the Ritz step, a factorization is made only while at most
        one other lives (the window's own, during its inertia counts); at
        the Ritz step none is alive."""
        ops, k = case
        real_factor, real_ritz = eigensolve._factor, eigensolve._ritz_extract
        made, alive, living = [], [], []

        def tracked_factor(*args, **kwargs):
            if not alive:
                living.append(sum(ref() is not None for ref in made))
            factors = real_factor(*args, **kwargs)
            made.append(weakref.ref(factors))
            return factors

        def watched_ritz(*args):
            if not alive:  # the first Ritz step
                alive.append([ref for ref in made if ref() is not None])
            return real_ritz(*args)

        monkeypatch.setattr(eigensolve, "_factor", tracked_factor)
        monkeypatch.setattr(eigensolve, "_ritz_extract", watched_ritz)
        solve_smallest(ops, k, seed=0)
        assert made and alive == [[]]
        assert max(living) <= 1

    def test_each_ritz_pass_computes_residuals_once(self, case, monkeypatch):
        ops, k = case
        calls = {"_ritz_extract": 0, "_residual_norms": 0}
        for name in calls:
            real = getattr(eigensolve, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(eigensolve, name, counted)
        basis = solve_smallest(ops, k, seed=0)
        assert calls["_residual_norms"] == calls["_ritz_extract"] >= 1
        assert_residual_contract(ops, basis, 1e-9)


class TestBlockedSteps:
    """The steps after the solve walk the basis in blocks of ``BLOCK``
    bytes: apart from the basis, none holds more than one basis-sized array,
    and each computes what the whole-basis formulas compute."""

    @pytest.fixture(params=["sliced", "one-window"])
    def case(self, request, ico_ops):
        """(ops, k): the 40x20 torus at two windows of values, and an L4
        icosphere (2,562 vertices) at the most values one window takes."""
        if request.param == "sliced":
            return request.getfixturevalue("sliced_torus")[0], 2 * eigensolve.WINDOW
        return ico_ops(4), ONE_WINDOW_K

    def test_each_step_holds_at_most_one_basis(self, case, monkeypatch):
        """Each step's traced peak above its entry is at most 1.1 times its
        n x K basis.  ``BLOCK`` is set to a quarter of the basis, as the
        2 MiB constant is to the 7.4 MiB basis of 192 pairs on the 100x50
        torus; these bases are smaller than one block of that size."""
        ops, k = case
        monkeypatch.setattr(eigensolve, "BLOCK", ops.stiffness.shape[0] * k * 8 // 4,
                            raising=False)
        peaks = {}
        for name, arg in (("_ritz_extract", 1), ("_residual_norms", 2), ("_finalize", 1)):
            real = getattr(eigensolve, name)

            def traced(*args, real=real, name=name, arg=arg, **kwargs):
                entry = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = real(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] - entry
                peaks.setdefault(name, []).append(peak / (8 * args[arg].size))
                return out

            monkeypatch.setattr(eigensolve, name, traced)
        tracemalloc.start()
        try:
            solve_smallest(ops, k, seed=0)
        finally:
            tracemalloc.stop()
        assert sorted(peaks) == ["_finalize", "_residual_norms", "_ritz_extract"]
        assert max(max(ratios) for ratios in peaks.values()) <= 1.1, peaks

    @pytest.fixture
    def basis(self, sliced_torus, monkeypatch):
        """(ops, the pre-Ritz basis of a 2-window solve, the solve's
        result), with blocks of 5 or 6 columns and of about 16 rows of the
        800 x K basis, so that every step takes many blocks."""
        ops, _ = sliced_torus
        n = ops.stiffness.shape[0]
        monkeypatch.setattr(eigensolve, "BLOCK", 8 * 5 * n)
        seen = []
        real = eigensolve._ritz_extract

        def first(ops, vectors):
            seen.append(vectors.copy())
            return real(ops, vectors)

        monkeypatch.setattr(eigensolve, "_ritz_extract", first)
        basis = solve_smallest(ops, 2 * eigensolve.WINDOW, seed=0)
        monkeypatch.setattr(eigensolve, "_ritz_extract", real)
        width = seen[0].shape[1]
        assert {s.stop - s.start for s in eigensolve._blocks(width, n)} == {5, 6}
        assert len(eigensolve._blocks(n, width)) > 2
        return ops, seen[0], basis

    def test_blocked_steps_match_the_whole_basis_formulas(self, basis):
        ops, raw, result = basis
        mass = ops.mass_diag
        # Ritz step
        gram = raw.T @ (raw * mass[:, None])
        ortho = dla.solve_triangular(np.linalg.cholesky(gram), raw.T, lower=True).T
        projected = ortho.T @ (ops.stiffness @ ortho)
        values, _ = dla.eigh(0.5 * (projected + projected.T))
        got, vectors = eigensolve._ritz_extract(ops, raw.copy())
        np.testing.assert_allclose(got, values, rtol=0, atol=1e-13 * np.max(np.abs(values)))
        # the gram of the Ritz vectors, and of the returned pairs
        k = result.size
        gram = vectors.T @ (vectors * mass[:, None])
        np.testing.assert_allclose(eigensolve._gram(vectors, mass), gram, rtol=0, atol=1e-13)
        direct_error = np.max(np.abs(result.vectors.T @ (result.vectors * mass[:, None]) - np.eye(k)))
        assert abs(result.mass_gram_error - direct_error) <= 1e-13
        # the residual norms keep the summation order: bit for bit, also of
        # an F-ordered basis
        for block in (vectors[:, :k], np.asfortranarray(vectors[:, :k])):
            lv = ops.stiffness @ block
            direct = (np.linalg.norm(lv - block * (mass[:, None] * got[None, :k]), axis=0),
                      np.maximum(1.0, np.linalg.norm(lv, axis=0)))
            norms = eigensolve._residual_norms(ops, got[:k], block)
            assert all(np.array_equal(a, b) for a, b in zip(norms, direct))
        # the sign fix compares and negates: bit for bit
        flipped = vectors * np.where(np.arange(vectors.shape[1]) % 3, 1.0, -1.0)
        size = np.abs(flipped)
        lead = np.argmax(size > 1e-6 * size.max(axis=0), axis=0)
        direct = flipped * np.where(flipped[lead, np.arange(flipped.shape[1])] < 0.0, -1.0, 1.0)
        eigensolve._fix_signs(flipped)
        assert np.array_equal(flipped, direct)


class TestRitzExtract:
    """One generalized eigensolve of the projected pencil, rotated over the
    basis in place."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rotates_its_own_input_in_place(self, ico_ops, order):
        """A mixed, non-orthonormal basis of the 8 lowest eigenvectors gives
        back the oracle's values, in the array it was given, in either
        order."""
        ops = ico_ops(2)
        oracle = dense_eigenbasis(ops, 8)
        mix = np.random.default_rng(0).standard_normal((8, 8))
        raw = np.array(oracle.vectors @ mix, order=order)
        values, vectors = eigensolve._ritz_extract(ops, raw)
        assert vectors is raw
        np.testing.assert_allclose(values, oracle.values, rtol=0,
                                   atol=1e-12 * oracle.values[-1])
        gram = vectors.T @ (vectors * ops.mass_diag[:, None])
        assert np.max(np.abs(gram - np.eye(8))) <= eigensolve.GRAM_TOL

    def test_a_zero_column_is_mass_degenerate(self, ico_ops):
        ops = ico_ops(2)
        vectors = dense_eigenbasis(ops, 8).vectors.copy()
        vectors[:, 3] = 0.0
        with pytest.raises(SolverConvergenceError,
                           match="returned basis is numerically mass-degenerate") as exc:
            eigensolve._ritz_extract(ops, vectors)
        assert exc.value.detail == {"gram_error": 1.0}


class TestRelabelling:
    """The values do not depend on how the mesh is written down."""

    @settings(deadline=None, max_examples=30)
    @given(st.integers(150, 450), st.integers(2, 30), st.integers(0, 2**32 - 1))
    def test_relabelled_random_sphere_has_the_same_values(self, n, k, seed):
        """Relabel the vertices, shuffle the faces and rotate each face's
        corners.  k = 1 is left out: its only value is kernel noise."""
        verts, faces = random_sphere(n, seed)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        relabelled = np.argsort(perm)[faces][rng.permutation(len(faces))]
        turns = (np.arange(3) + rng.integers(0, 3, (len(faces), 1))) % 3
        relabelled = np.take_along_axis(relabelled, turns, axis=1)
        values = solve_smallest(assemble_operators(mesh_from_arrays(verts, faces)), k).values
        again = solve_smallest(
            assemble_operators(mesh_from_arrays(verts[perm], relabelled)), k).values
        np.testing.assert_allclose(again, values, rtol=0, atol=1e-12 * np.max(np.abs(values)))


class TestMetamorphic:
    """The values follow the geometry, not the coordinates it is written in."""

    @settings(deadline=None, max_examples=30)
    @given(st.integers(150, 450), st.integers(2, 30), st.integers(0, 2**32 - 1))
    def test_rigid_motion_and_reversed_faces(self, n, k, seed):
        """A rotation plus a translation, and the reversal of every face,
        keep the values."""
        verts, faces = random_sphere(n, seed)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q *= np.sign(np.linalg.det(q))  # a rotation, not a reflection
        values = solve_smallest(assemble_operators(mesh_from_arrays(verts, faces)), k).values
        for moved in [(verts @ q.T + rng.uniform(-3.0, 3.0, 3), faces), (verts, faces[:, ::-1])]:
            again = solve_smallest(assemble_operators(mesh_from_arrays(*moved)), k).values
            np.testing.assert_allclose(again, values, rtol=0,
                                       atol=1e-12 * np.max(np.abs(values)))

    @pytest.mark.xfail(strict=True,
                       reason="the solver's kernel shift and floors do not follow the mesh's scale")
    @pytest.mark.parametrize("n, seed, k", [(150, 0, 2), (447, 924743817, 15),
                                            (446, 590845466, 11)])
    def test_power_of_two_scale(self, n, seed, k):
        """Scaling the coordinates by 2^e scales the values by 4^-e, for
        e = -20..20.  Not yet: the solve fails its checks at e <= -15 on
        the first mesh, SuperLU finds its factor exactly singular at
        e <= -11 on the second, and the third's values at e = 18 are off
        by 6.8e-12 of the largest."""
        verts, faces = random_sphere(n, seed)
        values = solve_smallest(assemble_operators(mesh_from_arrays(verts, faces)), k).values
        wrong = []
        for e in range(-20, 21):
            try:
                scaled = solve_smallest(
                    assemble_operators(mesh_from_arrays(verts * 2.0**e, faces)), k).values
            except (RuntimeError, SolverConvergenceError) as exc:
                wrong.append((e, type(exc).__name__))
                continue
            error = np.max(np.abs(scaled * 4.0**e - values)) / np.max(np.abs(values))
            if error > 1e-12:
                wrong.append((e, error))
        assert wrong == []
