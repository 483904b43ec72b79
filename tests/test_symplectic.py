import json

import numpy as np
import pytest

from gaborwf.symplectic import (
    QuadraticHamiltonian,
    SingularSpace,
    flow_matrix,
    hamilton_map,
    is_symplectic,
    ker_re_f,
    poisson_bracket_form,
    poisson_bracket_vanishes,
    propagate_wf_set,
    singular_space,
    standard_symplectic_matrix,
)

J2 = standard_symplectic_matrix(1)


def Q(mat):
    return QuadraticHamiltonian.from_matrix(np.asarray(mat, dtype=complex))


def fd_poisson_bracket(q: QuadraticHamiltonian, X: np.ndarray, h: float = 1e-6) -> complex:
    """Oracle: {f, g} = <J grad f, grad g> with gradients from central
    differences of the quadratic forms themselves."""
    d2 = 2 * q.dim
    J = standard_symplectic_matrix(q.dim)

    def grad(form, X):
        g = np.zeros(d2, dtype=complex)
        for i in range(d2):
            e = np.zeros(d2)
            e[i] = h
            g[i] = (form(X + e) - form(X - e)) / (2 * h)
        return g

    f = lambda Y: Y @ q.Q @ Y
    g = lambda Y: Y @ np.conj(q.Q) @ Y
    return complex(grad(g, X) @ (J @ grad(f, X)))


BRACKET_TRUE_CATALOG = [
    Q(1j * np.eye(2)),
    Q(np.eye(2)),
    Q(np.diag([0.0, 1.0])),
    Q(np.diag([1.0, 0.0])),
    Q(1j * np.array([[2.0, 1.0], [1.0, 2.0]])),
    Q(np.array([[2.0, 0.5], [0.5, 1.0]])),
    Q(1j * np.eye(4)),
]


class TestQuadraticHamiltonian:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Q([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_negative_real_part(self):
        with pytest.raises(ValueError, match="semidefinite"):
            Q([[-1.0, 0.0], [0.0, 1.0]])

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match=r"Q\[1, 0\] must be finite, got \(nan"):
            Q([[1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match=r"Q\[0, 0\] must be finite"):
            Q(np.diag([complex(0.0, np.inf), 1j]))

    def test_accepts_purely_imaginary(self):
        Q(1j * np.eye(2))

    def test_json_roundtrip(self):
        payload = json.dumps({"dim": 1, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 1]]})
        q = QuadraticHamiltonian.from_json(payload)
        assert q.dim == 1
        assert np.allclose(q.Q, np.diag([1.0, 1j]))


class TestHamiltonMap:
    def test_oscillator(self):
        F = hamilton_map(Q(1j * np.eye(2)))
        assert np.allclose(F, 1j * J2)
        assert np.allclose(F.real, 0.0)
        assert np.allclose(F.imag, J2)

    def test_free_evolution_symbol(self):
        F = hamilton_map(Q(np.diag([0.0, 1.0])))
        assert np.allclose(F, [[0.0, 1.0], [0.0, 0.0]])

    def test_identity_symbol(self):
        F = hamilton_map(Q(np.eye(2)))
        assert np.allclose(F, J2)


class TestPoissonBracket:
    def test_closed_form_matches_fd_oracle(self, rng):
        # convention check demanded before trusting the closed form
        for q in [Q(np.diag([1.0, 1j])), Q(1j * np.eye(2)), Q(np.array([[2.0, 0.5], [0.5, 1.0]]))]:
            B = poisson_bracket_form(q)
            for _ in range(5):
                X = rng.standard_normal(2 * q.dim)
                closed = X @ B @ X
                oracle = fd_poisson_bracket(q, X)
                assert abs(closed - oracle) < 1e-5 * max(1.0, abs(oracle))

    def test_oscillator_bracket_vanishes(self):
        assert poisson_bracket_vanishes(Q(1j * np.eye(2)))
        assert poisson_bracket_vanishes(Q(1j * np.eye(4)))

    def test_real_symbol_bracket_vanishes(self):
        assert poisson_bracket_vanishes(Q(np.array([[2.0, 0.5], [0.5, 1.0]])))

    def test_mixed_symbol_bracket_does_not_vanish(self):
        q = Q(np.diag([1.0, 1j]))
        assert not poisson_bracket_vanishes(q)
        # value is 8i*x*xi: check one point explicitly
        val = np.array([1.0, 1.0]) @ poisson_bracket_form(q) @ np.array([1.0, 1.0])
        assert np.isclose(val, 8j)


class TestSingularSpace:
    def test_oscillator_full_space(self):
        s = singular_space(Q(1j * np.eye(2)))
        assert s.subspace_dim == 2
        s4 = singular_space(Q(1j * np.eye(4)))
        assert s4.subspace_dim == 4

    def test_definite_real_part_trivial(self):
        assert singular_space(Q(np.eye(2))).subspace_dim == 0

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-10])
    def test_tolerance_finite_and_non_negative(self, tol):
        # Q = I: a NaN or infinite tol gave a two-dimensional singular space
        for space in (singular_space, ker_re_f):
            with pytest.raises(ValueError, match="tol must be finite and non-negative"):
                space(Q(np.eye(2)), tol)
        assert singular_space(Q(np.eye(2)), 0.0).subspace_dim == 0

    def test_free_symbol_position_axis(self):
        s = singular_space(Q(np.diag([0.0, 1.0])))
        assert s.subspace_dim == 1
        assert abs(abs(s.basis[0, 0]) - 1.0) < 1e-12
        assert abs(s.basis[1, 0]) < 1e-12

    def test_brute_force_membership_oracle(self):
        # scan the unit circle: directions annihilated by every Re F (Im F)^j
        q = Q(np.diag([0.0, 1.0]))
        F = hamilton_map(q)
        mats = [F.real @ np.linalg.matrix_power(F.imag, j) for j in range(2)]
        angles = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        members = []
        for a in angles:
            v = np.array([np.cos(a), np.sin(a)])
            if max(np.linalg.norm((m @ v)) for m in mats) <= 1e-10:
                members.append(v)
        space = singular_space(q)
        assert members
        for v in members:
            assert space.distance(v) < 1e-9

    def test_defining_property(self):
        for q in BRACKET_TRUE_CATALOG + [Q(np.diag([1.0, 1j]))]:
            F = hamilton_map(q)
            space = singular_space(q)
            d2 = 2 * q.dim
            for j in range(d2):
                m = F.real @ np.linalg.matrix_power(F.imag, j)
                scale = max(np.linalg.norm(m), 1e-30)
                for v in space.basis.T:
                    assert np.linalg.norm(m @ v) <= 1e-9 * scale

    def test_bracket_shortcut_consistency(self):
        for q in BRACKET_TRUE_CATALOG:
            assert poisson_bracket_vanishes(q)
            full = singular_space(q)
            short = ker_re_f(q)
            assert full.subspace_dim == short.subspace_dim
            for v in full.basis.T:
                assert short.distance(v) <= 1e-9
            for v in short.basis.T:
                assert full.distance(v) <= 1e-9

    def test_shortcut_differs_when_bracket_fails(self):
        q = Q(np.diag([1.0, 1j]))
        assert not poisson_bracket_vanishes(q)
        assert ker_re_f(q).subspace_dim == 1
        assert singular_space(q).subspace_dim == 0


class TestFlowMatrix:
    def test_rotation_quarter(self):
        m = flow_matrix(Q(1j * np.eye(2)), np.pi / 4)
        assert np.allclose(m, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_time_zero_identity(self):
        for q in (Q(1j * np.eye(2)), Q(np.diag([0.0, 1.0]))):
            assert np.allclose(flow_matrix(q, 0.0), np.eye(2))

    def test_half_period_reflection(self):
        m = flow_matrix(Q(1j * np.eye(2)), np.pi / 2)
        assert np.allclose(m, -np.eye(2), atol=1e-12)

    def test_group_law(self, rng):
        for q in (Q(1j * np.eye(2)), Q(np.diag([0.0, 1.0])), Q(1j * np.array([[2.0, 1.0], [1.0, 2.0]]))):
            for _ in range(4):
                s, t = rng.uniform(-2, 2, 2)
                lhs = flow_matrix(q, s + t)
                rhs = flow_matrix(q, s) @ flow_matrix(q, t)
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_oscillator_flow_symplectic_orthogonal(self):
        for t in (0.1, 0.9, 2.4, -1.3):
            m = flow_matrix(Q(1j * np.eye(2)), t)
            assert is_symplectic(m)
            assert np.allclose(m.T @ m, np.eye(2), atol=1e-12)

    def test_closed_form_matches_exponential(self):
        # the Q = iI branch must agree with the generic matrix exponential
        from scipy.linalg import expm

        for t in (0.3, 1.1):
            assert np.allclose(flow_matrix(Q(1j * np.eye(2)), t), expm(2 * t * J2), atol=1e-12)


class TestIsSymplectic:
    def test_j_is_symplectic(self):
        assert is_symplectic(J2)

    def test_flow_is_symplectic(self):
        from scipy.linalg import expm

        assert is_symplectic(expm(2 * 0.3 * J2))

    def test_scaling_is_not(self):
        assert not is_symplectic(2 * np.eye(2))

    def test_odd_size_is_not(self):
        assert not is_symplectic(np.eye(3))


class TestPropagateSet:
    def test_oscillator_rotation(self):
        out = propagate_wf_set(Q(1j * np.eye(2)), np.pi / 8, [(0.0, 1.0)])
        assert np.allclose(out, [[np.sqrt(0.5), np.sqrt(0.5)]], atol=1e-12)

    def test_definite_part_absorbs_everything(self):
        out = propagate_wf_set(Q(np.eye(2)), 0.7, [(0.0, 1.0), (1.0, 0.0)])
        assert out.shape == (0, 2)

    def test_half_period_reflection(self):
        out = propagate_wf_set(Q(1j * np.eye(2)), np.pi / 2, [(0.0, 1.0)])
        assert np.allclose(out, [[0.0, -1.0]], atol=1e-12)

    def test_time_zero_identity_when_unitary(self, rng):
        dirs = rng.standard_normal((5, 2))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        out = propagate_wf_set(Q(1j * np.eye(2)), 0.0, dirs)
        assert np.allclose(out, dirs, atol=1e-12)

    def test_partial_projection(self):
        # free symbol: only the position axis survives, then flows by shear
        q = Q(np.diag([0.0, 1.0]))
        out = propagate_wf_set(q, 0.5, [(1.0, 0.0), (0.0, 1.0)])
        assert out.shape == (1, 2)
        assert np.allclose(out[0], [1.0, 0.0], atol=1e-9)  # Im F = 0: no motion

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            propagate_wf_set(Q(1j * np.eye(2)), 0.1, [(0.0, 2.0)])

    def test_empty_input(self):
        out = propagate_wf_set(Q(1j * np.eye(2)), 0.1, np.zeros((0, 2)))
        assert out.shape == (0, 2)
