import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmdec import fem, hx
from helmdec.geometry import CATALOG
from helmdec.mesh import build_complex
from helmdec.operators import rh_matrix
from helmdec.trace import surface, tag_trace

JUMPS = (1.0, 1e2, 1e4, 1e6)


@pytest.fixture(scope="module")
def lshape8():
    return build_complex("three_cube_L", 0.125)


def make_system(mesh, alpha, beta, seed=0, spec=("boundary",)):
    t = tag_trace(mesh, list(spec))
    rng = np.random.default_rng(seed)
    rhs = fem.EdgeField(mesh, rng.uniform(-1, 1, mesh.ne))
    rhs.values[t.edge_mask] = 0.0
    prob = hx.ModelProblem(mesh, np.asarray(alpha, float), np.asarray(beta, float), t, rhs)
    return hx.assemble_problem(prob)


def test_assembly_spd_probe(cube4, rng):
    sysm = make_system(cube4, [1.0], [1.0])
    x = rng.standard_normal(sysm.n)
    y = rng.standard_normal(sysm.n)
    assert float(x @ (sysm.A @ x)) > 0
    assert float(x @ (sysm.A @ y)) == pytest.approx(float(y @ (sysm.A @ x)), rel=1e-12)


def test_jump_scales_block_entries_linearly(lshape4):
    t = tag_trace(lshape4, ["boundary"])
    base = hx.assemble_problem(hx.ModelProblem(
        lshape4, np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]), t,
        fem.EdgeField(lshape4, np.zeros(lshape4.ne))))
    big = hx.assemble_problem(hx.ModelProblem(
        lshape4, np.array([1e6, 1.0, 1.0]), np.array([1.0, 1.0, 1.0]), t,
        fem.EdgeField(lshape4, np.zeros(lshape4.ne))))
    K1 = fem.assemble(lshape4, "V", "stiffness",
                      tet_weight=(lshape4.block_of_tet == 0).astype(float))
    free = base.free_edges
    diff = (big.A - base.A) - (1e6 - 1.0) * K1[free][:, free]
    assert abs(diff).max() < 1e-6  # relative to 1e6-scaled entries


def test_nonpositive_coefficient_rejected(cube4, lshape4):
    with pytest.raises(ValueError):
        hx.ModelProblem(cube4, np.array([0.0]), np.array([1.0]), None,
                        fem.EdgeField(cube4, np.zeros(cube4.ne)))
    # one finite value > 0 per block: a short or long array, nan and inf are
    # refused up front, naming the array, the bad index or shape and the
    # block count, not in assembly or the factorization
    zero = fem.EdgeField(lshape4, np.zeros(lshape4.ne))
    ones = np.ones(3)
    for bad, match in (([1.0], r" has shape \(1,\).*3 blocks"),
                       ([1.0] * 4, r" has shape \(4,\).*3 blocks"),
                       ([np.nan, 1.0, 1.0], r"\[0\] = nan: each of the 3 blocks"),
                       ([1.0, np.inf, 1.0], r"\[1\] = inf: each of the 3 blocks")):
        with pytest.raises(ValueError, match="alpha" + match):
            hx.ModelProblem(lshape4, np.array(bad), ones, None, zero)
        with pytest.raises(ValueError, match="beta" + match):
            hx.ModelProblem(lshape4, ones, np.array(bad), None, zero)


def test_hx_apply_probes(cube4, lshape8, rng):
    """The V-cycle preconditioner is linear, symmetric and positive, also
    under a 1e6 jump on the three-level L shape."""
    for sysm in (make_system(cube4, [1.0], [1.0]),
                 make_system(lshape8, [1e6, 1.0, 1.0], [1.0, 1.0, 1.0])):
        pre = hx.HXPreconditioner(sysm)
        assert np.abs(pre(np.zeros(sysm.n))).max() == 0.0
        r1 = rng.standard_normal(sysm.n)
        r2 = rng.standard_normal(sysm.n)
        s12 = float(pre(r1) @ r2)
        s21 = float(r1 @ pre(r2))
        assert abs(s12 - s21) <= 1e-10 * max(abs(s12), 1.0)
        assert float(pre(r1) @ r1) > 0
        lin = pre(2.5 * r1 - 0.7 * r2) - (2.5 * pre(r1) - 0.7 * pre(r2))
        assert np.abs(lin).max() <= 1e-12 * max(1.0, np.abs(pre(r1)).max())


def test_apply_equals_transpose_per_call(lshape8, rng):
    """The cached CSR restrictions give the apply of transposing per call,
    bit for bit."""
    sysm = make_system(lshape8, [1e6, 1.0, 1.0], [1.0, 1.0, 1.0])
    pre = hx.HXPreconditioner(sysm)

    def cycle(vc, b, level=0):
        if level == len(vc.P):
            return vc.solve_coarsest(b)
        A, w, P, k = vc.A[level], vc.w[level], vc.P[level], vc.k
        x = w * b
        x += w * (b - A @ x)
        e = cycle(vc, (P.T @ (b - A @ x).reshape(-1, k)).ravel(), level + 1)
        x += (P @ e.reshape(-1, k)).ravel()
        x += w * (b - A @ x)
        x += w * (b - A @ x)
        return x

    for r in (rng.standard_normal(sysm.n), sysm.b):
        ref = r / pre._diag + pre._B @ cycle(pre._cycle, pre._B.T @ r)
        assert np.array_equal(pre.apply(r), ref)


def _symmetric(A) -> sp.csr_matrix:
    """The symmetric part of a Galerkin product P^T A P, which is symmetric
    in exact arithmetic only: its (i, j) and (j, i) entries are summed in
    different orders."""
    return (0.5 * (A + A.T)).tocsr()


class TwoCycleHX:
    """The preconditioner as two separate auxiliary V-cycles, one on the
    gradient space and one on the vector space, with four transfer
    matrices G, G^T, P, P^T and coarse levels that are Galerkin products
    of the finest: the reference that the one-space apply, on levels
    assembled on their own meshes, must reproduce up to roundoff."""

    class Cycle:
        def __init__(self, A, transfers):
            self.P = transfers
            self.A = [_symmetric(A)]
            for P in transfers:
                self.A.append(_symmetric(P.T @ self.A[-1] @ P))
            self.w = [hx._OMEGA / a.diagonal() for a in self.A[:-1]]
            self.coarse = spla.splu(self.A[-1].tocsc(), **fem._SPD_SPLU)
            self.R = [P.T.tocsr() for P in transfers]

        def __call__(self, b, level=0):
            if level == len(self.P):
                return self.coarse.solve(b)
            A, w, P = self.A[level], self.w[level], self.P[level]
            if b.ndim == 2:
                w = w[:, None]
            x = w * b
            x += w * (b - A @ x)
            x += P @ self(self.R[level] @ (b - A @ x), level + 1)
            x += w * (b - A @ x)
            x += w * (b - A @ x)
            return x

    def __init__(self, sysm):
        mesh = sysm.problem.mesh
        free = sysm.free_nodes
        self.diag = sysm.A.diagonal()
        self.G = fem.gradient_map(mesh)[sysm.free_edges][:, free].tocsr()
        cols = (3 * free[:, None] + np.arange(3)).ravel()
        self.P = rh_matrix(mesh)[sysm.free_edges][:, cols].tocsr()
        self.Gt, self.Pt = self.G.T.tocsr(), self.P.T.tocsr()
        transfers = hx._hierarchy(mesh, free)[1]
        alpha = sysm.problem.alpha[mesh.block_of_tet]
        beta = sysm.problem.beta[mesh.block_of_tet]
        K_b = fem.assemble(mesh, "Z", "stiffness", tet_weight=beta)
        L = (fem.assemble(mesh, "Z", "stiffness", tet_weight=alpha)
             + fem.assemble(mesh, "Z", "mass", tet_weight=beta))
        self.grad = self.Cycle(K_b[free][:, free], transfers)
        self.nodal = self.Cycle(L[free][:, free], transfers)

    def __call__(self, r):
        out = r / self.diag + self.G @ self.grad(self.Gt @ r)
        return out + self.P @ self.nodal((self.Pt @ r).reshape(-1, 3)).ravel()


def test_one_cycle_matches_two_cycle_reference(lshape8, rng):
    """The one-space apply is the two-cycle preconditioner up to the order
    of its sums: applies agree to 1e-14 relative, and PCG takes the same
    number of iterations across the jump sweep."""
    for a in JUMPS:
        sysm = make_system(lshape8, [a, 1.0, 1.0], [1.0, 1.0, 1.0], seed=7)
        pre, ref = hx.HXPreconditioner(sysm), TwoCycleHX(sysm)
        for r in (rng.standard_normal(sysm.n), sysm.b):
            y, y_ref = pre(r), ref(r)
            assert np.abs(y - y_ref).max() <= 1e-14 * np.abs(y_ref).max(), a
        its = [hx.pcg_solve(sysm, m, tol=1e-8).iterations for m in (pre, ref)]
        assert its[0] == its[1], (a, its)


@pytest.mark.parametrize("name", list(CATALOG))
def test_levels_equal_galerkin_products(name):
    """Each level's K_beta and K_alpha + M_beta, assembled on its own mesh
    and free nodes, is the symmetrized Galerkin product of the level above
    (chained from the finest) to 1e-13 of its largest entry, and every
    Galerkin entry outside the assembled pattern is roundoff below that
    bound: on every catalog geometry at h = 1/8, with the boundary trace,
    no trace and one face trace, at alpha_0 = 1 and 1e6.  The cycle keeps
    the operators of its smoothed levels only; the coarsest level's blocks
    are assembled here, on the last level of `hx._hierarchy`, and the
    cycle's coarsest factors solve them."""
    mesh = build_complex(name, 0.125)
    nb = int(mesh.block_of_tet.max()) + 1
    for spec in (["boundary"], None, [surface(mesh).faces[0].name]):
        trace = None if spec is None else tag_trace(mesh, spec)
        for a0 in (1.0, 1e6):
            alpha = np.ones(nb)
            alpha[0] = a0
            sysm = hx.assemble_problem(hx.ModelProblem(
                mesh, alpha, np.ones(nb), trace, fem.EdgeField(mesh, np.zeros(mesh.ne))))
            cycle = hx.HXPreconditioner(sysm)._cycle
            assert len(cycle.A) == len(cycle.w) == len(cycle.P) == 2
            coarse, free = hx._hierarchy(mesh, sysm.free_nodes)[0][-1]
            a, b = alpha[coarse.block_of_tet], np.ones(coarse.nt)
            coarsest = fem._nodal_matrices(coarse, [(b, None), (a, b)], free)
            for lu, A in zip(cycle.coarse, coarsest):  # the blocks the cycle factors
                rhs = A @ np.linspace(1.0, 2.0, A.shape[0])
                assert np.abs(A @ lu.solve(rhs) - rhs).max() <= 1e-10 * np.abs(rhs).max()
            for c in (0, 1):  # K_beta, then K_alpha + M_beta
                galerkin = cycle.A[0][c::4, c::4]
                for P, direct in zip(cycle.P, [A[c::4, c::4] for A in cycle.A[1:]]
                                     + [coarsest[c]]):
                    galerkin = _symmetric(P.T @ galerkin @ P)
                    inside = galerkin.multiply(direct != 0)
                    scale = 1e-13 * abs(galerkin).max()
                    assert abs(direct - inside).max() <= scale, (spec, a0, c)
                    assert abs(galerkin - inside).max() <= scale, (spec, a0, c)


def _assert_smoothers_convergent(pre):
    for A in pre._cycle.A:
        s = sp.diags(1.0 / np.sqrt(A.diagonal()))
        lam = spla.eigsh(s @ A @ s, k=1, which="LA", return_eigenvectors=False)[0]
        assert hx._OMEGA * lam < 2.0, lam


def test_vcycle_smoother_is_convergent_on_every_level(lshape8):
    """omega * lambda_max(D^-1 A_l) < 2 on every smoothed level of the
    auxiliary hierarchy, so the V-cycle is SPD: on the L shape at h = 1/8
    under a 1e6 jump, and on every catalog geometry at h = 1/4 with and
    without a trace, at alpha_0 = 1 and 1e6.  Each level operator is
    block-diagonal over the four node-major components, and level 0 holds
    the scalar nodal operators: K_beta on the gradient component and
    K_alpha + M_beta on each vector component."""
    alpha, beta = np.array([1e6, 1.0, 1.0]), np.ones(3)
    sysm = make_system(lshape8, alpha, beta)
    pre = hx.HXPreconditioner(sysm)
    cycle = pre._cycle
    assert len(cycle.A) == 2  # smoothed at h = 1/8 and 1/4, the direct solve at 1/2
    free = sysm.free_nodes
    aw, bw = alpha[lshape8.block_of_tet], beta[lshape8.block_of_tet]
    K_b = fem.assemble(lshape8, "Z", "stiffness", tet_weight=bw)[free][:, free]
    L = (fem.assemble(lshape8, "Z", "stiffness", tet_weight=aw)
         + fem.assemble(lshape8, "Z", "mass", tet_weight=bw))[free][:, free]
    A0 = cycle.A[0]
    assert A0.shape == (4 * len(free), 4 * len(free))
    for c in range(4):
        for d in range(4):
            if d != c:
                assert A0[c::4, d::4].nnz == 0, (c, d)
        block = A0[c::4, c::4]
        if c == 0:
            assert (block != K_b).nnz == 0
        else:
            assert (block != A0[1::4, 1::4]).nnz == 0
            assert abs(block - L).max() <= 1e-15 * abs(L).max()
    _assert_smoothers_convergent(pre)
    for name in CATALOG:
        mesh = build_complex(name, 0.25)
        nb = int(mesh.block_of_tet.max()) + 1
        for trace in (tag_trace(mesh, ["boundary"]), None):
            for a0 in (1.0, 1e6):
                alpha = np.ones(nb)
                alpha[0] = a0
                prob = hx.ModelProblem(mesh, alpha, np.ones(nb), trace,
                                       fem.EdgeField(mesh, np.zeros(mesh.ne)))
                _assert_smoothers_convergent(hx.HXPreconditioner(hx.assemble_problem(prob)))


def exact_aux_reference(sysm):
    """The same three-term preconditioner with both auxiliary problems
    solved exactly by sparse LU: the beta-weighted Laplacian G^T A G, and
    K_alpha + M_beta on each of the three vector components."""
    mesh = sysm.problem.mesh
    free = sysm.free_nodes
    G = fem.gradient_map(mesh)[sysm.free_edges][:, free]
    cols = (3 * free[:, None] + np.arange(3)).ravel()
    P = rh_matrix(mesh)[sysm.free_edges][:, cols]
    alpha = sysm.problem.alpha[mesh.block_of_tet]
    beta = sysm.problem.beta[mesh.block_of_tet]
    L = (fem.assemble(mesh, "Z", "stiffness", tet_weight=alpha)
         + fem.assemble(mesh, "Z", "mass", tet_weight=beta))[free][:, free]
    lu_g = spla.splu((G.T @ sysm.A @ G).tocsc())
    lu_p = spla.splu(L.tocsc())
    diag = sysm.A.diagonal()
    return lambda r: (r / diag + G @ lu_g.solve(G.T @ r)
                      + P @ lu_p.solve((P.T @ r).reshape(-1, 3)).ravel())


def test_matches_exact_auxiliary_reference(lshape8):
    """Across the jump sweep the V-cycles cost at most 3 iterations over
    exact auxiliary solves, and PCG meets the benchmark's energy-norm bound
    (1e-6 relative against a direct solve)."""
    for a in JUMPS:
        sysm = make_system(lshape8, [a, 1.0, 1.0], [1.0, 1.0, 1.0], seed=7)
        res = hx.pcg_solve(sysm, hx.HXPreconditioner(sysm), tol=1e-8)
        ref = hx.pcg_solve(sysm, exact_aux_reference(sysm), tol=1e-8)
        assert res.converged and ref.converged
        assert abs(res.iterations - ref.iterations) <= 3, (a, res.iterations,
                                                           ref.iterations)
        xd = spla.spsolve(sysm.A.tocsc(), sysm.b)
        e = res.x - xd
        assert np.sqrt(e @ (sysm.A @ e) / (xd @ (sysm.A @ xd))) <= 1e-6, a


def test_only_the_coarsest_level_is_factored(cube2, monkeypatch):
    """No factored matrix is larger than the free nodes at h = 1/2, the
    coarsest level of both auxiliary cycles; trace=None and a one-level
    mesh converge."""
    sizes = []
    splu = spla.splu

    def recording_splu(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    coarsest = int((~tag_trace(cube2, ["boundary"]).node_mask).sum())
    hx.HXPreconditioner(make_system(build_complex("unit_cube", 0.125), [1.0], [1.0]))
    assert sizes and max(sizes) <= coarsest, (sizes, coarsest)
    monkeypatch.undo()

    cube8 = build_complex("unit_cube", 0.125)
    rng = np.random.default_rng(9)
    free = hx.assemble_problem(hx.ModelProblem(
        cube8, np.array([1.0]), np.array([1.0]), None,
        fem.EdgeField(cube8, rng.uniform(-1, 1, cube8.ne))))
    assert free.n == cube8.ne and len(free.free_nodes) == cube8.nv
    one_level = make_system(cube2, [1.0], [1.0])
    for sysm in (free, one_level):
        res = hx.pcg_solve(sysm, hx.HXPreconditioner(sysm), tol=1e-8)
        assert res.converged and res.true_residual <= 1e-6


def test_lanczos_spectrum_matches_dense_eigh(cube4):
    """The Ritz extremes from PCG's own coefficients bound the spectrum of
    the preconditioned operator BA from inside.  At tol 1e-8 they match
    dense eigh: lambda_max to 1e-10 and lambda_min and kappa to 1e-3,
    relative (lambda_max converges first; lambda_min read 1e-4 to 5e-4
    off over seeds 0-2)."""
    sysm = make_system(cube4, [1.0], [1.0], seed=0)
    pre = hx.HXPreconditioner(sysm)
    B = np.column_stack([pre(e) for e in np.eye(sysm.n)])
    C = np.linalg.cholesky(0.5 * (B + B.T))
    lam = np.linalg.eigvalsh(C.T @ sysm.A.toarray() @ C)
    res = hx.pcg_solve(sysm, pre, tol=1e-8)
    assert res.converged and len(res.alphas) == res.iterations
    assert lam[0] * (1 - 1e-12) <= res.lam_min <= lam[0] * (1 + 1e-3)
    assert lam[-1] * (1 - 1e-10) <= res.lam_max <= lam[-1] * (1 + 1e-12)
    assert res.kappa == pytest.approx(lam[-1] / lam[0], rel=1e-3)
    assert np.isnan(hx.pcg_solve(sysm, None, maxit=0).kappa)  # no step, no estimate


def test_pcg_identity_system(cube2):
    n = 50
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(n)

    class Stub:
        A = sp.eye(n, format="csr")
        b = rhs

    res = hx.pcg_solve(Stub, None, tol=1e-12)
    assert res.iterations == 1
    assert np.allclose(res.x, rhs)


def test_pcg_energy_error_monotone(cube4):
    sysm = make_system(cube4, [1.0], [1.0], seed=2)
    import scipy.sparse.linalg as spla

    xstar = spla.spsolve(sysm.A.tocsc(), sysm.b)
    pre = hx.HXPreconditioner(sysm)
    # PCG is deterministic: the run stopped after k steps holds iterate k
    n = hx.pcg_solve(sysm, pre, tol=1e-10).iterations
    errs = []
    for k in range(1, n + 1):
        e = hx.pcg_solve(sysm, pre, tol=1e-10, maxit=k).x - xstar
        errs.append(float(e @ (sysm.A @ e)))
    diffs = np.diff(errs)
    assert np.all(diffs <= 1e-12 * max(errs))


def test_preconditioned_beats_plain(cube4):
    sysm = make_system(cube4, [1.0], [1.0], seed=3)
    pre = hx.HXPreconditioner(sysm)
    it_pre = hx.pcg_solve(sysm, pre, tol=1e-8).iterations
    it_plain = hx.pcg_solve(sysm, None, tol=1e-8, maxit=20000).iterations
    assert it_pre < it_plain


def test_maxit_is_typed_outcome(cube4):
    sysm = make_system(cube4, [1.0], [1.0], seed=4)
    res = hx.pcg_solve(sysm, None, tol=1e-14, maxit=2)
    assert not res.converged
    assert res.iterations == 2


def test_true_residual_is_recomputed(lshape4):
    sysm = make_system(lshape4, [1e6, 1.0, 1.0], [1.0, 1.0, 1.0], seed=6)
    pre = hx.HXPreconditioner(sysm)
    for res in (hx.pcg_solve(sysm, pre, tol=1e-8), hx.pcg_solve(sysm, None, maxit=5)):
        ref = np.linalg.norm(sysm.b - sysm.A @ res.x) / np.linalg.norm(sysm.b)
        assert res.true_residual == pytest.approx(ref, rel=1e-12)


def test_indefinite_system_is_typed_breakdown():
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    for b in ([1.0, 1.0], [1.0, 2.0]):  # zero, then negative curvature d.Ad
        sysm = hx.CurlSystem(None, A, np.arange(2), np.arange(0), np.array(b))
        res = hx.pcg_solve(sysm, None)
        assert not res.converged and res.iterations == 0
        assert res.true_residual == 1.0


def test_jump_sweep_converges(lshape4):
    for a in JUMPS:
        sysm = make_system(lshape4, [a, 1.0, 1.0], [1.0, 1.0, 1.0], seed=5)
        pre = hx.HXPreconditioner(sysm)
        res = hx.pcg_solve(sysm, pre, tol=1e-8)
        assert res.converged, a


def test_gradient_rhs_solve_residual(cube4):
    import scipy.sparse.linalg as spla

    t = tag_trace(cube4, ["boundary"])
    rng = np.random.default_rng(8)
    q = rng.uniform(-1, 1, cube4.nv)
    q[t.node_mask] = 0.0
    rhs = fem.EdgeField(cube4, fem.gradient_map(cube4) @ q)
    prob = hx.ModelProblem(cube4, np.array([1e6]), np.array([1.0]), t, rhs)
    sysm = hx.assemble_problem(prob)
    pre = hx.HXPreconditioner(sysm)
    res = hx.pcg_solve(sysm, pre, tol=1e-10)
    assert res.converged and res.final_residual <= 1e-10
    xd = spla.spsolve(sysm.A.tocsc(), sysm.b)
    assert np.abs(res.x - xd).max() <= 1e-6 * max(np.abs(xd).max(), 1e-300)
    # gradient forcing with alpha >> beta: the solution is curl-free
    full = np.zeros(cube4.ne)
    full[sysm.free_edges] = res.x
    assert fem.norm(fem.EdgeField(cube4, full), "curl_semi") <= 1e-5
