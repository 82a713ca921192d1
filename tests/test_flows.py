from fractions import Fraction

import numpy as np
import pytest

import swnet as sw
from swnet import flows as fl
from swnet import prep
from swnet.errors import Disconnected, InvalidParams, RankDeficient, ZeroZ
from swnet.network import _component_and_parents
from oracles import (
    bitdot, loop_A_basis, loop_B_spanning, loop_divergence, loop_fourier_circulation, mgs_orthonormalize,
    mgs_projector, on_distances, routed_flow, signed_flow_sum_norm_sq_recurrence, unit_flow_int64,
)

TOL = 1e-9


def normalized(v):
    return v / np.linalg.norm(v)


# -- closed forms ------------------------------------------------------------

def test_layer_size_formula():
    assert fl.layer_size(4, (0, 1, 2)) == 4**3
    assert fl.layer_size(2, (0,)) == 2
    assert fl.layer_size(2, (1,)) == 4
    # brute force at n=2, ell=1: layers of sizes 2, 4, 4
    assert prep.prefix_sum_S(2, 1, ()) == Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 4)


def test_flow_norm_closed_forms_match_integer_vectors():
    for n in (2, 4):
        for ell in (0, 1, 2, 3):
            scale = n**ell
            T = fl.unit_flow(n, ell, 0)
            assert Fraction(int(T @ T), scale * scale) == fl.flow_norm_sq(n, ell)
            S = np.array(fl._sum_unit_flows(n, ell), dtype=object)
            assert Fraction(int(S @ S), scale * scale) == fl.flow_sum_norm_sq(n, ell)
            for x in range(1, n):
                TX = sum(
                    (-1) ** bitdot(x, j) * fl.unit_flow(n, ell, j) for j in range(n)
                )
                assert Fraction(int(TX @ TX), scale * scale) == fl.signed_flow_sum_norm_sq(n, ell)


def test_signed_norm_recurrence_equals_closed_form():
    for n in range(2, 65):
        for ell in range(9):
            assert fl.signed_flow_sum_norm_sq(n, ell) == signed_flow_sum_norm_sq_recurrence(n, ell), (n, ell)


def test_specific_norm_values():
    assert fl.flow_norm_sq(2, 1) == Fraction(3, 2)  # 3/n at n=2
    assert fl.flow_norm_sq(2, 2) == Fraction(33, 12)
    assert fl.flow_sum_norm_sq(2, 1) == 4
    assert prep.prefix_sum_S(2, 1, ()) == 1


# -- flows and circulations on the network -------------------------------------

def test_unit_flow_divergence():
    for n, ell in [(2, 1), (2, 2), (4, 1), (4, 2)]:
        net = sw.build(n, ell, 1)
        for j in range(n):
            div = fl.divergence(net, fl.unit_flow(n, ell, j))
            assert div[net.source] == n**ell
            assert div[net.sink(j)] == -(n**ell)
            div[net.source] = div[net.sink(j)] = 0
            assert not div.any()


@pytest.mark.parametrize("n,ell", [(2, 0), (2, 2), (3, 2), (4, 2)])
def test_divergence_equals_the_edge_loop(n, ell):
    net = sw.build(n, ell, 1)
    rng = np.random.default_rng(n + ell)
    ints = rng.integers(-5, 6, net.edge_count)
    assert np.array_equal(fl.divergence(net, ints), loop_divergence(net, ints))
    floats = rng.standard_normal(net.edge_count)
    assert np.abs(fl.divergence(net, floats) - loop_divergence(net, floats)).max() <= 1e-12


def test_routed_flow_averages_to_unit_flow():
    for n, ell in [(2, 1), (4, 2)]:
        total = sum(routed_flow(n, ell, i, 0) for i in range(n))
        assert (total == fl.unit_flow(n, ell, 0)).all()


# non-power-of-two sizes, where the circulations sign by the Helmert rows
HELMERT_SIZES = [(3, 1), (3, 2), (5, 1), (6, 2)]


def test_circulations_have_zero_divergence_everywhere():
    for n, ell in [(2, 1), (2, 2), (4, 1)] + HELMERT_SIZES:
        net = sw.build(n, ell, 1)
        for z in range(1, n):
            for x in range(n):
                div = fl.divergence(net, fl.fourier_circulation(n, ell, z, x))
                assert not div.any()


def test_fourier_circulation_rejects_zero_z():
    with pytest.raises(ZeroZ):
        fl.fourier_circulation(2, 1, 0, 1)
    # a negative index would read a sign row from the end of the table
    for z, x in [(1, -1), (-1, 0), (3, 0), (1, 3)]:
        with pytest.raises(InvalidParams, match="sign rows"):
            fl.fourier_circulation(3, 1, z, x)


def test_circulations_equal_the_block_by_block_oracle():
    for n, ell in [(2, 1), (2, 3), (4, 1), (4, 2), (8, 1), (8, 2)]:
        want = np.stack([loop_fourier_circulation(n, ell, z, x) for z in range(1, n) for x in range(n)])
        rows = fl.circulation_matrix(n, ell)
        assert rows.dtype == np.int64 and np.array_equal(rows, want), (n, ell)
        for k, (z, x) in enumerate((z, x) for z in range(1, n) for x in range(n)):
            assert np.array_equal(fl.fourier_circulation(n, ell, z, x), want[k]), (n, ell, z, x)
    with pytest.raises(InvalidParams):
        fl.circulation_matrix(2, 0)


def test_circulations_pairwise_orthogonal():
    for n, ell in [(2, 1), (2, 2), (4, 1)] + HELMERT_SIZES:
        vecs = [
            fl.fourier_circulation(n, ell, z, x).astype(float)
            for z in range(1, n)
            for x in range(n)
        ]
        for a in range(len(vecs)):
            for b in range(a + 1, len(vecs)):
                assert abs(normalized(vecs[a]) @ normalized(vecs[b])) < TOL


def test_routed_vs_circulation_inner_products():
    # <p_ij, psi_zx> = (-1)^(z.i) (c (-1)^(x.j) + c' A_xj) for constants c, c'
    n, ell = 4, 1
    scale = float(n) ** (ell - 1)
    p = {
        (i, j): routed_flow(n, ell, i, j).astype(float) / scale
        for i in range(n)
        for j in range(n)
    }
    for z in range(1, n):
        for x in range(n):
            psi = fl.fourier_circulation(n, ell, z, x).astype(float) / scale
            probe = []
            for i in range(n):
                for j in range(n):
                    sz = (-1) ** bitdot(z, i)
                    sx = (-1) ** bitdot(x, j)
                    axj = sum(
                        (-1) ** bitdot(x, jp) for jp in range(n) if jp != j
                    )
                    probe.append((p[i, j] @ psi, sz * sx, sz * axj))
            probe = np.array(probe)
            coeff, *_ = np.linalg.lstsq(probe[:, 1:], probe[:, 0], rcond=None)
            assert np.abs(probe[:, 1:] @ coeff - probe[:, 0]).max() < TOL


def test_routed_norm_is_three_blocks():
    # <p_ij, p_ij> = 3 c1, with c1 = 1 at depth 1
    p = routed_flow(2, 1, 0, 1).astype(float)
    assert p @ p == pytest.approx(3.0)


def test_optimal_flow_lsq_examples():
    # depth 0: the single edge carries the whole unit
    net = sw.build(4, 0, 1)
    mask = np.ones(4, dtype=bool)
    theta = fl.optimal_flow_lsq(net, mask, 2)
    want = np.zeros(4)
    want[2] = 1.0
    assert np.abs(theta - want).max() < TOL
    # two disjoint parallel routes split the unit evenly
    net = sw.build(2, 1, 1)
    g = sw.complete(2)
    mask = sw.on_edge_mask(net, sw.GraphOracle(g))
    theta = fl.optimal_flow_lsq(net, mask, 0)
    div = fl.divergence(net, theta)
    assert div[net.source] == pytest.approx(1.0)
    assert div[net.sink(0)] == pytest.approx(-1.0)


def test_optimal_flow_lsq_matches_recursion():
    for n, ell in [(2, 1), (2, 2), (4, 1), (4, 2), (3, 1), (3, 2), (5, 1)]:
        net = sw.build(n, ell, 1)
        mask = np.ones(net.edge_count, dtype=bool)
        for j in range(n):
            lsq = fl.optimal_flow_lsq(net, mask, j)
            rec = fl.unit_flow(n, ell, j).astype(float) / float(n) ** ell
            assert np.abs(lsq - rec).max() < TOL


def test_optimal_flow_lsq_disconnected():
    net = sw.build(2, 0, 1)
    g = sw.from_edges(2, [])
    mask = sw.on_edge_mask(net, sw.GraphOracle(g))
    with pytest.raises(Disconnected):
        fl.optimal_flow_lsq(net, mask, 1)  # sink for vertex 2; edge (1,2) is off


def test_flow_caches_are_bounded():
    for cached, keys in [
        (fl.unit_flow, ((n, 0, j) for n in range(1, 40) for j in range(n))),
        (fl._sum_unit_flows, ((n, 0) for n in range(1, 100))),
    ]:
        bound = cached.cache_info().maxsize
        for key in keys:
            cached(*key)
        assert cached.cache_info().misses > bound
        assert cached.cache_info().currsize <= bound


@pytest.mark.parametrize("cached", [lambda: fl.unit_flow(4, 2, 1), lambda: fl._sum_unit_flows(4, 2)])
def test_cached_flow_vectors_are_read_only(cached):
    # every caller shares the cached array
    v = cached()
    with pytest.raises(ValueError):
        v[0] = 7
    with pytest.raises(ValueError):
        v += 1
    assert cached()[0] != 7


@pytest.mark.parametrize("n, ell", [(16, 3), (8, 4)])
def test_unit_flows_are_int32_and_equal_an_int64_rebuild(n, ell):
    for j in range(n):
        v = fl.unit_flow(n, ell, j)
        assert v.dtype == np.int32
        assert np.array_equal(v, unit_flow_int64(n, ell, j)), j
    total = fl._sum_unit_flows(n, ell)
    assert total.dtype == np.int32
    assert np.array_equal(total, sum(unit_flow_int64(n, ell, j) for j in range(n)))
    # a unit flow carries at most one unit, n^ell scaled, on any edge, so a
    # signed sum of at most n of them stays within n^(ell+1) <= |E|; the
    # plain sum reaches n^ell on the all-zero-tag layer
    assert total.max() == n**ell
    assert n ** (ell + 1) <= (2 * n + 1) ** ell * n


def test_sign_table_is_the_hadamard_rows_at_powers_of_two():
    # the preparers and basis dump keep the bitstring signs (-1)^(x.j)
    for n in (1, 2, 4, 8, 16):
        for x in range(n):
            want = [(-1) ** bitdot(x, j) for j in range(n)]
            assert fl._signs(x, n).tolist() == want, (n, x)


@pytest.mark.parametrize(
    "n, ell", [(n, ell) for n in (3, 5, 6, 7) for ell in (1, 2)] + [(3, 3)],
)
def test_complement_basis_spans_the_complement_of_B_at_any_n(n, ell):
    # Helmert-signed circulations: every member is orthogonal to every
    # column of the spanning set of B, the members are orthonormal, and
    # there are exactly 2|E| + 4 - rank(B) of them, so they span the
    # complement of B.  Largest errors seen, at sinks 0 and n - 1: 1.1e-16
    # against B and 1.2e-14 from orthonormality.  The rank is taken at sink
    # 0 only, as the rank of the Gram matrix B^T B, which sparse B makes cheap
    from scipy import sparse

    net = sw.build(n, ell, 1)
    for j in (n - 1, 0):
        Q = fl.reduced_to_full(net, fl.build_Bperp_basis(net, j))
        B = fl.build_B_spanning(net, j)
        assert np.abs(Q.T @ (B / np.linalg.norm(B, axis=0))).max() < 1e-14, j
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() < 1e-13, j
    sparse_B = sparse.csr_matrix(B)
    rank = np.linalg.matrix_rank((sparse_B.T @ sparse_B).toarray(), hermitian=True)
    assert Q.shape[1] == 2 * net.edge_count + 4 - rank


@pytest.mark.parametrize("n, ell", [(2, 2), (4, 1), (4, 2)])
def test_complement_basis_and_flow_state_are_root_independent(n, ell):
    # they read no query label, which is why basis dump and prep verify take no --root
    for j in range(n):
        basis, flow = fl.build_Bperp_basis(sw.build(n, ell, 1), j), fl.flow_state(sw.build(n, ell, 1), j)
        for root in range(2, n + 1):
            net = sw.build(n, ell, root)
            assert fl.build_Bperp_basis(net, j).tobytes() == basis.tobytes(), (n, ell, root, j)
            assert fl.flow_state(net, j).tobytes() == flow.tobytes(), (n, ell, root, j)


def test_on_distances_match_python_bfs():
    # connectivity is undirected: vertices off the source's monotone paths
    # are reached against edge orientations
    cases = [(seed, n, ell, 0.3) for seed in range(4) for n, ell in [(2, 2), (4, 1), (4, 2), (8, 2), (5, 2), (6, 3)]]
    for seed, n, ell, p in cases + [(0, 16, 3, 0.3), (1, 16, 3, 0.1)]:
        net = sw.build(n, ell, 1 + seed % n)
        mask = sw.on_edge_mask(net, sw.GraphOracle(sw.random_digraph(n, p, seed)))
        want, _ = _component_and_parents(net, mask)
        assert np.array_equal(on_distances(net, mask), want), (seed, n, ell)


def test_flow_decomposition_opt_plus_circulation():
    # any sampled unit flow splits as optimal flow + circulation
    rng = np.random.default_rng(5)
    for n, ell in [(2, 1), (2, 2)]:
        net = sw.build(n, ell, 1)
        mask = np.ones(net.edge_count, dtype=bool)
        opt = fl.optimal_flow_lsq(net, mask, 0)
        circs = np.column_stack(
            [
                fl.fourier_circulation(n, k, z, x).astype(float)
                if k == ell
                else _embed(n, ell, k, b, z, x)
                for k in range(1, ell + 1)
                for b in range((2 * n + 1) ** (ell - k))
                for z in range(1, n)
                for x in range(n)
            ]
        )
        for _ in range(4):
            mix = opt + circs @ rng.normal(size=circs.shape[1])
            resid = mix - opt
            # residual is a circulation: zero divergence
            assert np.abs(fl.divergence(net, resid)).max() < 1e-8
            # and the optimal part is recovered by projecting out circulations
            Q = fl.orthonormalize(circs)
            back = mix - Q @ (Q.T @ mix)
            assert np.abs(back - opt).max() < 1e-8


def _embed(n, ell, k, block, z, x):
    sub = fl.fourier_circulation(n, k, z, x).astype(float)
    out = np.zeros((2 * n + 1) ** ell * n)
    out[block * sub.shape[0] : (block + 1) * sub.shape[0]] = sub
    return out


# -- star states, bases, projectors ---------------------------------------------

def test_star_state_shapes():
    net = sw.build(2, 0, 1)
    s = fl.star_state(net, net.source)
    # source star: the boundary slot
    E = net.edge_count
    assert s[2 * E + 2] == 1.0
    minus = fl.star_state(net, net.sink(0))
    assert minus[0] == -0.5 and minus[1] == 0.5  # single incoming edge
    # antisymmetric star is orthogonal to every symmetric edge vector
    for e in range(E):
        sym_vec = np.zeros(fl.full_dim(net))
        sym_vec[2 * e] = sym_vec[2 * e + 1] = 1.0
        assert abs(minus @ sym_vec) < TOL


def test_A_basis_dimension_and_signs():
    # root 1: edge 0 carries the always-on (1,1) label, edge 1 queries (1,2)
    g = sw.from_edges(2, [(2, 1)])
    net = sw.build(2, 0, 1)
    cols, mask = fl.build_A_basis(net, sw.GraphOracle(g))
    assert cols.shape[1] == net.edge_count + 2
    assert mask.tolist() == [True, False]
    assert cols[1, 0] == -1.0  # on edge: antisymmetric direction
    assert cols[3, 1] == 1.0  # off edge: symmetric direction


def test_bperp_cardinality_and_orthogonality():
    for n, ell in [(2, 1), (2, 2), (4, 1)] + HELMERT_SIZES:
        net = sw.build(n, ell, 1)
        Q = fl.build_Bperp_basis(net, 0)
        assert Q.shape[1] == net.edge_count + 4 - net.vertex_count
        gram = Q.T @ Q
        assert np.abs(gram - np.eye(Q.shape[1])).max() < TOL


def test_dimension_lemmas_by_rank():
    # dim F = |E|+2-|V|, dim C = |E|-|V|+1, dim B- = |V|
    for n, ell in [(2, 1), (2, 2)]:
        net = sw.build(n, ell, 1)
        E, V = net.edge_count, net.vertex_count
        Q = fl.build_Bperp_basis(net, 0)
        assert Q.shape[1] - 2 == E + 2 - V  # flows: drop |s>, |t>
        assert Q.shape[1] - 3 == E - V + 1  # circulations: drop the flow too
        stars = np.column_stack(
            [fl.star_state(net, v, sink_j=0) for v in range(V)]
        )
        assert np.linalg.matrix_rank(stars, tol=1e-10) == V


def test_projector_properties_and_complement():
    net = sw.build(2, 1, 1)
    g = sw.complete(2)
    cols, _ = fl.build_A_basis(net, sw.GraphOracle(g))
    P = fl.projector(cols)
    assert np.abs(P - P.T).max() < 1e-12
    assert np.abs(P @ P - P).max() < 1e-10
    assert round(np.trace(P)) == net.edge_count + 2


def test_projector_rank_deficient_raises():
    cols = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(RankDeficient):
        fl.projector(cols)


def test_projectors_complementary_both_routes():
    # Gram-Schmidt on the cut-space spanning set agrees with I - P(Bperp)
    for n, ell in [(2, 1), (2, 2)]:
        net = sw.build(n, ell, 1)
        for j in range(n):
            P_B = fl.projector(fl.build_B_spanning(net, j))
            P_perp = fl.projector(fl.reduced_to_full(net, fl.build_Bperp_basis(net, j)))
            assert np.linalg.norm(P_B + P_perp - np.eye(P_B.shape[0])) < 1e-8


# -- array builders and QR against the column-at-a-time oracles -------------------

# every size at which tier-1 builds dense projectors
DENSE_SIZES = [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (4, 2), (8, 0), (8, 1), (2, 3)]


@pytest.mark.parametrize("n, ell", DENSE_SIZES)
def test_dense_builders_equal_loop_oracles(n, ell):
    net = sw.build(n, ell, 1 + ell % n)
    g = sw.random_digraph(n, 0.35, n + ell)
    # no network has a self-loop edge, whose signed star an array build
    # could sum differently from star_state's loop
    tail, head = net.struct.edge_ends
    assert np.all(tail != head)
    cols, mask = fl.build_A_basis(net, sw.GraphOracle(g))
    want_cols, want_mask = loop_A_basis(net, sw.GraphOracle(g))
    assert np.array_equal(mask, want_mask) and np.array_equal(cols, want_cols)
    j = n - 1
    span = fl.build_B_spanning(net, j)
    assert np.array_equal(span, loop_B_spanning(net, j))
    Q = fl.build_Bperp_basis(net, j)
    Qf = fl.reduced_to_full(net, Q)
    assert np.array_equal(Qf, np.column_stack([fl.reduced_to_full(net, Q[:, k]) for k in range(Q.shape[1])]))
    for basis in (cols, span, Qf):
        want = mgs_orthonormalize(basis)
        assert np.abs(fl.orthonormalize(basis) - want).max() <= 1e-12
        assert np.abs(fl.projector(basis) - want @ want.T).max() <= 1e-12


def test_rank_deficient_span_equals_gram_schmidt():
    # the signed stars sum to |ls> + |rt>, so appending it leaves the span
    # unchanged, and QR and Gram-Schmidt both name it the first dependent column
    net = sw.build(2, 2, 1)
    span = fl.build_B_spanning(net, 1)
    V, E = net.vertex_count, net.edge_count
    extra = np.zeros(fl.full_dim(net))
    extra[[2 * E + 2, 2 * E + 3]] = 1.0
    dependent = np.column_stack([span, extra])
    for build in (fl.projector, mgs_projector):
        with pytest.raises(RankDeficient, match=f"column {V + E} "):
            build(dependent)


def test_wide_input_is_rank_deficient():
    cols = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(RankDeficient, match="column 2 "):
        fl.orthonormalize(cols)
