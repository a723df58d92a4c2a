"""Property tests: the boundary-triple identities on random models, the fast
M(z) paths against the LU, and the level stage against the oracle.

Models are half-lines with random mesh, length and well or tabulated
potential, and small square annuli with zero or well potential.  The profile
registered in conftest.py makes the draws deterministic.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from dtnlab import (
    ClassifyConfig,
    DiscreteDomain,
    DomainError,
    Exterior2D,
    HalfLine1D,
    NearSpectrum,
    assemble_operator,
    boundary_adjoint,
    build_domain,
    dtn_matrices,
    dtn_matrix,
    identity_suite,
    make_probes,
    oracle_eigendecomposition,
    poisson_matrix,
    poisson_solve,
    tabulated_potential,
    well_potential,
    window_levels,
    zero_potential,
)
from dtnlab.classify import level_tolerance, visible_multiplicity
from dtnlab.dtn import _dtn_from_gamma, _factor_at

WELL_DOMAIN = build_domain(HalfLine1D(h=0.05, L=20.0))


@st.composite
def halflines(draw, cells=st.integers(3, 120)):
    """A half-line of `cells` cells (3: the two-node banded case) with a random well
    or tabulated potential."""
    h = draw(st.floats(0.05, 1.0))
    dom = build_domain(HalfLine1D(h=h, L=draw(cells) * h))
    if draw(st.booleans()):
        q = well_potential(dom, depth=draw(st.floats(-5.0, 5.0)),
                           width=draw(st.floats(h, dom.interior_coords[-1, 0])))
    else:
        q = tabulated_potential(dom, draw(st.lists(
            st.floats(-10.0, 10.0), min_size=dom.n_interior, max_size=dom.n_interior)))
    return dom, assemble_operator(dom, q)


@st.composite
def tailed_halflines(draw):
    """A half-line (3 cells: the two-node case) with the zero potential, a well
    (one past the last node: a constant tail on every node), or a tabulated
    support on the first s nodes and a constant past it: s = 0 is all tail and
    s = n_I a one-node tail."""
    h = draw(st.floats(0.05, 1.0))
    dom = build_domain(HalfLine1D(h=h, L=draw(st.integers(3, 120)) * h))
    n, last = dom.n_interior, dom.interior_coords[-1, 0]
    kind = draw(st.sampled_from(["zero", "well", "tabulated"]))
    if kind == "zero":
        q = zero_potential(dom)
    elif kind == "well":
        q = well_potential(dom, depth=draw(st.floats(-5.0, 5.0)),
                           width=draw(st.floats(h, last + h)))
    else:
        s = draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))
        q = draw(st.lists(st.floats(-10.0, 10.0), min_size=s, max_size=s))
        q = tabulated_potential(dom, q + [draw(st.floats(-10.0, 10.0))] * (n - s))
    return dom, assemble_operator(dom, q)


@st.composite
def annuli(draw, h=st.just(1.0)):
    L = draw(st.sampled_from([4.5, 5.5, 6.5, 7.5]))
    dom = build_domain(Exterior2D(h=draw(h), a=draw(st.sampled_from([1.5, 2.5])), L=L))
    if draw(st.booleans()):
        q = well_potential(dom, depth=draw(st.floats(-5.0, 5.0)), width=draw(st.floats(-L, L)))
    else:
        q = zero_potential(dom)
    return dom, assemble_operator(dom, q)


models = st.one_of(halflines(), annuli())


def upper(lo=0.2):
    """Spectral parameters with Im z in [lo, 2], a distance lo off the real spectrum."""
    return st.builds(complex, st.floats(-4.0, 4.0), st.floats(lo, 2.0))


@given(models, upper(), upper(), upper())
def test_four_identities(model, lam, zeta, nu_bar):
    _, op = model
    nu = np.conj(nu_bar)
    assume(abs(nu - np.conj(zeta)) > 1e-3)
    assert identity_suite(op, lam, zeta, nu).max_residual <= 1e-10


def _factored(op, z):
    """(gamma(z), M(z)) from the LU at z, or None if it raises NearSpectrum."""
    try:
        return _factor_at(op, z)[1:]
    except NearSpectrum:
        return None


@given(st.one_of(halflines(), halflines(cells=st.just(3)), annuli()),
       st.one_of(st.floats(-4.0, 4.0), st.integers(0, 1000)),
       st.floats(0.2, 2.0), st.floats(0.01, 0.99), st.booleans())
def test_conjugate_parameter_factors_to_conjugates(model, x, height, fraction, near_real):
    # A_II and B are real, so the LU at conj z gives conj gamma(z) and conj M(z)
    # bit for bit, on the gttrs path, the gbtrs path (2D and the two-node
    # half-line) and for near-real z, which raise NearSpectrum at both or
    # neither; so the M(z) table keeps one entry per conjugate pair.  Each
    # side factors on its own operator, so that neither reads the other's
    # table entry.  An integer x picks an eigenvalue of A_II as Re z.
    dom, op = model
    if isinstance(x, int):
        values = np.linalg.eigvalsh(op.a_ii.toarray())
        x = values[x % len(values)]
    z = complex(x, fraction * op.certified_height if near_real else height)
    assert bool(op.certified(z)) is not near_real
    at_z = _factored(op, z)
    at_zbar = _factored(assemble_operator(dom, op.potential), z.conjugate())
    assert (at_z is None) == (at_zbar is None)
    if at_z is not None:
        assert all(np.array_equal(a.conj(), b) for a, b in zip(at_z, at_zbar))


@given(st.one_of(annuli(), halflines(cells=st.just(3))))
def test_band_is_the_permuted_operator(model):
    # ``banded`` holds A_II[perm][:, perm] for a permutation perm, in gbtrf
    # storage (entry (i, j) on row 2k + i - j; the k fill rows on top are zero),
    # with a half-bandwidth k no larger than that of the lexicographic order
    _, op = model
    perm, k, ab = op.banded
    assert np.array_equal(np.sort(perm), np.arange(op.n))
    rows, j = np.indices(ab.shape)
    i = rows - 2 * k + j
    inside = (rows >= k) & (i >= 0) & (i < op.n)
    assert not np.any(ab[~inside])
    unpacked = np.zeros((op.n, op.n), dtype=complex)
    unpacked[i[inside], j[inside]] = ab[inside]
    assert np.array_equal(unpacked, op.a_ii.toarray()[perm][:, perm])
    a = op.a_ii.tocoo()
    assert k <= np.max(np.abs(a.row - a.col))


def _coo_assembly(dom, q):
    """A_II as a COO matrix converted to CSR: the diagonal, then an entry -1/h^2
    for every interior neighbor in the order of the neighbor table."""
    n, h2, nbrs = dom.n_interior, dom.h ** 2, dom.interior_neighbors
    rows = np.concatenate([np.arange(n), np.nonzero(nbrs >= 0)[0]])
    cols = np.concatenate([np.arange(n), nbrs[nbrs >= 0]])
    vals = np.concatenate([2 * dom.dimension / h2 + q, np.full(len(rows) - n, -1.0 / h2)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@given(models)
def test_csr_assembly_matches_the_coo_reference(model):
    # A_II's CSR is built on request, straight from the stencil into canonical
    # form; it must hold the arrays, dtypes included, that the COO route
    # gives, since the band's ordering and every 2D LU are read off them
    dom, op = model
    ref = _coo_assembly(dom, op.potential)
    for name in ("data", "indices", "indptr"):
        got, want = getattr(op.a_ii, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(op.banded[0], reverse_cuthill_mckee(ref, symmetric_mode=True))


@given(st.one_of(halflines(), halflines(cells=st.just(3)), annuli(h=st.sampled_from([1.0, 0.5]))))
def test_stencil_reads_match_the_csr(model):
    # a_norm and tridiagonal read the stencil, not the CSR built on request,
    # and must give what the CSR gives bit for bit: CSR sums a column's
    # entries in ascending row order, and the stencil sums them so
    _, op = model
    assert op.a_norm == abs(op.a_ii).sum(axis=0).max()
    diag, off = op.tridiagonal
    assert np.array_equal(diag, op.a_ii.diagonal()) and np.array_equal(off, op.a_ii.diagonal(1))


@st.composite
def lattice_subsets(draw):
    """Integer lattices in a random order: a random subset of a 1D or 2D box,
    or a serpentine path through a 2D box, with one of its nodes dropped or
    not (dropping an inner node cuts the path in two)."""
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=2)))
    if len(shape) == 2 and draw(st.booleans()):
        keep = np.zeros(shape, dtype=bool)
        keep[::2] = True
        turns = np.arange(1, shape[0], 2)          # the odd rows join the even ones
        keep[turns, np.where(turns % 4 == 1, shape[1] - 1, 0)] = True
        nodes = np.argwhere(keep)
        if draw(st.booleans()):
            nodes = np.delete(nodes, draw(st.integers(0, len(nodes) - 1)), axis=0)
    else:
        density = draw(st.floats(0.3, 1.0))
        cells = draw(st.lists(st.floats(0.0, 1.0), min_size=int(np.prod(shape)),
                              max_size=int(np.prod(shape))))
        nodes = np.argwhere(np.reshape(cells, shape) < density)
    assume(len(nodes))
    return nodes[draw(st.permutations(range(len(nodes))))]


@given(lattice_subsets())
@example(np.arange(9)[:, None])
@example(np.array([[0], [2]]))
def test_connectivity_check_matches_csgraph(nodes):
    # validate checks connectivity by array passes over the neighbor table;
    # its verdict must be SciPy's connected_components' on the same graph
    empty = np.empty((0, nodes.shape[1]), dtype=int)
    dom = DiscreteDomain(h=1.0, interior_lattice=nodes, boundary_lattice=empty,
                         truncation_lattice=empty)
    nbrs = dom.interior_neighbors
    has = nbrs >= 0
    graph = sp.csr_matrix((np.ones(has.sum()), nbrs[has],
                           np.concatenate([[0], np.cumsum(has.sum(axis=1))])),
                          shape=(len(nodes),) * 2)
    if connected_components(graph, directed=False)[0] == 1:
        dom.validate()
    else:
        with pytest.raises(DomainError, match="interior adjacency graph is not connected"):
            dom.validate()


@given(st.one_of(halflines(), halflines(cells=st.just(3))),
       st.lists(st.tuples(st.one_of(st.floats(-4.0, 4.0), st.integers(0, 1000)),
                          st.floats(0.0, 10.0), st.booleans(),
                          st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                min_size=1, max_size=8),
       st.one_of(st.none(), st.floats(0.0, 0.99)))
def test_resolvent_sum_matches_lu(model, draws, uncertified):
    # sum_j w_j (A_II - z_j)^-1 from the continued-fraction pivots against the
    # LU's identity solves, for |Im z| from certified_height up by 10 decades
    # on either side of the real axis; an integer draw puts Re z on an
    # eigenvalue.  Both are backward stable, so they may differ by the
    # first-order term u*||A||_1*||G_j||^2 per node.  With `uncertified` one more
    # z sits that fraction of certified_height off the real axis: it is
    # factorized as before and raises NearSpectrum at both or neither.  The
    # sum is real, Re sum_j w_j (A_II - z_j)^-1; with the weights -i w_j it is
    # the imaginary part, so both parts are checked against the reference.
    _, op = model
    values = np.linalg.eigvalsh(op.a_ii.toarray())
    xs = [values[x % len(values)] if isinstance(x, int) else x for x, *_ in draws]
    zs = [complex(x, (1 if up else -1) * op.certified_height * 10 ** e)
          for x, (_, e, up, *_) in zip(xs, draws)]
    ws = np.array([complex(re, im) for *_, re, im in draws])
    if uncertified is not None:
        zs.append(complex(xs[0], uncertified * op.certified_height))
        ws = np.append(ws, ws[0])
    eye = np.eye(op.n)
    try:
        ref = sum(w * op.factorize(z).solve(eye) for z, w in zip(zs, ws))
    except NearSpectrum:
        with pytest.raises(NearSpectrum):
            op.resolvent_sum(zs, ws)
        return
    norms = [1.0 / np.min(np.abs(values - z)) for z in zs]     # ||(A_II - z)^-1||_2
    bound = sum(abs(w) * (1e-12 * g + 2 * np.finfo(float).eps * op.a_norm * g ** 2)
                for w, g in zip(ws, norms))
    # Re(-i ref) is ref.imag exactly
    assert np.max(np.abs(op.resolvent_sum(zs, ws) - ref.real)) <= bound
    assert np.max(np.abs(op.resolvent_sum(zs, -1j * ws) - ref.imag)) <= bound


def _defect_against_lu(op, zs, ws):
    """((max |resolvent_sum - Re LU reference| for the weights ws, the same for
    -i ws), bound), with the reference and bound of
    test_resolvent_sum_matches_lu; floats only, so that the traceback of a
    failing draw holds no (n, n) array."""
    values = eigvalsh_tridiagonal(*op.tridiagonal)
    eye = np.eye(op.n)
    ws = np.asarray(ws, dtype=complex)
    ref = sum(w * op.factorize(z).solve(eye) for z, w in zip(zs, ws))
    norms = [1.0 / np.min(np.abs(values - z)) for z in zs]
    bound = sum(abs(w) * (1e-12 * g + 2 * np.finfo(float).eps * op.a_norm * g ** 2)
                for w, g in zip(ws, norms))
    # Re(-i ref) is ref.imag exactly
    defects = (float(np.max(np.abs(op.resolvent_sum(zs, ws) - ref.real))),
               float(np.max(np.abs(op.resolvent_sum(zs, -1j * ws) - ref.imag))))
    return defects, bound


weights = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
LONG_HALFLINE = build_domain(HalfLine1D(h=0.01, L=20.0))


@settings(max_examples=5)
@given(st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.0, 10.0), st.booleans(), weights),
                min_size=1, max_size=2),
       st.floats(-5.0, 5.0))
def test_resolvent_sum_on_a_long_halfline(draws, depth):
    # n = 1999 interior nodes: the row blocks of the certified sum need not
    # divide n, and at the lower heights one block spans the whole half-line
    op = assemble_operator(LONG_HALFLINE, well_potential(LONG_HALFLINE, depth=depth, width=1.0))
    assert op.n == 1999
    zs = [complex(x, (1 if up else -1) * op.certified_height * 10 ** e)
          for x, e, up, _ in draws]
    defects, bound = _defect_against_lu(op, zs, [w for *_, w in draws])
    assert max(defects) <= bound


@given(st.one_of(halflines(), halflines(cells=st.just(3))),
       st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.05, np.pi - 0.05), st.booleans(),
                          weights), min_size=1, max_size=8))
def test_resolvent_sum_far_off_the_spectrum(model, draws):
    # |z| up to 1e4 ||A_II||_1, where the ratios G_(i+1, j) / G_(i, j) are of
    # order 1e-4: the row blocks are short, and the products between distant
    # blocks underflow to zero
    _, op = model
    zs = [op.a_norm * 10 ** r * np.exp(1j * (theta if up else -theta))
          for r, theta, up, _ in draws]
    defects, bound = _defect_against_lu(op, zs, [w for *_, w in draws])
    assert max(defects) <= bound


@given(st.one_of(halflines(), halflines(cells=st.just(3))),
       st.lists(st.tuples(st.integers(0, 1000), st.floats(1.0, 1.5), st.booleans(), weights),
                min_size=1, max_size=8))
def test_resolvent_sum_at_the_certified_height(model, draws):
    # Re z on an eigenvalue and |Im z| within 1.5 times the certified height:
    # the nearest certified z, where ||G|| is largest
    _, op = model
    values = eigvalsh_tridiagonal(*op.tridiagonal)
    zs = [complex(values[k % len(values)], (1 if up else -1) * op.certified_height * f)
          for k, f, up, _ in draws]
    assert op.certified(zs).all()
    defects, bound = _defect_against_lu(op, zs, [w for *_, w in draws])
    assert max(defects) <= bound


@given(st.one_of(halflines(), halflines(cells=st.just(3))),
       st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.0, 10.0), st.booleans(),
                          st.integers(-15, 15), st.integers(-15, 15)), min_size=1, max_size=8))
def test_subnormal_weights_round_once(model, draws):
    # weights of a few units of the least subnormal, 2^-1074: below the
    # diagonal the certified sum is that of the unit weights scaled down and
    # rounded once, as the LU reference rounds each Re(w (A_II - z)^-1) once;
    # the weights -i w give the imaginary part
    _, op = model
    zs = [complex(x, (1 if up else -1) * op.certified_height * 10 ** e) for x, e, up, *_ in draws]
    ws = np.array([complex(re, im) for *_, re, im in draws])
    assume(np.any(ws))
    below = np.tri(op.n, k=-1, dtype=bool)
    for phased in (ws, -1j * ws):
        tiny = op.resolvent_sum(zs, phased * 2.0 ** -1074)[below]
        unit = op.resolvent_sum(zs, phased)[below]
        assert np.array_equal(tiny, np.ldexp(unit, -1074))


@given(models,
       st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-1.0, 10.0), st.booleans()),
                min_size=1, max_size=6),
       st.integers(1, 4), st.data())
def test_stacked_weights_give_the_sums_of_single_rows(model, draws, k, data):
    # one call with k weight rows over the same z gives, row by row, the sum
    # of a call with that row alone, bit for bit.  A zero weight drops its z
    # from the row; a z below the certified height is factorized once for the
    # call whatever its weights, so NearSpectrum is raised by both or neither.
    _, op = model
    zs = [complex(x, (1 if up else -1) * op.certified_height * 10 ** e) for x, e, up in draws]
    rows = np.array([[data.draw(st.one_of(st.just(0j), weights)) for _ in zs]
                     for _ in range(k)])
    try:
        stacked = op.resolvent_sum(zs, rows)
    except NearSpectrum:
        with pytest.raises(NearSpectrum):
            op.resolvent_sum(zs, rows[0])
        return
    assert stacked.shape == (k, op.n, op.n)
    for row, total in zip(rows, stacked):
        assert np.array_equal(total, op.resolvent_sum(zs, row))


@given(st.one_of(halflines(), halflines(cells=st.just(3)), annuli()))
def test_oracle_matches_dense(model):
    # the oracle (stevd on the stored tridiagonal, in 2D with the vectors
    # brought back by the reduction's reflectors) against the dense eigh of
    # the symmetrized A_II: the same values and degeneracy groups to 1e-12 of
    # ||A_II||_1, w_I-orthonormal vectors, and a residual of each (w_I-unit)
    # vector within 1e-12 of ||A_II||_1
    dom, op = model
    a = op.a_ii.toarray()
    a = 0.5 * (a + a.T)
    values = np.linalg.eigh(a)[0]
    eig = oracle_eigendecomposition(op)
    tol = 1e-12 * op.a_norm
    assert np.max(np.abs(eig.values - values)) <= tol
    breaks = np.flatnonzero(np.diff(values) > 1e-8 * max(values[-1] - values[0], 1.0)) + 1
    assert eig.groups == tuple(tuple(g.tolist()) for g in np.split(np.arange(op.n), breaks))
    gram = dom.interior_weight * (eig.vectors.T @ eig.vectors)
    assert np.max(np.abs(gram - np.eye(op.n))) <= 1e-12
    residuals = a @ eig.vectors - eig.vectors * eig.values
    assert np.max(np.sqrt(dom.interior_weight) * np.linalg.norm(residuals, axis=0)) <= tol


@given(models, upper(0.05), st.data())
def test_herglotz_identity(model, lam, data):
    # Im (M g, g) = -Im(lam) ||gamma g||^2, criterion 2's identity
    dom, op = model
    parts = st.lists(st.floats(-1.0, 1.0), min_size=dom.n_boundary, max_size=dom.n_boundary)
    g = np.array(data.draw(parts)) + 1j * np.array(data.draw(parts))
    assume(np.linalg.norm(g) > 1e-3)
    lhs = dom.boundary_inner(dtn_matrix(op, lam) @ g, g).imag
    rhs = -lam.imag * dom.interior_norm(poisson_solve(op, lam, g)) ** 2
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


@given(models, upper(0.05))
def test_conjugate_symmetry(model, lam):
    # M(conj z) = M(z)* in the weighted boundary product
    dom, op = model
    m = dtn_matrix(op, lam)
    defect = np.max(np.abs(dtn_matrix(op, np.conj(lam)) - boundary_adjoint(dom, m)))
    assert defect <= 1e-12 * max(np.max(np.abs(m)), 1.0)


@given(models, st.lists(st.builds(complex, st.floats(-4.0, 4.0), st.floats(1e-6, 1.0)),
                        min_size=1, max_size=8), st.booleans())
def test_continued_fraction_matches_lu(model, zs, lower):
    # The dtn_matrices fill (continued fraction in 1D, tridiagonal reduction
    # in 2D) against the LU (poisson_matrix).  All are backward
    # stable, so beside a pole they may differ by the first-order perturbation
    # term u*||A||_1*||gamma||^2, with ||gamma||^2 = |Im M| / |Im z| by the
    # Herglotz identity: 1.8e-8 relative on a pole at Im z = 1e-6 with
    # h = 0.05.  Off the poles it is below 1e-10.  In 2D the bound is taken
    # norm-wise: near-zero entries of M carry the rounding of the large ones.
    dom, op = model
    zs = np.conj(zs) if lower else np.array(zs)
    m, lengths, failures = dtn_matrices(op, zs)
    assert lengths.tolist() == [len(zs)] and failures == [None]
    eps = np.finfo(float).eps
    for z, mz in zip(zs, m[0]):
        ref = _dtn_from_gamma(op, poisson_matrix(op, z))
        if dom.dimension == 1:
            perturbation = eps * op.a_norm * np.abs(ref.imag) / abs(z.imag)
            assert np.all(np.abs(mz - ref) <= 1e-10 * np.abs(ref) + 2 * perturbation)
        else:
            perturbation = eps * op.a_norm * np.linalg.norm(ref.imag, 2) / abs(z.imag)
            assert (np.linalg.norm(mz - ref, 2)
                    <= 1e-10 * np.linalg.norm(ref, 2) + 2 * perturbation)


def _line(h, cells, q):
    dom = build_domain(HalfLine1D(h=h, L=cells * h))
    return dom, assemble_operator(dom, q(dom))


@given(st.one_of(tailed_halflines(), halflines(), halflines(cells=st.just(3))),
       st.lists(st.tuples(st.one_of(st.floats(-4.0, 4.0), st.integers(0, 1000),
                                    st.tuples(st.floats(-50.0, 60.0))),
                          st.floats(0.0, 7.0)), min_size=1, max_size=6))
# all tail, far off the band on either side; a one-node tail; the two-node half-line
@example(_line(1.0, 120, zero_potential), [((60.0,), 0.0), ((-50.0,), 2.0), (3, 0.0)])
@example(_line(0.05, 400, lambda dom: np.arange(dom.n_interior) % 2),
         [((0.5,), 0.0), (0.3, 1.0), (7, 0.0)])
@example(_line(0.5, 3, lambda dom: [1.0, -2.0]), [(1, 0.0), ((70.0,), 0.0), ((-60.0,), 0.0)])
def test_closed_tail_matches_the_recurrence_and_lu(model, draws):
    # The half-line trace resolvent, the continued fraction over the
    # potential's support started from the free tail's closed form, against
    # the backward continued fraction over every row and against
    # P^T (A_II - z)^-1 P by the LU, at certified z from the certified height
    # up (Re z: an integer picks an eigenvalue of A_II, a 1-tuple (f,) is f/h^2,
    # across and far off the band [0, 4/h^2]): to 1e-11 relative beside the
    # first-order term u*||A_II||_1*|Im G|/|Im z| by which two backward stable
    # evaluations may differ (test_continued_fraction_matches_lu); and each
    # z's value is, byte for byte, that of a call with that z alone
    dom, op = model
    values = eigvalsh_tridiagonal(*op.tridiagonal)

    def real_part(x):
        if isinstance(x, tuple):
            return x[0] / dom.h ** 2
        return values[x % len(values)] if isinstance(x, int) else x

    zs = np.array([complex(real_part(x), op.certified_height * 10 ** lift) for x, lift in draws])
    got = op.trace_resolvent(zs)[:, 0, 0]
    diag, off = op.tridiagonal
    t = diag[-1] - zs
    for d, e in zip(diag[-2::-1], off[::-1]):
        t = d - zs - e * e / t
    lu = np.array([op.factorize(z).solve(dom.incidence.astype(complex))[0, 0] for z in zs])
    eps = np.finfo(float).eps
    for ref in (1 / t, lu):
        perturbation = eps * op.a_norm * np.abs(ref.imag) / zs.imag
        assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref) + 2 * perturbation)
    for z, g in zip(zs, got):
        assert op.trace_resolvent([z])[0, 0].tobytes() == g.tobytes()


@given(models, st.floats(-4.0, 4.0), st.floats(0.05, 2.0), st.floats(0.01, 0.99))
def test_conjugate_pairs_bit_for_bit(model, x, height, fraction):
    # M(conj z) = conj M(z) bit for bit on every path that forms M, except that
    # a zero may flip its sign (x = 4 on the annuli): the fill at a certified
    # z (the closed-tail continued fraction in 1D, the pole-residue form in
    # 2D) and the LU at a non-real uncertified one.  So the M(z) table, which
    # forms M only at the pair's z with Im z >= 0, returns at conj z what the
    # path gives there
    dom, op = model
    z = complex(x, height)
    block = op.trace_resolvent([z, z.conjugate()])
    assert np.array_equal(block[1], block[0].conj())
    scale = 1.0 / (dom.neighbor_counts[:, None] * dom.h ** 3)
    fresh = assemble_operator(dom, op.potential)
    assert np.array_equal(dtn_matrix(fresh, z.conjugate()),
                          np.eye(dom.n_boundary) / dom.h - scale * block[1])
    assert dtn_matrix(fresh, z.conjugate()).tobytes() == dtn_matrix(fresh, z).conj().tobytes()

    w = complex(x, fraction * op.certified_height)
    assert not op.certified(w) and w.imag
    try:
        by_lu = [_dtn_from_gamma(op, poisson_matrix(op, v)) for v in (w, w.conjugate())]
    except NearSpectrum:
        return
    assert np.array_equal(by_lu[1], by_lu[0].conj())
    fresh = assemble_operator(dom, op.potential)
    assert np.array_equal(dtn_matrix(fresh, w.conjugate()), by_lu[1])
    assert dtn_matrix(fresh, w).tobytes() == by_lu[0].tobytes()


@settings(max_examples=40)
@given(annuli(h=st.sampled_from([1.0, 0.5])),
       st.lists(st.builds(complex, st.floats(-4.0, 36.0), st.floats(0.05, 2.0)),
                min_size=1, max_size=6), st.booleans())
def test_trace_resolvent_matches_lu(model, zs, lower):
    # The 2D trace resolvent, sum_k U_k U_k^T / (lam_k - z) from the
    # reduction's eigenpairs, against P^T (A_II - z)^-1 P by the banded LU at
    # certified z, to 1e-12 relative norm-wise (the first-order term
    # u*||A_II||_1*||(A_II - z)^-1 P||^2 stays far below it at |Im z| >= 0.05);
    # and each z's block is, byte for byte, that of a call with that z alone
    dom, op = model
    zs = np.conj(zs) if lower else np.array(zs)
    blocks = op.trace_resolvent(zs)
    p = dom.incidence.astype(complex)
    for z, block in zip(zs, blocks):
        assert op.certified(z)
        ref = dom.incidence.T @ op.factorize(z).solve(p)
        assert np.linalg.norm(block - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)
        assert block.tobytes() == op.trace_resolvent([z])[0].tobytes()


def test_reduction_at_degenerate_level():
    # z = 4 + 1e-9i beside the degenerate level 4 of the a = 2.5, L = 4.5
    # annulus, where a backward block recursion on a Lanczos reduction loses
    # all accuracy; the pole-residue form from the Householder reduction's
    # eigenpairs (stevd) stays within the first-order term of the norm-wise
    # bound above: within the degenerate eigenspace the products U_ka U_kb sum
    # to its projection, whichever basis stevd returns.  The reference is the
    # dense eigendecomposition.
    dom = build_domain(Exterior2D(h=1.0, a=2.5, L=4.5))
    op = assemble_operator(dom, zero_potential(dom))
    z = 4 + 1e-9j
    values, vectors = np.linalg.eigh(op.a_ii.toarray())
    c = vectors.T @ dom.incidence
    ref = (np.eye(dom.n_boundary) / dom.h
           - (c.T @ (c / (values - z)[:, None])) / (dom.neighbor_counts[:, None] * dom.h ** 3))
    perturbation = np.finfo(float).eps * op.a_norm * np.linalg.norm(ref.imag, 2) / z.imag
    m = (np.eye(dom.n_boundary) / dom.h
         - op.trace_resolvent([z])[0] / (dom.neighbor_counts[:, None] * dom.h ** 3))
    defect = np.linalg.norm(m - ref, 2)
    assert defect <= 1e-10 * np.linalg.norm(ref, 2) + 2 * perturbation


def _two_node_line():
    dom = build_domain(HalfLine1D(h=1.0, L=3.0))
    return dom, assemble_operator(dom, zero_potential(dom))


@given(st.one_of(halflines(), halflines(cells=st.just(3))), st.floats(-0.2, 1.2),
       st.floats(1e-3, 0.3))
@example(_two_node_line(), 0.2, 0.3)     # (1.4, 2.0): between T1's levels 1 and 3
@example(_two_node_line(), 1.1, 0.1)     # (3.2, 3.4): above the top of the spectrum
@example(_two_node_line(), -0.1, 0.2)    # (0.8, 1.2): the level 1 alone
def test_interval_oracle_is_the_whole_oracle_there(model, start, length):
    # an interval of the spectrum's range, placed from below the bottom to
    # above the top, possibly holding no eigenvalue: the interval oracle's
    # levels are the whole oracle's levels in it, within level_tolerance, with
    # the same multiplicities and visible multiplicities, so the cross-check
    # reads the same levels, multiplicities and invisible flags from either
    dom, op = model
    full = oracle_eigendecomposition(op)
    bottom, top = full.values[0], full.values[-1]
    interval = (bottom + start * (top - bottom), bottom + (start + length) * (top - bottom))
    tol = level_tolerance(op)
    levels = full.values[[g[0] for g in full.groups]]
    assume(np.min(np.abs(levels[:, None] - interval)) > tol)
    eig = oracle_eigendecomposition(op, interval)
    inside = [k for k, lam in enumerate(levels) if interval[0] < lam <= interval[1]]
    assert eig.vectors is None
    np.testing.assert_allclose(eig.values[[g[0] for g in eig.groups]], levels[inside],
                               rtol=0, atol=tol)
    assert [len(g) for g in eig.groups] == [len(full.groups[k]) for k in inside]
    visible = visible_multiplicity(dom, full)
    assert visible_multiplicity(dom, eig) == [visible[k] for k in inside]


@settings(max_examples=20)
@given(st.floats(0.0, 8.0), st.floats(0.3, 3.0), st.floats(-0.5, 1.0))
def test_window_levels_are_the_oracle_levels(depth, width, lo):
    # 1D wells as in the well sweep (h = 0.05, L = 20), a window of length 0.5:
    # the levels inside it, to 1e-9, each with the oracle's multiplicity
    op = assemble_operator(WELL_DOMAIN, well_potential(WELL_DOMAIN, depth=depth, width=width))
    eig = oracle_eigendecomposition(op)
    window = (lo, lo + 0.5)
    assume(np.min(np.abs(eig.values[:, None] - np.array(window))) > 1e-6)
    cfg = ClassifyConfig(eta0=1e-2, pole_match_radius=0.025, window_half_width=0.05)
    found = [level for level in window_levels(op, window, make_probes(WELL_DOMAIN, "basis"), cfg)
             if window[0] < level.pole < window[1]]
    oracle = [g for g in eig.groups if window[0] < eig.values[g[0]] < window[1]]
    assert [level.rank for level in found] == [len(g) for g in oracle]
    assert all(abs(level.pole - eig.values[g[0]]) <= 1e-9 for level, g in zip(found, oracle))
