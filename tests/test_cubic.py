import numpy as np
import pytest

from conftest import GENERIC, GENERIC2, HEXAGONAL, SQUARE
from elliptica import (
    EPS,
    LoopPath,
    ProjLine,
    embed_point,
    group_add,
    hesse_cubic,
    inflection_points,
    line_intersect_cubic,
    line_through,
    make_lattice,
    point_from_vec,
    proj_point,
    tangent_line,
    torsion_points,
    torus_distance,
    unembed,
    weierstrass_cubic,
    weierstrass_invariants,
    wp_pair,
    wp_values,
)
from elliptica.cubic import IDENTITY, group_negate
from elliptica.errors import PointOffCurveError, SingularCubicError


def rand_points(rng, lat, n):
    return [
        complex(rng.uniform(0.05, 0.95) * lat.omega1 + rng.uniform(0.05, 0.95) * lat.omega2)
        for _ in range(n)
    ]


def test_embedding_lands_on_curve(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(0)
    for z in rand_points(rng, generic, 50):
        assert cubic.residual(embed_point(z, generic)) <= 1e-8


def test_identity_on_curve_with_gradient(generic):
    cubic = weierstrass_cubic(generic)
    assert cubic.residual(IDENTITY) == 0.0
    assert np.linalg.norm(cubic.grad(IDENTITY.vec)) > 0.1


def test_embed_unembed_round_trip(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(1)
    for z in rand_points(rng, generic, 20):
        back = unembed(embed_point(z, generic), cubic, generic)
        assert torus_distance(back.rep, z, generic) < 1e-8


def test_embed_parity(generic):
    z = 0.37 + 0.52j
    p, pp = wp_pair(z, generic)
    q = embed_point(-z, generic)
    expected = proj_point(p, -pp, 1.0)
    assert q.distance(expected) < 1e-10


def test_unembed_identity(generic):
    cubic = weierstrass_cubic(generic)
    assert unembed(IDENTITY, cubic, generic).rep == 0.0


@pytest.mark.parametrize("tau, modulus", [(1j, 3e5), (0.3 + 1.4j, 1e6)])
def test_unembed_near_the_pole(tau, modulus):
    # wp is accurate to about 2e-13 relative near its pole, so a fiber point
    # this far out must still come back
    lat = make_lattice(1.0, tau)
    cubic = weierstrass_cubic(lat)
    g2, g3 = weierstrass_invariants(lat)
    for k in range(8):
        x = modulus * np.exp(2j * np.pi * k / 8)
        y = np.sqrt(4 * x ** 3 - g2 * x - g3)
        z = unembed(proj_point(x, y, 1.0), cubic, lat)
        p, pp = wp_values(z.rep, lat)
        assert abs(p - x) <= 1e-11 * (1 + abs(x))
        assert abs(pp - y) <= 1e-5 * (1 + abs(y))


def test_unembed_rejects_off_curve(generic):
    cubic = weierstrass_cubic(generic)
    with pytest.raises(PointOffCurveError):
        unembed(proj_point(1.0, 1.0, 1.0), cubic, generic)


def test_tangent_contains_point(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(2)
    for z in rand_points(rng, generic, 10):
        p = embed_point(z, generic)
        assert tangent_line(cubic, p).incidence(p) < 1e-10


def test_tangent_third_point(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(3)
    for z in rand_points(rng, generic, 20):
        p = embed_point(z, generic)
        inter = line_intersect_cubic(tangent_line(cubic, p), cubic)
        assert inter.total == 3
        assert sum(m for q, m in inter.entries if q.distance(p) < 1e-6) == 2
        rest = [q for q, _ in inter.entries if q.distance(p) >= 1e-6]
        assert len(rest) == 1
        assert rest[0].distance(embed_point(-2.0 * z, generic)) < 1e-7


def test_line_triple_sum_zero(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b = rand_points(rng, generic, 2)
        line = line_through(embed_point(a, generic), embed_point(b, generic))
        inter = line_intersect_cubic(line, cubic)
        assert inter.total == 3
        total = sum(unembed(q, cubic, generic).rep * m for q, m in inter.entries)
        assert torus_distance(total, 0.0, generic) < 1e-7


def test_line_chord_third(generic):
    cubic = weierstrass_cubic(generic)
    a, b = 0.21 + 0.43j, 0.73 + 0.91j
    line = line_through(embed_point(a, generic), embed_point(b, generic))
    inter = line_intersect_cubic(line, cubic)
    third = embed_point(-(a + b), generic)
    assert min(q.distance(third) for q, _ in inter.entries) < 1e-8


def test_line_z_zero(generic):
    cubic = weierstrass_cubic(generic)
    inter = line_intersect_cubic(ProjLine(proj_point(0, 0, 1)), cubic)
    assert len(inter.entries) == 1
    q, m = inter.entries[0]
    assert m == 3
    assert q.distance(IDENTITY) < 1e-9


def assert_meets(inter, expected, bound, case):
    """inter holds exactly the expected (point, multiplicity) pairs, each
    point within bound."""
    assert sorted(m for _, m in inter.entries) == sorted(m for _, m in expected), case
    for q, m in expected:
        assert min(p.distance(q) for p, n in inter.entries if n == m) < bound, case


@pytest.mark.parametrize("lat", [SQUARE, HEXAGONAL, GENERIC, GENERIC2],
                         ids=["square", "hexagonal", "generic", "generic2"])
def test_line_intersect_closed_form_sweep(lat):
    # 200 seeded lines per lattice, cycling through generic chords, chords
    # through two points 1e-3 apart on the torus (three simple points, not
    # a double one), tangents, flex tangents and the vertical line
    # x = wp(a) z through a, -a and the identity
    cubic = weierstrass_cubic(lat)
    rng = np.random.default_rng(19)
    n = 200
    a, b = rng.uniform(size=(2, n)) * lat.omega1 + rng.uniform(size=(2, n)) * lat.omega2
    near = a + 1e-3 * abs(lat.omega1) * np.exp(2j * np.pi * rng.uniform(size=n))
    flexes = inflection_points(cubic, lat)
    for k in range(n):
        p = embed_point(a[k], lat)
        kind = k % 5
        if kind < 2:
            y = b[k] if kind == 0 else near[k]
            q = embed_point(y, lat)
            line = line_through(p, q)
            expected = [(p, 1), (q, 1), (embed_point(-a[k] - y, lat), 1)]
            bound = 1e-12 if kind == 0 else 1e-9
        elif kind == 2:
            line = tangent_line(cubic, p)
            expected, bound = [(p, 2), (embed_point(-2 * a[k], lat), 1)], 1e-10
        elif kind == 3:
            f = flexes[k % 9]
            line, expected, bound = tangent_line(cubic, f, tol=1e-6), [(f, 3)], 1e-12
        else:
            line = ProjLine(proj_point(1, 0, -wp_values(a[k], lat)[0]))
            expected = [(p, 1), (embed_point(-a[k], lat), 1), (IDENTITY, 1)]
            bound = 1e-11
        assert_meets(line_intersect_cubic(line, cubic), expected, bound, (k, a[k]))


@pytest.mark.parametrize("t", [2.0, 0.5 + 1j])
def test_line_intersect_hesse_flex_tangents(t):
    cubic = hesse_cubic(t)
    for f in inflection_points(cubic):
        assert_meets(line_intersect_cubic(tangent_line(cubic, f), cubic), [(f, 3)], 1e-12, f)


def test_line_component_of_singular_cubic_raises():
    # x + y + z = 0 is one of the three lines of the singular x^3 + y^3 + z^3 - 3xyz
    with pytest.raises(SingularCubicError):
        line_intersect_cubic(ProjLine(proj_point(1, 1, 1)), hesse_cubic(-3.0))


def test_group_add_identity_and_inverse(generic):
    cubic = weierstrass_cubic(generic)
    a = 0.27 + 0.61j
    pa = embed_point(a, generic)
    assert group_add(cubic, pa, IDENTITY).distance(pa) < 1e-9
    assert group_add(cubic, pa, embed_point(-a, generic)).distance(IDENTITY) < 1e-9


def test_group_add_matches_torus(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rand_points(rng, generic, 2)
        got = group_add(cubic, embed_point(a, generic), embed_point(b, generic))
        assert got.distance(embed_point(a + b, generic)) < 1e-7


def test_group_associativity(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(6)
    for _ in range(12):
        a, b, c = rand_points(rng, generic, 3)
        pa, pb, pc = (embed_point(z, generic) for z in (a, b, c))
        left = group_add(cubic, group_add(cubic, pa, pb), pc)
        right = group_add(cubic, pa, group_add(cubic, pb, pc))
        assert left.distance(right) <= 1e-7


def test_group_doubling(generic):
    cubic = weierstrass_cubic(generic)
    a = 0.31 + 0.72j
    pa = embed_point(a, generic)
    assert group_add(cubic, pa, pa).distance(embed_point(2 * a, generic)) < 1e-7


@pytest.mark.parametrize("lat", [SQUARE, HEXAGONAL, GENERIC, GENERIC2],
                         ids=["square", "hexagonal", "generic", "generic2"])
def test_group_add_closed_form_sweep(lat):
    # 300 seeded pairs per lattice, cycling through generic chords, a + a,
    # a - a, a - 2a (the tangent's own third point), the identity as either
    # operand, and pairs 1e-5 and 1e-11 apart on the torus: a chord that is
    # nearly a tangent, and one doubled below the sqrt(eps) switch, where
    # the error is the separation's or the chord direction's rounding
    cubic = weierstrass_cubic(lat)
    rng = np.random.default_rng(11)
    n = 300
    a, b = rng.uniform(size=(2, n)) * lat.omega1 + rng.uniform(size=(2, n)) * lat.omega2
    unit = abs(lat.omega1) * np.exp(2j * np.pi * rng.uniform(size=n))
    zero = np.zeros(n)
    cases = [(a, b, 1e-12), (a, a, 1e-12), (a, -a, 1e-12), (a, -2 * a, 1e-12),
             (a, zero, 1e-12), (zero, a, 1e-12),
             (a, a + 1e-5 * unit, 1e-8), (a, a + 1e-11 * unit, 1e-8)]
    for k in range(n):
        x, y, bound = cases[k % len(cases)]
        got = group_add(cubic, embed_point(x[k], lat), embed_point(y[k], lat))
        assert got.distance(embed_point(x[k] + y[k], lat)) < bound, (k, x[k], y[k])
    # doubling the 2- and 3-torsion points: vertical tangents and flexes
    for t in torsion_points(lat, 2) + torsion_points(lat, 3):
        p = embed_point(t, lat)
        assert group_add(cubic, p, p).distance(embed_point(2 * t.rep, lat)) < 1e-12


def test_inflections_weierstrass_are_torsion(generic):
    cubic = weierstrass_cubic(generic)
    infl = inflection_points(cubic, generic)
    assert len(infl) == 9
    tor = [embed_point(t, generic) for t in torsion_points(generic, 3)]
    for p in infl:
        assert min(p.distance(q) for q in tor) < 1e-7
        assert cubic.residual(p) < 1e-8
        assert abs(cubic.hessian_det(p.vec)) < 1e-6 * (
            1.0 + float(np.abs(cubic.hessian_matrix(p.vec)).max()) ** 3
        )
    assert min(p.distance(IDENTITY) for p in infl) < 1e-10


def test_inflection_tangent_triple_contact(generic):
    cubic = weierstrass_cubic(generic)
    infl = inflection_points(cubic, generic)
    p = infl[4]
    inter = line_intersect_cubic(tangent_line(cubic, p, tol=1e-6), cubic)
    assert [m for _, m in inter.entries] == [3]
    assert inter.entries[0][0].distance(p) < 1e-6


def test_inflections_hesse_table():
    cubic = hesse_cubic(2.0)
    infl = inflection_points(cubic)
    assert len(infl) == 9
    for p in infl:
        assert cubic.residual(p) < 1e-12
    # first table entry
    assert infl[0].distance(proj_point(0, 1, -1)) < 1e-12


def test_group_negate_identity():
    assert group_negate(IDENTITY).distance(IDENTITY) == 0.0


def test_point_off_curve_errors(generic):
    cubic = weierstrass_cubic(generic)
    off = proj_point(1.0, 1.0, 1.0)
    with pytest.raises(PointOffCurveError):
        tangent_line(cubic, off)
    with pytest.raises(PointOffCurveError):
        group_add(cubic, off, IDENTITY)


def test_hesse_singular_values_not_smooth():
    from elliptica.hesse import EPS

    for t in (-3.0, -3.0 * EPS, -3.0 * EPS ** 2):
        assert not hesse_cubic(t).is_smooth()
    assert hesse_cubic(0.0).is_smooth()
    assert hesse_cubic(6.0).is_smooth()


@pytest.mark.parametrize("family", ["weierstrass", "hesse"])
def test_hessian_det_rows_value_and_gradient(family, generic):
    cubic = weierstrass_cubic(generic) if family == "weierstrass" else hesse_cubic(1.3 - 0.4j)
    rng = np.random.default_rng(21)
    v = rng.standard_normal((8, 6)).view(np.complex128)
    det, grad = cubic.hessian_det_rows(v)
    h = 1e-6
    for row, d, g in zip(v, det, grad):
        lu = cubic.hessian_det(row)
        assert abs(d - lu) <= 1e-12 * abs(lu)
        for k, e in enumerate(np.eye(3)):
            fd = (cubic.hessian_det(row + h * e) - cubic.hessian_det(row - h * e)) / (2 * h)
            assert abs(g[k] - fd) <= 1e-6 * abs(fd)


# The family polynomials written out, as an oracle for the tensor
# contractions.  With the signed coefficients and v they give F, grad F and
# Hess F; with the coefficient moduli and |v| the sums of the magnitudes of
# the same terms, the scale each is compared at.


def weierstrass_terms(v, a, b, g2, g3):
    # b y^2 z + a x^3 + g2 x z^2 + g3 z^3, with a = -4, b = 1 for the form
    x, y, z = v
    zero = np.zeros_like(x)
    f = b * y * y * z + a * x ** 3 + g2 * x * z * z + g3 * z ** 3
    grad = [3.0 * a * x * x + g2 * z * z, 2.0 * b * y * z,
            b * y * y + 2.0 * g2 * x * z + 3.0 * g3 * z * z]
    hess = [[6.0 * a * x, zero, 2.0 * g2 * z], [zero, 2.0 * b * z, 2.0 * b * y],
            [2.0 * g2 * z, 2.0 * b * y, 2.0 * g2 * x + 6.0 * g3 * z]]
    return f, np.array(grad), np.array(hess)


def hesse_terms(v, c, t):
    # c (x^3 + y^3 + z^3) + t x y z, with c = 1 for the form
    x, y, z = v
    f = c * x ** 3 + c * y ** 3 + c * z ** 3 + t * x * y * z
    grad = [3.0 * c * x * x + t * y * z, 3.0 * c * y * y + t * x * z,
            3.0 * c * z * z + t * x * y]
    hess = [[6.0 * c * x, t * z, t * y], [t * z, 6.0 * c * y, t * x],
            [t * y, t * x, 6.0 * c * z]]
    return f, np.array(grad), np.array(hess)


def written_out(cubic, v):
    """((F, grad F, Hess F), their magnitude scales, the floored term
    scale) at v, shape (3,) or (3, N)."""
    if cubic.family == "weierstrass":
        g2, g3 = cubic.g2, cubic.g3
        vals = weierstrass_terms(v, -4.0, 1.0, g2, g3)
        scales = weierstrass_terms(np.abs(v), 4.0, 1.0, abs(g2), abs(g3))
        coeff = 1.0 + abs(g2) + abs(g3)
    else:
        vals = hesse_terms(v, 1.0, cubic.t)
        scales = hesse_terms(np.abs(v), 1.0, abs(cubic.t))
        coeff = 1.0 + abs(cubic.t)
    floor = 1e-12 * coeff * np.abs(v).max(axis=0) ** 3
    return vals, scales, scales[0].real + floor + 1e-300


TENSOR_CUBICS = [weierstrass_cubic(lat) for lat in (SQUARE, HEXAGONAL, GENERIC)] + [
    hesse_cubic(t) for t in (0.0, 2.0, -1.0 + 3.0j, 6.0 * EPS)]


@pytest.mark.parametrize("cubic", TENSOR_CUBICS,
                         ids=["square", "hexagonal", "generic", "t0", "t2", "t-1+3i", "t6eps"])
def test_tensor_contractions_match_the_written_out_form(cubic):
    rng = np.random.default_rng(33)
    v = rng.standard_normal((3, 40, 2)).view(complex)[..., 0]
    v = np.concatenate([np.eye(3), [[1e-3], [1.0], [1e-4]], v / np.abs(v).max(axis=0)], axis=1)
    for pts in (v, v[:, 0], v[:, 3], v[:, 10]):  # (3, N), [1, 0, 0], near [0, 1, 0], random
        (f, grad, hess), (_, sgrad, shess), scale = written_out(cubic, pts)
        assert np.all(np.abs(cubic.F(pts) - f) <= 1e-14 * scale)
        assert np.all(np.abs(cubic.term_scale(pts) - scale) <= 1e-14 * scale)
        assert np.all(np.abs(cubic.grad(pts) - grad) <= 1e-14 * sgrad.real)
        assert np.all(np.abs(cubic.hessian_matrix(pts) - hess) <= 1e-14 * shess.real)
    # line restrictions, against four evaluations of the written-out F
    for w1, w2 in zip(v[:, 3:23].T, v[:, 23:].T):
        c0, c3 = (written_out(cubic, w)[0][0] for w in (w1, w2))
        fp, fm = (written_out(cubic, w)[0][0] for w in (w1 + w2, w1 - w2))
        ref = np.array([c3, (fp + fm) / 2.0 - c0, (fp - fm) / 2.0 - c3, c0])
        scale = written_out(cubic, np.abs(w1) + np.abs(w2))[2]
        assert np.all(np.abs(cubic.restriction([w1, w2]) - ref) <= 1e-14 * scale)


def test_loop_rows_from_points_and_from_an_array():
    rng = np.random.default_rng(34)
    raw = rng.standard_normal((7, 6)).view(complex) * np.exp(rng.uniform(-5, 5, (7, 1)))
    raw[-1] = 2.5j * raw[0]
    from_points = LoopPath(tuple(point_from_vec(r) for r in raw))
    from_array = LoopPath(raw)
    assert from_array.samples.shape == (7, 3)
    assert np.array_equal(from_points.samples.view(float), from_array.samples.view(float))
    with pytest.raises(ValueError):
        LoopPath(raw[:-1])


def test_pivot_coordinate_is_exactly_one():
    # complex x / x is not always 1: without pinning the pivot, about a
    # fifth of these rows keep a pivot an ulp away from 1
    from elliptica.projective import scaled_rows

    rng = np.random.default_rng(36)
    raw = rng.standard_normal((20000, 6)).view(complex) * np.exp(rng.uniform(-20, 20, (20000, 3)))
    rows = scaled_rows(raw)
    pivot = np.abs(raw).argmax(axis=1)
    assert np.all(rows[np.arange(len(raw)), pivot] == 1.0)
    points = np.array([point_from_vec(r).coords for r in raw])
    assert np.array_equal(points.view(float), rows.view(float))


def _node_fit(cubic, rows, n=7):
    """Coefficients, highest power first, of s -> F(sum_i rows[i] s^i) by
    interpolation through n nodes on the circle |s| = 1.3: a Vandermonde
    solve on sampled values of F, an oracle independent of the tensor
    contraction."""
    nodes = 1.3 * np.exp(2j * np.pi * np.arange(n) / n)
    vals = cubic.F((np.power.outer(nodes, np.arange(len(rows))) @ rows).T)
    return np.linalg.solve(np.vander(nodes, n), vals), np.abs(vals).max()


@pytest.mark.parametrize("cubic", TENSOR_CUBICS,
                         ids=["square", "hexagonal", "generic", "t0", "t2", "t-1+3i", "t6eps"])
def test_restriction_is_F_on_polynomial_curves(cubic):
    rng = np.random.default_rng(35)
    for degree in (1, 2):
        for _ in range(10):
            rows = rng.standard_normal((degree + 1, 6)).view(complex)
            coeffs = cubic.restriction(rows)
            assert coeffs.shape == (3 * degree + 1,)
            for s in rng.standard_normal(8).view(complex) * np.array([1e-3, 0.1, 1.0, 30.0]):
                powers = s ** np.arange(degree + 1)
                scale = cubic.term_scale(np.abs(powers) @ np.abs(rows))
                assert abs(np.polyval(coeffs, s) - cubic.F(powers @ rows)) <= 1e-13 * scale
            if degree == 2:
                # the 7-node fit of the degree-6 composition agrees
                fit, vmax = _node_fit(cubic, rows)
                assert np.abs(fit - coeffs).max() <= 1e-13 * vmax
