import itertools
import math

import numpy as np
import pytest

from conftest import random_abel_function
from elliptica import (
    PowerSums,
    abel_defect,
    contour_power_sums,
    divisor,
    jacobi_sum,
    locate_zeros,
    make_lattice,
    torus_distance,
)
from elliptica import divisors
from elliptica.divisors import (
    BASE_SUBDIVISION,
    MAX_CELL_DEPTH,
    MAX_GRID_SHIFTS,
    Divisor,
    Evaluable,
    _newton_polish,
    locate_divisor_pair,
    match_divisors,
)
from elliptica.elliptic import wp_evaluable, wp_pair
from elliptica.errors import (
    ContourTooCloseError,
    DegreeMismatchError,
    EmptyDivisorError,
    InsufficientSumsError,
    NonIntegerCountError,
    SubdivisionFailureError,
)


def test_jacobi_sum_examples(generic):
    d = divisor([(0.0, 3)], generic)
    assert jacobi_sum(d, generic).rep == 0.0
    pts = [0.11 + 0.3j, 0.52 + 0.9j, 0.73 + 0.1j]
    d1 = divisor([(p, 1) for p in pts], generic)
    d2 = divisor([(p, 1) for p in reversed(pts)], generic)
    assert jacobi_sum(d1, generic).rep == jacobi_sum(d2, generic).rep


def test_divisor_order_ignores_rounding_level_moves(square):
    # two divisors whose points differ by 1 ulp list them in the same order
    nudged = float(np.nextafter(0.6, 1.0))
    d1 = divisor([(0.6 + 0.7j, 1), (complex(nudged, 0.2), 2)], square)
    d2 = divisor([(complex(nudged, 0.7), 1), (0.6 + 0.2j, 2)], square)
    assert [m for _, m in d1.points] == [m for _, m in d2.points] == [2, 1]
    for (p, _), (q, _) in zip(d1.points, d2.points):
        assert abs(p.rep - q.rep) <= 2e-16


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
def test_divisor_merges_coincident_points(scale):
    # lifts equal up to a lattice vector, or within 1e-12 |omega1| of each
    # other, are one point whose multiplicity is the sum
    lat = make_lattice(scale, scale * (0.3 + 1.4j))
    w1, w2 = lat.omega1, lat.omega2
    a, b = 0.2 * w1 + 0.3 * w2, 0.7 * w1 + 0.6 * w2
    d = divisor([(a, 1), (b, 2), (a + w1 - 2 * w2, 2), (b + 4e-13 * w1, 1), (a - 3e-13 * w2, 1)], lat)
    assert d.degree == 7 and len(d.points) == 2
    mults = {round(lat.coords(p.rep)[0], 6): m for p, m in d.points}
    assert mults == {0.2: 4, 0.7: 3}
    # points 1e-9 |omega1| apart stay apart
    assert len(divisor([(a, 1), (a + 1e-9 * w1, 1)], lat).points) == 2


def test_jacobi_empty(generic):
    with pytest.raises(EmptyDivisorError):
        jacobi_sum(Divisor(()), generic)


def test_function_divisors_abel(generic):
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = random_abel_function(rng, generic)
        diff = jacobi_sum(f.zeros, generic).rep - jacobi_sum(f.poles, generic).rep
        assert torus_distance(diff, 0.0, generic) < 1e-9
        assert abel_defect(f.zeros, f.poles, generic) < 1e-9


def test_abel_defect_examples(generic):
    d = divisor([(0.21 + 0.3j, 1), (0.6 + 0.77j, 2)], generic)
    assert abel_defect(d, d, generic) == 0.0
    a = 0.3 + 0.41j
    delta = 3e-4 + 1e-4j
    zeros = divisor([(a, 1), (-a + delta, 1)], generic)
    poles = divisor([(0.0, 2)], generic)
    assert abs(abel_defect(zeros, poles, generic) - abs(delta)) < 1e-12
    with pytest.raises(DegreeMismatchError):
        abel_defect(divisor([(a, 1)], generic), poles, generic)


def test_contour_centered_zero(generic):
    pa, _ = wp_pair(0.31 + 0.44j, generic)
    f = wp_evaluable(generic, pa)
    sums = contour_power_sums(f, 0.31 + 0.44j, 0.08, 3)
    assert sums.count == 1
    assert abs(sums.values[1]) < 1e-10


def test_contour_no_zeros(generic):
    f = wp_evaluable(generic, 0.0)
    sums = contour_power_sums(f, 0.31 + 0.44j, 0.04, 3)
    assert sums.count == 0
    assert max(abs(v) for v in sums.values[1:]) < 1e-10


def test_contour_double_zero_at_half_period(generic):
    from elliptica import half_period_values

    e1 = half_period_values(generic)[0]
    f = wp_evaluable(generic, e1)
    sums = contour_power_sums(f, 0.5, 0.09, 3)
    assert sums.count == 2
    assert abs(sums.values[1]) < 1e-9


def test_contour_too_close(generic):
    pa, _ = wp_pair(0.31 + 0.44j, generic)
    f = wp_evaluable(generic, pa)
    with pytest.raises(ContourTooCloseError):
        contour_power_sums(f, (0.31 + 0.44j) + 0.08, 0.08, 2)


def test_contour_non_integer_count(generic):
    # a branch cut through the contour breaks the argument principle
    def f(z):
        return np.sqrt(z - 0.5)

    with pytest.raises((NonIntegerCountError, ContourTooCloseError)):
        contour_power_sums(f, 0.5 + 0.2, 0.4, 2)


def test_contour_count_node_stability(generic):
    pa, _ = wp_pair(0.27 + 0.9j, generic)
    f = wp_evaluable(generic, pa)
    a = contour_power_sums(f, 0.3 + 0.9j, 0.17, 2, nodes=128)
    b = contour_power_sums(f, 0.3 + 0.9j, 0.17, 2, nodes=512)
    assert a.count == b.count


def test_contour_additive_over_subregions(generic):
    # one circle around both wp zeros equals the sum over two small circles
    from elliptica import wp_inverse

    y = wp_inverse(0.0, generic).rep
    f = wp_evaluable(generic, 0.0)
    c = (y + (generic.omega1 + generic.omega2 - y)) / 2.0
    big_ok = False
    s1 = contour_power_sums(f, y, 0.1, 3)
    y2 = generic.omega1 + generic.omega2 - y
    s2 = contour_power_sums(f, y2, 0.1, 3)
    assert s1.count == 1 and s2.count == 1
    # re-express both local sums about the joint center and compare with one
    # big contour around both
    big = contour_power_sums(f, c, abs(y - c) + 0.2, 3)
    assert big.count == 2
    for p in (1, 2, 3):
        expected = (y - c) ** p + (y2 - c) ** p
        assert abs(big.values[p] - expected) < 1e-7


@pytest.mark.parametrize("shift, center, radius", [
    (0.0, 0.3 + 0.9j, 0.17),        # no zero inside
    (None, 0.31 + 0.44j, 0.08),      # one simple zero, off center
    ("e1", 0.5, 0.09),               # the double zero of wp - e1
])
def test_power_sums_match_the_direct_trapezoid(generic, shift, center, radius):
    # every power sum from one inverse FFT equals the trapezoid sum
    # mean(g w^(p+1)) on the same 128 nodes
    from elliptica import half_period_values

    if shift is None:
        shift = wp_pair(0.27 + 0.42j, generic)[0]
    elif shift == "e1":
        shift = half_period_values(generic)[0]
    f = wp_evaluable(generic, shift)
    w = radius * np.exp(2j * np.pi * np.arange(128) / 128)
    g = f.values_and_dlog(center + w)[1]
    direct = [np.mean(g * w ** (p + 1)) for p in range(9)]
    for kmax in range(9):
        sums = contour_power_sums(f, center, radius, kmax)
        assert len(sums.values) == kmax + 1
        for p, v in enumerate(sums.values):
            assert abs(v - direct[p]) <= 1e-12 * (1 + abs(v))


def test_power_sums_refuse_a_negative_order(generic):
    with pytest.raises(InsufficientSumsError) as err:
        contour_power_sums(wp_evaluable(generic), 0.3 + 0.9j, 0.17, -1)
    assert err.value.to_json()["operation"] == "contour_power_sums"


def test_locate_wp_divisors(generic):
    zeros = locate_zeros(wp_evaluable(generic), generic)
    poles = locate_divisor_pair(wp_evaluable(generic), generic)[1]
    assert zeros.degree == 2 and poles.degree == 2
    assert poles.points[0][1] == 2
    assert torus_distance(poles.points[0][0].rep, 0.0, generic) < 1e-8
    assert torus_distance(jacobi_sum(zeros, generic).rep, 0.0, generic) < 1e-7
    # zeros are a symmetric pair
    z1, z2 = zeros.points[0][0].rep, zeros.points[1][0].rep
    assert torus_distance(z1 + z2, 0.0, generic) < 1e-7



def test_double_zero_of_wp_is_its_moment_seed(square):
    # e2 = 0 on the square lattice: wp has a double zero at (1 + i)/2, where
    # |wp| is at the evaluation noise up to about sqrt(eps) away; the moment
    # seed is within rounding of it and no Newton step lowers |wp| there
    zeros = locate_zeros(wp_evaluable(square), square)
    assert [m for _, m in zeros.points] == [2]
    assert abs(zeros.points[0][0].rep - (0.5 + 0.5j)) <= 1e-15


def test_locate_round_trip_multiplicity(generic):
    a = 0.31 + 0.41j
    zeros = divisor([(a, 2), (-2 * a, 1)], generic)
    poles = divisor([(0.77 + 0.3j, 1), (0.2 + 1.0j, 1), (-(0.97 + 1.3j), 1)], generic)
    from elliptica import build_from_divisors

    f = build_from_divisors(zeros, poles, generic)
    zf, pf = locate_divisor_pair(f, generic)
    assert match_divisors(zf, zeros, generic, 1e-6)
    assert match_divisors(pf, poles, generic, 1e-6)


def test_locate_degree_equality_random(generic):
    rng = np.random.default_rng(2)
    for _ in range(4):
        f = random_abel_function(rng, generic)
        zf, pf = locate_divisor_pair(f, generic)
        assert zf.degree == pf.degree == 3
        assert abel_defect(zf, pf, generic) < 1e-6
        assert match_divisors(zf, f.zeros, generic, 1e-6)
        assert match_divisors(pf, f.poles, generic, 1e-6)
        # disjoint supports
        for zp, _ in zf.points:
            for pp, _ in pf.points:
                assert torus_distance(zp.rep, pp.rep, generic) > 1e-6


def test_divisor_json_round_trip(generic):
    from elliptica.divisors import divisor_from_json

    d = divisor([(0.2 + 0.3j, 2), (0.7 + 0.9j, 1)], generic)
    d2 = divisor_from_json(d.to_json(), generic)
    assert match_divisors(d, d2, generic, 1e-12)


def test_contour_half_count_with_exact_log_derivative(generic):
    # sqrt(z - a) has f'/f = 1/(2 (z - a)): the count integral is 1/2 at
    # every node count
    a = 0.5
    f = Evaluable(lambda z: (np.sqrt(z - a), 0.5 / (z - a)))
    with pytest.raises(NonIntegerCountError):
        contour_power_sums(f, a + 0.2, 0.4, 2)


def test_contour_nan_value_is_degenerate(generic):
    # one NaN node must not hide behind the median of the finite ones
    def pair(z):
        v = z - 0.5
        v[3] = np.nan
        return v, 1.0 / (z - 0.5)

    f = Evaluable(pair)
    with pytest.raises(ContourTooCloseError, match="degenerate"):
        contour_power_sums(f, 0.5, 0.1, 2)


def test_contour_requires_values_and_dlog(generic):
    with pytest.raises(NonIntegerCountError, match="values_and_dlog"):
        contour_power_sums(lambda z: z - 0.5, 0.5, 0.1, 2)
    with pytest.raises(NonIntegerCountError, match="values_and_dlog"):
        locate_zeros(lambda z: z - 0.5, generic)


def _abel_function(zeros, poles, lat):
    from elliptica import build_from_divisors

    return build_from_divisors(divisor(zeros, lat), divisor(poles, lat), lat)


def test_pair_finds_zero_shadowed_by_nearby_pole(generic):
    # the zero and the pole 0.015 from it share one cell circle, whose net
    # count is 0
    a = 0.4 + 0.5j
    poles = [(a + 0.015, 1), (0.8 + 1.1j, 1), (0.6 + 0.2j, 1)]
    zeros = [(a, 1), (0.2 + 0.9j, 1)]
    zeros.append((sum(p for p, _ in poles) - sum(z for z, _ in zeros), 1))
    f = _abel_function(zeros, poles, generic)
    zf, pf = locate_divisor_pair(f, generic)
    assert match_divisors(zf, f.zeros, generic, 1e-6)
    assert match_divisors(pf, f.poles, generic, 1e-6)


@pytest.mark.parametrize("gap", [4e-3, 3e-4])
def test_pair_separates_close_zeros(generic, gap):
    # two zeros this close share a cell circle, and there their moments are
    # within tolerance of one double zero's; they are two simple zeros all
    # the same
    a = 0.4 + 0.5j
    poles = [(0.8 + 1.1j, 1), (0.6 + 0.2j, 1), (0.15 + 0.95j, 1)]
    zeros = [(a, 1), (a + gap, 1)]
    zeros.append((sum(p for p, _ in poles) - sum(z for z, _ in zeros), 1))
    f = _abel_function(zeros, poles, generic)
    zf, pf = locate_divisor_pair(f, generic)
    assert [m for _, m in zf.points] == [1, 1, 1]
    assert match_divisors(zf, f.zeros, generic, 1e-6)
    assert match_divisors(pf, f.poles, generic, 1e-6)


@pytest.mark.parametrize("delta", [1e-2, 3e-3, 1e-3, 6e-4, 3e-4, 1e-4])
def test_pair_finds_or_refuses_a_zero_next_to_a_pole(delta):
    # a zero and a pole delta apart nearly cancel in every moment of their
    # cell, whose moments then look empty to within _MOMENT_TOL; the pair
    # must come back located or not at all
    lat = make_lattice(1.0, 0.3 + 1.4j)
    a = 0.2 + 0.3j
    zeros = [(a, 1), (0.5 + 1.0j, 1), (-0.7 - 1.3j, 1)]
    poles = [(a + delta, 1), (0.6 + 1.0j, 1)]
    poles.append((sum(z for z, _ in zeros) - sum(p for p, _ in poles), 1))
    f = _abel_function(zeros, poles, lat)
    try:
        zf, pf = locate_divisor_pair(f, lat)
    except SubdivisionFailureError:
        return
    assert match_divisors(zf, f.zeros, lat, 1e-6)
    assert match_divisors(pf, f.poles, lat, 1e-6)


def test_pair_of_the_wrong_degree_is_never_returned(generic, monkeypatch):
    # a sweep that loses a zero-pole pair has equal degrees; f.degree tells
    f = random_abel_function(np.random.default_rng(2), generic)
    zeros, poles = (divisor(list(d.points[1:]), generic) for d in (f.zeros, f.poles))
    sweeps = []

    def lossy(f, lat, oa, ob):
        sweeps.append((oa, ob))
        return zeros, poles

    monkeypatch.setattr(divisors, "_grid", lossy)
    with pytest.raises(SubdivisionFailureError, match="f has degree 3"):
        locate_divisor_pair(f, generic)
    assert len(sweeps) == len(set(sweeps)) == MAX_GRID_SHIFTS


def test_direct_branch_double_points_match_tangents():
    # the README build-fn function: each double point of a fiber is polished
    # at multiplicity 2 and lands on the one the tangent algorithm finds
    from elliptica import branch_divisors_direct, branch_divisors_via_tangents, make_lattice

    lat = make_lattice(1.0, 0.3 + 1.4j)
    f = _abel_function([(0.2 + 0.3j, 1), (0.5 + 1.0j, 1), (-0.7 - 1.3j, 1)],
                       [(0.1 + 0.1j, 1), (0.6 + 1.0j, 1), (-0.7 - 1.1j, 1)], lat)
    doubles = [[p.rep for d in divs for p, m in d.points if m == 2]
               for divs in (branch_divisors_direct(f, lat), branch_divisors_via_tangents(f, lat))]
    assert len(doubles[0]) == len(doubles[1]) == 6
    for z in doubles[0]:
        assert min(torus_distance(z, t, lat) for t in doubles[1]) < 1e-10


def test_direct_branch_fiber_with_a_zero_next_to_a_pole():
    # abel_divisors seed 8 task 159: one fiber of f has a point 6e-4 from a
    # pole of f, and the cell holding both must not be taken as empty
    from elliptica import branch_divisors_direct, branch_divisors_via_tangents

    lat = make_lattice(1.0, 0.3945023644589621 + 1.8365534954226588j)
    f = _abel_function([(0.8552200199932017 + 0.20786206503612642j, 1),
                        (0.738456890851809 + 0.9435921771768876j, 1),
                        (-1.5936769108450108 - 1.151454242213014j, 1)],
                       [(1.1014279014673585 + 1.4894021192586742j, 1),
                        (0.9521360110694683 + 1.4133065259096593j, 1),
                        (-2.053563912536827 - 2.9027086451683335j, 1)], lat)
    direct, tangents = branch_divisors_direct(f, lat), branch_divisors_via_tangents(f, lat)
    assert len(direct) == len(tangents)
    for d in tangents:
        hits = [e for e in direct if match_divisors(d, e, lat, 1e-6)]
        assert hits, "branch divisor multisets disagree"
        direct.remove(hits[0])


def test_pair_finds_multiple_pole(generic):
    p = 0.3 + 0.7j
    zeros = [(0.1 + 0.2j, 1), (0.6 + 1.1j, 1)]
    zeros.append((3 * p - sum(z for z, _ in zeros), 1))
    f = _abel_function(zeros, [(p, 3)], generic)
    zf, pf = locate_divisor_pair(f, generic)
    assert pf.points[0][1] == 3 and pf.degree == 3
    assert match_divisors(zf, f.zeros, generic, 1e-6)
    assert match_divisors(pf, f.poles, generic, 1e-6)


def test_pair_samples_each_circle_once(generic, monkeypatch):
    # the signed moments of one sweep give zeros and poles together: no
    # circle is sampled again at the same node count, for 1/f or otherwise
    seen = []
    sample = divisors._circle_samples

    def counted(f, center, radius, nodes, min_modulus):
        seen.append((center, radius, nodes))
        return sample(f, center, radius, nodes, min_modulus)

    monkeypatch.setattr(divisors, "_circle_samples", counted)
    f = random_abel_function(np.random.default_rng(2), generic)
    zf, pf = locate_divisor_pair(f, generic)
    assert zf.degree == pf.degree == 3
    assert len(seen) == len(set(seen))


def test_degree_mismatch_retries_on_fresh_grids(generic, monkeypatch):
    # z - c has one zero and no pole in every base grid (c sits at lattice
    # coordinates (0.98, 0.98), inside every grid's parallelogram), so the
    # degrees differ on each attempt; each retry must sweep a new grid
    c = generic.from_coords(0.98, 0.98)

    def pair(z):
        with np.errstate(divide="ignore", invalid="ignore"):  # Newton lands on c
            return z - c, 1.0 / (z - c)

    f = Evaluable(pair)
    grids = []
    sweep = divisors._grid

    def recorded(f, lat, oa, ob):
        grids.append((oa, ob))
        return sweep(f, lat, oa, ob)

    monkeypatch.setattr(divisors, "_grid", recorded)
    with pytest.raises(SubdivisionFailureError, match="degree mismatch"):
        locate_divisor_pair(f, generic)
    assert len(grids) == len(set(grids)) == MAX_GRID_SHIFTS


def test_dead_grid_is_dropped_for_the_next(generic, monkeypatch):
    # every cell of the first grid fails to resolve: the worklist goes
    # depth first down to MAX_CELL_DEPTH, drops the grid there, and the
    # sweep returns what the next grid alone gives
    f = random_abel_function(np.random.default_rng(2), generic)
    second = list(itertools.islice(divisors._grid_offsets(), 2))[1]
    expected = divisors._grid(f, generic, *second)
    resolve = divisors._resolve_cell
    depths = []

    def dead_first_grid(f, lat, a0, b0, side):
        depths.append(round(math.log2(1.0 / (BASE_SUBDIVISION * side))))
        if len(depths) <= MAX_CELL_DEPTH + 1:
            return None
        return resolve(f, lat, a0, b0, side)

    monkeypatch.setattr(divisors, "_resolve_cell", dead_first_grid)
    zf, pf = locate_divisor_pair(f, generic)
    assert depths[:MAX_CELL_DEPTH + 2] == list(range(MAX_CELL_DEPTH + 1)) + [0]
    assert (zf, pf) == expected
    assert match_divisors(zf, f.zeros, generic, 1e-6)
    assert match_divisors(pf, f.poles, generic, 1e-6)


def test_no_resolvable_grid_exhausts_the_shift_budget(generic, monkeypatch):
    f = random_abel_function(np.random.default_rng(2), generic)
    bases = []

    def never(f, lat, a0, b0, side):
        if side == 1.0 / BASE_SUBDIVISION:
            bases.append((a0, b0))
        return None

    monkeypatch.setattr(divisors, "_resolve_cell", never)
    with pytest.raises(SubdivisionFailureError, match="shift budget"):
        locate_divisor_pair(f, generic)
    # one base cell per grid, each followed down to the depth limit
    assert len(bases) == len(set(bases)) == MAX_GRID_SHIFTS


def _reciprocal(f):
    """1/f, whose log derivative is -f'/f: the evaluable that poles were
    once polished on, kept as the oracle of the signed polish."""
    pair = f.values_and_dlog

    def rpair(z):
        v, d = pair(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / np.asarray(v), -np.asarray(d)

    return Evaluable(rpair)


def test_signed_polish_is_the_polish_of_the_reciprocal(generic):
    # a negative weight polishes 1/f with the operations of the 1/f
    # evaluable, so the two agree bit for bit: seeded poles of multiplicity
    # 1-3 of degree-3 functions, and the double pole of wp at 0
    rng = np.random.default_rng(5)
    p = 0.3 + 0.7j
    cases = [(wp_evaluable(generic), 0j, 2)]
    for mult in (1, 2, 3):
        poles = [(p, mult)] + [(0.8 + 0.3j, 1), (0.15 + 1.0j, 1)][:3 - mult]
        zeros = [(0.1 + 0.2j, 1), (0.6 + 1.1j, 1)]
        zeros.append((sum(m * q for q, m in poles) - sum(z for z, _ in zeros), 1))
        f = _abel_function(zeros, poles, generic)
        cases += [(f, q.rep, m) for q, m in f.poles.points]
    for h, pole, m in cases:
        for seed in pole + 1e-3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)):
            z, r = _newton_polish(h, complex(seed), -m)
            assert (z, r) == _newton_polish(_reciprocal(h), complex(seed), m)
            assert torus_distance(z, pole, generic) < 1e-6


def test_polish_returns_a_seed_at_the_noise_floor(generic):
    # the critical points c of the README function are simple zeros of f',
    # so f - f(c) has a double zero at c with |f - f(c)| at the evaluation
    # noise; from the lift c + omega2 the first Newton step does not lower
    # it, and the seed is returned after that one step
    from elliptica.covering import _shifted_evaluable
    from elliptica.elliptic import eval_elliptic

    f = _abel_function([(0.2 + 0.3j, 1), (0.5 + 1.0j, 1), (-0.7 - 1.3j, 1)],
                       [(0.1 + 0.1j, 1), (0.6 + 1.0j, 1), (-0.7 - 1.1j, 1)], generic)
    crit = locate_zeros(Evaluable(f.derivative_pair, degree=6), generic)
    assert len(crit.points) == 6
    for c, _ in crit.points:
        h = _shifted_evaluable(f, eval_elliptic(f, c.rep))
        pair, calls = h.values_and_dlog, []
        h.values_and_dlog = lambda z: calls.append(len(z)) or pair(z)
        seed = c.rep + generic.omega2
        z, r = _newton_polish(h, seed, 2)
        assert z == seed and len(calls) <= 2
        assert r <= 1e-14
