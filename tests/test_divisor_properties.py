"""Property test: random Abel divisors survive build -> locate -> match."""
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import GENERIC, HEXAGONAL, SQUARE
from elliptica import build_from_divisors, divisor, torus_distance
from elliptica.divisors import locate_divisor_pair, match_divisors

LATTICES = {"square": SQUARE, "hexagonal": HEXAGONAL, "generic": GENERIC}
MIN_SEP = 0.05

# points on distinct cells of a 5 x 5 grid of the fundamental parallelogram,
# jittered inside their cell, so that the drawn points are well separated
_cells = st.lists(st.integers(0, 24), min_size=5, max_size=5, unique=True)
_jitter = st.lists(
    st.tuples(st.floats(0.02, 0.18), st.floats(0.02, 0.18)), min_size=5, max_size=5
)


@settings(derandomize=True, deadline=None, max_examples=12, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(LATTICES)), degree=st.integers(2, 3),
       cells=_cells, jitter=_jitter)
def test_abel_divisor_round_trip(name, degree, cells, jitter):
    lat = LATTICES[name]
    pts = [
        lat.from_coords(0.2 * (c % 5) + da, 0.2 * (c // 5) + db)
        for c, (da, db) in zip(cells, jitter)
    ][: 2 * degree - 1]
    poles, zeros = pts[:degree], pts[degree:]
    zeros.append(sum(poles) - sum(zeros))  # closes the Abel condition
    everything = zeros + poles
    assume(all(
        torus_distance(a, b, lat) > MIN_SEP * abs(lat.omega1)
        for i, a in enumerate(everything) for b in everything[i + 1:]
    ))
    zdiv = divisor([(z, 1) for z in zeros], lat)
    pdiv = divisor([(p, 1) for p in poles], lat)
    f = build_from_divisors(zdiv, pdiv, lat)
    zf, pf = locate_divisor_pair(f, lat)
    assert match_divisors(zf, zdiv, lat, 1e-6)
    assert match_divisors(pf, pdiv, lat, 1e-6)
