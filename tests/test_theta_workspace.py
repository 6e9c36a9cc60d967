"""The theta kernel's per-thread workspace: no result ever shares memory with
it, it holds no stale values, every thread has its own, and it does not grow
with the call size."""
import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import GENERIC, random_abel_function
from elliptica import make_lattice, theta, theta_shifted, wp_values
from elliptica.theta import _BLOCK, theta_derivs_reduced, theta_sums

KB = 1024


def points(rng, lat, n):
    return rng.uniform(0.0, 1.0, n) * lat.omega1 + rng.uniform(0.0, 1.0, n) * lat.omega2


def six_lifts(lat, seed=0):
    f = random_abel_function(np.random.default_rng(seed), lat)
    assert sum(len(lifts) for lifts in f._lifts) == 6
    return f


def every_output(lat, z, f):
    """Every array the kernel's public callers return, on the points z."""
    shifts = [0.1 + 0.2j, -0.3 + 0.5j, 0.7 - 0.4j]
    out = []
    for order in range(4):
        out += theta_sums(z, shifts, lat, order=order)
        out += theta_derivs_reduced(z, lat, order=order)
    out += [theta(z, lat), theta_shifted(0.3 + 0.1j, z, lat), *wp_values(z, lat), f.values(z),
            *f.values_and_dlog(z), *f.derivative_pair(z)]
    return out


@pytest.mark.parametrize("n", [1, 5, 9000])
def test_results_never_change_after_later_calls(n):
    rng = np.random.default_rng(n)
    f = six_lifts(GENERIC)
    outs = every_output(GENERIC, points(rng, GENERIC, n), f)
    copies = [a.copy() for a in outs]
    # later calls on other points, other lattices and other block shapes
    other = make_lattice(1.0, -0.2 + 3.1j)
    g = six_lifts(other, seed=1)
    for m in (1, 2, 700, 5000):
        every_output(other, points(rng, other, m), g)
        every_output(GENERIC, points(rng, GENERIC, m), f)
    for a, b in zip(outs, copies):
        assert a.tobytes() == b.tobytes()


def test_empty_sum_after_a_full_call():
    # an explicit trunc=0 is the empty sum, whatever the last call left in
    # the workspace: theta is exactly 1 in the band, its derivatives 0
    rng = np.random.default_rng(2)
    z = rng.uniform(-0.5, 0.5, 300) + 1j * rng.uniform(-0.45, 0.45, 300) * GENERIC.tau.imag
    theta_derivs_reduced(z, GENERIC, order=3)
    assert (theta(z, GENERIC, trunc=0) == 1.0).all()
    theta(z, GENERIC)
    sums, _ = theta_sums(z, [0.0], GENERIC, trunc=0, order=3)
    assert (sums[0] == 1.0).all() and (sums[1:] == 0.0).all()


def test_blocks_beyond_the_workspace():
    # more than _BLOCK shifts, or order 4, take a fresh buffer per block:
    # the same bits as a block inside the workspace
    rng = np.random.default_rng(6)
    z = points(rng, GENERIC, 3)
    shifts = points(rng, GENERIC, _BLOCK + 1)
    for order in (3, 4):
        sums, k = theta_sums(z, shifts, GENERIC, order=order)
        for j in (0, 1, _BLOCK // 2, _BLOCK):
            alone, kalone = theta_sums(z, shifts[j:j + 1], GENERIC, order=order)
            assert (alone[:, 0] == sums[:, j]).all() and (kalone[0] == k[j]).all()
    zs = points(rng, GENERIC, 2 * _BLOCK + 1)
    wide, kwide = theta_sums(zs, [0.0], GENERIC, order=4)
    for i in (0, _BLOCK, 2 * _BLOCK):
        alone, kalone = theta_sums(zs[i:i + 1], [0.0], GENERIC, order=4)
        assert (alone[:, 0, 0] == wide[:, 0, i]).all() and kalone[0, 0] == kwide[0, i]


def in_fresh_thread(fn):
    box = []
    t = threading.Thread(target=lambda: box.append(fn()))
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    return box[0]


def test_one_point_after_a_wide_call_is_a_fresh_threads():
    rng = np.random.default_rng(3)
    f = six_lifts(GENERIC)
    z1 = points(rng, GENERIC, 1)
    # 4096 points x 6 lifts: 24 576 pairs, six blocks of the kernel
    f.values_and_dlog(points(rng, GENERIC, 4096))
    here = every_output(GENERIC, z1, f)
    fresh = in_fresh_thread(lambda: every_output(GENERIC, z1, f))
    for a, b in zip(here, fresh):
        assert a.tobytes() == b.tobytes()


def test_threads_evaluate_concurrently():
    lats = [GENERIC, make_lattice(1.0, 0.45 + 0.95j), make_lattice(1.0, -0.2 + 5.3j)]
    jobs = []
    for i, lat in enumerate(lats):
        rng = np.random.default_rng(10 + i)
        jobs.append((lat, six_lifts(lat, seed=i), [points(rng, lat, n) for n in (1, 3, 700, 5000)]))

    def run(job):
        lat, f, zs = job
        return [a.tobytes() for z in zs for a in every_output(lat, z, f)]

    want = [run(job) for job in jobs]
    got = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def worker(i):
        start.wait()
        got[i] = [run(jobs[i]) for _ in range(3)]

    # more threads than cores, switching often
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(len(jobs)):
        assert got[i] == [want[i]] * 3


def traced_peak(fn):
    """Peak traced memory of fn(), warm: one untraced call first."""
    fn()
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("what, n, limit_kb", [
    ("values_and_dlog", 4096, 1600),
    ("wp_values", 2048, 450),
    ("theta", 4096, 300),
])
def test_footprint_of_a_warm_call(what, n, limit_kb):
    # the block temporaries live in the workspace and the post-processing
    # runs in place on the kernel's fresh arrays; numpy reports its buffers
    # to tracemalloc, so this does not depend on the allocator
    rng = np.random.default_rng(4)
    z = points(rng, GENERIC, n)
    f = six_lifts(GENERIC)
    call = {"values_and_dlog": lambda: f.values_and_dlog(z),
            "wp_values": lambda: wp_values(z, GENERIC),
            "theta": lambda: theta(z, GENERIC)}[what]
    assert traced_peak(call) <= limit_kb * KB


def test_workspace_does_not_grow_with_the_call():
    rng = np.random.default_rng(5)
    f = six_lifts(GENERIC)
    z = points(rng, GENERIC, 200_000)
    f.values_and_dlog(z[:1])
    wp_values(z[:1], GENERIC)

    def wide():
        # the workspace of a new thread is made and traced here
        gc.collect()
        tracemalloc.start()
        try:
            out = f.values_and_dlog(z), wp_values(z, GENERIC)
            del out
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert in_fresh_thread(wide) <= 1536 * KB
