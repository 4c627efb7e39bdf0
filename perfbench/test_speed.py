"""Reference seconds: kernels run inside a span are taken out of it, and
the span is scaled by the speed sampled in and next to it.

    python3 -m pytest perfbench
"""

import pytest

from perfbench.speed import NOMINAL_KERNEL_S, SpeedSampler


def _sampler(samples):
    sampler = SpeedSampler()
    for start, length in samples:
        sampler.starts.append(start)
        sampler.ends.append(start + length)
    return sampler


def test_span_at_nominal_speed_reads_its_raw_length():
    k = NOMINAL_KERNEL_S
    sampler = _sampler([(0.5, k), (1.5, k), (2.5, k), (3.5, k)])
    raw, reference = sampler.reference_seconds(1.0, 3.0)
    assert raw == pytest.approx(2.0 - 2 * k)
    assert reference == pytest.approx(raw)


def test_span_on_a_slower_machine_reads_the_same_work():
    k = NOMINAL_KERNEL_S
    fast = _sampler([(0.5, k), (1.5, k), (2.5, k)]).reference_seconds(1.0, 2.0)
    # the same work, with every kernel and the span itself twice as long
    slow = _sampler([(1.0, 2 * k), (3.0, 2 * k), (5.0, 2 * k)]).reference_seconds(2.0, 4.0)
    assert slow[0] == pytest.approx(2 * fast[0])
    assert slow[1] == pytest.approx(fast[1])


def test_span_without_a_sample_inside_uses_its_neighbours():
    k = NOMINAL_KERNEL_S
    sampler = _sampler([(0.0, k), (1.0, 3 * k)])
    raw, reference = sampler.reference_seconds(0.4, 0.6)
    assert raw == pytest.approx(0.2)
    assert reference == pytest.approx(0.2 * (1 + 1 / 3) / 2)


def test_no_sample_at_all_is_an_error():
    with pytest.raises(RuntimeError):
        SpeedSampler().reference_seconds(0.0, 1.0)
