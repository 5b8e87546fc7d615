"""Calibration arithmetic and pinning."""

import os

import calibrate


def test_factor_uses_the_faster_probe():
    nominal = calibrate.NOMINAL_S
    assert calibrate.factor(nominal, 2 * nominal) == 1.0
    assert calibrate.factor(4 * nominal, 2 * nominal) == 0.5


def test_pin_one_cpu_returns_the_old_affinity():
    home = os.sched_getaffinity(0)
    try:
        assert calibrate.pin_one_cpu() == home
        assert os.sched_getaffinity(0) == {max(home)}
        assert 0 < calibrate.probe() < 1
    finally:
        os.sched_setaffinity(0, home)
