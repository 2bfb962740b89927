"""What the benchmark in ``bench/`` reads from the package: the names its tracer
wraps, its traced step sweep, and each workload's set-up path at toy size.
``bench/test_smoke.py`` runs the whole benchmark; this keeps its calls into the
package under the package's own tests."""

from pathlib import Path

import numpy as np
import pytest

from slmc.sampler import StepCache

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = ("gauss-d2-planned", "gauss-d512-dense", "logistic-d20-fixed")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))


def test_traced_sweep_finds_every_wrapped_name(bench):
    import tracing

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        pass
    assert tracer.missing == []
    out = tracing.sweep(((2, 3, 1),))
    assert set(out) == {"sweep.d2.cache_build_s", "sweep.d2.step_us"}
    assert all(np.isfinite(value) and value > 0.0 for value in out.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_toy_workload_sets_up(bench, tmp_path, name):
    import workloads

    assert name in workloads.NAMES
    config = workloads.make_workload(name, 1, str(tmp_path), size="toy").config
    assert isinstance(workloads.setup_once(config), StepCache)


def test_traced_hessian_keeps_theta_bits(bench, tmp_path):
    # the tracer wraps hess_oracle pass-through; the probe batch must reach the
    # oracle as it is, or the traced and untraced CSVs would differ
    import tracing
    import workloads

    config = workloads.make_workload("logistic-d20-fixed", 1, str(tmp_path), size="toy").config
    plain = workloads.setup_once(config).config
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = workloads.setup_once(config).config
    assert tracer.calls("targets.hess") == 3  # the probe batch, the candidate, the anchor
    assert plain.theta > 0.0
    assert traced.theta.hex() == plain.theta.hex()
    assert traced.m_hat == plain.m_hat
    assert np.array_equal(traced.A.mat, plain.A.mat)
