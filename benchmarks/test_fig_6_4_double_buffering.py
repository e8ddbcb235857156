"""Fig 6.4 — frame-rate improvement from double buffering."""

from conftest import emit

from repro.bench.harness import run_fig_6_4


def test_fig_6_4_double_buffering(benchmark):
    exp = benchmark.pedantic(run_fig_6_4, rounds=2, iterations=1)
    emit(exp.report)
    gains = exp.data["gains"]
    no_tf = gains["think freq off"]
    tf = gains["think freq 1/10"]

    # Paper band: 12%-32%; the model is allowed to breathe slightly.
    for n, g in {**no_tf, **tf}.items():
        assert 3.0 <= g <= 40.0, f"n={n}: gain {g:.1f}% out of band"

    # The paper's band itself at three operating points it reports.
    for series, n in [(no_tf, 16384), (no_tf, 32768), (tf, 32768)]:
        assert 12.0 <= series[n] <= 32.0, f"n={n}: gain {series[n]:.2f}%"

    # Peaks where host and device finish together (§6.3.2).
    assert max(no_tf, key=no_tf.get) == 8192
    assert max(tf, key=tf.get) == 32768

    # The no-TF peak gain falls in the paper's upper range.
    assert 25.0 <= no_tf[8192] <= 40.0
