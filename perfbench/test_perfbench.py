"""Tests of the benchmark itself: seeded inputs, one reduced request per
workload through its output checks, and the span self-time arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for _path in (HERE, HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import inputs  # noqa: E402
import workloads  # noqa: E402
from spans import Span, SpanRecorder, layer_table, self_times  # noqa: E402


def _workload_inputs(seed: int, tmp: Path) -> bytes:
    scale = inputs.REDUCED
    out = inputs.ppm_bytes(inputs.photo_pixels(seed, 168, 112))
    inputs.write_checkpoint(seed, scale, tmp / f"{seed}.ckpt")
    out += (tmp / f"{seed}.ckpt").read_bytes()
    out += b"".join(img.pixels.tobytes() for img in inputs.train_corpus(seed, scale))
    return out


def test_inputs_follow_the_seed(tmp_path):
    first = _workload_inputs(5, tmp_path)
    assert first == _workload_inputs(5, tmp_path)
    assert first != _workload_inputs(6, tmp_path)
    ppm = inputs.ppm_bytes(inputs.photo_pixels(5, 168, 112))
    assert ppm.startswith(b"P6\n168 112\n255\n")
    assert len(ppm) == len(b"P6\n168 112\n255\n") + 168 * 112 * 3


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_run_passes_its_checks(workload, traced, tmp_path):
    result = workloads.run_workload(workload, 3, 0.0, traced, inputs.REDUCED, tmp_path, nproc=2)
    assert result.errors == []
    assert result.failed == 0 and result.attempted >= 1
    if traced:
        assert result.spans
        assert all(v == v for v in result.metrics.values())
    else:
        assert {"latency_p50_s", "latency_tail_s", "images_per_s", "peak_mb"} <= set(result.metrics)
        assert all(result.metrics[k] > 0 for k in ("latency_p50_s", "images_per_s", "peak_mb"))


def test_a_wrong_output_fails_its_check(tmp_path):
    env = workloads.Env(3, inputs.REDUCED, tmp_path)
    photos = inputs.write_photos(3, [(112, 112)], tmp_path)
    good = workloads.photo_request(env, photos["112x112"], "112x112", 1)
    bad = workloads.photo_request(env, photos["112x112"], "112x112", 1)
    bad.path.write_bytes(bad.path.read_bytes()[:-4] + b"\0\0\0\0")
    cut = workloads.photo_request(env, photos["112x112"], "112x112", 1)
    cut.path.write_bytes(cut.path.read_bytes()[:-4])
    digests, failed, errors = workloads.check_outputs([good, bad, cut], env.config.hiwin.grid_side)
    assert failed == 2 and len(errors) == 2
    assert "round trip" in errors[0] and "does not load" in errors[1]
    assert set(digests) == {"112x112"}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "request", 0, 100, None, 1),
        Span(2, "pipeline.run", 10, 90, 1, 1),
        # two pool threads: overlapping children of pipeline.run
        Span(3, "pipeline.unit", 10, 60, 2, 1),
        Span(4, "pipeline.unit", 20, 80, 2, 1),
        Span(5, "vdim.upsample_l1", 30, 50, 4, 1),
        # a child that outlives its parent only counts inside the parent
        Span(6, "token_org.save", 85, 120, 1, 1),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 100 - 90, 2: 80 - 70, 3: 50, 4: 60 - 20, 5: 20, 6: 35}
    table = layer_table(spans)
    assert table["pipeline.unit"]["calls"] == 2
    assert table["pipeline.unit"]["self_s"] == pytest.approx(90e-9)
    assert table["pipeline.unit"]["mean_self_s"] == pytest.approx(45e-9)


def test_recorder_nests_and_passes_parents_across_threads():
    rec = SpanRecorder()
    with rec.span("request", request=7) as outer:
        with rec.span("inner") as inner:
            pass
    with rec.span("pool-task", request=7, parent=outer):
        pass
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == outer and by_name["inner"].request == 7
    assert by_name["inner"].id == inner
    assert by_name["pool-task"].parent == outer
    assert by_name["request"].parent is None


@pytest.mark.parametrize(
    "n, expected",
    [(6, (6.0, 100.0, 0)), (19, (19.0, 100.0, 0)), (20, (10.0, 50.0, 10)), (40, (30.0, 75.0, 10))],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert workloads.tail([float(i) for i in range(n, 0, -1)]) == expected
