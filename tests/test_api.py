"""The public API: the exported names, and the names the benchmark imports."""

import pickle
import subprocess
import sys

import pytest

import streamcpd
from streamcpd import Detection, Detector, DetectorConfig, Direction, FamilySpec, StepResult
from streamcpd.maxima import CheckOutcome

PUBLIC = [
    "CalibrationError",
    "DegenerateSegmentError",
    "DelayRun",
    "Detection",
    "Detector",
    "DetectorConfig",
    "Direction",
    "FamilyKind",
    "FamilySpec",
    "InsufficientDataError",
    "ParamDomainError",
    "Scenario",
    "StepResult",
    "StreamCpdError",
    "SupportError",
    "attach_bounds",
    "calibrate_threshold",
    "check",
    "counter_profile",
    "delay_experiment",
    "generate",
    "mean_delay",
    "new_state",
    "q_full",
    "update",
]


def test_all_is_pinned():
    assert sorted(streamcpd.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(streamcpd, name), name


def test_lazy_exports_resolve():
    listed = dir(streamcpd)
    for name in streamcpd.__all__:
        value = getattr(streamcpd, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no_such_name"):
        streamcpd.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from streamcpd import no_such_name  # noqa: F401


def test_benchmark_imports():
    # perfbench/worker.py
    from streamcpd import (  # noqa: F401
        CalibrationError,
        DelayRun,
        Detector,
        DetectorConfig,
        Scenario,
        StreamCpdError,
        calibrate_threshold,
        delay_experiment,
        generate,
    )
    from streamcpd import bench, cli

    # perfbench/tracing.py
    from streamcpd import (  # noqa: F401
        Detection,
        Direction,
        StepResult,
        SupportError,
        attach_bounds,
        check,
        new_state,
        q_full,
        update,
    )

    # perfbench/workloads.py
    from streamcpd import FamilyKind, FamilySpec  # noqa: F401

    # the module attributes the benchmark wraps or replaces
    for name in ("generate", "stat_running_max", "first_detection"):
        assert callable(getattr(bench, name))
    assert cli.Detector is Detector

    # the attributes the benchmark reads: a rename breaks its replicas
    spec = FamilySpec.poisson()
    cfg = DetectorConfig(spec, 1.0, 1e-3, "both", stat_every=1, stop_on_detect=False)
    assert (cfg.stat_every, cfg.stop_on_detect) == (1, False)
    det = Detector(cfg)
    det.step(4.0)
    assert det._t == det.t == 1 and det.config is cfg and det._stat_defined()
    assert det.statistic() > 0.0
    assert [st.direction for st in det.states] == [Direction.UP, Direction.DOWN]
    for st in det.states:
        assert isinstance(st.records, list)
        c = st.counters
        sums = (c.merges, c.curves_stored_sum, c.curves_evaluated_sum, c.transcendental_calls)
        assert all(isinstance(v, int) for v in sums)
    out = check(det.states[0], spec, cfg.threshold)
    assert out.changed is True and out.tau_low == 0 and out.stat > 0.0 and out.curves_evaluated >= 1
    res = calibrate_threshold(cfg, 100, 50, 1)
    assert res.threshold > 0.0 and res.achieved_arl > 0.0 and res.rounds >= 1
    rows = delay_experiment([DelayRun("a", cfg, Scenario(spec, 1.0, 3.0, 10, 30, 1))], 2)
    assert {row.outcome for row in rows} <= {"detected", "false_positive", "censored"}


def test_family_spec_pickles():
    for spec in (FamilySpec.gauss_mean(), FamilySpec.binomial(3), FamilySpec.gamma(2.5)):
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert back.conjugate(0.7) == spec.conjugate(0.7)


def test_detector_config_pickles():
    for theta0 in (0.5, None):
        config = DetectorConfig(FamilySpec.binomial(3), theta0, 12.5, "down", stat_every=4)
        back = pickle.loads(pickle.dumps(config))
        assert back == config and back.spec.suff(2.0) == 2.0


# A fresh interpreter: `detect` and `--help` must not load numpy or scipy, and
# `simulate` and `calibrate` bring in `scipy.special` alone when they first draw.
_HYGIENE = """
import sys
import streamcpd
import streamcpd.cli
assert streamcpd.Detector is streamcpd.cli.Detector and streamcpd.DetectorConfig and streamcpd.FamilyKind
inp, out = sys.argv[1:3]
with open(inp, "w") as fh:
    fh.write("1\\n2\\n1\\n3\\n")
for family in (["gauss-mean"], ["gauss-var"], ["poisson"], ["binomial", "--trials", "4"],
               ["gamma", "--shape", "2"]):
    argv = ["detect", "--family", *family, "--theta0", "unknown", "--threshold", "50",
            "--stat-every", "1", "--input", inp, "--output", out]
    assert streamcpd.cli.main(argv) == 0
    assert len(open(out).read().splitlines()) == 4
try:
    streamcpd.cli.main(["--help"])
except SystemExit as e:
    assert e.code == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""


def test_detect_loads_no_numpy_or_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _HYGIENE, str(tmp_path / "in.txt"), str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_simulate_in_a_fresh_process_imports_scipy(tmp_path):
    from streamcpd import Scenario, generate
    from streamcpd.cli import main

    code = (
        "import sys, streamcpd.cli\n"
        "for argv in sys.argv[1:]:\n"
        "    assert streamcpd.cli.main(argv.split()) == 0\n"
        "assert 'scipy.special' in sys.modules and 'scipy.stats' not in sys.modules\n"
    )
    cases = [(FamilySpec.poisson(), "--family poisson", 1.5),
             (FamilySpec.binomial(4), "--family binomial --trials 4", 0.3),
             (FamilySpec.gamma(2.0), "--family gamma --shape 2", 1.5)]
    argvs = [f"simulate {flags} --theta-pre {theta} --length 20 --seed 4 --output {tmp_path / str(i)}"
             for i, (_, flags, theta) in enumerate(cases)]
    calibrate = ("calibrate --family poisson --theta0 unknown --null-theta 1 --direction up "
                 "--target-arl 100 --reps 50 --seed 1 --output")
    proc = subprocess.run([sys.executable, "-c", code, *argvs, f"{calibrate} {tmp_path / 'cal'}"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for i, (spec, _, theta) in enumerate(cases):
        want = generate(Scenario(spec, theta, theta, 0, 20, 4))
        got = [float(v) for v in (tmp_path / str(i)).read_text().split()]
        assert got == want.tolist()
    assert main(f"{calibrate} {tmp_path / 'here'}".split()) == 0
    assert (tmp_path / "cal").read_text() == (tmp_path / "here").read_text()


# The result types are named tuples: perfbench/tracing.py builds StepResult by
# keyword and Detection positionally, and the CLI unpacks StepResult.
_DETECTION = (12, 7, 21.5, Direction.UP)
RESULT_TYPES = [
    (StepResult, ("t", "detection", "stat", "curves_stored", "curves_evaluated"),
     (12, Detection(*_DETECTION), None, 4, 2)),
    (Detection, ("t_detect", "tau_low", "stat", "direction_hit"), _DETECTION),
    (CheckOutcome, ("changed", "tau_low", "t_now", "stat", "curves_evaluated", "bound_used"),
     (True, 7, 12, 21.5, 2, 30.25)),
]


@pytest.mark.parametrize("cls, fields, values", RESULT_TYPES, ids=[c.__name__ for c, _, _ in RESULT_TYPES])
def test_result_type_contract(cls, fields, values):
    assert cls._fields == fields
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert tuple(by_position) == values
    assert [getattr(by_keyword, f) for f in fields] == list(values)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(by_position, f, None)
    back = pickle.loads(pickle.dumps(by_position))
    assert type(back) is cls and back == by_position
    moved = by_position._replace(**{fields[0]: 99})
    assert getattr(moved, fields[0]) == 99 and by_position == by_keyword
    assert by_position._asdict() == dict(zip(fields, values))


def test_detection_is_truthy_in_step_results():
    # README: `if res.detection:` tests for a detection
    det = Detector(DetectorConfig(FamilySpec.gauss_mean(), theta0=0.0, threshold=5.0, direction="up"))
    results = [det.step(x) for x in (0.1, -0.2, 4.0, 4.0, 4.0)]
    assert not results[0].detection
    hit = next(r for r in results if r.detection is not None)
    assert hit.detection
    assert Detection(1, 0, 0.0, Direction.DOWN)
    t, detection, stat, curves_stored, curves_evaluated = hit
    assert detection is hit.detection and t == hit.t
