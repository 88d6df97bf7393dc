"""Command-line surface: flags, NDJSON events, exit codes, CSV output."""

import json
import math
import os
import subprocess
import sys

import pytest

from streamcpd import Detector, DetectorConfig, FamilySpec
from streamcpd.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------
# argument parsing
# ------------------------------------------------------------------


def test_detect_valid_flags(tmp_path, capsys):
    p = tmp_path / "in.txt"
    p.write_text("")
    code, out, _ = run_cli(
        ["detect", "--family", "poisson", "--theta0", "1", "--direction", "both",
         "--threshold", "18", "--input", str(p)], capsys)
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["detect", "--family", "gamma", "--theta0", "1", "--threshold", "5"],
    ["detect", "--family", "poisson", "--theta0", "1", "--threshold", "5", "--shape", "2"],
    ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "5", "--trials", "3"],
    ["detect", "--family", "binomial", "--theta0", "0.5", "--threshold", "5"],
    ["detect", "--family", "binomial", "--trials", "0", "--theta0", "0.5", "--threshold", "5"],
    ["detect", "--family", "gamma", "--shape", "-1", "--theta0", "1", "--threshold", "5"],
    ["detect", "--family", "binomial", "--trials", str(10**20), "--theta0", "0.5", "--threshold", "5"],
    ["detect", "--family", "gamma", "--shape", "inf", "--theta0", "1", "--threshold", "5"],
    ["detect", "--family", "gauss-mean", "--theta0", "zero", "--threshold", "5"],
    ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "-1"],
])
def test_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_theta0_unknown_accepted(tmp_path, capsys):
    p = tmp_path / "in.txt"
    p.write_text("1\n2\n")
    code, out, _ = run_cli(
        ["detect", "--family", "gauss-mean", "--theta0", "unknown", "--threshold", "50",
         "--input", str(p)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2


# ------------------------------------------------------------------
# detect events and exit codes
# ------------------------------------------------------------------


def test_detect_golden_detection(tmp_path, capsys):
    p = tmp_path / "in.txt"
    p.write_text("3\n3\n")
    code, out, _ = run_cli(
        ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "10",
         "--input", str(p)], capsys)
    assert code == 3  # stop-on-detect
    lines = out.strip().splitlines()
    assert lines[0] == '{"t": 1, "curves": 1, "evaluated": 1}'
    assert lines[1] == ('{"t": 2, "curves": 1, "evaluated": 1, "detect": true, '
                        '"tau_low": 0, "stat": 18, "direction": "up"}')
    for line in lines:
        obj = json.loads(line)
        assert set(obj) <= {"t", "curves", "evaluated", "stat", "detect", "tau_low", "direction"}


def test_detect_empty_input(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("")
    code, out, _ = run_cli(
        ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "5",
         "--input", str(p)], capsys)
    assert code == 0
    assert out == ""


def test_detect_malformed_line_reports_number(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1.0\nabc\n")
    code, _, err = run_cli(
        ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "50",
         "--input", str(p)], capsys)
    assert code == 2
    assert "line 2" in err


def test_detect_support_violation_exits_2(tmp_path, capsys):
    p = tmp_path / "neg.txt"
    p.write_text("1\n-4\n")
    code, _, err = run_cli(
        ["detect", "--family", "poisson", "--theta0", "1", "--threshold", "50",
         "--input", str(p)], capsys)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("flags, text", [
    # an exact zero is outside the gauss-var support
    (["--family", "gauss-var", "--theta0", "1", "--direction", "down"], "1\n0\n"),
    # x^2 lost to prefix-sum cancellation leaves a degenerate segment
    (["--family", "gauss-var", "--theta0", "1", "--direction", "both"], "1e10\n1e-10\n"),
    (["--family", "gauss-var", "--theta0", "unknown", "--direction", "both"], "1e10\n1e-10\n"),
    (["--family", "poisson", "--theta0", "1"], "1\ninf\n"),
    (["--family", "binomial", "--trials", "2", "--theta0", "0.5"], "1\nnan\n"),
    # squares that underflow to 0 or overflow to inf are outside the gauss-var support
    (["--family", "gauss-var", "--theta0", "1", "--direction", "both"], "1\n1e-200\n"),
    (["--family", "gauss-var", "--theta0", "1", "--direction", "both"], "1\n1e200\n"),
])
def test_detect_rejected_value_exits_2(tmp_path, capsys, flags, text):
    p = tmp_path / "in.txt"
    p.write_text(text)
    code, out, err = run_cli(
        ["detect", *flags, "--threshold", "20", "--no-stop", "--input", str(p)], capsys)
    assert code == 2
    assert "line 2" in err
    assert len(out.splitlines()) == 1


def test_detect_subnormal_gamma_mean_exits_2_without_traceback():
    # 5e-324 / shape 2 underflows to 0, the log's argument in gamma's conjugate
    proc = subprocess.run([sys.executable, "-m", "streamcpd.cli", "detect", "--family", "gamma", "--shape", "2",
                           "--theta0", "unknown", "--threshold", "1"], input="5e-324\n",
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 1: ") and "Traceback" not in proc.stderr


# bytes that are not UTF-8 on line 3; a comment line with such bytes is skipped
_NON_UTF8 = b"1\n# caf\xe9\n2\n\xff\xfe1\n3\n"
_NON_UTF8_ARGS = ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "10"]


def test_detect_rejects_non_utf8_file(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_bytes(_NON_UTF8)
    code, out, err = run_cli([*_NON_UTF8_ARGS, "--input", str(p)], capsys)
    assert code == 2
    assert err == "error: line 4: not valid UTF-8: b'\\xff\\xfe1'\n"
    assert [_strict_json(line)["t"] for line in out.splitlines()] == [1, 2]


def test_detect_rejects_non_utf8_stdin():
    # strict stdin decoding, whatever the locale: the case that used to end
    # in a UnicodeDecodeError traceback
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    proc = subprocess.run([sys.executable, "-m", "streamcpd.cli", *_NON_UTF8_ARGS], input=_NON_UTF8,
                          capture_output=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == b"error: line 4: not valid UTF-8: b'\\xff\\xfe1'\n"
    assert [_strict_json(line)["t"] for line in proc.stdout.decode().splitlines()] == [1, 2]


@pytest.mark.parametrize("fd, argv, message", [
    (0, _NON_UTF8_ARGS, "error: cannot open input: [Errno 9] standard input is closed\n"),
    (1, ["simulate", "--family", "gauss-mean", "--theta-pre", "0", "--length", "3", "--seed", "1"],
     "error: cannot open output: [Errno 9] standard output is closed\n"),
], ids=["detect-stdin", "simulate-stdout"])
def test_closed_standard_stream_exits_1_without_traceback(fd, argv, message):
    # the child starts with the descriptor closed, as after `<&-` or `>&-`;
    # sys.stdin / sys.stdout are then None
    proc = subprocess.run([sys.executable, "-m", "streamcpd.cli", *argv], stderr=subprocess.PIPE,
                          text=True, preexec_fn=lambda: os.close(fd))
    assert proc.returncode == 1
    assert proc.stderr == message


def _strict_json(line):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(line, parse_constant=reject)


def test_detect_infinite_stat_is_valid_json(tmp_path, capsys):
    p = tmp_path / "in.txt"
    p.write_text("1e308\n-1e308\n")
    code, out, _ = run_cli(
        ["detect", "--family", "gauss-mean", "--theta0", "unknown", "--threshold", "20",
         "--stat-every", "1", "--no-stop", "--input", str(p)], capsys)
    assert code == 0
    assert '"stat": 1e999' in out
    events = [_strict_json(line) for line in out.splitlines()]
    assert events[-1]["stat"] == math.inf


# quiet, an up shift, a down shift, then a value whose statistic overflows
_EVENT_STREAM = [0.1 * (-1) ** i for i in range(12)] + [3.0] * 6 + [-3.0] * 14 + [0.2, 1e308]
_EVENT_ARGS = ["detect", "--family", "gauss-mean", "--theta0", "0", "--direction", "both",
               "--threshold", "10", "--stat-every", "3", "--no-stop"]


def _expected_event(res):
    event = {"t": res.t, "curves": res.curves_stored, "evaluated": res.curves_evaluated}
    if res.detection is not None:
        event.update(detect=True, tau_low=res.detection.tau_low, stat=res.detection.stat,
                     direction=res.detection.direction_hit.name.lower())
    elif res.stat is not None:
        event["stat"] = res.stat
    return event


def test_detect_events_match_detector_steps(tmp_path, capsys):
    det = Detector(DetectorConfig(FamilySpec.gauss_mean(), theta0=0.0, threshold=10.0,
                                  direction="both", stat_every=3, stop_on_detect=False))
    expected = [_expected_event(det.step(x)) for x in _EVENT_STREAM]
    p = tmp_path / "in.txt"
    p.write_text("".join(f"{x!r}\n" for x in _EVENT_STREAM))
    out_path = tmp_path / "events.ndjson"
    code, out, _ = run_cli([*_EVENT_ARGS, "--input", str(p), "--output", str(out_path)], capsys)
    assert code == 0 and out == ""
    written = out_path.read_text()
    proc = subprocess.run([sys.executable, "-m", "streamcpd.cli", *_EVENT_ARGS, "--input", str(p)],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == written

    assert written.endswith("\n")
    lines = written.splitlines()
    assert [list(_strict_json(line).items()) for line in lines] == [list(e.items()) for e in expected]
    # every branch of the formatter: plain, stat, detection up/down, 1e999
    kinds = {("detect" in e, e.get("direction"), "stat" in e) for e in expected}
    assert {(False, None, False), (False, None, True), (True, "up", True), (True, "down", True)} <= kinds
    assert lines[-1].endswith('"stat": 1e999, "direction": "up"}')


@pytest.mark.parametrize("flags, text", [
    (["--family", "gauss-mean", "--theta0", "1e9"], "1000000000\n1000000000.5\n"),
    (["--family", "binomial", "--trials", "1", "--theta0", "1e-17"], "0\n0\n"),
])
def test_detect_accepts_extreme_valid_theta0(tmp_path, capsys, flags, text):
    p = tmp_path / "in.txt"
    p.write_text(text)
    code, out, _ = run_cli(["detect", *flags, "--threshold", "20", "--input", str(p)], capsys)
    assert code == 0
    assert len(out.splitlines()) == 2


def test_detect_skips_blanks_and_comments(tmp_path, capsys):
    p = tmp_path / "in.txt"
    p.write_text("# header\n\n0.5\n\n# middle\n-0.25\n")
    code, out, _ = run_cli(
        ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "50",
         "--input", str(p)], capsys)
    assert code == 0
    ts = [json.loads(l)["t"] for l in out.strip().splitlines()]
    assert ts == [1, 2]


def test_detect_no_stop_keeps_streaming(tmp_path, capsys):
    p = tmp_path / "in.txt"
    p.write_text("3\n3\n3\n")
    code, out, _ = run_cli(
        ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "10", "--no-stop",
         "--input", str(p)], capsys)
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 3
    assert lines[1].get("detect") and lines[2].get("detect")


def test_detect_stat_every(tmp_path, capsys):
    p = tmp_path / "in.txt"
    p.write_text("0.5\n0.5\n0.5\n0.5\n")
    code, out, _ = run_cli(
        ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "50",
         "--stat-every", "2", "--input", str(p)], capsys)
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert "stat" not in lines[0] and "stat" not in lines[2]
    assert "stat" in lines[1] and "stat" in lines[3]


def test_detect_missing_input_file(capsys):
    code, _, err = run_cli(
        ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "5",
         "--input", "/nonexistent/x.txt"], capsys)
    assert code == 1
    assert "cannot open input" in err


# ------------------------------------------------------------------
# simulate / calibrate / bench
# ------------------------------------------------------------------


def test_simulate_writes_stream(tmp_path, capsys):
    out_path = tmp_path / "s.txt"
    code, _, _ = run_cli(
        ["simulate", "--family", "poisson", "--theta-pre", "1", "--length", "50",
         "--seed", "9", "--output", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 50
    assert all(int(l) >= 0 for l in lines)


def test_simulate_deterministic(capsys):
    args = ["simulate", "--family", "gauss-mean", "--theta-pre", "0", "--length", "20", "--seed", "4"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_simulate_roundtrips_into_detect(tmp_path, capsys):
    stream = tmp_path / "stream.txt"
    code, _, _ = run_cli(
        ["simulate", "--family", "gauss-mean", "--theta-pre", "0", "--theta-post", "3",
         "--change-at", "30", "--length", "120", "--seed", "2", "--output", str(stream)], capsys)
    assert code == 0
    code, out, _ = run_cli(
        ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "20",
         "--input", str(stream)], capsys)
    assert code == 3
    last = json.loads(out.strip().splitlines()[-1])
    assert last["detect"] is True and last["t"] > 30


def test_calibrate_json_deterministic(capsys):
    args = ["calibrate", "--family", "gauss-mean", "--theta0", "0", "--direction", "up",
            "--target-arl", "200", "--reps", "50", "--seed", "3"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert set(obj) == {"threshold", "achieved_arl", "target_arl", "reps", "rounds", "censor_at"}
    assert 180 <= obj["achieved_arl"] <= 220


def test_bench_counters_csv(tmp_path, capsys):
    out_path = tmp_path / "c.csv"
    code, _, _ = run_cli(
        ["bench", "--experiment", "counters", "--family", "gauss-mean", "--theta0", "0",
         "--direction", "up", "--threshold", "25", "--theta-pre", "0", "--length", "100",
         "--seed", "5", "--output", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,curves_stored,curves_evaluated,merges,transcendental_calls"
    assert len(lines) == 101


def test_bench_delays_csv(tmp_path, capsys):
    out_path = tmp_path / "d.csv"
    code, _, _ = run_cli(
        ["bench", "--experiment", "delays", "--family", "gauss-var", "--theta0", "1",
         "--direction", "up", "--threshold", "15", "--theta-pre", "1", "--theta-post", "2",
         "--change-at", "50", "--length", "500", "--seed", "5", "--reps", "5",
         "--output", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "label,rep,outcome,detect_time,delay"
    assert len(lines) == 6


_BENCH_DELAYS = ["bench", "--experiment", "delays", "--family", "gauss-mean", "--theta0", "0",
                 "--threshold", "5", "--theta-pre", "0", "--length", "5"]


@pytest.mark.parametrize("argv, seed", [
    (["simulate", "--family", "gauss-mean", "--theta-pre", "0", "--length", "5", "--seed", "-1"], "-1"),
    (["calibrate", "--family", "gauss-mean", "--theta0", "0", "--target-arl", "100",
      "--reps", "50", "--seed", "-1"], "-1"),
    ([*_BENCH_DELAYS, "--seed", "-2"], "-2"),
    (["bench", "--experiment", "counters", "--family", "gauss-mean", "--theta0", "0",
      "--threshold", "5", "--theta-pre", "0", "--length", "5", "--seed", "-3"], "-3"),
])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv, seed):
    out_path = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", str(out_path)])
    assert exc.value.code == 2
    assert f"seed must be non-negative, got {seed}" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_bench_delays_rejects_reps_below_one(tmp_path, capsys, reps):
    out_path = tmp_path / "d.csv"
    with pytest.raises(SystemExit) as exc:
        main([*_BENCH_DELAYS, "--seed", "1", "--reps", reps, "--output", str(out_path)])
    assert exc.value.code == 2
    assert f"reps must be at least 1, got {reps}" in capsys.readouterr().err
    assert not out_path.exists()


def test_module_entrypoint_subprocess(tmp_path):
    p = tmp_path / "in.txt"
    p.write_text("3\n3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "streamcpd.cli", "detect", "--family", "gauss-mean",
         "--theta0", "0", "--threshold", "10", "--input", str(p)],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert '"detect": true' in proc.stdout


@pytest.mark.parametrize("argv", [
    ["simulate", "--family", "poisson", "--theta-pre", "1e20"],
    ["simulate", "--family", "gamma", "--shape", "1", "--theta-pre", "1e308"],
])
def test_simulate_non_finite_stream_is_a_usage_error(tmp_path, capsys, argv):
    out_path = tmp_path / "s.txt"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--length", "3", "--seed", "1", "--output", str(out_path)])
    assert exc.value.code == 2
    assert f"theta={float(argv[-1])!r} gives non-finite" in capsys.readouterr().err
    assert not out_path.exists()


def test_simulate_gamma_draws_that_underflow_are_a_usage_error(tmp_path, capsys):
    # about half the draws at shape 0.001 lie below the smallest double
    out_path = tmp_path / "s.txt"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--family", "gamma", "--shape", "0.001", "--theta-pre", "1",
              "--length", "3", "--seed", "1", "--output", str(out_path)])
    assert exc.value.code == 2
    assert "theta=1.0 gives out-of-support gamma observations at shape 0.001" in capsys.readouterr().err
    assert not out_path.exists()


# ------------------------------------------------------------------
# output failures
# ------------------------------------------------------------------

needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "1e9"],
    ["simulate", "--family", "gauss-mean", "--theta-pre", "0", "--length", "3", "--seed", "1"],
    ["calibrate", "--family", "gauss-mean", "--theta0", "0", "--direction", "up",
     "--target-arl", "100", "--reps", "50", "--seed", "1"],
    ["bench", "--experiment", "counters", "--family", "gauss-mean", "--theta0", "0",
     "--threshold", "5", "--theta-pre", "0", "--length", "5", "--seed", "1"],
    [*_BENCH_DELAYS, "--seed", "1", "--reps", "2"],
], ids=["detect", "simulate", "calibrate", "bench-counters", "bench-delays"])
def test_write_failure_exits_1(tmp_path, capsys, argv):
    if argv[0] == "detect":
        p = tmp_path / "in.txt"
        p.write_text("0.1\n0.2\n")
        argv = [*argv, "--input", str(p)]
    code, _, err = run_cli([*argv, "--output", "/dev/full"], capsys)
    assert code == 1
    assert err.startswith("error: I/O failure:")


@needs_dev_full
def test_stdout_write_failure_exits_1_without_traceback():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "streamcpd.cli", "simulate", "--family", "gauss-mean",
             "--theta-pre", "0", "--length", "3", "--seed", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: I/O failure:") and "Traceback" not in proc.stderr


def test_closed_pipe_exits_1_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "streamcpd.cli", "simulate", "--family", "gauss-mean",
         "--theta-pre", "0", "--length", "100000", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline()
    proc.stdout.close()  # like `| head -1`
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert "Broken pipe" in err and "Traceback" not in err
