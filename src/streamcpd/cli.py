"""Command-line front end: detect / calibrate / simulate / bench.

``detect`` reads one numeric value per line (blank lines skipped, ``#`` lines
are comments) and emits one NDJSON event per step.  Exit codes: 0 clean end
of stream, 1 I/O error, 2 malformed input or bad value (line reported),
3 detection with stop-on-detect enabled, 4 calibration non-convergence.

``detect`` runs on the standard library alone; the other subcommands import
`bench` and `simulate`, and with them numpy and scipy, when they run.
"""

from __future__ import annotations

import argparse
import errno
import io
import math
import os
import sys

from .detector import Detector, DetectorConfig
from .errors import CalibrationError, StreamCpdError
from .families import Direction, FamilyKind, FamilySpec

_FAMILY_CHOICES = [k.value for k in FamilyKind]
_DIRECTION_NAMES = {d: d.name.lower() for d in Direction}
_SUBCOMMANDS = ("detect", "calibrate", "simulate", "bench")


def _fmt17(v: float) -> str:
    # +inf as 1e999: valid JSON, read back as infinity by JSON parsers and float()
    return "1e999" if v == math.inf else format(float(v), ".17g")


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=_FAMILY_CHOICES)
    p.add_argument("--trials", type=int, help="trials per observation (binomial only)")
    p.add_argument("--shape", type=float, help="fixed shape parameter (gamma only)")


def _add_detector_flags(p: argparse.ArgumentParser) -> None:
    _add_family_flags(p)
    p.add_argument("--theta0", required=True, help='pre-change parameter, or "unknown"')
    p.add_argument("--direction", choices=["up", "down", "both"], default="both")
    p.add_argument("--threshold", type=float, required=True, help="detection threshold (doubled-LR scale)")


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta-pre", dest="theta_pre", type=float, required=True)
    p.add_argument("--theta-post", dest="theta_post", type=float)
    p.add_argument("--change-at", dest="change_at", type=int, default=0)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)


def _build_spec(args, parser: argparse.ArgumentParser) -> FamilySpec:
    try:
        return FamilySpec(FamilyKind(args.family), trials=args.trials, shape=args.shape)
    except ValueError as e:
        parser.error(str(e))


def _parse_theta0(raw: str, parser: argparse.ArgumentParser) -> float | None:
    if raw.lower() == "unknown":
        return None
    try:
        return float(raw)
    except ValueError:
        parser.error(f'--theta0 must be a number or "unknown", got {raw!r}')


def _build_config(args, parser: argparse.ArgumentParser, stop_on_detect: bool = True) -> DetectorConfig:
    spec = _build_spec(args, parser)
    theta0 = _parse_theta0(args.theta0, parser)
    try:
        return DetectorConfig(
            spec=spec,
            theta0=theta0,
            threshold=args.threshold,
            direction=args.direction,
            stat_every=getattr(args, "stat_every", 0),
            stop_on_detect=stop_on_detect,
        )
    except ValueError as e:
        parser.error(str(e))


def _open_in(path: str):
    # UTF-8, with undecodable bytes kept as lone surrogates: such a line then
    # fails float() and is rejected by number (see _bad_line)
    if path != "-":
        return open(path, "r", encoding="utf-8", errors="surrogateescape")
    if sys.stdin is None:  # started with file descriptor 0 closed
        raise OSError(errno.EBADF, "standard input is closed")
    if isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    return sys.stdin


def _bad_line(line: str) -> str:
    try:
        line.encode()
    except UnicodeEncodeError:
        return f"not valid UTF-8: {line.encode(errors='surrogateescape')!r}"
    return f"not a number: {line!r}"


def _write_output(path: str, write) -> int:
    """Open ``path`` (``-`` = stdout), run ``write(fout)``, flush and close.

    Returns the exit code ``write`` returns (None counts as 0), or 1 after
    an ``error: ...`` line when opening, writing or closing the output
    fails (a closed pipe included).
    """
    try:
        if path != "-":
            fout = open(path, "w")
        elif sys.stdout is None:  # started with file descriptor 1 closed
            raise OSError(errno.EBADF, "standard output is closed")
        else:
            fout = sys.stdout
    except OSError as e:
        print(f"error: cannot open output: {e}", file=sys.stderr)
        return 1
    try:
        try:
            return write(fout) or 0
        finally:
            if fout is sys.stdout:
                fout.flush()
            else:
                fout.close()
    except OSError as e:
        if fout is sys.stdout:
            # the interpreter flushes stdout again at exit; send that to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: I/O failure: {e}", file=sys.stderr)
        return 1


# ------------------------------------------------------------------
# detect
# ------------------------------------------------------------------


def _detect_lines(detector: Detector, fin, fout) -> int:
    """Step ``detector`` on each line; only a line ``float`` rejects is stripped and classified."""
    stop_on_detect = detector.config.stop_on_detect
    step, write = detector.step, fout.write
    for lineno, raw in enumerate(fin, start=1):
        try:
            x = float(raw)
        except ValueError:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                x = float(line)  # strip() also removes \x1c-\x1f, which float() does not
            except ValueError:
                print(f"error: line {lineno}: {_bad_line(line)}", file=sys.stderr)
                return 2
        try:
            t, detection, stat, curves, evaluated = step(x)
        except StreamCpdError as e:
            print(f"error: line {lineno}: {e}", file=sys.stderr)
            return 2
        if detection is not None:
            write(
                f'{{"t": {t}, "curves": {curves}, "evaluated": {evaluated}, "detect": true, '
                f'"tau_low": {detection.tau_low}, "stat": {_fmt17(detection.stat)}, '
                f'"direction": "{_DIRECTION_NAMES[detection.direction_hit]}"}}\n'
            )
            if stop_on_detect:
                return 3
        elif stat is not None:
            write(f'{{"t": {t}, "curves": {curves}, "evaluated": {evaluated}, "stat": {_fmt17(stat)}}}\n')
        else:
            write(f'{{"t": {t}, "curves": {curves}, "evaluated": {evaluated}}}\n')
    return 0


def run_detect(args, parser: argparse.ArgumentParser) -> int:
    detector = Detector(_build_config(args, parser, stop_on_detect=not args.no_stop))
    try:
        fin = _open_in(args.input)
    except OSError as e:
        print(f"error: cannot open input: {e}", file=sys.stderr)
        return 1
    try:
        return _write_output(args.output, lambda fout: _detect_lines(detector, fin, fout))
    finally:
        if fin is not sys.stdin:
            fin.close()


# ------------------------------------------------------------------
# calibrate
# ------------------------------------------------------------------


def _calibration_json(res) -> str:
    parts = [
        f'"threshold": {_fmt17(res.threshold)}',
        f'"achieved_arl": {_fmt17(res.achieved_arl)}',
        f'"target_arl": {res.target_arl}',
        f'"reps": {res.reps}',
        f'"rounds": {res.rounds}',
        f'"censor_at": {res.censor_at}',
    ]
    return "{" + ", ".join(parts) + "}"


def run_calibrate(args, parser: argparse.ArgumentParser) -> int:
    from .bench import calibrate_threshold

    # threshold is calibrated, not supplied; feed a placeholder to the config
    args.threshold = 1.0
    config = _build_config(args, parser)
    try:
        res = calibrate_threshold(
            config, args.target_arl, args.reps, args.seed, null_theta=args.null_theta
        )
    except CalibrationError as e:
        print(f"error: {e} (bracket: lo={e.lo}, hi={e.hi})", file=sys.stderr)
        return 4
    except ValueError as e:
        parser.error(str(e))
    return _write_output(args.output, lambda fout: print(_calibration_json(res), file=fout))


# ------------------------------------------------------------------
# simulate
# ------------------------------------------------------------------


def _build_scenario(args, parser: argparse.ArgumentParser):
    from .simulate import Scenario

    spec = _build_spec(args, parser)
    theta_post = args.theta_post if args.theta_post is not None else args.theta_pre
    try:
        return Scenario(
            spec=spec,
            theta_pre=args.theta_pre,
            theta_post=theta_post,
            change_at=args.change_at,
            length=args.length,
            seed=args.seed,
        )
    except ValueError as e:
        parser.error(str(e))


def run_simulate(args, parser: argparse.ArgumentParser) -> int:
    from .simulate import generate

    scenario = _build_scenario(args, parser)
    try:
        stream = generate(scenario)
    except ValueError as e:
        parser.error(str(e))
    fmt = (lambda v: str(int(v))) if scenario.spec.integral else _fmt17
    return _write_output(args.output, lambda fout: fout.writelines(fmt(v) + "\n" for v in stream))


# ------------------------------------------------------------------
# bench
# ------------------------------------------------------------------


def run_bench(args, parser: argparse.ArgumentParser) -> int:
    from .bench import DelayRun, counter_profile, delay_experiment, write_counter_csv, write_delay_csv

    config = _build_config(args, parser)
    scenario = _build_scenario(args, parser)
    try:
        if args.experiment == "counters":
            table, write = counter_profile(config, scenario, mode=args.mode), write_counter_csv
        else:
            runs = [DelayRun("run", config, scenario, square_data=args.square_data)]
            table, write = delay_experiment(runs, args.reps), write_delay_csv
    except ValueError as e:
        parser.error(str(e))
    return _write_output(args.output, lambda fout: write(table, fout))


# ------------------------------------------------------------------
# entry point
# ------------------------------------------------------------------


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The parser, with only ``subcommand``'s arguments if it names one: a third of the cost."""
    parser = argparse.ArgumentParser(
        prog="streamcpd",
        description="Online changepoint detection via exact one-sided likelihood-ratio tests",
    )
    wanted = (subcommand,) if subcommand in _SUBCOMMANDS else _SUBCOMMANDS
    # with one added, the metavar keeps all four names in the usage line errors print
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="{" + ",".join(_SUBCOMMANDS) + "}" if len(wanted) == 1 else None)

    if "detect" in wanted:
        p = sub.add_parser("detect", help="stream values from a file or stdin and emit NDJSON events")
        _add_detector_flags(p)
        p.add_argument("--input", "-i", default="-", help="input path or - for stdin")
        p.add_argument("--output", "-o", default="-", help="output path or - for stdout")
        p.add_argument("--stat-every", dest="stat_every", type=int, default=0,
                       help="emit the full statistic every K steps (0 = never)")
        p.add_argument("--no-stop", action="store_true", help="keep running after a detection")
        p.set_defaults(func=run_detect)

    if "calibrate" in wanted:
        p = sub.add_parser("calibrate", help="Monte Carlo threshold calibration for a target ARL")
        _add_family_flags(p)
        p.add_argument("--theta0", required=True)
        p.add_argument("--direction", choices=["up", "down", "both"], default="both")
        p.add_argument("--target-arl", dest="target_arl", type=int, required=True)
        p.add_argument("--reps", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--null-theta", dest="null_theta", type=float,
                       help="simulation parameter when theta0 is unknown")
        p.add_argument("--output", "-o", default="-")
        p.set_defaults(func=run_calibrate)

    if "simulate" in wanted:
        p = sub.add_parser("simulate", help="write a reproducible stream for a scenario")
        _add_family_flags(p)
        _add_scenario_flags(p)
        p.add_argument("--output", "-o", default="-")
        p.set_defaults(func=run_simulate)

    if "bench" in wanted:
        p = sub.add_parser("bench", help="counter profiles and delay experiments (CSV)")
        p.add_argument("--experiment", choices=["counters", "delays"], required=True)
        _add_detector_flags(p)
        _add_scenario_flags(p)
        p.add_argument("--reps", type=int, default=100)
        p.add_argument("--mode", choices=["adaptive", "full"], default="adaptive")
        p.add_argument("--square-data", dest="square_data", action="store_true",
                       help="feed squared values to the detector (delays experiment)")
        p.add_argument("--output", "-o", default="-")
        p.set_defaults(func=run_bench)

    return parser


def main(argv=None) -> int:
    """Run one command line, building only the parser of the subcommand it names first."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
