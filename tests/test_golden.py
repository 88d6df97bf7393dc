"""Golden digests: sha256 of CLI outputs on a fixed corpus of seeded streams.

Refactors of the step loop, the family forms or the generators must leave
every byte of these outputs unchanged.  Each digest below was recorded once
and is never edited to make a change pass: a differing digest means the
change altered an output.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from streamcpd.cli import main

# (family flags, theta0, theta_post) per family; theta_pre == theta0
FAMILIES = {
    "gauss-mean": ([], "0", "1.5"),
    "gauss-var": ([], "1", "3"),
    "poisson": ([], "2", "4"),
    "binomial": (["--trials", "3"], "0.3", "0.6"),
    "gamma": (["--shape", "2"], "1", "2"),
}
LENGTH = 400
CHANGE_AT = 200

SIMULATE = {
    "gauss-mean/null": "1ab086d55caaa02580e4211f0b18b1bad6b4250d4b52bbf758601aeba26f27ca",
    "gauss-mean/shift": "db86934013d7253358a39f341d5a28e28f726916842e05efb3919af95b124de7",
    "gauss-var/null": "1ab086d55caaa02580e4211f0b18b1bad6b4250d4b52bbf758601aeba26f27ca",
    "gauss-var/shift": "b8a24c9883671a1c3d4761dece318e4c6cdb00817f9769d65feb089711190c1b",
    "poisson/null": "3a7c5ee8f446940945342f6bee0bdb72890b1d921119830315c309f841e5c058",
    "poisson/shift": "cab87d05cca8d96ae48fc6500a702bc0bdfd0e093cae5496fb5b46ac4f729ac3",
    "binomial/null": "816a2cb35826e67650c57c00727cfecfafcd4edc3681f2c00e7e28c520d52cd1",
    "binomial/shift": "077fcf053b973a222923a6b6d309dc8af844c2ace414afcfc4f25e4e3501a933",
    "gamma/null": "918da629bef175d26f06e17820a22592d6711eb3a748147e90015fef21d9b1c8",
    "gamma/shift": "dd89a917a6c6258460d0a3d3abe43119afb7e617947064583bc96d505fab5171",
}
DETECT = {
    "gauss-mean/known/up/null": "0:04565fa28e2701821c27af050170033a9dde1d046b2f5c72ff663bece6a85673",
    "gauss-mean/known/up/shift": "0:83f7fc94ab874d2059f693b16cec5b00622b7ff1086fc5b01c7d2e0b80c127ff",
    "gauss-mean/known/both/null": "0:8ddad89657cb8f360c438b510e9b7e7784b908dd79ca4f1b6176b0e92aba22dc",
    "gauss-mean/known/both/shift": "0:189202a57af30acf9204f1803de3fdf85283b0bbba3fbb33cc439423a352e856",
    "gauss-mean/unknown/up/null": "0:9642fcd350bf302d7b082c05482c7b4bc0a7538d487f0bc533f633dd228f47fb",
    "gauss-mean/unknown/up/shift": "0:d1bff1e4b168dcb3328a8eb824ea11131de5850592bd0580883ac18438aeb915",
    "gauss-mean/unknown/both/null": "0:95f63988bceb6573365e60497f6cb5c90e5dab34be6dc1f046a5e6e44840fdfd",
    "gauss-mean/unknown/both/shift": "0:a2b6594dbb04de730d422d1c00ea0da49574c2e4288722875e4befe7effb4e1f",
    "gauss-var/known/up/null": "0:103fa97cb548ca77934c7e074afb31f6326347e953a2369759813c614e45f8e4",
    "gauss-var/known/up/shift": "0:1a3ee88df0e93a7466eafa58867ff98b8fdea977b1e281134cd628a8c677eb3c",
    "gauss-var/known/both/null": "0:4e1adc189a5e55ee43a55e9981ff77c03527beb1f7f56533c288f03703b61d1b",
    "gauss-var/known/both/shift": "0:02ed488911882f988e2e2ad060c2626b1c48048b5f2d39a5062d488f38d57a43",
    "gauss-var/unknown/up/null": "0:d145f0c9bf56163f1a7f21df5fad1be2bbb0d21c037b101f3f42a50bc71d8e3a",
    "gauss-var/unknown/up/shift": "0:344479e6b272079fdada2390a08545521f2236074b967964b5ec06afaa5e7d4b",
    "gauss-var/unknown/both/null": "0:b7e793a9151f619ec969bfe9c46aa6f5b8b1febb8c04ea2797dab7fea91cf21f",
    "gauss-var/unknown/both/shift": "0:7ad67390ff5529d251ce8f063a15fc51be35f8907c7592b578486336e55083d6",
    "poisson/known/up/null": "0:a700f2d1b4c0f0c28cf248092abc2d876cde6e8bcff2de11ca52e3e2b54a7c34",
    "poisson/known/up/shift": "0:2bc43351f6ab1256d7dc3928660f4659d32649b07d90b9845f4da590d673c630",
    "poisson/known/both/null": "0:70b094814ebfcf9fd3bc35a1a38a0265e2e16850585315ae579a23c5c4de6243",
    "poisson/known/both/shift": "0:b8e97f6b50ceed757a005b0f1defd677c4add636670b934283c4fd1262b51455",
    "poisson/unknown/up/null": "0:4f82a828f3b88d261493d14178b4fe5cab30c5b8f823d2cd96d6d383ff13bd82",
    "poisson/unknown/up/shift": "0:def841e5cd2b72993476225b292f57ffe50e62cd5fefb81be1ef16c9b361e045",
    "poisson/unknown/both/null": "0:bba31a9cba17c88486712910fa13c16ebeb5b0515432cabe3077803d9e221971",
    "poisson/unknown/both/shift": "0:deff3755a9b918ba04d23a79931067a237341da3dc780133e1a90044698cdd2d",
    "binomial/known/up/null": "0:3bd370401a7e075f4316ede697ac1b2ca28668b367865fcd6a0910e7aaabd8f7",
    "binomial/known/up/shift": "0:440c7a48d7a269d658067a56bedbe25ba7f2792db743f0838aaa446629452556",
    "binomial/known/both/null": "0:42e44fb40ff21644d75fcf4f14d220c5a278fe67f4873c103a3583aa0c6764cf",
    "binomial/known/both/shift": "0:b73dc5db4ec1196f4dceb8ff1a0ef39a6e07384a2cc1843c9482edcf53e869ed",
    "binomial/unknown/up/null": "0:713ebf0a5e96b2235a4814b0cf2997cd6b0d1d73693f105be705ac246463c4d9",
    "binomial/unknown/up/shift": "0:1727ba7e8a3c70ee9bc077a4db97744a80682ac732ca92e535154c0d6a041b7c",
    "binomial/unknown/both/null": "0:4089d6a608d540271df95febcc1c7a020794e46069121c09e7a2750e75f7737e",
    "binomial/unknown/both/shift": "0:4b502467cf8f41c35e5229d885fd72a04a58ecbc5f9bad2591033e5d59ffeea8",
    "gamma/known/up/null": "0:628f72651d38cd0bb59c1a3769a1d49bd3176df3082b909800e575c311ee99e0",
    "gamma/known/up/shift": "0:63ff84208ccf5c5dd4d87936e206dfb519e6590005cb4c440f9684d8a43d2b06",
    "gamma/known/both/null": "0:2cc1d4c86e358ef70bb11f54407ea341fdfc06b5534adad1b0a4eb5234aaf631",
    "gamma/known/both/shift": "0:60eb1269f55301d08e5f32942294f5881dd42138dba855cc6a675e4178aad6d1",
    "gamma/unknown/up/null": "0:d0acdcbfc6fa2bb0f12a8b85b44637fa88b107b05b1d841fa12ea2d8a4b02934",
    "gamma/unknown/up/shift": "0:d1adb30c53c6a23fa4cc46ee514bf73a129300af0c5e9273b2d332602c8d64ca",
    "gamma/unknown/both/null": "0:3a49ab00ded75a27becf208da72c0c9a7cf3dc98f93e1bc4004051fd2bb2c86f",
    "gamma/unknown/both/shift": "0:ebbb9dad8da44444d6dcfbfe86678f476bfae7eca58eeab75623eb9568ee7a51",
}
OTHER = {
    "counters/adaptive": "650af69d0cf46b25988b5bcba79b51120148d1a5c552bc945ea692e3fc6fa5cb",
    "counters/full": "08ccd1801246397ed77caa03b5078e179434e8e9f52fe2131363ddb3933a87cf",
    "counters/known/adaptive": "e1257166eb30368bbbb67b679906e8080ac89cd535c52df6aa67f49b867c5c40",
    "counters/known/full": "b32a8fe291ad2d186a2368fddaa53100409289dad0d4e71616a0b56a7306a55a",
    "delays": "0424172ab8bdbf5d06f5876d7269d907e184f7b453bcb945ddd1cfca81cf3a24",
    "calibrate": "3cdddba438d93c8b3584cebdab8c1d6742970748c855283be75c9ec0c8a90d97",
    "null_cost_profile/csv": "5f270529faf8528d41cef1ca72047949699cabd134d3c025b0b19f5cd048e7e2",
    "null_cost_profile/stderr": "6c353019b6a9200251d6a5726e841e824d3204e5153ad60185597c942140f864",
    "variance_delay_study/csv": "a9e6e76f0ede14e7beeb4f4964be1ade8b74069ea107de3617611143f01385c1",
    "variance_delay_study/stderr": "96c2261a2c650a0099e1424f41b183704183383a75f9c5f46f284ce0fcc09af5",
}
# calibrations at ARL 100 on 50 replicates whose draws go through the
# quantile searches (Poisson, binomial) and gammaincinv: the exit code and
# the digest of the JSON written (exit 0) or of stderr (exit 4, when the
# bisection steps over the band of an integral family)
CALIBRATIONS = {
    "poisson/unknown/up": (
        ["--family", "poisson", "--theta0", "unknown", "--null-theta", "2", "--direction", "up",
         "--seed", "2"],
        "0:2b7293dd84686d2fa3f9384ebdc753a832142a4320cb1d3defb2dc6eea015aed",
    ),
    "gamma/known/both": (
        ["--family", "gamma", "--shape", "2", "--theta0", "1", "--direction", "both", "--seed", "3"],
        "0:102948be22458d54a556a1a01d1c5de9b81d82ab8f21c0daf20ad42c40b97268",
    ),
    "binomial/known/down": (
        ["--family", "binomial", "--trials", "3", "--theta0", "0.4", "--direction", "down",
         "--seed", "4"],
        "0:58a2ebe3cda78c9417f662e759b3acc535847d05e0009d355ca60b547b9e201b",
    ),
    "binomial1/known/up": (
        ["--family", "binomial", "--trials", "1", "--theta0", "0.5", "--direction", "up",
         "--seed", "1"],
        "4:edd216ce1b3c9e66e5d1270db5ba70741fbe0ad3ad66f47aa3031c034f66ee8a",
    ),
}
# delay studies on 40 replicates of 150 steps, change at 60: each table has
# detected, false-positive and censored rows
DELAY_STUDIES = {
    "gauss-var/unknown/both": (
        ["--family", "gauss-var", "--theta0", "unknown", "--direction", "both", "--threshold", "12",
         "--theta-pre", "1", "--theta-post", "2", "--seed", "5"],
        "cb5bcc9f3e9ebdb885d6232502456710d384244fe60200f11369bd2002003b34",
    ),
    "poisson/unknown/up": (
        ["--family", "poisson", "--theta0", "unknown", "--direction", "up", "--threshold", "11",
         "--theta-pre", "2", "--theta-post", "2.8", "--seed", "6"],
        "39ce15b9a211d64bff383af41f746c88774861973af09e3301d12f1937063676",
    ),
    "binomial/known/down": (
        ["--family", "binomial", "--trials", "3", "--theta0", "0.4", "--direction", "down",
         "--threshold", "12", "--theta-pre", "0.4", "--theta-post", "0.3", "--seed", "7"],
        "426eb6296909fe4f210c677c761ee615ed729bc32a0e6aae0722ec1bcb772139",
    ),
    "gauss-mean-squares/known/both": (
        ["--family", "gauss-mean", "--square-data", "--theta0", "1", "--direction", "both",
         "--threshold", "50", "--theta-pre", "0", "--theta-post", "0.7", "--seed", "8"],
        "a648144a31b19f25470896837008996378dbded24be51e6e276b6e51dab627e2",
    ),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulate(tmp_path, family: str, shifted: bool):
    flags, theta0, post = FAMILIES[family]
    out = tmp_path / f"{family}-{'shift' if shifted else 'null'}.txt"
    argv = ["simulate", "--family", family, *flags, "--theta-pre", theta0,
            "--length", str(LENGTH), "--seed", "11", "--output", str(out)]
    if shifted:
        argv += ["--theta-post", post, "--change-at", str(CHANGE_AT)]
    assert main(argv) == 0
    return out


def _detect_cases():
    for family in FAMILIES:
        for known in (True, False):
            for direction in ("up", "both"):
                for stream in ("null", "shift"):
                    yield f"{family}/{'known' if known else 'unknown'}/{direction}/{stream}"


@pytest.mark.parametrize("stream", ["null", "shift"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_simulate_digest(tmp_path, family, stream):
    path = _simulate(tmp_path, family, stream == "shift")
    assert _sha(path) == SIMULATE[f"{family}/{stream}"]


@pytest.mark.parametrize("case", list(_detect_cases()))
def test_detect_digest(tmp_path, case):
    family, theta_mode, direction, stream = case.split("/")
    flags, theta0, _ = FAMILIES[family]
    src = _simulate(tmp_path, family, stream == "shift")
    out = tmp_path / "events.ndjson"
    argv = ["detect", "--family", family, *flags,
            "--theta0", theta0 if theta_mode == "known" else "unknown",
            "--direction", direction, "--input", str(src), "--output", str(out)]
    if stream == "null":
        # default stop-on-detect, a threshold rarely crossed, periodic full stats
        argv += ["--threshold", "30", "--stat-every", "50"]
    else:
        # the hit path: a low threshold and no stop, so detections repeat
        argv += ["--threshold", "8", "--no-stop"]
    code = main(argv)
    assert code in (0, 3)
    assert f"{code}:{_sha(out)}" == DETECT[case]


@pytest.mark.parametrize("mode", ["adaptive", "full"])
def test_bench_counters_digest(tmp_path, mode):
    out = tmp_path / "counters.csv"
    argv = ["bench", "--experiment", "counters", "--family", "poisson", "--theta0", "unknown",
            "--direction", "both", "--threshold", "12", "--theta-pre", "2", "--theta-post", "4",
            "--change-at", "300", "--length", "600", "--seed", "3", "--mode", mode,
            "--output", str(out)]
    assert main(argv) == 0
    assert _sha(out) == OTHER[f"counters/{mode}"]


@pytest.mark.parametrize("mode", ["adaptive", "full"])
def test_bench_known_counters_digest(tmp_path, mode):
    # theta0 known: a log call per prefix bound and per curve, no pooled
    # term; the null stretch is long enough for the barrier to fire
    out = tmp_path / "counters.csv"
    argv = ["bench", "--experiment", "counters", "--family", "gauss-var", "--theta0", "1",
            "--direction", "up", "--threshold", "12", "--theta-pre", "1", "--theta-post", "3",
            "--change-at", "300", "--length", "600", "--seed", "3", "--mode", mode,
            "--output", str(out)]
    assert main(argv) == 0
    rows = out.read_text().splitlines()[1:]
    assert any(row.split(",")[1] == "0" for row in rows)  # a step ended with nothing stored
    assert _sha(out) == OTHER[f"counters/known/{mode}"]


def test_bench_delays_digest(tmp_path):
    out = tmp_path / "delays.csv"
    argv = ["bench", "--experiment", "delays", "--family", "gamma", "--shape", "2",
            "--theta0", "1", "--direction", "both", "--threshold", "10", "--theta-pre", "1",
            "--theta-post", "2", "--change-at", "100", "--length", "400", "--seed", "4",
            "--reps", "20", "--output", str(out)]
    assert main(argv) == 0
    assert _sha(out) == OTHER["delays"]


@pytest.mark.parametrize("study", list(DELAY_STUDIES))
def test_bench_delay_study_digest(tmp_path, study):
    flags, digest = DELAY_STUDIES[study]
    out = tmp_path / "delays.csv"
    argv = ["bench", "--experiment", "delays", *flags, "--change-at", "60", "--length", "150",
            "--reps", "40", "--output", str(out)]
    assert main(argv) == 0
    assert _sha(out) == digest


def test_calibrate_digest(tmp_path):
    out = tmp_path / "calibration.json"
    argv = ["calibrate", "--family", "gauss-mean", "--theta0", "0", "--direction", "up",
            "--target-arl", "100", "--reps", "50", "--seed", "1", "--output", str(out)]
    assert main(argv) == 0
    assert _sha(out) == OTHER["calibrate"]


@pytest.mark.parametrize("case", list(CALIBRATIONS))
def test_calibrate_family_digest(tmp_path, capsys, case):
    flags, digest = CALIBRATIONS[case]
    out = tmp_path / "calibration.json"
    code = main(["calibrate", *flags, "--target-arl", "100", "--reps", "50", "--output", str(out)])
    body = out.read_bytes() if code == 0 else capsys.readouterr().err.encode()
    assert f"{code}:{hashlib.sha256(body).hexdigest()}" == digest


def _run_script(tmp_path, script, args):
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "out.csv"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script), *args, "-o", str(out)],
        capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return _sha(out), hashlib.sha256(proc.stderr).hexdigest()


def test_null_cost_profile_digest(tmp_path):
    # the one caller of update, q_full and root pruning together: its
    # per-step counts and its summary lines
    csv, err = _run_script(tmp_path, "null_cost_profile.py", ["--length", "2000", "--seed", "4"])
    assert csv == OTHER["null_cost_profile/csv"]
    assert err == OTHER["null_cost_profile/stderr"]


def test_variance_delay_study_digest(tmp_path):
    # the one caller that calibrates with null_spec and square_data, at the
    # size tests/test_scripts.py runs it
    csv, err = _run_script(tmp_path, "variance_delay_study.py", [
        "--target-arl", "100", "--reps", "5", "--cal-reps", "50", "--change-at", "50",
        "--length", "300", "--theta1", "2.0"])
    assert csv == OTHER["variance_delay_study/csv"]
    assert err == OTHER["variance_delay_study/stderr"]
