"""Pinned CLI text: help, usage and error output, and detect's line handling.

`main` builds only the invoked subcommand's parser, and `detect` tries each
line as a number before it strips and classifies it.  Neither shortcut may
change a byte of what a caller sees.  Each digest below is the sha256 of a
case's stdout, stderr and exit code, recorded once from the implementation
that built every subcommand's parser and stripped every line first; a
differing digest means the change altered an output.  The help and usage
digests hold for the argparse of the Python they were recorded with (3.11):
other versions lay help out differently.  The fast path is also compared
with the full parser in process, on any version.
"""

import hashlib
import sys

import pytest

from streamcpd import cli

_DETECT = ["detect", "--family", "gauss-mean", "--theta0", "0", "--threshold", "5"]

# name -> argv
PARSER_CASES = {
    "help": ["--help"],
    "detect-help": ["detect", "--help"],
    "calibrate-help": ["calibrate", "--help"],
    "simulate-help": ["simulate", "--help"],
    "bench-help": ["bench", "--help"],
    "no-subcommand": [],
    "invalid-subcommand": ["detet", "--family", "gauss-mean"],
    "option-before-subcommand": ["--family", "gauss-mean", "detect"],
    "detect-missing-flag": ["detect", "--family", "gauss-mean", "--theta0", "0"],
    "detect-bad-theta0": ["detect", "--family", "gauss-mean", "--theta0", "zero", "--threshold", "5"],
    "detect-unrecognized": [*_DETECT, "--bogus"],
    "calibrate-bad-int": ["calibrate", "--family", "poisson", "--theta0", "1", "--target-arl", "x",
                          "--reps", "5", "--seed", "1"],
    "simulate-missing-shape": ["simulate", "--family", "gamma", "--theta-pre", "1", "--length", "10",
                               "--seed", "1"],
    "bench-bad-choice": ["bench", "--experiment", "latency", "--family", "gauss-mean", "--theta0", "0",
                         "--threshold", "5", "--theta-pre", "0", "--length", "10", "--seed", "1"],
}
PARSER_DIGESTS = {
    "help": "3c78fc8ebab0ca9ab974dc120d11b886f6bb7d592145aa52f34bb7d27ca58a9e",
    "detect-help": "0f460869a5e481a2940e1956b364d9d9064c057286581376966689664ff012c0",
    "calibrate-help": "0cdd14222a0a5f88b620cefc36710c95a238047a38eb4fb72a7452d0b9a44039",
    "simulate-help": "b4f4b06c1d587c1f752bf54635c1c91a279366287bc8311e42a1d264105d1262",
    "bench-help": "8e0dd3099c6518fcd56487b5cdb4c1029d4e553f8920258150ab3dcfe18974ad",
    "no-subcommand": "4de3f236dff0113b2d572e8aa838ef97eedea0469d614236178b3cd346bea613",
    "invalid-subcommand": "7250c066e930b884be33f8b83ef47e4d30ad838810bcd259a543a861de8f3ced",
    "option-before-subcommand": "4d1e5f699fe1a7bcdd004202812dd3a6d7db16e38adcb2f5433a848c6dac4991",
    "detect-missing-flag": "d97f9f2beaf1a58edb97d2ce155be57886cdbfebee858b15abe1c11613711583",
    "detect-bad-theta0": "e79dc92586b13f913f36bd87b673fb054ab8b204028a2d7e1651c0d5192e267c",
    "detect-unrecognized": "5c56b920424c3cdd0289537c492a0e05169cd0b775ae9ab9c01ccb5fc280720e",
    "calibrate-bad-int": "2570563fb28f93c009124c2bf3d2f918d0d50f72a75c028d35999b3398479dca",
    "simulate-missing-shape": "5de772e30049965acb4cf2f1eb2944de1ada36ef339f62a798afa2559dfbc654",
    "bench-bad-choice": "eb944f1dfe35dc7aa2b9c270f419d6ddf8dfe17deb6671b34656d4475238c581",
}

# name -> input bytes
LINE_CASES = {
    "blank-and-whitespace": b"0.5\n\n   \n\t\n-0.25\n",
    "indented-comment": b"# head\n0.5\n  # note\n\t#x\n-0.25\n",
    "crlf": b"0.5\r\n-0.25\r\n\r\n# c\r\n1.5\r\n",
    "info-separators": b"\x1c0.5\x1d\n\x1e-0.25\x1f\n\x1f\n",
    "nbsp-and-line-separator": "\xa00.5\xa0\n\u2028-0.25\u2028\n\xa0\u2028\n".encode(),
    "underscore": b"1_0\n0.5\n",
    "nan": b"0.5\nnan\n",
    "inf": b"0.5\n -inf\n",
    "not-a-number": b"0.5\n1 # trailing\n",
    "non-utf8": b"0.5\n\xff\xfe1\n",
}
LINE_DIGESTS = {
    "blank-and-whitespace/0": "d33782398dfe241fddc9cf9293ef409a84fce846103fabf9e374b6ecba4cc80e",
    "blank-and-whitespace/unknown": "e510f12d751d8ddcff622c9ff68b08c44e3a9fc8fa79c803527754e8faccf91c",
    "indented-comment/0": "d33782398dfe241fddc9cf9293ef409a84fce846103fabf9e374b6ecba4cc80e",
    "indented-comment/unknown": "e510f12d751d8ddcff622c9ff68b08c44e3a9fc8fa79c803527754e8faccf91c",
    "crlf/0": "def16a2afd2325d9eaf095e98d4937fa1c2e802f099e147c1916117c672fbdc4",
    "crlf/unknown": "fc0298e5a5a85ef935475e5159d25ea50d60fe72fb62aaca72c90cee2558fb5f",
    "info-separators/0": "d33782398dfe241fddc9cf9293ef409a84fce846103fabf9e374b6ecba4cc80e",
    "info-separators/unknown": "e510f12d751d8ddcff622c9ff68b08c44e3a9fc8fa79c803527754e8faccf91c",
    "nbsp-and-line-separator/0": "d33782398dfe241fddc9cf9293ef409a84fce846103fabf9e374b6ecba4cc80e",
    "nbsp-and-line-separator/unknown": "e510f12d751d8ddcff622c9ff68b08c44e3a9fc8fa79c803527754e8faccf91c",
    "underscore/0": "962305476ab42d6c2decb34ef4f4afc7a1c573c7a3280c764a1d16c700a88f13",
    "underscore/unknown": "3ece25b775c5bc7b0b845a26f77ec03ad40f360fbc48fcb0a9597f7946a4edce",
    "nan/0": "5f972e17685c285a2af1547a1b5655244c1ac91a0f67911e23589dfc0f34ba57",
    "nan/unknown": "dc168120f551af47ae2d816c06216a059b4d70fe81bbc17d2392c5781b1de793",
    "inf/0": "589b1755d673951a27956cc5386a45234ca6fbe49140e9e5204065f2bd6a14c1",
    "inf/unknown": "aa5eedca7f43e3d6c225197d987346499fc936161acf7ab700fc6c2f0e87602e",
    "not-a-number/0": "41900afda1447c066a835d094337cc624366e14a1d47465c5ad381274129e492",
    "not-a-number/unknown": "6974baa7a3f92c4f70b67e3d3423f1544fa30f174f2aa4cc2a9ccc7fd218f2ce",
    "non-utf8/0": "f1c88f2abbf14376fa631005c6a3c45f98ddee9c6a9345fb97cf7a2257e11ade",
    "non-utf8/unknown": "2327d2b6ad8d5b8f4bb563eb278d9dc01c71b0f7392fd2a2ffd6e05ce4021433",
}


def _digest(out: str, err: str, code) -> str:
    blob = f"{out}\0{err}\0{code}".encode(errors="surrogateescape")
    return hashlib.sha256(blob).hexdigest()


def _run(fn, argv, capsys):
    try:
        code = fn(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return out.out, out.err, code


def _full_parser_main(argv):
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


def _line_argv(tmp_path, name, theta0):
    p = tmp_path / f"{name}.txt"
    p.write_bytes(LINE_CASES[name])
    return ["detect", "--family", "gauss-mean", "--theta0", theta0, "--threshold", "5",
            "--stat-every", "1", "--input", str(p)]


_ARGPARSE_AS_RECORDED = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="help layout recorded with Python 3.11's argparse")


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("name", PARSER_CASES)
def test_fast_parser_matches_full_parser(name, capsys):
    argv = PARSER_CASES[name]
    assert _run(cli.main, argv, capsys) == _run(_full_parser_main, argv, capsys)


@_ARGPARSE_AS_RECORDED
@pytest.mark.parametrize("name", PARSER_CASES)
def test_parser_text_is_pinned(name, capsys):
    assert _digest(*_run(cli.main, PARSER_CASES[name], capsys)) == PARSER_DIGESTS[name]


@pytest.mark.parametrize("theta0", ["0", "unknown"])
@pytest.mark.parametrize("name", LINE_CASES)
def test_line_classification_is_pinned(name, theta0, tmp_path, capsys):
    got = _run(cli.main, _line_argv(tmp_path, name, theta0), capsys)
    assert _digest(*got) == LINE_DIGESTS[f"{name}/{theta0}"]
